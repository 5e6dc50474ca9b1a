//! Measurement support shared by the repository's benchmark
//! (`ctbench/`) and `examples/explore_scaling.rs`: the counting global
//! allocator in [`alloc_counter`], the sole source of the end-to-end
//! `peak_heap_bytes` metric.

pub mod alloc_counter {
    //! A counting global allocator for peak-memory benchmarking.
    //!
    //! Install it in a binary with
    //! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
    //! then bracket a workload with [`reset_peak`] / [`peak_bytes`] to
    //! measure its peak live heap. Unlike an RSS sample the counter is
    //! exact, immune to allocator caching, and deterministic for a
    //! deterministic workload — which is what lets `ctbench` bound
    //! `peak_heap_bytes` far more tightly than its wall-clock metrics.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CURRENT: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// The system allocator wrapped with live/peak byte counters.
    pub struct CountingAlloc;

    fn add(bytes: usize) {
        let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                add(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                add(layout.size());
            }
            p
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
                add(new_size);
            }
            p
        }
    }

    /// Restarts the peak-tracking window at the current live size.
    pub fn reset_peak() {
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live heap bytes since the last [`reset_peak`].
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Currently live heap bytes.
    pub fn live_bytes() -> usize {
        CURRENT.load(Ordering::Relaxed)
    }
}
