//! The peak heap of the resident first-passage pipeline — exploration,
//! the generator view and the Krylov mean — per state of the n = 3
//! exponential chain (135 125 states, 5 packed words each).
//!
//! The pipeline peaks at about 119 B/state: the intern arena, the CSR
//! and the per-level buffers at the end of the exploration, or the
//! space, the generator's values and three Krylov n-vectors during the
//! solve. Stores that keep capacity nothing reads show here: a doubling
//! arena segment, a hash table at a quarter load, vectors grown by
//! doubling, or a solve holding six n-vectors put it at 187 B/state.
//!
//! The counting allocator is process-global, so this lives in its own
//! integration binary with a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ctsim_models::{build_model, decided_place_ids, SanParams};
use ctsim_solve::{
    mean_time_to_absorption, Ctmc, IterOptions, ReachOptions, SolverBackend, StateSpace,
};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// that allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(size);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Peak heap bytes per state the pipeline may reach.
const PEAK_BYTES_PER_STATE: f64 = 140.0;

#[test]
fn first_passage_pipeline_peak_heap_per_state() {
    let params = SanParams::exponential_baseline(3);
    let model = build_model(&params);
    let decided = decided_place_ids(&model, 3);
    let reach = ReachOptions {
        threads: 2,
        max_states: params.recommended_max_states(0),
        ..ReachOptions::default()
    };
    let iter = IterOptions {
        backend: SolverBackend::Krylov,
        threads: 2,
        ..IterOptions::default()
    };

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let space = StateSpace::explore_absorbing(&model, &reach, move |m| {
        decided.iter().any(|&d| m.get(d) > 0)
    })
    .unwrap();
    let ctmc = Ctmc::from_state_space(&space).unwrap();
    let sol = mean_time_to_absorption(&ctmc, &iter).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert_eq!(space.len(), 135_125);
    assert_eq!(space.words_per_state(), 5);
    // The chain is acyclic in its canonical order, so the first check
    // converges on the preconditioned guess.
    assert_eq!(sol.iterations, 1);
    let per_state = peak as f64 / space.len() as f64;
    assert!(
        per_state <= PEAK_BYTES_PER_STATE,
        "peak heap {peak} B: {per_state:.1} B/state, bound {PEAK_BYTES_PER_STATE}"
    );
}
