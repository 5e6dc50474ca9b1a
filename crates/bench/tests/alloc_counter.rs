//! The counting allocator against known allocation sizes. One `#[test]`
//! in a binary of its own: the counters are process-global, so a second
//! test thread would move them under the assertions.

use ctsim_bench::alloc_counter::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Large against anything the test harness allocates on the side.
const N: usize = 1 << 20;
const SLACK: usize = 64 << 10;

#[test]
fn counts_alloc_realloc_zeroed_and_restarts_the_window() {
    // alloc + dealloc: the peak rises by the block, the live size returns.
    let start = live_bytes();
    reset_peak();
    let v: Vec<u8> = black_box(Vec::with_capacity(N));
    assert!(live_bytes() >= start + N);
    drop(v);
    assert!(peak_bytes() >= start + N);
    assert!(live_bytes().abs_diff(start) <= SLACK);

    // realloc: the grown block counts at its new size, not old + new.
    let start = live_bytes();
    reset_peak();
    let mut v: Vec<u8> = black_box(Vec::with_capacity(N));
    v.push(1);
    v.reserve_exact(3 * N - 1);
    let live = live_bytes();
    assert!(live >= start + 3 * N);
    assert!(live < start + 3 * N + SLACK, "old block still counted");
    assert!(peak_bytes() < start + 3 * N + SLACK);
    drop(black_box(v));

    // alloc_zeroed, and a second reset restarts the window at the
    // current live size rather than at zero or at the old peak.
    let z = black_box(vec![0u8; N]);
    reset_peak();
    let base = live_bytes();
    assert!(base < start + N + SLACK, "old peak survived the reset");
    assert!(base >= start + N, "zeroed block not counted");
    assert!(peak_bytes().abs_diff(base) <= SLACK);
    drop(z);
    assert!(live_bytes().abs_diff(start) <= SLACK);
}
