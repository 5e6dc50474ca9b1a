//! Two fixed kernels that say how fast the host was while a run was
//! measured. They call nothing of the program, so no change to the
//! program moves them; when they differ between two runs, so did the
//! host, and an `op_s` difference of that size is the host's.
//!
//! The sandbox this benchmark was sized on is a shared 2-core VM whose
//! memory-latency-bound code (the simulator, the testbed) runs up to
//! twice as slowly for minutes at a time while its arithmetic runs at
//! full speed — hence one kernel of each kind.

use std::hint::black_box;

use crate::harness::{median_time, Layers};

/// Dependent arithmetic, no memory traffic: 10 M xorshift steps.
fn alu() {
    let mut x = 88172645463325252u64;
    for _ in 0..10_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
}

/// Dependent loads: 1 M steps round a random cycle over 8 MiB.
fn chase(next: &[u32]) {
    let mut i = 0u32;
    for _ in 0..1_000_000 {
        i = next[i as usize];
    }
    black_box(i);
}

/// One random cycle through `0..n` (Sattolo's algorithm, fixed seed).
fn random_cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

pub fn yardsticks(out: &mut Layers) {
    out.set("host.alu_ms", median_time(3, alu) * 1e3);
    let next = random_cycle(2 << 20);
    out.set("host.chase_ms", median_time(3, || chase(&next)) * 1e3);
}
