//! Reproducible random-number streams.
//!
//! Every stochastic component of the simulators draws from its own
//! substream derived from a single experiment seed, so that adding a new
//! component does not perturb the draws of existing ones (common random
//! numbers across model variants).
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! state-seeded through SplitMix64 — no external crates, so the
//! workspace builds in offline environments. Determinism of a run
//! depends only on the seed and the sequence of draws.
//!
//! [`fan_out`] runs jobs seeded from `(seed, index)` on threads and
//! returns their results by index, so a sweep is the same at any width.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A seedable, splittable RNG for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a stream from an experiment seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state; the
        // zero state is unreachable this way.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent substream identified by `label`.
    ///
    /// The derivation is a SplitMix64-style hash of `(seed, label)`, so
    /// substreams are stable across runs and independent of the draw
    /// position of the parent stream.
    pub fn substream(&self, label: u64) -> SimRng {
        SimRng::new(mix(self.seed, label))
    }

    /// Derives a substream from a string label (e.g. a component name).
    pub fn substream_named(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.substream(h)
    }

    /// The next raw 64-bit draw (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fills a byte slice with random data.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds out of order: [{lo}, {hi})");
        if lo == hi {
            return lo;
        }
        let x = lo + (hi - lo) * self.unit();
        // Floating rounding can land exactly on `hi`; keep the interval
        // half-open as documented.
        if x >= hi {
            lo
        } else {
            x
        }
    }

    /// A uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Lemire's multiply-shift range reduction (bias < 2^-64 * n).
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }
}

/// Resolves a worker-count knob: `0` means one worker per available
/// core, any other value is taken as given.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
}

/// Runs jobs `0..jobs` on up to `workers` threads (`0` = all cores, see
/// [`resolve_threads`]; never more threads than jobs, the calling
/// thread being one) and returns their results in index order.
///
/// Each worker builds one state with `init`, passes it to every job it
/// runs and takes the next unclaimed index until none is left, so an
/// uneven host slows the run by at most one job. A job's result depends
/// only on its index and what `job` captures, so the vector is the same
/// at every worker count. A panicking job panics the call.
pub fn fan_out<S, T: Send>(
    jobs: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = resolve_threads(workers).min(jobs);
    if workers == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; results reach
            // the caller through the joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, job(&mut state, i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in others {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

fn mix(a: u64, b: u64) -> u64 {
    // SplitMix64 finalizer over the xor of the inputs with distinct
    // multiplicative constants; good avalanche, cheap, stable.
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_returns_results_in_index_order() {
        // Jobs of uneven length, so workers finish out of order.
        let draw = |i: usize| {
            let mut r = SimRng::new(3).substream(i as u64);
            for _ in 0..(i % 7) * 1000 {
                r.next_u64();
            }
            (i, r.next_u64())
        };
        let want: Vec<_> = (0..100).map(draw).collect();
        for workers in [1, 2, 8] {
            assert_eq!(
                fan_out(100, workers, || (), |_, i| draw(i)),
                want,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn fan_out_inits_once_per_worker_and_never_more_workers_than_jobs() {
        for (jobs, workers, want) in [(50, 1, 1), (50, 2, 2), (50, 8, 8), (3, 8, 3), (1, 0, 1)] {
            let inits = AtomicUsize::new(0);
            let out = fan_out(
                jobs,
                workers,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| i,
            );
            assert_eq!(out, (0..jobs).collect::<Vec<_>>());
            assert_eq!(inits.into_inner(), want, "{jobs} jobs on {workers}");
        }
        // A worker's state persists from job to job: on one worker, the
        // n-th job sees the n-1 jobs before it.
        let seen = fan_out(10, 1, || 0, |count, _| std::mem::replace(count, *count + 1));
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        let inits = AtomicUsize::new(0);
        let none: Vec<()> = fan_out(0, 8, || inits.fetch_add(1, Ordering::Relaxed), |_, _| ());
        assert!(none.is_empty());
        assert_eq!(inits.into_inner(), 0);
    }

    #[test]
    fn fan_out_propagates_a_job_panic() {
        for workers in [1, 2, 8] {
            let r = std::panic::catch_unwind(|| {
                fan_out(
                    20,
                    workers,
                    || (),
                    |_, i| {
                        assert_ne!(i, 13, "job 13 fails");
                        i
                    },
                )
            });
            let msg = r.expect_err("the panic must reach the caller");
            let msg = msg
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("job 13 fails"), "{workers} workers: {msg:?}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_stable_and_independent_of_parent_position() {
        let parent = SimRng::new(7);
        let mut s1 = parent.substream(3);
        let mut parent2 = SimRng::new(7);
        // Draw from the parent before splitting: substream must not change.
        let _ = parent2.next_u64();
        let mut s2 = parent2.substream(3);
        for _ in 0..32 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn named_substreams_differ_by_name() {
        let parent = SimRng::new(7);
        let mut a = parent.substream_named("network");
        let mut b = parent.substream_named("cpu");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(r.uniform(4.0, 4.0), 4.0);
    }

    #[test]
    fn unit_mean_is_about_half() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn index_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::new(17);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.index(5)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::new(23);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
