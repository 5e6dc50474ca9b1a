//! Sharded sparse matrix–vector kernels over the CSR generator.
//!
//! Both orientations of the generator product are *gather* loops — every
//! output element is a sum the owning worker computes alone, in a fixed
//! order — so the result is bit-identical for every thread count and
//! shard split, exactly like the exploration engine's determinism
//! story. `x·Q` gathers over the cached incoming (transposed) view,
//! `Σ_k q_ik τ_k` over the outgoing rows; each call shards the output
//! range so every shard carries roughly the same number of stored
//! rates, and small systems run inline because spawning a thread costs
//! more than the whole product.

use crate::ctmc::Ctmc;

/// Below this many states a sharded product runs inline: thread spawn
/// and join overhead dwarfs the arithmetic.
const PARALLEL_THRESHOLD: usize = 1 << 13;

/// Contiguous `(lo, hi)` output ranges for up to `workers` shards,
/// balanced by the entry counts in `ptr` (a CSR offset array of length
/// `n + 1`): shard `k` ends where the prefix entry count first reaches
/// `(k+1)/workers` of the total, so every shard carries about the same
/// number of stored rates regardless of row skew. Ranges partition
/// `0..n`; empty ranges are dropped.
fn shard_bounds(ptr: &[usize], workers: usize) -> Vec<(usize, usize)> {
    let n = ptr.len() - 1;
    let total = ptr[n];
    let mut bounds = Vec::with_capacity(workers);
    let mut lo = 0usize;
    for k in 1..=workers {
        let hi = if k == workers || total == 0 {
            n
        } else {
            let target = total * k / workers;
            (lo + ptr[lo..=n].partition_point(|&p| p < target)).min(n)
        };
        if hi > lo {
            bounds.push((lo, hi));
            lo = hi;
        }
        if lo == n {
            break;
        }
    }
    if lo < n {
        bounds.push((lo, n));
    }
    bounds
}

/// Splits `out` into nnz-balanced contiguous shards (see
/// [`shard_bounds`]) and runs `body(lo, shard)` on each — in parallel
/// when it pays, inline otherwise. `body` must fill `shard`
/// (= `out[lo..hi]`) from shared state; because each element is written
/// by exactly one worker in a fixed order, the output is identical for
/// every `threads` value.
pub(crate) fn for_each_shard<F>(ptr: &[usize], threads: usize, out: &mut [f64], body: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let n = out.len();
    debug_assert_eq!(ptr.len(), n + 1);
    let workers = ctsim_stoch::resolve_threads(threads).min(n.max(1));
    if ctsim_obs::enabled() {
        ctsim_obs::counter_add("spmv.products", 1);
    }
    if workers <= 1 || n < PARALLEL_THRESHOLD {
        run_shard(0, out, &body);
        return;
    }
    let mut shards: Vec<(usize, &mut [f64])> = Vec::with_capacity(workers);
    let mut rest = out;
    let mut consumed = 0usize;
    for (lo, hi) in shard_bounds(ptr, workers) {
        let (skip, tail) = rest.split_at_mut(lo - consumed);
        debug_assert!(skip.is_empty());
        let (shard, tail) = tail.split_at_mut(hi - lo);
        shards.push((lo, shard));
        rest = tail;
        consumed = hi;
    }
    std::thread::scope(|scope| {
        let body = &body;
        let mut handles = Vec::with_capacity(shards.len());
        for (lo, shard) in shards {
            handles.push(scope.spawn(move || run_shard(lo, shard, body)));
        }
        for h in handles {
            // Re-raise with the original payload so a typed
            // `SolveError` thrown by a failed spill read-back reaches
            // the `catch_spill` boundary intact.
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Runs one shard of a sharded product, timing it into the
/// `spmv.shard_ns` histogram when telemetry is on. The disabled path
/// adds one atomic load and branch per shard — no clock reads.
fn run_shard<F>(lo: usize, shard: &mut [f64], body: &F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if ctsim_obs::enabled() {
        let t0 = std::time::Instant::now();
        body(lo, shard);
        ctsim_obs::hist_record("spmv.shard_ns", t0.elapsed().as_nanos() as u64);
    } else {
        body(lo, shard);
    }
}

/// `out = x · Q` over `threads` workers: the row-vector product the
/// uniformization inner loop needs.
/// Gathered per destination over the cached incoming view —
/// `out[j] = x[j]·q_jj + Σ_i x[i]·q_ij` with predecessors in ascending
/// order — so the floating-point result does not depend on the thread
/// count. `out` may be a prefix (`len ≤ n`): the shards then split
/// `col_ptr[..=len]` and only those columns are read.
///
/// A gather cannot see that `x[i] == 0` without reading the entry, so
/// a full-length product touches all `nnz` entries even when `x` is
/// zero on most states — the early uniformization terms under a
/// point-mass initial vector. The uniformization loop recovers what the
/// former scatter kernel skipped by asking only for the prefix of
/// columns its support bound can reach (0.49 of the column entries on
/// average over the 136 products of the benchmark's `cdf_point_s`),
/// while keeping the fixed per-element summation order that makes the
/// product shardable *and* bit-identical for every thread count.
pub(crate) fn vec_mul(ctmc: &Ctmc, x: &[f64], out: &mut [f64], threads: usize) {
    assert_eq!(x.len(), ctmc.num_states());
    assert!(out.len() <= ctmc.num_states());
    let inc = ctmc.incoming_view();
    let coeff = ctmc.coefficients();
    for_each_shard(&inc.col_ptr()[..=out.len()], threads, out, |lo, shard| {
        for (dj, o) in shard.iter_mut().enumerate() {
            let j = lo + dj;
            let mut acc = x[j] * ctmc.diag(j);
            for &(i, t) in inc.column(j) {
                acc += x[i as usize] * coeff(t);
            }
            *o = acc;
        }
    });
}

/// `out[i] = Σ_k q_ik · v[k]` over the *off-diagonal* outgoing rows —
/// the flow term of the absorption system `Q_TT τ = -1`, gathered per
/// source row so it shards the same way. Works unchanged on a paged
/// generator: each shard streams its contiguous row range through the
/// store's grouped reader ([`Ctmc::flow_shard`]), paying one disk read
/// per spilled segment per sweep, and the per-row summation order is
/// the same as the resident body's, so the bits agree. `out` may be a
/// prefix (`len ≤ n`): the shards then split `row_ptr[..=len]` and only
/// those rows are read.
pub(crate) fn flow_mul(ctmc: &Ctmc, v: &[f64], out: &mut [f64], threads: usize) {
    assert_eq!(v.len(), ctmc.num_states());
    assert!(out.len() <= ctmc.num_states());
    for_each_shard(&ctmc.row_ptr()[..=out.len()], threads, out, |lo, shard| {
        ctmc.flow_shard(lo, shard, v);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ReachOptions, StateSpace};
    use crate::kron::KronGenerator;
    use crate::spill::SpillOptions;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    /// A token ladder: `levels` tokens hop one place to the other and
    /// back, giving `levels + 1` states from just two activities —
    /// enough states to clear the inline threshold without an
    /// activity-heavy model.
    fn ladder(levels: u32) -> (SanModel, ReachOptions) {
        let mut b = SanBuilder::new("ladder");
        let a = b.place("a", levels);
        let z = b.place("z", 0);
        b.add_activity(
            Activity::timed("fwd", Dist::Exp { mean: 1.25 })
                .input(a, 1)
                .case(Case::with_prob(1.0).output(z, 1)),
        );
        b.add_activity(
            Activity::timed("bwd", Dist::Exp { mean: 0.75 })
                .input(z, 1)
                .case(Case::with_prob(1.0).output(a, 1)),
        );
        let opts = ReachOptions {
            max_states: levels as usize + 8,
            ..ReachOptions::default()
        };
        (b.build().unwrap(), opts)
    }

    fn ladder_ctmc(levels: u32) -> Ctmc {
        let (m, opts) = ladder(levels);
        let ss = StateSpace::explore(&m, &opts).unwrap();
        Ctmc::from_state_space(&ss).unwrap()
    }

    #[test]
    fn sharded_products_are_bit_identical_across_thread_counts() {
        let q = ladder_ctmc(PARALLEL_THRESHOLD as u32 + 37);
        let n = q.num_states();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut base = vec![0.0; n];
        let mut base_flow = vec![0.0; n];
        vec_mul(&q, &x, &mut base, 1);
        flow_mul(&q, &x, &mut base_flow, 1);
        for threads in [2usize, 3, 8] {
            let mut out = vec![0.0; n];
            vec_mul(&q, &x, &mut out, threads);
            for (a, b) in base.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "vec_mul at {threads} threads");
            }
            flow_mul(&q, &x, &mut out, threads);
            for (a, b) in base_flow.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "flow_mul at {threads} threads");
            }
        }
    }

    /// One product under test: fills its `out` argument at the given
    /// thread count.
    type Product<'a> = &'a dyn Fn(&mut [f64], usize);

    /// A prefix product computes exactly the leading entries of the
    /// full product, at every thread count: `x·Q`, the flow product of
    /// the resident CSR and of a CSR paged to disk under a zero spill
    /// budget, and the Kronecker descriptor's flow product.
    #[test]
    fn prefix_product_is_the_full_products_prefix() {
        let (model, opts) = ladder(PARALLEL_THRESHOLD as u32 + 37);
        let ss = StateSpace::explore(&model, &opts).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        let kron = KronGenerator::from_state_space(&ss).unwrap();
        let spill = ReachOptions {
            spill: Some(SpillOptions::with_budget(0)),
            ..opts
        };
        let (_, paged) = StateSpace::explore_ctmc(&model, &spill).unwrap();
        assert!(
            paged.is_streamed(),
            "the zero budget pages the rows to disk"
        );
        let n = q.num_states();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let products: [(&str, Product); 4] = [
            ("vec_mul", &|out, t| vec_mul(&q, &x, out, t)),
            ("flow_mul", &|out, t| flow_mul(&q, &x, out, t)),
            ("paged flow_mul", &|out, t| flow_mul(&paged, &x, out, t)),
            ("kron apply", &|out, t| kron.apply(&x, out, t)),
        ];
        for (name, product) in products {
            let mut full = vec![0.0; n];
            product(&mut full, 1);
            for len in [0, 1, 17, PARALLEL_THRESHOLD + 5, n - 1, n] {
                for threads in [1usize, 2, 3] {
                    let mut out = vec![f64::NAN; len];
                    product(&mut out, threads);
                    for (a, b) in full[..len].iter().zip(&out) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{name}: len {len}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_bounds_partition_every_element_once() {
        // Skewed offsets: most entries land in the first few rows.
        let n = 40;
        let mut ptr = vec![0usize; n + 1];
        for i in 0..n {
            ptr[i + 1] = ptr[i] + if i < 5 { 100 } else { 1 };
        }
        for workers in [1usize, 2, 3, 4, 7, 40, 100] {
            let bounds = shard_bounds(&ptr, workers);
            let mut expect = 0usize;
            for &(lo, hi) in &bounds {
                assert_eq!(lo, expect, "{workers} workers: contiguous");
                assert!(hi > lo, "{workers} workers: non-empty");
                expect = hi;
            }
            assert_eq!(expect, n, "{workers} workers: full coverage");
            assert!(bounds.len() <= workers);
        }
        // The heavy rows do not all land in one shard.
        let bounds = shard_bounds(&ptr, 4);
        assert!(bounds.len() > 1, "balanced split, got {bounds:?}");
        assert!(bounds[0].1 <= 5, "first shard ends inside the heavy rows");
    }
}
