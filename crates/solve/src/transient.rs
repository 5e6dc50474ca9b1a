//! Layer 3a: transient solution by uniformization.
//!
//! `π(t) = π(0) · e^{Qt}` is evaluated as the Poisson mixture
//! `Σ_k Pois(Λt; k) · π(0) P^k` with `P = I + Q/Λ` and `Λ ≥ max_i |q_ii|`
//! (Jensen 1953). The Poisson weights are computed Fox–Glynn style: from
//! the mode outward in linear space with a late normalization, so no
//! exponentials under- or overflow even for large `Λt`, and the series
//! is truncated once the missing mass is below the requested tolerance.
//!
//! The vectors `v_k = π(0) P^k` do not depend on `t`, so one loop
//! (`uniformize`) computes them once, up to the largest truncation
//! point of a whole time grid, and hands every `(grid point, weight,
//! v_k)` to a sink: [`transient()`] is its one-point sink that fills the
//! full `π(t)`, and [`AnalyticRun::cdf_grid`](crate::AnalyticRun::cdf_grid)
//! accumulates only the goal states of every grid point.
//!
//! Every product is **prefix-limited**. The loop keeps a bound `hi` on
//! the support of `v_k` — the last non-zero entry of `π(0)` plus one at
//! the start, extended before each product by the largest successor of
//! the rows that entered the support since the last step — and computes
//! `v_k Q`, the weighted accumulation and `v_{k+1} = v_k + v_k Q/Λ`
//! only over `[0, hi)`. Under the canonical BFS numbering the early
//! terms of a first-passage chain touch a small prefix. Entries past
//! `hi` are exact `+0.0` and the full-width loop leaves them at `+0.0`
//! (`0·q_jj + Σ 0·q_ij` rounds to a signed zero, and `+0.0 + ±0.0` is
//! `+0.0`), so skipping them changes no bit, on any chain, cyclic or
//! not, at any thread count.
//!
//! Out-of-core caveat: the `π(0) P^k` recurrence is a row-vector
//! product (`x · Q`), which on a CSR generator runs over the cached
//! *incoming* (transposed) view — and that view is always materialized
//! resident, even when the forward CSR entries are paged to disk under
//! a spill budget. A transient solve on a spilled generator therefore
//! temporarily pays the full `O(rates)` transpose in RAM; the
//! absorption-mean path (Krylov) is the one that stays out-of-core.

use crate::ctmc::Ctmc;
use crate::SolveError;

/// Poisson terms per telemetry batch span in the uniformization loop.
const TRACE_BATCH: usize = 256;

/// States per block of the fused accumulate-and-update pass: a block of
/// `v`, `v Q` and the sink's accumulator stays in cache between the
/// sink reading `v_k` and the update overwriting it with `v_{k+1}`.
const BLOCK: usize = 1 << 12;

/// Options for the transient solver.
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Truncation tolerance: the Poisson mass left out of the sum.
    pub epsilon: f64,
    /// Hard cap on the number of Poisson terms (guards against absurd
    /// `Λt`; one term costs one sparse matrix-vector product).
    pub max_terms: usize,
    /// Worker threads for the sharded `v·Q` product inside the
    /// uniformization loop (`0` = one per core, `1` = inline) — the
    /// same kind of sharded SpMV the Jacobi and Krylov absorption
    /// backends use.
    /// The result is bit-identical for every value.
    pub threads: usize,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-10,
            max_terms: 2_000_000,
            threads: 1,
        }
    }
}

/// A transient probability vector with solver diagnostics.
#[derive(Debug, Clone)]
pub struct Transient {
    /// `π(t)`, indexed by state.
    pub probs: Vec<f64>,
    /// The time the vector is for (ms).
    pub t: f64,
    /// Uniformization rate Λ used (1/ms).
    pub lambda: f64,
    /// Number of Poisson terms summed.
    pub terms: usize,
}

/// Computes `π(t)` for the chain started from its initial
/// distribution.
///
/// # Errors
/// [`SolveError::InvalidTime`] if `t_ms` is negative, NaN or infinite;
/// [`SolveError::TruncationTooLong`] if `Λt` needs more than
/// `max_terms` Poisson terms at the requested tolerance.
pub fn transient(op: &Ctmc, t_ms: f64, opts: &TransientOptions) -> Result<Transient, SolveError> {
    let mut probs = vec![0.0; op.num_states()];
    let pass = uniformize(op, &[t_ms], opts, |_, w, lo, v| {
        for (o, &x) in probs[lo..lo + v.len()].iter_mut().zip(v) {
            *o += w * x;
        }
    })?;
    Ok(Transient {
        probs,
        t: t_ms,
        lambda: pass.lambda,
        terms: pass.terms,
    })
}

/// What a [`uniformize`] pass reports beside what its sink saw.
pub(crate) struct Pass {
    /// Uniformization rate Λ used (1/ms).
    pub(crate) lambda: f64,
    /// Poisson terms of the longest grid point; the pass ran one
    /// product fewer.
    pub(crate) terms: usize,
}

/// The uniformization loop, shared by every transient entry point:
/// computes `v_k = π(0) P^k` once, for `k` up to the largest
/// right-truncation point of `times`, and for every grid point `p`
/// whose Poisson weight `w = Pois(Λ t_p; k)` is positive calls
/// `sink(p, w, lo, &v_k[lo..lo + len])` over consecutive blocks of the
/// prefix `[0, hi)` outside of which `v_k` is zero. A sink that adds
/// `w · v_k[s]` into a per-point accumulator, starting from `0.0`,
/// reproduces the full-width single-point loop bit for bit.
///
/// # Errors
/// [`SolveError::InvalidTime`] for a negative, NaN or infinite time,
/// [`SolveError::TruncationTooLong`] when a point needs more than
/// `max_terms` terms, and [`SolveError::SpillFailed`] when a paged
/// generator cannot be read back.
pub(crate) fn uniformize(
    op: &Ctmc,
    times: &[f64],
    opts: &TransientOptions,
    sink: impl FnMut(usize, f64, usize, &[f64]),
) -> Result<Pass, SolveError> {
    if let Some(&t_ms) = times.iter().find(|t| !(**t >= 0.0 && t.is_finite())) {
        return Err(SolveError::InvalidTime { t_ms });
    }
    // Boundary for the typed spill-failure channel: a disk-paged
    // generator whose read-back exhausts its retries surfaces here as
    // `Err(SolveError::SpillFailed)` instead of a panic.
    crate::catch_spill(|| uniformize_inner(op, times, opts, sink))
}

fn uniformize_inner(
    op: &Ctmc,
    times: &[f64],
    opts: &TransientOptions,
    mut sink: impl FnMut(usize, f64, usize, &[f64]),
) -> Result<Pass, SolveError> {
    let n = op.num_states();
    let lambda = op.max_exit_rate();
    let weights = times
        .iter()
        .map(|&t| poisson_weights(lambda * t, opts))
        .collect::<Result<Vec<_>, _>>()?;
    let Some(terms) = weights.iter().map(Vec::len).max() else {
        return Ok(Pass { lambda, terms: 0 });
    };
    let t_max = times.iter().copied().fold(0.0, f64::max);
    let mut span = ctsim_obs::span("solver", "transient")
        .arg("t_ms", t_max)
        .arg("lambda_t", lambda * t_max)
        .arg("terms", terms)
        .arg("points", times.len())
        .arg("states", n);
    let traced = ctsim_obs::enabled();
    let last = terms - 1;
    let mut v = op.initial().to_vec();
    let mut qv = vec![0.0; n];
    // v_k is zero on [hi, n); rows [0, scanned) have had their
    // successors folded into the bound.
    let mut hi = v.iter().rposition(|&x| x != 0.0).map_or(0, |i| i + 1);
    let mut scanned = 0;
    // Telemetry only: entries of the columns [0, hi), and their sum
    // over the products — what the gathers actually read.
    let (mut col_entries, mut rates_touched) = (0usize, 0usize);
    let mut batch_t0 = if traced { ctsim_obs::now_us() } else { 0 };
    for k in 0..terms {
        let end = if k < last {
            // Rows that entered the support since the last product
            // bound where v_k Q (and so v_{k+1}) can be non-zero.
            let mut reach = hi;
            for i in scanned..hi {
                op.for_each_in_row(i, |j, _| reach = reach.max(j + 1));
            }
            scanned = hi;
            if traced {
                col_entries += (hi..reach)
                    .map(|j| op.incoming_view().column(j).len())
                    .sum::<usize>();
                rates_touched += col_entries;
            }
            op.apply_transposed(&v, &mut qv[..reach], opts.threads);
            reach
        } else {
            hi
        };
        // Fused pass: the sinks read a block of v_k, then the update
        // v ← v P = v + (v Q)/Λ overwrites it with v_{k+1}.
        for lo in (0..end).step_by(BLOCK) {
            let block = lo..(lo + BLOCK).min(end);
            for (p, ws) in weights.iter().enumerate() {
                if let Some(&w) = ws.get(k).filter(|&&w| w > 0.0) {
                    sink(p, w, lo, &v[block.clone()]);
                }
            }
            if k < last {
                for (x, &q) in v[block.clone()].iter_mut().zip(&qv[block]) {
                    *x += q / lambda;
                }
            }
        }
        hi = end;
        if traced && ((k + 1) % TRACE_BATCH == 0 || k == last) {
            ctsim_obs::record_span(
                "solver",
                "uniformization_batch",
                batch_t0,
                vec![("through_term", (k + 1).into()), ("terms", terms.into())],
            );
            batch_t0 = ctsim_obs::now_us();
        }
    }
    if traced {
        let nnz: usize = (0..n).map(|j| op.incoming_view().column(j).len()).sum();
        span.push_arg("rates_touched", rates_touched);
        span.push_arg("rates_full", last * nnz);
    }
    Ok(Pass { lambda, terms })
}

/// Normalized Poisson(lt) weights for `k = 0..=R`, with entries below
/// the left truncation point zeroed: the `w_k` of the uniformization
/// sum at `lt = Λt`. Computed outward from the mode so the
/// unnormalized values stay in floating range.
///
/// # Errors
/// [`SolveError::TruncationTooLong`] if more than `opts.max_terms`
/// terms are needed.
pub fn poisson_weights(lt: f64, opts: &TransientOptions) -> Result<Vec<f64>, SolveError> {
    let mode = lt.floor() as usize;
    if mode + 1 > opts.max_terms {
        return Err(SolveError::TruncationTooLong {
            terms: opts.max_terms,
        });
    }
    // Unnormalized pmf relative to the mode value (= 1.0). The ratio
    // test keeps both tails until they are negligible at tolerance.
    let tail_cut = opts.epsilon * 1e-3;
    let mut left = vec![]; // mode-1 downto L
    let mut w = 1.0;
    let mut k = mode;
    while k > 0 {
        w *= k as f64 / lt;
        if w < tail_cut {
            break;
        }
        left.push(w);
        k -= 1;
    }
    let mut right = vec![]; // mode+1 upto R
    let mut w = 1.0;
    let mut k = mode;
    loop {
        k += 1;
        if k > opts.max_terms + mode {
            return Err(SolveError::TruncationTooLong {
                terms: opts.max_terms,
            });
        }
        w *= lt / k as f64;
        // Past the mode the ratios shrink monotonically; stop once the
        // remaining geometric tail is below tolerance.
        if w < tail_cut && k as f64 > lt {
            break;
        }
        right.push(w);
    }
    let first = mode - left.len();
    let mut weights = vec![0.0; first];
    weights.extend(left.iter().rev());
    weights.push(1.0);
    weights.extend(right.iter());
    if weights.len() > opts.max_terms {
        return Err(SolveError::TruncationTooLong {
            terms: opts.max_terms,
        });
    }
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ReachOptions, StateSpace};
    use crate::Ctmc;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    fn two_state(up_mean: f64, down_mean: f64) -> SanModel {
        let mut b = SanBuilder::new("bd");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.add_activity(
            Activity::timed("fail", Dist::Exp { mean: up_mean })
                .input(up, 1)
                .case(Case::with_prob(1.0).output(down, 1)),
        );
        b.add_activity(
            Activity::timed("repair", Dist::Exp { mean: down_mean })
                .input(down, 1)
                .case(Case::with_prob(1.0).output(up, 1)),
        );
        b.build().unwrap()
    }

    fn solve_two_state(t: f64, up_mean: f64, down_mean: f64) -> Vec<f64> {
        let m = two_state(up_mean, down_mean);
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        transient(&q, t, &TransientOptions::default())
            .unwrap()
            .probs
    }

    /// Closed form for the two-state chain started in state 0:
    /// p0(t) = μ/(λ+μ) + λ/(λ+μ) e^{-(λ+μ)t}.
    #[test]
    fn matches_two_state_closed_form() {
        let (lam, mu) = (1.0 / 4.0, 1.0 / 0.5); // means 4 and 0.5
        for t in [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0] {
            let p = solve_two_state(t, 4.0, 0.5);
            let expect = mu / (lam + mu) + lam / (lam + mu) * (-(lam + mu) * t).exp();
            assert!(
                (p[0] - expect).abs() < 1e-9,
                "t={t}: p0 {} vs closed form {expect}",
                p[0]
            );
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9, "mass at t={t}");
        }
    }

    /// Large Λt exercises the Fox–Glynn style mode-relative weights.
    #[test]
    fn large_time_stays_normalized_and_stationary() {
        let p = solve_two_state(2000.0, 1.0, 1.0);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
        assert!((p[0] - 0.5).abs() < 1e-9, "stationary split, got {}", p[0]);
    }

    /// Poisson weights are a proper distribution around the mode.
    #[test]
    fn poisson_weights_are_normalized() {
        for lt in [0.3, 1.0, 7.5, 300.0, 12_345.6] {
            let w = poisson_weights(lt, &TransientOptions::default()).unwrap();
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "lt={lt}: sum {sum}");
            // The mode has the largest weight.
            let mode = lt.floor() as usize;
            let max = w.iter().cloned().fold(0.0, f64::max);
            assert_eq!(w[mode], max, "lt={lt}");
        }
    }

    /// A negative, NaN or infinite time is a typed error, not a panic.
    #[test]
    fn bad_times_are_typed_errors() {
        let m = two_state(1.0, 1.0);
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        for t in [-1.0, -f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            let err = transient(&q, t, &TransientOptions::default()).unwrap_err();
            assert!(
                matches!(err, SolveError::InvalidTime { t_ms } if t_ms.to_bits() == t.to_bits()),
                "t = {t}: {err:?}"
            );
        }
        // t = 0 (either sign) is the initial vector, bit for bit.
        for t in [0.0, -0.0] {
            let sol = transient(&q, t, &TransientOptions::default()).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sol.probs), bits(q.initial()));
        }
    }

    /// The term cap errors instead of looping.
    #[test]
    fn term_cap_is_enforced() {
        let opts = TransientOptions {
            max_terms: 100,
            ..TransientOptions::default()
        };
        let err = poisson_weights(1e6, &opts).unwrap_err();
        assert!(matches!(err, SolveError::TruncationTooLong { .. }));
    }

    /// An absorbing chain funnels all mass into the absorbing state.
    #[test]
    fn absorbing_chain_accumulates_mass() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 2.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        // P(absorbed by t) = 1 - e^{-t/2}.
        for t in [0.5, 2.0, 8.0] {
            let sol = transient(&ctmc, t, &TransientOptions::default()).unwrap();
            let expect = 1.0 - (-t / 2.0f64).exp();
            assert!((sol.probs[1] - expect).abs() < 1e-9, "t={t}");
        }
    }
}
