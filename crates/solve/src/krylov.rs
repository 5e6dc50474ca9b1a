//! The Krylov backend: restarted GMRES on the absorption system.
//!
//! `Q_TT τ = -1` is cast as a square nonsingular system `A x = b` and
//! handed to a restarted GMRES core (Arnoldi with modified
//! Gram–Schmidt, Givens-rotation least squares): `(-Q) τ = 1` over the
//! transient rows with identity rows pinning `τ = 0` on absorbing
//! states, an M-matrix system, **right-preconditioned by one backward
//! Gauss–Seidel substitution** (the upper-triangular factor `D − U` of
//! the canonically numbered generator). First-passage chains are
//! near-acyclic in the canonical BFS order — successors almost always
//! carry higher state ids — so `D − U` captures almost all of the
//! operator and the preconditioned system sits a few Arnoldi steps from
//! the identity: GMRES closes in a handful of matvecs where Jacobi
//! steps need one iteration per BFS level. Every solve starts from the
//! guess `(D − U)⁻¹ c`, which is exact on acyclic chains.
//!
//! On stiff two-timescale chains — where Gauss–Seidel and Jacobi
//! sweeps crawl at `1 − O(ε)` per iteration — GMRES minimizes the
//! residual over the whole Krylov subspace instead of contracting one
//! mode at a time, which is what turns >10⁴-sweep problems into a
//! handful of restart cycles.
//!
//! This is also the fully out-of-core solve: every operator touch is
//! either the sharded row-product `Σ_k q_ik v_k` (which streams a
//! disk-paged CSR through the segment LRU front to back, see
//! [`crate::arena`]) or the single descending back-substitution pass of
//! the preconditioner — no in-place, out-of-order row sweeps. A
//! generator whose entries live on disk under a spill budget therefore
//! solves on this backend unchanged, bit-identical to the resident run.
//!
//! Convergence is judged exactly like the stationary iterative
//! backends: the sup-norm of the *unpreconditioned* defect residual
//! must fall below
//! [`IterOptions::tolerance`](crate::IterOptions::tolerance), checked
//! on the true system after every restart cycle.
//! [`IterOptions::max_iterations`](crate::IterOptions::max_iterations)
//! budgets matrix–vector products, and three consecutive stagnant
//! restart cycles (< 2 % residual improvement each) abort with
//! [`SolveError::NotConverged`] — a chain from which absorption is not
//! certain makes `A` singular and stalls instead of diverging, so the
//! guard turns it into a clean error rather than a spin.

use std::cell::RefCell;

use crate::absorption::{AbsorptionTimes, IterOptions};
use crate::backend::SolverBackend;
use crate::ctmc::Ctmc;
use crate::SolveError;

/// Arnoldi steps per GMRES cycle on all but the biggest systems.
const RESTART: usize = 30;

/// Hard floor of the restart dimension; below this GMRES degenerates
/// into steepest descent.
const MIN_RESTART: usize = 4;

/// States beyond which the Krylov basis is trimmed to bound memory. A
/// full basis is `(restart + 1) × n × 8` bytes; it grows one vector per
/// Arnoldi step, so a solve whose first check converges (every
/// first-passage chain of the paper's model) holds none of it, only
/// three n-vectors (24 B/state).
const BIG_SYSTEM: usize = 1 << 20;

/// Restart dimension for big systems: at most `(16 + 1) × 8 = 136`
/// bytes of basis per state, about 318 MB on the 2.3 M-state n = 3
/// order-3 space — most of that exploration's own live heap, which is
/// why the basis is trimmed there.
const BIG_RESTART: usize = 16;

/// The Arnoldi dimension per restart cycle of an `n`-state system.
fn restart_dim(n: usize) -> usize {
    let m = if n > BIG_SYSTEM { BIG_RESTART } else { RESTART };
    m.min(n.max(MIN_RESTART))
}

/// One restarted-GMRES solve of the preconditioned system given by
/// `apply` (which must write `A·v` into its second argument) and the
/// right-hand side `b` (entry by entry). `x` holds the initial guess
/// and receives the solution. `check` maps the current iterate to the
/// true (unpreconditioned) sup-norm residual the caller gates on; the
/// last call is on the returned iterate. Returns `(matvecs, residual)`
/// on convergence.
fn gmres<A, B, C>(
    n: usize,
    apply: A,
    b: B,
    x: &mut [f64],
    opts: &IterOptions,
    check: C,
) -> Result<(usize, f64), SolveError>
where
    A: Fn(&[f64], &mut [f64]),
    B: Fn(usize) -> f64,
    C: Fn(&[f64]) -> f64,
{
    let m = restart_dim(n);
    let mut matvecs = 0usize;
    let mut best_true = f64::INFINITY;
    let mut stagnant = 0u32;
    // Krylov basis, reused across cycles. A solve whose first check
    // converges allocates none of it; the others add one vector per
    // Arnoldi step, up to `m + 1`.
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut cycle = 0usize;
    loop {
        let cycle_t0 = if ctsim_obs::enabled() {
            ctsim_obs::now_us()
        } else {
            0
        };
        let true_res = check(x);
        if ctsim_obs::enabled() {
            ctsim_obs::series_push(
                "solver.residual/krylov_absorption",
                matvecs as f64,
                true_res,
            );
            if cycle > 0 {
                ctsim_obs::instant(
                    "solver",
                    "gmres_restart",
                    vec![
                        ("backend", "krylov_absorption".into()),
                        ("cycle", cycle.into()),
                        ("matvecs", matvecs.into()),
                        ("residual", true_res.into()),
                    ],
                );
            }
        }
        cycle += 1;
        if true_res <= opts.tolerance {
            return Ok((matvecs, true_res));
        }
        if !true_res.is_finite() {
            return Err(SolveError::NotConverged {
                iterations: matvecs,
                residual: true_res,
            });
        }
        if true_res >= best_true * 0.98 {
            stagnant += 1;
            if stagnant >= 3 {
                return Err(SolveError::NotConverged {
                    iterations: matvecs,
                    residual: true_res,
                });
            }
        } else {
            stagnant = 0;
        }
        best_true = best_true.min(true_res);
        if matvecs >= opts.max_iterations {
            return Err(SolveError::NotConverged {
                iterations: matvecs,
                residual: true_res,
            });
        }

        // r = b - A x, in the basis vector it is normalised into.
        if basis.is_empty() {
            basis.push(vec![0.0; n]);
        }
        let r = &mut basis[0];
        apply(x, r);
        matvecs += 1;
        let mut beta2 = 0.0;
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = b(i) - *ri;
            beta2 += *ri * *ri;
        }
        let beta = beta2.sqrt();
        if !(beta.is_finite() && beta > 0.0) {
            // Exact (or broken-down) residual: let the next true-res
            // check decide; a NaN trips the finite guard above.
            continue;
        }

        // Arnoldi with modified Gram–Schmidt; Givens rotations keep the
        // Hessenberg triangular and expose the least-squares residual
        // |g[j+1]| for free.
        for vi in r.iter_mut() {
            *vi /= beta;
        }
        let mut h = vec![vec![0.0f64; m]; m + 1];
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;
        // Preconditioned target: a modest relative drop per cycle is
        // enough — the outer loop re-checks the true residual and
        // restarts from the improved iterate.
        let inner_tol = (opts.tolerance * 1e-2).max(beta * 1e-14);
        let mut steps = 0usize;
        for j in 0..m {
            if basis.len() == j + 1 {
                basis.push(vec![0.0; n]);
            }
            let (head, tail) = basis.split_at_mut(j + 1);
            apply(&head[j], &mut tail[0]);
            matvecs += 1;
            steps = j + 1;
            // MGS against the existing basis.
            for (i, vi) in head.iter().enumerate() {
                let dot: f64 = tail[0].iter().zip(vi.iter()).map(|(a, b)| a * b).sum();
                h[i][j] = dot;
                for (wk, &vk) in tail[0].iter_mut().zip(vi.iter()) {
                    *wk -= dot * vk;
                }
            }
            let norm = tail[0].iter().map(|v| v * v).sum::<f64>().sqrt();
            h[j + 1][j] = norm;
            if !norm.is_finite() {
                return Err(SolveError::NotConverged {
                    iterations: matvecs,
                    residual: check(x),
                });
            }
            let happy = norm <= beta * 1e-14;
            if !happy {
                for vk in tail[0].iter_mut() {
                    *vk /= norm;
                }
            }
            // Apply the accumulated rotations to the new column, then
            // a fresh rotation to annihilate h[j+1][j].
            for i in 0..j {
                let (hi, hi1) = (h[i][j], h[i + 1][j]);
                h[i][j] = cs[i] * hi + sn[i] * hi1;
                h[i + 1][j] = -sn[i] * hi + cs[i] * hi1;
            }
            let denom = (h[j][j] * h[j][j] + h[j + 1][j] * h[j + 1][j]).sqrt();
            if denom > 0.0 {
                cs[j] = h[j][j] / denom;
                sn[j] = h[j + 1][j] / denom;
            } else {
                cs[j] = 1.0;
                sn[j] = 0.0;
            }
            h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
            h[j + 1][j] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            if happy || g[j + 1].abs() <= inner_tol || matvecs >= opts.max_iterations {
                break;
            }
        }
        // Back-substitute y from the triangularized Hessenberg and
        // update x += V y.
        let mut y = vec![0.0f64; steps];
        for j in (0..steps).rev() {
            let mut acc = g[j];
            for (k, &yk) in y.iter().enumerate().skip(j + 1) {
                acc -= h[j][k] * yk;
            }
            y[j] = if h[j][j] != 0.0 { acc / h[j][j] } else { 0.0 };
        }
        for (j, &yj) in y.iter().enumerate() {
            if yj == 0.0 {
                continue;
            }
            for (xi, &vi) in x.iter_mut().zip(basis[j].iter()) {
                *xi += yj * vi;
            }
        }
        if ctsim_obs::enabled() {
            ctsim_obs::record_span(
                "solver",
                "gmres_cycle",
                cycle_t0,
                vec![
                    ("backend", "krylov_absorption".into()),
                    ("cycle", (cycle - 1).into()),
                    ("arnoldi_steps", steps.into()),
                    ("matvecs", matvecs.into()),
                ],
            );
        }
    }
}

/// Absorption times via restarted GMRES, right-preconditioned by a
/// backward Gauss–Seidel substitution ([`Ctmc::upper_solve`]; see
/// module docs). The dispatcher has already verified an absorbing
/// state exists.
pub(crate) fn absorption(op: &Ctmc, opts: &IterOptions) -> Result<AbsorptionTimes, SolveError> {
    // Deterministic fault hook: an armed `solver.krylov` failpoint
    // makes this backend report stagnation without spending any
    // iterations, so a test or a `repro --failpoints` run can reach
    // the typed `NotConverged` path on demand.
    if matches!(
        ctsim_resilience::fail::hit("solver.krylov"),
        ctsim_resilience::fail::Action::Fail
    ) {
        return Err(SolveError::NotConverged {
            iterations: 0,
            residual: f64::INFINITY,
        });
    }
    let n = op.num_states();
    let threads = opts.threads;
    // `B τ = c` with `B = -Q_TT` over transient rows (positive
    // diagonal), identity on absorbing rows. GMRES iterates the
    // preconditioned variable `u` with `τ = (D − U)^{-1} u`.
    let c = |i: usize| if op.is_absorbing(i) { 0.0 } else { 1.0 };
    // Scratch hoisted out of the closures, which run once per Arnoldi
    // step or cycle and must not allocate an n-vector each time: the
    // recovered `z = (D − U)^{-1} u`, shared by `apply` and `check`
    // (each fills it before reading it), and `check`'s product.
    let scratch = RefCell::new((vec![0.0; n], vec![0.0; n]));
    let apply = |u: &[f64], out: &mut [f64]| {
        let (z, _) = &mut *scratch.borrow_mut();
        z.copy_from_slice(u);
        op.upper_solve(z);
        op.apply(z, out, threads);
        for i in 0..n {
            out[i] = if op.is_absorbing(i) {
                z[i]
            } else {
                -op.diag(i) * z[i] - out[i]
            };
        }
    };
    // True residual: sup-norm of `q_ii τ_i + flow_i + 1` over transient
    // states — the Gauss–Seidel defect, evaluated on the recovered τ.
    let check = |u: &[f64]| {
        let (z, flow) = &mut *scratch.borrow_mut();
        z.copy_from_slice(u);
        op.upper_solve(z);
        op.apply(z, flow, threads);
        let mut res = 0.0f64;
        for i in 0..n {
            if !op.is_absorbing(i) {
                res = res.max((op.diag(i) * z[i] + flow[i] + 1.0).abs());
            }
        }
        res
    };
    // u₀ = c makes the initial guess τ₀ = (D − U)^{-1} c — one backward
    // Gauss–Seidel sweep from zero, already the exact solution on
    // acyclic chains.
    let mut u: Vec<f64> = (0..n).map(c).collect();
    let (iterations, residual) = gmres(n, apply, c, &mut u, opts, check)?;
    // The converging check recovered τ from the returned iterate.
    let (mut tau, _) = scratch.into_inner();
    if tau.iter().any(|t| !t.is_finite()) {
        return Err(SolveError::NotConverged {
            iterations,
            residual: f64::INFINITY,
        });
    }
    // Absorbing rows are pinned by construction; scrub round-off so
    // `per_state` keeps the documented exact zeros.
    for (i, t) in tau.iter_mut().enumerate() {
        if op.is_absorbing(i) {
            *t = 0.0;
        }
    }
    let mean = op.initial().iter().zip(&tau).map(|(&p, &t)| p * t).sum();
    Ok(AbsorptionTimes {
        per_state: tau,
        mean,
        iterations: iterations.max(1),
        residual,
        solved_by: SolverBackend::Krylov,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorption::mean_time_to_absorption;
    use crate::backend::SolverBackend;
    use crate::graph::{ReachOptions, StateSpace};
    use crate::Ctmc;
    use ctsim_san::{Activity, Case, SanBuilder};
    use ctsim_stoch::Dist;

    fn krylov_opts(threads: usize) -> IterOptions {
        IterOptions {
            backend: SolverBackend::Krylov,
            threads,
            ..IterOptions::default()
        }
    }

    #[test]
    fn pipeline_absorption_matches_sum_of_means() {
        let mut b = SanBuilder::new("m");
        let stages = [2.0, 5.0, 1.0, 0.25];
        let mut places = vec![b.place("p0", 1)];
        for i in 1..=stages.len() {
            places.push(b.place(format!("p{i}"), 0));
        }
        for (i, &mean) in stages.iter().enumerate() {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Exp { mean })
                    .input(places[i], 1)
                    .case(Case::with_prob(1.0).output(places[i + 1], 1)),
            );
        }
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        let expect: f64 = stages.iter().sum();
        for threads in [1usize, 2] {
            let sol = mean_time_to_absorption(&q, &krylov_opts(threads)).unwrap();
            assert!(
                (sol.mean - expect).abs() < 1e-9,
                "mean {} ({threads} threads)",
                sol.mean
            );
            // Absorbing states report exactly zero.
            for (i, &t) in sol.per_state.iter().enumerate() {
                if q.is_absorbing(i) {
                    assert_eq!(t, 0.0);
                }
            }
        }
    }
}
