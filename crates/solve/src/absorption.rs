//! Layer 3b: absorption-time solvers, pluggable over [`SolverBackend`].
//!
//! [`mean_time_to_absorption`] solves `Q_TT τ = -1` for the expected
//! time each transient state needs to reach an absorbing state — the
//! analytic counterpart of the simulator's mean-latency estimate.
//!
//! It dispatches on [`IterOptions::backend`]:
//! [`SolverBackend::GaussSeidel`] runs in-place sweeps (the reference;
//! the sweeps descend, with the canonical BFS numbering, so a
//! first-passage chain takes a few sweeps, not one per BFS level),
//! [`SolverBackend::Jacobi`] double-buffered Jacobi steps whose updates
//! are one sharded SpMV over [`IterOptions::threads`] workers (one step
//! per BFS level, but a step sweeps only the prefix of rows that can
//! still change), and [`SolverBackend::Krylov`] restarted GMRES (see
//! the `krylov` module docs). Every backend converges on the same sup-norm residual to the same
//! [`IterOptions::tolerance`], so a converged answer is
//! backend-independent down to round-off; backends that cannot make the
//! tolerance return [`SolveError::NotConverged`] with finite
//! diagnostics — never NaNs, never a hang.

use crate::backend::SolverBackend;
use crate::ctmc::Ctmc;
use crate::{krylov, SolveError};

/// Iterations per telemetry batch span in the stationary loops.
const TRACE_BATCH: usize = 64;

/// The loop both stationary iterative backends run: `step` advances the
/// iterate once and returns the sup-norm residual it measured, until
/// the residual meets [`IterOptions::tolerance`]. Returns
/// `(iterations, residual)` of the converged iterate, which stays with
/// the caller's `step` state.
///
/// Telemetry, when enabled: one point per iteration on the
/// `solver.residual/<name>` series and an `iter_batch` span closed
/// every [`TRACE_BATCH`] iterations or at convergence; disabled, an
/// iteration pays one atomic load and branch for it.
///
/// # Errors
/// [`SolveError::NotConverged`] on a non-finite residual or an
/// exhausted [`IterOptions::max_iterations`] — always with the
/// iteration count reached and the last residual.
fn iterate(
    name: &'static str,
    opts: &IterOptions,
    mut step: impl FnMut() -> f64,
) -> Result<(usize, f64), SolveError> {
    let mut residual = f64::INFINITY;
    let mut batch_t0 = if ctsim_obs::enabled() {
        ctsim_obs::now_us()
    } else {
        0
    };
    for iter in 1..=opts.max_iterations {
        residual = step();
        let done = residual <= opts.tolerance;
        if ctsim_obs::enabled() {
            ctsim_obs::series_push(&format!("solver.residual/{name}"), iter as f64, residual);
            if done || iter % TRACE_BATCH == 0 {
                ctsim_obs::record_span(
                    "solver",
                    "iter_batch",
                    batch_t0,
                    vec![
                        ("backend", name.into()),
                        ("through_iter", iter.into()),
                        ("residual", residual.into()),
                    ],
                );
                batch_t0 = ctsim_obs::now_us();
            }
        }
        if done {
            return Ok((iter, residual));
        }
        if !residual.is_finite() {
            return Err(SolveError::NotConverged {
                iterations: iter,
                residual,
            });
        }
    }
    Err(SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual,
    })
}

/// Iteration limits, tolerance, and backend selection for the
/// absorption solvers.
#[derive(Debug, Clone)]
pub struct IterOptions {
    /// Convergence threshold on the sup-norm residual.
    pub tolerance: f64,
    /// Iteration budget: sweeps (Gauss–Seidel), steps (Jacobi), or
    /// matrix–vector products (Krylov) before giving up.
    pub max_iterations: usize,
    /// Which linear-algebra backend iterates.
    pub backend: SolverBackend,
    /// Worker threads for the sharded SpMV of the Jacobi and Krylov
    /// backends (`0` = one per core, `1` = inline). Results are
    /// bit-identical for every value; Gauss–Seidel is sequential by
    /// construction and ignores this.
    pub threads: usize,
}

impl Default for IterOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-12,
            max_iterations: 100_000,
            backend: SolverBackend::default(),
            threads: 1,
        }
    }
}

impl IterOptions {
    /// Default tolerances with the given backend and SpMV thread count.
    pub fn with_backend(backend: SolverBackend, threads: usize) -> Self {
        Self {
            backend,
            threads,
            ..Self::default()
        }
    }
}

/// Expected absorption times with convergence diagnostics.
#[derive(Debug, Clone)]
pub struct AbsorptionTimes {
    /// `τ_i`: expected time (ms) to reach an absorbing state from state
    /// `i` (0 for absorbing states).
    pub per_state: Vec<f64>,
    /// `Σ_i π0_i τ_i`: expected absorption time from the initial
    /// distribution (ms).
    pub mean: f64,
    /// Iterations performed (sweeps / steps / matvecs by backend).
    pub iterations: usize,
    /// Final sup-norm residual of `Q_TT τ + 1`.
    pub residual: f64,
    /// The backend that produced this answer: always
    /// [`IterOptions::backend`]. Kept because the benchmark's
    /// `solve_n3_ph2` workload checks it; it goes once the benchmark
    /// stops reading it.
    pub solved_by: SolverBackend,
}

/// Solves the expected time to absorption from every state with the
/// backend named in `opts`, under the `solver` span
/// `mean_time_to_absorption` and the spill catch.
///
/// # Errors
/// * [`SolveError::NoAbsorbingStates`] if the chain has none.
/// * [`SolveError::NotConverged`] if absorption is not certain from
///   some reachable state (the expected time is then infinite) or the
///   iteration budget is exhausted.
pub fn mean_time_to_absorption(
    op: &Ctmc,
    opts: &IterOptions,
) -> Result<AbsorptionTimes, SolveError> {
    let n = op.num_states();
    if n == 0 {
        return Err(SolveError::EmptyStateSpace);
    }
    if !(0..n).any(|i| op.is_absorbing(i)) {
        return Err(SolveError::NoAbsorbingStates);
    }
    let _span = ctsim_obs::span("solver", "mean_time_to_absorption")
        .arg("backend", opts.backend.to_string())
        .arg("states", n);
    crate::catch_spill(|| match opts.backend {
        SolverBackend::GaussSeidel => absorption_gauss_seidel(op, opts),
        SolverBackend::Jacobi => absorption_jacobi(op, opts),
        SolverBackend::Krylov => krylov::absorption(op, opts),
    })
}

/// The reference backend: in-place Gauss–Seidel sweeps on `Q_TT τ = -1`.
///
/// Resident-only: each sweep reads every row while writing τ in place,
/// an access pattern the disk pager cannot serve without thrashing. Streamed generators are refused
/// with [`SolveError::ResidentOnly`]; use Jacobi or Krylov (the
/// default first-passage path), which sweep rows in shard order.
fn absorption_gauss_seidel(op: &Ctmc, opts: &IterOptions) -> Result<AbsorptionTimes, SolveError> {
    if op.is_streamed() {
        return Err(SolveError::ResidentOnly {
            backend: "gauss-seidel".into(),
        });
    }
    let n = op.num_states();
    let mut tau = vec![0.0; n];
    let (iterations, residual) = iterate("absorption_gauss_seidel", opts, || {
        // τ_j ← (1 + Σ_k q_jk τ_k) / |q_jj| over transient states, in
        // place (Gauss–Seidel on Q_TT τ = -1; absorbing τ stay 0). The
        // pre-update defect |q_jj·τ_j + flow + 1| is a free by-product
        // of the same flow sum and serves as the convergence residual:
        // it vanishes exactly at the fixed point. The sweep descends:
        // in the canonical BFS order successors almost always carry
        // higher ids, so a row reads τ values this sweep already fixed.
        let mut residual = 0.0f64;
        for j in (0..n).rev() {
            if op.is_absorbing(j) {
                continue;
            }
            let mut flow = 0.0;
            op.for_each_in_row(j, |k, r| flow += r * tau[k]);
            residual = residual.max((op.diag(j) * tau[j] + flow + 1.0).abs());
            tau[j] = (1.0 + flow) / -op.diag(j);
        }
        residual
    })?;
    let mean = op.initial().iter().zip(&tau).map(|(&p, &t)| p * t).sum();
    Ok(AbsorptionTimes {
        per_state: tau,
        mean,
        iterations,
        residual,
        solved_by: SolverBackend::GaussSeidel,
    })
}

/// Rows per block of the Jacobi absorption residual: a step sweeps
/// whole blocks and keeps one defect maximum per block.
const JACOBI_BLOCK: usize = 4096;

/// The parallel stationary backend: double-buffered Jacobi on
/// `Q_TT τ = -1`. The flow gather `Σ_k q_jk τ_k` is one sharded
/// row-oriented SpMV; since every update reads only the previous
/// iterate, the buffers swap and no write order matters.
///
/// A step sweeps only the rows that can still change. `reach[c]` is
/// the largest row that reads `τ_c`, or `c` itself, found in one
/// forward pass over the rows: no transpose, so a paged generator stays
/// inside its spill budget. A row past `reach[c]` of every row `c` the
/// last step changed in any bit reads no changed value and did not
/// change itself, so its new value and its defect are the last step's,
/// bit for bit; it changed in neither of the last two steps, so both
/// buffers already hold that value. The next step therefore sweeps the
/// [`JACOBI_BLOCK`]-row blocks up to that bound and keeps the stored
/// defect maximum of every block past it. The residual is the same
/// `f64::max` fold over the same defects as a full sweep's, so every
/// value, iteration count and residual is the full sweep's. On a
/// first-passage chain without back edges the bound falls as the
/// levels settle from the absorbing end; back edges only raise it, so
/// the rule holds on any chain.
fn absorption_jacobi(op: &Ctmc, opts: &IterOptions) -> Result<AbsorptionTimes, SolveError> {
    let n = op.num_states();
    let mut reach: Vec<usize> = (0..n).collect();
    for j in 0..n {
        op.for_each_in_row(j, |c, _| reach[c] = reach[c].max(j));
    }
    let mut tau = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut block_defect = vec![0.0f64; n.div_ceil(JACOBI_BLOCK)];
    // One past the last row the next step can change.
    let mut live = n;
    let (iterations, residual) = iterate("absorption_jacobi", opts, || {
        let end = live.next_multiple_of(JACOBI_BLOCK).min(n);
        op.apply(&tau, &mut next[..end], opts.threads);
        live = 0;
        let blocks = next[..end].chunks_mut(JACOBI_BLOCK).zip(&mut block_defect);
        for (b, (rows, defect)) in blocks.enumerate() {
            let mut max = 0.0f64;
            for (dj, x) in rows.iter_mut().enumerate() {
                let j = b * JACOBI_BLOCK + dj;
                let new = if op.is_absorbing(j) {
                    0.0
                } else {
                    max = max.max((op.diag(j) * tau[j] + *x + 1.0).abs());
                    (1.0 + *x) / -op.diag(j)
                };
                if new.to_bits() != tau[j].to_bits() {
                    live = live.max(reach[j] + 1);
                }
                *x = new;
            }
            *defect = max;
        }
        ctsim_obs::counter_add("solver.jacobi.rows", end as u64);
        std::mem::swap(&mut tau, &mut next);
        block_defect.iter().fold(0.0f64, |m, &d| m.max(d))
    })?;
    let mean = op.initial().iter().zip(&tau).map(|(&p, &t)| p * t).sum();
    Ok(AbsorptionTimes {
        per_state: tau,
        mean,
        iterations,
        residual,
        solved_by: SolverBackend::Jacobi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ReachOptions, StateSpace};
    use crate::Ctmc;
    use ctsim_san::{Activity, Case, SanBuilder};
    use ctsim_stoch::Dist;

    /// The first-passage chain `p0 → p1 → … → pk` with the given stage
    /// means, `pk` absorbing. With `back`, the last transient station
    /// also returns to `p0` at that mean: one cycle through every
    /// transient state, the shape of `tests/solver_backends.rs`'s
    /// `stiff_absorbing` (which is `absorbing_chain(&[f, s], Some(f))`).
    fn absorbing_chain(means: &[f64], back: Option<f64>) -> Ctmc {
        let mut b = SanBuilder::new("chain");
        let places: Vec<_> = (0..=means.len())
            .map(|i| b.place(format!("p{i}"), u32::from(i == 0)))
            .collect();
        for (i, &mean) in means.iter().enumerate() {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Exp { mean })
                    .input(places[i], 1)
                    .case(Case::with_prob(1.0).output(places[i + 1], 1)),
            );
        }
        if let Some(mean) = back {
            b.add_activity(
                Activity::timed("back", Dist::Exp { mean })
                    .input(places[means.len() - 1], 1)
                    .case(Case::with_prob(1.0).output(places[0], 1)),
            );
        }
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        Ctmc::from_state_space(&ss).unwrap()
    }

    /// Gauss–Seidel sweeps with the chain: on a feed-forward chain the
    /// first descending sweep lands on the solution and the second one
    /// measures a zero defect — not one sweep per BFS level.
    #[test]
    fn descending_gauss_seidel_solves_a_pipeline_in_two_sweeps() {
        let stages = [2.0, 5.0, 1.0, 0.25, 3.0, 0.5];
        let q = absorbing_chain(&stages, None);
        let sol = mean_time_to_absorption(&q, &IterOptions::default()).unwrap();
        assert_eq!(sol.solved_by, SolverBackend::GaussSeidel);
        assert_eq!(sol.iterations, 2);
        assert!((sol.mean - stages.iter().sum::<f64>()).abs() < 1e-12);
        let jacobi = IterOptions::with_backend(SolverBackend::Jacobi, 1);
        let levels = mean_time_to_absorption(&q, &jacobi).unwrap().iterations;
        assert!(levels > stages.len(), "Jacobi pays per level: {levels}");
    }

    /// On cyclic absorbing chains the descending sweep still converges
    /// to the answer Krylov finds.
    #[test]
    fn descending_gauss_seidel_agrees_with_krylov_on_cyclic_chains() {
        for (means, back) in [
            (vec![1.0, 10.0], 1.0),
            (vec![0.5, 50.0], 0.5),
            (vec![2.0, 0.3, 4.0, 1.5, 6.0], 0.7),
        ] {
            let q = absorbing_chain(&means, Some(back));
            let gs = mean_time_to_absorption(&q, &IterOptions::default()).unwrap();
            let kr = IterOptions::with_backend(SolverBackend::Krylov, 1);
            let kr = mean_time_to_absorption(&q, &kr).unwrap();
            assert!(gs.iterations > 2, "{means:?}: the cycle needs sweeps");
            assert!(
                (gs.mean - kr.mean).abs() <= 1e-10 * kr.mean,
                "{means:?}: GS {} vs Krylov {}",
                gs.mean,
                kr.mean
            );
        }
    }

    /// A 3-stage Erlang-like pipeline: mean absorption time is the sum
    /// of the stage means — for every backend.
    #[test]
    fn pipeline_absorption_time_adds_stage_means() {
        let mut b = SanBuilder::new("m");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let p2 = b.place("p2", 0);
        let p3 = b.place("p3", 0);
        for (i, (from, to, mean)) in [(p0, p1, 2.0), (p1, p2, 5.0), (p2, p3, 1.0)]
            .into_iter()
            .enumerate()
        {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Exp { mean })
                    .input(from, 1)
                    .case(Case::with_prob(1.0).output(to, 1)),
            );
        }
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        for backend in SolverBackend::ALL {
            let sol =
                mean_time_to_absorption(&ctmc, &IterOptions::with_backend(backend, 1)).unwrap();
            assert!(
                (sol.mean - 8.0).abs() < 1e-9,
                "{backend}: mean {}",
                sol.mean
            );
        }
    }

    /// A chain with no absorbing state cannot have absorption times.
    #[test]
    fn recurrent_chain_rejects_absorption_times() {
        let mut b = SanBuilder::new("cycle");
        let places: Vec<_> = (0..3)
            .map(|i| b.place(format!("p{i}"), u32::from(i == 0)))
            .collect();
        for i in 0..3 {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Exp { mean: 1.0 })
                    .input(places[i], 1)
                    .case(Case::with_prob(1.0).output(places[(i + 1) % 3], 1)),
            );
        }
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        for backend in SolverBackend::ALL {
            assert!(matches!(
                mean_time_to_absorption(&ctmc, &IterOptions::with_backend(backend, 1)),
                Err(SolveError::NoAbsorbingStates)
            ));
        }
    }

    /// Competing absorption with a branch: closed-form check.
    /// From s0: rate a to absorb, rate b to s1; s1 absorbs at rate c.
    #[test]
    fn branching_absorption_closed_form() {
        let mut b = SanBuilder::new("m");
        let s0 = b.place("s0", 1);
        let s1 = b.place("s1", 0);
        let done = b.place("done", 0);
        b.add_activity(
            Activity::timed("direct", Dist::Exp { mean: 2.0 }) // rate a = 0.5
                .input(s0, 1)
                .case(Case::with_prob(1.0).output(done, 1)),
        );
        b.add_activity(
            Activity::timed("detour", Dist::Exp { mean: 1.0 }) // rate b = 1.0
                .input(s0, 1)
                .case(Case::with_prob(1.0).output(s1, 1)),
        );
        b.add_activity(
            Activity::timed("finish", Dist::Exp { mean: 4.0 }) // rate c = 0.25
                .input(s1, 1)
                .case(Case::with_prob(1.0).output(done, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        // τ(s0) = 1/(a+b) + b/(a+b) · 1/c = 2/3 + (2/3)·4 = 10/3.
        for backend in SolverBackend::ALL {
            let sol =
                mean_time_to_absorption(&ctmc, &IterOptions::with_backend(backend, 1)).unwrap();
            assert!(
                (sol.mean - 10.0 / 3.0).abs() < 1e-9,
                "{backend}: mean {}",
                sol.mean
            );
        }
    }
}
