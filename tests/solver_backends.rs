//! Ill-conditioned inputs across every solver backend: chains from
//! which absorption is not certain, near-zero exit rates, and stiff
//! two-timescale chains where stationary sweeps crawl. The contract
//! under test is the one the backend layer documents: every backend
//! either **converges** (finite times, residual at tolerance) or returns
//! [`SolveError::NotConverged`] with finite diagnostics — no NaNs, no
//! hangs — for every SpMV thread count; and backends that converge on
//! the same system agree.

use ct_consensus_repro::san::{Activity, Case, SanBuilder, SanModel};
use ct_consensus_repro::solve::{
    mean_time_to_absorption, Ctmc, IterOptions, ReachOptions, SolveError, SolverBackend, StateSpace,
};
use ct_consensus_repro::stoch::Dist;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn ctmc_of(model: &SanModel) -> Ctmc {
    let ss = StateSpace::explore(model, &ReachOptions::default()).expect("explore");
    Ctmc::from_state_space(&ss).expect("all-exponential")
}

fn opts(backend: SolverBackend, threads: usize, tolerance: f64, budget: usize) -> IterOptions {
    IterOptions {
        tolerance,
        max_iterations: budget,
        ..IterOptions::with_backend(backend, threads)
    }
}

/// Asserts the converge-or-`NotConverged` contract on an absorption
/// result and returns the mean when it converged.
fn check_absorption(
    label: &str,
    result: Result<ct_consensus_repro::solve::AbsorptionTimes, SolveError>,
    tolerance: f64,
) -> Option<f64> {
    match result {
        Ok(sol) => {
            assert!(
                sol.per_state.iter().all(|t| t.is_finite() && *t >= 0.0),
                "{label}: non-finite/negative absorption time"
            );
            assert!(sol.mean.is_finite(), "{label}: mean {}", sol.mean);
            assert!(
                sol.residual.is_finite() && sol.residual <= tolerance,
                "{label}: residual {}",
                sol.residual
            );
            Some(sol.mean)
        }
        Err(SolveError::NotConverged {
            iterations,
            residual,
        }) => {
            assert!(
                !residual.is_nan(),
                "{label}: NotConverged must carry a non-NaN residual"
            );
            assert!(iterations > 0, "{label}: zero iterations");
            None
        }
        Err(other) => panic!("{label}: unexpected error {other:?}"),
    }
}

/// A stiff two-timescale absorption problem: a fast A↔B cycle (mean
/// `fast` ms per hop) that leaks into the absorbing state only from B,
/// at mean `slow` ms. One Gauss–Seidel or Jacobi sweep contracts the
/// error by just `1 − fast/slow`, so `slow/fast = 10⁶` needs ~10⁷
/// sweeps — while GMRES solves the 3-state system exactly in a couple
/// of Arnoldi steps.
fn stiff_absorbing(fast: f64, slow: f64) -> SanModel {
    let mut b = SanBuilder::new("stiff-abs");
    let a = b.place("a", 1);
    let bb = b.place("b", 0);
    let done = b.place("done", 0);
    b.add_activity(
        Activity::timed("ab", Dist::Exp { mean: fast })
            .input(a, 1)
            .case(Case::with_prob(1.0).output(bb, 1)),
    );
    b.add_activity(
        Activity::timed("ba", Dist::Exp { mean: fast })
            .input(bb, 1)
            .case(Case::with_prob(1.0).output(a, 1)),
    );
    b.add_activity(
        Activity::timed("leak", Dist::Exp { mean: slow })
            .input(bb, 1)
            .case(Case::with_prob(1.0).output(done, 1)),
    );
    b.build().unwrap()
}

/// A trap: `start` splits evenly into the absorbing `done` and into
/// the closed cycle `a0 ⇄ a1`, which never leaves. Half the mass is
/// never absorbed, so the expected absorption time is infinite and
/// `Q_TT` is singular.
fn trap() -> SanModel {
    let mut b = SanBuilder::new("trap");
    let start = b.place("start", 1);
    let done = b.place("done", 0);
    let a0 = b.place("a0", 0);
    let a1 = b.place("a1", 0);
    b.add_activity(
        Activity::timed("split", Dist::Exp { mean: 1.0 })
            .input(start, 1)
            .case(Case::with_prob(0.5).output(done, 1))
            .case(Case::with_prob(0.5).output(a0, 1)),
    );
    for (name, from, to, mean) in [("a01", a0, a1, 0.5), ("a10", a1, a0, 2.0)] {
        b.add_activity(
            Activity::timed(name, Dist::Exp { mean })
                .input(from, 1)
                .case(Case::with_prob(1.0).output(to, 1)),
        );
    }
    b.build().unwrap()
}

/// The headline stiffness scenario of the satellite task: the
/// stationary backends exhaust a 10⁴-sweep budget on a `slow/fast =
/// 10⁶` two-timescale chain, Krylov converges — and where two
/// backends converge they agree.
#[test]
fn stiff_two_timescale_absorption_defeats_sweeps_not_krylov() {
    let model = stiff_absorbing(1e-3, 1e3);
    let q = ctmc_of(&model);
    let tol = 1e-8;
    let budget = 10_000;
    for threads in THREADS {
        let gs =
            mean_time_to_absorption(&q, &opts(SolverBackend::GaussSeidel, threads, tol, budget));
        assert!(
            matches!(gs, Err(SolveError::NotConverged { iterations, residual })
                if iterations == budget && residual.is_finite()),
            "Gauss–Seidel should exhaust the 10^4-sweep budget, got {gs:?}"
        );
        let jac = mean_time_to_absorption(&q, &opts(SolverBackend::Jacobi, threads, tol, budget));
        check_absorption("jacobi/stiff", jac, tol);
        let kr = mean_time_to_absorption(&q, &opts(SolverBackend::Krylov, threads, tol, budget))
            .expect("Krylov must converge on the stiff chain");
        // Closed form: with rates r_f = 1/fast, r_s = 1/slow,
        // τ(A) = 2/r_s + 1/r_f = 2·slow + fast.
        let (fast, slow) = (1e-3, 1e3);
        let expect = 2.0 * slow + fast;
        assert!(
            (kr.mean - expect).abs() < 1e-6 * expect,
            "Krylov mean {} vs closed form {expect} ({threads} threads)",
            kr.mean
        );
        assert!(
            kr.iterations < 100,
            "Krylov needed {} matvecs",
            kr.iterations
        );
    }
}

/// Absorption that is not certain has no finite mean: every backend
/// must report `NotConverged` with a finite iteration count and
/// residual — never a mean, never a hang — on every thread count.
/// Gauss–Seidel and Jacobi spend the budget while the trapped states'
/// times grow; Krylov's stagnation guard stops the singular system
/// after a few matvecs.
#[test]
fn uncertain_absorption_reports_not_converged() {
    let q = ctmc_of(&trap());
    let budget = 20_000;
    for threads in THREADS {
        for backend in SolverBackend::ALL {
            let label = format!("{backend}/trap/{threads}t");
            let sol = mean_time_to_absorption(&q, &opts(backend, threads, 1e-10, budget));
            assert!(
                matches!(sol, Err(SolveError::NotConverged { iterations, residual })
                    if (1..=budget).contains(&iterations) && residual.is_finite()),
                "{label}: {sol:?}"
            );
        }
    }
}

/// Near-zero exit rates: a pipeline containing a mean-10⁹-ms stage.
/// The huge holding time skews every scale in the system; backends
/// must stay finite, converge (the pipeline is feed-forward) and agree
/// with the closed form, where the mean is dominated by the slow stage.
#[test]
fn near_zero_exit_rates_stay_finite() {
    let mut b = SanBuilder::new("slow-pipe");
    let s0 = b.place("s0", 1);
    let s1 = b.place("s1", 0);
    let s2 = b.place("s2", 0);
    for (name, from, to, mean) in [("u0", s0, s1, 1e9), ("u1", s1, s2, 0.25)] {
        b.add_activity(
            Activity::timed(name, Dist::Exp { mean })
                .input(from, 1)
                .case(Case::with_prob(1.0).output(to, 1)),
        );
    }
    let q = ctmc_of(&b.build().unwrap());
    let tol = 1e-12;
    for threads in THREADS {
        for backend in SolverBackend::ALL {
            let label = format!("{backend}/slow-pipe/{threads}t");
            let mean = check_absorption(
                &label,
                mean_time_to_absorption(&q, &opts(backend, threads, tol, 100_000)),
                tol,
            )
            .unwrap_or_else(|| panic!("{label}: the pipeline is feed-forward, must converge"));
            assert!((mean - (1e9 + 0.25)).abs() < 1.0, "{label}: mean {mean}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, .. ProptestConfig::default()
    })]

    /// Random two-timescale absorption chains over random stiffness
    /// exponents: the converge-or-`NotConverged` contract holds for
    /// every backend × thread count, and all converging backends agree
    /// on the mean.
    #[test]
    fn random_stiff_chains_honour_the_contract(
        fast in 1e-4f64..1e-2,
        ratio_exp in 1u32..7,
        budget in 2_000usize..20_000,
    ) {
        let slow = fast * 10f64.powi(ratio_exp as i32);
        let model = stiff_absorbing(fast, slow);
        let q = ctmc_of(&model);
        let tol = 1e-8;
        let mut means: Vec<(String, f64)> = Vec::new();
        for threads in THREADS {
            for backend in SolverBackend::ALL {
                let label = format!("{backend}/{threads}t fast={fast} slow={slow}");
                let sol = mean_time_to_absorption(&q, &opts(backend, threads, tol, budget));
                if let Some(mean) = check_absorption(&label, sol, tol) {
                    means.push((label, mean));
                }
            }
        }
        // Krylov always converges on these 3-state systems, so the
        // agreement set is never empty.
        prop_assert!(!means.is_empty(), "no backend converged");
        let (ref_label, ref_mean) = means[0].clone();
        for (label, mean) in &means {
            prop_assert!(
                (mean - ref_mean).abs() <= 1e-6 * ref_mean.abs(),
                "{label}: {mean} vs {ref_label}: {ref_mean}"
            );
        }
    }
}
