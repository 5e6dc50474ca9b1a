//! Positive coverage for the graceful-degradation fallback chains
//! (`docs/RESILIENCE.md`): a backend failure injected through the
//! deterministic failpoint registry makes the solve walk
//! `SolverBackend::fallback_after` instead of erroring, the substitute
//! backend is recorded in `solved_by`, and — the property the feature
//! rests on — the fallback answer agrees with a direct solve of the
//! same chain.
//!
//! These tests live in their own integration binary because arming
//! `solver.krylov` poisons *every* concurrent Krylov solve in the
//! process; here every test holds `fail::test_lock` for its whole
//! body, so the registry is never armed under someone else's solve.

use ctsim_resilience::fail;
use ctsim_san::{Activity, Case, SanBuilder, SanModel};
use ctsim_solve::{
    mean_time_to_absorption, Ctmc, IterOptions, ReachOptions, SolveError, SolverBackend,
    SpillOptions, StateSpace,
};
use ctsim_stoch::Dist;
use proptest::prelude::*;

/// A single-token cycle over `means.len()` stations whose last station
/// exits to the absorbing `done` with probability ½ and otherwise
/// returns to the first: absorption is certain, and the back edge
/// makes Gauss-Seidel take more than the two sweeps of a feed-forward
/// chain, so any two correct backends must agree on a solve that
/// really iterates.
fn cyclic(means: &[f64]) -> SanModel {
    let mut b = SanBuilder::new("cycle");
    let places: Vec<_> = (0..means.len())
        .map(|i| b.place(format!("p{i}"), u32::from(i == 0)))
        .collect();
    let done = b.place("done", 0);
    let last = means.len() - 1;
    for (i, &mean) in means.iter().enumerate() {
        let t = Activity::timed(format!("t{i}"), Dist::Exp { mean }).input(places[i], 1);
        b.add_activity(if i == last {
            t.case(Case::with_prob(0.5).output(done, 1))
                .case(Case::with_prob(0.5).output(places[0], 1))
        } else {
            t.case(Case::with_prob(1.0).output(places[i + 1], 1))
        });
    }
    b.build().unwrap()
}

/// Explores `model` and assembles its generator in the same pass —
/// the only path that produces a *paged* CSR body: under a zero spill
/// budget every sealed segment pages to disk, so the result reports
/// `is_streamed()` and Gauss-Seidel refuses it.
fn ctmc(model: &SanModel, spill: Option<SpillOptions>) -> Ctmc {
    let opts = ReachOptions {
        spill,
        ..ReachOptions::default()
    };
    let (_, q) = StateSpace::explore_ctmc(model, &opts).unwrap();
    q
}

fn krylov_with_fallback() -> IterOptions {
    IterOptions {
        fallback: true,
        ..IterOptions::with_backend(SolverBackend::Krylov, 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Injected `NotConverged` at the Krylov entry → the chain degrades
    /// to Gauss-Seidel, records it, and agrees with the direct
    /// (fault-free) solve within 1e-6 relative on every state — for
    /// arbitrary cycle lengths and holding times.
    #[test]
    fn injected_krylov_failure_degrades_and_agrees(
        means in proptest::collection::vec(0.2f64..5.0, 2..7),
    ) {
        let _guard = fail::test_lock();
        let q = ctmc(&cyclic(&means), None);
        let direct =
            mean_time_to_absorption(&q, &IterOptions::with_backend(SolverBackend::Krylov, 1))
                .expect("fault-free solve");

        fail::configure("solver.krylov=always", 0).unwrap();
        let degraded = mean_time_to_absorption(&q, &krylov_with_fallback());
        fail::disarm();
        let degraded = degraded.expect("fallback chain absorbs the injected failure");

        prop_assert_eq!(degraded.solved_by, SolverBackend::GaussSeidel);
        prop_assert!(degraded.iterations > 2, "{} sweeps", degraded.iterations);
        for (s, (&d, &g)) in direct.per_state.iter().zip(&degraded.per_state).enumerate() {
            prop_assert!(
                (d - g).abs() <= 1e-6 * d.abs().max(1e-30),
                "state {}: direct {} vs degraded {}", s, d, g
            );
        }
    }
}

/// Without `fallback: true` the injected failure surfaces as the typed
/// error — opt-in means opt-in.
#[test]
fn without_opt_in_the_injected_failure_surfaces() {
    let _guard = fail::test_lock();
    let q = ctmc(&cyclic(&[1.0, 3.0, 6.0]), None);
    fail::configure("solver.krylov=always", 0).unwrap();
    let err = mean_time_to_absorption(&q, &IterOptions::with_backend(SolverBackend::Krylov, 1));
    fail::disarm();
    assert!(
        matches!(err, Err(SolveError::NotConverged { .. })),
        "{err:?}"
    );
}

/// The second edge of the chain: Gauss-Seidel refuses a disk-paged
/// (streamed) generator with `ResidentOnly`, and the fallback walks to
/// Jacobi, which streams fine — and lands on the same absorption mean
/// as a resident direct solve.
#[test]
fn gauss_seidel_on_streamed_generator_degrades_to_jacobi() {
    let _guard = fail::test_lock();
    let mut b = SanBuilder::new("pipeline");
    let p0 = b.place("p0", 1);
    let p1 = b.place("p1", 0);
    let p2 = b.place("p2", 0);
    for (i, (from, to, mean)) in [(p0, p1, 2.0), (p1, p2, 5.0)].into_iter().enumerate() {
        b.add_activity(
            Activity::timed(format!("t{i}"), Dist::Exp { mean })
                .input(from, 1)
                .case(Case::with_prob(1.0).output(to, 1)),
        );
    }
    let model = b.build().unwrap();

    let resident = ctmc(&model, None);
    let direct = mean_time_to_absorption(
        &resident,
        &IterOptions::with_backend(SolverBackend::Jacobi, 1),
    )
    .unwrap();

    let spilled = ctmc(&model, Some(SpillOptions::with_budget(0)));
    let gs = IterOptions::with_backend(SolverBackend::GaussSeidel, 1);
    assert!(
        matches!(
            mean_time_to_absorption(&spilled, &gs),
            Err(SolveError::ResidentOnly { .. })
        ),
        "streamed generator must refuse Gauss-Seidel without the opt-in"
    );

    let sol = mean_time_to_absorption(
        &spilled,
        &IterOptions {
            fallback: true,
            ..gs
        },
    )
    .expect("fallback reaches Jacobi");
    assert_eq!(sol.solved_by, SolverBackend::Jacobi);
    assert!(
        (sol.mean - direct.mean).abs() <= 1e-6 * direct.mean,
        "{} vs {}",
        sol.mean,
        direct.mean
    );
}

/// Transient page-in faults absorbed by the retry policy leave the
/// answer bit-identical to a fault-free run: the reissued read returns
/// the same bytes, so the iteration sequence cannot drift.
#[test]
fn retried_page_in_faults_leave_the_solve_bit_identical() {
    let _guard = fail::test_lock();
    ctsim_resilience::retry::reset_budgets();
    // The Krylov absorption path iterates on the paged CSR itself, so
    // it is the solve that actually pages segments back in.
    let mut b = SanBuilder::new("pipeline");
    let mut prev = b.place("p0", 1);
    for (i, mean) in [2.0, 5.0, 1.0, 3.0].into_iter().enumerate() {
        let next = b.place(format!("p{}", i + 1), 0);
        b.add_activity(
            Activity::timed(format!("t{i}"), Dist::Exp { mean })
                .input(prev, 1)
                .case(Case::with_prob(1.0).output(next, 1)),
        );
        prev = next;
    }
    let model = b.build().unwrap();
    let krylov = IterOptions::with_backend(SolverBackend::Krylov, 1);
    let clean = mean_time_to_absorption(&ctmc(&model, Some(SpillOptions::with_budget(0))), &krylov)
        .unwrap();

    // A fresh paged generator, so its segment LRU starts cold and the
    // solve genuinely reads from disk.
    let spilled = ctmc(&model, Some(SpillOptions::with_budget(0)));
    let injected_before = fail::injected_total();
    fail::configure("csr.page_in=first:2", 0).unwrap();
    let faulted = mean_time_to_absorption(&spilled, &krylov);
    fail::disarm();
    let faulted = faulted.expect("two injected faults sit inside the 4-attempt policy");
    assert!(
        fail::injected_total() >= injected_before + 2,
        "the schedule must actually have fired"
    );
    assert_eq!(
        clean.mean.to_bits(),
        faulted.mean.to_bits(),
        "{} vs {}",
        clean.mean,
        faulted.mean
    );
    assert_eq!(clean.iterations, faulted.iterations);
}

/// The implicit full chain: a streamed generator under an injected
/// Krylov failure degrades Krylov → Gauss-Seidel → Jacobi (Gauss-Seidel
/// immediately refuses with `ResidentOnly`), so the chain terminates at
/// the backend with no further edge.
#[test]
fn full_chain_krylov_to_jacobi_on_streamed_generator() {
    let _guard = fail::test_lock();
    let model = cyclic(&[0.3, 2.0, 0.7, 5.0]);
    let resident = ctmc(&model, None);
    let direct = mean_time_to_absorption(&resident, &IterOptions::default()).unwrap();

    let spilled = ctmc(&model, Some(SpillOptions::with_budget(0)));
    fail::configure("solver.krylov=always", 0).unwrap();
    let sol = mean_time_to_absorption(&spilled, &krylov_with_fallback());
    fail::disarm();
    let sol = sol.expect("chain reaches Jacobi");
    assert_eq!(sol.solved_by, SolverBackend::Jacobi);
    for (s, (&a, &b)) in direct.per_state.iter().zip(&sol.per_state).enumerate() {
        assert!((a - b).abs() <= 1e-9, "state {s}: {a} vs {b}");
    }
}

/// An exhausted page-in crosses the solver as an unwind carrying the
/// typed error, and must do so without the panic machinery noticing:
/// the process-wide hook — the user's, here a counting one — is never
/// run and never replaced.
#[test]
fn exhausted_page_in_surfaces_typed_without_running_the_panic_hook() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

    let _guard = fail::test_lock();
    ctsim_resilience::retry::reset_budgets();
    let mut b = SanBuilder::new("pipeline");
    let mut prev = b.place("p0", 1);
    for (i, mean) in [2.0, 5.0, 1.0].into_iter().enumerate() {
        let next = b.place(format!("p{}", i + 1), 0);
        b.add_activity(
            Activity::timed(format!("t{i}"), Dist::Exp { mean })
                .input(prev, 1)
                .case(Case::with_prob(1.0).output(next, 1)),
        );
        prev = next;
    }
    // Built before the hook goes in: every solver entry point has run
    // by then, so nothing it may do to the hook happens afterwards.
    let spilled = ctmc(&b.build().unwrap(), Some(SpillOptions::with_budget(0)));

    let before = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    fail::configure("csr.page_in=always", 0).unwrap();
    let result = mean_time_to_absorption(
        &spilled,
        &IterOptions::with_backend(SolverBackend::Krylov, 1),
    );
    fail::disarm();
    std::panic::set_hook(before);

    assert!(
        matches!(&result, Err(SolveError::SpillFailed { op, attempts, .. })
            if *op == "csr.page_in" && attempts.len() == 4),
        "{result:?}"
    );
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 0);
}
