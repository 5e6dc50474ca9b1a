//! Faults injected through the deterministic failpoint registry
//! (`docs/RESILIENCE.md`) end in one of two ways: a transient page-in
//! fault is absorbed by the retry policy and leaves the solve
//! bit-identical, and anything else surfaces as a typed error.
//!
//! These tests live in their own integration binary because arming a
//! site poisons *every* concurrent solve that hits it in the process;
//! here every test holds `fail::test_lock` for its whole body, so the
//! registry is never armed under someone else's solve.

use ctsim_resilience::fail;
use ctsim_san::{Activity, Case, SanBuilder, SanModel};
use ctsim_solve::{
    mean_time_to_absorption, Ctmc, IterOptions, ReachOptions, SolveError, SolverBackend,
    SpillOptions, StateSpace,
};
use ctsim_stoch::Dist;

/// A single token walking a chain of stations, one exponential stage
/// of the given mean each, into an absorbing last place.
fn pipeline(means: &[f64]) -> SanModel {
    let mut b = SanBuilder::new("pipeline");
    let mut prev = b.place("p0", 1);
    for (i, &mean) in means.iter().enumerate() {
        let next = b.place(format!("p{}", i + 1), 0);
        b.add_activity(
            Activity::timed(format!("t{i}"), Dist::Exp { mean })
                .input(prev, 1)
                .case(Case::with_prob(1.0).output(next, 1)),
        );
        prev = next;
    }
    b.build().unwrap()
}

/// Explores `model` and assembles its generator in the same pass.
/// Under a zero spill budget every sealed segment of the CSR body
/// pages to disk, so the solve reads it back through the pager.
fn ctmc(model: &SanModel, spill: Option<SpillOptions>) -> Ctmc {
    let opts = ReachOptions {
        spill,
        ..ReachOptions::default()
    };
    let (_, q) = StateSpace::explore_ctmc(model, &opts).unwrap();
    q
}

/// An injected Krylov failure surfaces as the typed `NotConverged`:
/// no other backend steps in.
#[test]
fn injected_krylov_failure_surfaces_as_not_converged() {
    let _guard = fail::test_lock();
    let q = ctmc(&pipeline(&[1.0, 3.0, 6.0]), None);
    fail::configure("solver.krylov=always").unwrap();
    let err = mean_time_to_absorption(&q, &IterOptions::with_backend(SolverBackend::Krylov, 1));
    fail::disarm();
    assert!(
        matches!(err, Err(SolveError::NotConverged { .. })),
        "{err:?}"
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
    let model = pipeline(&[2.0, 5.0, 1.0, 3.0]);
    let krylov = IterOptions::with_backend(SolverBackend::Krylov, 1);
    let clean = mean_time_to_absorption(&ctmc(&model, Some(SpillOptions::with_budget(0))), &krylov)
        .unwrap();

    // A fresh paged generator, so its segment LRU starts cold and the
    // solve genuinely reads from disk.
    let spilled = ctmc(&model, Some(SpillOptions::with_budget(0)));
    let injected_before = fail::injected_total();
    fail::configure("csr.page_in=first:2").unwrap();
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
    // Built before the hook goes in: every solver entry point has run
    // by then, so nothing it may do to the hook happens afterwards.
    let spilled = ctmc(
        &pipeline(&[2.0, 5.0, 1.0]),
        Some(SpillOptions::with_budget(0)),
    );

    let before = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    fail::configure("csr.page_in=always").unwrap();
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
