//! The `solver` column of `analytic.csv` names the backend that
//! produced each mean: under `--fallback`, a Krylov solve that fails
//! hands over to Gauss–Seidel, and the row must say so.

use ctsim_experiments::analytic::{self, AnalyticOptions};
use ctsim_experiments::Scale;
use ctsim_resilience::fail;
use ctsim_solve::SolverBackend;

#[test]
fn fallback_rows_name_the_backend_that_solved_them() {
    let _guard = fail::test_lock();
    let opts = AnalyticOptions {
        ph_order: 2,
        threads: 1,
        n: Some(2),
        backend: SolverBackend::Krylov,
        fallback: true,
        ..AnalyticOptions::default()
    };
    fail::configure("solver.krylov=always", 0).unwrap();
    let overlay = analytic::run_with(Scale::Quick, 11, &opts);
    fail::disarm();
    let overlay = overlay.expect("the fallback chain solves every row");
    // One exponential and one phase-type row at n = 2.
    assert_eq!(overlay.rows.len(), 2);
    for r in &overlay.rows {
        assert!(r.analytic_ms.is_some(), "{:?} unsolved", r.ph_order);
        assert_eq!(r.backend, SolverBackend::GaussSeidel, "{:?}", r.ph_order);
    }
}
