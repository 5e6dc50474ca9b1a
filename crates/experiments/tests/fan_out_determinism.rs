//! The measurement sweeps and the campaign engine fan their jobs out
//! over threads; neither a result nor a reported error may depend on
//! how many.

use ctsim_experiments::campaign::{self, CampaignError, CampaignOptions};
use ctsim_experiments::fig8::{self, QosPoint};
use ctsim_experiments::Scale;
use ctsim_resilience::fail;
use ctsim_solve::SolverBackend;

/// Every field of a point, floats as their bits.
fn bits(p: &QosPoint) -> (usize, [u64; 8], u32, u32) {
    let floats = [
        p.timeout,
        p.t_mr,
        p.t_mr_ci90,
        p.t_m,
        p.t_m_ci90,
        p.latency,
        p.latency_ci90,
        p.undecided_frac,
    ];
    (p.n, floats.map(f64::to_bits), p.runs_with_mistakes, p.runs)
}

#[test]
fn qos_points_are_bit_identical_at_one_and_four_threads() {
    // T = 3 ms: wrong suspicions in every run, so every field is live.
    let one = fig8::run_point(Scale::Quick, 11, 3, 3.0, 1);
    let four = fig8::run_point(Scale::Quick, 11, 3, 3.0, 4);
    assert_eq!(one.runs_with_mistakes, one.runs);
    assert_eq!(bits(&one), bits(&four));

    let one = fig8::run(Scale::Quick, 11, 1);
    let four = fig8::run(Scale::Quick, 11, 4);
    assert_eq!(one.points.len(), four.points.len());
    for (a, b) in one.points.iter().zip(&four.points) {
        assert_eq!(bits(a), bits(b), "n={} T={}", a.n, a.timeout);
    }
}

#[test]
fn failing_groups_report_the_same_error_at_one_and_four_threads() {
    let _guard = fail::test_lock();
    // Two structural groups (orders 1 and 2), each with Krylov points
    // that the failpoint makes fail.
    let opts = |threads| CampaignOptions {
        ns: vec![2],
        ph_orders: vec![1, 2],
        service_scales: vec![1.0, 1.15],
        backends: vec![SolverBackend::GaussSeidel, SolverBackend::Krylov],
        threads,
        ..CampaignOptions::default()
    };
    fail::configure("solver.krylov=always").unwrap();
    let errors = [1, 4].map(|threads| campaign::run_with(1, &opts(threads)));
    fail::disarm();
    let [one, four] = errors.map(|r| r.expect_err("the Krylov points must fail"));
    // The lowest-index failing group is the first order's.
    assert!(
        matches!(&one, CampaignError::Point { what: "solve", spec, .. } if spec.ph_order == 1),
        "{one}"
    );
    assert_eq!(one.to_string(), four.to_string());
}
