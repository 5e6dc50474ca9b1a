//! Cross-validation of the two SAN solvers on the paper's consensus
//! model: the analytic (CTMC) solution and the Monte-Carlo simulator
//! must agree — the solver is exact, so the simulator's own 90 %
//! confidence interval is the acceptance band (the same criterion the
//! paper applies between its simulations and measurements).
//!
//! Runs use the exponential re-parameterisation
//! ([`SanParams::exponential_baseline`]) — the analytic path's
//! applicability condition — at the smallest model sizes so the tests
//! stay fast in debug builds.

use ct_consensus_repro::models::{build_model, decided_place_ids, latency_replications, SanParams};
use ct_consensus_repro::san::SanModel;
use ct_consensus_repro::solve::{
    AnalyticRun, IterOptions, ReachOptions, SolveError, SolveOptions, TransientOptions,
};

fn decided_predicate(
    model: &SanModel,
    n: usize,
) -> impl Fn(&ct_consensus_repro::san::Marking) -> bool {
    let decided = decided_place_ids(model, n);
    move |m| decided.iter().any(|&d| m.get(d) > 0)
}

/// Solves mean consensus latency exactly and checks it against the
/// replicated simulation of the identical parameters.
fn assert_agreement(params: &SanParams, reps: usize, seed: u64) -> (f64, f64, f64) {
    let model = build_model(params);
    let pred = decided_predicate(&model, params.n);
    let run = AnalyticRun::first_passage(&model, &ReachOptions::default(), pred)
        .expect("exponential model must be Markovian");
    let exact = run
        .mean(&IterOptions::default())
        .expect("absorbing")
        .mean_ms;
    let sim = latency_replications(params, reps, seed, 10_000.0);
    assert_eq!(sim.discarded, 0, "every replication must decide");
    assert!(
        (exact - sim.mean()).abs() <= sim.ci90(),
        "analytic {exact} vs simulated {} ± {} ({} reps)",
        sim.mean(),
        sim.ci90(),
        reps
    );
    (exact, sim.mean(), sim.ci90())
}

/// Class-1 (no crashes): the smallest non-degenerate consensus.
#[test]
fn n2_latency_agrees_within_sim_ci() {
    let params = SanParams::exponential_baseline(2);
    let (exact, _, _) = assert_agreement(&params, 4000, 2002);
    // Regression pin for the exact value (20-state CTMC).
    assert!((exact - 0.895).abs() < 0.01, "exact mean drifted: {exact}");
}

/// Class-2 (participant crash) at the paper's smallest simulated size —
/// the Table 1 scenario with the smallest state space.
#[test]
fn n3_participant_crash_latency_agrees_within_sim_ci() {
    let params = SanParams::exponential_baseline(3).with_crash(1);
    assert_agreement(&params, 1200, 31337);
}

/// The analytic latency *distribution* (not just the mean) matches the
/// empirical distribution: CDF points sit inside a 99 % binomial band
/// of the replication sample.
#[test]
fn n2_latency_cdf_matches_empirical_distribution() {
    let params = SanParams::exponential_baseline(2);
    let model = build_model(&params);
    let pred = decided_predicate(&model, 2);
    let run =
        AnalyticRun::first_passage(&model, &ReachOptions::default(), pred).expect("markovian");
    let sim = latency_replications(&params, 4000, 77, 10_000.0);
    let n = sim.samples.len() as f64;
    let topts = TransientOptions::default();
    for t in [0.3, 0.6, 0.9, 1.5, 2.5] {
        let analytic = run.cdf(t, &topts).expect("transient");
        let empirical = sim.samples.iter().filter(|&&x| x <= t).count() as f64 / n;
        let band = 2.576 * (analytic * (1.0 - analytic) / n).sqrt() + 1e-9;
        assert!(
            (analytic - empirical).abs() <= band,
            "t={t}: analytic CDF {analytic} vs empirical {empirical} (band {band})"
        );
    }
}

/// The applicability gate: the paper's baseline (deterministic CPU
/// stages, bimodal network) must be *rejected* by the analytic path
/// when phase-type expansion is off, not silently mis-solved.
#[test]
fn paper_baseline_is_rejected_as_non_markovian() {
    let params = SanParams::paper_baseline(2);
    let model = build_model(&params);
    let pred = decided_predicate(&model, 2);
    let err = AnalyticRun::first_passage(&model, &ReachOptions::default(), pred).unwrap_err();
    assert!(
        matches!(err, SolveError::NonMarkovian { .. }),
        "expected NonMarkovian, got {err:?}"
    );
}

/// Raw phase-type first-passage mean of the paper's real class-1
/// parameters at the given expansion order.
fn ph_mean(params: &SanParams, order: u32, threads: usize) -> f64 {
    let model = build_model(params);
    let pred = decided_predicate(&model, params.n);
    let opts = SolveOptions::ph(order, threads);
    let run = AnalyticRun::first_passage_with(&model, &opts, pred)
        .expect("expanded paper model is Markovian");
    run.mean(&IterOptions::default())
        .expect("absorbing")
        .mean_ms
}

/// Phase-type convergence on the paper's *real* Fig. 7 unicast
/// parameters (bi-modal delays, deterministic stages): the raw PH mean
/// approaches the simulator as the order grows, and the standard
/// order-extrapolated answer at `--ph-order 4` lands inside the
/// simulator's own 90 % confidence interval — the same agreement bar
/// the exponential cross-validation uses.
#[test]
fn ph_expansion_converges_to_real_fig7_within_sim_ci() {
    let params = SanParams::paper_baseline(2);
    let sim = latency_replications(&params, 4000, 2002, 10_000.0);
    assert_eq!(sim.discarded, 0);
    let means: Vec<f64> = (1..=4).map(|k| ph_mean(&params, k, 0)).collect();
    let errs: Vec<f64> = means.iter().map(|m| (m - sim.mean()).abs()).collect();
    // Deterministic stages are matched in mean only; their Erlang-K
    // stand-ins' variance deficit shrinks as 1/K, and so must the
    // latency error.
    for w in errs.windows(2) {
        assert!(w[1] < w[0], "error must fall with the order: {errs:?}");
    }
    // Richardson extrapolation over the order removes the leading 1/K
    // term: the --ph-order 4 headline (orders 3 and 4) agrees with the
    // simulator within its own 90 % CI.
    let extrapolated = 4.0 * means[3] - 3.0 * means[2];
    assert!(
        (extrapolated - sim.mean()).abs() <= sim.ci90(),
        "extrapolated {extrapolated} vs sim {} ± {} (raw order-4 {})",
        sim.mean(),
        sim.ci90(),
        means[3]
    );
}

/// The expanded latency *distribution* converges too: the sup
/// deviation between the PH CDF and the empirical CDF shrinks with
/// the order, and at order 4 the body and tail are tight. (The hard
/// support minimum of the deterministic model — no run can finish
/// before the shortest all-deterministic path — is the one feature no
/// finite phase-type can reproduce, so the edge region converges
/// slowest; that is exactly the documented "prefer the simulator"
/// case for tail-of-support questions.)
#[test]
fn ph_expansion_cdf_tracks_empirical_distribution() {
    let params = SanParams::paper_baseline(2);
    let model = build_model(&params);
    let sim = latency_replications(&params, 4000, 77, 10_000.0);
    let n = sim.samples.len() as f64;
    let grid = [0.75, 0.85, 0.9, 0.95, 1.0, 1.1, 1.25, 1.5, 2.0];
    let topts = TransientOptions::default();
    let sup_dev = |order: u32| -> f64 {
        let pred = decided_predicate(&model, 2);
        let run = AnalyticRun::first_passage_with(&model, &SolveOptions::ph(order, 0), pred)
            .expect("markovian");
        grid.iter()
            .map(|&t| {
                let analytic = run.cdf(t, &topts).expect("transient");
                let empirical = sim.samples.iter().filter(|&&x| x <= t).count() as f64 / n;
                (analytic - empirical).abs()
            })
            .fold(0.0, f64::max)
    };
    let (d1, d2, d4) = (sup_dev(1), sup_dev(2), sup_dev(4));
    assert!(
        d2 < d1 && d4 < d2,
        "CDF deviation must fall: {d1} {d2} {d4}"
    );
    assert!(d4 < 0.2, "order-4 sup deviation {d4}");
    // Body and tail are tight at order 4.
    let pred = decided_predicate(&model, 2);
    let run =
        AnalyticRun::first_passage_with(&model, &SolveOptions::ph(4, 0), pred).expect("markovian");
    for t in [1.25, 1.5, 2.0] {
        let analytic = run.cdf(t, &topts).expect("transient");
        let empirical = sim.samples.iter().filter(|&&x| x <= t).count() as f64 / n;
        assert!(
            (analytic - empirical).abs() <= 0.05,
            "t={t}: ph-4 CDF {analytic} vs empirical {empirical}"
        );
    }
}

/// Exploration thread counts are transparent end to end: the full
/// analytic answer (mean and CDF points) is identical when solved with
/// 1 and 8 workers.
#[test]
fn threaded_solve_is_transparent() {
    let params = SanParams::paper_baseline(2);
    let a = ph_mean(&params, 3, 1);
    let b = ph_mean(&params, 3, 8);
    assert_eq!(a.to_bits(), b.to_bits(), "threads changed the answer");
}
