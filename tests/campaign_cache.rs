//! Properties of the scenario-campaign machinery: the rate-only
//! rebuild of a cached reachability graph must be **byte-identical** to
//! a fresh exploration at the new rates — across exploration thread
//! counts and with the transition arena spilled to disk under an
//! adversarial budget — and a warm-started Krylov solve must land on
//! the cold answer (≤ 1e-12 relative) in no more iterations.
//!
//! The rate axes mirror the campaign engine's contract: only
//! deterministic and exponential stage means vary (their phase-type
//! stand-ins — Erlang(K) with a single probability-1 branch, or the
//! exact exponential passthrough — keep the expansion shape bit-stable
//! under any mean), while a fixed bi-modal lane stays in the model so
//! the expansion is a genuine hyper-Erlang mix, not a toy.

use ct_consensus_repro::san::{Activity, Case, SanBuilder, SanModel};
use ct_consensus_repro::solve::{
    mean_time_to_absorption, IterOptions, ReachOptions, SolverBackend, SpillOptions, StateSpace,
};
use ct_consensus_repro::stoch::{Dist, PhBranch};
use proptest::prelude::*;

/// Parallel lanes racing to fill `done`: per lane a 3-stage chain whose
/// stage distributions cycle through Det / Exp with the lane's mean,
/// plus one fixed bi-modal lane. The variable means are the "rate
/// parameters" of the campaign analogy; the structure never depends on
/// them.
fn lane_model(means: &[f64]) -> SanModel {
    let mut b = SanBuilder::new("campaign_lanes");
    for (lane, &mean) in means.iter().enumerate() {
        let mut prev = b.place(format!("v{lane}_0"), 1);
        for st in 0..3 {
            let next = b.place(format!("v{lane}_{}", st + 1), 0);
            let dist = if (lane + st) % 2 == 0 {
                Dist::Det(mean * (1.0 + st as f64 * 0.25))
            } else {
                Dist::Exp {
                    mean: mean * (1.0 + st as f64 * 0.25),
                }
            };
            b.add_activity(
                Activity::timed(format!("tv{lane}_{st}"), dist)
                    .input(prev, 1)
                    .case(Case::with_prob(1.0).output(next, 1)),
            );
            prev = next;
        }
    }
    // The fixed bi-modal lane: identical at every grid point, so its
    // hyper-Erlang branch probabilities are bit-stable by construction.
    let f0 = b.place("f0", 1);
    let f1 = b.place("f1", 0);
    b.add_activity(
        Activity::timed("tfixed", Dist::bimodal(0.7, (0.4, 0.7), (1.0, 2.2)))
            .input(f0, 1)
            .case(Case::with_prob(1.0).output(f1, 1)),
    );
    b.build().expect("lane model is valid")
}

fn reach(threads: usize, spill: Option<SpillOptions>) -> ReachOptions {
    ReachOptions {
        ph_order: 2,
        threads,
        spill,
        ..ReachOptions::default()
    }
}

/// A budget small enough to force essentially every sealed transition
/// segment out to the spill file.
fn tiny_spill() -> Option<SpillOptions> {
    Some(SpillOptions::with_budget(1 << 12))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, .. ProptestConfig::default()
    })]

    /// The tentpole byte-identity property: explore at rates A, detach
    /// the graph, re-attach it to the rates-B model, rebuild rates —
    /// the transitions and the CSR generator must equal a fresh
    /// rates-B exploration bit for bit, for every thread count and
    /// with the arena spilled under a 4 KB budget.
    #[test]
    fn rate_rebuild_is_byte_identical_to_fresh_exploration(
        means_a in proptest::collection::vec(0.2f64..2.0, 2..4),
        scale in 0.25f64..4.0,
        thread_pick in 0usize..4,
        spill in 0usize..2,
    ) {
        let threads = [1usize, 2, 4, 8][thread_pick];
        let means_b: Vec<f64> = means_a.iter().map(|m| m * scale).collect();
        let model_a = lane_model(&means_a);
        let model_b = lane_model(&means_b);
        let spill = if spill == 0 { None } else { tiny_spill() };

        let (ss_a, ctmc_a) =
            StateSpace::explore_ctmc(&model_a, &reach(threads, spill.clone())).expect("explore A");
        let parts = ss_a.into_parts();

        let mut ss = StateSpace::from_parts(&model_b, parts).expect("same structure");
        ss.rebuild_rates().expect("rate-only rebuild");
        let mut ctmc = ctmc_a;
        ctmc.rebuild_values(&ss).expect("CSR value rewrite");

        // The reference: a fresh rates-B exploration (itself
        // thread/spill-invariant by the explore_streaming properties).
        let (fresh_ss, fresh_ctmc) =
            StateSpace::explore_ctmc(&model_b, &reach(1, None)).expect("explore B");

        prop_assert_eq!(ss.len(), fresh_ss.len());
        prop_assert_eq!(ss.num_transitions(), fresh_ss.num_transitions());
        for i in 0..ss.len() {
            let (got, want) = (ss.outgoing(i), fresh_ss.outgoing(i));
            prop_assert_eq!(got.len(), want.len(), "row {} arity", i);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert_eq!(g.target, w.target);
                prop_assert_eq!(g.activity, w.activity);
                prop_assert_eq!(g.rate.to_bits(), w.rate.to_bits(), "row {} rate bits", i);
                prop_assert_eq!(g.prob.to_bits(), w.prob.to_bits(), "row {} prob bits", i);
            }
        }
        // `csr_owned` materialises paged entries: under the tiny budget
        // the CSR itself now lives (partly) on disk.
        let (rp_a, col_a, rate_a, diag_a) = ctmc.csr_owned();
        let (rp_b, col_b, rate_b, diag_b) = fresh_ctmc.csr_owned();
        prop_assert_eq!(rp_a, rp_b);
        prop_assert_eq!(col_a, col_b);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&rate_a), bits(&rate_b));
        prop_assert_eq!(bits(&diag_a), bits(&diag_b));
    }

    /// Warm-started Krylov on the neighbouring grid point: seeding the
    /// solve with the previous point's first-passage vector must land
    /// on the cold answer to ≤ 1e-12 relative in no more iterations.
    #[test]
    fn warm_started_krylov_matches_cold_in_fewer_or_equal_iterations(
        means in proptest::collection::vec(0.3f64..1.5, 2..4),
        scale in 0.8f64..1.25,
    ) {
        let model_a = lane_model(&means);
        let means_b: Vec<f64> = means.iter().map(|m| m * scale).collect();
        let model_b = lane_model(&means_b);
        let opts = reach(2, None);
        let iter = IterOptions {
            backend: SolverBackend::Krylov,
            ..IterOptions::default()
        };

        // First-passage to "every lane done": absorb when all the
        // lane-final places hold a token.
        let absorb_a = {
            let finals: Vec<_> = (0..means.len())
                .map(|l| model_a.place(&format!("v{l}_3")).expect("final place"))
                .collect();
            move |m: &ct_consensus_repro::san::Marking| finals.iter().all(|&p| m.get(p) > 0)
        };
        let absorb_b = {
            let finals: Vec<_> = (0..means.len())
                .map(|l| model_b.place(&format!("v{l}_3")).expect("final place"))
                .collect();
            move |m: &ct_consensus_repro::san::Marking| finals.iter().all(|&p| m.get(p) > 0)
        };

        let (_ss_a, ctmc_a) =
            StateSpace::explore_absorbing_ctmc(&model_a, &opts, absorb_a).expect("explore A");
        let prev = mean_time_to_absorption(&ctmc_a, &iter).expect("solve A");

        let (_ss_b, ctmc_b) =
            StateSpace::explore_absorbing_ctmc(&model_b, &opts, absorb_b).expect("explore B");
        let cold = mean_time_to_absorption(&ctmc_b, &iter).expect("cold solve B");
        let warm_iter = IterOptions {
            warm_start: Some(prev.per_state.clone()),
            ..iter.clone()
        };
        let warm = mean_time_to_absorption(&ctmc_b, &warm_iter).expect("warm solve B");

        let rel = (warm.mean - cold.mean).abs() / cold.mean.abs().max(1e-300);
        prop_assert!(rel <= 1e-12, "warm {} vs cold {} (rel {:.3e})", warm.mean, cold.mean, rel);
        prop_assert!(
            warm.iterations <= cold.iterations,
            "warm took {} iterations, cold {}",
            warm.iterations,
            cold.iterations
        );

        // The degenerate-exact seed: warm-starting with the solution
        // itself converges immediately (one residual check).
        let exact_iter = IterOptions {
            warm_start: Some(cold.per_state.clone()),
            ..iter.clone()
        };
        let exact = mean_time_to_absorption(&ctmc_b, &exact_iter).expect("exact-seed solve");
        prop_assert_eq!(exact.iterations, 1, "exact seed must converge in one iteration");
        prop_assert!((exact.mean - cold.mean).abs() <= 1e-12 * cold.mean.abs());
    }
}

/// Parallel three-stage lanes like [`lane_model`]'s, the stage
/// distribution chosen by `dist(lane, stage, mean)`.
fn lanes(means: &[f64], dist: impl Fn(usize, usize, f64) -> Dist) -> SanModel {
    let mut b = SanBuilder::new("lanes");
    for (lane, &mean) in means.iter().enumerate() {
        let mut prev = b.place(format!("v{lane}_0"), 1);
        for st in 0..3 {
            let next = b.place(format!("v{lane}_{}", st + 1), 0);
            b.add_activity(
                Activity::timed(
                    format!("tv{lane}_{st}"),
                    dist(lane, st, mean * (1.0 + st as f64 * 0.25)),
                )
                .input(prev, 1)
                .case(Case::with_prob(1.0).output(next, 1)),
            );
            prev = next;
        }
    }
    b.build().expect("lane model is valid")
}

/// Det / Exp / hyper-Erlang stages. The hyper-Erlang's two branches
/// run at *different* rates (a phase type passes through the fit at
/// any order, probabilities bit-stable), so its five phases do not
/// share one stage rate the way every two-moment fit of
/// [`lane_model`] does: reading the wrong phase is a wrong rate.
fn phase_sensitive_model(means: &[f64]) -> SanModel {
    lanes(means, |lane, st, mean| match (lane + st) % 3 {
        0 => Dist::Det(mean),
        1 => Dist::Exp { mean },
        _ => Dist::HyperErlang {
            branches: vec![
                PhBranch {
                    prob: 0.3,
                    stages: 2,
                    rate: 1.0 / mean,
                },
                PhBranch {
                    prob: 0.7,
                    stages: 3,
                    rate: 6.0 / mean,
                },
            ],
        },
    })
}

/// Explores `model_a` under `opts`, re-attaches the graph to `model_b`,
/// rebuilds rates and CSR values, and holds both to the bits of a
/// fresh resident one-thread exploration of `model_b`.
fn assert_rebuild_matches_fresh(model_a: &SanModel, model_b: &SanModel, opts: &ReachOptions) {
    let (ss_a, mut ctmc) = StateSpace::explore_ctmc(model_a, opts).expect("explore A");
    let mut ss = StateSpace::from_parts(model_b, ss_a.into_parts()).expect("same structure");
    ss.rebuild_rates().expect("rate-only rebuild");
    ctmc.rebuild_values(&ss).expect("CSR value rewrite");
    let fresh_opts = ReachOptions {
        threads: 1,
        spill: None,
        ..opts.clone()
    };
    let (fresh_ss, fresh_ctmc) = StateSpace::explore_ctmc(model_b, &fresh_opts).expect("explore B");

    assert_eq!(ss.len(), fresh_ss.len());
    let row_bits = |ss: &StateSpace<'_>, i: usize| {
        ss.outgoing(i)
            .iter()
            .map(|t| (t.target, t.activity, t.rate.to_bits(), t.prob.to_bits()))
            .collect::<Vec<_>>()
    };
    for i in 0..ss.len() {
        assert_eq!(row_bits(&ss, i), row_bits(&fresh_ss, i), "row {i}");
    }
    let (rp_a, col_a, rate_a, diag_a) = ctmc.csr_owned();
    let (rp_b, col_b, rate_b, diag_b) = fresh_ctmc.csr_owned();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!((rp_a, col_a), (rp_b, col_b));
    assert_eq!(bits(&rate_a), bits(&rate_b));
    assert_eq!(bits(&diag_a), bits(&diag_b));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, .. ProptestConfig::default()
    })]

    /// The byte-identity property at every expansion order: the one
    /// phase field the rebuild reads per expanded transition selects
    /// the same stage rate a fresh exploration computes, whatever the
    /// slot widths (1, 2 or 3 stages per branch) and with the packed
    /// states resident or spilled.
    #[test]
    fn rate_rebuild_is_byte_identical_at_every_expansion_order(
        means_a in proptest::collection::vec(0.2f64..2.0, 2..4),
        scale in 0.25f64..4.0,
        ph_order in 1u32..4,
        spill in 0usize..2,
    ) {
        let means_b: Vec<f64> = means_a.iter().map(|m| m * scale).collect();
        let spill = if spill == 0 { None } else { tiny_spill() };
        let opts = ReachOptions { ph_order, ..reach(2, spill) };
        assert_rebuild_matches_fresh(
            &phase_sensitive_model(&means_a),
            &phase_sensitive_model(&means_b),
            &opts,
        );
    }
}

/// The path the campaign benchmark runs: order 0, exponential-only, no
/// phase counter anywhere — so no packed key is fetched — with the
/// transition arena and the packed states spilled under a 4 KB budget.
#[test]
fn order_zero_rate_rebuild_under_spill_is_byte_identical() {
    let means = [0.4, 0.9, 1.4, 0.6];
    let scaled: Vec<f64> = means.iter().map(|m| m * 1.7).collect();
    let opts = ReachOptions {
        ph_order: 0,
        ..reach(2, tiny_spill())
    };
    let exp = |_, _, mean| Dist::Exp { mean };
    assert_rebuild_matches_fresh(&lanes(&means, exp), &lanes(&scaled, exp), &opts);
}

/// The spill-safety regression (campaign bugfix): a graph explored
/// under an adversarial spill budget, detached, re-attached, and
/// rate-rebuilt must serve *zig-zag* row access — the pattern that
/// thrashes the arena's 2-slot segment LRU and forces repeated
/// rehydration of paged-out segments — with rows identical to a fresh
/// exploration, twice over. A stale `RowRef` (a segment served from a
/// pre-rebuild cache entry, or a spill offset pointing at the old
/// bytes) shows up here as a rate-bit mismatch.
#[test]
fn zigzag_access_on_cached_then_spilled_graph_is_fresh() {
    let means = [0.4, 0.9, 1.4];
    let scaled: Vec<f64> = means.iter().map(|m| m * 2.5).collect();
    let model_a = lane_model(&means);
    let model_b = lane_model(&scaled);

    let (ss_a, _ctmc) =
        StateSpace::explore_ctmc(&model_a, &reach(4, tiny_spill())).expect("explore A");
    let parts = ss_a.into_parts();
    let mut ss = StateSpace::from_parts(&model_b, parts).expect("same structure");
    ss.rebuild_rates().expect("rate-only rebuild under spill");

    let (fresh, _fresh_ctmc) =
        StateSpace::explore_ctmc(&model_b, &reach(1, None)).expect("explore B");
    assert_eq!(ss.len(), fresh.len());
    let n = ss.len();

    // Zig-zag: alternate ends walking inward, then replay — every row
    // is touched twice with maximal cache churn in between.
    let mut order = Vec::with_capacity(2 * n);
    for k in 0..n {
        order.push(if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 });
    }
    let replay = order.clone();
    order.extend(replay);

    for &i in &order {
        let (got, want) = (ss.outgoing(i), fresh.outgoing(i));
        assert_eq!(got.len(), want.len(), "row {i} arity");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.target, w.target, "row {i} destination");
            assert_eq!(
                g.rate.to_bits(),
                w.rate.to_bits(),
                "row {i}: stale rate served from a spilled segment"
            );
        }
    }
}
