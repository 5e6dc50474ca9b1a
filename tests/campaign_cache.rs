//! Properties of the scenario-campaign machinery: the rate-only
//! rebuild of a cached reachability graph must be **byte-identical** to
//! a fresh exploration at the new rates — across exploration thread
//! counts and with the transition arena spilled to disk under an
//! adversarial budget — and the grid-file parser must turn any text
//! into points it can sort or a typed error.
//!
//! The rate axes mirror the campaign engine's contract: only
//! deterministic and exponential stage means vary (their phase-type
//! stand-ins — Erlang(K) with a single probability-1 branch, or the
//! exact exponential passthrough — keep the expansion shape bit-stable
//! under any mean), while a fixed bi-modal lane stays in the model so
//! the expansion is a genuine hyper-Erlang mix, not a toy.

use ct_consensus_repro::experiments::campaign::parse_grid;
use ct_consensus_repro::san::{Activity, Case, SanBuilder, SanModel};
use ct_consensus_repro::solve::{ReachOptions, SpillOptions, StateSpace};
use ct_consensus_repro::stoch::{Dist, PhBranch};
use proptest::prelude::*;

/// Parallel three-stage lanes, the stage distribution chosen by
/// `dist(lane, stage, mean)`. The lane means are the "rate parameters"
/// of the campaign analogy; the structure never depends on them.
fn lanes(means: &[f64], dist: impl Fn(usize, usize, f64) -> Dist) -> SanBuilder {
    let mut b = SanBuilder::new("campaign_lanes");
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
    b
}

/// Adds the fixed bi-modal lane: identical at every grid point, so its
/// hyper-Erlang branch probabilities are bit-stable by construction.
fn with_fixed_lane(mut b: SanBuilder) -> SanModel {
    let f0 = b.place("f0", 1);
    let f1 = b.place("f1", 0);
    b.add_activity(
        Activity::timed("tfixed", Dist::bimodal(0.7, (0.4, 0.7), (1.0, 2.2)))
            .input(f0, 1)
            .case(Case::with_prob(1.0).output(f1, 1)),
    );
    b.build().expect("lane model is valid")
}

/// Lanes whose stages cycle through Det / Exp, plus the fixed lane.
fn lane_model(means: &[f64]) -> SanModel {
    with_fixed_lane(lanes(means, |lane, st, mean| {
        if (lane + st) % 2 == 0 {
            Dist::Det(mean)
        } else {
            Dist::Exp { mean }
        }
    }))
}

/// Det / Exp / hyper-Erlang stages, plus the fixed lane. The
/// hyper-Erlang's two branches run at *different* rates (a phase type
/// passes through the fit at any order, probabilities bit-stable), so
/// its five phases do not share one stage rate the way every
/// two-moment fit of [`lane_model`] does: reading the wrong phase is a
/// wrong rate.
fn phase_sensitive_model(means: &[f64]) -> SanModel {
    with_fixed_lane(lanes(means, |lane, st, mean| match (lane + st) % 3 {
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
    }))
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

    /// The tentpole byte-identity property: explore at rates A, detach
    /// the graph, re-attach it to the rates-B model, rebuild rates —
    /// the transitions and the CSR generator must equal a fresh
    /// rates-B exploration bit for bit, for every thread count, at
    /// every expansion order (the one phase field the rebuild reads
    /// per expanded transition selects the stage rate, whatever the
    /// slot widths) and with the arena and the packed states spilled
    /// under a 4 KB budget.
    #[test]
    fn rate_rebuild_is_byte_identical_to_fresh_exploration(
        means_a in proptest::collection::vec(0.2f64..2.0, 2..4),
        scale in 0.25f64..4.0,
        thread_pick in 0usize..4,
        spill in 0usize..2,
        ph_order in 1u32..4,
    ) {
        let threads = [1usize, 2, 4, 8][thread_pick];
        let means_b: Vec<f64> = means_a.iter().map(|m| m * scale).collect();
        let spill = if spill == 0 { None } else { tiny_spill() };
        let opts = ReachOptions { ph_order, ..reach(threads, spill) };
        assert_rebuild_matches_fresh(
            &phase_sensitive_model(&means_a),
            &phase_sensitive_model(&means_b),
            &opts,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2000, .. ProptestConfig::default()
    })]

    /// Grid files are user input: whatever the lines hold, `parse_grid`
    /// returns a typed error or points whose scales are finite and > 0
    /// — it never panics and never admits a scale the campaign cannot
    /// order. The text is one well-formed line around two scale tokens,
    /// then token soup.
    #[test]
    fn parse_grid_never_panics_and_admits_only_positive_finite_scales(
        service in 0usize..1000,
        net in 0usize..1000,
        soup in proptest::collection::vec(0usize..1000, 0..12),
    ) {
        const SCALES: &str = "1.0|0.5|2| 1.5 |nan|NaN|inf|-infinity|0|-0.0|-1|1e400|1e-400||x|1,1";
        const SOUP: &str = "3,0,jacobi,1.0,|1.0|nan|,|\n|\n|#|n,|-|0|x|\u{e9}| |.";
        let pick = |tokens: &'static str, i: usize| {
            let tokens: Vec<&str> = tokens.split('|').collect();
            tokens[i % tokens.len()]
        };
        let mut text = format!("2,1,krylov,{},{}\n", pick(SCALES, service), pick(SCALES, net));
        text.extend(soup.iter().map(|&i| pick(SOUP, i)));
        if let Ok(specs) = parse_grid(&text) {
            prop_assert!(!specs.is_empty());
            for s in &specs {
                for v in [s.service_scale, s.net_scale] {
                    prop_assert!(v.is_finite() && v > 0.0, "admitted scale {v} from {text:?}");
                }
            }
        }
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
    let build = |means: &[f64]| lanes(means, exp).build().expect("lane model is valid");
    assert_rebuild_matches_fresh(&build(&means), &build(&scaled), &opts);
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
