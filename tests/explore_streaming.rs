//! Determinism and equivalence properties of the streaming exploration
//! pipeline: the canonical state numbering and the structural CSR that
//! exploration emits (its one transition store) must be byte-identical
//! for every thread count and every spill setting, and the pipelined
//! `explore_ctmc` must produce exactly the generator a post-hoc
//! `Ctmc::from_state_space` builds.

use ct_consensus_repro::san::{Activity, Case, SanBuilder, SanModel};
use ct_consensus_repro::solve::{
    AnalyticRun, Ctmc, DedupMode, IterOptions, ReachOptions, SolveError, SolverBackend,
    SpillOptions, StateSpace,
};
use ct_consensus_repro::stoch::Dist;
use proptest::prelude::*;

/// A randomized mix of deterministic, bimodal, and exponential lanes —
/// big enough after expansion to cross the parallel threshold and span
/// several BFS levels.
fn lane_model(lanes: &[(f64, u32)]) -> SanModel {
    let mut b = SanBuilder::new("lanes");
    for (lane, &(mean, kind)) in lanes.iter().enumerate() {
        let mut prev = b.place(format!("l{lane}_0"), 1);
        for st in 0..4 {
            let next = b.place(format!("l{lane}_{}", st + 1), 0);
            let dist = match (st as u32 + kind) % 3 {
                0 => Dist::Det(mean),
                1 => Dist::bimodal(0.7, (0.5 * mean, 0.8 * mean), (mean, 2.0 * mean)),
                _ => Dist::Exp { mean },
            };
            b.add_activity(
                Activity::timed(format!("t{lane}_{st}"), dist)
                    .input(prev, 1)
                    .case(Case::with_prob(1.0).output(next, 1)),
            );
            prev = next;
        }
    }
    b.build().expect("lane model is valid")
}

/// A tiny budget that forces essentially every sealed segment out to
/// disk — the adversarial spill setting.
fn tiny_spill() -> SpillOptions {
    SpillOptions::with_budget(1 << 12)
}

fn explore_cfg(
    model: &SanModel,
    ph_order: u32,
    threads: usize,
    spill: Option<SpillOptions>,
) -> (StateSpace<'_>, Ctmc) {
    let opts = ReachOptions {
        ph_order,
        threads,
        spill,
        ..ReachOptions::default()
    };
    StateSpace::explore_ctmc(model, &opts).expect("explore")
}

fn assert_identical(a: &(StateSpace<'_>, Ctmc), b: &(StateSpace<'_>, Ctmc), what: &str) {
    let (ssa, qa) = a;
    let (ssb, qb) = b;
    assert_eq!(ssa.packed_words(), ssb.packed_words(), "{what}: states");
    assert_eq!(ssa.initial, ssb.initial, "{what}: initial");
    assert_eq!(ssa.absorbing, ssb.absorbing, "{what}: absorbing");
    assert_eq!(ssa.num_transitions(), ssb.num_transitions(), "{what}: nnz");
    for s in 0..ssa.len() {
        let (ra, rb) = (ssa.outgoing(s), ssb.outgoing(s));
        assert_eq!(ra.len(), rb.len(), "{what}: row {s} length");
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.activity, y.activity, "{what}: row {s}");
            assert_eq!(x.target, y.target, "{what}: row {s}");
            assert_eq!(x.completes, y.completes, "{what}: row {s}");
            assert_eq!(x.prob.to_bits(), y.prob.to_bits(), "{what}: row {s}");
            assert_eq!(x.rate.to_bits(), y.rate.to_bits(), "{what}: row {s}");
        }
    }
    // `csr_owned` materialises paged entries: under a tiny budget the
    // CSR itself lives (partly) on disk.
    let (rpa, ca, ra, da) = qa.csr_owned();
    let (rpb, cb, rb, db) = qb.csr_owned();
    assert_eq!(rpa, rpb, "{what}: row_ptr");
    assert_eq!(ca, cb, "{what}: col");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ra), bits(&rb), "{what}: rates");
    assert_eq!(bits(&da), bits(&db), "{what}: diag");
    assert_eq!(qa.initial(), qb.initial(), "{what}: π(0)");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, .. ProptestConfig::default()
    })]

    /// Canonical CSR is byte-identical across threads ∈ {1,2,4,8} ×
    /// spill ∈ {off, tiny-budget (auto-switches to external dedup),
    /// forced external dedup with a roomy budget} — the arena, the
    /// renumbering, the spill layer, and the external-memory BFS with
    /// delayed duplicate detection together never perturb a single bit.
    #[test]
    fn csr_is_byte_identical_across_threads_and_spill(
        lanes in proptest::collection::vec((0.2f64..2.0, 0u32..3), 2..4),
        ph_order in 1u32..4,
    ) {
        let model = lane_model(&lanes);
        let reference = explore_cfg(&model, ph_order, 1, None);
        let configs: [(&str, Option<SpillOptions>); 3] = [
            ("off", None),
            // Adversarial: pages essentially everything and trips the
            // Auto intern-footprint switch to external dedup.
            ("tiny", Some(tiny_spill())),
            // Forced DDD under a budget large enough that the CSR and
            // arena stay resident: isolates the external-memory BFS.
            (
                "external",
                Some(SpillOptions::with_budget(1 << 30).dedup(DedupMode::External)),
            ),
        ];
        for threads in [1usize, 2, 4, 8] {
            for (name, spill) in &configs {
                let got = explore_cfg(&model, ph_order, threads, spill.clone());
                assert_identical(
                    &reference,
                    &got,
                    &format!("threads={threads} spill={name}"),
                );
            }
        }
    }

    /// The pipelined `explore_ctmc` generator equals a post-hoc
    /// `Ctmc::from_state_space` on the same space, bit for bit.
    #[test]
    fn pipelined_ctmc_matches_post_hoc_build(
        lanes in proptest::collection::vec((0.2f64..2.0, 0u32..3), 2..3),
        ph_order in 1u32..3,
    ) {
        let model = lane_model(&lanes);
        let (ss, streamed) = explore_cfg(&model, ph_order, 2, None);
        let rebuilt = Ctmc::from_state_space(&ss).expect("Markovian after expansion");
        let (rpa, ca, ra, da) = streamed.csr_owned();
        let (rpb, cb, rb, db) = rebuilt.csr_owned();
        prop_assert_eq!(rpa, rpb);
        prop_assert_eq!(ca, cb);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&ra), bits(&rb));
        prop_assert_eq!(bits(&da), bits(&db));
    }
}

/// First-passage solve through the whole analytic stack under an
/// adversarial spill budget: the mean must equal the in-RAM run
/// exactly (byte-identical CSR ⇒ identical arithmetic). The solve runs
/// on the Krylov backend — the fully out-of-core path — because
/// Gauss–Seidel refuses a streamed generator (checked below).
#[test]
fn spilled_first_passage_mean_matches_in_ram() {
    let model = lane_model(&[(0.8, 0), (1.3, 1), (0.5, 2)]);
    let goal_places: Vec<_> = (0..3)
        .map(|lane| model.place(&format!("l{lane}_4")).unwrap())
        .collect();
    let krylov = IterOptions {
        backend: SolverBackend::Krylov,
        ..IterOptions::default()
    };
    let first_passage = |spill: Option<SpillOptions>| {
        let opts = ReachOptions {
            ph_order: 3,
            spill,
            ..ReachOptions::default()
        };
        let goals = goal_places.clone();
        AnalyticRun::first_passage(&model, &opts, move |m| goals.iter().all(|&g| m.get(g) > 0))
            .unwrap()
    };
    let in_ram = first_passage(None).mean(&krylov).unwrap();
    let run = first_passage(Some(tiny_spill()));
    // The in-place sweep backend must refuse the streamed generator
    // rather than thrash the pager...
    match run.mean(&IterOptions::default()) {
        Err(SolveError::ResidentOnly { backend }) => assert_eq!(backend, "gauss-seidel"),
        other => {
            panic!("expected ResidentOnly from Gauss–Seidel on a streamed generator, got {other:?}")
        }
    }
    // ...while the streaming backends (Krylov and Jacobi both consume
    // the generator through the sharded SpMV) reproduce the in-RAM
    // mean bit for bit.
    let spilled = run.mean(&krylov).unwrap();
    assert!(in_ram.states > 100, "model too small to exercise spill");
    assert_eq!(
        in_ram.mean_ms.to_bits(),
        spilled.mean_ms.to_bits(),
        "spill changed the solved mean: {} vs {}",
        in_ram.mean_ms,
        spilled.mean_ms
    );
    assert_eq!(in_ram.states, spilled.states);
    assert_eq!(in_ram.rates, spilled.rates);
    let jacobi = IterOptions {
        backend: SolverBackend::Jacobi,
        ..IterOptions::default()
    };
    let in_ram_j = first_passage(None).mean(&jacobi).unwrap();
    let spilled_j = run.mean(&jacobi).unwrap();
    assert_eq!(
        in_ram_j.mean_ms.to_bits(),
        spilled_j.mean_ms.to_bits(),
        "spill changed the Jacobi mean: {} vs {}",
        in_ram_j.mean_ms,
        spilled_j.mean_ms
    );
}

/// The spill layer serves rows correctly under random access, not just
/// the sequential sweep (regression guard for the row-guard LRU).
#[test]
fn spilled_rows_random_access_round_trip() {
    let model = lane_model(&[(1.0, 0), (0.7, 1)]);
    let opts = |spill| ReachOptions {
        ph_order: 3,
        spill,
        ..ReachOptions::default()
    };
    let plain = StateSpace::explore(&model, &opts(None)).unwrap();
    let spilled = StateSpace::explore(&model, &opts(Some(tiny_spill()))).unwrap();
    assert_eq!(plain.len(), spilled.len());
    // Zig-zag across the id space so consecutive reads hit far-apart
    // segments.
    let n = plain.len();
    for k in 0..n {
        let i = if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 };
        assert_eq!(plain.tokens(i), spilled.tokens(i), "state {i}");
        let (a, b) = (plain.outgoing(i), spilled.outgoing(i));
        assert_eq!(a.len(), b.len(), "row {i}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.rate.to_bits(), y.rate.to_bits());
        }
    }
}
