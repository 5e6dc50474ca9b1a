//! Property-based tests of the analytic SAN solver on randomly
//! generated Markovian models: structural invariants that must hold
//! regardless of topology, rates, or evaluation times.

use ct_consensus_repro::san::{Activity, Case, Marking, SanBuilder, SanModel};
use ct_consensus_repro::solve::transient::poisson_weights;
use ct_consensus_repro::solve::{
    transient, AnalyticRun, Ctmc, ReachOptions, StateSpace, TransientOptions,
};
use ct_consensus_repro::stoch::{Dist, PhaseType};
use proptest::prelude::*;

/// A birth–death chain over `means.len() + 1` levels: one token walks
/// up with the forward means and down with the backward means. Always
/// irreducible, and level `k` is BFS level `k`, so state `k` of the
/// canonical numbering is level `k`.
fn birth_death(means: &[(f64, f64)]) -> SanModel {
    let mut b = SanBuilder::new("bd");
    let levels: Vec<_> = (0..=means.len())
        .map(|i| b.place(format!("l{i}"), u32::from(i == 0)))
        .collect();
    for (i, &(fwd, bwd)) in means.iter().enumerate() {
        b.add_activity(
            Activity::timed(format!("up{i}"), Dist::Exp { mean: fwd })
                .input(levels[i], 1)
                .case(Case::with_prob(1.0).output(levels[i + 1], 1)),
        );
        b.add_activity(
            Activity::timed(format!("down{i}"), Dist::Exp { mean: bwd })
                .input(levels[i + 1], 1)
                .case(Case::with_prob(1.0).output(levels[i], 1)),
        );
    }
    b.build().expect("birth-death chain is valid")
}

fn solve_chain(means: &[(f64, f64)]) -> (usize, Ctmc) {
    let model = birth_death(means);
    let ss = StateSpace::explore(&model, &ReachOptions::default()).expect("explore");
    let ctmc = Ctmc::from_state_space(&ss).expect("all-exponential");
    (ss.len(), ctmc)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32, .. ProptestConfig::default()
    })]

    /// Uniformization preserves probability mass: π(t) sums to 1
    /// within 1e-9 for any rates and any horizon.
    #[test]
    fn transient_vectors_sum_to_one(
        means in proptest::collection::vec((0.05f64..5.0, 0.05f64..5.0), 1..5),
        t in 0.0f64..50.0,
    ) {
        let (n, ctmc) = solve_chain(&means);
        let sol = transient(&ctmc, t, &TransientOptions::default()).expect("transient");
        prop_assert_eq!(sol.probs.len(), n);
        let total: f64 = sol.probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass {total} at t={t}");
        for (s, &p) in sol.probs.iter().enumerate() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p), "π[{s}] = {p}");
        }
    }

    /// A two-state birth–death chain matches its closed-form transient
    /// solution p₀(t) = μ/(λ+μ) + λ/(λ+μ)·e^{-(λ+μ)t}.
    #[test]
    fn two_state_matches_closed_form(
        up_mean in 0.1f64..10.0,
        down_mean in 0.1f64..10.0,
        t in 0.0f64..20.0,
    ) {
        let (_, ctmc) = solve_chain(&[(up_mean, down_mean)]);
        let sol = transient(&ctmc, t, &TransientOptions::default()).expect("transient");
        let (lam, mu) = (1.0 / up_mean, 1.0 / down_mean);
        let expect = mu / (lam + mu) + lam / (lam + mu) * (-(lam + mu) * t).exp();
        prop_assert!(
            (sol.probs[0] - expect).abs() < 1e-9,
            "p0(t={t}) = {} vs closed form {expect}",
            sol.probs[0]
        );
    }

    /// Transient solutions converge to the birth–death product form
    /// `π_{k+1}/π_k = λ_k/μ_{k+1}` (normalised) as t grows.
    #[test]
    fn transient_converges_to_product_form(
        means in proptest::collection::vec((0.2f64..2.0, 0.2f64..2.0), 1..4),
    ) {
        let (n, ctmc) = solve_chain(&means);
        // Slowest relaxation is bounded by the largest mean; 500 ms of
        // sub-5ms stages is deep in the stationary regime.
        let sol = transient(&ctmc, 500.0, &TransientOptions::default()).expect("transient");
        // λ_k = 1/fwd_k and μ_{k+1} = 1/bwd_k, so π_{k+1}/π_k = bwd_k/fwd_k.
        let mut pi = vec![1.0];
        for &(fwd, bwd) in &means {
            pi.push(pi[pi.len() - 1] * bwd / fwd);
        }
        let total: f64 = pi.iter().sum();
        prop_assert_eq!(pi.len(), n);
        for (s, (&p, &w)) in sol.probs.iter().zip(&pi).enumerate() {
            let expect = w / total;
            prop_assert!(
                (p - expect).abs() < 1e-6,
                "state {s}: transient {p} vs product form {expect}"
            );
        }
    }
}

/// A random fittable target distribution: positive mean, and its
/// squared coefficient of variation bounded away from the regimes a
/// small-order fit cannot match (the test picks the order from cv²).
fn arb_fittable() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.05f64..5.0).prop_map(|m| Dist::Exp { mean: m }),
        (1u32..8, 0.05f64..5.0).prop_map(|(k, m)| Dist::Erlang { k, mean: m }),
        (0.05f64..2.0, 0.05f64..3.0).prop_map(|(lo, w)| Dist::Uniform { lo, hi: lo + w }),
        // Weibull spans both cv² < 1 (shape > 1) and cv² > 1 (shape < 1).
        (0.6f64..3.0, 0.1f64..2.0).prop_map(|(shape, scale)| Dist::Weibull { shape, scale }),
        (
            0.1f64..0.9,
            0.05f64..1.0,
            0.01f64..0.5,
            0.05f64..1.0,
            0.01f64..0.8
        )
            .prop_map(|(p1, lo1, w1, gap, w2)| {
                let hi1 = lo1 + w1;
                Dist::bimodal(p1, (lo1, hi1), (hi1 + gap, hi1 + gap + w2))
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96, .. ProptestConfig::default()
    })]

    /// `PhaseType::fit` matches the target's first two moments within
    /// 1e-9 whenever the order is large enough (`⌈1/cv²⌉` stages), for
    /// every fittable `Dist` variant.
    #[test]
    fn phase_fit_matches_first_two_moments(dist in arb_fittable()) {
        let cv2 = dist.scv();
        // The mixed-Erlang rule needs k = ⌈1/cv²⌉ stages; cap the test
        // at 64 to keep degenerate near-deterministic draws bounded.
        let needed = if cv2 >= 1.0 { 2.0 } else { (1.0 / cv2).ceil() };
        if !(needed.is_finite() && needed <= 64.0) {
            return Ok(()); // cv² ≈ 0: only mean-matchable, skip
        }
        let ph = PhaseType::fit(&dist, needed as u32);
        prop_assert!(
            (ph.mean() - dist.mean()).abs() < 1e-9,
            "mean {} vs {} for {dist:?}",
            ph.mean(),
            dist.mean()
        );
        prop_assert!(
            (ph.variance() - dist.variance()).abs() < 1e-9,
            "variance {} vs {} for {dist:?} (cv² {cv2})",
            ph.variance(),
            dist.variance()
        );
        // Branch probabilities form a distribution.
        let total: f64 = ph.branches().iter().map(|b| b.prob).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "branch mass {total}");
    }

    /// Whatever the order budget, the fitted mean is always exact —
    /// even when the variance cannot be matched.
    #[test]
    fn phase_fit_mean_is_always_exact(dist in arb_fittable(), order in 1u32..8) {
        let ph = PhaseType::fit(&dist, order);
        prop_assert!(
            (ph.mean() - dist.mean()).abs() < 1e-9,
            "mean {} vs {} at order {order} for {dist:?}",
            ph.mean(),
            dist.mean()
        );
    }
}

/// A randomized mix of deterministic, bimodal, and exponential lanes
/// whose expanded exploration is large enough to exercise the parallel
/// fan-out.
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, .. ProptestConfig::default()
    })]

    /// The concurrent intern is a pure wall-clock knob: exploration at
    /// 1, 4, and 16 threads (plus 2 and 8 for odd shard splits) yields
    /// the identical canonical state numbering and a bit-identical CSR
    /// generator, for random models and expansion orders.
    #[test]
    fn parallel_exploration_matches_sequential(
        lanes in proptest::collection::vec((0.2f64..2.0, 0u32..3), 2..4),
        ph_order in 1u32..4,
    ) {
        let model = lane_model(&lanes);
        let explore = |threads: usize| {
            let opts = ReachOptions {
                ph_order,
                threads,
                ..ReachOptions::default()
            };
            let ss = StateSpace::explore(&model, &opts).expect("explore");
            let ctmc = Ctmc::from_state_space(&ss).expect("expanded model is Markovian");
            (ss, ctmc)
        };
        let (ss1, q1) = explore(1);
        for threads in [2usize, 4, 8, 16] {
            let (ssn, qn) = explore(threads);
            prop_assert_eq!(
                ss1.packed_words(),
                ssn.packed_words(),
                "states at {} threads",
                threads
            );
            prop_assert_eq!(&ss1.initial, &ssn.initial);
            prop_assert_eq!(ss1.len(), ssn.len());
            for s in 0..ss1.len() {
                let (a, b) = (ss1.outgoing(s), ssn.outgoing(s));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(x.target, y.target);
                    prop_assert_eq!(x.prob.to_bits(), y.prob.to_bits());
                    prop_assert_eq!(x.rate.to_bits(), y.rate.to_bits());
                    prop_assert_eq!(x.completes, y.completes);
                }
            }
            // The CSR generator is byte-identical.
            let (rp1, c1, r1, d1) = q1.csr_owned();
            let (rpn, cn, rn, dn) = qn.csr_owned();
            prop_assert_eq!(rp1, rpn);
            prop_assert_eq!(c1, cn);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&r1), bits(&rn));
            prop_assert_eq!(bits(&d1), bits(&dn));
        }
    }
}

/// A random first-passage net with a `cyclic` switch. `tokens` tokens
/// leave `a` one at a time (`fwd`), either to `z` (probability `split`)
/// or straight to `done`; tokens in `z` finish (`fin`) or, on a cyclic
/// net, go back to `a` (`bwd`). `(tokens + 1)(tokens + 2) / 2` states,
/// so a large draw clears the sharded product's inline threshold.
/// `hops` adds an independent single-token detour whose steps
/// interleave with the token moves, so successor ids jump around the
/// canonical numbering; on a cyclic net, even draws can send the
/// detour back to its start.
fn token_net(
    tokens: u32,
    means: (f64, f64, f64),
    split: f64,
    cyclic: bool,
    hops: &[u32],
) -> SanModel {
    let mut b = SanBuilder::new("tokens");
    let a = b.place("a", tokens);
    let z = b.place("z", 0);
    let done = b.place("done", 0);
    b.add_activity(
        Activity::timed("fwd", Dist::Exp { mean: means.0 })
            .input(a, 1)
            .case(Case::with_prob(split).output(z, 1))
            .case(Case::with_prob(1.0 - split).output(done, 1)),
    );
    b.add_activity(
        Activity::timed("fin", Dist::Exp { mean: means.1 })
            .input(z, 1)
            .case(Case::with_prob(1.0).output(done, 1)),
    );
    if cyclic {
        b.add_activity(
            Activity::timed("bwd", Dist::Exp { mean: means.2 })
                .input(z, 1)
                .case(Case::with_prob(1.0).output(a, 1)),
        );
    }
    let start = b.place("h0", 1);
    let mut at = start;
    for (i, &h) in hops.iter().enumerate() {
        let next = b.place(format!("h{}", i + 1), 0);
        let mean = 0.2 + f64::from(h) * 0.1;
        let hop = Activity::timed(format!("hop{i}"), Dist::Exp { mean }).input(at, 1);
        b.add_activity(if cyclic && h % 2 == 0 {
            hop.case(Case::with_prob(0.8).output(next, 1))
                .case(Case::with_prob(0.2).output(start, 1))
        } else {
            hop.case(Case::with_prob(1.0).output(next, 1))
        });
        at = next;
    }
    b.build().expect("token net is valid")
}

/// The full-width uniformization loop: every product over all states,
/// every accumulation over all states, one thread. The reference the
/// prefix-limited loop must reproduce bit for bit.
fn full_width_transient(op: &Ctmc, t: f64) -> Vec<f64> {
    let n = op.num_states();
    let lambda = op.max_exit_rate();
    let weights = poisson_weights(lambda * t, &TransientOptions::default()).expect("weights");
    let mut v = op.initial().to_vec();
    let mut qv = vec![0.0; n];
    let mut out = vec![0.0; n];
    let last = weights.len() - 1;
    for (k, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            for (o, &x) in out.iter_mut().zip(&v) {
                *o += w * x;
            }
        }
        if k < last {
            op.apply_transposed(&v, &mut qv, 1);
            for (x, &q) in v.iter_mut().zip(&qv) {
                *x += q / lambda;
            }
        }
    }
    out
}

/// The first index where two vectors differ in any bit (or in length).
fn first_bit_difference(a: &[f64], b: &[f64]) -> Option<usize> {
    (0..a.len().max(b.len()))
        .find(|&i| a.get(i).map(|x| x.to_bits()) != b.get(i).map(|x| x.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, .. ProptestConfig::default()
    })]

    /// Prefix-limited uniformization changes no bit: on random acyclic
    /// and cyclic nets, at 1, 2 and 3 SpMV threads, `transient().probs`
    /// equals the full-width loop's, and every point of a `cdf_grid` —
    /// unsorted, with a duplicate and `0.0` — equals the one-point
    /// `cdf` and the goal mass of the full-width vector.
    #[test]
    fn prefix_limited_uniformization_is_bit_identical(
        tokens in 1u32..150,
        means in (0.2f64..3.0, 0.2f64..3.0, 0.2f64..3.0),
        split in 0.1f64..0.9,
        cyclic in 0u32..2,
        hops in proptest::collection::vec(0u32..6, 0..5),
        goal_at in 0.0f64..1.0,
        times in proptest::collection::vec(0.0f64..6.0, 1..4),
    ) {
        let model = token_net(tokens, means, split, cyclic == 1, &hops);
        let done = model.place("done").expect("place");
        let goal_tokens = 1 + (goal_at * f64::from(tokens)) as u32;
        // Unsorted, a duplicate, and t = 0.
        let mut grid = times.clone();
        grid.push(times[0]);
        grid.push(0.0);
        let reach = ReachOptions { max_states: 1 << 16, ..ReachOptions::default() };
        let goal = move |m: &Marking| m.get(done) >= goal_tokens;
        let run = AnalyticRun::first_passage(&model, &reach, goal).expect("explore");
        let goals: Vec<usize> =
            (0..run.space().len()).filter(|&s| run.space().absorbing[s]).collect();
        for threads in [1usize, 2, 3] {
            let opts = TransientOptions { threads, ..TransientOptions::default() };
            let cdfs = run.cdf_grid(&grid, &opts).expect("cdf_grid");
            prop_assert_eq!(cdfs.len(), grid.len());
            for (&t, &c) in grid.iter().zip(&cdfs) {
                let reference = full_width_transient(run.generator(), t);
                let sol = transient(run.generator(), t, &opts).expect("transient");
                let diff = first_bit_difference(&sol.probs, &reference);
                prop_assert!(diff.is_none(), "{} threads, t = {}: state {:?} differs", threads, t, diff);
                let one = run.cdf(t, &opts).expect("cdf");
                prop_assert_eq!(c.to_bits(), one.to_bits(), "grid vs cdf at t = {}", t);
                prop_assert_eq!(c.to_bits(), goal_mass(&reference, &goals).to_bits(), "grid vs full width at t = {}", t);
            }
        }
    }
}

/// The probability mass a transient vector holds on the goal states.
fn goal_mass(probs: &[f64], goals: &[usize]) -> f64 {
    goals.iter().map(|&s| probs[s]).sum()
}

/// `1 − Σ_{i<k} e^{−λt} (λt)^i / i!`: the Erlang-k CDF.
fn erlang_cdf(k: u32, rate: f64, t: f64) -> f64 {
    let x = rate * t;
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..k {
        term *= x / f64::from(i);
        sum += term;
    }
    1.0 - (-x).exp() * sum
}

/// The hypoexponential CDF with distinct rates:
/// `1 − Σ_i e^{−λ_i t} Π_{j≠i} λ_j / (λ_j − λ_i)`.
fn hypoexponential_cdf(rates: &[f64], t: f64) -> f64 {
    let tail: f64 = rates
        .iter()
        .enumerate()
        .map(|(i, &ri)| {
            let coeff: f64 = rates
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &rj)| rj / (rj - ri))
                .product();
            coeff * (-ri * t).exp()
        })
        .sum();
    1.0 - tail
}

/// The time grid of the closed-form oracles: 0.1 to 5 times the mean.
fn oracle_grid(mean: f64) -> Vec<f64> {
    (0..=24)
        .map(|i| mean * 0.1 * 50f64.powf(f64::from(i) / 24.0))
        .collect()
}

/// A single token through `stages` in series, into `done`.
fn series(stages: &[Dist]) -> SanModel {
    let mut b = SanBuilder::new("series");
    let places: Vec<_> = (0..=stages.len())
        .map(|i| b.place(format!("s{i}"), u32::from(i == 0)))
        .collect();
    for (i, dist) in stages.iter().enumerate() {
        b.add_activity(
            Activity::timed(format!("t{i}"), dist.clone())
                .input(places[i], 1)
                .case(Case::with_prob(1.0).output(places[i + 1], 1)),
        );
    }
    b.build().expect("series net is valid")
}

fn series_cdf(stages: &[Dist], ph_order: u32, grid: &[f64]) -> Vec<f64> {
    let model = series(stages);
    let end = model.place(&format!("s{}", stages.len())).expect("place");
    let reach = ReachOptions {
        ph_order,
        ..ReachOptions::default()
    };
    AnalyticRun::first_passage(&model, &reach, move |m: &Marking| m.get(end) > 0)
        .expect("explore")
        .cdf_grid(grid, &TransientOptions::default())
        .expect("cdf_grid")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, .. ProptestConfig::default()
    })]

    /// Closed-form oracle: one Erlang-k activity, expanded into its k
    /// phases, goes through SAN → explore → `cdf_grid` and matches the
    /// Erlang CDF to 1e-9 from 0.1 to 5 times the mean.
    #[test]
    fn erlang_cdf_grid_matches_closed_form(k in 1u32..9, mean in 0.1f64..20.0) {
        let grid = oracle_grid(mean);
        let rate = f64::from(k) / mean;
        let got = series_cdf(&[Dist::Erlang { k, mean }], 1, &grid);
        for (&t, &f) in grid.iter().zip(&got) {
            let want = erlang_cdf(k, rate, t);
            prop_assert!((f - want).abs() <= 1e-9, "t = {}: {} vs {}", t, f, want);
        }
    }

    /// Closed-form oracle: exponential stages with distinct rates in
    /// series match the hypoexponential CDF to 1e-9 from 0.1 to 5 times
    /// the mean.
    #[test]
    fn hypoexponential_cdf_grid_matches_closed_form(
        base in 0.2f64..5.0,
        jitter in proptest::collection::vec(0.0f64..0.3, 2..5),
    ) {
        // Stage i has mean base·(i+1)·(1 + jitter): rates stay apart, so
        // the closed form's partial fractions stay well conditioned.
        let means: Vec<f64> = jitter
            .iter()
            .enumerate()
            .map(|(i, &j)| base * (i + 1) as f64 * (1.0 + j))
            .collect();
        let rates: Vec<f64> = means.iter().map(|m| 1.0 / m).collect();
        let stages: Vec<Dist> = means.iter().map(|&mean| Dist::Exp { mean }).collect();
        let grid = oracle_grid(means.iter().sum());
        let got = series_cdf(&stages, 0, &grid);
        for (&t, &f) in grid.iter().zip(&got) {
            let want = hypoexponential_cdf(&rates, t);
            prop_assert!((f - want).abs() <= 1e-9, "t = {}: {} vs {}", t, f, want);
        }
    }
}
