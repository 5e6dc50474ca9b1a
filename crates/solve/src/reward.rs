//! Layer 4: reward evaluation over solved distributions.
//!
//! The simulator accumulates rate rewards by integrating a marking
//! function along one trajectory ([`ctsim_san::Simulator::set_rate_reward`]).
//! The analytic path evaluates the *same closures* against a
//! probability vector instead: `E[f(M(t))] = Σ_s π_s(t) · f(marking_s)`.
//! [`AnalyticRun`] packages the common first-passage workflow ("time
//! until a predicate holds") into a `RunOutcome`-style result
//! comparable against [`ctsim_san::replicate`] statistics.

use ctsim_san::{Marking, SanModel};

use crate::absorption::{mean_time_to_absorption, IterOptions};
use crate::ctmc::Ctmc;
use crate::graph::{GraphParts, ReachOptions, StateSpace};
use crate::transient::{uniformize, TransientOptions};
use crate::{SolveError, SolveOptions};

/// Expected value of a rate reward (a function of the marking) under a
/// probability vector over the state space.
pub fn expected_rate_reward(
    space: &StateSpace<'_>,
    probs: &[f64],
    reward: impl Fn(&Marking) -> f64,
) -> f64 {
    assert_eq!(probs.len(), space.len());
    probs
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > 0.0)
        .map(|(s, &p)| p * reward(&space.marking(s)))
        .sum()
}

/// Probability that a marking predicate holds under a probability
/// vector (a {0,1}-valued rate reward).
pub fn probability(space: &StateSpace<'_>, probs: &[f64], pred: impl Fn(&Marking) -> bool) -> f64 {
    expected_rate_reward(space, probs, |m| f64::from(pred(m)))
}

/// A solved first-passage problem: the state space explored with the
/// goal predicate absorbing, plus its CSR generator.
///
/// This is the analytic replacement for the replication loop "run until
/// the predicate holds, record the time": the absorbed probability mass
/// at `t` is the latency CDF, and the mean absorption time is the mean
/// latency the paper tabulates.
pub struct AnalyticRun<'m> {
    space: StateSpace<'m>,
    ctmc: Ctmc,
}

impl std::fmt::Debug for AnalyticRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticRun")
            .field("states", &self.space.len())
            .field("rates", &self.ctmc.num_rates())
            .finish()
    }
}

/// Mean first-passage result in the shape of a replication summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticOutcome {
    /// Expected time until the predicate first holds (ms).
    pub mean_ms: f64,
    /// Number of tangible states explored.
    pub states: usize,
    /// Number of generator-matrix rates.
    pub rates: usize,
    /// Gauss–Seidel sweeps used for the mean.
    pub iterations: usize,
    /// The backend that produced the mean: always
    /// [`IterOptions::backend`]. Kept because the benchmark's
    /// `solve_n3_ph2` workload checks it; it goes once the benchmark
    /// stops reading it.
    pub solved_by: crate::SolverBackend,
}

impl<'m> AnalyticRun<'m> {
    /// Explores `model` with `goal` absorbing and builds the CTMC. The
    /// streaming pipeline assembles generator rows per BFS level while
    /// later levels are still being explored, so explore → generator
    /// is one overlapped pass, not two serial ones.
    ///
    /// # Errors
    /// Exploration errors ([`SolveError::StateSpaceTooLarge`],
    /// [`SolveError::VanishingLoop`]) or [`SolveError::NonMarkovian`]
    /// when a reachable timed activity is not exponential and
    /// [`ReachOptions::ph_order`] is 0 (no phase-type expansion).
    pub fn first_passage(
        model: &'m SanModel,
        opts: &ReachOptions,
        goal: impl Fn(&Marking) -> bool + Sync,
    ) -> Result<Self, SolveError> {
        let (space, ctmc) = StateSpace::explore_absorbing_ctmc(model, opts, goal)?;
        Ok(Self { space, ctmc })
    }

    /// [`AnalyticRun::first_passage`] with the top-level
    /// [`SolveOptions`] bundle — the entry point experiment code uses
    /// to dial phase-type order and exploration threads.
    pub fn first_passage_with(
        model: &'m SanModel,
        opts: &SolveOptions,
        goal: impl Fn(&Marking) -> bool + Sync,
    ) -> Result<Self, SolveError> {
        Self::first_passage(model, &opts.reach, goal)
    }

    /// The explored state space.
    pub fn space(&self) -> &StateSpace<'m> {
        &self.space
    }

    /// The CSR generator matrix the solves iterate on.
    pub fn generator(&self) -> &Ctmc {
        &self.ctmc
    }

    /// The CSR generator matrix — the same as [`AnalyticRun::generator`].
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// `P(T ≤ t)`: probability the predicate holds by time `t` (ms) —
    /// one point of the latency CDF the paper plots; the one-point case
    /// of [`AnalyticRun::cdf_grid`].
    ///
    /// # Errors
    /// As [`AnalyticRun::cdf_grid`].
    pub fn cdf(&self, t_ms: f64, opts: &TransientOptions) -> Result<f64, SolveError> {
        Ok(self.cdf_grid(&[t_ms], opts)?[0])
    }

    /// `P(T ≤ t)` at every time of `times` (ms, any order, duplicates
    /// allowed), from one uniformization pass as long as the largest
    /// time's: the vectors `π(0)Pᵏ` are shared, and each point keeps
    /// only its sums over the goal states. Every value is `to_bits`-equal
    /// to what a separate full-width solve at that time gives.
    ///
    /// # Errors
    /// [`SolveError::InvalidTime`] for a negative, NaN or infinite time,
    /// [`SolveError::TruncationTooLong`] when a time needs more than
    /// `max_terms` Poisson terms.
    pub fn cdf_grid(&self, times: &[f64], opts: &TransientOptions) -> Result<Vec<f64>, SolveError> {
        let goals: Vec<usize> = (0..self.space.len())
            .filter(|&s| self.space.absorbing[s])
            .collect();
        // sums[p][g]: the absorbed mass of goal state goals[g] at times[p].
        let mut sums = vec![vec![0.0; goals.len()]; times.len()];
        uniformize(&self.ctmc, times, opts, |p, w, lo, v| {
            let from = goals.partition_point(|&s| s < lo);
            let to = from + goals[from..].partition_point(|&s| s < lo + v.len());
            for (acc, &s) in sums[p][from..to].iter_mut().zip(&goals[from..to]) {
                *acc += w * v[s - lo];
            }
        })?;
        Ok(sums.iter().map(|point| point.iter().sum()).collect())
    }

    /// The expected first-passage time from the initial marking, solved
    /// exactly from `Q_TT τ = -1` — no replications, no confidence
    /// interval.
    ///
    /// # Errors
    /// [`SolveError::GoalUnreachable`] if the model can deadlock in a
    /// state the predicate does not accept: the goal is then reached
    /// with probability < 1 and the mean is infinite (the [`cdf`]
    /// plateau shows the reachable mass).
    ///
    /// [`cdf`]: AnalyticRun::cdf
    pub fn mean(&self, opts: &IterOptions) -> Result<AnalyticOutcome, SolveError> {
        // Every state is reachable by construction, so a rate-absorbing
        // state outside the goal set traps probability mass forever.
        if let Some(state) =
            (0..self.space.len()).find(|&s| self.ctmc.is_absorbing(s) && !self.space.absorbing[s])
        {
            return Err(SolveError::GoalUnreachable { state });
        }
        let sol = mean_time_to_absorption(&self.ctmc, opts)?;
        Ok(AnalyticOutcome {
            mean_ms: sol.mean,
            states: self.space.len(),
            rates: self.ctmc.num_rates(),
            iterations: sol.iterations,
            solved_by: sol.solved_by,
        })
    }

    /// Cuts the run loose from its model so it can outlive the borrow:
    /// what a parameter sweep keeps between points whose models share
    /// structure. Nothing is copied.
    pub fn detach(self) -> DetachedRun {
        DetachedRun {
            parts: self.space.into_parts(),
            ctmc: self.ctmc,
        }
    }
}

/// An [`AnalyticRun`] without its model: the explored graph and the
/// generator assembled from it, kept in one value so a graph is only
/// ever rebuilt together with its own generator.
#[derive(Debug)]
pub struct DetachedRun {
    parts: GraphParts,
    ctmc: Ctmc,
}

impl DetachedRun {
    /// Re-attaches the run to `model` — the net it was explored from,
    /// possibly with other timing parameters — and rewrites the values
    /// in the one valid order: transition rates from the model
    /// ([`StateSpace::rebuild_rates`]), then generator values from
    /// those ([`Ctmc::rebuild_values`]). The result is bit-identical
    /// to exploring `model` afresh with the goal and options of the
    /// original run, at a fraction of the cost.
    ///
    /// # Errors
    /// [`SolveError::StructureMismatch`] when `model` has other net
    /// dimensions or its phase-type expansion takes another shape.
    pub fn attach(self, model: &SanModel) -> Result<AnalyticRun<'_>, SolveError> {
        let mut space = StateSpace::from_parts(model, self.parts)?;
        space.rebuild_rates()?;
        let mut ctmc = self.ctmc;
        ctmc.rebuild_values(&space)?;
        Ok(AnalyticRun { space, ctmc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::transient;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    /// The paper's two-state FD submodel solved analytically: started
    /// trusting, the suspicion probability at time `t` is
    /// `(T_M/T_MR)·(1 − e^{−t·T_MR/(T_M(T_MR−T_M))})`, which tends to the
    /// QoS ratio T_M / T_MR — the quantity the simulator's rate reward
    /// recovers by integration.
    #[test]
    fn fd_suspicion_rate_reward_matches_qos_ratio() {
        let (t_mr, t_m) = (40.0, 8.0);
        let mut b = SanBuilder::new("fd");
        let trust = b.place("trust", 1);
        let susp = b.place("susp", 0);
        b.add_activity(
            Activity::timed("ts", Dist::Exp { mean: t_mr - t_m })
                .input(trust, 1)
                .case(Case::with_prob(1.0).output(susp, 1)),
        );
        b.add_activity(
            Activity::timed("st", Dist::Exp { mean: t_m })
                .input(susp, 1)
                .case(Case::with_prob(1.0).output(trust, 1)),
        );
        let model = b.build().unwrap();
        let ss = StateSpace::explore(&model, &ReachOptions::default()).unwrap();
        let ctmc = Ctmc::from_state_space(&ss).unwrap();
        let relax = t_mr / (t_m * (t_mr - t_m));
        for t in [1.0, 10.0, 50.0, 500.0] {
            let pi = transient(&ctmc, t, &TransientOptions::default()).unwrap();
            let p_susp = expected_rate_reward(&ss, &pi.probs, |m| m.get(susp) as f64);
            let expect = t_m / t_mr * (1.0 - (-t * relax).exp());
            assert!(
                (p_susp - expect).abs() < 1e-9,
                "t={t}: P(susp) {p_susp} vs {expect}"
            );
        }
    }

    fn chain(means: &[f64]) -> SanModel {
        let mut b = SanBuilder::new("chain");
        let places: Vec<_> = (0..=means.len())
            .map(|i| b.place(format!("p{i}"), u32::from(i == 0)))
            .collect();
        for (i, &mean) in means.iter().enumerate() {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Exp { mean })
                    .input(places[i], 1)
                    .case(Case::with_prob(1.0).output(places[i + 1], 1)),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn first_passage_mean_and_cdf_match_hypoexponential() {
        let model = chain(&[1.0, 3.0]);
        let goal = model.place("p2").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let out = run.mean(&IterOptions::default()).unwrap();
        assert!((out.mean_ms - 4.0).abs() < 1e-9, "mean {}", out.mean_ms);
        assert_eq!(out.states, 3);
        // Hypoexponential CDF with rates 1 and 1/3:
        // F(t) = 1 - (r2 e^{-r1 t} - r1 e^{-r2 t}) / (r2 - r1).
        let (r1, r2) = (1.0f64, 1.0 / 3.0);
        for t in [0.5, 2.0, 6.0] {
            let f = run.cdf(t, &TransientOptions::default()).unwrap();
            let expect = 1.0 - (r2 * (-r1 * t).exp() - r1 * (-r2 * t).exp()) / (r2 - r1);
            assert!((f - expect).abs() < 1e-9, "t={t}: {f} vs {expect}");
        }
    }

    /// A fused run holds one transition store: its space and its
    /// generator point at the same entry allocation and nothing else
    /// holds one — after a detach and re-attach too.
    #[test]
    fn a_fused_run_holds_one_transition_store() {
        let model = chain(&[1.0, 3.0]);
        let goal = model.place("p2").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        assert!(run.ctmc.shares_store_with(&run.space));
        assert_eq!(std::sync::Arc::strong_count(run.space.csr()), 2);
        let slower = chain(&[2.0, 5.0]);
        let run = run.detach().attach(&slower).unwrap();
        assert!(run.ctmc.shares_store_with(&run.space));
        assert_eq!(std::sync::Arc::strong_count(run.space.csr()), 2);
    }

    /// A model that can deadlock outside the goal set must refuse to
    /// report a (meaningless, finite) mean — while the CDF still shows
    /// where the reachable probability mass plateaus.
    #[test]
    fn dead_end_outside_goal_rejects_mean_but_cdf_plateaus() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let goal = b.place("goal", 0);
        let stuck = b.place("stuck", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(0.6).output(goal, 1))
                .case(Case::with_prob(0.4).output(stuck, 1)),
        );
        let model = b.build().unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let err = run.mean(&IterOptions::default()).unwrap_err();
        assert!(
            matches!(err, SolveError::GoalUnreachable { .. }),
            "expected GoalUnreachable, got {err:?}"
        );
        // The CDF is still well-defined and plateaus at P(goal) = 0.6.
        let late = run.cdf(200.0, &TransientOptions::default()).unwrap();
        assert!((late - 0.6).abs() < 1e-9, "plateau {late}");
    }

    /// `mean` is the dead-end check in front of
    /// `mean_time_to_absorption`: the same mean when the goal is the
    /// only dead end, a typed refusal when it is not.
    #[test]
    fn mean_checks_dead_ends_then_solves() {
        let model = chain(&[1.0, 3.0, 0.5]);
        let goal = model.place("p3").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let opts = IterOptions::default();
        let direct = mean_time_to_absorption(run.ctmc(), &opts).unwrap();
        let out = run.mean(&opts).unwrap();
        assert_eq!(out.mean_ms.to_bits(), direct.mean.to_bits());
        assert_eq!(out.iterations, direct.iterations);

        // A goal the chain never meets leaves its last state a
        // reachable dead end outside the goal set.
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 1)
                .unwrap();
        assert!(matches!(
            run.mean(&opts),
            Err(SolveError::GoalUnreachable { .. })
        ));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The consensus model with its service stages re-scaled — what a
    /// campaign point changes.
    fn consensus(order: u32, scale: f64) -> SanModel {
        let mut p = if order == 0 {
            ctsim_models::SanParams::exponential_baseline(2)
        } else {
            ctsim_models::SanParams::paper_baseline(2)
        };
        p.t_send *= scale;
        p.t_receive *= scale;
        p.t_work *= scale;
        ctsim_models::build_model(&p)
    }

    fn decided(model: &SanModel) -> impl Fn(&Marking) -> bool + Sync {
        let places = ctsim_models::decided_place_ids(model, 2);
        move |m| places.iter().any(|&d| m.get(d) > 0)
    }

    /// A run detached from one model and attached to a re-scaled one is
    /// the run a cold exploration of the re-scaled model builds — states,
    /// generator and Gauss–Seidel mean, bit for bit — with and without
    /// phase-type expansion; a model of another shape is refused.
    #[test]
    fn detach_attach_onto_a_rescaled_model_equals_a_cold_run() {
        for order in [0, 2] {
            let reach = ReachOptions {
                ph_order: order,
                ..ReachOptions::default()
            };
            let base = consensus(order, 1.0);
            let detached = AnalyticRun::first_passage(&base, &reach, decided(&base))
                .unwrap()
                .detach();
            let scaled = consensus(order, 1.2);
            let warm = detached.attach(&scaled).unwrap();
            let cold = AnalyticRun::first_passage(&scaled, &reach, decided(&scaled)).unwrap();
            assert_eq!(warm.space().packed_words(), cold.space().packed_words());
            let (rp_a, col_a, rate_a, diag_a) = warm.ctmc().csr_owned();
            let (rp_b, col_b, rate_b, diag_b) = cold.ctmc().csr_owned();
            assert_eq!((rp_a, col_a), (rp_b, col_b), "order {order}");
            assert_eq!(bits(&rate_a), bits(&rate_b), "order {order}");
            assert_eq!(bits(&diag_a), bits(&diag_b), "order {order}");
            let gs = IterOptions::default();
            let (a, b) = (warm.mean(&gs).unwrap(), cold.mean(&gs).unwrap());
            assert_eq!(a.mean_ms.to_bits(), b.mean_ms.to_bits(), "order {order}");
            assert_eq!(a.iterations, b.iterations, "order {order}");
            // And the answer moved: the rates really were rewritten.
            let unscaled = AnalyticRun::first_passage(&base, &reach, decided(&base)).unwrap();
            assert!(unscaled.mean(&gs).unwrap().mean_ms < a.mean_ms);

            let other = chain(&[1.0]);
            assert!(matches!(
                warm.detach().attach(&other),
                Err(SolveError::StructureMismatch { .. })
            ));
        }
    }

    /// A rate-only attach keeps the generator's cached incoming view —
    /// it holds coefficient ids, not rates — and the CDF read through
    /// it has a cold run's bits.
    #[test]
    fn attach_keeps_the_incoming_view() {
        let reach = ReachOptions {
            ph_order: 2,
            ..ReachOptions::default()
        };
        let times = [0.5, 1.0, 2.5];
        let opts = TransientOptions::default();
        let base = consensus(2, 1.0);
        let run = AnalyticRun::first_passage(&base, &reach, decided(&base)).unwrap();
        let before = run.cdf_grid(&times, &opts).unwrap();
        assert!(run.ctmc().has_incoming_view());
        let view = run.ctmc().incoming_view().col_ptr().as_ptr();
        let scaled = consensus(2, 1.2);
        let warm = run.detach().attach(&scaled).unwrap();
        assert!(warm.ctmc().has_incoming_view(), "attach dropped the view");
        assert_eq!(warm.ctmc().incoming_view().col_ptr().as_ptr(), view);
        let cold = AnalyticRun::first_passage(&scaled, &reach, decided(&scaled)).unwrap();
        let (a, b) = (
            warm.cdf_grid(&times, &opts).unwrap(),
            cold.cdf_grid(&times, &opts).unwrap(),
        );
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&before), "the rates were rewritten");
    }

    /// `cdf` and `cdf_grid` refuse a negative, NaN or infinite time
    /// with a typed error, anywhere in the grid.
    #[test]
    fn bad_times_are_typed_errors() {
        let model = chain(&[1.0, 3.0]);
        let goal = model.place("p2").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let opts = TransientOptions::default();
        for bad in [-0.5, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            let is_bad = |e: SolveError| match e {
                SolveError::InvalidTime { t_ms } => t_ms.to_bits() == bad.to_bits(),
                _ => false,
            };
            assert!(is_bad(run.cdf(bad, &opts).unwrap_err()), "cdf({bad})");
            assert!(
                is_bad(run.cdf_grid(&[1.0, bad, 2.0], &opts).unwrap_err()),
                "cdf_grid with {bad}"
            );
        }
        assert_eq!(run.cdf_grid(&[], &opts).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn probability_reward_is_cdf_complement_on_transient_states() {
        let model = chain(&[2.0]);
        let goal = model.place("p1").unwrap();
        let run =
            AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| m.get(goal) > 0)
                .unwrap();
        let sol = transient(run.ctmc(), 2.0, &TransientOptions::default()).unwrap();
        let not_done = probability(run.space(), &sol.probs, move |m| m.get(goal) == 0);
        let done = run.cdf(2.0, &TransientOptions::default()).unwrap();
        assert!((not_done + done - 1.0).abs() < 1e-12);
    }
}
