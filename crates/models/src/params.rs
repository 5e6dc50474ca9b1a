//! Parameters of the SAN consensus model.

use ctsim_stoch::{Dist, PhaseType};

/// How the two-state failure-detector sojourn times are distributed
/// (paper §3.4: "a deterministic and an exponential distribution, so to
/// have, for the same mean value, a distribution with the minimum
/// variance (0) and a distribution with a high variance").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SojournDist {
    /// Deterministic sojourns (zero variance).
    Deterministic,
    /// Exponential sojourns (high variance).
    Exponential,
}

impl SojournDist {
    /// The sojourn distribution with the given mean (ms). The
    /// exponential family routes through the order-1 [`PhaseType::fit`]
    /// like every other Markovian mean-matching in this crate.
    pub fn dist(self, mean: f64) -> Dist {
        match self {
            SojournDist::Deterministic => Dist::Det(mean),
            SojournDist::Exponential => markovian(&Dist::Det(mean)),
        }
    }

    /// The stationary *residual* (age-biased) sojourn distribution for
    /// the initial transient: uniform over a deterministic sojourn,
    /// unchanged for the memoryless exponential.
    pub fn residual_dist(self, mean: f64) -> Dist {
        match self {
            SojournDist::Deterministic => Dist::Uniform { lo: 0.0, hi: mean },
            SojournDist::Exponential => markovian(&Dist::Det(mean)),
        }
    }
}

/// The order-1 phase-type fit of `dist`: the mean-matched exponential.
/// Every "make this stage Markovian" substitution in the model layer
/// goes through this one spot instead of hand-rolling `Dist::Exp`.
fn markovian(dist: &Dist) -> Dist {
    PhaseType::fit(dist, 1)
        .as_dist()
        .expect("an order-1 fit of a non-Erlang target is one exponential")
}

/// The abstract failure-detector model.
#[derive(Debug, Clone)]
pub enum FdModel {
    /// Complete and accurate detectors (run classes 1 and 2): crashed
    /// processes are suspected from the beginning and forever; correct
    /// processes never are.
    Accurate,
    /// Independent two-state processes parameterized by the measured
    /// QoS metrics (run class 3). Times in ms.
    TwoState {
        /// Mean mistake recurrence time `T_MR`.
        t_mr: f64,
        /// Mean mistake duration `T_M`.
        t_m: f64,
        /// Sojourn-time distribution family.
        dist: SojournDist,
    },
}

/// How the CPU/handler service stages (`t_send`, `t_receive`,
/// `t_work`) are distributed.
///
/// The paper's model uses deterministic stage costs; the exponential
/// family keeps every mean but makes the model Markovian, which is what
/// the analytic solver in `ctsim-solve` requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceTiming {
    /// Deterministic stage costs (the paper's parameterisation).
    #[default]
    Deterministic,
    /// Exponential stage costs with the same means (the Markovian
    /// re-parameterisation solved analytically).
    Exponential,
    /// Each stage replaced by its order-`order` [`PhaseType::fit`] —
    /// the *exact* stochastic model the analytic solver expands at
    /// that order, samplable by the simulator for engine-vs-engine
    /// cross-validation (see [`SanParams::ph_substituted`]).
    PhaseType {
        /// Expansion order of the fit.
        order: u32,
    },
}

/// Full parameter set of the SAN model.
#[derive(Debug, Clone)]
pub struct SanParams {
    /// Number of processes (the paper simulates 3 and 5; the model
    /// builder supports any `n ≥ 1`).
    pub n: usize,
    /// Sender-CPU occupancy per message, ms (paper: 0.025).
    pub t_send: f64,
    /// Receiver-CPU occupancy per message, ms (paper: `= t_send`).
    pub t_receive: f64,
    /// Receive-side protocol-handler work per protocol message, ms
    /// (our explicit calibration stage; see crate docs).
    pub t_work: f64,
    /// `t_network` for unicast messages (end-to-end delay minus CPU
    /// stages; the paper fits a bimodal uniform mixture).
    pub net_unicast: Dist,
    /// `t_network` for a broadcast message (one message serving all
    /// destinations, with a larger delay; paper §5.1).
    pub net_broadcast: Dist,
    /// Ablation: model broadcasts as `n−1` sequential unicasts, the way
    /// the *implementation* behaves, instead of the paper's single
    /// broadcast message. Default `false` (the paper's model).
    pub broadcast_as_unicasts: bool,
    /// The failure-detector model.
    pub fd: FdModel,
    /// Initially crashed processes (0-based ids; run class 2).
    pub crashed: Vec<usize>,
    /// Distribution family of the CPU/handler service stages.
    pub service: ServiceTiming,
}

impl SanParams {
    /// The paper's baseline parameterization for `n` processes, class-1
    /// runs (no crashes, accurate detectors).
    ///
    /// `t_send = t_receive = 0.025` ms and the Fig. 6 bimodal unicast
    /// fit `U[0.1,0.13] (p=0.8) / U[0.145,0.35] (p=0.2)` minus
    /// `2·t_send`, exactly as §5.1 derives `t_network`. The broadcast
    /// `t_network` scales the unicast fit by the destination count
    /// (calibrated against measured broadcast delays in
    /// `ctsim-experiments`).
    pub fn paper_baseline(n: usize) -> Self {
        let t_send = 0.025;
        let t_receive = 0.025;
        let e2e = Dist::bimodal(0.8, (0.10, 0.13), (0.145, 0.35));
        let net_unicast = e2e.minus_const(t_send + t_receive);
        // One broadcast message occupies the medium roughly like its
        // (n-1) constituent frames back to back.
        let bcast_factor = ((n.max(2) - 1) as f64).max(1.0);
        let net_broadcast = net_unicast.scaled(bcast_factor);
        Self {
            n,
            t_send,
            t_receive,
            t_work: 0.115,
            net_unicast,
            net_broadcast,
            broadcast_as_unicasts: false,
            fd: FdModel::Accurate,
            crashed: Vec::new(),
            service: ServiceTiming::Deterministic,
        }
    }

    /// The Markovian re-parameterisation of the baseline: every timed
    /// stage keeps its baseline *mean* but becomes exponential (CPU
    /// stages, handler work, and the network delays), so the model's
    /// marking process is a CTMC and the analytic solver in
    /// `ctsim-solve` applies natively.
    ///
    /// The substitution is an order-1 [`PhaseType::fit`] — the
    /// degenerate end of the same moment-matching ladder the solver's
    /// phase-type expansion climbs, so the mean-matching logic lives in
    /// exactly one place.
    ///
    /// Latencies are not expected to match the paper's tables — the
    /// point of this family is cross-validation: the simulator run on
    /// these parameters must agree with the exact solution within its
    /// own confidence interval.
    pub fn exponential_baseline(n: usize) -> Self {
        let mut p = Self::paper_baseline(n);
        p.service = ServiceTiming::Exponential;
        p.net_unicast = markovian(&p.net_unicast);
        p.net_broadcast = markovian(&p.net_broadcast);
        p
    }

    /// The distribution of a service stage with the given mean (ms),
    /// according to the [`ServiceTiming`] family.
    pub fn service_dist(&self, mean: f64) -> Dist {
        match self.service {
            ServiceTiming::Deterministic => Dist::Det(mean),
            ServiceTiming::Exponential => markovian(&Dist::Det(mean)),
            ServiceTiming::PhaseType { order } => PhaseType::fit(&Dist::Det(mean), order).to_dist(),
        }
    }

    /// The order-`order` phase-type substitution of this parameter set:
    /// every non-exponential timed stage (deterministic CPU costs,
    /// bi-modal network delays) is replaced by its [`PhaseType::fit`],
    /// materialised as a samplable [`Dist`].
    ///
    /// The resulting parameters describe **exactly** the expanded CTMC
    /// the analytic solver builds at that order (fits of hyper-Erlang
    /// targets are passthroughs), so simulating them cross-validates
    /// the two engines with no phase-type approximation error in
    /// between — the comparison the CI scalability gate relies on,
    /// where the paper-parameter gap is dominated by the (documented)
    /// support-edge bias rather than by anything a code change could
    /// regress. Only class-1 runs are intended: two-state FD sojourn
    /// distributions are not substituted.
    pub fn ph_substituted(&self, order: u32) -> Self {
        let mut p = self.clone();
        p.service = ServiceTiming::PhaseType { order };
        p.net_unicast = PhaseType::fit(&p.net_unicast, order).to_dist();
        p.net_broadcast = PhaseType::fit(&p.net_broadcast, order).to_dist();
        p
    }

    /// The paper's smallest simulated size, `n = 3`, on the real
    /// (deterministic/bi-modal) parameters — the preset behind the CI
    /// scalability gate (`repro analytic --n 3`).
    pub fn paper_n3() -> Self {
        Self::paper_baseline(3)
    }

    /// The Markovian `n = 3` preset (exponential stages of identical
    /// means): ~1.35 × 10⁵ tangible states, the smallest model whose
    /// exploration meaningfully exercises the concurrent intern table.
    pub fn exponential_n3() -> Self {
        Self::exponential_baseline(3)
    }

    /// A state-cap recommendation for solving this parameter set
    /// analytically at the given phase-type expansion order: the
    /// measured growth of the class-1 first-passage space (see the
    /// `ctsim-solve` crate docs for the table — n = 3 reaches
    /// 1.35 × 10⁵ / 5.3 × 10⁵ / 2.3 × 10⁶ states at orders 1–3, n = 4
    /// reaches 1.67 × 10⁷ at orders 0–1, see `docs/MEMORY.md`) with
    /// ~2× headroom, so a run that blows past it is genuinely off the
    /// charted map rather than a victim of a tight default.
    pub fn recommended_max_states(&self, ph_order: u32) -> usize {
        match (self.n, ph_order) {
            (0..=2, _) => 1 << 20,
            (3, 0..=1) => 1 << 18,
            (3, 2) => 1 << 20,
            (3, 3) => 4 << 20,
            (4, 0..=1) => 32 << 20,
            _ => 16 << 20,
        }
    }

    /// Same baseline with one initially crashed process (class 2).
    pub fn with_crash(mut self, p: usize) -> Self {
        assert!(p < self.n, "crashed process out of range");
        self.crashed.push(p);
        self
    }

    /// Same baseline with the two-state FD model (class 3).
    pub fn with_two_state_fd(mut self, t_mr: f64, t_m: f64, dist: SojournDist) -> Self {
        self.fd = FdModel::TwoState { t_mr, t_m, dist };
        self
    }

    /// Validates the parameter set.
    ///
    /// # Panics
    /// Panics on inconsistent parameters (crash majority violated,
    /// `T_M >= T_MR`, non-positive stage costs).
    pub fn validate(&self) {
        assert!(self.n >= 1, "need at least one process");
        assert!(
            self.crashed.len() < self.n.div_ceil(2).max(1) || self.n == 1,
            "the algorithm requires a majority of correct processes"
        );
        assert!(self.crashed.iter().all(|&p| p < self.n));
        assert!(self.t_send >= 0.0 && self.t_receive >= 0.0 && self.t_work >= 0.0);
        if let FdModel::TwoState { t_mr, t_m, .. } = self.fd {
            assert!(
                t_m > 0.0 && t_m < t_mr,
                "need 0 < T_M < T_MR, got T_M={t_m}, T_MR={t_mr}"
            );
        }
    }

    /// The majority threshold `⌈(n+1)/2⌉`.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_values() {
        let p = SanParams::paper_baseline(5);
        assert_eq!(p.t_send, 0.025);
        assert_eq!(p.t_receive, 0.025);
        // Unicast t_network mean = e2e mean - 0.05.
        let e2e_mean = 0.8 * 0.115 + 0.2 * 0.2475;
        assert!((p.net_unicast.mean() - (e2e_mean - 0.05)).abs() < 1e-9);
        p.validate();
    }

    #[test]
    fn broadcast_network_time_exceeds_unicast() {
        for n in [3, 5, 7] {
            let p = SanParams::paper_baseline(n);
            assert!(p.net_broadcast.mean() > p.net_unicast.mean());
        }
    }

    #[test]
    #[should_panic(expected = "majority of correct")]
    fn too_many_crashes_rejected() {
        let p = SanParams::paper_baseline(3).with_crash(0).with_crash(1);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "T_M < T_MR")]
    fn bad_qos_rejected() {
        let p = SanParams::paper_baseline(3).with_two_state_fd(5.0, 7.0, SojournDist::Exponential);
        p.validate();
    }

    #[test]
    fn exponential_baseline_keeps_means() {
        let det = SanParams::paper_baseline(5);
        let exp = SanParams::exponential_baseline(5);
        assert_eq!(exp.service, ServiceTiming::Exponential);
        assert!((exp.net_unicast.mean() - det.net_unicast.mean()).abs() < 1e-12);
        assert!((exp.net_broadcast.mean() - det.net_broadcast.mean()).abs() < 1e-12);
        assert!(matches!(exp.net_unicast, Dist::Exp { .. }));
        assert!(matches!(exp.service_dist(0.025), Dist::Exp { mean } if mean == 0.025));
        assert!(matches!(det.service_dist(0.025), Dist::Det(v) if v == 0.025));
        exp.validate();
    }

    #[test]
    fn ph_substitution_keeps_means_and_is_solver_exact() {
        let base = SanParams::paper_baseline(3);
        let sub = base.ph_substituted(2);
        assert_eq!(sub.service, ServiceTiming::PhaseType { order: 2 });
        // Means survive the substitution exactly.
        assert!((sub.net_unicast.mean() - base.net_unicast.mean()).abs() < 1e-12);
        assert!((sub.net_broadcast.mean() - base.net_broadcast.mean()).abs() < 1e-12);
        assert!((sub.service_dist(0.115).mean() - 0.115).abs() < 1e-12);
        // A deterministic stage at order 2 is the Erlang(2) stand-in.
        assert_eq!(sub.service_dist(0.115), Dist::Erlang { k: 2, mean: 0.115 });
        // Re-fitting a substituted delay at the same order is exact
        // (the solver expands precisely the distribution simulated).
        let refit = PhaseType::fit(&sub.net_unicast, 2).to_dist();
        assert_eq!(refit, sub.net_unicast);
        sub.validate();
    }

    #[test]
    fn n3_presets_and_state_caps() {
        let paper = SanParams::paper_n3();
        assert_eq!(paper.n, 3);
        assert!(matches!(paper.service_dist(0.025), Dist::Det(_)));
        let exp = SanParams::exponential_n3();
        assert_eq!(exp.n, 3);
        assert!(matches!(exp.net_unicast, Dist::Exp { .. }));
        // Caps clear the measured growth table with headroom and grow
        // monotonically in the order.
        assert!(exp.recommended_max_states(1) > 135_125);
        assert!(paper.recommended_max_states(2) > 534_429);
        assert!(paper.recommended_max_states(3) > 2_335_749);
        for k in 0..4 {
            assert!(
                paper.recommended_max_states(k) <= paper.recommended_max_states(k + 1),
                "cap must not shrink with the order"
            );
        }
    }

    /// n = 4 explores to 16 653 026 states at orders 0 and 1 (the
    /// exponential model and the paper's parameters alike), which the
    /// cap must clear with room to spare.
    #[test]
    fn n4_cap_clears_the_measured_space() {
        const MEASURED: usize = 16_653_026;
        for k in 0..=1 {
            for params in [
                SanParams::exponential_baseline(4),
                SanParams::paper_baseline(4),
            ] {
                assert!(
                    params.recommended_max_states(k) >= MEASURED * 3 / 2,
                    "order {k}"
                );
            }
        }
    }

    #[test]
    fn majority_matches_algorithm() {
        assert_eq!(SanParams::paper_baseline(3).majority(), 2);
        assert_eq!(SanParams::paper_baseline(5).majority(), 3);
        assert_eq!(SanParams::paper_baseline(11).majority(), 6);
    }
}
