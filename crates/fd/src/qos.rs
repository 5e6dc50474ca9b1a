//! Failure-detector quality-of-service metrics (Chen, Toueg, Aguilera,
//! DSN 2000), estimated exactly as in paper §4.
//!
//! For a pair `(p, q)` — the detector at `p` monitoring `q` — over an
//! experiment of duration `T_exp`, with `T_S` the total time spent
//! suspecting, `n_TS` trust→suspect transitions and `n_ST`
//! suspect→trust transitions, the paper estimates:
//!
//! ```text
//! T_M / T_MR = T_S / T_exp        and
//! T_exp      = (n_TS + n_ST)/2 · T_MR
//! ```
//!
//! which solve to `T_MR = 2·T_exp/(n_TS+n_ST)` and
//! `T_M = 2·T_S/(n_TS+n_ST)`. The per-pair values are then averaged
//! over all pairs.
//!
//! A detector folds each transition into its pair's tally as it
//! happens, with the additions a pass over a logged history would make,
//! in the same order: the estimates agree to the bit.

use ctsim_des::SimTime;

/// Per-pair QoS estimates (ms), per the paper's equations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairQos {
    /// Mistake recurrence time `T_MR`; infinite when no mistake occurred.
    pub t_mr: f64,
    /// Mistake duration `T_M`; zero when no mistake occurred.
    pub t_m: f64,
    /// Trust→suspect transitions observed.
    pub n_ts: u64,
    /// Suspect→trust transitions observed.
    pub n_st: u64,
    /// Total suspected time within the window (ms).
    pub t_s: f64,
}

/// A monitored pair's suspicion state and the three numbers of §4,
/// folded as the transitions happen; trusted at time zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairTally {
    /// Whether the monitor suspects the target now.
    pub(crate) suspected: bool,
    last: SimTime,
    /// Suspected time up to `last` (ms).
    t_s: f64,
    n_ts: u64,
    n_st: u64,
}

impl PairTally {
    /// The state became `suspected` at `t`, no earlier than the last
    /// transition; `false` (nothing recorded) if it already was.
    pub(crate) fn set(&mut self, t: SimTime, suspected: bool) -> bool {
        if self.suspected == suspected {
            return false;
        }
        if suspected {
            self.n_ts += 1;
        } else {
            self.t_s += (t - self.last).as_ms();
            self.n_st += 1;
        }
        self.suspected = suspected;
        self.last = t;
        true
    }

    /// The estimates over `[0, end]`; panics if `end` is time zero.
    pub(crate) fn qos(&self, end: SimTime) -> PairQos {
        assert!(end > SimTime::ZERO, "empty observation window");
        let t_exp = end.as_ms();
        let mut t_s = self.t_s;
        if self.suspected {
            t_s += (end - self.last).as_ms();
        }
        let k = self.n_ts + self.n_st;
        let (t_mr, t_m) = if k == 0 {
            (f64::INFINITY, 0.0)
        } else {
            (2.0 * t_exp / k as f64, 2.0 * t_s / k as f64)
        };
        PairQos {
            t_mr,
            t_m,
            n_ts: self.n_ts,
            n_st: self.n_st,
            t_s,
        }
    }
}

/// System-wide QoS: the per-pair values averaged over all pairs, as the
/// paper does ("we obtain the QoS metrics … by averaging over the values
/// for all pairs").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSummary {
    /// Average mistake recurrence time (ms); infinite if *no* pair ever
    /// made a mistake.
    pub t_mr: f64,
    /// Average mistake duration (ms).
    pub t_m: f64,
    /// Number of pairs that made at least one mistake.
    pub pairs_with_mistakes: usize,
    /// Total pairs considered.
    pub pairs: usize,
}

/// Averages per-pair estimates.
///
/// Pairs without any mistake contribute `T_exp`-capped recurrence
/// times is a modelling choice the paper leaves open; following the
/// spirit of its footnote ("we do not need to determine T_MR precisely
/// if T_MR is large"), pairs with no transitions are excluded from the
/// `T_MR`/`T_M` averages but counted in `pairs`.
pub fn aggregate_qos(pairs: &[PairQos]) -> QosSummary {
    let with: Vec<&PairQos> = pairs.iter().filter(|p| p.n_ts + p.n_st > 0).collect();
    if with.is_empty() {
        return QosSummary {
            t_mr: f64::INFINITY,
            t_m: 0.0,
            pairs_with_mistakes: 0,
            pairs: pairs.len(),
        };
    }
    let t_mr = with.iter().map(|p| p.t_mr).sum::<f64>() / with.len() as f64;
    let t_m = with.iter().map(|p| p.t_m).sum::<f64>() / with.len() as f64;
    QosSummary {
        t_mr,
        t_m,
        pairs_with_mistakes: with.len(),
        pairs: pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    /// Folds `(ms, suspected)` transitions into a fresh tally and
    /// estimates over `[0, end_ms]`.
    fn tally(transitions: &[(f64, bool)], end_ms: f64) -> PairQos {
        let mut p = PairTally::default();
        for &(ms, s) in transitions {
            p.set(t(ms), s);
        }
        p.qos(t(end_ms))
    }

    /// The paper's estimator as a fold over a logged, alternating
    /// history that starts trusted at time zero: the reference the
    /// tally must match bit for bit.
    fn reference(transitions: &[(SimTime, bool)], end: SimTime) -> PairQos {
        let t_exp = (end - SimTime::ZERO).as_ms();
        let (mut suspected, mut last, mut t_s) = (false, SimTime::ZERO, 0.0);
        let (mut n_ts, mut n_st) = (0u64, 0u64);
        for &(t, s) in transitions {
            if suspected {
                t_s += (t - last).as_ms();
            }
            if s {
                n_ts += 1;
            } else {
                n_st += 1;
            }
            suspected = s;
            last = t;
        }
        if suspected {
            t_s += (end - last).as_ms();
        }
        let k = (n_ts + n_st) as f64;
        let (t_mr, t_m) = if k == 0.0 {
            (f64::INFINITY, 0.0)
        } else {
            (2.0 * t_exp / k, 2.0 * t_s / k)
        };
        PairQos {
            t_mr,
            t_m,
            n_ts,
            n_st,
            t_s,
        }
    }

    #[test]
    fn no_transitions_means_no_mistakes() {
        let q = tally(&[], 1000.0);
        assert!(q.t_mr.is_infinite());
        assert_eq!(q.t_m, 0.0);
        assert_eq!(q.t_s, 0.0);
    }

    #[test]
    fn single_mistake_cycle_recovers_parameters() {
        // Suspected during [100, 130): T_S = 30, one TS + one ST.
        // T_MR = 2*1000/2 = 1000; T_M = 2*30/2 = 30.
        let q = tally(&[(100.0, true), (130.0, false)], 1000.0);
        assert!((q.t_mr - 1000.0).abs() < 1e-9);
        assert!((q.t_m - 30.0).abs() < 1e-9);
        assert_eq!((q.n_ts, q.n_st), (1, 1));
        assert!((q.t_s - 30.0).abs() < 1e-9);
    }

    #[test]
    fn periodic_mistakes_estimate_the_cycle() {
        // Mistake every 100 ms lasting 20 ms, for 10 cycles in 1000 ms.
        let mut tr = Vec::new();
        for k in 0..10 {
            let base = 100.0 * k as f64;
            tr.push((base + 50.0, true));
            tr.push((base + 70.0, false));
        }
        let q = tally(&tr, 1000.0);
        assert!((q.t_mr - 100.0).abs() < 1e-9, "T_MR {}", q.t_mr);
        assert!((q.t_m - 20.0).abs() < 1e-9, "T_M {}", q.t_m);
    }

    #[test]
    fn open_suspicion_at_window_end_counts_into_t_s() {
        let q = tally(&[(900.0, true)], 1000.0);
        assert!((q.t_s - 100.0).abs() < 1e-9);
        // One transition: T_MR = 2*1000/1 = 2000, T_M = 2*100/1 = 200.
        assert!((q.t_mr - 2000.0).abs() < 1e-9);
        assert!((q.t_m - 200.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_transitions_are_ignored() {
        let mut p = PairTally::default();
        assert!(p.set(t(100.0), true));
        assert!(!p.set(t(110.0), true), "a repeated state is no transition");
        assert!(p.set(t(130.0), false));
        let q = p.qos(t(1000.0));
        assert_eq!((q.n_ts, q.n_st), (1, 1));
        assert!((q.t_s - 30.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_averages_only_pairs_with_mistakes() {
        let a = PairQos {
            t_mr: 100.0,
            t_m: 10.0,
            n_ts: 5,
            n_st: 5,
            t_s: 50.0,
        };
        let b = PairQos {
            t_mr: 300.0,
            t_m: 30.0,
            n_ts: 3,
            n_st: 3,
            t_s: 90.0,
        };
        let clean = PairQos {
            t_mr: f64::INFINITY,
            t_m: 0.0,
            n_ts: 0,
            n_st: 0,
            t_s: 0.0,
        };
        let s = aggregate_qos(&[a, b, clean]);
        assert!((s.t_mr - 200.0).abs() < 1e-9);
        assert!((s.t_m - 20.0).abs() < 1e-9);
        assert_eq!(s.pairs_with_mistakes, 2);
        assert_eq!(s.pairs, 3);
    }

    #[test]
    fn aggregate_of_clean_system_is_infinite_recurrence() {
        let clean = PairQos {
            t_mr: f64::INFINITY,
            t_m: 0.0,
            n_ts: 0,
            n_st: 0,
            t_s: 0.0,
        };
        let s = aggregate_qos(&[clean; 6]);
        assert!(s.t_mr.is_infinite());
        assert_eq!(s.pairs_with_mistakes, 0);
    }

    #[test]
    #[should_panic(expected = "empty observation window")]
    fn empty_window_panics() {
        let _ = PairTally::default().qos(SimTime::ZERO);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random chronological alternating histories, starting
        /// trusted: the tally's estimates are the reference fold's to
        /// the bit. Gaps are whole nanoseconds up to 50 ms, zero
        /// included, so the millisecond sums round.
        #[test]
        fn tally_matches_the_reference_fold_bit_for_bit(
            gaps in proptest::collection::vec(0u64..50_000_000, 0..80),
            tail in 1u64..50_000_000,
        ) {
            let mut now = 0u64;
            let transitions: Vec<(SimTime, bool)> = gaps
                .iter()
                .enumerate()
                .map(|(k, &g)| {
                    now += g;
                    (SimTime::from_nanos(now), k % 2 == 0)
                })
                .collect();
            let end = SimTime::from_nanos(now + tail);
            let mut p = PairTally::default();
            for &(at, s) in &transitions {
                prop_assert!(p.set(at, s));
            }
            let (got, want) = (p.qos(end), reference(&transitions, end));
            prop_assert_eq!((got.n_ts, got.n_st), (want.n_ts, want.n_st));
            prop_assert_eq!(got.t_s.to_bits(), want.t_s.to_bits());
            prop_assert_eq!(got.t_mr.to_bits(), want.t_mr.to_bits());
            prop_assert_eq!(got.t_m.to_bits(), want.t_m.to_bits());
        }
    }
}
