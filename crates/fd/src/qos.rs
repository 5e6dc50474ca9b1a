//! Failure-detector quality-of-service metrics (Chen, Toueg, Aguilera,
//! DSN 2000), estimated from suspicion histories exactly as in paper §4.
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

use ctsim_des::SimTime;

/// A pair's suspicion history over an observation window, borrowing
/// the detector's transition log.
#[derive(Debug, Clone, Copy)]
pub struct PairHistory<'a> {
    /// Chronological transitions `(time, new state)`; `true` means the
    /// monitor started suspecting.
    pub transitions: &'a [(SimTime, bool)],
    /// Start of the observation window.
    pub start: SimTime,
    /// End of the observation window.
    pub end: SimTime,
    /// Suspicion state at `start`.
    pub initially_suspected: bool,
}

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

/// Estimates the Chen et al. metrics for one monitored pair.
///
/// # Panics
/// Panics if the window is empty (`end <= start`) or transitions are out
/// of chronological order.
pub fn estimate_pair_qos(h: &PairHistory) -> PairQos {
    assert!(h.end > h.start, "empty observation window");
    let t_exp = (h.end - h.start).as_ms();
    let mut suspected = h.initially_suspected;
    let mut last = h.start;
    let mut t_s = 0.0;
    let mut n_ts = 0u64;
    let mut n_st = 0u64;
    for &(t, s) in h.transitions {
        assert!(t >= last, "history not chronological");
        if t > h.end {
            break;
        }
        if s == suspected {
            continue; // duplicate transition, ignore
        }
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
        t_s += (h.end - last).as_ms();
    }
    let denom = (n_ts + n_st) as f64;
    if denom == 0.0 {
        PairQos {
            t_mr: f64::INFINITY,
            t_m: if h.initially_suspected { t_exp } else { 0.0 },
            n_ts,
            n_st,
            t_s,
        }
    } else {
        PairQos {
            t_mr: 2.0 * t_exp / denom,
            t_m: 2.0 * t_s / denom,
            n_ts,
            n_st,
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

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn no_transitions_means_no_mistakes() {
        let q = estimate_pair_qos(&PairHistory {
            transitions: &[],
            start: t(0.0),
            end: t(1000.0),
            initially_suspected: false,
        });
        assert!(q.t_mr.is_infinite());
        assert_eq!(q.t_m, 0.0);
        assert_eq!(q.t_s, 0.0);
    }

    #[test]
    fn single_mistake_cycle_recovers_parameters() {
        // Suspected during [100, 130): T_S = 30, one TS + one ST.
        // T_MR = 2*1000/2 = 1000; T_M = 2*30/2 = 30.
        let q = estimate_pair_qos(&PairHistory {
            transitions: &[(t(100.0), true), (t(130.0), false)],
            start: t(0.0),
            end: t(1000.0),
            initially_suspected: false,
        });
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
            tr.push((t(base + 50.0), true));
            tr.push((t(base + 70.0), false));
        }
        let q = estimate_pair_qos(&PairHistory {
            transitions: &tr,
            start: t(0.0),
            end: t(1000.0),
            initially_suspected: false,
        });
        assert!((q.t_mr - 100.0).abs() < 1e-9, "T_MR {}", q.t_mr);
        assert!((q.t_m - 20.0).abs() < 1e-9, "T_M {}", q.t_m);
    }

    #[test]
    fn open_suspicion_at_window_end_counts_into_t_s() {
        let q = estimate_pair_qos(&PairHistory {
            transitions: &[(t(900.0), true)],
            start: t(0.0),
            end: t(1000.0),
            initially_suspected: false,
        });
        assert!((q.t_s - 100.0).abs() < 1e-9);
        // One transition: T_MR = 2*1000/1 = 2000, T_M = 2*100/1 = 200.
        assert!((q.t_mr - 2000.0).abs() < 1e-9);
        assert!((q.t_m - 200.0).abs() < 1e-9);
    }

    #[test]
    fn initially_suspected_window_is_handled() {
        // Suspected [0, 250), then clean.
        let q = estimate_pair_qos(&PairHistory {
            transitions: &[(t(250.0), false)],
            start: t(0.0),
            end: t(1000.0),
            initially_suspected: true,
        });
        assert!((q.t_s - 250.0).abs() < 1e-9);
        assert_eq!((q.n_ts, q.n_st), (0, 1));
    }

    #[test]
    fn duplicate_transitions_are_ignored() {
        let q = estimate_pair_qos(&PairHistory {
            transitions: &[(t(100.0), true), (t(110.0), true), (t(130.0), false)],
            start: t(0.0),
            end: t(1000.0),
            initially_suspected: false,
        });
        assert_eq!((q.n_ts, q.n_st), (1, 1));
        assert!((q.t_s - 30.0).abs() < 1e-9);
    }

    #[test]
    fn transitions_after_window_end_are_dropped() {
        let q = estimate_pair_qos(&PairHistory {
            transitions: &[(t(100.0), true), (t(130.0), false), (t(2000.0), true)],
            start: t(0.0),
            end: t(1000.0),
            initially_suspected: false,
        });
        assert_eq!((q.n_ts, q.n_st), (1, 1));
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
        let _ = estimate_pair_qos(&PairHistory {
            transitions: &[],
            start: t(5.0),
            end: t(5.0),
            initially_suspected: false,
        });
    }
}
