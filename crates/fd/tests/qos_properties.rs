//! Property coverage for the Chen-style QoS estimator and the
//! heartbeat detector feeding it.
//!
//! Two families:
//!
//! * **estimator bounds** — for *any* chronological suspicion history,
//!   the paper's `T_MR`/`T_M` estimates obey the structural bounds that
//!   follow from their defining equations (`0 ≤ T_S ≤ T_exp`,
//!   `0 ≤ T_M ≤ T_MR ≤ 2·T_exp` once a mistake occurred);
//! * **determinism** — the heartbeat detector driven by the simulated
//!   runtime produces bit-identical histories and QoS estimates for a
//!   fixed [`SimRng`] seed, the property every replication campaign and
//!   CI comparison in this workspace rests on.

use ctsim_des::SimTime;
use ctsim_fd::{
    aggregate_qos, estimate_pair_qos, FailureDetector, FdParams, HeartbeatFd, PairHistory, PairQos,
};
use ctsim_neko::{Ctx, Node, NodeConfig, ProcessId, Runtime};
use ctsim_netsim::{HostParams, NetParams};
use ctsim_stoch::{Dist, SimRng};
use proptest::prelude::*;

/// A node that runs only a heartbeat failure detector (the same shape
/// the in-crate detector tests use).
struct FdOnly {
    fd: HeartbeatFd,
}

impl Node<u8> for FdOnly {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
        FailureDetector::<u8>::on_start(&mut self.fd, ctx);
    }
    fn on_app_message(&mut self, ctx: &mut Ctx<'_, u8>, from: ProcessId, _m: u8) {
        self.fd.note_alive(ctx, from);
    }
    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, u8>, from: ProcessId) {
        self.fd.note_alive(ctx, from);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, token: u64) {
        let _ = self.fd.on_timer(ctx, token);
    }
}

const N: usize = 3;
const WINDOW_MS: f64 = 500.0;

/// Runs an `N`-process heartbeat-only system for [`WINDOW_MS`] and
/// returns every ordered pair's transition history plus its QoS
/// estimate, in a fixed pair order.
fn detector_qos(timeout: f64, seed: u64) -> Vec<(Vec<(SimTime, bool)>, PairQos)> {
    let mut rt = Runtime::new(
        N,
        NetParams::default(),
        HostParams::default(),
        NodeConfig {
            handler_cost: Dist::Det(0.01),
            ..NodeConfig::default()
        },
        SimRng::new(seed),
        move |p| FdOnly {
            fd: HeartbeatFd::new(p, N, FdParams::with_timeout(timeout)),
        },
    );
    rt.run_until(SimTime::from_ms(WINDOW_MS));
    let mut out = Vec::new();
    for i in 0..N {
        for j in 0..N {
            if i == j {
                continue;
            }
            let transitions = rt.node(ProcessId(i)).fd.history(ProcessId(j)).to_vec();
            let qos = estimate_pair_qos(&PairHistory {
                transitions: &transitions,
                start: SimTime::ZERO,
                end: SimTime::from_ms(WINDOW_MS),
                initially_suspected: false,
            });
            out.push((transitions, qos));
        }
    }
    out
}

/// The structural bounds every estimate must obey inside a window of
/// `t_exp` ms (they follow directly from the defining equations).
fn assert_bounds(q: &PairQos, t_exp: f64) -> Result<(), TestCaseError> {
    prop_assert!(q.t_s >= 0.0, "negative suspected time {}", q.t_s);
    prop_assert!(q.t_s <= t_exp + 1e-9, "T_S {} beyond window {t_exp}", q.t_s);
    prop_assert!(q.t_m >= 0.0, "negative mistake duration {}", q.t_m);
    if q.n_ts + q.n_st == 0 {
        prop_assert!(q.t_mr.is_infinite(), "no mistakes but finite T_MR");
    } else {
        // T_MR = 2 T_exp / k with k ≥ 1, and T_M ≤ T_MR since T_S ≤ T_exp.
        prop_assert!(
            q.t_mr > 0.0 && q.t_mr <= 2.0 * t_exp + 1e-9,
            "T_MR {}",
            q.t_mr
        );
        prop_assert!(q.t_m <= q.t_mr + 1e-9, "T_M {} > T_MR {}", q.t_m, q.t_mr);
    }
    Ok(())
}

/// Deterministic detector bounds on one concrete run: a timeout below
/// the 10 ms coarse-tick heartbeat floor forces mistakes, and every
/// pair's estimate must respect the structural bounds.
#[test]
fn heartbeat_estimates_respect_bounds() {
    let pairs = detector_qos(5.0, 42);
    let mut mistakes = 0;
    for (transitions, q) in &pairs {
        assert_bounds(q, WINDOW_MS).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            (q.n_ts + q.n_st) as usize,
            transitions.len(),
            "alternating history: every transition is counted"
        );
        mistakes += q.n_ts;
    }
    assert!(mistakes > 0, "T = 5 ms must produce wrong suspicions");
    let summary = aggregate_qos(&pairs.iter().map(|(_, q)| *q).collect::<Vec<_>>());
    assert!(summary.pairs_with_mistakes > 0);
    assert!(
        summary.t_m <= summary.t_mr,
        "averaged T_M {} > averaged T_MR {}",
        summary.t_m,
        summary.t_mr
    );
}

/// A generous timeout over a clean system: no mistakes, infinite
/// recurrence, zero mistake duration — the other edge of the bounds.
#[test]
fn clean_system_reports_infinite_recurrence() {
    let pairs = detector_qos(200.0, 7);
    for (transitions, q) in &pairs {
        assert!(
            transitions.is_empty(),
            "unexpected mistakes {transitions:?}"
        );
        assert!(q.t_mr.is_infinite());
        assert_eq!(q.t_m, 0.0);
        assert_eq!(q.t_s, 0.0);
    }
    let summary = aggregate_qos(&pairs.iter().map(|(_, q)| *q).collect::<Vec<_>>());
    assert!(summary.t_mr.is_infinite());
    assert_eq!(summary.pairs_with_mistakes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The estimator's bounds hold for arbitrary chronological
    /// histories, not just ones a real detector produced — including
    /// duplicate states, an initially-suspected window, and
    /// transitions past the window end.
    #[test]
    fn estimator_bounds_hold_for_random_histories(
        raw in proptest::collection::vec((0.0f64..1200.0, 0u8..2), 0..40),
        initially in 0u8..2,
    ) {
        let mut times: Vec<f64> = raw.iter().map(|&(t, _)| t).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let transitions: Vec<(SimTime, bool)> = times
            .iter()
            .zip(&raw)
            .map(|(&t, &(_, s))| (SimTime::from_ms(t), s == 1))
            .collect();
        let q = estimate_pair_qos(&PairHistory {
            transitions: &transitions,
            start: SimTime::ZERO,
            end: SimTime::from_ms(1000.0),
            initially_suspected: initially == 1,
        });
        assert_bounds(&q, 1000.0)?;
    }

    /// The detector's output — transition histories and the QoS
    /// estimates derived from them — is bit-for-bit deterministic for
    /// a fixed `SimRng` seed, across both mistake-free and
    /// mistake-heavy timeout regimes.
    #[test]
    fn detector_output_is_deterministic_for_fixed_seed(
        seed in 0u64..1_000_000,
        timeout in 4.0f64..60.0,
    ) {
        let a = detector_qos(timeout, seed);
        let b = detector_qos(timeout, seed);
        prop_assert_eq!(a.len(), b.len());
        for ((ha, qa), (hb, qb)) in a.iter().zip(&b) {
            prop_assert_eq!(ha, hb, "histories diverged for seed {}", seed);
            prop_assert_eq!(qa.t_mr.to_bits(), qb.t_mr.to_bits());
            prop_assert_eq!(qa.t_m.to_bits(), qb.t_m.to_bits());
            prop_assert_eq!(qa.t_s.to_bits(), qb.t_s.to_bits());
            prop_assert_eq!((qa.n_ts, qa.n_st), (qb.n_ts, qb.n_st));
        }
    }
}
