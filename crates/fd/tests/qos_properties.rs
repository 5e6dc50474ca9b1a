//! Property coverage for the Chen-style QoS estimator and the
//! heartbeat detector feeding it.
//!
//! Two families:
//!
//! * **estimator bounds** — for the suspicion histories of detector
//!   runs at random seeds and timeouts, the paper's `T_MR`/`T_M`
//!   estimates obey the structural bounds that follow from their
//!   defining equations (`0 ≤ T_S ≤ T_exp`, `0 ≤ T_M ≤ T_MR ≤ 2·T_exp`
//!   once a mistake occurred), and the counts of
//!   [`HeartbeatFd::pair_qos`] match the transitions the detector
//!   reported;
//! * **determinism** — the heartbeat detector driven by the simulated
//!   runtime produces bit-identical transitions and QoS estimates for a
//!   fixed [`SimRng`] seed, the property every replication campaign and
//!   CI comparison in this workspace rests on.
//!
//! The detector logs nothing; the test node records each transition it
//! drains, with its true time.

use ctsim_des::SimTime;
use ctsim_fd::{aggregate_qos, FailureDetector, FdParams, HeartbeatFd, PairQos};
use ctsim_neko::{Ctx, Node, NodeConfig, ProcessId, Runtime};
use ctsim_netsim::{HostParams, NetParams};
use ctsim_stoch::{Dist, SimRng};
use proptest::prelude::*;

/// A node that runs only a heartbeat failure detector and logs, per
/// target, the transitions it drains.
struct FdOnly {
    fd: HeartbeatFd,
    log: Vec<Vec<(SimTime, bool)>>,
}

impl FdOnly {
    fn drain(&mut self, ctx: &Ctx<'_, u8>) {
        while let Some(ev) = FailureDetector::<u8>::drain_events(&mut self.fd) {
            self.log[ev.target.0].push((ctx.now_true(), ev.suspected));
        }
    }
}

impl Node<u8> for FdOnly {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
        FailureDetector::<u8>::on_start(&mut self.fd, ctx);
    }
    fn on_app_message(&mut self, ctx: &mut Ctx<'_, u8>, from: ProcessId, _m: u8) {
        self.fd.note_alive(ctx, from);
        self.drain(ctx);
    }
    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, u8>, from: ProcessId) {
        self.fd.note_alive(ctx, from);
        self.drain(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, token: u64) {
        let _ = self.fd.on_timer(ctx, token);
        self.drain(ctx);
    }
}

const N: usize = 3;
const WINDOW_MS: f64 = 500.0;

/// Runs an `N`-process heartbeat-only system for [`WINDOW_MS`] and
/// returns every ordered pair's logged transitions plus its QoS
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
            log: vec![Vec::new(); N],
        },
    );
    let end = SimTime::from_ms(WINDOW_MS);
    rt.run_until(end);
    let mut out = Vec::new();
    for i in 0..N {
        for j in 0..N {
            if i == j {
                continue;
            }
            let node = rt.node(ProcessId(i));
            out.push((node.log[j].clone(), node.fd.pair_qos(ProcessId(j), end)));
        }
    }
    out
}

/// The structural bounds every estimate must obey inside a window of
/// `t_exp` ms (they follow directly from the defining equations), and
/// its counts against the transitions logged for the pair, which
/// alternate starting with `suspect`.
fn assert_bounds(
    transitions: &[(SimTime, bool)],
    q: &PairQos,
    t_exp: f64,
) -> Result<(), TestCaseError> {
    let suspicions = transitions.iter().filter(|(_, s)| *s).count() as u64;
    prop_assert_eq!(
        (q.n_ts, q.n_st),
        (suspicions, transitions.len() as u64 - suspicions)
    );
    for (k, &(_, s)) in transitions.iter().enumerate() {
        prop_assert_eq!(s, k % 2 == 0, "non-alternating history {:?}", transitions);
    }
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
        assert_bounds(transitions, q, WINDOW_MS).unwrap_or_else(|e| panic!("{e}"));
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

    /// The estimator's bounds hold for the histories of detector runs
    /// at random seeds and timeouts, from mistake-heavy (T below the
    /// 10 ms heartbeat tick) to mistake-free.
    #[test]
    fn estimator_bounds_hold_for_random_histories(
        seed in 0u64..1_000_000,
        timeout in 1.0f64..60.0,
    ) {
        for (transitions, q) in &detector_qos(timeout, seed) {
            assert_bounds(transitions, q, WINDOW_MS)?;
        }
    }

    /// The detector's output — the transitions it reports and the QoS
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
