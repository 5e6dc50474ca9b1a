//! The push-style heartbeat failure detector of paper §2.2.
//!
//! Parameterized by the heartbeat period `T_h` and the timeout `T`.
//! Every `T_h` the process sends a heartbeat to all others; the detector
//! starts suspecting `q` when *no* message from `q` (heartbeat or
//! application) arrived for longer than `T`, and trusts `q` again upon
//! the next message. The paper fixes `T_h = 0.7·T` in all experiments.
//!
//! Heartbeat *sending* runs on the simulated host's **coarse timers**
//! (thread sleeps with the 10 ms Linux 2.2 tick), so the effective
//! heartbeat period is `ceil(T_h / 10ms) · 10ms + U[0, 10ms]` — the
//! quantization whose crossover with `T` produces the paper's Fig. 8
//! cliff between `T = 30` and `T = 40` ms. Timeout *checking* uses
//! precise timers (the paper built a 1 µs native-code clock), so
//! suspicions start promptly once the silence exceeds `T`.
//!
//! Each suspicion-state transition updates its target's QoS tally
//! ([`HeartbeatFd::pair_qos`]) and is queued once for the client.

use std::collections::VecDeque;

use ctsim_des::{SimDuration, SimTime};
use ctsim_neko::{Ctx, ProcessId, TimerKind};

use crate::qos::{PairQos, PairTally};
use crate::{FailureDetector, FdEvent};

/// Timer-token namespace: the heartbeat loop.
const TOKEN_HB_LOOP: u64 = 1 << 40;
/// Timer-token namespace: per-target timeout checks.
const TOKEN_TIMEOUT_BASE: u64 = 1 << 41;

/// Heartbeat failure-detection parameters (ms).
#[derive(Debug, Clone, Copy)]
pub struct FdParams {
    /// The timeout `T`: silence longer than this raises a suspicion.
    pub timeout: f64,
    /// The heartbeat period `T_h` (the paper uses `0.7·T`).
    pub heartbeat_period: f64,
}

impl FdParams {
    /// The paper's standard setting: `T_h = 0.7·T`.
    pub fn with_timeout(timeout: f64) -> Self {
        Self {
            timeout,
            heartbeat_period: 0.7 * timeout,
        }
    }
}

/// The heartbeat failure-detector module of one process.
///
/// One instance monitors all `n-1` other processes (the paper describes
/// this as `n-1` conceptual detectors; a tally is kept per target).
#[derive(Debug)]
pub struct HeartbeatFd {
    me: ProcessId,
    n: usize,
    params: FdParams,
    /// Local-clock time of the last message seen from each process.
    last_heard: Vec<SimTime>,
    /// Per-target suspicion state and QoS tally, in true time.
    pairs: Vec<PairTally>,
    /// Transitions the client has not taken yet.
    events: VecDeque<FdEvent>,
    started: bool,
}

impl HeartbeatFd {
    /// Creates the detector for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, params: FdParams) -> Self {
        Self {
            me,
            n,
            params,
            last_heard: vec![SimTime::ZERO; n],
            pairs: vec![PairTally::default(); n],
            events: VecDeque::new(),
            started: false,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> FdParams {
        self.params
    }

    /// Paper §4's QoS estimates for target `q`, trusted at time zero,
    /// over the true-time window `[0, end]`; `end` is positive and no
    /// earlier than `q`'s last transition.
    pub fn pair_qos(&self, q: ProcessId, end: SimTime) -> PairQos {
        self.pairs[q.0].qos(end)
    }

    fn transition<M>(&mut self, ctx: &mut Ctx<'_, M>, q: ProcessId, suspected: bool)
    where
        M: Clone,
    {
        if self.pairs[q.0].set(ctx.now_true(), suspected) {
            self.events.push_back(FdEvent {
                target: q,
                suspected,
            });
        }
    }
}

impl<M: Clone> FailureDetector<M> for HeartbeatFd {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        debug_assert!(!self.started, "on_start called twice");
        self.started = true;
        let now = ctx.now_local();
        for q in 0..self.n {
            self.last_heard[q] = now;
            if q != self.me.0 {
                // First timeout check one T from now.
                ctx.set_timer(
                    SimDuration::from_ms(self.params.timeout),
                    TimerKind::Precise,
                    TOKEN_TIMEOUT_BASE + q as u64,
                );
            }
        }
        // Heartbeat loop: send immediately, then every T_h.
        for q in 0..self.n {
            if q != self.me.0 {
                ctx.send_heartbeat(ProcessId(q));
            }
        }
        ctx.set_timer(
            SimDuration::from_ms(self.params.heartbeat_period),
            TimerKind::Coarse,
            TOKEN_HB_LOOP,
        );
    }

    fn note_alive(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId) {
        if from == self.me {
            return;
        }
        self.last_heard[from.0] = ctx.now_local();
        self.transition(ctx, from, false);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) -> bool {
        if token == TOKEN_HB_LOOP {
            for q in 0..self.n {
                if q != self.me.0 {
                    ctx.send_heartbeat(ProcessId(q));
                }
            }
            ctx.set_timer(
                SimDuration::from_ms(self.params.heartbeat_period),
                TimerKind::Coarse,
                TOKEN_HB_LOOP,
            );
            return true;
        }
        if token >= TOKEN_TIMEOUT_BASE {
            let q = (token - TOKEN_TIMEOUT_BASE) as usize;
            if q >= self.n {
                return false;
            }
            let now = ctx.now_local();
            let silence = now.saturating_since(self.last_heard[q]).as_ms();
            if silence >= self.params.timeout {
                self.transition(ctx, ProcessId(q), true);
                // Re-check after another T.
                ctx.set_timer(
                    SimDuration::from_ms(self.params.timeout),
                    TimerKind::Precise,
                    token,
                );
            } else {
                // Wake when the current silence could first exceed T.
                let remaining = (self.params.timeout - silence).max(0.01);
                ctx.set_timer(SimDuration::from_ms(remaining), TimerKind::Precise, token);
            }
            return true;
        }
        false
    }

    fn is_suspected(&self, q: ProcessId) -> bool {
        self.pairs[q.0].suspected
    }

    fn drain_events(&mut self) -> Option<FdEvent> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_neko::{Node, NodeConfig, Runtime};
    use ctsim_netsim::{HostParams, NetParams};
    use ctsim_stoch::{Dist, SimRng};

    /// A node that runs only a heartbeat failure detector.
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

    fn fd_runtime(n: usize, timeout: f64, seed: u64, gc: bool) -> Runtime<u8, FdOnly> {
        let host = HostParams {
            gc_enabled: gc,
            ..HostParams::default()
        };
        Runtime::new(
            n,
            NetParams::default(),
            host,
            NodeConfig {
                handler_cost: Dist::Det(0.01),
                ..NodeConfig::default()
            },
            SimRng::new(seed),
            move |p| FdOnly {
                fd: HeartbeatFd::new(p, n, FdParams::with_timeout(timeout)),
            },
        )
    }

    #[test]
    fn generous_timeout_produces_no_suspicions() {
        // T = 200 ms: far above any batching/pause artifact.
        let mut rt = fd_runtime(3, 200.0, 1, false);
        let end = SimTime::from_secs(3.0);
        rt.run_until(end);
        for i in 0..3 {
            for j in 0..3 {
                let q = rt.node(ProcessId(i)).fd.pair_qos(ProcessId(j), end);
                assert_eq!((q.n_ts, q.n_st), (0, 0), "p{i} wrongly suspected p{j}");
            }
        }
    }

    #[test]
    fn crashed_process_gets_suspected_permanently() {
        let mut rt = fd_runtime(3, 50.0, 2, false);
        rt.crash(ProcessId(2));
        let end = SimTime::from_secs(2.0);
        rt.run_until(end);
        for i in 0..2 {
            let fd = &rt.node(ProcessId(i)).fd;
            assert!(
                FailureDetector::<u8>::is_suspected(fd, ProcessId(2)),
                "p{i} must suspect the crashed p3"
            );
            // Exactly one transition: trust -> suspect, never back, so
            // the suspicion has lasted from detection to the end.
            let q = fd.pair_qos(ProcessId(2), end);
            assert_eq!((q.n_ts, q.n_st), (1, 0), "{q:?}");
            // Detection happened after roughly T (plus tick quantization).
            let td = end.as_ms() - q.t_s;
            assert!(
                (50.0..150.0).contains(&td),
                "detection time {td} vs T=50 + coarse-tick slack"
            );
        }
    }

    #[test]
    fn small_timeout_causes_wrong_suspicions_that_heal() {
        // T = 5 ms is below the 10 ms coarse-tick heartbeat floor, so
        // mistakes must occur, and every mistake must heal (processes
        // are all correct).
        let mut rt = fd_runtime(3, 5.0, 3, false);
        let end = SimTime::from_secs(2.0);
        rt.run_until(end);
        let mut mistakes = 0;
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let fd = &rt.node(ProcessId(i)).fd;
                let q = fd.pair_qos(ProcessId(j), end);
                mistakes += q.n_ts;
                // Transitions alternate starting with `suspect`, so
                // every suspicion but a still-open one has healed.
                let open = FailureDetector::<u8>::is_suspected(fd, ProcessId(j));
                assert_eq!(q.n_ts, q.n_st + open as u64, "p{i} on p{j}: {q:?}");
            }
        }
        assert!(mistakes > 10, "expected frequent mistakes, got {mistakes}");
    }

    #[test]
    fn app_messages_also_reset_the_timeout() {
        // Node 0 stops heartbeating but keeps sending app messages; with
        // app chatter, node 1 must not suspect node 0.
        struct Chatter {
            fd: HeartbeatFd,
            chat: bool,
        }
        impl Node<u8> for Chatter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if self.chat {
                    // No FD start: this node sends app messages instead,
                    // every 8 ms (below T = 40).
                    ctx.set_timer(SimDuration::from_ms(8.0), TimerKind::Precise, 7);
                } else {
                    FailureDetector::<u8>::on_start(&mut self.fd, ctx);
                }
            }
            fn on_app_message(&mut self, ctx: &mut Ctx<'_, u8>, from: ProcessId, _m: u8) {
                self.fd.note_alive(ctx, from);
            }
            fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, u8>, from: ProcessId) {
                self.fd.note_alive(ctx, from);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, token: u64) {
                if token == 7 {
                    ctx.send(ProcessId(1), 0);
                    ctx.set_timer(SimDuration::from_ms(8.0), TimerKind::Precise, 7);
                } else {
                    let _ = self.fd.on_timer(ctx, token);
                }
            }
        }
        let mut rt = Runtime::new(
            2,
            NetParams::default(),
            HostParams {
                gc_enabled: false,
                ..HostParams::default()
            },
            NodeConfig::default(),
            SimRng::new(5),
            |p| Chatter {
                fd: HeartbeatFd::new(p, 2, FdParams::with_timeout(40.0)),
                chat: p.0 == 0,
            },
        );
        let end = SimTime::from_secs(2.0);
        rt.run_until(end);
        let q = rt.node(ProcessId(1)).fd.pair_qos(ProcessId(0), end);
        assert_eq!(
            q.n_ts, 0,
            "app traffic must keep the detector quiet, got {q:?}"
        );
    }

    #[test]
    fn events_are_drained_once() {
        let mut rt = fd_runtime(2, 5.0, 8, false);
        let end = SimTime::from_secs(1.0);
        rt.run_until(end);
        let mut drain = |i: usize| {
            let fd = &mut rt.node_mut(ProcessId(i)).fd;
            std::iter::from_fn(|| FailureDetector::<u8>::drain_events(fd)).count() as u64
        };
        let n1 = drain(0) + drain(1);
        let n2 = drain(0) + drain(1);
        // Each transition is queued once: the tallies count as many.
        let tallied: u64 = (0..2)
            .map(|i| {
                let q = rt.node(ProcessId(i)).fd.pair_qos(ProcessId(1 - i), end);
                q.n_ts + q.n_st
            })
            .sum();
        assert!(n1 > 0);
        assert_eq!(n1, tallied, "one event per transition");
        assert_eq!(n2, 0, "second drain must be empty");
    }
}
