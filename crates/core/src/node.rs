//! The sequenced consensus host: a failure detector and the engine of
//! the current consensus instance, packaged for a [`ctsim_neko::Node`].
//!
//! Over plain [`ConsensusMsg`], [`ConsensusNode`] is itself a node that
//! runs one consensus. The campaign process of `ctsim-testbed` hosts it
//! over a tagged wire and starts instance `k` at its `k`-th execution
//! timer, whatever became of `k − 1`. The host makes five moves:
//!
//! * [`alive`](ConsensusNode::alive) — any message is a liveness proof:
//!   the detector hears of it first, then its suspicion transitions
//!   reach the engine, and only then is the message itself processed;
//! * [`fd_timer`](ConsensusNode::fd_timer) — a detector timer: its
//!   transitions reach the engine;
//! * [`deliver`](ConsensusNode::deliver) — a consensus message of a
//!   finished instance is dropped, of a future one buffered, of the
//!   current one fed to the engine;
//! * [`propose`](ConsensusNode::propose) — starts the current instance;
//! * [`advance`](ConsensusNode::advance) — a fresh engine for instance
//!   `k`, fed what was buffered for `k` in arrival order; older traffic
//!   is discarded.
//!
//! The buffer keeps the channels reliable, as the algorithm assumes: a
//! message that reaches a process still on an earlier instance is
//! delayed, not lost. Outgoing traffic is tagged with the instance
//! through [`InstanceWire`].

use std::cmp::Ordering;

use ctsim_des::{SimDuration, SimTime};
use ctsim_fd::FailureDetector;
use ctsim_neko::{Ctx, Node, ProcessId, TimerKind};

use crate::consensus::{ConsensusEnv, ConsensusMsg, CtConsensus};

/// Timer token used to trigger `propose` at a configured local time.
const TOKEN_PROPOSE: u64 = 1 << 50;

/// A wire type that can carry a consensus message of a given instance.
pub trait InstanceWire<V> {
    /// Wraps `inner`, sent by consensus instance `instance`.
    fn wrap(instance: u64, inner: ConsensusMsg<V>) -> Self;
}

/// A single consensus travels untagged.
impl<V> InstanceWire<V> for ConsensusMsg<V> {
    fn wrap(_instance: u64, inner: ConsensusMsg<V>) -> Self {
        inner
    }
}

/// What the engine of instance `instance` sees of the world.
struct HostEnv<'a, 'b, M> {
    ctx: &'a mut Ctx<'b, M>,
    instance: u64,
}

impl<V, M: InstanceWire<V> + Clone> ConsensusEnv<V> for HostEnv<'_, '_, M> {
    fn send(&mut self, to: ProcessId, msg: ConsensusMsg<V>) {
        self.ctx.send(to, M::wrap(self.instance, msg));
    }
    fn broadcast_others(&mut self, msg: ConsensusMsg<V>) {
        self.ctx.broadcast_others(M::wrap(self.instance, msg));
    }
    fn charge_work(&mut self) {
        self.ctx.charge_work();
    }
    fn now_local(&self) -> SimTime {
        self.ctx.now_local()
    }
    fn now_true(&self) -> SimTime {
        self.ctx.now_true()
    }
}

/// One process of the consensus system: the ◇S engine of the current
/// instance wired to a failure detector `F` (oracle or heartbeat).
///
/// As a [`Node`] over plain [`ConsensusMsg`] it runs instance 0 only,
/// proposing once at a configured delay. Over a wire type that carries
/// an instance tag it is the host other nodes drive (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct ConsensusNode<V, F> {
    /// The engine of the current instance (public for inspection by
    /// harnesses).
    pub consensus: CtConsensus<V>,
    /// The failure-detector module; it persists across instances.
    pub fd: F,
    me: ProcessId,
    n: usize,
    instance: u64,
    /// Consensus messages of instances not reached yet.
    future: Vec<(ProcessId, u64, ConsensusMsg<V>)>,
    /// Value to propose, and when (delay from start, local clock).
    proposal: Option<(V, SimDuration)>,
}

impl<V: Clone, F> ConsensusNode<V, F> {
    /// A node that proposes `value` `delay` after the run starts
    /// (the measurement harness aligns all starts to the same instant
    /// via the NTP-synchronized clocks).
    pub fn proposing(me: ProcessId, n: usize, fd: F, value: V, delay: SimDuration) -> Self {
        Self {
            proposal: Some((value, delay)),
            ..Self::passive(me, n, fd)
        }
    }

    /// A node that never proposes on its own (driven externally).
    pub fn passive(me: ProcessId, n: usize, fd: F) -> Self {
        Self {
            consensus: CtConsensus::new(me, n),
            fd,
            me,
            n,
            instance: 0,
            future: Vec::new(),
            proposal: None,
        }
    }

    /// The instance the engine is running.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Runs `f` on the engine with its environment and the detector
    /// query `D_p`.
    fn engine<M>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        f: impl FnOnce(&mut CtConsensus<V>, &mut dyn ConsensusEnv<V>, &dyn Fn(ProcessId) -> bool),
    ) where
        M: InstanceWire<V> + Clone,
        F: FailureDetector<M>,
    {
        let fd = &self.fd;
        let mut env = HostEnv {
            ctx,
            instance: self.instance,
        };
        f(&mut self.consensus, &mut env, &|q| fd.is_suspected(q));
    }

    /// Feeds the detector's pending suspicion transitions to the engine
    /// (which never calls into the detector, so raises none).
    fn pump<M>(&mut self, ctx: &mut Ctx<'_, M>)
    where
        M: InstanceWire<V> + Clone,
        F: FailureDetector<M>,
    {
        while let Some(ev) = self.fd.drain_events() {
            self.engine(ctx, |c, env, d| {
                c.on_suspicion(env, ev.target, ev.suspected, d)
            });
        }
    }

    /// A message of any kind arrived from `from`. Call it before
    /// looking at the message.
    pub fn alive<M>(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId)
    where
        M: InstanceWire<V> + Clone,
        F: FailureDetector<M>,
    {
        self.fd.note_alive(ctx, from);
        self.pump(ctx);
    }

    /// A timer token that is not the caller's: the detector's, whose
    /// transitions then reach the engine.
    pub fn fd_timer<M>(&mut self, ctx: &mut Ctx<'_, M>, token: u64)
    where
        M: InstanceWire<V> + Clone,
        F: FailureDetector<M>,
    {
        if self.fd.on_timer(ctx, token) {
            self.pump(ctx);
        }
    }

    /// A consensus message of `instance` arrived (after
    /// [`Self::alive`]).
    pub fn deliver<M>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: ProcessId,
        instance: u64,
        msg: ConsensusMsg<V>,
    ) where
        M: InstanceWire<V> + Clone,
        F: FailureDetector<M>,
    {
        match instance.cmp(&self.instance) {
            // Finished: stale, dropped without work.
            Ordering::Less => {}
            // Not reached yet (clock skew, a faster peer): buffer.
            Ordering::Greater => self.future.push((from, instance, msg)),
            Ordering::Equal => self.engine(ctx, |c, env, d| c.on_message(env, from, msg, d)),
        }
    }

    /// Proposes `value` in the current instance.
    pub fn propose<M>(&mut self, ctx: &mut Ctx<'_, M>, value: V)
    where
        M: InstanceWire<V> + Clone,
        F: FailureDetector<M>,
    {
        self.engine(ctx, |c, env, d| c.propose(env, value, d));
    }

    /// Switches to instance `k > instance()` with a fresh engine,
    /// discards what was buffered for older instances and feeds what
    /// was buffered for `k`, in arrival order.
    pub fn advance<M>(&mut self, ctx: &mut Ctx<'_, M>, k: u64)
    where
        M: InstanceWire<V> + Clone,
        F: FailureDetector<M>,
    {
        debug_assert!(k > self.instance);
        self.instance = k;
        self.consensus = CtConsensus::new(self.me, self.n);
        self.future.retain(|(_, i, _)| *i >= k);
        while let Some(at) = self.future.iter().position(|(_, i, _)| *i == k) {
            let (from, _, msg) = self.future.remove(at);
            self.deliver(ctx, from, k, msg);
        }
    }
}

impl<V, F> Node<ConsensusMsg<V>> for ConsensusNode<V, F>
where
    V: Clone,
    F: FailureDetector<ConsensusMsg<V>>,
{
    fn on_start(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>>) {
        self.fd.on_start(ctx);
        if let Some((_, delay)) = &self.proposal {
            ctx.set_timer(*delay, TimerKind::Precise, TOKEN_PROPOSE);
        }
    }

    fn on_app_message(
        &mut self,
        ctx: &mut Ctx<'_, ConsensusMsg<V>>,
        from: ProcessId,
        msg: ConsensusMsg<V>,
    ) {
        self.alive(ctx, from);
        self.deliver(ctx, from, 0, msg);
    }

    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>>, from: ProcessId) {
        self.alive(ctx, from);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>>, token: u64) {
        if token == TOKEN_PROPOSE {
            if let Some((value, _)) = self.proposal.take() {
                self.propose(ctx, value);
            }
        } else {
            self.fd_timer(ctx, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_des::SimTime;
    use ctsim_fd::{FdParams, HeartbeatFd, OracleFd};
    use ctsim_neko::{NodeConfig, Runtime};
    use ctsim_netsim::{HostParams, NetParams};
    use ctsim_stoch::SimRng;

    fn quiet_host() -> HostParams {
        HostParams {
            gc_enabled: false,
            recv_tail_prob: 0.0,
            ..HostParams::default()
        }
    }

    type OracleNode = ConsensusNode<u64, OracleFd>;

    fn oracle_runtime(
        n: usize,
        seed: u64,
        crashed: Vec<ProcessId>,
    ) -> Runtime<ConsensusMsg<u64>, OracleNode> {
        let crashed2 = crashed.clone();
        let mut rt = Runtime::new(
            n,
            NetParams::default(),
            quiet_host(),
            NodeConfig::default(),
            SimRng::new(seed),
            move |p| {
                let fd = if crashed2.is_empty() {
                    OracleFd::accurate(n)
                } else {
                    OracleFd::suspecting(n, &crashed2)
                };
                ConsensusNode::proposing(p, n, fd, 100 + p.0 as u64, SimDuration::from_ms(1.0))
            },
        );
        for p in crashed {
            rt.crash(p);
        }
        rt
    }

    fn decisions(rt: &Runtime<ConsensusMsg<u64>, OracleNode>) -> Vec<Option<u64>> {
        (0..rt.n())
            .map(|i| rt.node(ProcessId(i)).consensus.decision().copied())
            .collect()
    }

    #[test]
    fn all_decide_the_coordinators_value_without_failures() {
        for n in [1, 2, 3, 5, 7] {
            let mut rt = oracle_runtime(n, 42 + n as u64, vec![]);
            rt.run_until(SimTime::from_ms(200.0));
            let ds = decisions(&rt);
            for (i, d) in ds.iter().enumerate() {
                assert_eq!(*d, Some(100), "n={n}, p{} decided {d:?}", i + 1);
            }
        }
    }

    #[test]
    fn agreement_and_validity_hold() {
        let mut rt = oracle_runtime(5, 7, vec![]);
        rt.run_until(SimTime::from_ms(200.0));
        let ds: Vec<u64> = decisions(&rt).into_iter().flatten().collect();
        assert_eq!(ds.len(), 5, "termination");
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement");
        assert!((100..105).contains(&ds[0]), "validity");
    }

    #[test]
    fn one_round_without_failures() {
        let mut rt = oracle_runtime(5, 9, vec![]);
        rt.run_until(SimTime::from_ms(200.0));
        // The first coordinator decides in round 1.
        assert_eq!(rt.node(ProcessId(0)).consensus.round(), 1);
    }

    #[test]
    fn coordinator_crash_finishes_in_two_rounds_with_p2_value() {
        let mut rt = oracle_runtime(5, 11, vec![ProcessId(0)]);
        rt.run_until(SimTime::from_ms(500.0));
        let ds = decisions(&rt);
        for (i, d) in ds.iter().enumerate().skip(1) {
            assert_eq!(*d, Some(101), "p{} must decide p2's value", i + 1);
        }
        assert_eq!(ds[0], None, "crashed process never decides");
        // Round 2 coordinator is p2.
        assert_eq!(rt.node(ProcessId(1)).consensus.round(), 2);
    }

    #[test]
    fn participant_crash_still_one_round() {
        let mut rt = oracle_runtime(5, 13, vec![ProcessId(1)]);
        rt.run_until(SimTime::from_ms(500.0));
        let ds = decisions(&rt);
        assert_eq!(ds[0], Some(100));
        for d in &ds[2..5] {
            assert_eq!(*d, Some(100));
        }
        assert_eq!(rt.node(ProcessId(0)).consensus.round(), 1);
    }

    #[test]
    fn tolerates_minority_crashes() {
        // n = 5 tolerates 2 crashes (majority 3).
        let mut rt = oracle_runtime(5, 17, vec![ProcessId(0), ProcessId(2)]);
        rt.run_until(SimTime::from_ms(500.0));
        let ds = decisions(&rt);
        let alive: Vec<u64> = [1usize, 3, 4].iter().filter_map(|&i| ds[i]).collect();
        assert_eq!(alive.len(), 3, "all correct processes decide: {ds:?}");
        assert!(alive.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn decision_timestamps_are_recorded() {
        let mut rt = oracle_runtime(3, 19, vec![]);
        rt.run_until(SimTime::from_ms(200.0));
        let c = &rt.node(ProcessId(0)).consensus;
        let t_local = c.decided_at_local().expect("decided");
        let t_true = c.decided_at_true().expect("decided");
        // Proposal at ~1 ms; decision within a handful of ms; clocks
        // agree within the 50 µs NTP bound.
        assert!(t_true.as_ms() > 1.0 && t_true.as_ms() < 30.0);
        assert!((t_local.as_ms() - t_true.as_ms()).abs() <= 0.051);
    }

    /// With a *real* heartbeat detector and a harsh timeout, wrong
    /// suspicions occur; the algorithm must still reach agreement on
    /// every run (safety despite bad QoS).
    #[test]
    fn agreement_survives_wrong_suspicions() {
        for seed in 0..10u64 {
            let n = 3;
            let mut rt = Runtime::new(
                n,
                NetParams::default(),
                HostParams::default(), // GC pauses and tails ON
                NodeConfig::default(),
                SimRng::new(1000 + seed),
                move |p| {
                    ConsensusNode::proposing(
                        p,
                        n,
                        HeartbeatFd::new(p, n, FdParams::with_timeout(5.0)),
                        p.0 as u64,
                        SimDuration::from_ms(1.0),
                    )
                },
            );
            let all_decided = rt.run_while(SimTime::from_secs(30.0), |nodes| {
                nodes.iter().any(|nd| nd.consensus.decision().is_none())
            });
            assert!(all_decided, "seed {seed}: termination under ◇S-like FD");
            let ds: Vec<u64> = (0..n)
                .map(|i| *rt.node(ProcessId(i)).consensus.decision().expect("decided"))
                .collect();
            assert!(
                ds.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: agreement violated: {ds:?}"
            );
            assert!(ds[0] < n as u64, "validity");
        }
    }

    /// Wire of the timer-driven test policy: `(instance, message)`.
    #[derive(Clone)]
    struct Exec(u64, ConsensusMsg<u64>);

    impl InstanceWire<u64> for Exec {
        fn wrap(instance: u64, inner: ConsensusMsg<u64>) -> Self {
            Exec(instance, inner)
        }
    }

    /// The campaign policy, written against the host alone: instance
    /// `k` starts at the precise timer `20 ms + lag + k·gap` whatever
    /// became of `k − 1`, and `(instance, decision)` is logged before
    /// each advance.
    struct Timed {
        host: ConsensusNode<u64, HeartbeatFd>,
        executions: u64,
        gap: SimDuration,
        /// How late this process starts every instance.
        lag: SimDuration,
        log: Vec<(u64, Option<u64>)>,
    }

    impl Node<Exec> for Timed {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Exec>) {
            self.host.fd.on_start(ctx);
            for k in 0..self.executions {
                ctx.set_timer(
                    SimDuration::from_ms(20.0) + self.lag + self.gap * k,
                    TimerKind::Precise,
                    k,
                );
            }
        }
        fn on_app_message(&mut self, ctx: &mut Ctx<'_, Exec>, from: ProcessId, msg: Exec) {
            self.host.alive(ctx, from);
            self.host.deliver(ctx, from, msg.0, msg.1);
        }
        fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Exec>, from: ProcessId) {
            self.host.alive(ctx, from);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Exec>, token: u64) {
            if token >= self.executions {
                self.host.fd_timer(ctx, token);
                return;
            }
            if token > self.host.instance() {
                self.log.push((
                    self.host.instance(),
                    self.host.consensus.decision().copied(),
                ));
                self.host.advance(ctx, token);
            }
            if !self.host.consensus.has_started() {
                // The value names its instance, so a decision leaked
                // from another instance fails validity.
                self.host
                    .propose(ctx, 1000 * token + 100 + ctx.me().0 as u64);
            }
        }
    }

    /// Instance isolation under wrong suspicions: with T = 3 ms (below
    /// the 10 ms tick) executions take several rounds. At the class-3
    /// gap of 100 ms they finish before the next one starts; at 10 ms
    /// they overlap, so traffic of abandoned instances reaches engines
    /// of later ones. Either way, per instance, whoever decided decided
    /// the same value, and one proposed in *that* instance.
    #[test]
    fn every_instance_agrees_under_wrong_suspicions() {
        for (gap_ms, executions) in [(100.0, 40u64), (10.0, 200)] {
            let n = 3;
            let mut rt = Runtime::new(
                n,
                NetParams::default(),
                HostParams::default(), // GC pauses and tails ON
                NodeConfig::default(),
                SimRng::new(77),
                |p| Timed {
                    host: ConsensusNode::passive(
                        p,
                        n,
                        HeartbeatFd::new(p, n, FdParams::with_timeout(3.0)),
                    ),
                    executions,
                    gap: SimDuration::from_ms(gap_ms),
                    lag: SimDuration::ZERO,
                    log: Vec::new(),
                },
            );
            let end = SimTime::from_ms(20.0 + gap_ms * executions as f64);
            rt.run_until(end);
            let mistakes: u64 = (0..n)
                .map(|i| {
                    let fd = &rt.node(ProcessId(i)).host.fd;
                    (0..n)
                        .map(|q| fd.pair_qos(ProcessId(q), end).n_ts)
                        .sum::<u64>()
                })
                .sum();
            assert!(mistakes > 0, "gap {gap_ms}: T = 3 ms must cause suspicions");
            let mut decided = 0;
            let mut rounds_beyond_first = false;
            for k in 0..executions as usize - 1 {
                let ds: Vec<u64> = (0..n)
                    .filter_map(|i| {
                        let (instance, d) = rt.node(ProcessId(i)).log[k];
                        assert_eq!(instance, k as u64);
                        d
                    })
                    .collect();
                if let Some(v) = ds.first() {
                    decided += 1;
                    rounds_beyond_first |= *v % 1000 != 100;
                    assert!(
                        ds.iter().all(|d| d == v),
                        "gap {gap_ms}: agreement violated in instance {k}: {ds:?}"
                    );
                    let proposed = 1000 * k as u64 + 100..1000 * k as u64 + 100 + n as u64;
                    assert!(
                        proposed.contains(v),
                        "gap {gap_ms}: validity violated in instance {k}: {v}"
                    );
                }
            }
            assert!(
                decided * 10 >= executions as usize * 9,
                "gap {gap_ms}: only {decided} of {executions} instances decided"
            );
            assert!(
                rounds_beyond_first,
                "gap {gap_ms}: some instance must be decided past round 1"
            );
        }
    }

    /// The future-instance buffer: the last process starts every
    /// instance 2 ms late, so the coordinator's proposal and `Decide`
    /// of instance `k ≥ 1` reach it while it is still on `k − 1`. They
    /// are buffered and fed when it advances, so it decides every
    /// instance with the others; dropped, it would decide none after
    /// the first. The 100 ms timeout suspects no one.
    #[test]
    fn a_late_process_decides_from_what_was_buffered() {
        let (n, executions) = (3, 30u64);
        let mut rt = Runtime::new(
            n,
            NetParams::default(),
            quiet_host(),
            NodeConfig::default(),
            SimRng::new(5),
            |p| Timed {
                host: ConsensusNode::passive(
                    p,
                    n,
                    HeartbeatFd::new(p, n, FdParams::with_timeout(100.0)),
                ),
                executions,
                gap: SimDuration::from_ms(10.0),
                lag: SimDuration::from_ms(if p.0 == n - 1 { 2.0 } else { 0.0 }),
                log: Vec::new(),
            },
        );
        rt.run_until(SimTime::from_ms(20.0 + 10.0 * executions as f64));
        let coordinator = rt.node(ProcessId(0)).log.clone();
        assert_eq!(coordinator.len() as u64, executions - 1);
        for (k, &(instance, d)) in coordinator.iter().enumerate() {
            assert_eq!((instance, d), (k as u64, Some(1000 * k as u64 + 100)));
        }
        for i in 1..n {
            assert_eq!(rt.node(ProcessId(i)).log, coordinator, "p{}", i + 1);
        }
    }
}
