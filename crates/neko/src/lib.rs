//! Process and protocol framework over the simulated cluster, after the
//! paper's Neko framework (Urbán, Défago, Schiper: "Neko: a single
//! environment to simulate and prototype distributed algorithms").
//!
//! A distributed algorithm is written once as a [`Node`] implementation
//! — a reactive state machine with message, heartbeat and timer handlers
//! — and executed by the [`Runtime`] on top of `ctsim-netsim`'s cluster
//! model. Handlers interact with the world only through [`Ctx`]:
//!
//! * [`Ctx::send`] / [`Ctx::broadcast_others`] — application messages
//!   (broadcast is n−1 *sequential unicasts*, as in the paper's
//!   implementation; the SAN model's single-broadcast-message shortcut
//!   is a deliberate difference the paper discusses),
//! * [`Ctx::send_heartbeat`] — failure-detector heartbeats (subject to
//!   the cluster's TCP batching),
//! * [`Ctx::set_timer`] — coarse (OS tick) or precise (native clock)
//!   timers,
//! * [`Ctx::charge_work`] — bills the CPU for the work this handler
//!   performs, the dominant per-message cost of the Java implementation,
//! * [`Ctx::now_local`] — the host's NTP-disciplined clock (true time
//!   plus a per-host offset within ±50 µs, as measured in the paper).

use ctsim_des::{SimDuration, SimTime};
use ctsim_netsim::{ClusterNet, Delivery, HostId, HostParams, MsgClass, NetParams, Traffic};
use ctsim_stoch::{Dist, SimRng};

pub use ctsim_netsim::TimerKind;

/// Identifies a process; process `i` runs on host `i`. The paper's
/// processes `p1 … pn` are `ProcessId(0) … ProcessId(n-1)` here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub usize);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0 + 1)
    }
}

/// What travels on the wire: either a failure-detector heartbeat or an
/// application message of type `M`.
#[derive(Debug, Clone)]
pub enum Wire<M> {
    /// A heartbeat (no payload).
    Heartbeat,
    /// An application message.
    App(M),
}

/// Per-node configuration of the framework layer.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// CPU time a handler bills per unit of protocol work
    /// ([`Ctx::charge_work`]).
    pub handler_cost: Dist,
    /// Magnitude bound of the NTP clock offset: each host's clock is
    /// offset from true time by `U[-x, +x]` ms (the paper: ±50 µs).
    pub clock_offset_bound: f64,
    /// Payload size of application messages in bytes (the paper: ~100).
    pub app_msg_bytes: u32,
    /// Payload size of heartbeats in bytes.
    pub heartbeat_bytes: u32,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            handler_cost: Dist::Uniform {
                lo: 0.100,
                hi: 0.135,
            },
            clock_offset_bound: 0.05,
            app_msg_bytes: 100,
            heartbeat_bytes: 30,
        }
    }
}

/// A process's protocol stack: the reactive interface the [`Runtime`]
/// drives.
///
/// All handlers are non-blocking; waiting is expressed by storing state
/// and reacting to later events (message-driven style).
pub trait Node<M> {
    /// Called once at simulation start (true time 0), before any event.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);
    /// An application message from `from` arrived.
    ///
    /// Implementations that host a failure detector must treat this as
    /// a liveness proof for `from` (the paper's FD resets its timeout on
    /// *any* message).
    fn on_app_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M);
    /// A heartbeat from `from` arrived.
    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId);
    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64);
}

/// Handler-side view of the world (see the [crate docs](self)).
pub struct Ctx<'a, M> {
    net: &'a mut ClusterNet<Wire<M>>,
    cfg: &'a NodeConfig,
    me: ProcessId,
    n: usize,
    clock_offset_ns: i64,
    rng: &'a mut SimRng,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The local (NTP-disciplined) clock: true time plus this host's
    /// offset.
    pub fn now_local(&self) -> SimTime {
        let t = self.net.now().as_nanos() as i64 + self.clock_offset_ns;
        SimTime::from_nanos(t.max(0) as u64)
    }

    /// True simulation time — **not observable by a real process**; only
    /// for instrumentation.
    pub fn now_true(&self) -> SimTime {
        self.net.now()
    }

    /// Sends an application message (sending to self is local loopback).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.net.send(
            HostId(self.me.0),
            HostId(to.0),
            MsgClass::App,
            self.cfg.app_msg_bytes,
            Wire::App(msg),
        );
    }

    /// Sends `msg` to every *other* process as sequential unicasts in
    /// process-index order — exactly what the paper's implementation
    /// does for broadcasts.
    pub fn broadcast_others(&mut self, msg: M) {
        for i in 0..self.n {
            if i != self.me.0 {
                self.send(ProcessId(i), msg.clone());
            }
        }
    }

    /// Sends a heartbeat to one process.
    pub fn send_heartbeat(&mut self, to: ProcessId) {
        self.net.send(
            HostId(self.me.0),
            HostId(to.0),
            MsgClass::Heartbeat,
            self.cfg.heartbeat_bytes,
            Wire::Heartbeat,
        );
    }

    /// Bills one unit of protocol work (sampled from the configured
    /// handler-cost distribution) on this host's CPU. Call it when a
    /// message actually advances the protocol; stale or duplicate
    /// messages should not pay it.
    pub fn charge_work(&mut self) {
        let c = self.cfg.handler_cost.sample(self.rng);
        self.net.charge(HostId(self.me.0), c);
    }

    /// Arms a timer that will call [`Node::on_timer`] with `token`. A
    /// timer cannot be cancelled; a node that no longer wants it ignores
    /// its token.
    pub fn set_timer(&mut self, delay: SimDuration, kind: TimerKind, token: u64) {
        self.net.set_timer(HostId(self.me.0), delay, kind, token);
    }

    /// This process's RNG substream (for randomized protocols).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// Drives a set of [`Node`]s over the simulated cluster.
pub struct Runtime<M, N> {
    net: ClusterNet<Wire<M>>,
    nodes: Vec<N>,
    node_rngs: Vec<SimRng>,
    offsets_ns: Vec<i64>,
    cfg: NodeConfig,
    started: bool,
}

impl<M, N> std::fmt::Debug for Runtime<M, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("n", &self.nodes.len())
            .field("now", &self.net.now())
            .finish()
    }
}

impl<M: Clone, N: Node<M>> Runtime<M, N> {
    /// Builds a runtime of `n` processes; `make(i)` constructs each
    /// node's protocol stack.
    pub fn new(
        n: usize,
        net_params: NetParams,
        host_params: HostParams,
        cfg: NodeConfig,
        rng: SimRng,
        mut make: impl FnMut(ProcessId) -> N,
    ) -> Self {
        let net = ClusterNet::new(n, net_params, host_params, rng.substream_named("net"));
        let mut offs_rng = rng.substream_named("clock");
        let offsets_ns = (0..n)
            .map(|_| {
                let b = cfg.clock_offset_bound;
                let off_ms = offs_rng.uniform(-b, b + f64::MIN_POSITIVE);
                (off_ms * 1e6) as i64
            })
            .collect();
        let node_rngs = (0..n)
            .map(|i| rng.substream_named("node").substream(i as u64))
            .collect();
        let nodes = (0..n).map(|i| make(ProcessId(i))).collect();
        Self {
            net,
            nodes,
            node_rngs,
            offsets_ns,
            cfg,
            started: false,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Current true time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, p: ProcessId) -> &N {
        &self.nodes[p.0]
    }

    /// Mutable access to a node's protocol state (for harness setup).
    pub fn node_mut(&mut self, p: ProcessId) -> &mut N {
        &mut self.nodes[p.0]
    }

    /// All nodes, in process order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Crashes a process (and its host) immediately.
    pub fn crash(&mut self, p: ProcessId) {
        self.net.crash_host(HostId(p.0));
    }

    /// Whether a process is crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.net.is_crashed(HostId(p.0))
    }

    /// What the cluster has done so far: events by kind, timers,
    /// messages and the peak number of pending events.
    pub fn traffic(&self) -> Traffic {
        self.net.traffic()
    }

    /// Runs `f` on node `i` with its handler-side view of the world.
    fn with_node(&mut self, i: usize, f: impl FnOnce(&mut N, &mut Ctx<'_, M>)) {
        let mut ctx = Ctx {
            net: &mut self.net,
            cfg: &self.cfg,
            me: ProcessId(i),
            n: self.nodes.len(),
            clock_offset_ns: self.offsets_ns[i],
            rng: &mut self.node_rngs[i],
        };
        f(&mut self.nodes[i], &mut ctx);
    }

    /// Runs `f` as a handler on host `i`'s CPU.
    fn handle(&mut self, i: usize, f: impl FnOnce(&mut N, &mut Ctx<'_, M>)) {
        self.net.begin_handler(HostId(i));
        self.with_node(i, f);
        self.net.end_handler();
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                if !self.net.is_crashed(HostId(i)) {
                    self.with_node(i, |node, ctx| node.on_start(ctx));
                }
            }
        }
    }

    /// Processes one observable occurrence (message delivery or timer).
    /// Returns `false` when nothing further happens before `horizon`.
    pub fn step(&mut self, horizon: SimTime) -> bool {
        self.ensure_started();
        let Some(delivery) = self.net.advance(horizon) else {
            return false;
        };
        match delivery {
            Delivery::Message {
                from,
                to,
                class,
                payload,
                ..
            } => self.handle(to.0, |node, ctx| match (class, payload) {
                (MsgClass::Heartbeat, _) | (_, Wire::Heartbeat) => {
                    node.on_heartbeat(ctx, ProcessId(from.0));
                }
                (_, Wire::App(m)) => node.on_app_message(ctx, ProcessId(from.0), m),
            }),
            Delivery::Timer { host, token, .. } => {
                self.handle(host.0, |node, ctx| node.on_timer(ctx, token));
            }
        }
        true
    }

    /// Runs until quiescence or `horizon`, whichever comes first.
    pub fn run_until(&mut self, horizon: SimTime) {
        while self.step(horizon) {}
    }

    /// Runs while `keep_going` holds over the nodes (checked after each
    /// occurrence) or until `horizon`. Returns `true` when the predicate
    /// turned false (i.e. the awaited condition was reached).
    pub fn run_while(&mut self, horizon: SimTime, keep_going: impl Fn(&[N]) -> bool) -> bool {
        self.ensure_started();
        if !keep_going(&self.nodes) {
            return true;
        }
        while self.step(horizon) {
            if !keep_going(&self.nodes) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_netsim::{HostParams, NetParams};

    fn quiet_host() -> HostParams {
        HostParams {
            send_cost: Dist::Det(0.06),
            recv_cost: Dist::Det(0.03),
            recv_tail_prob: 0.0,
            recv_tail: Dist::Det(0.0),
            gc_enabled: false,
            ..HostParams::default()
        }
    }

    fn cfg() -> NodeConfig {
        NodeConfig {
            handler_cost: Dist::Det(0.1),
            ..NodeConfig::default()
        }
    }

    /// Ping-pong: node 0 sends a counter; each receiver increments and
    /// returns it until it reaches 6.
    #[derive(Default)]
    struct PingPong {
        got: Vec<u32>,
        heartbeats: u32,
    }

    impl Node<u32> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me().0 == 0 {
                ctx.send(ProcessId(1), 0);
            }
        }
        fn on_app_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ProcessId, msg: u32) {
            self.got.push(msg);
            ctx.charge_work();
            if msg < 6 {
                ctx.send(from, msg + 1);
            }
        }
        fn on_heartbeat(&mut self, _ctx: &mut Ctx<'_, u32>, _from: ProcessId) {
            self.heartbeats += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _token: u64) {}
    }

    fn pingpong_runtime(seed: u64) -> Runtime<u32, PingPong> {
        Runtime::new(
            2,
            NetParams::default(),
            quiet_host(),
            cfg(),
            SimRng::new(seed),
            |_| PingPong::default(),
        )
    }

    #[test]
    fn ping_pong_exchanges_messages() {
        let mut rt = pingpong_runtime(1);
        rt.run_until(SimTime::from_secs(1.0));
        assert_eq!(rt.node(ProcessId(1)).got, vec![0, 2, 4, 6]);
        assert_eq!(rt.node(ProcessId(0)).got, vec![1, 3, 5]);
    }

    #[test]
    fn runs_are_reproducible() {
        let mut a = pingpong_runtime(3);
        let mut b = pingpong_runtime(3);
        a.run_until(SimTime::from_secs(1.0));
        b.run_until(SimTime::from_secs(1.0));
        assert_eq!(a.now(), b.now());
        assert_eq!(a.node(ProcessId(0)).got, b.node(ProcessId(0)).got);
    }

    /// Broadcast order: others receive in index order (sequential
    /// unicasts on one sender CPU).
    struct Bcast {
        deliveries: Vec<(ProcessId, SimTime)>,
    }

    impl Node<u8> for Bcast {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            if ctx.me().0 == 0 {
                ctx.broadcast_others(9);
            }
        }
        fn on_app_message(&mut self, ctx: &mut Ctx<'_, u8>, _from: ProcessId, _m: u8) {
            self.deliveries.push((ctx.me(), ctx.now_true()));
        }
        fn on_heartbeat(&mut self, _ctx: &mut Ctx<'_, u8>, _from: ProcessId) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u8>, _token: u64) {}
    }

    #[test]
    fn broadcast_is_sequential_unicasts_in_index_order() {
        let mut rt = Runtime::new(
            4,
            NetParams::default(),
            quiet_host(),
            cfg(),
            SimRng::new(5),
            |_| Bcast { deliveries: vec![] },
        );
        rt.run_until(SimTime::from_secs(1.0));
        let mut times = Vec::new();
        for i in 1..4 {
            let d = &rt.node(ProcessId(i)).deliveries;
            assert_eq!(d.len(), 1);
            times.push(d[0].1);
        }
        assert!(
            times[0] < times[1] && times[1] < times[2],
            "deliveries must be staggered by send serialization: {times:?}"
        );
    }

    /// Timers fire in deadline order, whatever order they were set in.
    #[derive(Default)]
    struct TimerNode {
        fired: Vec<u64>,
    }

    impl Node<u8> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            ctx.set_timer(SimDuration::from_ms(4.0), TimerKind::Precise, 3);
            ctx.set_timer(SimDuration::from_ms(2.0), TimerKind::Precise, 1);
            ctx.set_timer(SimDuration::from_ms(3.0), TimerKind::Precise, 2);
        }
        fn on_app_message(&mut self, _: &mut Ctx<'_, u8>, _: ProcessId, _: u8) {}
        fn on_heartbeat(&mut self, _: &mut Ctx<'_, u8>, _: ProcessId) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u8>, token: u64) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut rt = Runtime::new(
            1,
            NetParams::default(),
            quiet_host(),
            cfg(),
            SimRng::new(2),
            |_| TimerNode::default(),
        );
        rt.run_until(SimTime::from_secs(1.0));
        assert_eq!(rt.node(ProcessId(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn crashed_node_is_silent() {
        let mut rt = pingpong_runtime(7);
        rt.crash(ProcessId(1));
        rt.run_until(SimTime::from_secs(1.0));
        assert!(rt.node(ProcessId(1)).got.is_empty());
        assert!(rt.node(ProcessId(0)).got.is_empty());
        assert!(rt.is_crashed(ProcessId(1)));
        assert!(!rt.is_crashed(ProcessId(0)));
    }

    #[test]
    fn local_clocks_are_offset_within_bound() {
        struct ClockNode {
            skew_ms: f64,
        }
        impl Node<u8> for ClockNode {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.set_timer(SimDuration::from_ms(1.0), TimerKind::Precise, 0);
            }
            fn on_app_message(&mut self, _: &mut Ctx<'_, u8>, _: ProcessId, _: u8) {}
            fn on_heartbeat(&mut self, _: &mut Ctx<'_, u8>, _: ProcessId) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _: u64) {
                self.skew_ms = ctx.now_local().as_ms() - ctx.now_true().as_ms();
            }
        }
        let mut rt = Runtime::new(
            8,
            NetParams::default(),
            quiet_host(),
            cfg(),
            SimRng::new(11),
            |_| ClockNode { skew_ms: 99.0 },
        );
        rt.run_until(SimTime::from_ms(10.0));
        let mut distinct = std::collections::HashSet::new();
        for i in 0..8 {
            let s = rt.node(ProcessId(i)).skew_ms;
            assert!((-0.051..=0.051).contains(&s), "skew {s} out of NTP bound");
            distinct.insert((s * 1e7) as i64);
        }
        assert!(distinct.len() > 1, "hosts should have distinct offsets");
    }

    #[test]
    fn run_while_stops_on_predicate() {
        let mut rt = pingpong_runtime(13);
        let reached = rt.run_while(SimTime::from_secs(1.0), |nodes| nodes[1].got.len() < 2);
        assert!(reached);
        assert_eq!(rt.node(ProcessId(1)).got.len(), 2);
    }

    #[test]
    fn heartbeats_reach_the_heartbeat_handler() {
        struct HbNode {
            hb_from: Vec<usize>,
        }
        impl Node<u8> for HbNode {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if ctx.me().0 == 0 {
                    ctx.send_heartbeat(ProcessId(1));
                }
            }
            fn on_app_message(&mut self, _: &mut Ctx<'_, u8>, _: ProcessId, _: u8) {}
            fn on_heartbeat(&mut self, _: &mut Ctx<'_, u8>, from: ProcessId) {
                self.hb_from.push(from.0);
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, u8>, _: u64) {}
        }
        let mut rt = Runtime::new(
            2,
            NetParams::default(),
            quiet_host(),
            cfg(),
            SimRng::new(17),
            |_| HbNode { hb_from: vec![] },
        );
        rt.run_until(SimTime::from_secs(1.0));
        assert_eq!(rt.node(ProcessId(1)).hb_from, vec![0]);
    }
}
