//! Atomic broadcast by reduction to consensus (Chandra & Toueg).
//!
//! This is the paper's motivating application (§2.3): a service
//! replicated with active replication receives client requests through
//! atomic broadcast, which guarantees that all replicas see all requests
//! in the same order; atomic broadcast in turn is solved by a sequence
//! of consensus instances. A request can be delivered at a replica as
//! soon as that replica decides in the corresponding consensus — which
//! is why consensus *latency* (time to first decision) is the paper's
//! performance measure.
//!
//! The reduction: messages are disseminated with a lazy reliable
//! broadcast; undelivered message identifiers are proposed to consensus
//! instance `k`; the decided batch is delivered in a deterministic
//! order; then instance `k+1` handles the rest.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ctsim_fd::FailureDetector;
use ctsim_neko::{Ctx, Node, ProcessId};

use crate::consensus::ConsensusMsg;
use crate::node::{ConsensusNode, InstanceWire};

/// Identifier of an abroadcast message: (origin process, sequence no).
pub type MsgId = (u32, u64);

/// A decided batch: message identifiers in delivery order.
pub type Batch = Vec<MsgId>;

/// Wire messages of the atomic-broadcast stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbcastMsg<A> {
    /// Reliable-broadcast dissemination of an application message.
    Data {
        /// Origin process index.
        origin: u32,
        /// Origin-local sequence number.
        seq: u64,
        /// Application payload.
        payload: A,
    },
    /// A consensus message of instance `instance`.
    Cons {
        /// Consensus instance number (0-based).
        instance: u64,
        /// The embedded consensus message over batches.
        inner: ConsensusMsg<Batch>,
    },
}

impl<A> InstanceWire<Batch> for AbcastMsg<A> {
    fn wrap(instance: u64, inner: ConsensusMsg<Batch>) -> Self {
        AbcastMsg::Cons { instance, inner }
    }
}

/// One replica of the atomic-broadcast service.
///
/// `A` is the application payload; `F` the failure detector shared by
/// the embedded consensus instances. Instance `k + 1` starts as soon as
/// `k` has decided and there is something undelivered to propose.
#[derive(Debug)]
pub struct AbcastNode<A, F> {
    me: ProcessId,
    /// The consensus host: the failure detector (`host.fd`, public for
    /// QoS inspection) and the engine of the current instance.
    pub host: ConsensusNode<Batch, F>,
    next_seq: u64,
    /// Payloads received (reliable broadcast), keyed by id.
    store: BTreeMap<MsgId, A>,
    received: BTreeSet<MsgId>,
    decided_ids: BTreeSet<MsgId>,
    /// Ids decided but whose payload has not arrived yet.
    delivery_queue: VecDeque<MsgId>,
    /// The total order as delivered locally: (origin, seq, payload).
    delivered_log: Vec<(u32, u64, A)>,
}

impl<A, F> AbcastNode<A, F>
where
    A: Clone + Ord,
    F: FailureDetector<AbcastMsg<A>>,
{
    /// Creates a replica.
    pub fn new(me: ProcessId, n: usize, fd: F) -> Self {
        Self {
            me,
            host: ConsensusNode::passive(me, n, fd),
            next_seq: 0,
            store: BTreeMap::new(),
            received: BTreeSet::new(),
            decided_ids: BTreeSet::new(),
            delivery_queue: VecDeque::new(),
            delivered_log: Vec::new(),
        }
    }

    /// The locally delivered total order so far.
    pub fn delivered(&self) -> &[(u32, u64, A)] {
        &self.delivered_log
    }

    /// Number of consensus instances completed.
    pub fn instances_completed(&self) -> u64 {
        self.host.instance()
    }

    /// Atomically broadcasts a payload. Call from a harness-driven
    /// handler (e.g. a timer in a wrapping node).
    pub fn abroadcast(&mut self, ctx: &mut Ctx<'_, AbcastMsg<A>>, payload: A) {
        let id = (self.me.0 as u32, self.next_seq);
        self.next_seq += 1;
        self.store.insert(id, payload.clone());
        self.received.insert(id);
        ctx.broadcast_others(AbcastMsg::Data {
            origin: id.0,
            seq: id.1,
            payload,
        });
        self.maybe_start_instance(ctx);
    }

    fn undelivered(&self) -> Batch {
        self.received
            .iter()
            .filter(|id| !self.decided_ids.contains(*id))
            .copied()
            .collect()
    }

    /// Proposes in the current instance once there is something to
    /// order. Until then the engine participates passively: it buffers
    /// the rounds of the others.
    fn maybe_start_instance(&mut self, ctx: &mut Ctx<'_, AbcastMsg<A>>) {
        if self.host.consensus.has_started() {
            return;
        }
        let batch = self.undelivered();
        if !batch.is_empty() {
            self.host.propose(ctx, batch);
            self.check_decision(ctx);
        }
    }

    /// Call after anything that touched the engine: a decided instance
    /// is delivered and the next one begins.
    fn check_decision(&mut self, ctx: &mut Ctx<'_, AbcastMsg<A>>) {
        let Some(batch) = self.host.consensus.decision().cloned() else {
            return;
        };
        self.host.advance(self.host.instance() + 1);
        for id in batch {
            if self.decided_ids.insert(id) {
                self.delivery_queue.push_back(id);
            }
        }
        self.flush_deliveries();
        while self.host.replay_next(ctx) {
            self.check_decision(ctx);
            self.maybe_start_instance(ctx);
        }
        self.maybe_start_instance(ctx);
    }

    fn flush_deliveries(&mut self) {
        while let Some(id) = self.delivery_queue.front().copied() {
            let Some(p) = self.store.get(&id) else { break };
            self.delivered_log.push((id.0, id.1, p.clone()));
            self.delivery_queue.pop_front();
        }
    }
}

impl<A, F> Node<AbcastMsg<A>> for AbcastNode<A, F>
where
    A: Clone + Ord,
    F: FailureDetector<AbcastMsg<A>>,
{
    fn on_start(&mut self, ctx: &mut Ctx<'_, AbcastMsg<A>>) {
        self.host.fd.on_start(ctx);
    }

    fn on_app_message(
        &mut self,
        ctx: &mut Ctx<'_, AbcastMsg<A>>,
        from: ProcessId,
        msg: AbcastMsg<A>,
    ) {
        self.host.alive(ctx, from);
        self.check_decision(ctx);
        match msg {
            AbcastMsg::Data {
                origin,
                seq,
                payload,
            } => {
                let id = (origin, seq);
                if self.received.insert(id) {
                    self.store.insert(id, payload.clone());
                    // Lazy reliable broadcast: relay on first receipt.
                    ctx.broadcast_others(AbcastMsg::Data {
                        origin,
                        seq,
                        payload,
                    });
                    self.flush_deliveries();
                    self.maybe_start_instance(ctx);
                } else if let std::collections::btree_map::Entry::Vacant(e) = self.store.entry(id) {
                    e.insert(payload);
                    self.flush_deliveries();
                }
            }
            AbcastMsg::Cons { instance, inner } => {
                if self.host.deliver(ctx, from, instance, inner) {
                    self.check_decision(ctx);
                    self.maybe_start_instance(ctx);
                }
            }
        }
    }

    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, AbcastMsg<A>>, from: ProcessId) {
        self.host.alive(ctx, from);
        self.check_decision(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AbcastMsg<A>>, token: u64) {
        if self.host.fd_timer(ctx, token) {
            self.check_decision(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_des::{SimDuration, SimTime};
    use ctsim_fd::OracleFd;
    use ctsim_neko::{NodeConfig, Runtime, TimerKind};
    use ctsim_netsim::{HostParams, NetParams};
    use ctsim_stoch::SimRng;

    /// A wrapper node that abroadcasts a few payloads from timers.
    struct Driver {
        inner: AbcastNode<u64, OracleFd>,
        to_send: Vec<u64>,
    }

    impl Node<AbcastMsg<u64>> for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_, AbcastMsg<u64>>) {
            self.inner.on_start(ctx);
            for (k, _) in self.to_send.iter().enumerate() {
                ctx.set_timer(
                    SimDuration::from_ms(1.0 + 0.37 * k as f64),
                    TimerKind::Precise,
                    100 + k as u64,
                );
            }
        }
        fn on_app_message(
            &mut self,
            ctx: &mut Ctx<'_, AbcastMsg<u64>>,
            from: ProcessId,
            msg: AbcastMsg<u64>,
        ) {
            self.inner.on_app_message(ctx, from, msg);
        }
        fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, AbcastMsg<u64>>, from: ProcessId) {
            self.inner.on_heartbeat(ctx, from);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, AbcastMsg<u64>>, token: u64) {
            if token >= 100 {
                let k = (token - 100) as usize;
                let payload = self.to_send[k];
                self.inner.abroadcast(ctx, payload);
            } else {
                self.inner.on_timer(ctx, token);
            }
        }
    }

    fn quiet_host() -> HostParams {
        HostParams {
            gc_enabled: false,
            recv_tail_prob: 0.0,
            ..HostParams::default()
        }
    }

    fn run_abcast(n: usize, seed: u64, sends: Vec<Vec<u64>>) -> Vec<Vec<(u32, u64, u64)>> {
        let mut rt: Runtime<AbcastMsg<u64>, Driver> = Runtime::new(
            n,
            NetParams::default(),
            quiet_host(),
            NodeConfig::default(),
            SimRng::new(seed),
            |p| Driver {
                inner: AbcastNode::new(p, n, OracleFd::accurate(n)),
                to_send: sends[p.0].clone(),
            },
        );
        rt.run_until(SimTime::from_secs(2.0));
        (0..n)
            .map(|i| rt.node(ProcessId(i)).inner.delivered().to_vec())
            .collect()
    }

    #[test]
    fn single_broadcast_reaches_all_in_order() {
        let logs = run_abcast(3, 1, vec![vec![7], vec![], vec![]]);
        for log in &logs {
            assert_eq!(log, &vec![(0, 0, 7)]);
        }
    }

    #[test]
    fn total_order_is_identical_across_replicas() {
        let sends = vec![vec![10, 11], vec![20], vec![30, 31, 32]];
        let logs = run_abcast(3, 2, sends);
        let total: usize = 6;
        for log in &logs {
            assert_eq!(log.len(), total, "all messages delivered: {log:?}");
        }
        for w in logs.windows(2) {
            assert_eq!(w[0], w[1], "replicas must deliver in the same order");
        }
    }

    #[test]
    fn no_duplicates_no_invented_messages() {
        let sends = vec![vec![1, 2, 3], vec![4, 5], vec![]];
        let logs = run_abcast(3, 3, sends);
        let mut seen = std::collections::HashSet::new();
        for d in &logs[0] {
            assert!(seen.insert((d.0, d.1)), "duplicate delivery {d:?}");
            assert!((1..=5).contains(&d.2), "unknown payload {d:?}");
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn order_respects_consensus_not_send_order_ties() {
        // Concurrent sends from all three replicas still produce one
        // agreed order; run with two seeds and confirm determinism per
        // seed (the order itself may differ between seeds).
        let sends = vec![vec![100], vec![200], vec![300]];
        let a = run_abcast(3, 4, sends.clone());
        let b = run_abcast(3, 4, sends);
        assert_eq!(a, b, "same seed, same order");
    }
}
