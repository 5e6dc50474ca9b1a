//! Consensus **throughput** — the paper's announced future work
//! (§2.3): "Throughput should be considered in a scenario where a
//! sequence of consensus is executed, i.e., on each process, consensus
//! #(k+1) starts immediately after consensus #k has decided. Note
//! that, unlike in the definition of latency, not all processes
//! necessarily start consensus at the same time."
//!
//! This module implements exactly that scenario: every process chains
//! into the next instance the moment it decides the current one, with
//! no idle separation; throughput is the number of decided instances
//! per second over the steady-state window.

use ctsim_core::node::ConsensusNode;
use ctsim_des::{SimDuration, SimTime};
use ctsim_fd::OracleFd;
use ctsim_neko::NodeConfig;
use ctsim_neko::{Ctx, Node, ProcessId, Runtime, TimerKind};
use ctsim_netsim::{HostParams, NetParams};
use ctsim_stoch::SimRng;

use crate::campaign::Tagged;

/// One process of the throughput scenario: instance `k + 1` starts the
/// moment this process decides `k`. No failures, no suspicions.
#[derive(Debug)]
pub struct ThroughputNode {
    host: ConsensusNode<u64, OracleFd>,
    /// True time of each decision, in instance order.
    pub decided_at: Vec<SimTime>,
    /// The value of each decision, in instance order.
    pub decided_values: Vec<u64>,
}

impl ThroughputNode {
    fn new(me: ProcessId, n: usize) -> Self {
        Self {
            host: ConsensusNode::passive(me, n, OracleFd::accurate(n)),
            decided_at: Vec::new(),
            decided_values: Vec::new(),
        }
    }

    /// Chains instances: once the current engine decided, record the
    /// decision and immediately propose in the next instance — the
    /// paper's throughput scenario.
    fn chain(&mut self, ctx: &mut Ctx<'_, Tagged>) {
        let proposal = 100 + ctx.me().0 as u64;
        // Loop: replayed buffered messages may decide several
        // instances back-to-back.
        loop {
            let engine = &self.host.consensus;
            let Some(&value) = engine.decision() else {
                if engine.has_started() {
                    return;
                }
                self.host.propose(ctx, proposal);
                continue;
            };
            self.decided_at
                .push(engine.decided_at_true().expect("decided"));
            self.decided_values.push(value);
            self.host.advance(self.host.instance() + 1);
            self.host.propose(ctx, proposal);
            while self.host.replay_next(ctx) {}
        }
    }
}

impl Node<Tagged> for ThroughputNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tagged>) {
        ctx.set_timer(SimDuration::from_ms(1.0), TimerKind::Precise, 0);
    }

    fn on_app_message(&mut self, ctx: &mut Ctx<'_, Tagged>, from: ProcessId, msg: Tagged) {
        self.host.alive(ctx, from);
        if self.host.deliver(ctx, from, msg.exec as u64, msg.inner) {
            self.chain(ctx);
        }
    }

    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Tagged>, from: ProcessId) {
        self.host.alive(ctx, from);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Tagged>, token: u64) {
        if !self.host.fd_timer(ctx, token) {
            self.chain(ctx);
        }
    }
}

/// Throughput-measurement results.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Number of processes.
    pub n: usize,
    /// Instances decided (by the slowest process) in the window.
    pub decided: usize,
    /// Steady-state throughput, instances per second.
    pub per_second: f64,
    /// Mean inter-decision time (ms) in the steady window.
    pub inter_decision_ms: f64,
    /// Latency of a single isolated instance for comparison (ms).
    pub isolated_latency_ms: f64,
}

/// Runs the chained-consensus scenario for `window_ms` of simulated
/// time and reports the sustained throughput.
pub fn measure_throughput(n: usize, window_ms: f64, seed: u64) -> ThroughputResult {
    let mut rt: Runtime<Tagged, ThroughputNode> = Runtime::new(
        n,
        NetParams::default(),
        HostParams::default(),
        NodeConfig::default(),
        SimRng::new(seed),
        |p| ThroughputNode::new(p, n),
    );
    rt.run_until(SimTime::from_ms(window_ms));
    // The slowest process's count is the system's completed instances.
    let decided = (0..n)
        .map(|i| rt.node(ProcessId(i)).decided_at.len())
        .min()
        .unwrap_or(0);
    // Skip a warm-up fifth of the window for the steady-state rate.
    let warm = window_ms * 0.2;
    let counted = (0..n)
        .map(|i| {
            rt.node(ProcessId(i))
                .decided_at
                .iter()
                .filter(|t| t.as_ms() >= warm)
                .count()
        })
        .min()
        .unwrap_or(0);
    let span_s = (window_ms - warm) / 1e3;
    let per_second = counted as f64 / span_s;
    let isolated = crate::run_campaign(&crate::TestbedConfig::class1(n, 50, seed ^ 0xabcd)).mean();
    ThroughputResult {
        n,
        decided,
        per_second,
        inter_decision_ms: if per_second > 0.0 {
            1e3 / per_second
        } else {
            f64::INFINITY
        },
        isolated_latency_ms: isolated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_consensus_sustains_throughput() {
        let r = measure_throughput(3, 400.0, 5);
        assert!(r.decided > 50, "decided only {} instances", r.decided);
        assert!(r.per_second > 100.0, "throughput {}", r.per_second);
        // Pipelining cannot be slower than strictly sequential isolated
        // instances separated by their latency.
        assert!(
            r.inter_decision_ms < 2.5 * r.isolated_latency_ms,
            "inter-decision {} vs isolated latency {}",
            r.inter_decision_ms,
            r.isolated_latency_ms
        );
    }

    #[test]
    fn throughput_decreases_with_n() {
        let r3 = measure_throughput(3, 300.0, 7);
        let r5 = measure_throughput(5, 300.0, 7);
        assert!(
            r3.per_second > r5.per_second,
            "n=3 {} vs n=5 {}",
            r3.per_second,
            r5.per_second
        );
    }

    #[test]
    fn all_instances_agree() {
        // Chaining must not break safety: instances are isolated by
        // tags, so decisions per instance agree across processes.
        let n = 3;
        let mut rt: Runtime<Tagged, ThroughputNode> = Runtime::new(
            n,
            NetParams::default(),
            HostParams::default(),
            NodeConfig::default(),
            SimRng::new(11),
            |p| ThroughputNode::new(p, n),
        );
        rt.run_until(SimTime::from_ms(200.0));
        let logs: Vec<&[u64]> = rt.nodes().iter().map(|nd| &nd.decided_values[..]).collect();
        let min_len = logs.iter().map(|l| l.len()).min().unwrap();
        assert!(min_len > 10);
        let longest = logs.iter().max_by_key(|l| l.len()).unwrap();
        for (k, v) in longest.iter().enumerate() {
            assert!(
                (100..100 + n as u64).contains(v),
                "validity: instance {k} decided {v}"
            );
            for (i, log) in logs.iter().enumerate() {
                if let Some(d) = log.get(k) {
                    assert_eq!(d, v, "agreement: instance {k} at p{}", i + 1);
                }
            }
        }
        // Decision *times* are ordered per process (chained).
        for nd in rt.nodes() {
            assert_eq!(nd.decided_at.len(), nd.decided_values.len());
            assert!(nd.decided_at.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
