//! The campaign runner: sequential, isolated consensus executions with
//! latency measurement and whole-experiment FD QoS estimation.

use ctsim_core::consensus::ConsensusMsg;
use ctsim_core::node::{ConsensusNode, InstanceWire};
use ctsim_des::{SimDuration, SimTime};
use ctsim_fd::{aggregate_qos, FailureDetector, FdParams, HeartbeatFd, OracleFd, QosSummary};
use ctsim_neko::{Ctx, Node, ProcessId, Runtime};
use ctsim_netsim::Traffic;
use ctsim_stoch::{OnlineStats, SimRng};

use crate::config::{FdSetup, TestbedConfig};

/// A consensus message tagged with its execution number, so that the
/// 10 ms-separated executions cannot interfere (paper §4, "isolation of
/// multiple consensus executions").
#[derive(Debug, Clone)]
pub struct Tagged {
    /// Execution index within the campaign.
    pub exec: u32,
    /// The consensus message proper.
    pub inner: ConsensusMsg<u64>,
}

impl InstanceWire<u64> for Tagged {
    fn wrap(instance: u64, inner: ConsensusMsg<u64>) -> Self {
        Tagged {
            exec: instance as u32,
            inner,
        }
    }
}

/// One process of a measurement campaign: execution `k` starts at the
/// precise timer `warmup + k·gap` on every process, whatever became of
/// execution `k − 1`. The execution timers are one series, so only the
/// next one is pending: the pending set does not grow with the number
/// of executions.
#[derive(Debug)]
struct CampaignNode<F> {
    executions: u32,
    warmup: SimDuration,
    gap: SimDuration,
    /// The failure detector persists across executions, as in §4.
    host: ConsensusNode<u64, F>,
    /// Local-clock decision stamps per execution ([`SimTime::MAX`]: none).
    decided_local: Vec<SimTime>,
    /// Rounds executed by the finished executions, and their number.
    rounds_sum: u64,
    finished: u64,
}

impl<F> CampaignNode<F> {
    fn new(me: ProcessId, cfg: &TestbedConfig, fd: F) -> Self {
        Self {
            executions: cfg.executions,
            warmup: SimDuration::from_ms(cfg.warmup_ms),
            gap: SimDuration::from_ms(cfg.isolation_gap_ms),
            host: ConsensusNode::passive(me, cfg.n, fd),
            decided_local: vec![SimTime::MAX; cfg.executions as usize],
            rounds_sum: 0,
            finished: 0,
        }
    }

    /// Call after anything that touched the engine.
    fn record_decision(&mut self) {
        if let Some(t) = self.host.consensus.decided_at_local() {
            // An engine decides once, so its stamp never changes.
            let stamp = &mut self.decided_local[self.host.instance() as usize];
            *stamp = t.min(*stamp);
        }
    }
}

impl<F: FailureDetector<Tagged>> Node<Tagged> for CampaignNode<F> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tagged>) {
        self.host.fd.on_start(ctx);
        // One precise timer per execution: all processes propose at the
        // same nominal instants (within clock-sync error), every
        // `isolation_gap` ms, exactly as the paper's harness does.
        ctx.set_timer_series(self.warmup, self.gap, self.executions.into(), 0);
    }

    fn on_app_message(&mut self, ctx: &mut Ctx<'_, Tagged>, from: ProcessId, msg: Tagged) {
        self.host.alive(ctx, from);
        self.host.deliver(ctx, from, msg.exec as u64, msg.inner);
        self.record_decision();
    }

    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Tagged>, from: ProcessId) {
        self.host.alive(ctx, from);
        self.record_decision();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Tagged>, token: u64) {
        if token < self.executions as u64 {
            if token > self.host.instance() {
                self.rounds_sum += self.host.consensus.rounds_executed();
                self.finished += 1;
                self.host.advance(ctx, token);
            }
            if !self.host.consensus.has_started() {
                self.host.propose(ctx, 100 + ctx.me().0 as u64);
            }
        } else {
            self.host.fd_timer(ctx, token);
        }
        self.record_decision();
    }
}

/// The outcome of one measurement campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Number of processes.
    pub n: usize,
    /// Latency samples (ms) of the executions in which at least one
    /// process decided, in execution order. Latency is
    /// `min_i(local decide stamp of p_i) − nominal start`, the paper's
    /// measure including its clock-sync error.
    pub latencies_ms: Vec<f64>,
    /// Per-execution latency (None = no process decided in time).
    pub per_exec: Vec<Option<f64>>,
    /// Executions with no decision before the campaign ended.
    pub undecided: usize,
    /// Mean/CI statistics over `latencies_ms`.
    pub stats: OnlineStats,
    /// Whole-experiment failure-detector QoS (class 3 only).
    pub qos: Option<QosSummary>,
    /// Mean number of rounds per finished execution.
    pub mean_rounds: f64,
    /// Total simulated time, ms.
    pub duration_ms: f64,
    /// What the emulated cluster did: events by kind, timers, messages
    /// and the peak number of pending events.
    pub traffic: Traffic,
}

impl CampaignResult {
    /// Mean latency in ms.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Half-width of the 90 % confidence interval (the paper's choice).
    pub fn ci90(&self) -> f64 {
        self.stats.ci_half_width(0.90)
    }
}

/// Runs one campaign to completion and extracts latencies and QoS.
pub fn run_campaign(cfg: &TestbedConfig) -> CampaignResult {
    cfg.validate();
    match cfg.fd {
        FdSetup::Oracle => {
            let crashed = cfg.crash.crashed_index().map(ProcessId);
            run(
                cfg,
                |_| OracleFd::suspecting(cfg.n, crashed.as_slice()),
                |_, _| None,
            )
        }
        FdSetup::Heartbeat { timeout } => run(
            cfg,
            |p| HeartbeatFd::new(p, cfg.n, FdParams::with_timeout(timeout)),
            // Whole-experiment QoS from the detectors' tallies.
            |rt, end| {
                let mut pairs = Vec::new();
                for i in 0..cfg.n {
                    let hb = &rt.node(ProcessId(i)).host.fd;
                    for j in (0..cfg.n).filter(|&j| j != i) {
                        pairs.push(hb.pair_qos(ProcessId(j), end));
                    }
                }
                Some(aggregate_qos(&pairs))
            },
        ),
    }
}

/// The campaign proper, for one kind of failure detector.
fn run<F: FailureDetector<Tagged>>(
    cfg: &TestbedConfig,
    fd: impl Fn(ProcessId) -> F,
    qos: impl FnOnce(&Runtime<Tagged, CampaignNode<F>>, SimTime) -> Option<QosSummary>,
) -> CampaignResult {
    let n = cfg.n;
    let mut rt = Runtime::new(
        n,
        cfg.net.clone(),
        cfg.host.clone(),
        cfg.node.clone(),
        SimRng::new(cfg.seed),
        |p| CampaignNode::new(p, cfg, fd(p)),
    );
    if let Some(idx) = cfg.crash.crashed_index() {
        rt.crash(ProcessId(idx));
    }
    // Let the last execution finish: generous tail.
    let horizon_ms = cfg.nominal_duration_ms() + cfg.isolation_gap_ms + 100.0;
    rt.run_until(SimTime::from_ms(horizon_ms));
    let end = rt.now();

    // Latency per execution: earliest decision stamp across processes.
    let mut per_exec: Vec<Option<f64>> = Vec::with_capacity(cfg.executions as usize);
    let mut stats = OnlineStats::new();
    let mut latencies = Vec::new();
    for k in 0..cfg.executions as usize {
        let nominal = cfg.warmup_ms + cfg.isolation_gap_ms * k as f64;
        let mut best: Option<f64> = None;
        for i in 0..n {
            let t = rt.node(ProcessId(i)).decided_local[k];
            if t != SimTime::MAX {
                let l = (t.as_ms() - nominal).max(0.0);
                best = Some(best.map_or(l, |b: f64| b.min(l)));
            }
        }
        if let Some(l) = best {
            stats.push(l);
            latencies.push(l);
        }
        per_exec.push(best);
    }
    let undecided = per_exec.iter().filter(|x| x.is_none()).count();

    let mut rounds_sum = 0u64;
    let mut rounds_cnt = 0u64;
    for node in rt.nodes() {
        rounds_sum += node.rounds_sum;
        rounds_cnt += node.finished;
    }
    let mean_rounds = if rounds_cnt == 0 {
        0.0
    } else {
        rounds_sum as f64 / rounds_cnt as f64
    };

    CampaignResult {
        n,
        latencies_ms: latencies,
        per_exec,
        undecided,
        stats,
        qos: qos(&rt, end),
        mean_rounds,
        duration_ms: end.as_ms(),
        traffic: rt.traffic(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrashScenario;

    #[test]
    fn class1_small_campaign_decides_every_execution() {
        let cfg = TestbedConfig::class1(3, 50, 42);
        let r = run_campaign(&cfg);
        assert_eq!(r.undecided, 0, "all executions decide");
        assert_eq!(r.latencies_ms.len(), 50);
        assert!(r.qos.is_none());
        let m = r.mean();
        assert!((0.4..3.0).contains(&m), "n=3 class-1 mean {m} ms");
    }

    #[test]
    fn class1_latency_grows_with_n() {
        let mean = |n: usize| run_campaign(&TestbedConfig::class1(n, 60, 1)).mean();
        let (m3, m5, m7) = (mean(3), mean(5), mean(7));
        assert!(m3 < m5 && m5 < m7, "{m3} {m5} {m7}");
    }

    #[test]
    fn class2_coordinator_crash_slower_than_class1() {
        let base = run_campaign(&TestbedConfig::class1(5, 60, 3)).mean();
        let crash =
            run_campaign(&TestbedConfig::class2(5, 60, CrashScenario::Coordinator, 3)).mean();
        // Our level-triggered suspicion check makes the first round
        // collapse immediately, so the penalty is milder than the
        // paper's near-2x; the ordering holds.
        assert!(
            crash > base * 1.1,
            "coordinator crash costs extra time: {base} vs {crash}"
        );
    }

    #[test]
    fn class3_reports_qos_and_decides() {
        // Generous timeout: few mistakes, latency near class 1.
        let cfg = TestbedConfig::class3(3, 40, 60.0, 5);
        let r = run_campaign(&cfg);
        let qos = r.qos.expect("class 3 yields QoS");
        assert!(qos.pairs == 6);
        assert!(r.undecided <= 2, "undecided {}", r.undecided);
        let m = r.mean();
        assert!((0.4..8.0).contains(&m), "mean {m}");
    }

    #[test]
    fn class3_tiny_timeout_hurts_latency_and_qos() {
        let good = run_campaign(&TestbedConfig::class3(3, 30, 60.0, 7));
        let bad = run_campaign(&TestbedConfig::class3(3, 30, 3.0, 7));
        let bq = bad.qos.expect("qos");
        // With T = 3 ms (below the 10 ms tick) mistakes are frequent.
        assert!(bq.pairs_with_mistakes >= 4, "{bq:?}");
        assert!(bq.t_mr.is_finite());
        // And consensus needs more rounds / more time on average.
        assert!(bad.mean_rounds >= good.mean_rounds);
        assert!(
            bad.mean() > good.mean(),
            "bad FD must hurt: {} vs {}",
            bad.mean(),
            good.mean()
        );
    }

    /// Every timer set is fired, dropped or still pending at most once,
    /// and each timer event popped is one of those or a deferral. The
    /// execution timers are pending one at a time, so the pending set is
    /// the same at 40 and 400 executions.
    #[test]
    fn class3_traffic_accounts_for_every_timer() {
        let r = run_campaign(&TestbedConfig::class3(3, 40, 10.0, 5));
        let t = r.traffic;
        assert!(t.cpu_events > 0 && t.hub_events > 0 && t.gc_events > 0);
        assert!(t.app_messages > 0 && t.heartbeat_messages > 0);
        assert!(
            t.coarse_timers > 0,
            "heartbeat detectors sleep on coarse timers"
        );
        assert_eq!(
            t.timer_events,
            t.timers_fired + t.timers_deferred + t.timers_dropped
        );
        assert!(t.timers_fired + t.timers_dropped <= t.timers_set());
        let longer = run_campaign(&TestbedConfig::class3(3, 400, 10.0, 5));
        assert_eq!(longer.traffic.peak_pending, t.peak_pending);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = run_campaign(&TestbedConfig::class1(3, 20, 9));
        let b = run_campaign(&TestbedConfig::class1(3, 20, 9));
        assert_eq!(a.latencies_ms, b.latencies_ms);
    }

    #[test]
    fn n1_campaign_runs() {
        let r = run_campaign(&TestbedConfig::class1(1, 10, 11));
        assert_eq!(r.undecided, 0);
        assert!(r.mean() < 1.0);
    }
}
