//! The heap of a class-3 campaign: peak bytes per execution, and heap
//! allocations per suspicion transition.
//!
//! A campaign holds what its outputs read: a decision stamp per
//! execution and process, the detectors' per-pair tallies and an event
//! queue of a few dozen events, since each process keeps only its next
//! execution timer pending. The stamps are most of the peak. Arming
//! every execution timer at time zero (515 B per execution at n = 5),
//! a log of every suspicion transition (tens of thousands per pair at
//! T = 10 ms) or an allocation per transition handed to the consensus
//! host shows here.
//!
//! The counting allocator is process-global, so this lives in its own
//! integration binary with a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ctsim_core::node::ConsensusNode;
use ctsim_des::{SimDuration, SimTime};
use ctsim_fd::{aggregate_qos, FailureDetector, FdParams, HeartbeatFd};
use ctsim_neko::{Ctx, Node, ProcessId, Runtime, TimerKind};
use ctsim_stoch::SimRng;
use ctsim_testbed::{run_campaign, FdSetup, Tagged, TestbedConfig};

/// The system allocator, counting live bytes, their peak and the
/// allocations made.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// that allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(size);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const EXECUTIONS: u32 = 1000;
/// Peak heap bytes per execution the campaign may reach: 93 measured,
/// plus half of that for allocator and layout drift.
const PEAK_BYTES_PER_EXECUTION: f64 = 140.0;
/// Heap allocations per suspicion transition the campaign may make.
const ALLOCS_PER_TRANSITION: f64 = 0.05;

/// The campaign's process policy, rebuilt on the public host so that
/// its detectors can be read after the run: execution `k` starts at
/// the precise timer `warmup + k·gap`, whatever became of `k − 1`.
/// It arms every execution timer at start through [`Ctx::set_timer`],
/// where the campaign sets one lazily armed series, so the equal QoS
/// asserted below also checks the series against eager timers.
struct Exec {
    host: ConsensusNode<u64, HeartbeatFd>,
    executions: u64,
    warmup: SimDuration,
    gap: SimDuration,
}

impl Node<Tagged> for Exec {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tagged>) {
        self.host.fd.on_start(ctx);
        for k in 0..self.executions {
            ctx.set_timer(self.warmup + self.gap * k, TimerKind::Precise, k);
        }
    }
    fn on_app_message(&mut self, ctx: &mut Ctx<'_, Tagged>, from: ProcessId, msg: Tagged) {
        self.host.alive(ctx, from);
        self.host.deliver(ctx, from, msg.exec as u64, msg.inner);
    }
    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Tagged>, from: ProcessId) {
        self.host.alive(ctx, from);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Tagged>, token: u64) {
        if token >= self.executions {
            self.host.fd_timer(ctx, token);
            return;
        }
        if token > self.host.instance() {
            self.host.advance(ctx, token);
        }
        if !self.host.consensus.has_started() {
            self.host.propose(ctx, 100 + ctx.me().0 as u64);
        }
    }
}

#[test]
fn class3_campaign_peak_heap_and_allocations_per_transition() {
    let cfg = TestbedConfig::class3(5, EXECUTIONS, 10.0, 20020623);
    let FdSetup::Heartbeat { timeout } = cfg.fd else {
        unreachable!("class 3 runs heartbeat detectors")
    };

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let r = run_campaign(&cfg);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;

    // The same campaign on the public host: the same event stream, so
    // its detectors saw the campaign's transitions.
    let n = cfg.n;
    let mut rt = Runtime::new(
        n,
        cfg.net.clone(),
        cfg.host.clone(),
        cfg.node.clone(),
        SimRng::new(cfg.seed),
        |p| Exec {
            host: ConsensusNode::passive(
                p,
                n,
                HeartbeatFd::new(p, n, FdParams::with_timeout(timeout)),
            ),
            executions: EXECUTIONS as u64,
            warmup: SimDuration::from_ms(cfg.warmup_ms),
            gap: SimDuration::from_ms(cfg.isolation_gap_ms),
        },
    );
    rt.run_until(SimTime::from_ms(
        cfg.nominal_duration_ms() + cfg.isolation_gap_ms + 100.0,
    ));
    let end = rt.now();
    let pairs: Vec<_> = (0..n)
        .flat_map(|i| {
            let fd = &rt.node(ProcessId(i)).host.fd;
            (0..n)
                .filter(move |&j| j != i)
                .map(move |j| fd.pair_qos(ProcessId(j), end))
        })
        .collect();
    assert_eq!(
        Some(aggregate_qos(&pairs)),
        r.qos,
        "the rebuilt campaign saw other transitions"
    );
    assert_eq!(end.as_ms(), r.duration_ms);
    let transitions: u64 = pairs.iter().map(|q| q.n_ts + q.n_st).sum();

    assert_eq!(r.undecided, 0);
    assert!(
        transitions > 100 * EXECUTIONS as u64,
        "{transitions} transitions"
    );
    let per_execution = peak as f64 / EXECUTIONS as f64;
    let per_transition = allocs as f64 / transitions as f64;
    eprintln!(
        "peak {peak} B ({per_execution:.0} B/execution), {allocs} allocations \
         for {transitions} transitions ({per_transition:.4} each)"
    );
    assert!(
        per_execution <= PEAK_BYTES_PER_EXECUTION,
        "peak heap {peak} B: {per_execution:.0} B/execution, bound {PEAK_BYTES_PER_EXECUTION}"
    );
    assert!(
        per_transition <= ALLOCS_PER_TRANSITION,
        "{allocs} allocations for {transitions} transitions: {per_transition:.3} each, \
         bound {ALLOCS_PER_TRANSITION}"
    );
}
