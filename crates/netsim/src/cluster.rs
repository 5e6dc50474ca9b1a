//! The cluster simulator: per-host CPUs, one shared hub, TCP batching
//! effects, coarse timers, and stop-the-world pauses.
//!
//! [`ClusterNet`] is driven by repeatedly calling
//! [`ClusterNet::advance`], which processes internal pipeline events
//! (CPU job completions, hub transmissions, Nagle flushes, GC pauses)
//! silently and returns only *observable* occurrences: message
//! deliveries and timer firings. The caller (the `ctsim-neko` runtime)
//! dispatches those to protocol code, which reacts by calling
//! [`ClusterNet::send`], [`ClusterNet::charge`] and
//! [`ClusterNet::set_timer`].
//!
//! # Timers
//!
//! A pending timer lives only in the event queue: its event carries the
//! host and the caller's token, so firing it needs no lookup. Timers
//! cannot be cancelled: protocols ignore a stale token or re-arm instead
//! (the heartbeat detector re-reads the silence at each wake-up). A
//! timer of a crashed host is dropped when it comes due. A timer that
//! comes due during a host's stop-the-world pause is re-queued at the
//! pause end with a fresh sequence number, so it fires after whatever
//! was already due at that instant. A queue event is 16 bytes: it
//! carries host indices as `u16`, so a cluster has at most 65 536 hosts.
//!
//! [`ClusterNet::set_timer_series`] sets `count` precise timers a period
//! apart but keeps only the next one in the queue: timer `k + 1` is
//! armed when timer `k`'s event is popped, whether it then fires, is
//! deferred or is dropped. The series reserves its sequence numbers and
//! advances the host's RNG past its jitter draws when it is set, and
//! draws the jitters later from a copy of the RNG taken then, so every
//! event, time and sample is the one `count` calls of
//! [`ClusterNet::set_timer`] would have made.
//!
//! [`ClusterNet::traffic`] counts what the cluster did: events by kind,
//! timers, messages and the peak number of pending events.

use std::collections::VecDeque;

use ctsim_des::{EventQueue, SimDuration, SimTime};
use ctsim_stoch::SimRng;

use crate::params::{HostId, HostParams, MsgClass, NetParams};

/// How a timer's wake-up time is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// A thread `sleep()`: quantized up to the scheduler tick plus up to
    /// one extra tick (Linux 2.2 semantics). Failure detectors use this.
    Coarse,
    /// A native-clock wait with microsecond-scale jitter (the paper's
    /// custom 1 µs C clock). The measurement harness uses this.
    Precise,
}

/// Plain-field counts of what a [`ClusterNet`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// CPU job completions popped from the event queue.
    pub cpu_events: u64,
    /// Hub frame completions popped.
    pub hub_events: u64,
    /// Timer events popped: fired, deferred or dropped.
    pub timer_events: u64,
    /// Stop-the-world pause starts popped.
    pub gc_events: u64,
    /// Nagle flushes popped, superseded ones included.
    pub nagle_events: u64,
    /// [`TimerKind::Precise`] timers set.
    pub precise_timers: u64,
    /// [`TimerKind::Coarse`] timers set.
    pub coarse_timers: u64,
    /// Timers delivered to their host.
    pub timers_fired: u64,
    /// Timer events re-queued at the end of a pause.
    pub timers_deferred: u64,
    /// Timers dropped because their host had crashed.
    pub timers_dropped: u64,
    /// Application messages submitted by live hosts.
    pub app_messages: u64,
    /// Heartbeats submitted by live hosts.
    pub heartbeat_messages: u64,
    /// Messages that completed their receive path.
    pub delivered: u64,
    /// The most events pending at once.
    pub peak_pending: u64,
}

impl Traffic {
    /// Timers set, of either kind.
    pub fn timers_set(&self) -> u64 {
        self.precise_timers + self.coarse_timers
    }
}

/// An observable occurrence returned by [`ClusterNet::advance`].
#[derive(Debug)]
pub enum Delivery<P> {
    /// A message finished its receive path and reaches the application.
    Message {
        /// True time of delivery.
        at: SimTime,
        /// Sending host.
        from: HostId,
        /// Receiving host.
        to: HostId,
        /// Traffic class.
        class: MsgClass,
        /// The payload handed to [`ClusterNet::send`].
        payload: P,
    },
    /// A timer fired.
    Timer {
        /// True time of the wake-up.
        at: SimTime,
        /// Host whose timer fired.
        host: HostId,
        /// Caller-chosen token identifying the timer's purpose.
        token: u64,
    },
}

#[derive(Debug)]
struct Msg<P> {
    from: HostId,
    to: HostId,
    class: MsgClass,
    bytes: u32,
    payload: P,
}

#[derive(Debug)]
enum JobKind<P> {
    Send(Msg<P>),
    Recv(Msg<P>),
    /// Handler work billed via [`ClusterNet::charge`].
    Work,
    /// A stop-the-world pause.
    Gc,
}

#[derive(Debug)]
struct Job<P> {
    kind: JobKind<P>,
    cost: SimDuration,
}

struct Host<P> {
    params: HostParams,
    rng: SimRng,
    queue: VecDeque<Job<P>>,
    current: Option<JobKind<P>>,
    busy: bool,
    crashed: bool,
    gc_until: SimTime,
}

#[derive(Debug, Default)]
struct NagleGate {
    blocked: bool,
    epoch: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    CpuDone(u16),
    HubDone,
    NagleFlush { from: u16, to: u16, epoch: u64 },
    GcStart(u16),
    Timer { host: u16, token: u64 },
    Series(u32),
}

/// A precise-timer series (see the [module docs](self)): timer `k` is due
/// at `set_at + (first + period·k + jitter_k)` with token `token0 + k`,
/// under sequence number `seq0 + k`; `next` is the timer in the queue.
struct TimerSeries {
    host: u16,
    set_at: SimTime,
    first: SimDuration,
    period: SimDuration,
    count: u64,
    token0: u64,
    seq0: u64,
    next: u64,
    /// The host's RNG as it was when the series was set.
    rng: SimRng,
}

/// The simulated cluster (see the [crate docs](crate)).
pub struct ClusterNet<P> {
    net: NetParams,
    hosts: Vec<Host<P>>,
    // Pending heartbeats held by Nagle, per ordered pair (from, to).
    nagle: Vec<Vec<NagleGate>>,
    nagle_pending: Vec<Vec<Vec<Msg<P>>>>,
    hub_queue: VecDeque<Msg<P>>,
    hub_busy: bool,
    hub_current: Option<Msg<P>>,
    queue: EventQueue<Ev>,
    /// The timer series; `Ev::Series(i)` is the next timer of `series[i]`.
    series: Vec<TimerSeries>,
    rng: SimRng,
    /// While a handler runs, jobs for this host are inserted at the
    /// front of its CPU queue in submission order.
    handler: Option<(usize, usize)>,
    traffic: Traffic,
}

impl<P> std::fmt::Debug for ClusterNet<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNet")
            .field("hosts", &self.hosts.len())
            .field("now", &self.queue.now())
            .field("traffic", &self.traffic)
            .finish()
    }
}

impl<P> ClusterNet<P> {
    /// Builds a cluster of `n` ≤ 65 536 hosts with identical parameters.
    pub fn new(n: usize, net: NetParams, host_params: HostParams, rng: SimRng) -> Self {
        assert!(n <= 1 << 16, "at most 65 536 hosts");
        let mut queue = EventQueue::new();
        let mut hosts = Vec::with_capacity(n);
        for i in 0..n {
            let mut hrng = rng.substream(1000 + i as u64);
            if host_params.gc_enabled {
                let first = SimDuration::from_ms(host_params.gc_interval.sample(&mut hrng));
                queue.schedule_at(SimTime::ZERO + first, Ev::GcStart(i as u16));
            }
            hosts.push(Host {
                params: host_params.clone(),
                rng: hrng,
                queue: VecDeque::new(),
                current: None,
                busy: false,
                crashed: false,
                gc_until: SimTime::ZERO,
            });
        }
        Self {
            net,
            hosts,
            nagle: (0..n)
                .map(|_| (0..n).map(|_| NagleGate::default()).collect())
                .collect(),
            nagle_pending: (0..n)
                .map(|_| (0..n).map(|_| Vec::new()).collect())
                .collect(),
            hub_queue: VecDeque::new(),
            hub_busy: false,
            hub_current: None,
            queue,
            series: Vec::new(),
            rng: rng.substream(1),
            handler: None,
            traffic: Traffic::default(),
        }
    }

    /// Current (true) simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// What the cluster has done so far (see [`Traffic`]).
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Crashes a host: everything queued is dropped, no further sends,
    /// deliveries or timers happen on it.
    pub fn crash_host(&mut self, h: HostId) {
        let host = &mut self.hosts[h.0];
        host.crashed = true;
        host.queue.clear();
    }

    /// Whether a host is crashed.
    pub fn is_crashed(&self, h: HostId) -> bool {
        self.hosts[h.0].crashed
    }

    /// Submits a message. `from == to` models local loopback delivery
    /// (no hub). Crashed senders send nothing.
    pub fn send(&mut self, from: HostId, to: HostId, class: MsgClass, bytes: u32, payload: P) {
        if self.hosts[from.0].crashed {
            return;
        }
        match class {
            MsgClass::App => self.traffic.app_messages += 1,
            MsgClass::Heartbeat => self.traffic.heartbeat_messages += 1,
        }
        let msg = Msg {
            from,
            to,
            class,
            bytes,
            payload,
        };
        if from == to {
            let cost = {
                let host = &mut self.hosts[to.0];
                SimDuration::from_ms(host.params.recv_cost.sample(&mut host.rng))
            };
            self.cpu_enqueue(
                to.0,
                Job {
                    kind: JobKind::Recv(msg),
                    cost,
                },
            );
        } else {
            let cost = {
                let host = &mut self.hosts[from.0];
                SimDuration::from_ms(host.params.send_cost.sample(&mut host.rng))
            };
            self.cpu_enqueue(
                from.0,
                Job {
                    kind: JobKind::Send(msg),
                    cost,
                },
            );
        }
    }

    /// Bills handler work on a host's CPU: the time the protocol layer
    /// spends reacting to the message just delivered. Runs before any
    /// previously queued job (the handler is executing *now*).
    pub fn charge(&mut self, h: HostId, cost_ms: f64) {
        if self.hosts[h.0].crashed || cost_ms <= 0.0 {
            return;
        }
        self.cpu_enqueue(
            h.0,
            Job {
                kind: JobKind::Work,
                cost: SimDuration::from_ms(cost_ms),
            },
        );
    }

    /// Marks the start of a protocol handler on `h`: until
    /// [`ClusterNet::end_handler`], jobs submitted for `h` (charges and
    /// sends) are placed ahead of previously queued jobs, in submission
    /// order — they are part of the currently executing handler.
    pub fn begin_handler(&mut self, h: HostId) {
        self.handler = Some((h.0, 0));
    }

    /// Ends the handler window opened by [`ClusterNet::begin_handler`].
    pub fn end_handler(&mut self) {
        self.handler = None;
    }

    /// Sets a timer on a host. The true wake-up time depends on the
    /// [`TimerKind`]. A timer cannot be cancelled (see the [module
    /// docs](self)).
    pub fn set_timer(&mut self, h: HostId, delay: SimDuration, kind: TimerKind, token: u64) {
        let host = &mut self.hosts[h.0];
        let actual = match kind {
            TimerKind::Coarse => {
                self.traffic.coarse_timers += 1;
                let g = host.params.timer_granularity;
                let d = delay.as_ms();
                let ticks = (d / g).ceil().max(1.0);
                let extra = host.params.timer_extra.sample(&mut host.rng);
                SimDuration::from_ms(ticks * g + extra)
            }
            TimerKind::Precise => {
                self.traffic.precise_timers += 1;
                let j = host.params.precise_timer_jitter.sample(&mut host.rng);
                delay + SimDuration::from_ms(j)
            }
        };
        let (at, host) = (self.queue.now() + actual, h.0 as u16);
        self.queue.schedule_at(at, Ev::Timer { host, token });
    }

    /// Sets `count` precise timers on a host, as `count` calls of
    /// [`ClusterNet::set_timer`] with delay `first + period·k`, kind
    /// [`TimerKind::Precise`] and token `token0 + k` would, but with only
    /// the next one pending (see the [module docs](self)).
    ///
    /// # Panics
    /// Panics if the host's precise-timer jitter can exceed `period`:
    /// two timers of the series could then fire out of order, which a
    /// series that arms one timer at a time cannot reproduce.
    pub fn set_timer_series(
        &mut self,
        h: HostId,
        first: SimDuration,
        period: SimDuration,
        count: u64,
        token0: u64,
    ) {
        if count == 0 {
            return;
        }
        let host = &mut self.hosts[h.0];
        let jitter = &host.params.precise_timer_jitter;
        assert!(
            jitter.cdf(period.as_ms()) >= 1.0,
            "a precise-timer jitter can exceed the series period"
        );
        self.traffic.precise_timers += count;
        let rng = host.rng.clone();
        for _ in 0..count {
            jitter.sample(&mut host.rng);
        }
        let id = u32::try_from(self.series.len()).expect("at most 2^32 timer series");
        self.series.push(TimerSeries {
            host: h.0 as u16,
            set_at: self.queue.now(),
            first,
            period,
            count,
            token0,
            seq0: self.queue.reserve_seqs(count),
            next: 0,
            rng,
        });
        self.arm_series(id);
    }

    /// Queues the next timer of series `id` under its reserved sequence
    /// number.
    fn arm_series(&mut self, id: u32) {
        let s = &mut self.series[id as usize];
        let params = &self.hosts[usize::from(s.host)].params;
        let j = params.precise_timer_jitter.sample(&mut s.rng);
        let at = s.set_at + (s.first + s.period * s.next + SimDuration::from_ms(j));
        self.queue
            .schedule_reserved(at, s.seq0 + s.next, Ev::Series(id));
    }

    /// A timer event of `host` came due at `now`: drops it on a crashed
    /// host, defers it past a pause, or returns its delivery.
    fn timer_due(&mut self, now: SimTime, host: u16, token: u64) -> Option<Delivery<P>> {
        self.traffic.timer_events += 1;
        if self.hosts[usize::from(host)].crashed {
            self.traffic.timers_dropped += 1;
            return None;
        }
        // A stop-the-world pause delays thread wake-ups.
        let until = self.hosts[usize::from(host)].gc_until;
        if now < until {
            self.traffic.timers_deferred += 1;
            self.queue.schedule_at(until, Ev::Timer { host, token });
            return None;
        }
        self.traffic.timers_fired += 1;
        Some(Delivery::Timer {
            at: now,
            host: HostId(host.into()),
            token,
        })
    }

    /// Processes internal events until the next observable occurrence at
    /// or before `horizon`. Returns `None` when no further occurrence
    /// exists within the horizon (time stops at the last processed
    /// event).
    pub fn advance(&mut self, horizon: SimTime) -> Option<Delivery<P>> {
        loop {
            self.start_idle_resources();
            let t = self.queue.peek_time()?;
            if t > horizon {
                return None;
            }
            let pending = self.queue.len() as u64;
            self.traffic.peak_pending = self.traffic.peak_pending.max(pending);
            let (now, ev) = self.queue.pop().expect("peeked");
            match ev {
                Ev::CpuDone(h) => {
                    let h = usize::from(h);
                    self.traffic.cpu_events += 1;
                    let kind = {
                        let host = &mut self.hosts[h];
                        host.busy = false;
                        host.current.take()
                    };
                    let Some(kind) = kind else { continue };
                    if self.hosts[h].crashed {
                        continue;
                    }
                    match kind {
                        JobKind::Send(msg) => self.on_send_path_done(msg),
                        JobKind::Recv(msg) => {
                            self.traffic.delivered += 1;
                            return Some(Delivery::Message {
                                at: now,
                                from: msg.from,
                                to: msg.to,
                                class: msg.class,
                                payload: msg.payload,
                            });
                        }
                        JobKind::Work | JobKind::Gc => {}
                    }
                }
                Ev::HubDone => {
                    self.traffic.hub_events += 1;
                    self.hub_busy = false;
                    let Some(msg) = self.hub_current.take() else {
                        continue;
                    };
                    let to = msg.to.0;
                    if self.hosts[to].crashed {
                        continue;
                    }
                    let cost = {
                        let host = &mut self.hosts[to];
                        let mut c = host.params.recv_cost.sample(&mut host.rng);
                        let p = host.params.recv_tail_prob;
                        if host.rng.chance(p) {
                            c += host.params.recv_tail.sample(&mut host.rng);
                        }
                        SimDuration::from_ms(c)
                    };
                    self.cpu_enqueue(
                        to,
                        Job {
                            kind: JobKind::Recv(msg),
                            cost,
                        },
                    );
                }
                Ev::NagleFlush { from, to, epoch } => {
                    let (from, to) = (usize::from(from), usize::from(to));
                    self.traffic.nagle_events += 1;
                    if self.nagle[from][to].epoch != epoch {
                        continue; // superseded by an app-message flush
                    }
                    let pending = std::mem::take(&mut self.nagle_pending[from][to]);
                    if pending.is_empty() {
                        self.nagle[from][to].blocked = false;
                    } else {
                        for m in pending {
                            self.hub_queue.push_back(m);
                        }
                        // The released batch is again unacknowledged.
                        let e = self.bump_nagle_epoch(from, to);
                        self.schedule_nagle_flush(from, to, e);
                    }
                }
                Ev::GcStart(g) => {
                    let h = usize::from(g);
                    self.traffic.gc_events += 1;
                    let (dur, next) = {
                        let host = &mut self.hosts[h];
                        (
                            host.params.gc_duration.sample(&mut host.rng),
                            host.params.gc_interval.sample(&mut host.rng),
                        )
                    };
                    self.queue
                        .schedule_in(SimDuration::from_ms(dur.max(0.0) + next), Ev::GcStart(g));
                    if !self.hosts[h].crashed {
                        // The pause preempts: goes to the queue front.
                        self.hosts[h].queue.push_front(Job {
                            kind: JobKind::Gc,
                            cost: SimDuration::from_ms(dur),
                        });
                    }
                }
                Ev::Timer { host, token } => {
                    if let Some(d) = self.timer_due(now, host, token) {
                        return Some(d);
                    }
                }
                Ev::Series(id) => {
                    let s = &mut self.series[id as usize];
                    let (host, token) = (s.host, s.token0 + s.next);
                    s.next += 1;
                    if s.next < s.count {
                        self.arm_series(id);
                    }
                    if let Some(d) = self.timer_due(now, host, token) {
                        return Some(d);
                    }
                }
            }
        }
    }

    fn bump_nagle_epoch(&mut self, from: usize, to: usize) -> u64 {
        let gate = &mut self.nagle[from][to];
        gate.blocked = true;
        gate.epoch += 1;
        gate.epoch
    }

    fn schedule_nagle_flush(&mut self, from: usize, to: usize, epoch: u64) {
        let ack = self.net.delayed_ack.sample(&mut self.rng);
        let (from, to) = (from as u16, to as u16);
        self.queue.schedule_in(
            SimDuration::from_ms(ack),
            Ev::NagleFlush { from, to, epoch },
        );
    }

    /// A message finished its sender-side CPU work: route it to the hub,
    /// subject to Nagle batching for heartbeat traffic.
    fn on_send_path_done(&mut self, msg: Msg<P>) {
        let (from, to) = (msg.from.0, msg.to.0);
        match msg.class {
            MsgClass::Heartbeat if self.net.nagle_on_heartbeats => {
                if self.nagle[from][to].blocked {
                    self.nagle_pending[from][to].push(msg);
                } else {
                    self.hub_queue.push_back(msg);
                    let e = self.bump_nagle_epoch(from, to);
                    self.schedule_nagle_flush(from, to, e);
                }
            }
            _ => {
                // Application traffic flushes pending heartbeats on the
                // same connection (piggybacked acknowledgements) and is
                // never delayed itself.
                let pending = std::mem::take(&mut self.nagle_pending[from][to]);
                for m in pending {
                    self.hub_queue.push_back(m);
                }
                let gate = &mut self.nagle[from][to];
                gate.blocked = false;
                gate.epoch += 1; // invalidate any scheduled flush
                self.hub_queue.push_back(msg);
            }
        }
    }

    fn cpu_enqueue(&mut self, h: usize, job: Job<P>) {
        let insert_at = match &mut self.handler {
            Some((hh, cursor)) if *hh == h => {
                let pos = (*cursor).min(self.hosts[h].queue.len());
                *cursor += 1;
                Some(pos)
            }
            _ => None,
        };
        match insert_at {
            Some(pos) => self.hosts[h].queue.insert(pos, job),
            None => self.hosts[h].queue.push_back(job),
        }
    }

    fn start_idle_resources(&mut self) {
        let now = self.queue.now();
        for h in 0..self.hosts.len() {
            let host = &mut self.hosts[h];
            if !host.busy {
                if let Some(job) = host.queue.pop_front() {
                    host.busy = true;
                    if matches!(job.kind, JobKind::Gc) {
                        host.gc_until = now + job.cost;
                    }
                    host.current = Some(job.kind);
                    self.queue.schedule_in(job.cost, Ev::CpuDone(h as u16));
                }
            }
        }
        if !self.hub_busy {
            if let Some(msg) = self.hub_queue.pop_front() {
                self.hub_busy = true;
                let ft = SimDuration::from_ms(self.net.frame_time_ms(msg.bytes));
                self.hub_current = Some(msg);
                self.queue.schedule_in(ft, Ev::HubDone);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_stoch::Dist;

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

    fn cluster(n: usize) -> ClusterNet<u32> {
        ClusterNet::new(n, NetParams::default(), quiet_host(), SimRng::new(9))
    }

    fn nagle_params() -> NetParams {
        NetParams {
            nagle_on_heartbeats: true,
            ..NetParams::default()
        }
    }

    fn drain(net: &mut ClusterNet<u32>, horizon: SimTime) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(d) = net.advance(horizon) {
            if let Delivery::Message { at, payload, .. } = d {
                out.push((at, payload));
            }
        }
        out
    }

    #[test]
    fn unicast_delivery_time_is_send_hub_recv() {
        let mut net = cluster(2);
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 7);
        let got = drain(&mut net, SimTime::from_secs(1.0));
        assert_eq!(got.len(), 1);
        let e2e = got[0].0.as_ms();
        let expect = 0.06 + NetParams::default().frame_time_ms(100) + 0.03;
        assert!((e2e - expect).abs() < 1e-9, "e2e {e2e} expect {expect}");
        assert_eq!(got[0].1, 7);
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        let mut net = cluster(2);
        for k in 0..20 {
            net.send(HostId(0), HostId(1), MsgClass::App, 100, k);
        }
        let got = drain(&mut net, SimTime::from_secs(1.0));
        let payloads: Vec<u32> = got.iter().map(|&(_, p)| p).collect();
        assert_eq!(payloads, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn sender_cpu_serializes_sends() {
        let mut net = cluster(3);
        // Two sends from host 0: the second waits for the first's CPU.
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 1);
        net.send(HostId(0), HostId(2), MsgClass::App, 100, 2);
        let got = drain(&mut net, SimTime::from_secs(1.0));
        let dt = (got[1].0 - got[0].0).as_ms();
        // Second message leaves the CPU 0.06 later; hub adds its slot.
        assert!(dt >= 0.059, "serialization gap {dt}");
    }

    #[test]
    fn hub_serializes_concurrent_senders() {
        let mut net = cluster(3);
        // Two hosts send simultaneously to host 2: frames serialize.
        net.send(HostId(0), HostId(2), MsgClass::App, 1000, 1);
        net.send(HostId(1), HostId(2), MsgClass::App, 1000, 2);
        let got = drain(&mut net, SimTime::from_secs(1.0));
        assert_eq!(got.len(), 2);
        let ft = NetParams::default().frame_time_ms(1000);
        let dt = (got[1].0 - got[0].0).as_ms();
        // Receiver CPU also serializes (0.03 each), so the gap is at
        // least the larger of frame time and recv cost.
        assert!(dt >= ft.max(0.03) - 1e-9, "gap {dt} < {ft}");
    }

    #[test]
    fn self_send_skips_the_hub() {
        let mut net = cluster(2);
        net.send(HostId(0), HostId(0), MsgClass::App, 100, 5);
        let got = drain(&mut net, SimTime::from_secs(1.0));
        assert_eq!(got.len(), 1);
        assert!(
            (got[0].0.as_ms() - 0.03).abs() < 1e-9,
            "loopback pays recv only"
        );
    }

    #[test]
    fn crashed_host_sends_and_receives_nothing() {
        let mut net = cluster(3);
        net.crash_host(HostId(1));
        net.send(HostId(1), HostId(0), MsgClass::App, 100, 1); // dropped
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 2); // dropped at recv
        net.send(HostId(0), HostId(2), MsgClass::App, 100, 3); // delivered
        let got = drain(&mut net, SimTime::from_secs(1.0));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 3);
    }

    #[test]
    fn charge_delays_subsequent_deliveries() {
        let mut net = cluster(2);
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 1);
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 2);
        let d1 = net.advance(SimTime::from_secs(1.0)).expect("first");
        let t1 = match d1 {
            Delivery::Message { at, .. } => at,
            _ => panic!(),
        };
        // Handler of message 1 burns 0.5 ms on host 1.
        net.charge(HostId(1), 0.5);
        let d2 = net.advance(SimTime::from_secs(1.0)).expect("second");
        let t2 = match d2 {
            Delivery::Message { at, .. } => at,
            _ => panic!(),
        };
        assert!((t2 - t1).as_ms() >= 0.5, "second delivery delayed by work");
    }

    #[test]
    fn precise_timer_fires_near_deadline() {
        let mut net = cluster(1);
        net.set_timer(HostId(0), SimDuration::from_ms(5.0), TimerKind::Precise, 42);
        match net.advance(SimTime::from_secs(1.0)) {
            Some(Delivery::Timer { at, host, token }) => {
                assert_eq!(host, HostId(0));
                assert_eq!(token, 42);
                let lag = at.as_ms() - 5.0;
                assert!((0.0..0.06).contains(&lag), "precise lag {lag}");
            }
            other => panic!("expected timer, got {other:?}"),
        }
    }

    #[test]
    fn coarse_timer_is_quantized_to_the_tick() {
        let mut net = cluster(1);
        // A 0.7 ms sleep on a 10 ms tick wakes between 10 and 20 ms.
        net.set_timer(HostId(0), SimDuration::from_ms(0.7), TimerKind::Coarse, 1);
        match net.advance(SimTime::from_secs(1.0)) {
            Some(Delivery::Timer { at, .. }) => {
                let t = at.as_ms();
                assert!((10.0..=20.0).contains(&t), "coarse wake at {t}");
            }
            other => panic!("expected timer, got {other:?}"),
        }
    }

    #[test]
    fn heartbeats_batch_under_nagle() {
        let mut net: ClusterNet<u32> =
            ClusterNet::new(2, nagle_params(), quiet_host(), SimRng::new(9));
        // First heartbeat goes out immediately; the next ones are held
        // until the delayed-ack flush (~35-45 ms).
        for k in 0..4 {
            net.send(HostId(0), HostId(1), MsgClass::Heartbeat, 100, k);
        }
        let got = drain(&mut net, SimTime::from_secs(1.0));
        assert_eq!(got.len(), 4);
        let t0 = got[0].0.as_ms();
        assert!(t0 < 1.0, "first heartbeat unimpeded, at {t0}");
        let t1 = got[1].0.as_ms();
        assert!(
            (35.0..=47.0).contains(&(t1 - t0)),
            "second heartbeat released by the delayed-ack flush: {}",
            t1 - t0
        );
        // The batch (2,3,4) is released together.
        assert!(got[3].0.as_ms() - t1 < 1.0);
    }

    #[test]
    fn app_message_flushes_pending_heartbeats() {
        let mut net: ClusterNet<u32> =
            ClusterNet::new(2, nagle_params(), quiet_host(), SimRng::new(9));
        net.send(HostId(0), HostId(1), MsgClass::Heartbeat, 100, 0);
        net.send(HostId(0), HostId(1), MsgClass::Heartbeat, 100, 1); // held
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 2); // flushes
        let got = drain(&mut net, SimTime::from_secs(1.0));
        assert_eq!(got.len(), 3);
        // All three arrive quickly; heartbeat 1 precedes the app message.
        assert!(
            got[2].0.as_ms() < 2.0,
            "no 40 ms stall: {}",
            got[2].0.as_ms()
        );
        let payloads: Vec<u32> = got.iter().map(|&(_, p)| p).collect();
        assert_eq!(payloads, vec![0, 1, 2]);
    }

    #[test]
    fn gc_pause_delays_timers_and_work() {
        let mut params = quiet_host();
        params.gc_enabled = true;
        params.gc_interval = Dist::Det(5.0);
        params.gc_duration = Dist::Det(20.0);
        let mut net: ClusterNet<u32> =
            ClusterNet::new(1, NetParams::default(), params, SimRng::new(1));
        // Timer nominally at 6 ms lands inside the 5-25 ms pause.
        net.set_timer(HostId(0), SimDuration::from_ms(6.0), TimerKind::Precise, 9);
        match net.advance(SimTime::from_ms(100.0)) {
            Some(Delivery::Timer { at, .. }) => {
                let t = at.as_ms();
                assert!(
                    (24.9..=25.2).contains(&t),
                    "timer deferred to pause end: {t}"
                );
            }
            other => panic!("expected timer, got {other:?}"),
        }
    }

    /// A timer that lands in a pause is re-queued at the pause end with
    /// a fresh sequence number, so it fires after everything already
    /// due at that instant and before anything queued there later.
    #[test]
    fn gc_deferred_timers_queue_behind_what_was_due_at_pause_end() {
        let mut params = quiet_host();
        params.recv_cost = Dist::Det(0.0);
        params.precise_timer_jitter = Dist::Det(0.0);
        params.gc_enabled = true;
        params.gc_interval = Dist::Det(5.0);
        params.gc_duration = Dist::Det(20.0);
        let mut net: ClusterNet<u32> =
            ClusterNet::new(1, NetParams::default(), params, SimRng::new(1));
        let h = HostId(0);
        // Set in this order at t = 0; the pause runs from 5 to 25 ms.
        net.set_timer(h, SimDuration::from_ms(6.0), TimerKind::Precise, 1);
        net.set_timer(h, SimDuration::from_ms(7.0), TimerKind::Precise, 2);
        net.set_timer(h, SimDuration::from_ms(25.0), TimerKind::Precise, 3);
        assert!(net.advance(SimTime::from_ms(10.0)).is_none());
        // A zero-cost receive queued behind the pause: its CPU
        // completion is due at 25 ms too, scheduled when the pause ends.
        net.send(h, h, MsgClass::App, 100, 4);
        let mut fired = Vec::new();
        while let Some(d) = net.advance(SimTime::from_ms(26.0)) {
            fired.push(match d {
                Delivery::Timer { at, token, .. } => (at, token as u32),
                Delivery::Message { at, payload, .. } => (at, payload),
            });
        }
        let at = SimTime::from_ms(25.0);
        assert_eq!(fired, vec![(at, 3), (at, 1), (at, 2), (at, 4)]);
    }

    #[test]
    fn handler_window_orders_jobs_ahead_of_backlog() {
        let mut net = cluster(2);
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 1);
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 2);
        let _first = net.advance(SimTime::from_secs(1.0)).expect("first");
        // Handler for message 1: bill work, then send a reply. Both must
        // precede the queued receive of message 2 on host 1's CPU.
        net.begin_handler(HostId(1));
        net.charge(HostId(1), 0.2);
        net.send(HostId(1), HostId(0), MsgClass::App, 100, 99);
        net.end_handler();
        let mut deliveries = Vec::new();
        while let Some(Delivery::Message {
            at, to, payload, ..
        }) = net.advance(SimTime::from_secs(1.0))
        {
            deliveries.push((at.as_ms(), to, payload));
        }
        // The reply (to host 0) must not wait behind message 2's receive
        // processing plus anything else: it leaves right after the work.
        let reply = deliveries.iter().find(|d| d.2 == 99).expect("reply");
        let second = deliveries.iter().find(|d| d.2 == 2).expect("msg2");
        assert!(
            reply.0 < second.0 + 0.2,
            "reply at {} should not be starved by backlog at {}",
            reply.0,
            second.0
        );
    }

    #[test]
    fn message_counters_track_traffic() {
        let mut net = cluster(2);
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 1);
        net.send(HostId(0), HostId(1), MsgClass::App, 100, 2);
        net.send(HostId(1), HostId(0), MsgClass::Heartbeat, 30, 3);
        drain(&mut net, SimTime::from_secs(1.0));
        let t = net.traffic();
        assert_eq!((t.app_messages, t.heartbeat_messages), (2, 1));
        assert_eq!(t.delivered, 3);
        // Each message: a send and a receive on a CPU, one hub frame.
        assert_eq!((t.cpu_events, t.hub_events), (6, 3));
        assert_eq!(t.timer_events + t.gc_events + t.nagle_events, 0);
    }

    #[test]
    fn timer_counters_split_fired_deferred_and_dropped() {
        let mut params = quiet_host();
        params.gc_enabled = true;
        params.gc_interval = Dist::Det(5.0);
        params.gc_duration = Dist::Det(20.0);
        let mut net: ClusterNet<u32> =
            ClusterNet::new(2, NetParams::default(), params, SimRng::new(1));
        net.set_timer(HostId(0), SimDuration::from_ms(1.0), TimerKind::Precise, 1);
        net.set_timer(HostId(0), SimDuration::from_ms(6.0), TimerKind::Precise, 2);
        net.set_timer(HostId(1), SimDuration::from_ms(1.0), TimerKind::Coarse, 3);
        net.crash_host(HostId(1));
        while net.advance(SimTime::from_ms(28.0)).is_some() {}
        let t = net.traffic();
        assert_eq!(
            (t.precise_timers, t.coarse_timers, t.timers_set()),
            (2, 1, 3)
        );
        assert_eq!(
            (t.timers_fired, t.timers_deferred, t.timers_dropped),
            (2, 1, 1)
        );
        assert_eq!(t.timer_events, 4, "the deferred timer pops twice");
        assert_eq!(t.gc_events, 2, "one pause start per host");
        assert_eq!(t.peak_pending, 5, "two pause starts and three timers");
    }

    /// Three hosts on shared-period timers with message traffic, pauses
    /// and a crash; each timer delivery sends a message and sets a
    /// coarse timer, so the timers' jitter draws interleave with other
    /// draws on the host RNG. Without jitter, the coarse timers land on
    /// the instants of later precise ones, so ties are broken by
    /// sequence number. Returns the deliveries and the traffic.
    fn timer_workload(series: bool, jitter: Dist) -> (Vec<(u64, usize, usize, u64)>, Traffic) {
        let params = HostParams {
            precise_timer_jitter: jitter,
            timer_extra: Dist::Det(0.0),
            gc_interval: Dist::Det(37.0),
            gc_duration: Dist::Det(12.0),
            ..HostParams::default()
        };
        let mut net: ClusterNet<u32> =
            ClusterNet::new(3, NetParams::default(), params, SimRng::new(5));
        let (first, period) = (SimDuration::from_ms(5.0), SimDuration::from_ms(10.0));
        for h in 0..3 {
            let token0 = 100 * h as u64;
            if series {
                net.set_timer_series(HostId(h), first, period, 30, token0);
            } else {
                for k in 0..30 {
                    net.set_timer(
                        HostId(h),
                        first + period * k,
                        TimerKind::Precise,
                        token0 + k,
                    );
                }
            }
        }
        let mut out = Vec::new();
        let mut crashed = false;
        while let Some(d) = net.advance(SimTime::from_ms(400.0)) {
            out.push(match d {
                Delivery::Timer { at, host, token } => {
                    let to = HostId((host.0 + 1) % 3);
                    net.send(host, to, MsgClass::App, 100, token as u32);
                    net.set_timer(host, SimDuration::from_ms(1.0), TimerKind::Coarse, 1000);
                    (at.as_nanos(), host.0, host.0, token)
                }
                Delivery::Message {
                    at,
                    from,
                    to,
                    payload,
                    ..
                } => (at.as_nanos(), from.0, to.0, u64::from(payload)),
            });
            if !crashed && net.now() >= SimTime::from_ms(120.0) {
                net.crash_host(HostId(2));
                crashed = true;
            }
        }
        (out, net.traffic())
    }

    #[test]
    fn a_timer_series_delivers_what_eager_timers_deliver() {
        for jitter in [Dist::Uniform { lo: 0.0, hi: 0.05 }, Dist::Det(0.0)] {
            let (eager, te) = timer_workload(false, jitter.clone());
            let (lazy, tl) = timer_workload(true, jitter.clone());
            assert_eq!(lazy, eager, "{jitter:?}");
            assert!(te.timers_deferred > 0 && te.timers_dropped > 0, "{te:?}");
            assert!(tl.peak_pending < te.peak_pending, "{tl:?} vs {te:?}");
            let pending = Traffic {
                peak_pending: 0,
                ..tl
            };
            assert_eq!(
                pending,
                Traffic {
                    peak_pending: 0,
                    ..te
                },
                "{jitter:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a precise-timer jitter can exceed the series period")]
    fn a_series_refuses_a_jitter_wider_than_its_period() {
        let params = HostParams {
            precise_timer_jitter: Dist::Uniform { lo: 0.0, hi: 2.0 },
            ..quiet_host()
        };
        let mut net: ClusterNet<u32> =
            ClusterNet::new(1, NetParams::default(), params, SimRng::new(1));
        let ms = SimDuration::from_ms(1.0);
        net.set_timer_series(HostId(0), ms, ms, 10, 0);
    }

    #[test]
    fn events_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }

    #[test]
    #[should_panic(expected = "at most 65 536 hosts")]
    fn more_hosts_than_a_u16_index_are_rejected() {
        // Refused before anything is allocated.
        let _ = cluster((1 << 16) + 1);
    }
}
