//! Discrete-event simulation solver for SAN models.
//!
//! # What is cached
//!
//! Every activity has a cached enabling verdict — for an instantaneous
//! activity an `enabled` flag (the enabled ones are also kept in a small
//! list), for a timed one whether a completion is pending in the event
//! queue — and one **watch** saying which marking change can overturn
//! that verdict:
//!
//! * a *place*, when the last evaluation stopped at an input arc that
//!   place cannot satisfy (the first such arc): whatever else moves, the
//!   activity stays disabled until that place does;
//! * *every dependency* (input-arc places ∪ declared gate read sets)
//!   otherwise — all arcs are satisfied, so the verdict now hangs on the
//!   gate predicates, which are opaque closures and are therefore
//!   re-run whenever any declared read changes.
//!
//! When a completion changes place `p`, every dependent of `p` is
//! visited, but only those watching `p` are marked dirty and later
//! re-evaluated. In the paper's consensus model a token entering a
//! `cpu`/`net` resource place has 55–70 dependents, all but one or two
//! of which are blocked on an *empty queue place* the change did not
//! touch; skipping them is what makes replicated simulation of the
//! large models (hundreds of places and activities per process pair)
//! cheap.
//!
//! # Tie order
//!
//! Which of several enabled instantaneous activities completes is part
//! of the model's semantics, so it is pinned down to the bit. The visit
//! to `p`'s dependents stamps each with a **first-touch position** the
//! first time it is reached within a *settle* — the span from one timed
//! completion until no instantaneous activity is enabled and the timed
//! ones are rescheduled. Among the enabled activities of the highest
//! priority, weights are summed, the single `rng.unit()` draw is taken,
//! and the weighted walk proceeds **in first-touch order**. Timed
//! activities that became enabled during the settle sample their delays
//! in first-touch order too, which also fixes their FIFO order in the
//! event queue.
//!
//! # Time zero
//!
//! The first settle of a run has every activity touched once, in
//! declaration order, and examined against the initial marking. That
//! examination is the same for every replication, so the model takes
//! it once, when it is built (`SanModel::examine` on every activity:
//! a watch each and the enabled list), and a run starts from that
//! snapshot: positions `1..=n` in declaration order, the snapshot's
//! watches and instantaneous verdicts, and the enabled timed activities
//! queued to sample their delays in position order. A place changed by
//! [`Simulator::force_marking`] dirties the dependents watching it
//! before the first settle, so the verdicts the settle acts on are
//! those of the forced marking; the place stays in the change log until
//! the first firing drains it, exactly as if time zero had been
//! examined afresh, so the first-touch order of that firing's settle is
//! unchanged too. Watches only decide when a verdict is re-examined:
//! starting from the snapshot changes no verdict, position or RNG draw.
//!
//! A gate predicate that reads a place missing from its declared read
//! set makes the cache go stale silently. Debug builds re-evaluate every
//! activity touched during a settle — every activity in the first one,
//! so the whole snapshot — and panic on a stale verdict.

use ctsim_des::{EventHandle, EventQueue, SimDuration, SimTime};
use ctsim_stoch::SimRng;

use crate::model::{ActivityId, Marking, SanModel, Timing, WATCH_ANY};

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stop predicate became true.
    Predicate,
    /// No activity was enabled or scheduled: the SAN is dead.
    Deadlock,
    /// The time horizon was reached before the predicate held.
    Horizon,
    /// Instantaneous activities fired without bound at one instant —
    /// a modelling error (e.g. two instantaneous activities feeding each
    /// other tokens).
    InstantaneousLivelock,
}

/// The result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Simulation time when the run stopped.
    pub time: SimTime,
    /// Why it stopped.
    pub reason: StopReason,
    /// Total number of activity completions.
    pub completions: u64,
}

/// Per-activity enabling cache (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Cached {
    /// First-touch position; belongs to the current settle iff it is
    /// `>= Simulator::settle_start`.
    pos: u64,
    /// The place whose change can overturn the verdict, or [`WATCH_ANY`].
    watch: u32,
    /// Instantaneous activities only: the cached verdict. (A timed
    /// activity's verdict is `pending[a].is_some()`.)
    enabled: bool,
    /// Queued for re-evaluation.
    dirty: bool,
}

impl Cached {
    const UNTOUCHED: Cached = Cached {
        pos: 0,
        watch: WATCH_ANY,
        enabled: false,
        dirty: false,
    };
}

/// A simulation run over a [`SanModel`].
///
/// Holds the current marking, the pending-event set of sampled timed
/// activities, and the RNG. Use one per replication (the model itself
/// is shared immutably) — a new one, or the previous one after
/// [`Simulator::reset`].
pub struct Simulator<'m> {
    model: &'m SanModel,
    marking: Marking,
    queue: EventQueue<ActivityId>,
    /// Pending completion event per timed activity (None = not enabled).
    pending: Vec<Option<EventHandle>>,
    rng: SimRng,
    firing_counts: Vec<u64>,
    completions: u64,
    /// Enabling evaluations so far (telemetry; see `reward::replicate`).
    enabling_evals: u64,
    /// Dependents of changed places visited so far (telemetry).
    dependent_visits: u64,
    cache: Vec<Cached>,
    /// Next first-touch position to hand out. It only grows during a
    /// run, so a stamp from an earlier settle can never look current.
    next_pos: u64,
    /// First position of the settle in progress.
    settle_start: u64,
    dirty_instantaneous: Vec<ActivityId>,
    dirty_timed: Vec<ActivityId>,
    /// The instantaneous activities whose cached verdict is "enabled".
    enabled_instantaneous: Vec<ActivityId>,
    /// Debug builds only: every activity touched in this settle.
    touched: Vec<ActivityId>,
    // Scratch buffers, reused across steps.
    changed_scratch: Vec<usize>,
    ties: Vec<(u64, ActivityId, f64)>,
    trace: Option<Vec<(SimTime, ActivityId)>>,
    initialized: bool,
    /// Guard against instantaneous livelock (per settle pass).
    max_instantaneous_burst: u64,
}

impl<'m> std::fmt::Debug for Simulator<'m> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("model", &self.model.name())
            .field("now", &self.queue.now())
            .field("completions", &self.completions)
            .finish()
    }
}

impl<'m> Simulator<'m> {
    /// Creates a simulator positioned at time zero with the model's
    /// initial marking.
    pub fn new(model: &'m SanModel, rng: SimRng) -> Self {
        let n_act = model.num_activities();
        Self {
            model,
            marking: model.initial_marking(),
            queue: EventQueue::new(),
            pending: vec![None; n_act],
            rng,
            firing_counts: vec![0; n_act],
            completions: 0,
            enabling_evals: 0,
            dependent_visits: 0,
            cache: vec![Cached::UNTOUCHED; n_act],
            next_pos: 1,
            settle_start: 1,
            dirty_instantaneous: Vec::new(),
            dirty_timed: Vec::new(),
            enabled_instantaneous: Vec::new(),
            touched: Vec::new(),
            changed_scratch: Vec::new(),
            ties: Vec::new(),
            trace: None,
            initialized: false,
            max_instantaneous_burst: 1_000_000,
        }
    }

    /// Rewinds this simulator to what [`Simulator::new`] would return
    /// for the same model and `rng` — initial marking, time zero, no
    /// pending events, zero counts, tracing off —
    /// keeping every buffer, so a replication loop that recycles one
    /// simulator allocates nothing in steady state. A run after `reset`
    /// is bit-identical to the same run on a new simulator. The enabling
    /// cache is left as the last run left it: the run's start rewrites
    /// every entry from the model's time-zero snapshot.
    pub fn reset(&mut self, rng: SimRng) {
        self.marking.assign(&self.model.initial);
        self.queue.reset();
        self.pending.fill(None);
        self.rng = rng;
        self.firing_counts.fill(0);
        self.completions = 0;
        self.enabling_evals = 0;
        self.dependent_visits = 0;
        self.next_pos = 1;
        self.settle_start = 1;
        self.dirty_instantaneous.clear();
        self.dirty_timed.clear();
        self.enabled_instantaneous.clear();
        self.touched.clear();
        self.trace = None;
        self.initialized = false;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The current marking.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// Overrides the current marking of a place before the run starts
    /// (e.g. to set up a crash scenario).
    ///
    /// # Panics
    /// Panics if called after the run started.
    pub fn force_marking(&mut self, place: crate::PlaceId, tokens: u32) {
        assert!(
            !self.initialized,
            "force_marking must be called before the run starts"
        );
        self.marking.set(place, tokens);
    }

    /// How many times each activity completed so far.
    pub fn firing_counts(&self) -> &[u64] {
        &self.firing_counts
    }

    /// Completions, enabling evaluations and dependent visits since
    /// creation or the last reset — the engine's "useful work", its
    /// "attempts", and the walks that decide which attempts to make.
    pub(crate) fn work_counts(&self) -> (u64, u64, u64) {
        (self.completions, self.enabling_evals, self.dependent_visits)
    }

    /// Enables recording of every completion (time + activity), for
    /// tests and debugging.
    pub fn record_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// The recorded trace (empty unless [`Simulator::record_trace`] was
    /// enabled).
    pub fn trace(&self) -> &[(SimTime, ActivityId)] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Runs until `stop` holds, the model deadlocks, or `horizon` passes.
    ///
    /// The predicate is evaluated on the initial marking (after settling
    /// instantaneous activities) and after every completion.
    pub fn run_until(&mut self, stop: impl Fn(&Marking) -> bool, horizon: SimTime) -> RunOutcome {
        if !self.initialized {
            self.initialized = true;
            self.start_from_snapshot();
            if !self.settle_instantaneous() {
                return self.outcome(StopReason::InstantaneousLivelock);
            }
            self.sync_timed();
        }
        if stop(&self.marking) {
            return self.outcome(StopReason::Predicate);
        }
        loop {
            let Some(t) = self.queue.peek_time() else {
                return self.outcome(StopReason::Deadlock);
            };
            if t > horizon {
                return RunOutcome {
                    time: horizon,
                    reason: StopReason::Horizon,
                    completions: self.completions,
                };
            }
            let (_, act) = self.queue.pop().expect("peeked event must pop");
            self.pending[act.index()] = None;
            debug_assert!(
                self.model.is_enabled(act, &self.marking),
                "timed activity `{}` fired while disabled: a gate read set \
                 is probably incomplete",
                self.model.activity_name(act)
            );
            self.fire(act);
            if !self.settle_instantaneous() {
                return self.outcome(StopReason::InstantaneousLivelock);
            }
            self.sync_timed();
            if stop(&self.marking) {
                return self.outcome(StopReason::Predicate);
            }
        }
    }

    fn outcome(&self, reason: StopReason) -> RunOutcome {
        RunOutcome {
            time: self.queue.now(),
            reason,
            completions: self.completions,
        }
    }

    /// Opens the first settle from the model's time-zero snapshot: every
    /// activity stamped in declaration order with the watch and verdict
    /// the initial marking gave it, the enabled instantaneous ones
    /// listed, the enabled timed ones queued to sample their delays.
    /// Places written by [`Simulator::force_marking`] are still in the
    /// change log; the dependents watching them are queued for
    /// re-evaluation here, but the log is left for the first firing to
    /// drain, whose visits stamp the first-touch order of its settle.
    fn start_from_snapshot(&mut self) {
        let model = self.model;
        for (i, (c, &watch)) in self.cache.iter_mut().zip(&model.initial_watch).enumerate() {
            *c = Cached {
                pos: i as u64 + 1,
                watch,
                enabled: false,
                dirty: false,
            };
        }
        self.next_pos = model.num_activities() as u64 + 1;
        for &a in &model.initial_enabled {
            let c = &mut self.cache[a.index()];
            if model.instantaneous[a.index()] {
                c.enabled = true;
                self.enabled_instantaneous.push(a);
            } else {
                c.dirty = true;
                self.dirty_timed.push(a);
            }
        }
        if cfg!(debug_assertions) {
            // The first settle's stale guard checks the whole snapshot.
            self.touched.extend(model.activity_ids());
        }
        for i in 0..self.marking.changed_places().len() {
            let p = self.marking.changed_places()[i];
            for &a in &model.dependents[p] {
                self.touch(a, p as u32);
            }
        }
    }

    /// Visits activity `a` because place `p` changed. Stamps its
    /// first-touch position if this is the first visit of the settle,
    /// and queues it for re-evaluation if `p` is what it watches.
    fn touch(&mut self, a: ActivityId, p: u32) {
        let c = &mut self.cache[a.index()];
        if c.pos < self.settle_start {
            c.pos = self.next_pos;
            self.next_pos += 1;
            if cfg!(debug_assertions) {
                self.touched.push(a);
            }
        }
        if !c.dirty && (c.watch == WATCH_ANY || c.watch == p) {
            c.dirty = true;
            if self.model.instantaneous[a.index()] {
                self.dirty_instantaneous.push(a);
            } else {
                self.dirty_timed.push(a);
            }
        }
    }

    /// Routes marking changes to the dependents of each changed place.
    fn absorb_changes(&mut self) {
        let model = self.model;
        let mut changed = std::mem::take(&mut self.changed_scratch);
        self.marking.drain_changed(&mut changed);
        for p in changed.drain(..) {
            self.dependent_visits += model.dependents[p].len() as u64;
            for &a in &model.dependents[p] {
                self.touch(a, p as u32);
            }
        }
        self.changed_scratch = changed;
    }

    /// Evaluates `a`'s enabling against the marking and records what to
    /// watch from here on.
    fn evaluate(&mut self, a: ActivityId) -> bool {
        self.enabling_evals += 1;
        let (watch, enabled) = self.model.examine(a, &self.marking);
        let c = &mut self.cache[a.index()];
        c.dirty = false;
        c.watch = watch;
        enabled
    }

    /// Debug builds: the cached verdict of every activity of one kind
    /// touched in this settle must equal a fresh evaluation.
    fn debug_check_cache(&self, instantaneous: bool) {
        if !cfg!(debug_assertions) {
            return;
        }
        for &a in &self.touched {
            if self.model.instantaneous[a.index()] != instantaneous {
                continue;
            }
            let cached = if instantaneous {
                self.cache[a.index()].enabled
            } else {
                self.pending[a.index()].is_some()
            };
            assert_eq!(
                cached,
                self.model.is_enabled(a, &self.marking),
                "cached enabling of activity `{}` is stale: a gate read set \
                 is probably incomplete",
                self.model.activity_name(a)
            );
        }
    }

    /// Completes one activity: consume inputs, run input-gate functions,
    /// select a case, deposit outputs, run output gates.
    fn fire(&mut self, a: ActivityId) {
        let def = &self.model.activities[a.index()];
        let chosen = if def.cases.len() == 1 {
            0
        } else {
            let mut u = self.rng.unit();
            let mut chosen = def.cases.len() - 1;
            for (i, c) in def.cases.iter().enumerate() {
                if u < c.prob {
                    chosen = i;
                    break;
                }
                u -= c.prob;
            }
            chosen
        };
        self.model.fire_case(&mut self.marking, a, chosen);
        self.firing_counts[a.index()] += 1;
        self.completions += 1;
        if let Some(trace) = &mut self.trace {
            trace.push((self.queue.now(), a));
        }
        self.absorb_changes();
    }

    /// Re-evaluates the dirty instantaneous activities and brings the
    /// enabled list in line.
    fn refresh_instantaneous(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty_instantaneous);
        for a in dirty.drain(..) {
            let enabled = self.evaluate(a);
            if enabled == self.cache[a.index()].enabled {
                continue;
            }
            self.cache[a.index()].enabled = enabled;
            if enabled {
                self.enabled_instantaneous.push(a);
            } else {
                let at = self
                    .enabled_instantaneous
                    .iter()
                    .position(|&e| e == a)
                    .expect("an enabled activity is in the enabled list");
                self.enabled_instantaneous.swap_remove(at);
            }
        }
        self.dirty_instantaneous = dirty;
        self.debug_check_cache(true);
    }

    /// Fires enabled instantaneous activities until none remain, highest
    /// priority first, random weighted tie-break in first-touch order.
    /// Returns `false` on livelock.
    fn settle_instantaneous(&mut self) -> bool {
        let mut burst = 0u64;
        loop {
            self.refresh_instantaneous();
            // The enabled activities of the highest priority.
            let ties = &mut self.ties;
            ties.clear();
            let mut best_prio = 0u32;
            for &a in &self.enabled_instantaneous {
                let Timing::Instantaneous { priority, weight } =
                    self.model.activities[a.index()].timing
                else {
                    unreachable!("the enabled list only holds instantaneous activities")
                };
                if ties.is_empty() || priority > best_prio {
                    best_prio = priority;
                    ties.clear();
                } else if priority < best_prio {
                    continue;
                }
                ties.push((self.cache[a.index()].pos, a, weight));
            }
            let Some(&(_, mut chosen, _)) = ties.first() else {
                return true;
            };
            // Weighted choice, in first-touch order: the weight sum, the
            // one draw and the walk all depend on it.
            ties.sort_unstable_by_key(|&(pos, ..)| pos);
            let mut total_weight = ties[0].2;
            for &(_, _, weight) in &ties[1..] {
                total_weight += weight;
            }
            let mut pick = self.rng.unit() * total_weight;
            for &(_, a, weight) in ties.iter() {
                chosen = a;
                if pick < weight {
                    break;
                }
                pick -= weight;
            }
            self.fire(chosen);
            burst += 1;
            if burst > self.max_instantaneous_burst {
                return false;
            }
        }
    }

    /// Brings timed-activity scheduling in line with the marking for the
    /// dirty timed activities ("restart" reactivation policy), in
    /// first-touch order, and ends the settle.
    fn sync_timed(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty_timed);
        dirty.sort_unstable_by_key(|a| self.cache[a.index()].pos);
        for a in dirty.drain(..) {
            let enabled = self.evaluate(a);
            let scheduled = self.pending[a.index()].is_some();
            match (enabled, scheduled) {
                (true, false) => {
                    let Timing::Timed(dist) = &self.model.activities[a.index()].timing else {
                        unreachable!("dirty_timed only holds timed activities")
                    };
                    let delay = SimDuration::from_ms(dist.sample(&mut self.rng));
                    self.pending[a.index()] = Some(self.queue.schedule_in(delay, a));
                }
                (false, true) => {
                    let h = self.pending[a.index()].take().expect("checked above");
                    self.queue.cancel(h);
                }
                _ => {}
            }
        }
        self.dirty_timed = dirty;
        self.debug_check_cache(false);
        self.touched.clear();
        self.settle_start = self.next_pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, Case, InputGate, PlaceId, SanBuilder};
    use ctsim_stoch::Dist;

    /// p --t(1ms)--> q : single firing.
    #[test]
    fn single_timed_activity_fires_once() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        let out = sim.run_until(|mk| mk.get(q) > 0, SimTime::from_secs(1.0));
        assert_eq!(out.reason, StopReason::Predicate);
        assert_eq!(out.time, SimTime::from_ms(1.0));
        assert_eq!(out.completions, 1);
        // After the token moved the model is dead.
        let out2 = sim.run_until(|mk| mk.get(q) > 1, SimTime::from_secs(1.0));
        assert_eq!(out2.reason, StopReason::Deadlock);
    }

    /// A 3-stage deterministic pipeline: completion times accumulate.
    #[test]
    fn pipeline_times_accumulate() {
        let mut b = SanBuilder::new("m");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let p2 = b.place("p2", 0);
        let p3 = b.place("p3", 0);
        for (i, (from, to)) in [(p0, p1), (p1, p2), (p2, p3)].into_iter().enumerate() {
            b.add_activity(
                Activity::timed(format!("t{i}"), Dist::Det((i + 1) as f64))
                    .input(from, 1)
                    .case(Case::with_prob(1.0).output(to, 1)),
            );
        }
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        let out = sim.run_until(|mk| mk.get(p3) > 0, SimTime::from_secs(1.0));
        assert_eq!(out.time, SimTime::from_ms(6.0));
    }

    /// Two activities racing for one token: exactly one fires.
    #[test]
    fn race_consumes_token_once() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let qa = b.place("qa", 0);
        let qb = b.place("qb", 0);
        b.add_activity(
            Activity::timed("a", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(qa, 1)),
        );
        b.add_activity(
            Activity::timed("b", Dist::Det(2.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(qb, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        let out = sim.run_until(|_| false, SimTime::from_secs(1.0));
        assert_eq!(out.reason, StopReason::Deadlock);
        assert_eq!(sim.marking().get(qa), 1, "faster activity wins the race");
        assert_eq!(sim.marking().get(qb), 0);
        assert_eq!(out.completions, 1);
    }

    /// Restart policy: disabling a timed activity discards its sample.
    #[test]
    fn restart_policy_resamples_after_disable() {
        // inhibitor place k blocks `slow`; `fast` fires at 1ms and sets k,
        // disabling slow before its 2ms completion; k is cleared by a
        // third activity at 10ms; slow then needs 2 more ms (fires at 12).
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let go = b.place("go", 1);
        let k = b.place("k", 0);
        let clear = b.place("clear", 1);
        let done = b.place("done", 0);
        b.add_activity(
            Activity::timed("fast", Dist::Det(1.0))
                .input(go, 1)
                .case(Case::with_prob(1.0).output(k, 1)),
        );
        b.add_activity(
            Activity::timed("unblock", Dist::Det(10.0))
                .input(clear, 1)
                .input_gate(InputGate::predicate(vec![k], move |m| m.get(k) > 0))
                .case(
                    Case::with_prob(1.0)
                        .gate(crate::model::OutputGate::new(vec![k], move |m| m.set(k, 0))),
                ),
        );
        b.add_activity(
            Activity::timed("slow", Dist::Det(2.0))
                .input(p, 1)
                .input_gate(InputGate::predicate(vec![k], move |m| m.get(k) == 0))
                .case(Case::with_prob(1.0).output(done, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        let out = sim.run_until(|mk| mk.get(done) > 0, SimTime::from_secs(1.0));
        assert_eq!(out.reason, StopReason::Predicate);
        // `unblock` needs k>0, so it samples at t=1 and fires at t=11;
        // slow restarts there and completes at t=13.
        assert_eq!(out.time, SimTime::from_ms(13.0));
    }

    /// Instantaneous activities fire before any timed one, by priority.
    #[test]
    fn instantaneous_priority_order() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let lo = b.place("lo", 0);
        let hi = b.place("hi", 0);
        b.add_activity(
            Activity::instantaneous("low")
                .priority(1)
                .input(p, 1)
                .case(Case::with_prob(1.0).output(lo, 1)),
        );
        b.add_activity(
            Activity::instantaneous("high")
                .priority(2)
                .input(p, 1)
                .case(Case::with_prob(1.0).output(hi, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        let out = sim.run_until(|_| false, SimTime::from_secs(1.0));
        assert_eq!(out.reason, StopReason::Deadlock);
        assert_eq!(sim.marking().get(hi), 1);
        assert_eq!(sim.marking().get(lo), 0);
        assert_eq!(out.time, SimTime::ZERO, "instantaneous takes no time");
    }

    /// Case probabilities are respected in the long run.
    #[test]
    fn case_selection_follows_probabilities() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 10_000);
        let a = b.place("a", 0);
        let c = b.place("c", 0);
        b.add_activity(
            Activity::timed("t", Dist::Det(0.001))
                .input(p, 1)
                .case(Case::with_prob(0.3).output(a, 1))
                .case(Case::with_prob(0.7).output(c, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(7));
        let out = sim.run_until(|mk| mk.get(p) == 0, SimTime::from_secs(100.0));
        assert_eq!(out.reason, StopReason::Predicate);
        let frac = sim.marking().get(a) as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "case-1 fraction {frac}");
    }

    /// Input-gate functions run on completion (after arc removal).
    #[test]
    fn input_gate_function_runs_on_completion() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let aux = b.place("aux", 5);
        b.add_activity(
            Activity::timed("t", Dist::Det(1.0)).input(p, 1).input_gate(
                InputGate::predicate(vec![aux], move |m| m.get(aux) > 0)
                    .with_func(vec![aux], move |m| m.set(aux, 0)),
            ),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        sim.run_until(|mk| mk.get(aux) == 0, SimTime::from_secs(1.0));
        assert_eq!(sim.marking().get(aux), 0);
        assert_eq!(sim.marking().get(p), 0);
    }

    /// Horizon stops the run without firing later events.
    #[test]
    fn horizon_is_respected() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Det(100.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        let out = sim.run_until(|mk| mk.get(q) > 0, SimTime::from_ms(5.0));
        assert_eq!(out.reason, StopReason::Horizon);
        assert_eq!(out.time, SimTime::from_ms(5.0));
        assert_eq!(sim.marking().get(q), 0);
    }

    /// An instantaneous livelock is detected and reported.
    #[test]
    fn livelock_detection() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::instantaneous("pq")
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.add_activity(
            Activity::instantaneous("qp")
                .input(q, 1)
                .case(Case::with_prob(1.0).output(p, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        let out = sim.run_until(|_| false, SimTime::from_secs(1.0));
        assert_eq!(out.reason, StopReason::InstantaneousLivelock);
    }

    /// Exponential race: the min of two exponentials picks each side
    /// with probability proportional to its rate.
    #[test]
    fn exponential_race_statistics() {
        let mut wins_a = 0u32;
        let n = 2000;
        for seed in 0..n {
            let mut b = SanBuilder::new("m");
            let p = b.place("p", 1);
            let qa = b.place("qa", 0);
            let qb = b.place("qb", 0);
            b.add_activity(
                Activity::timed("a", Dist::Exp { mean: 1.0 })
                    .input(p, 1)
                    .case(Case::with_prob(1.0).output(qa, 1)),
            );
            b.add_activity(
                Activity::timed("b", Dist::Exp { mean: 3.0 })
                    .input(p, 1)
                    .case(Case::with_prob(1.0).output(qb, 1)),
            );
            let m = b.build().unwrap();
            let mut sim = Simulator::new(&m, SimRng::new(seed));
            sim.run_until(|_| false, SimTime::from_secs(1e6));
            if sim.marking().get(qa) == 1 {
                wins_a += 1;
            }
        }
        // P(A wins) = rate_a / (rate_a + rate_b) = (1/1)/(1/1 + 1/3) = 0.75
        let frac = wins_a as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "A wins fraction {frac}");
    }

    /// Trace recording captures completions in time order.
    #[test]
    fn trace_records_completions() {
        let mut b = SanBuilder::new("m");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let p2 = b.place("p2", 0);
        b.add_activity(
            Activity::timed("first", Dist::Det(1.0))
                .input(p0, 1)
                .case(Case::with_prob(1.0).output(p1, 1)),
        );
        b.add_activity(
            Activity::timed("second", Dist::Det(1.0))
                .input(p1, 1)
                .case(Case::with_prob(1.0).output(p2, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        sim.record_trace(true);
        sim.run_until(|mk| mk.get(p2) > 0, SimTime::from_secs(1.0));
        let names: Vec<&str> = sim
            .trace()
            .iter()
            .map(|&(_, a)| m.activity_name(a))
            .collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    /// force_marking sets up alternative initial states.
    #[test]
    fn force_marking_before_start() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 0);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let mut sim = Simulator::new(&m, SimRng::new(1));
        sim.force_marking(p, 1);
        let out = sim.run_until(|mk| mk.get(q) > 0, SimTime::from_secs(1.0));
        assert_eq!(out.reason, StopReason::Predicate);
    }

    /// Time zero costs one evaluation per timed activity enabled in the
    /// model's snapshot (to sample its delay) plus one per dependent of
    /// a forced place that watches it — not one per activity.
    #[test]
    fn time_zero_examines_only_what_the_snapshot_cannot_answer() {
        let mut b = SanBuilder::new("m");
        let a = b.place("a", 1);
        let p = b.place("p", 0);
        let c = b.place("c", 0);
        let k = b.place("k", 0);
        // Enabled.
        b.add_activity(Activity::timed("ready", Dist::Det(1.0)).input(a, 1));
        // Blocked on `p`, which it watches.
        b.add_activity(Activity::timed("on_p", Dist::Det(1.0)).input(p, 1));
        // Depends on `p` but is blocked on `c`, its first empty arc.
        b.add_activity(
            Activity::timed("on_c", Dist::Det(1.0))
                .input(c, 1)
                .input(p, 1),
        );
        // Every arc satisfied, closed by its gate: watches every read.
        b.add_activity(
            Activity::timed("gated", Dist::Det(1.0))
                .input(a, 1)
                .input_gate(InputGate::predicate(vec![k], move |m| m.get(k) > 0)),
        );
        b.add_activity(Activity::instantaneous("idle").input(c, 2));
        let m = b.build().unwrap();
        let time_zero = |forced: &[PlaceId]| {
            let mut sim = Simulator::new(&m, SimRng::new(1));
            for &place in forced {
                sim.force_marking(place, 1);
            }
            let out = sim.run_until(|_| true, SimTime::from_secs(1.0));
            assert_eq!((out.reason, out.completions), (StopReason::Predicate, 0));
            let (_, evals, _) = sim.work_counts();
            evals
        };
        assert_eq!(time_zero(&[]), 1, "`ready`");
        assert_eq!(time_zero(&[p]), 2, "`ready` and `on_p`, not `on_c`");
        assert_eq!(time_zero(&[k]), 2, "`ready` and `gated`");
        assert_eq!(time_zero(&[p, k]), 3);
        assert_eq!(time_zero(&[c]), 3, "`ready`, `on_c` and `idle`");
    }

    /// Instantaneous weights bias equal-priority races.
    #[test]
    fn instantaneous_weight_bias() {
        let mut wins = 0u32;
        let n = 3000;
        for seed in 0..n {
            let mut b = SanBuilder::new("m");
            let p = b.place("p", 1);
            let qa = b.place("qa", 0);
            let qb = b.place("qb", 0);
            b.add_activity(
                Activity::instantaneous("a")
                    .weight(3.0)
                    .input(p, 1)
                    .case(Case::with_prob(1.0).output(qa, 1)),
            );
            b.add_activity(
                Activity::instantaneous("b")
                    .weight(1.0)
                    .input(p, 1)
                    .case(Case::with_prob(1.0).output(qb, 1)),
            );
            let m = b.build().unwrap();
            let mut sim = Simulator::new(&m, SimRng::new(seed));
            sim.run_until(|_| false, SimTime::from_secs(1.0));
            if sim.marking().get(qa) == 1 {
                wins += 1;
            }
        }
        let frac = wins as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "weighted win fraction {frac}");
    }
}

/// The tie-order contract, checked against the simulator this module's
/// cached enabling replaced: that one kept a candidate list in
/// first-touch order and re-evaluated every candidate twice per
/// instantaneous firing. It is kept here, test-only, as the oracle.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::model::{Activity, Case, InputGate, OutputGate, PlaceId, SanBuilder};
    use ctsim_stoch::Dist;
    use proptest::prelude::*;

    struct Oracle<'m> {
        model: &'m SanModel,
        marking: Marking,
        queue: EventQueue<ActivityId>,
        pending: Vec<Option<EventHandle>>,
        rng: SimRng,
        firing_counts: Vec<u64>,
        candidates: Vec<ActivityId>,
        affected_timed: Vec<ActivityId>,
        listed: Vec<bool>,
        trace: Vec<(SimTime, ActivityId)>,
    }

    impl<'m> Oracle<'m> {
        fn new(model: &'m SanModel, rng: SimRng) -> Self {
            let n_act = model.num_activities();
            Self {
                model,
                marking: model.initial_marking(),
                queue: EventQueue::new(),
                pending: vec![None; n_act],
                rng,
                firing_counts: vec![0; n_act],
                candidates: Vec::new(),
                affected_timed: Vec::new(),
                listed: vec![false; n_act],
                trace: Vec::new(),
            }
        }

        /// `run_until(|_| false, horizon)`.
        fn run(&mut self, horizon: SimTime) -> (SimTime, StopReason) {
            for a in self.model.activity_ids() {
                self.list(a);
            }
            self.settle();
            self.sync_timed();
            loop {
                let Some(t) = self.queue.peek_time() else {
                    return (self.queue.now(), StopReason::Deadlock);
                };
                if t > horizon {
                    return (horizon, StopReason::Horizon);
                }
                let (_, act) = self.queue.pop().unwrap();
                self.pending[act.index()] = None;
                self.fire(act);
                self.settle();
                self.sync_timed();
            }
        }

        fn list(&mut self, a: ActivityId) {
            if !std::mem::replace(&mut self.listed[a.index()], true) {
                match self.model.timing(a) {
                    Timing::Instantaneous { .. } => self.candidates.push(a),
                    Timing::Timed(_) => self.affected_timed.push(a),
                }
            }
        }

        fn fire(&mut self, a: ActivityId) {
            let cases = self.model.num_cases(a);
            let mut chosen = cases - 1;
            if cases > 1 {
                let mut u = self.rng.unit();
                for i in 0..cases {
                    if u < self.model.case_prob(a, i) {
                        chosen = i;
                        break;
                    }
                    u -= self.model.case_prob(a, i);
                }
            }
            self.model.fire_case(&mut self.marking, a, chosen);
            self.firing_counts[a.index()] += 1;
            self.trace.push((self.queue.now(), a));
            let mut changed = Vec::new();
            self.marking.drain_changed(&mut changed);
            for p in changed {
                for i in 0..self.model.dependents[p].len() {
                    self.list(self.model.dependents[p][i]);
                }
            }
        }

        /// The double scan: every candidate evaluated for the best
        /// priority and weight sum, then again for the weighted walk.
        fn settle(&mut self) {
            let enabled_at = |s: &Self, a: ActivityId| match *s.model.timing(a) {
                Timing::Instantaneous { priority, weight } if s.model.is_enabled(a, &s.marking) => {
                    Some((priority, weight))
                }
                _ => None,
            };
            loop {
                let mut best: Option<(u32, f64)> = None;
                for &a in &self.candidates {
                    if let Some((priority, weight)) = enabled_at(self, a) {
                        best = Some(match best {
                            Some((p, total)) if priority == p => (p, total + weight),
                            Some((p, total)) if priority < p => (p, total),
                            _ => (priority, weight),
                        });
                    }
                }
                let Some((best_prio, total_weight)) = best else {
                    for a in self.candidates.drain(..) {
                        self.listed[a.index()] = false;
                    }
                    return;
                };
                let mut pick = self.rng.unit() * total_weight;
                let mut chosen = None;
                for &a in &self.candidates {
                    if let Some((priority, weight)) = enabled_at(self, a) {
                        if priority == best_prio {
                            chosen = Some(a);
                            if pick < weight {
                                break;
                            }
                            pick -= weight;
                        }
                    }
                }
                self.fire(chosen.unwrap());
            }
        }

        fn sync_timed(&mut self) {
            for a in std::mem::take(&mut self.affected_timed) {
                self.listed[a.index()] = false;
                let enabled = self.model.is_enabled(a, &self.marking);
                match (enabled, self.pending[a.index()]) {
                    (true, None) => {
                        let Timing::Timed(dist) = self.model.timing(a) else {
                            unreachable!()
                        };
                        let delay = SimDuration::from_ms(dist.sample(&mut self.rng));
                        self.pending[a.index()] = Some(self.queue.schedule_in(delay, a));
                    }
                    (false, Some(h)) => {
                        self.queue.cancel(h);
                        self.pending[a.index()] = None;
                    }
                    _ => {}
                }
            }
        }
    }

    /// A random closed job shop shaped like the paper's model: jobs
    /// queue for a few shared resource places through instantaneous
    /// acquires (equal and mixed priorities, unequal weights, the
    /// resource arc before or after the queue arc), are served by timed
    /// two-case activities that release the resource and either finish
    /// or retry, and recycle. A `hold` place, raised and lowered by
    /// timed activities, inhibits some acquires and services through
    /// gate predicates (so timed services are disabled mid-flight and
    /// restart), and an instantaneous `flush` with a two-place read set
    /// clears the `done` places through its gate function. Half the
    /// shops start with empty resources and queues, which a timed
    /// `kickoff` fills: nothing instantaneous fires at time zero unless
    /// the run forces it, so the first ties are drawn in the settle of a
    /// timed completion — the one whose first-touch order starts with
    /// the dependents of the places the run forced.
    fn random_shop(shape: u64) -> SanModel {
        let mut g = SimRng::new(shape);
        let mut pick = |n: usize| g.index(n);
        let mut b = SanBuilder::new("shop");
        let mut stock = Vec::new();
        let resources: Vec<PlaceId> = (0..1 + pick(3))
            .map(|r| {
                let tokens = 1 + pick(2) as u32;
                let place = b.place(format!("res{r}"), tokens);
                stock.push((place, tokens));
                place
            })
            .collect();
        let hold = b.place("hold", 0);
        let jobs = 3 + pick(6);
        let wait: Vec<PlaceId> = (0..jobs)
            .map(|j| {
                let tokens = pick(3) as u32;
                let place = b.place(format!("wait{j}"), tokens);
                stock.push((place, tokens));
                place
            })
            .collect();
        let done: Vec<PlaceId> = (0..jobs).map(|j| b.place(format!("done{j}"), 0)).collect();
        let unheld = move || InputGate::predicate(vec![hold], move |m: &Marking| m.get(hold) == 0);
        let dist = |k: usize, scale: f64| match k {
            0 => Dist::Det(0.25 * scale),
            1 => Dist::Det(0.5 * scale),
            2 => Dist::Exp { mean: 0.4 * scale },
            _ => Dist::Uniform {
                lo: 0.1 * scale,
                hi: 0.6 * scale,
            },
        };
        for j in 0..jobs {
            let res = resources[pick(resources.len())];
            let busy = b.place(format!("busy{j}"), 0);
            let mut acquire = Activity::instantaneous(format!("acquire{j}"))
                .priority([0, 0, 0, 1, 2][pick(5)])
                .weight([0.5, 1.0, 2.0, 3.5][pick(4)]);
            acquire = if pick(2) == 0 {
                acquire.input(res, 1).input(wait[j], 1)
            } else {
                acquire.input(wait[j], 1).input(res, 1)
            };
            if pick(4) == 0 {
                acquire = acquire.input_gate(unheld());
            }
            b.add_activity(acquire.case(Case::with_prob(1.0).output(busy, 1)));
            let mut serve = Activity::timed(format!("serve{j}"), dist(pick(4), 1.0)).input(busy, 1);
            if pick(2) == 0 {
                serve = serve.input_gate(unheld());
            }
            let p_done = [0.5, 0.7, 0.9][pick(3)];
            b.add_activity(
                serve
                    .case(Case::with_prob(p_done).output(done[j], 1).output(res, 1))
                    .case(
                        Case::with_prob(1.0 - p_done)
                            .output(wait[j], 1)
                            .output(res, 1),
                    ),
            );
            b.add_activity(
                Activity::timed(format!("recycle{j}"), dist(pick(4), 2.0))
                    .input(done[j], 1)
                    .case(Case::with_prob(1.0).output(wait[pick(jobs)], 1)),
            );
        }
        b.add_activity(
            Activity::timed("raise", dist(pick(4), 3.0))
                .input_gate(unheld())
                .case(
                    Case::with_prob(1.0).gate(OutputGate::new(vec![hold], move |m| m.set(hold, 1))),
                ),
        );
        b.add_activity(Activity::timed("lower", dist(pick(4), 1.5)).input(hold, 1));
        let (da, db, back) = (done[pick(jobs)], done[pick(jobs)], wait[pick(jobs)]);
        b.add_activity(
            Activity::instantaneous("flush")
                .priority(3)
                .input_gate(
                    InputGate::predicate(vec![da, db], move |m| m.get(da) + m.get(db) >= 3)
                        .with_func(vec![da, db], move |m| {
                            m.set(da, 0);
                            m.set(db, 0);
                        }),
                )
                .case(Case::with_prob(1.0).output(back, 2)),
        );
        if pick(2) == 0 {
            let start = b.place("start", 1);
            let mut fill = Case::with_prob(1.0);
            for (place, tokens) in stock {
                b.set_initial(place, 0);
                fill = fill.output(place, tokens);
            }
            b.add_activity(
                Activity::timed("kickoff", dist(pick(4), 0.5))
                    .input(start, 1)
                    .case(fill),
            );
        }
        b.build().expect("the shop is a valid model")
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Same completions at the same instants, same final marking,
        /// same firing counts as the oracle — for a new simulator and
        /// for one recycled with `reset`, from the model's initial
        /// marking with up to two places forced to other token counts
        /// (so runs start off the model's time-zero snapshot).
        #[test]
        fn cached_enabling_reproduces_the_candidate_scan(
            shape in 0u64..1_000_000,
            seeds in proptest::collection::vec(0u64..1_000_000, 3..6),
            forced in proptest::collection::vec((0usize..1_000, 0u32..4), 0..3),
        ) {
            let model = random_shop(shape);
            let forced: Vec<(PlaceId, u32)> = forced
                .into_iter()
                .map(|(p, tokens)| (PlaceId(p % model.num_places()), tokens))
                .collect();
            let horizon = SimTime::from_ms(40.0);
            let mut recycled = Simulator::new(&model, SimRng::new(0));
            recycled.record_trace(true);
            recycled.run_until(|_| false, SimTime::from_ms(3.0));
            for seed in seeds {
                let mut oracle = Oracle::new(&model, SimRng::new(seed));
                for &(p, tokens) in &forced {
                    oracle.marking.set(p, tokens);
                }
                let (time, reason) = oracle.run(horizon);
                prop_assert!(oracle.trace.len() > 20, "only {} completions", oracle.trace.len());

                let mut fresh = Simulator::new(&model, SimRng::new(seed));
                recycled.reset(SimRng::new(seed));
                for sim in [&mut fresh, &mut recycled] {
                    for &(p, tokens) in &forced {
                        sim.force_marking(p, tokens);
                    }
                    sim.record_trace(true);
                    let out = sim.run_until(|_| false, horizon);
                    prop_assert_eq!((out.time, out.reason), (time, reason));
                    prop_assert_eq!(out.completions, oracle.trace.len() as u64);
                    prop_assert_eq!(sim.trace(), &oracle.trace[..]);
                    prop_assert_eq!(sim.marking().tokens(), oracle.marking.tokens());
                    prop_assert_eq!(sim.firing_counts(), &oracle.firing_counts[..]);
                }
            }
        }
    }

    /// What the oracle's rescans diagnosed for free: a predicate that
    /// reads a place outside its declared read set. `lurker` declares
    /// `q` but also reads `hidden`, which `setter` raises in the same
    /// settle; its cached verdict goes stale and the debug check must
    /// say why.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`lurker` is stale: a gate read set is probably incomplete")]
    fn incomplete_read_set_is_diagnosed() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let go = b.place("go", 0);
        let hidden = b.place("hidden", 0);
        b.add_activity(
            Activity::timed("t", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1).output(go, 1)),
        );
        b.add_activity(
            Activity::instantaneous("setter")
                .input(go, 1)
                .case(Case::with_prob(1.0).output(hidden, 1)),
        );
        b.add_activity(
            Activity::instantaneous("lurker").input_gate(InputGate::predicate(vec![q], move |m| {
                m.get(q) > 0 && m.get(hidden) > 0
            })),
        );
        let m = b.build().unwrap();
        Simulator::new(&m, SimRng::new(1)).run_until(|_| false, SimTime::from_ms(5.0));
    }
}
