//! The ◇S consensus protocol engine: a reactive state machine driven by
//! message and suspicion events.

use ctsim_des::SimTime;
use ctsim_neko::ProcessId;

/// The environment a consensus engine runs in: message output, handler
/// CPU billing, and clocks.
///
/// [`crate::ConsensusNode`] implements it over its `ctsim_neko::Ctx`,
/// wrapping each message in the host's wire type: untagged for a single
/// consensus, tagged with the instance number under atomic broadcast.
pub trait ConsensusEnv<V> {
    /// Sends a consensus message to one process.
    fn send(&mut self, to: ProcessId, msg: ConsensusMsg<V>);
    /// Sends a consensus message to every other process (sequential
    /// unicasts, as in the measured implementation).
    fn broadcast_others(&mut self, msg: ConsensusMsg<V>);
    /// Bills one unit of protocol-handler work on the local CPU.
    fn charge_work(&mut self);
    /// The local (NTP-disciplined) clock.
    fn now_local(&self) -> SimTime;
    /// True simulation time (instrumentation only).
    fn now_true(&self) -> SimTime;
}

/// The wire messages of the algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusMsg<V> {
    /// Phase 1: a process's current estimate, stamped with the round in
    /// which it was last adopted.
    Estimate {
        /// Round this estimate is sent for.
        round: u64,
        /// The estimate.
        est: V,
        /// Round in which `est` was last adopted from a coordinator.
        ts: u64,
    },
    /// Phase 2: the coordinator's proposal for this round.
    Propose {
        /// The proposing round.
        round: u64,
        /// The proposed value.
        est: V,
    },
    /// Phase 3: positive acknowledgement.
    Ack {
        /// The acknowledged round.
        round: u64,
    },
    /// Phase 3: negative acknowledgement (coordinator suspected).
    Nack {
        /// The refused round.
        round: u64,
    },
    /// Phase 4 / reliable broadcast: the decision.
    Decide {
        /// The decided value.
        est: V,
    },
}

impl<V> ConsensusMsg<V> {
    /// The round a message belongs to (`None` for decisions, which are
    /// round-independent).
    pub fn round(&self) -> Option<u64> {
        match self {
            ConsensusMsg::Estimate { round, .. }
            | ConsensusMsg::Propose { round, .. }
            | ConsensusMsg::Ack { round }
            | ConsensusMsg::Nack { round } => Some(*round),
            ConsensusMsg::Decide { .. } => None,
        }
    }
}

/// Where a process stands within its current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not started (nothing proposed yet).
    Idle,
    /// Coordinator, phase 2: gathering a majority of estimates.
    CoordWaitEstimates,
    /// Coordinator, phase 4: gathering a majority of (n)acks.
    CoordWaitAcks,
    /// Participant, phase 3: waiting for the proposal or a suspicion.
    WaitProposal,
    /// Decided; the protocol is finished for this process.
    Decided,
}

/// Per-round tallies kept by the coordinator.
#[derive(Debug, Clone)]
struct RoundTally<V> {
    estimates: Vec<(V, u64)>,
    acks: u32,
    nacks: u32,
}

impl<V> Default for RoundTally<V> {
    fn default() -> Self {
        Self {
            estimates: Vec::new(),
            acks: 0,
            nacks: 0,
        }
    }
}

/// The Chandra–Toueg ◇S consensus engine for one process.
///
/// The engine is transport-agnostic: the owner forwards messages via
/// [`CtConsensus::on_message`] and failure-detector transitions via
/// [`CtConsensus::on_suspicion`]; outgoing messages go through its
/// [`ConsensusEnv`]. The `suspected` closure passed to the event handlers is the
/// failure-detector query `D_p` of the model. See
/// [`crate::ConsensusNode`] for a ready-made wrapper.
#[derive(Debug)]
pub struct CtConsensus<V> {
    me: ProcessId,
    n: usize,
    majority: usize,
    phase: Phase,
    round: u64,
    estimate: Option<V>,
    ts: u64,
    tally: RoundTally<V>,
    /// Messages for rounds this process has not reached yet.
    pending: Vec<(ProcessId, ConsensusMsg<V>)>,
    decision: Option<V>,
    decided_local: Option<SimTime>,
    decided_true: Option<SimTime>,
    decide_relayed: bool,
    rounds_executed: u64,
}

impl<V: Clone> CtConsensus<V> {
    /// Creates an engine for process `me` in a system of `n` processes.
    ///
    /// # Panics
    /// Panics if `me` is out of range or `n == 0`.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(n > 0, "consensus needs at least one process");
        assert!(me.0 < n, "process id out of range");
        Self {
            me,
            n,
            majority: n / 2 + 1,
            phase: Phase::Idle,
            round: 0,
            estimate: None,
            ts: 0,
            tally: RoundTally::default(),
            pending: Vec::new(),
            decision: None,
            decided_local: None,
            decided_true: None,
            decide_relayed: false,
            rounds_executed: 0,
        }
    }

    /// The coordinator of a round: `p_i` coordinates rounds `kn + i`
    /// (1-based in the paper); round 1 is coordinated by `p1`.
    pub fn coordinator_of(&self, round: u64) -> ProcessId {
        ProcessId(((round - 1) % self.n as u64) as usize)
    }

    /// The majority threshold `⌈(n+1)/2⌉`.
    pub fn majority(&self) -> usize {
        self.majority
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }

    /// Local-clock timestamp of the decision (what the paper measures).
    pub fn decided_at_local(&self) -> Option<SimTime> {
        self.decided_local
    }

    /// True-time timestamp of the decision (instrumentation only).
    pub fn decided_at_true(&self) -> Option<SimTime> {
        self.decided_true
    }

    /// The round this process is currently executing.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of rounds this process entered.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether [`CtConsensus::propose`] has been called (or a decision
    /// already arrived).
    pub fn has_started(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }

    /// Proposes an initial value and starts round 1. A no-op if a
    /// decision already arrived (possible when other processes finish
    /// before this one even starts).
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn propose(
        &mut self,
        env: &mut dyn ConsensusEnv<V>,
        value: V,
        suspected: &dyn Fn(ProcessId) -> bool,
    ) {
        if self.phase == Phase::Decided {
            return;
        }
        assert!(!self.has_started(), "propose called twice");
        self.estimate = Some(value);
        self.ts = 0;
        self.start_round(env, 1, suspected);
    }

    /// Handles an incoming protocol message.
    pub fn on_message(
        &mut self,
        env: &mut dyn ConsensusEnv<V>,
        from: ProcessId,
        msg: ConsensusMsg<V>,
        suspected: &dyn Fn(ProcessId) -> bool,
    ) {
        if self.phase == Phase::Decided {
            return;
        }
        match msg {
            ConsensusMsg::Decide { est } => self.deliver_decision(env, est),
            ConsensusMsg::Estimate { round, est, ts } => {
                if round > self.round {
                    self.pending
                        .push((from, ConsensusMsg::Estimate { round, est, ts }));
                } else if round == self.round && self.phase == Phase::CoordWaitEstimates {
                    self.record_estimate(env, est, ts, suspected);
                }
                // Older rounds: stale, dropped without billing work.
            }
            ConsensusMsg::Propose { round, est } => {
                if round > self.round {
                    self.pending
                        .push((from, ConsensusMsg::Propose { round, est }));
                } else if round == self.round && self.phase == Phase::WaitProposal {
                    // Phase 3, positive path: adopt and acknowledge.
                    env.charge_work();
                    self.estimate = Some(est);
                    self.ts = round;
                    let coord = self.coordinator_of(round);
                    env.send(coord, ConsensusMsg::Ack { round });
                    self.start_round(env, round + 1, suspected);
                }
            }
            ConsensusMsg::Ack { round } => {
                if round == self.round && self.phase == Phase::CoordWaitAcks {
                    self.tally.acks += 1;
                    self.check_ack_majority(env, suspected);
                } else if round == self.round && self.phase == Phase::CoordWaitEstimates {
                    // Cannot happen: acks answer our own proposal.
                    debug_assert!(false, "ack before proposing");
                } else if round > self.round {
                    self.pending.push((from, ConsensusMsg::Ack { round }));
                }
            }
            ConsensusMsg::Nack { round } => {
                if round == self.round
                    && matches!(self.phase, Phase::CoordWaitAcks | Phase::CoordWaitEstimates)
                {
                    // Nacks may arrive while still gathering estimates
                    // (a participant suspected us before we proposed);
                    // they count towards phase 4.
                    self.tally.nacks += 1;
                    self.check_ack_majority(env, suspected);
                } else if round > self.round {
                    self.pending.push((from, ConsensusMsg::Nack { round }));
                }
            }
        }
    }

    /// Handles a failure-detector transition. Only *new suspicions* of
    /// the current coordinator matter (phase 3's negative path).
    pub fn on_suspicion(
        &mut self,
        env: &mut dyn ConsensusEnv<V>,
        target: ProcessId,
        now_suspected: bool,
        suspected: &dyn Fn(ProcessId) -> bool,
    ) {
        if !now_suspected || self.phase != Phase::WaitProposal {
            return;
        }
        if target == self.coordinator_of(self.round) {
            let round = self.round;
            env.charge_work();
            env.send(self.coordinator_of(round), ConsensusMsg::Nack { round });
            self.start_round(env, round + 1, suspected);
        }
    }

    fn start_round(
        &mut self,
        env: &mut dyn ConsensusEnv<V>,
        mut round: u64,
        suspected: &dyn Fn(ProcessId) -> bool,
    ) {
        loop {
            self.round = round;
            self.rounds_executed += 1;
            self.tally = RoundTally::default();
            let coord = self.coordinator_of(round);
            if coord == self.me {
                self.phase = Phase::CoordWaitEstimates;
                // Phase 1 to self: the coordinator's own estimate is
                // recorded directly, as the measured implementation does.
                let est = self.estimate.clone().expect("estimate set by propose");
                let ts = self.ts;
                self.record_estimate(env, est, ts, suspected);
            } else {
                let est = self.estimate.clone().expect("estimate set by propose");
                env.send(
                    coord,
                    ConsensusMsg::Estimate {
                        round,
                        est,
                        ts: self.ts,
                    },
                );
                self.phase = Phase::WaitProposal;
            }
            if self.phase == Phase::Decided || self.round != round {
                // record_estimate chained into a decision or a nested
                // round change; everything is handled.
                return;
            }
            // Replay buffered messages addressed to this round.
            let mut replay = Vec::new();
            self.pending.retain(|(from, m)| match m.round() {
                Some(r) if r == round => {
                    replay.push((*from, m.clone()));
                    false
                }
                Some(r) => r > round, // drop abandoned rounds
                None => true,
            });
            for (from, m) in replay {
                self.on_message(env, from, m, suspected);
                if self.phase == Phase::Decided || self.round != round {
                    return;
                }
            }
            // Phase 3 negative path, taken immediately when the round's
            // coordinator is already suspected as the round begins.
            if self.phase == Phase::WaitProposal && suspected(coord) {
                env.charge_work();
                env.send(coord, ConsensusMsg::Nack { round });
                round += 1;
                continue;
            }
            return;
        }
    }

    fn record_estimate(
        &mut self,
        env: &mut dyn ConsensusEnv<V>,
        est: V,
        ts: u64,
        suspected: &dyn Fn(ProcessId) -> bool,
    ) {
        debug_assert_eq!(self.phase, Phase::CoordWaitEstimates);
        if self.tally.estimates.len() < self.majority {
            env.charge_work();
            self.tally.estimates.push((est, ts));
            if self.tally.estimates.len() == self.majority {
                // Phase 2: propose the estimate with the largest stamp
                // (first received wins ties, so in stable runs the
                // coordinator proposes its own estimate).
                let mut best_idx = 0;
                for (i, (_, ts)) in self.tally.estimates.iter().enumerate() {
                    if *ts > self.tally.estimates[best_idx].1 {
                        best_idx = i;
                    }
                }
                let (best, _) = self.tally.estimates[best_idx].clone();
                self.estimate = Some(best.clone());
                self.ts = self.round;
                let round = self.round;
                env.broadcast_others(ConsensusMsg::Propose { round, est: best });
                self.phase = Phase::CoordWaitAcks;
                // The coordinator's own positive ack.
                self.tally.acks += 1;
                self.check_ack_majority(env, suspected);
            }
        }
    }

    fn check_ack_majority(
        &mut self,
        env: &mut dyn ConsensusEnv<V>,
        suspected: &dyn Fn(ProcessId) -> bool,
    ) {
        if self.phase != Phase::CoordWaitAcks {
            return;
        }
        let total = self.tally.acks + self.tally.nacks;
        if (total as usize) < self.majority {
            return;
        }
        if self.tally.nacks == 0 {
            // Phase 4, positive outcome: reliably broadcast the decision.
            // The coordinator R-delivers its own decide through the local
            // stack (a loopback message), as the measured implementation
            // does.
            let est = self.estimate.clone().expect("estimate set");
            env.charge_work();
            self.decide_relayed = true;
            env.broadcast_others(ConsensusMsg::Decide { est: est.clone() });
            let me = self.me;
            env.send(me, ConsensusMsg::Decide { est });
        } else {
            // Phase 4, negative outcome: next round, next coordinator.
            let next = self.round + 1;
            self.start_round(env, next, suspected);
        }
    }

    fn deliver_decision(&mut self, env: &mut dyn ConsensusEnv<V>, est: V) {
        if self.decision.is_some() {
            return;
        }
        env.charge_work();
        self.decision = Some(est.clone());
        self.decided_local = Some(env.now_local());
        self.decided_true = Some(env.now_true());
        self.phase = Phase::Decided;
        self.pending.clear();
        if !self.decide_relayed {
            // Lazy reliable broadcast: relay once.
            self.decide_relayed = true;
            env.broadcast_others(ConsensusMsg::Decide { est });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_rotates_one_based() {
        let c: CtConsensus<u64> = CtConsensus::new(ProcessId(0), 3);
        assert_eq!(c.coordinator_of(1), ProcessId(0));
        assert_eq!(c.coordinator_of(2), ProcessId(1));
        assert_eq!(c.coordinator_of(3), ProcessId(2));
        assert_eq!(c.coordinator_of(4), ProcessId(0));
    }

    #[test]
    fn majority_is_ceil_half_plus() {
        for (n, maj) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (11, 6)] {
            let c: CtConsensus<u64> = CtConsensus::new(ProcessId(0), n);
            assert_eq!(c.majority(), maj, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _: CtConsensus<u64> = CtConsensus::new(ProcessId(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_rejected() {
        let _: CtConsensus<u64> = CtConsensus::new(ProcessId(3), 3);
    }

    #[test]
    fn initial_state_is_idle() {
        let c: CtConsensus<u64> = CtConsensus::new(ProcessId(1), 5);
        assert_eq!(c.phase(), Phase::Idle);
        assert!(!c.has_started());
        assert!(c.decision().is_none());
        assert_eq!(c.rounds_executed(), 0);
    }

    #[test]
    fn msg_round_accessor() {
        assert_eq!(
            ConsensusMsg::Estimate {
                round: 3,
                est: 1u64,
                ts: 0
            }
            .round(),
            Some(3)
        );
        assert_eq!(ConsensusMsg::<u64>::Ack { round: 7 }.round(), Some(7));
        assert_eq!(ConsensusMsg::Decide { est: 1u64 }.round(), None);
    }
}
