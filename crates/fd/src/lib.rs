//! Failure detection: the paper's push-style heartbeat detector, an
//! oracle detector for controlled run classes, and the Chen–Toueg–
//! Aguilera quality-of-service metrics.
//!
//! The heartbeat algorithm (paper §2.2, Fig. 1): every process sends a
//! heartbeat to all others every `T_h`; process `p` starts suspecting
//! `q` when no message (heartbeat *or* application message) arrived from
//! `q` for longer than the timeout `T`, and stops suspecting upon the
//! next message from `q`.
//!
//! Run classes 1 and 2 of the paper use idealized failure detectors
//! ("complete and accurate"): [`OracleFd`] provides those. Class 3 uses
//! the real [`HeartbeatFd`]. It keeps, per monitored process, only the
//! three numbers paper §4 estimates QoS from — suspected time,
//! trust→suspect and suspect→trust counts — folded as each transition
//! happens, and [`HeartbeatFd::pair_qos`] turns them into the mistake
//! recurrence time `T_MR` and mistake duration `T_M` of [`qos`] with the
//! two equations of §4. No transition is logged.

pub mod heartbeat;
pub mod oracle;
pub mod qos;

pub use heartbeat::{FdParams, HeartbeatFd};
pub use oracle::OracleFd;
pub use qos::{aggregate_qos, PairQos, QosSummary};

use ctsim_neko::{Ctx, ProcessId};

/// A suspicion-state change reported by a failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdEvent {
    /// The monitored process.
    pub target: ProcessId,
    /// `true` = started suspecting, `false` = stopped suspecting.
    pub suspected: bool,
}

/// The interface consensus (or any client protocol) uses to query and
/// drive a failure-detector module.
///
/// The owner [`ctsim_neko::Node`] must forward lifecycle events:
/// `on_start` once, `note_alive` on **every** message received (the
/// paper's detector treats any message as a liveness proof), and
/// `on_timer` for timer tokens the detector owns.
pub trait FailureDetector<M> {
    /// Initializes the detector (heartbeat loop, timeout timers).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);
    /// A message (of any kind) from `from` was received.
    fn note_alive(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId);
    /// Offers a timer token; returns `true` if the detector consumed it.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) -> bool;
    /// Is `q` currently suspected?
    fn is_suspected(&self, q: ProcessId) -> bool;
    /// Takes the oldest suspicion-state change not taken yet.
    fn drain_events(&mut self) -> Option<FdEvent>;
}

#[cfg(test)]
mod tests {
    // Cross-module integration tests live in `heartbeat` and the
    // workspace-level `tests/` directory.
}
