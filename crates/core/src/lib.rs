//! The Chandra–Toueg ◇S consensus algorithm — the protocol whose
//! performance the DSN 2002 paper analyzes.
//!
//! # The algorithm (paper §2.1)
//!
//! Consensus is defined over `n` processes, each proposing an initial
//! value; all correct processes must decide the same proposed value.
//! The Chandra–Toueg algorithm assumes the asynchronous model augmented
//! with an unreliable failure detector of class ◇S and a majority of
//! correct processes. It proceeds in asynchronous *rounds* under the
//! rotating-coordinator paradigm; each round has four phases:
//!
//! 1. every process sends its current estimate (with the round number
//!    in which it was last updated) to the round's coordinator;
//! 2. the coordinator gathers a majority of estimates and selects the
//!    one with the highest timestamp as its proposal, which it sends to
//!    all participants;
//! 3. each participant either receives the proposal and replies with a
//!    positive acknowledgement, or — if its failure detector suspects
//!    the coordinator — replies with a negative acknowledgement;
//! 4. the coordinator gathers a majority of (n)acks: all positive means
//!    it reliably broadcasts the decision; any negative means the next
//!    round starts with the next coordinator.
//!
//! The decision is disseminated with a lazy reliable broadcast: the
//! first `Decide` a process receives is adopted and relayed once.
//!
//! [`CtConsensus`] is the event-driven protocol engine.
//! [`ConsensusNode`] is its one host on the measurement engine: it owns
//! a pluggable failure detector, the engine of the current instance and
//! the buffer of traffic for instances not reached yet, and tags what
//! the engine sends through [`InstanceWire`] (see [`node`]). On its own
//! it is a runnable [`ctsim_neko::Node`] for a single consensus; the
//! campaign process of `ctsim-testbed` drives it through a sequence of
//! instances, one per measured execution.

pub mod consensus;
pub mod node;

pub use consensus::{ConsensusMsg, CtConsensus, Phase};
pub use node::{ConsensusNode, InstanceWire};
