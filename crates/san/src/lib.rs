//! A Stochastic Activity Network (SAN) modelling formalism and
//! simulation solver.
//!
//! Stochastic activity networks (Movaghar & Meyer 1984; Meyer, Movaghar &
//! Sanders 1985) are a class of timed Petri nets with four primitives:
//!
//! * **places** holding non-negative integer markings,
//! * **activities** — *timed* (with a delay distribution) or
//!   *instantaneous* (with priority/weight) — each with one or more
//!   probabilistic **cases**,
//! * **input gates** — an enabling *predicate* plus a marking-changing
//!   *function* executed on completion,
//! * **output gates** — marking-changing functions attached to cases.
//!
//! The DSN 2002 paper this workspace reproduces built its consensus model
//! in UltraSAN; this crate is an open reimplementation of the subset of
//! UltraSAN the paper relies on: model specification, composition by
//! place sharing (Join) and templating (Rep), and a discrete-event
//! simulation solver with replications and confidence intervals. Gates in
//! UltraSAN are fragments of C code over the marking; here they are Rust
//! closures with *declared* read/write sets, which the simulator uses for
//! incremental enabling checks.
//!
//! # Execution semantics
//!
//! * An activity is **enabled** when every input arc's place holds at
//!   least the arc's multiplicity and every input-gate predicate is true.
//! * Enabled **instantaneous** activities complete before any timed
//!   activity, highest priority first, ties broken randomly in proportion
//!   to their weights. The tie-break is one uniform draw walked over the
//!   tied activities in *first-touch order*: the order in which the
//!   marking changes since the last timed completion first reached them
//!   through a place they depend on (declaration order at time zero).
//!   That order is part of the semantics — a replication's samples
//!   depend on it to the bit — see [`sim`].
//! * An enabled **timed** activity samples its delay upon becoming
//!   enabled. If it becomes disabled before completion the sample is
//!   discarded ("restart" reactivation policy); a fresh delay is drawn
//!   next time it is enabled.
//! * Completion: remove input-arc tokens, run input-gate functions,
//!   select a case by probability, deposit output-arc tokens, run the
//!   case's output-gate functions.
//!
//! # Example
//!
//! A two-state failure-detector model (the paper's Fig. 5, simplified):
//!
//! ```
//! use ctsim_san::{Activity, Case, SanBuilder, Simulator, StopReason};
//! use ctsim_stoch::{Dist, SimRng};
//!
//! let mut b = SanBuilder::new("fd");
//! let trust = b.place("trust", 1);
//! let susp = b.place("susp", 0);
//! b.add_activity(
//!     Activity::timed("ts", Dist::Exp { mean: 9.0 })
//!         .input(trust, 1)
//!         .case(Case::with_prob(1.0).output(susp, 1)),
//! );
//! b.add_activity(
//!     Activity::timed("st", Dist::Exp { mean: 1.0 })
//!         .input(susp, 1)
//!         .case(Case::with_prob(1.0).output(trust, 1)),
//! );
//! let model = b.build().unwrap();
//! let mut sim = Simulator::new(&model, SimRng::new(1));
//! let out = sim.run_until(|m| m.get(susp) > 0, ctsim_des::SimTime::from_secs(10.0));
//! assert_eq!(out.reason, StopReason::Predicate);
//! ```

pub mod compose;
pub mod model;
pub mod reward;
pub mod sim;

pub use model::{
    Activity, ActivityId, Case, InputGate, Marking, ModelError, OutputGate, PlaceId, SanBuilder,
    SanModel, Timing,
};
pub use reward::{replicate, Replications};
pub use sim::{RunOutcome, Simulator, StopReason};
