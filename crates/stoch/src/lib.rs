//! Random distributions, statistics, and RNG plumbing for simulation
//! studies.
//!
//! The DSN 2002 study this workspace reproduces needs:
//!
//! * the distribution families UltraSAN offers for timed activities
//!   (deterministic, exponential, uniform, Weibull, Erlang) plus the
//!   *bimodal uniform mixture* the paper fits to measured message delays
//!   ([`Dist`]),
//! * online statistics with Student-t confidence intervals — the paper
//!   reports means with 90 % confidence intervals ([`stats::OnlineStats`]),
//! * empirical CDFs for the latency-distribution figures
//!   ([`stats::Ecdf`]),
//! * the bimodal-fit procedure of the paper's §5.1 ([`fit`]),
//! * phase-type (hyper-Erlang) moment matching, which the analytic
//!   solver uses to Markovianize deterministic and bi-modal stages
//!   ([`PhaseType`]),
//! * reproducible, splittable RNG streams ([`SimRng`]) and the seeded
//!   fan-out of independent jobs over worker threads ([`fan_out`]).
//!
//! All durations handled by this crate are `f64` **milliseconds** — the
//! unit the paper uses throughout; conversion to integer simulation time
//! happens at the simulator boundary.

pub mod dist;
pub mod fit;
pub mod phase;
pub mod rng;
pub mod stats;

pub use dist::Dist;
pub use phase::{PhBranch, PhaseType};
pub use rng::{fan_out, resolve_threads, SimRng};
pub use stats::{Ecdf, OnlineStats};
