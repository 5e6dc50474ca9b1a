//! Deterministic fault injection and recovery for the analytic
//! pipeline.
//!
//! The paper is a dependability study of a consensus algorithm under
//! crash faults; this crate gives the *engine itself* a fault story so
//! the scenario×load campaigns of the ROADMAP can inject faults into
//! the model without the pipeline falling over on its own. Two
//! pieces, each usable alone:
//!
//! - [`fail`] — a process-wide **failpoint registry**. Call sites name
//!   themselves (`fail::hit("solver.krylov")`) and a configured schedule
//!   decides, deterministically, which hits turn into injected
//!   failures. Disabled (the default) a hit is one relaxed atomic load
//!   — no lock, no clock, no allocation — so production paths carry
//!   the sites for free. Schedules draw from a [`ctsim_stoch::SimRng`]
//!   substream per site, so a `(spec, seed)` pair reproduces the same
//!   fault sequence bit-for-bit on every run, thread count, and
//!   machine.
//! - [`retry`] — a bounded **retry policy** with deterministic
//!   *virtual* backoff: the exponential backoff schedule is computed
//!   and recorded in the attempt trace (and an obs counter), but the
//!   thread never sleeps, so retries cost microseconds in CI and the
//!   trace still documents what a wall-clock deployment would have
//!   waited. Exhaustion surfaces the full attempt trace for typed
//!   errors upstream ([`SolveError::SpillFailed`] keeps it in the
//!   rendered message).
//!
//! Telemetry: when [`ctsim_obs::enabled`], injected faults bump
//! `resilience.injected_faults` and emit `failpoint.<site>` instants;
//! retries bump `resilience.retries` and `resilience.backoff_virtual_us`.
//! The CI out-of-core job gates on the exact `resilience.injected_faults`
//! count its schedule arms, so a mis-wired schedule cannot silently run
//! fault-free, or with only some of its faults.
//!
//! [`SolveError::SpillFailed`]: ../ctsim_solve/enum.SolveError.html

pub mod fail;
pub mod retry;

pub use fail::{configure, disarm, injected_total, Action};
pub use retry::{with_retries, RetryExhausted, RetryPolicy};
