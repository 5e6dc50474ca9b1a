//! Deterministic discrete-event simulation (DES) kernel.
//!
//! This crate provides the foundation every simulator in the workspace is
//! built on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//!   stored as integers so that runs are exactly reproducible,
//! * [`EventQueue`] — a cancellable pending-event set with *stable*
//!   (FIFO) tie-breaking for simultaneous events. It is a monotone radix
//!   heap on the key `(time << 64) | seq`: an event waits in the bucket
//!   of the highest bit in which its key differs from the last popped
//!   one, so an event far in the future costs nothing until the clock
//!   nears it. That relies on the simulation never scheduling before the
//!   current time (see the [`queue`] module docs).
//!
//! The kernel is deliberately free of randomness: distributions and RNG
//! plumbing live in `ctsim-stoch` so that this crate has no dependencies
//! at all.
//!
//! # Example
//!
//! ```
//! use ctsim_des::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_at(SimTime::from_ms(2.0), "second");
//! q.schedule_at(SimTime::from_ms(1.0), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_ms(1.0));
//! ```

pub mod queue;
pub mod time;

pub use queue::{EventHandle, EventQueue};
pub use time::{SimDuration, SimTime};
