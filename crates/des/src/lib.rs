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
//!   current time (see the [`queue`] module docs),
//! * [`Driver`] — a tiny convenience loop for running a simulation to
//!   quiescence or to a time horizon.
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

/// A minimal driver that pops events from an [`EventQueue`] and hands them
/// to a handler together with mutable simulation state.
///
/// Most simulators in this workspace own their loop directly; `Driver` is
/// for quick tests and simple models.
#[derive(Debug)]
pub struct Driver<E> {
    queue: EventQueue<E>,
}

impl<E> Default for Driver<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Driver<E> {
    /// Creates an empty driver at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
        }
    }

    /// Shared access to the underlying queue.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Mutable access to the underlying queue (for scheduling).
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Runs until the queue is empty or `horizon` is reached, whichever
    /// comes first. The handler may schedule further events.
    ///
    /// Returns the number of events processed.
    pub fn run_until<S>(
        &mut self,
        state: &mut S,
        horizon: SimTime,
        mut handler: impl FnMut(&mut EventQueue<E>, &mut S, SimTime, E),
    ) -> u64 {
        let mut n = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked event must pop");
            handler(&mut self.queue, state, t, ev);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_runs_in_time_order_and_respects_horizon() {
        let mut d: Driver<u32> = Driver::new();
        d.queue_mut().schedule_at(SimTime::from_ms(3.0), 3);
        d.queue_mut().schedule_at(SimTime::from_ms(1.0), 1);
        d.queue_mut().schedule_at(SimTime::from_ms(2.0), 2);
        d.queue_mut().schedule_at(SimTime::from_ms(9.0), 9);
        let mut seen = Vec::new();
        let n = d.run_until(&mut seen, SimTime::from_ms(5.0), |_, s, _, e| s.push(e));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![1, 2, 3]);
        // The event beyond the horizon is still pending.
        assert_eq!(d.queue().len(), 1);
    }

    #[test]
    fn driver_handler_can_schedule_more_events() {
        let mut d: Driver<u32> = Driver::new();
        d.queue_mut().schedule_at(SimTime::from_ms(1.0), 0);
        let mut count = 0u32;
        d.run_until(&mut count, SimTime::from_ms(10.0), |q, c, t, e| {
            *c += 1;
            if e < 3 {
                q.schedule_at(t + SimDuration::from_ms(1.0), e + 1);
            }
        });
        assert_eq!(count, 4);
    }
}
