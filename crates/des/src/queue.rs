//! The pending-event set: a cancellable priority queue of timed events.
//!
//! Two properties matter for reproducible distributed-system simulation:
//!
//! 1. **Stable tie-breaking.** Events scheduled for the same instant fire
//!    in the order they were scheduled (FIFO). Without this, simultaneous
//!    events — ubiquitous with deterministic service times — would fire in
//!    heap order, which is an artifact of the container.
//! 2. **O(1) cancellation.** Failure-detector timeouts are rescheduled
//!    on every received message; cancellation must not require a scan.
//!    Cancellation is lazy: the payload is taken out of its slot and the
//!    heap entry stays behind as a tombstone, skipped on pop.
//!
//! Payloads live in a slab (`slots` plus a free list) rather than in the
//! heap. A heap entry or an [`EventHandle`] names its event by
//! `(seq, slot)` and is live exactly while `slots[slot]` still carries
//! that `seq` and a payload. A slot goes back on the free list the moment
//! its event fires or is cancelled — the tombstone left in the heap keeps
//! the old `seq`, so it can never be mistaken for the slot's next
//! occupant — which bounds the slab by the largest number of events live
//! at once, however many schedule/cancel cycles run. Tombstones cost heap
//! entries only, and leave as the clock passes them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable to cancel it.
///
/// Handles are unique over the lifetime of one [`EventQueue`] and become
/// stale (harmlessly) once the event has fired or been cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    time: SimTime,
    seq: u64,
}

/// One slab cell: the payload of event `seq`, or `None` once that event
/// has fired or been cancelled.
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A cancellable future-event queue ordered by time, FIFO within a tick.
///
/// `E` is the event payload type; the queue itself never interprets it.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(HeapKey, u32)>>,
    // Payloads are kept out of the heap so cancellation is O(1).
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    now: SimTime,
    fired: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            fired: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (non-cancelled) scheduled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events fired so far (monotonic counter).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Schedules `event` at absolute time `t`.
    ///
    /// Scheduling in the past is a modelling error; in debug builds it
    /// panics, in release builds the event fires "now" (clamped).
    pub fn schedule_at(&mut self, t: SimTime, event: E) -> EventHandle {
        debug_assert!(
            t >= self.now,
            "scheduling into the past: {t} < {}",
            self.now
        );
        let t = t.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let cell = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = cell;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 live events");
                self.slots.push(cell);
                slot
            }
        };
        self.live += 1;
        self.heap.push(Reverse((HeapKey { time: t, seq }, slot)));
        EventHandle { seq, slot }
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a scheduled event. Returns the payload if the event was
    /// still pending, or `None` if it already fired or was cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        self.take(handle.seq, handle.slot)
    }

    /// Whether the event behind `handle` is still pending.
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.is_live(handle.seq, handle.slot)
    }

    /// The time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_tombstones();
        self.heap.peek().map(|Reverse((k, _))| k.time)
    }

    /// Pops the earliest live event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_tombstones();
        let Reverse((key, slot)) = self.heap.pop()?;
        let ev = self
            .take(key.seq, slot)
            .expect("tombstones were skipped, the event must be live");
        debug_assert!(key.time >= self.now, "event queue went backwards");
        self.now = key.time;
        self.fired += 1;
        Some((key.time, ev))
    }

    /// Removes every pending event; the clock and the fired count stay.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }

    /// Returns the queue to its just-created state — no events, clock at
    /// [`SimTime::ZERO`], nothing fired — keeping its allocations, so a
    /// recycled queue orders events exactly as a new one would. Sequence
    /// numbers carry on (only their order matters), which keeps handles
    /// issued before the reset stale rather than aliasing new events.
    pub fn reset(&mut self) {
        self.clear();
        self.now = SimTime::ZERO;
        self.fired = 0;
    }

    fn is_live(&self, seq: u64, slot: u32) -> bool {
        self.slots
            .get(slot as usize)
            .is_some_and(|s| s.seq == seq && s.event.is_some())
    }

    /// Takes the payload of event `seq` out of `slot` and frees the slot,
    /// if that event is still live.
    fn take(&mut self, seq: u64, slot: u32) -> Option<E> {
        let cell = self.slots.get_mut(slot as usize)?;
        if cell.seq != seq {
            return None;
        }
        let ev = cell.event.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(ev)
    }

    fn skip_tombstones(&mut self) {
        while let Some(&Reverse((key, slot))) = self.heap.peek() {
            if self.is_live(key.seq, slot) {
                return;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(5.0), 'c');
        q.schedule_at(SimTime::from_ms(1.0), 'a');
        q.schedule_at(SimTime::from_ms(3.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1.0);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(2.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(2.0));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(2.0), 1);
        q.pop();
        q.schedule_in(SimDuration::from_ms(3.0), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ms(5.0));
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_at(SimTime::from_ms(1.0), "doomed");
        q.schedule_at(SimTime::from_ms(2.0), "survivor");
        assert!(q.is_pending(h1));
        assert_eq!(q.cancel(h1), Some("doomed"));
        assert!(!q.is_pending(h1));
        // Double-cancel is a no-op.
        assert_eq!(q.cancel(h1), None);
        assert_eq!(q.len(), 1);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, "survivor");
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_head_does_not_block_peek() {
        let mut q = EventQueue::new();
        let h = q.schedule_at(SimTime::from_ms(1.0), 1);
        q.schedule_at(SimTime::from_ms(2.0), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(2.0)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(SimTime::from_ms(i as f64), i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn events_fired_counts_only_pops() {
        let mut q = EventQueue::new();
        let h = q.schedule_at(SimTime::from_ms(1.0), 1);
        q.schedule_at(SimTime::from_ms(2.0), 2);
        q.cancel(h);
        while q.pop().is_some() {}
        assert_eq!(q.events_fired(), 1);
    }

    /// A handle whose slot has a new occupant is stale: it neither
    /// reports nor cancels the newcomer.
    #[test]
    fn stale_handle_ignores_the_slots_new_occupant() {
        let mut q = EventQueue::new();
        let old = q.schedule_at(SimTime::from_ms(1.0), "old");
        assert_eq!(q.cancel(old), Some("old"));
        let new = q.schedule_at(SimTime::from_ms(2.0), "new");
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        assert!(!q.is_pending(old));
        assert_eq!(q.cancel(old), None);
        assert!(q.is_pending(new));
        // Same after the old event fired instead of being cancelled.
        assert_eq!(q.pop(), Some((SimTime::from_ms(2.0), "new")));
        let newer = q.schedule_at(SimTime::from_ms(3.0), "newer");
        assert_eq!(newer.slot, new.slot);
        assert!(!q.is_pending(new));
        assert_eq!(q.cancel(new), None);
        assert_eq!(q.pop(), Some((SimTime::from_ms(3.0), "newer")));
    }

    /// Timer churn behind a far-future event must not grow the slab:
    /// a cancelled slot is reusable at once, its tombstone only costs
    /// a heap entry.
    #[test]
    fn schedule_cancel_cycles_keep_the_slab_bounded() {
        let mut q = EventQueue::new();
        let far = q.schedule_at(SimTime::from_secs(1e6), u32::MAX);
        for i in 0..100_000u32 {
            let h = q.schedule_at(SimTime::from_ms(1.0 + i as f64), i);
            assert_eq!(q.cancel(h), Some(i));
        }
        assert_eq!(q.slots.len(), 2, "one live event plus one recycled slot");
        assert_eq!(q.len(), 1);
        assert!(q.is_pending(far));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1e6), u32::MAX)));
        assert!(q.heap.is_empty(), "the pop drained every tombstone");
    }

    #[test]
    fn len_counts_live_events_only() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let handles: Vec<_> = (0..10)
            .map(|i| q.schedule_at(SimTime::from_ms(i as f64), i))
            .collect();
        assert_eq!(q.len(), 10);
        for h in &handles[..4] {
            q.cancel(*h);
        }
        assert_eq!(q.len(), 6, "tombstones are not counted");
        q.pop();
        assert_eq!(q.len(), 5);
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// A recycled queue keeps FIFO order within a tick, whether it was
    /// cleared (clock kept) or reset (clock rewound).
    #[test]
    fn reuse_after_clear_or_reset_stays_fifo() {
        let mut q = EventQueue::new();
        let fill = |q: &mut EventQueue<i32>, t: SimTime| {
            let mut hs: Vec<_> = (0..50).map(|i| q.schedule_at(t, i)).collect();
            // Punch holes so the free list hands slots out of order.
            for h in hs.drain(..).step_by(3) {
                q.cancel(h);
            }
        };
        let drain = |q: &mut EventQueue<i32>| -> Vec<i32> {
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        };
        fill(&mut q, SimTime::from_ms(1.0));
        q.schedule_at(SimTime::from_ms(4.0), -1);
        q.pop();
        let stale = q.schedule_at(SimTime::from_ms(9.0), -2);

        q.clear();
        assert!(q.is_empty() && !q.is_pending(stale));
        assert_eq!(q.now(), SimTime::from_ms(1.0), "clear keeps the clock");
        let t = SimTime::from_ms(2.0);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        assert!(!q.is_pending(stale));
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());

        fill(&mut q, SimTime::from_ms(3.0));
        q.reset();
        assert!(q.is_empty());
        assert_eq!((q.now(), q.events_fired()), (SimTime::ZERO, 0));
        assert_eq!(q.peek_time(), None);
        let t = SimTime::from_ms(0.5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        assert!(!q.is_pending(stale) && q.cancel(stale).is_none());
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handles_are_unique() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_at(SimTime::from_ms(1.0), ());
        let h2 = q.schedule_at(SimTime::from_ms(1.0), ());
        assert_ne!(h1, h2);
    }
}
