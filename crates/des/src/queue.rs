//! The pending-event set: a cancellable priority queue of timed events.
//!
//! Two properties matter for reproducible distributed-system simulation:
//!
//! 1. **Stable tie-breaking.** Events scheduled for the same instant fire
//!    in the order they were scheduled (FIFO). Without this, simultaneous
//!    events — ubiquitous with deterministic service times — would fire in
//!    container order, an artifact of the data structure.
//! 2. **O(1) cancellation.** Failure-detector timeouts are rescheduled
//!    on every received message; cancellation must not require a scan.
//!    Cancellation is lazy: the payload is taken out of its slot and the
//!    queue entry stays behind as a tombstone, dropped when its bucket is
//!    next scanned.
//!
//! # A monotone radix heap
//!
//! Every event has the 128-bit key `(time_ns << 64) | seq`, where `seq`
//! counts schedules, so keys are unique and ordering by key is ordering
//! by time, FIFO within an instant. A simulation never schedules before
//! the current time, so every pending key is larger than the key of the
//! last event popped: the queue is *monotone*. A radix heap uses that. An
//! event goes to bucket `b`, the highest bit in which its key differs
//! from the last popped key, and an occupancy bitmap names the non-empty
//! buckets. Pop scans the lowest non-empty bucket for its minimum, makes
//! that the new last popped key and re-buckets the rest of the bucket
//! against it; they all differ from it below bit `b`, so each event moves
//! down at most 128 times over its life and a push is O(1).
//!
//! A far-future event therefore costs nothing while it waits: it sits in
//! a high bucket that no pop looks at until the clock reaches its
//! neighbourhood, whereas in a binary heap every push and pop pays one
//! level per doubling of the pending set, far-future events included.
//! Monotonicity is what makes this sound, so the last popped key moves
//! only when a live event is popped: [`EventQueue::peek_time`] and the
//! tombstone drops never move it past [`EventQueue::now`], and a caller
//! may always schedule at `now`. [`EventQueue::clear`] resets it to
//! `(now, 0)` and [`EventQueue::reset`] to `(0, 0)`.
//!
//! A caller that knows a series of future events in advance but wants
//! only the next one pending can reserve their sequence numbers up front
//! ([`EventQueue::reserve_seqs`]) and schedule each under its own later
//! ([`EventQueue::schedule_reserved`]): the keys, hence the pop order,
//! are those of scheduling them all at once, provided each is scheduled
//! before the clock passes its key.
//!
//! A bucket is a singly linked list through one arena of entries with a
//! free list, so moving an entry between buckets relinks it in place and
//! a queue allocates no more than a binary heap would: a short-lived
//! queue of a few events, such as one SAN replication's, pays for no
//! per-bucket storage. A scan leaves the minimum at the head of its
//! bucket, and the pop that follows a peek takes it from there without a
//! second scan.
//!
//! Payloads live in a slab (`slots` plus a free list) rather than in the
//! entries. An entry or an [`EventHandle`] names its event by `(seq,
//! slot)` and is live exactly while `slots[slot]` still carries that
//! `seq` and a payload. A slot goes back on the free list the moment its
//! event fires or is cancelled — the tombstone left in its bucket keeps
//! the old `seq`, so it can never be mistaken for the slot's next
//! occupant — which bounds the slab by the largest number of events live
//! at once, however many schedule/cancel cycles run.

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

/// The end of a bucket list.
const NIL: u32 = u32::MAX;

/// One arena entry: the key `(time, seq)` of an event, its slab slot,
/// and the next entry of its bucket (or of the arena's free list).
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    seq: u64,
    slot: u32,
    next: u32,
}

impl Entry {
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

/// The bucket of `key` relative to the last popped key `last < key`: the
/// index of the highest bit in which they differ.
fn bucket_of(key: u128, last: u128) -> usize {
    debug_assert!(
        key > last,
        "event key {key} not above the last popped {last}"
    );
    127 - (key ^ last).leading_zeros() as usize
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
    /// The first entry of each bucket, or [`NIL`].
    heads: [u32; 128],
    /// Bit `b` is set while bucket `b` holds entries (live or not).
    occupied: u128,
    /// The key of the last popped event; every pending key is above it.
    last: u128,
    /// A bucket whose head is the earliest live event, as the last scan
    /// left it: valid until a push at or below it, a cancel or a clear.
    min_bucket: Option<usize>,
    entries: Vec<Entry>,
    /// The arena's free list, threaded through `Entry::next`.
    spare: u32,
    /// Entries in the buckets, tombstones included; a scan checks
    /// liveness only while this exceeds `live`.
    stored: usize,
    // Payloads are kept out of the entries so cancellation is O(1).
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
            heads: [NIL; 128],
            occupied: 0,
            last: 0,
            min_bucket: None,
            entries: Vec::new(),
            spare: NIL,
            stored: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            // Sequence numbers start at 1, so every key is above the
            // `(now, 0)` that a new or cleared queue starts from.
            next_seq: 1,
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
        self.insert(t, seq, event)
    }

    /// Reserves `count` consecutive sequence numbers, as `count` calls of
    /// [`EventQueue::schedule_at`] would use, and returns the first. An
    /// event scheduled later under one of them with
    /// [`EventQueue::schedule_reserved`] gets the key it would have had
    /// if it had been scheduled now, so it breaks ties the same way.
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += count;
        first
    }

    /// Schedules `event` at `t` under `seq`, a sequence number from
    /// [`EventQueue::reserve_seqs`] that no other event has used. The
    /// key `(t, seq)` must be above the last popped key: the caller
    /// arms the event before the clock passes it, which a time after
    /// [`EventQueue::now`] guarantees.
    pub fn schedule_reserved(&mut self, t: SimTime, seq: u64, event: E) -> EventHandle {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was not reserved"
        );
        debug_assert!(
            (u128::from(t.as_nanos()) << 64) | u128::from(seq) > self.last,
            "reserved key ({t}, {seq}) not above the last popped key"
        );
        self.insert(t, seq, event)
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a scheduled event. Returns the payload if the event was
    /// still pending, or `None` if it already fired or was cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        let ev = self.take(handle.seq, handle.slot)?;
        self.min_bucket = None;
        Some(ev)
    }

    /// Whether the event behind `handle` is still pending.
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.is_live(handle.seq, handle.slot)
    }

    /// The time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let b = self.find_min()?;
        Some(SimTime::from_nanos(
            self.entries[self.heads[b] as usize].time,
        ))
    }

    /// Pops the earliest live event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let b = self.find_min()?;
        self.min_bucket = None;
        let i = self.heads[b];
        let min = self.entries[i as usize];
        self.release(i);
        self.last = min.key();
        // The rest of the bucket agrees with the new last key above bit
        // `b`, so every entry moves to a lower bucket.
        self.heads[b] = NIL;
        self.occupied &= !(1 << b);
        let mut c = min.next;
        while c != NIL {
            let e = self.entries[c as usize];
            self.link(c, bucket_of(e.key(), self.last));
            c = e.next;
        }
        let ev = self
            .take(min.seq, min.slot)
            .expect("the scan skipped tombstones, the event must be live");
        let t = SimTime::from_nanos(min.time);
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.fired += 1;
        Some((t, ev))
    }

    /// Removes every pending event; the clock and the fired count stay.
    pub fn clear(&mut self) {
        self.drop_entries();
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.last = u128::from(self.now.as_nanos()) << 64;
    }

    /// Returns the queue to its just-created state — no events, clock at
    /// [`SimTime::ZERO`], nothing fired — keeping its allocations, so a
    /// recycled queue orders events exactly as a new one would. Sequence
    /// numbers carry on (only their order matters), which keeps handles
    /// issued before the reset stale rather than aliasing new events.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.clear();
        self.fired = 0;
    }

    /// Puts event `seq` at `t` into the slab and its bucket.
    #[inline(always)]
    fn insert(&mut self, t: SimTime, seq: u64, event: E) -> EventHandle {
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
        let entry = Entry {
            time: t.as_nanos(),
            seq,
            slot,
            next: NIL,
        };
        let b = bucket_of(entry.key(), self.last);
        let i = match self.spare {
            NIL => {
                let i = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("more than 2^32 - 1 queued entries");
                self.entries.push(entry);
                i
            }
            i => {
                self.spare = self.entries[i as usize].next;
                self.entries[i as usize] = entry;
                i
            }
        };
        self.stored += 1;
        self.link(i, b);
        if self.min_bucket.is_some_and(|m| b <= m) {
            self.min_bucket = None;
        }
        EventHandle { seq, slot }
    }

    /// Puts entry `i` at the head of bucket `b`.
    fn link(&mut self, i: u32, b: usize) {
        self.entries[i as usize].next = self.heads[b];
        self.heads[b] = i;
        self.occupied |= 1 << b;
    }

    /// Returns entry `i`, already out of its bucket, to the arena.
    fn release(&mut self, i: u32) {
        self.entries[i as usize].next = self.spare;
        self.spare = i;
        self.stored -= 1;
    }

    /// Empties every bucket and the arena, keeping its allocation.
    fn drop_entries(&mut self) {
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.heads[b] = NIL;
            self.occupied &= !(1 << b);
        }
        self.entries.clear();
        self.spare = NIL;
        self.stored = 0;
        self.min_bucket = None;
    }

    /// The bucket whose head is the earliest live event, if any. A scan
    /// reads the lowest non-empty bucket, drops its tombstones and moves
    /// its minimum to the head; a bucket of tombstones only is emptied
    /// and the next one scanned.
    fn find_min(&mut self) -> Option<usize> {
        if self.min_bucket.is_some() {
            return self.min_bucket;
        }
        if self.live == 0 {
            self.drop_entries();
            return None;
        }
        loop {
            let b = self.occupied.trailing_zeros() as usize;
            let tombstones = self.stored > self.live;
            // (predecessor, entry, key) of the least live key so far.
            let mut min: Option<(u32, u32, u128)> = None;
            let mut prev = NIL;
            let mut c = self.heads[b];
            while c != NIL {
                let e = self.entries[c as usize];
                if tombstones && !self.is_live(e.seq, e.slot) {
                    match prev {
                        NIL => self.heads[b] = e.next,
                        p => self.entries[p as usize].next = e.next,
                    }
                    self.release(c);
                } else {
                    if min.map_or(true, |(_, _, k)| e.key() < k) {
                        min = Some((prev, c, e.key()));
                    }
                    prev = c;
                }
                c = e.next;
            }
            let Some((p, i, _)) = min else {
                self.occupied &= !(1 << b);
                continue;
            };
            if p != NIL {
                self.entries[p as usize].next = self.entries[i as usize].next;
                self.entries[i as usize].next = self.heads[b];
                self.heads[b] = i;
            }
            self.min_bucket = Some(b);
            return Some(b);
        }
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
        assert_eq!(q.stored, 0, "the pop dropped every tombstone");
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
