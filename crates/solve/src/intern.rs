//! Lock-free concurrent state interning.
//!
//! The exploration workers of [`crate::StateSpace`] all write newly
//! discovered states into one shared [`Interner`] *during* expansion —
//! there is no sequential merge phase. The design is the classic
//! model-checker state table:
//!
//! * **One open-addressed hash table.** A linear-probed array of
//!   `AtomicU64` slots holding `0` (empty), [`BUSY`] (an insert in
//!   flight), or the high half of the state's hash next to
//!   `state_id + 1`. The high half picks the probe start and doubles as
//!   the tag a probe compares before it touches the state arena.
//!   Lookup and insert are a CAS race: the first worker to swing a slot
//!   from empty to [`BUSY`] allocates the state id, writes the state,
//!   and publishes the slot with release ordering; racers spin the
//!   handful of nanoseconds the publish takes, then compare keys and
//!   move on. A lookup that ends in a published slot — a hit, or a walk
//!   past other states — performs **loads only**: no lock word, no
//!   reference count, nothing another worker's cache must give up.
//! * **A segmented append-only arena.** State ids come from one global
//!   `fetch_add` counter and index segments allocated on demand through
//!   `OnceLock`: 512 states, then doubling up to a plateau granule the
//!   state cap sets (cap / 4096, clamped to 512 … 128 Ki states; 512 at
//!   every n = 3 cap), then one granule each. A state's packed words
//!   never move once written — readers need no locks, ids handed to
//!   one worker stay valid for every other worker, a hundred-state
//!   exploration allocates kilobytes, a multi-million-state one
//!   over-allocates at most one granule, and the directory, fixed at
//!   construction, addresses every id below the cap in at most 16 Ki
//!   segments.
//! * **Growth at the level boundary.** The driver is single-threaded
//!   between two BFS levels, and that is where the table grows:
//!   [`Interner::provision`] (`&mut self`, so provably alone) rebuilds
//!   it for the states so far plus those the next level is expected to
//!   add, at no more than 69 % load. The rebuild re-reads nothing from
//!   the arena — a slot carries the hash bits its new position is
//!   computed from — so it is a sequential pass over the old slots.
//! * **The rare level that outgrows its provision** (or a caller that
//!   never provisions) stays correct without a lock on the lookup path:
//!   the insert that takes the table past [`LOAD_MAX`] opens a further
//!   *generation* — a fresh table twice the size — and from then on
//!   inserts go to the newest generation while lookups walk all of
//!   them, oldest first. An insert is valid only in the generation that
//!   was newest when it claimed its slot: it re-reads the generation
//!   index after the claim and backs out if a newer one has opened, so
//!   a lookup that has seen the newer generation and found an older
//!   table's probe run to end in an empty slot knows the key cannot
//!   appear there later (all of these accesses are `SeqCst`; on x86-64
//!   that changes no load). Opening a generation takes a mutex nobody
//!   else ever touches; the next [`Interner::provision`] folds the
//!   generations back into one table and counts what it moved.
//! * **No false sharing on the hit path.** Everything a lookup reads —
//!   `words`, the generation index, the slot pointers — is written only
//!   by the two growth paths. The one word every insert writes, the id
//!   counter, sits on a cache line of its own.
//!
//! Interned ids are **provisional**: they depend on the race outcomes
//! and are only made deterministic by the canonical renumbering pass in
//! `graph/driver.rs` (sort by BFS level, then packed key). Nothing outside the
//! exploration ever observes a provisional id.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// States in the first arena segment (power of two).
const SEG0: usize = 1 << 9;

/// The largest plateau granule, in states (power of two).
const MAX_SEG: usize = 1 << 17;

/// A cap of `c` states sets the plateau granule to `c / CAP_SEGS`
/// states (rounded up to a power of two and clamped to
/// [`SEG0`]`..=`[`MAX_SEG`]), so no exploration needs more than about
/// `CAP_SEGS` plateau segments.
const CAP_SEGS: usize = 1 << 12;

/// The state-count ceiling of every exploration: ids are stored as
/// `u32` downstream (permutation, canonical map, CSR columns, transition
/// edges), and the arena directory covers this many states.
pub(crate) const MAX_STATES: usize = 1 << 31;

/// The arena's segment layout under one state cap: segment `k` below
/// `doubling` holds `SEG0 << k` states, so early segments double — a
/// hundred-state exploration allocates kilobytes — and every later one
/// holds one plateau granule, so a space of any size over-allocates at
/// most one granule. The granule grows with the cap: a small one
/// keeps the tail slack of a half-million-state space to tens of KB,
/// and a large one keeps the directory of a 2³¹-state cap within
/// 16 Ki segments.
#[derive(Debug, Clone, Copy)]
struct SegLayout {
    /// log₂ of the plateau granule.
    shift: u32,
    /// Number of doubling segments, the last one a granule.
    doubling: usize,
    /// States covered by the doubling segments.
    cover: usize,
}

impl SegLayout {
    fn for_cap(max_states: usize) -> Self {
        let granule = (max_states / CAP_SEGS)
            .next_power_of_two()
            .clamp(SEG0, MAX_SEG);
        let doubling = (granule / SEG0).trailing_zeros() as usize + 1;
        Self {
            shift: granule.trailing_zeros(),
            doubling,
            cover: SEG0 * ((1 << doubling) - 1),
        }
    }

    fn granule(&self) -> usize {
        1 << self.shift
    }

    /// Splits a state id into `(segment, offset, segment_len)`.
    #[inline]
    fn seg_of(&self, id: usize) -> (usize, usize, usize) {
        if id < self.cover {
            let b = id / SEG0 + 1;
            let k = (usize::BITS - 1 - b.leading_zeros()) as usize;
            let base = SEG0 * ((1 << k) - 1);
            (k, id - base, SEG0 << k)
        } else {
            let past = id - self.cover;
            let granule = self.granule();
            (
                self.doubling + (past >> self.shift),
                past & (granule - 1),
                granule,
            )
        }
    }

    /// Directory entries that address ids `0..max_states`.
    fn segments(&self, max_states: usize) -> usize {
        self.seg_of(max_states.max(1) - 1).0 + 1
    }
}

/// Slot marker for an insert in flight. Never a published value: a
/// published slot's low half is `id + 1 ≤ 2³¹`.
const BUSY: u64 = u64::MAX;

/// Slots of a new table (power of two). Small, so that exploring a
/// hundred-state model does not pay for a table sized for millions;
/// [`Interner::provision`] grows it level by level.
const INITIAL_SLOTS: usize = 1 << 12;

/// Load, in sixteenths, that [`Interner::provision`] sizes a table for:
/// the smallest power of two that holds the states at no more than
/// 11/16 (69 %), so a freshly provisioned table is 34–69 % full.
const LOAD_TARGET: usize = 11;

/// Load, in sixteenths, past which an insert opens the next generation.
/// 14/11 of [`LOAD_TARGET`], so a level may overrun its estimate by a
/// quarter before the rare path runs, and the 2/16 above it leave one
/// free slot per eight slots for the writers that land one insert past
/// the limit (see [`Interner::new`]).
const LOAD_MAX: usize = 14;

/// Generations a level can open: each doubles the previous one, so
/// this many cover any table the slot format can index.
const MAX_GENS: usize = 32;

/// The intern table rejected a new state because the configured
/// state cap is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InternFull;

/// A published slot is the high half of the state's hash over
/// `id + 1`. The hash half is both the probe start (its low bits, for
/// any table size up to 2³²) and the tag a probe compares before
/// touching the state arena, so walking past a different state costs
/// one slot load instead of a full key comparison (the arena read is
/// the cache miss that dominates intern latency on multi-word keys) —
/// and a rebuild finds every entry's new position without the arena.
const ID_MASK: u64 = 0xFFFF_FFFF;

/// One generation of the hash table.
struct Table {
    /// `0` = empty, [`BUSY`] = claim in flight, else
    /// `hash & !ID_MASK | (id + 1)`.
    slots: Box<[AtomicU64]>,
    /// Every entry's id is at least this: the state count when the
    /// generation opened (0 for a table [`Interner::provision`] built,
    /// which holds every state).
    base: usize,
}

impl Table {
    fn new(slots: usize, base: usize) -> Self {
        Self {
            slots: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            base,
        }
    }

    /// Entries past which an insert opens the next generation.
    fn limit(&self) -> usize {
        self.slots.len() / 16 * LOAD_MAX
    }
}

/// Keeps `T` off the cache lines of its neighbours (two lines: the
/// adjacent-line prefetcher pairs them).
#[repr(align(128))]
struct Isolated<T>(T);

/// The lock-free state intern table plus its state arena.
pub(crate) struct Interner {
    /// Packed words per state.
    words: usize,
    /// Hard cap on interned states.
    max_states: usize,
    /// The hash table: generations `..= newest`, oldest first — one,
    /// except between a level outgrowing its provision and the next
    /// [`Interner::provision`].
    gens: Box<[OnceLock<Table>]>,
    /// Index of the generation inserts go to.
    newest: AtomicUsize,
    /// Serialises opening a generation; no lookup or insert takes it.
    opening: Mutex<()>,
    /// Generations opened by inserts, and entries moved by rebuilds.
    midlevel_grows: AtomicU64,
    rehashed_entries: u64,
    /// Where a state id's words and flag live.
    layout: SegLayout,
    /// Packed state words, `segment_len * words` in each segment.
    state_segs: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// One absorbing flag per state, same segment layout.
    flag_segs: Box<[OnceLock<Box<[AtomicU8]>>]>,
    /// Next state id (monotone; may run ahead of the published count
    /// only while an exploration is aborting on the cap). The one word
    /// every insert writes, so it shares a line with nothing a lookup
    /// reads.
    count: Isolated<AtomicUsize>,
}

impl Interner {
    /// A table for states of `words` packed words, capped at
    /// `max_states` entries, for at most `workers` concurrent writers.
    pub(crate) fn new(words: usize, max_states: usize, workers: usize) -> Self {
        // Every writer may land one insert past `Table::limit` before
        // it stops to open the next generation: keep that many slots
        // free above the limit (one in eight, under `LOAD_MAX`), so no
        // generation ever fills.
        let slots = (workers * 8).next_power_of_two().max(INITIAL_SLOTS);
        Self::with_slots(words, max_states, slots)
    }

    fn with_slots(words: usize, max_states: usize, slots: usize) -> Self {
        // The directory covers the ids below the cap in at most 16 Ki
        // empty cells; segments are allocated as ids reach them.
        let capped = max_states.min(MAX_STATES);
        let layout = SegLayout::for_cap(capped);
        let segs = layout.segments(capped);
        let mut gens: Box<[OnceLock<Table>]> = (0..MAX_GENS).map(|_| OnceLock::new()).collect();
        gens[0] = OnceLock::from(Table::new(slots, 0));
        Self {
            words: words.max(1),
            max_states: capped,
            gens,
            newest: AtomicUsize::new(0),
            opening: Mutex::new(()),
            midlevel_grows: AtomicU64::new(0),
            rehashed_entries: 0,
            layout,
            state_segs: (0..segs).map(|_| OnceLock::new()).collect(),
            flag_segs: (0..segs).map(|_| OnceLock::new()).collect(),
            count: Isolated(AtomicUsize::new(0)),
        }
    }

    /// Number of interned states. Exact once the workers that called
    /// [`Interner::intern_probed`] have been joined.
    pub(crate) fn len(&self) -> usize {
        self.count.0.load(Ordering::Acquire).min(self.max_states)
    }

    fn table(&self, generation: usize) -> &Table {
        self.gens[generation]
            .get()
            .expect("generations up to `newest` are open")
    }

    /// Looks `key` up, inserting it with a fresh id if absent; returns
    /// the id and the number of slots probed. `absorbing` is evaluated
    /// lazily — at most once, just before the first claim attempt on an
    /// empty slot (so a lookup that resolves to an already-published id
    /// without passing an empty slot never runs it); the flag is stored
    /// with the state when this call wins the insert race.
    pub(crate) fn intern_probed(
        &self,
        key: &[u64],
        absorbing: impl FnOnce() -> bool,
    ) -> Result<(usize, u64), InternFull> {
        debug_assert_eq!(key.len(), self.words);
        let h = hash_key(key);
        let tag = h & !ID_MASK;
        let start = (h >> 32) as usize;
        let mut flag: Option<bool> = None;
        let mut absorbing = Some(absorbing);
        let mut probes = 0u64;
        loop {
            // SeqCst on this load, the slot loads, the claim and the
            // store in `open_generation`: see the module docs.
            let newest = self.newest.load(Ordering::SeqCst);
            for generation in 0..newest {
                if let Some(id) = self.find(self.table(generation), start, tag, key, &mut probes) {
                    return Ok((id, probes));
                }
            }
            let table = self.table(newest);
            let mask = table.slots.len() - 1;
            let mut idx = start & mask;
            let mut superseded = false;
            'probe: for _ in 0..=mask {
                probes += 1;
                let slot = &table.slots[idx];
                let mut v = slot.load(Ordering::SeqCst);
                loop {
                    match v {
                        0 => {
                            // The absorbing predicate is user code;
                            // evaluate it before claiming so a panic
                            // cannot strand the slot at BUSY.
                            if flag.is_none() {
                                flag = Some(absorbing.take().is_some_and(|f| f()));
                            }
                            if let Err(now) =
                                slot.compare_exchange(0, BUSY, Ordering::SeqCst, Ordering::SeqCst)
                            {
                                v = now;
                                continue;
                            }
                            if self.newest.load(Ordering::SeqCst) != newest {
                                // A newer generation opened before the
                                // claim: a lookup may already have
                                // passed this slot. Start over there.
                                slot.store(0, Ordering::SeqCst);
                                superseded = true;
                                break 'probe;
                            }
                            let id = self.count.0.fetch_add(1, Ordering::AcqRel);
                            if id >= self.max_states {
                                slot.store(0, Ordering::SeqCst);
                                return Err(InternFull);
                            }
                            self.write_state(id, key, flag.unwrap_or(false));
                            slot.store(tag | (id as u64 + 1), Ordering::Release);
                            if id - table.base >= table.limit() {
                                self.open_generation(newest);
                            }
                            return Ok((id, probes));
                        }
                        BUSY => {
                            // Publish is a few stores away; spin.
                            std::hint::spin_loop();
                            v = slot.load(Ordering::SeqCst);
                        }
                        published => {
                            if published & !ID_MASK == tag {
                                let id = ((published & ID_MASK) - 1) as usize;
                                if self.key_eq(id, key) {
                                    return Ok((id, probes));
                                }
                            }
                            break; // another state: next slot
                        }
                    }
                }
                idx = (idx + 1) & mask;
            }
            if !superseded {
                // Every slot is taken: more writers than the table was
                // built for.
                self.open_generation(newest);
            }
        }
    }

    /// [`Self::intern_probed`] without the probe count.
    #[cfg(test)]
    pub(crate) fn intern(
        &self,
        key: &[u64],
        absorbing: impl FnOnce() -> bool,
    ) -> Result<usize, InternFull> {
        self.intern_probed(key, absorbing).map(|(id, _)| id)
    }

    /// Looks `key` up in a generation that takes no more inserts.
    fn find(
        &self,
        table: &Table,
        start: usize,
        tag: u64,
        key: &[u64],
        probes: &mut u64,
    ) -> Option<usize> {
        let mask = table.slots.len() - 1;
        let mut idx = start & mask;
        for _ in 0..=mask {
            *probes += 1;
            let slot = &table.slots[idx];
            let published = loop {
                match slot.load(Ordering::SeqCst) {
                    // An insert validated before the next generation
                    // opened is still publishing (or one that was not
                    // is backing out); wait for the outcome.
                    BUSY => std::hint::spin_loop(),
                    v => break v,
                }
            };
            if published == 0 {
                return None;
            }
            if published & !ID_MASK == tag {
                let id = ((published & ID_MASK) - 1) as usize;
                if self.key_eq(id, key) {
                    return Some(id);
                }
            }
            idx = (idx + 1) & mask;
        }
        None
    }

    /// The rare path: generation `seen` is past its load limit in the
    /// middle of a level, so open the next one (no-op if another
    /// worker already has).
    #[cold]
    fn open_generation(&self, seen: usize) {
        let _alone = self.opening.lock().expect("no panic while opening");
        if self.newest.load(Ordering::SeqCst) != seen {
            return;
        }
        assert!(seen + 1 < MAX_GENS, "intern table generations exhausted");
        // Read before the generation is published, so every insert it
        // takes draws a later id.
        let base = self.len();
        let slots = self.table(seen).slots.len() * 2;
        self.gens[seen + 1].get_or_init(|| Table::new(slots, base));
        self.midlevel_grows.fetch_add(1, Ordering::Relaxed);
        self.newest.store(seen + 1, Ordering::SeqCst);
    }

    /// Makes room, between two levels, for `expected` further states at
    /// no more than [`LOAD_TARGET`] load, and folds any generations the
    /// last level opened back into one table. Doubling only, so the
    /// table is never more than twice what the states it was last sized
    /// for need.
    pub(crate) fn provision(&mut self, expected: usize) {
        let newest = *self.newest.get_mut();
        let have = self.table(newest).slots.len();
        let want = ((self.len() + expected) * 16)
            .div_ceil(LOAD_TARGET)
            .next_power_of_two();
        if newest == 0 && want <= have {
            return;
        }
        let table = Table::new(want.max(have), 0);
        let mask = table.slots.len() - 1;
        for old in self.gens.iter_mut().take(newest + 1) {
            let old = old.take().expect("generations up to `newest` are open");
            for slot in old.slots.iter() {
                let v = slot.load(Ordering::Relaxed);
                if v == 0 {
                    continue;
                }
                debug_assert_ne!(v, BUSY, "no insert is in flight under `&mut self`");
                let mut idx = (v >> 32) as usize & mask;
                while table.slots[idx].load(Ordering::Relaxed) != 0 {
                    idx = (idx + 1) & mask;
                }
                table.slots[idx].store(v, Ordering::Relaxed);
            }
        }
        self.rehashed_entries += self.len() as u64;
        self.gens[0] = OnceLock::from(table);
        *self.newest.get_mut() = 0;
    }

    /// Copies state `id`'s packed words into `out`.
    pub(crate) fn read_state(&self, id: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words);
        let (k, off, _) = self.layout.seg_of(id);
        let seg = self.state_segs[k].get().expect("state segment published");
        let base = off * self.words;
        for (w, o) in out.iter_mut().enumerate() {
            *o = seg[base + w].load(Ordering::Relaxed);
        }
    }

    /// Telemetry snapshot of the hash table.
    pub(crate) fn table_stats(&self) -> TableStats {
        let slots: usize = self
            .gens
            .iter()
            .filter_map(|g| g.get())
            .map(|t| t.slots.len())
            .sum();
        TableStats {
            used: if slots == 0 { 0 } else { self.len() },
            slots,
            midlevel_grows: self.midlevel_grows.load(Ordering::Relaxed),
            rehashed_entries: self.rehashed_entries,
        }
    }

    /// Frees the hash table, keeping only the state arena. Call once
    /// interning is over (e.g. when a `StateSpace` keeps the arena as
    /// its packed-state backing): lookups by key are gone,
    /// [`Interner::read_state`]/[`Interner::absorbing`] stay valid.
    pub(crate) fn drop_tables(&mut self) {
        self.gens = Vec::new().into_boxed_slice();
    }

    /// Whether state `id` was flagged absorbing at intern time.
    pub(crate) fn absorbing(&self, id: usize) -> bool {
        let (k, off, _) = self.layout.seg_of(id);
        let seg = self.flag_segs[k].get().expect("flag segment published");
        seg[off].load(Ordering::Relaxed) != 0
    }

    fn key_eq(&self, id: usize, key: &[u64]) -> bool {
        let (k, off, _) = self.layout.seg_of(id);
        let seg = self.state_segs[k].get().expect("state segment published");
        let base = off * self.words;
        key.iter()
            .enumerate()
            .all(|(w, &kw)| seg[base + w].load(Ordering::Relaxed) == kw)
    }

    fn write_state(&self, id: usize, key: &[u64], absorbing: bool) {
        let words = self.words;
        let (k, off, seg_len) = self.layout.seg_of(id);
        let seg = self.state_segs[k]
            .get_or_init(|| (0..seg_len * words).map(|_| AtomicU64::new(0)).collect());
        let base = off * words;
        for (w, &kw) in key.iter().enumerate() {
            seg[base + w].store(kw, Ordering::Relaxed);
        }
        let flags =
            self.flag_segs[k].get_or_init(|| (0..seg_len).map(|_| AtomicU8::new(0)).collect());
        flags[off].store(u8::from(absorbing), Ordering::Relaxed);
    }
}

/// What [`Interner::table_stats`] reports: published entries and total
/// slots over the open generations (both 0 after
/// [`Interner::drop_tables`]), generations opened in the middle of a
/// level, and entries moved by [`Interner::provision`].
pub(crate) struct TableStats {
    pub(crate) used: usize,
    pub(crate) slots: usize,
    pub(crate) midlevel_grows: u64,
    pub(crate) rehashed_entries: u64,
}

/// 64-bit hash of the packed words: four independent multiply–xorshift
/// lanes over the words four at a time — a state key is some twenty
/// words, and one lane would chain that many dependent multiplies —
/// folded through a splitmix64 finalizer. Seed-free, so the table
/// layout — though never observable in results — is at least
/// reproducible under a debugger. Shared with the external-memory
/// candidate tables in [`crate::ddd`].
pub(crate) fn hash_key(key: &[u64]) -> u64 {
    const M: u64 = 0xBF58_476D_1CE4_E5B9;
    let step = |lane: u64, w: u64| {
        let x = (lane ^ w).wrapping_mul(M);
        x ^ (x >> 29)
    };
    // Four named lanes: as an indexed array they live in memory and
    // every step waits on a store-to-load forward.
    let (mut a, mut b, mut c, mut d) = (
        0x9E37_79B9_7F4A_7C15u64,
        0xD1B5_4A32_D192_ED03u64,
        0x8CB9_2BA7_2F3D_8DD7u64,
        0xA24B_AED4_963E_E407u64,
    );
    let mut quads = key.chunks_exact(4);
    for q in &mut quads {
        (a, b, c, d) = (step(a, q[0]), step(b, q[1]), step(c, q[2]), step(d, q[3]));
    }
    let mut lanes = [a, b, c, d];
    for (lane, &w) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = step(*lane, w);
    }
    let [a, b, c, d] = lanes;
    let mut h = (a ^ b.rotate_left(21)).wrapping_add((c ^ d.rotate_left(43)).wrapping_mul(M));
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The caps the test layouts are built for: the default and n = 3
    /// order-2 cap (512-state granule, no doubling past segment 0), the
    /// n = 3 order-3 cap, the n = 4 cap, and the 2³¹ ceiling (the
    /// 128 Ki-state granule).
    const CAPS: [usize; 4] = [1 << 20, 4 << 20, 32 << 20, MAX_STATES];

    #[test]
    fn segments_partition_the_id_space() {
        for cap in CAPS {
            let layout = SegLayout::for_cap(cap);
            let granule = layout.granule();
            assert_eq!(granule, (cap / CAP_SEGS).clamp(SEG0, MAX_SEG), "cap {cap}");
            // Consecutive ids walk segments without gaps or overlaps,
            // across the doubling → granule boundary.
            let mut expect_seg = 0usize;
            let mut expect_off = 0usize;
            for id in 0..(layout.cover + 3 * granule) {
                let (k, off, len) = layout.seg_of(id);
                assert_eq!((k, off), (expect_seg, expect_off), "cap {cap}, id {id}");
                let expect_len = if k < layout.doubling {
                    SEG0 << k
                } else {
                    granule
                };
                assert_eq!(len, expect_len, "cap {cap}, id {id}");
                expect_off += 1;
                if expect_off == len {
                    expect_seg += 1;
                    expect_off = 0;
                }
            }
            // The last doubling segment is one granule, so past the
            // doubling prefix the tail over-allocation is one granule.
            assert_eq!(SEG0 << (layout.doubling - 1), granule);
            assert_eq!(layout.seg_of(layout.cover).0, layout.doubling);
            // The directory covers the cap, in no more cells than the
            // ceiling's (9 doubling segments and 16 383 granules).
            let dir = layout.segments(cap);
            assert_eq!(layout.seg_of(cap - 1).0, dir - 1, "cap {cap}");
            assert!(dir <= 16_392, "cap {cap}: {dir} segments");
        }
        // A cap below one segment still gets one.
        assert_eq!(SegLayout::for_cap(3).segments(3), 1);
    }

    #[test]
    fn intern_dedupes_and_reads_back() {
        let t = Interner::new(2, 1000, 1);
        let a = t.intern(&[1, 2], || false).unwrap();
        let b = t.intern(&[3, 4], || true).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.intern(&[1, 2], || panic!("already interned")).unwrap(), a);
        assert_eq!(t.len(), 2);
        let mut out = [0u64; 2];
        t.read_state(a, &mut out);
        assert_eq!(out, [1, 2]);
        t.read_state(b, &mut out);
        assert_eq!(out, [3, 4]);
        assert!(!t.absorbing(a));
        assert!(t.absorbing(b));
    }

    #[test]
    fn cap_is_enforced() {
        let t = Interner::new(1, 3, 1);
        for i in 0..3u64 {
            t.intern(&[i], || false).unwrap();
        }
        assert_eq!(t.intern(&[99], || false), Err(InternFull));
        // Existing states still resolve after a failed insert.
        assert_eq!(t.intern(&[1], || false).unwrap(), 1);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let t = Interner::new(1, 1 << 20, 4);
        let n = 10_000u64;
        let ids: Vec<usize> = (0..n)
            .map(|i| t.intern(&[i * 2654435761], || i % 7 == 0).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                t.intern(&[(i as u64) * 2654435761], || panic!("known"))
                    .unwrap(),
                id
            );
            assert_eq!(t.absorbing(id), i % 7 == 0);
        }
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let t = Interner::new(2, 1 << 20, 8);
        let keys: Vec<[u64; 2]> = (0..5000u64).map(|i| [i % 1000, i / 1000]).collect();
        std::thread::scope(|s| {
            for w in 0..8 {
                let t = &t;
                let keys = &keys;
                s.spawn(move || {
                    for (i, k) in keys.iter().enumerate() {
                        if (i + w) % 3 != 0 {
                            t.intern(k, || k[0] == 0).unwrap();
                        }
                    }
                });
            }
        });
        // Every distinct key got exactly one id; ids are dense.
        assert_eq!(t.len(), 5000);
        let mut seen = vec![false; 5000];
        for k in &keys {
            let id = t.intern(k, || unreachable!()).unwrap();
            assert!(!seen[id], "duplicate id {id}");
            seen[id] = true;
            assert_eq!(t.absorbing(id), k[0] == 0);
        }
    }
    /// The rare path made the common one: eight threads intern keys
    /// that arrive level by level into a table that starts at 64 slots
    /// and is provisioned for one more state each time while every level
    /// triples the total, so each one outgrows it — with racing inserts
    /// of the same keys, hits on keys in sealed generations, and claims
    /// that lose to a generation opening under them.
    #[test]
    fn underprovisioned_levels_grow_mid_level_and_lose_nothing() {
        const THREADS: usize = 8;
        const LEVELS: usize = 8;
        let mut t = Interner::with_slots(2, 1 << 20, 64);
        let key = |i: usize| [(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), i as u64 / 7];
        let absorbing = |i: usize| i % 5 == 0;
        // A level brings twice as many new keys as there are old ones;
        // every thread also asks again for a stride of the old ones.
        let mut known = 0usize;
        let mut ids: Vec<usize> = Vec::new();
        for level in 0..LEVELS {
            let fresh = known..known + 2 * known.max(20);
            let start = std::sync::Barrier::new(THREADS);
            let seen: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|w| {
                        let (t, start, fresh) = (&t, &start, fresh.clone());
                        s.spawn(move || {
                            start.wait();
                            let old = (w..fresh.start).step_by(3);
                            // Each thread walks the new keys from its own
                            // offset, so first sight is spread over all.
                            let rot = fresh.start + w * fresh.len() / THREADS;
                            (rot..fresh.end)
                                .chain(fresh.start..rot)
                                .chain(old)
                                .map(|i| (i, t.intern(&key(i), || absorbing(i)).unwrap()))
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            known = fresh.end;
            ids.resize(known, usize::MAX);
            for (i, id) in seen.into_iter().flatten() {
                assert!(ids[i] == usize::MAX || ids[i] == id, "key {i}: two ids");
                ids[i] = id;
            }
            assert_eq!(t.len(), known, "level {level}: ids are dense");
            t.provision(1);
            assert_eq!(t.newest.load(Ordering::Relaxed), 0, "folded into one table");
        }
        let stats = t.table_stats();
        assert!(
            stats.midlevel_grows >= LEVELS as u64 - 1,
            "the mid-level path ran {} times",
            stats.midlevel_grows
        );
        assert!(stats.rehashed_entries >= known as u64);
        // Every key is found again, under the id its level gave it,
        // with its flag; the ids are a permutation of 0..known.
        let mut taken = vec![false; known];
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.intern(&key(i), || unreachable!()).unwrap(), id);
            assert!(!std::mem::replace(&mut taken[id], true), "id {id} twice");
            assert_eq!(t.absorbing(id), absorbing(i));
            let mut words = [0u64; 2];
            t.read_state(id, &mut words);
            assert_eq!(words, key(i));
        }
    }

    /// Whether a table of `slots` holding `used` states is in the band a
    /// provision leaves: at most [`LOAD_TARGET`], and above half of it.
    fn provisioned_load(used: usize, slots: usize) -> bool {
        used * 16 <= slots * LOAD_TARGET && used * 32 > slots * LOAD_TARGET
    }

    /// A table provisioned for what a level brings does not leave the
    /// one-table fast path, and stays within 34–69 % load.
    #[test]
    fn provisioned_levels_never_open_a_generation() {
        let mut t = Interner::new(1, 1 << 20, 2);
        let mut next = 0u64;
        for level in 0..40u64 {
            let adds = 10 + level * level * 3;
            t.provision(adds as usize);
            for _ in 0..adds {
                t.intern(&[next], || false).unwrap();
                next += 1;
            }
        }
        let stats = t.table_stats();
        assert_eq!(stats.midlevel_grows, 0);
        assert_eq!(stats.used, next as usize);
        assert!(
            provisioned_load(stats.used, stats.slots),
            "{} states in {} slots",
            stats.used,
            stats.slots
        );
    }

    /// After provisioned levels the arena holds the states and at most
    /// one granule more, and the table is in the provisioned band: on a
    /// cap whose granule (4096 states) comes after three doubling
    /// segments, with the states ending inside a granule.
    #[test]
    fn provisioned_levels_hold_no_more_than_one_granule_of_slack() {
        const WORDS: usize = 3;
        let mut t = Interner::new(WORDS, 16 << 20, 2);
        let granule = t.layout.granule();
        assert_eq!((granule, t.layout.doubling), (4096, 4));
        let mut next = 0u64;
        for level in 0..30u64 {
            let adds = 50 + level * 40;
            t.provision(adds as usize);
            for _ in 0..adds {
                t.intern(&[next, !next, next >> 3], || false).unwrap();
                next += 1;
            }
        }
        let states = next as usize;
        assert!(states > t.layout.cover + granule);
        assert_ne!((states - t.layout.cover) % granule, 0);
        let arena: usize = t
            .state_segs
            .iter()
            .filter_map(|s| s.get())
            .map(|s| s.len() * 8)
            .sum();
        let flags: usize = t
            .flag_segs
            .iter()
            .filter_map(|s| s.get())
            .map(|s| s.len())
            .sum();
        assert!(arena >= states * WORDS * 8);
        assert!(
            arena <= (states + granule) * WORDS * 8,
            "{arena} arena bytes for {states} states"
        );
        assert!(flags <= states + granule);
        let stats = t.table_stats();
        assert_eq!(stats.midlevel_grows, 0);
        assert!(
            provisioned_load(stats.used, stats.slots),
            "{} states in {} slots",
            stats.used,
            stats.slots
        );
    }

    /// Pairs of `keys` whose hashes agree in the 32 bits a table slot
    /// keeps (probe start and tag), and the fullest of the 2¹⁷ buckets
    /// the low 17 of those bits address.
    fn slot_collisions(keys: impl Iterator<Item = Vec<u64>>) -> (usize, usize) {
        let mut highs: Vec<u32> = keys.map(|k| (hash_key(&k) >> 32) as u32).collect();
        highs.sort_unstable();
        let same = highs.windows(2).filter(|w| w[0] == w[1]).count();
        let mut buckets = vec![0usize; 1 << 17];
        for h in highs {
            buckets[h as usize & ((1 << 17) - 1)] += 1;
        }
        (same, buckets.into_iter().max().unwrap_or(0))
    }

    /// `hash_key` on the keys it is used for: every packed state of the
    /// n = 3 exponential model (135 125 keys, most pairs differing in a
    /// few one-bit place fields). Uniform 32-bit values would collide pairwise
    /// n²/2³³ ≈ 2.1 times and fill the fullest of 2¹⁷ buckets (1.03 keys
    /// on average) to 8 or 9; allow four times the first and 14.
    #[test]
    fn hash_spreads_the_consensus_state_space() {
        let params = ctsim_models::SanParams::exponential_baseline(3);
        let model = ctsim_models::build_model(&params);
        let decided = ctsim_models::decided_place_ids(&model, 3);
        let opts = crate::ReachOptions::default();
        let ss = crate::StateSpace::explore_absorbing(&model, &opts, move |m| {
            decided.iter().any(|&d| m.get(d) > 0)
        })
        .unwrap();
        assert_eq!(ss.len(), 135_125);
        let (same, fullest) = slot_collisions((0..ss.len()).map(|i| ss.packed_state(i).to_vec()));
        assert!(same <= 8, "{same} colliding pairs, 2.1 expected");
        assert!(fullest <= 14, "a bucket of {fullest}");
    }

    /// The hardest family for a lane-wise hash: keys that differ from a
    /// base in exactly one 2-bit field — one lane sees the difference,
    /// in as few as one bit. 22 words × 32 fields × 3 values = 2 112
    /// keys per base: no two may share their 32 slot bits (5·10⁻⁴ pairs
    /// expected), and no bucket of 2¹⁷ may take more than 3 (17 pairs,
    /// 0.1 triples expected).
    #[test]
    fn hash_separates_keys_differing_in_one_two_bit_field() {
        let bases = [
            vec![0u64; 22],
            vec![u64::MAX; 22],
            (0..22u64)
                .map(|w| w.wrapping_mul(0x0123_4567_89AB_CDEF))
                .collect(),
        ];
        for base in bases {
            let family = (0..22usize).flat_map(|word| {
                let base = &base;
                (0..32u32).flat_map(move |field| {
                    (1..4u64).map(move |delta| {
                        let mut key = base.clone();
                        key[word] ^= delta << (2 * field);
                        key
                    })
                })
            });
            let (same, fullest) = slot_collisions(family.chain([base.clone()]));
            assert_eq!(same, 0, "two keys one field apart share their slot bits");
            assert!(fullest <= 3, "a bucket of {fullest}");
        }
    }
}
