//! Lock-free concurrent state interning.
//!
//! The exploration workers of [`crate::StateSpace`] all write newly
//! discovered states into one shared [`Interner`] *during* expansion —
//! there is no sequential merge phase. The design is the classic
//! model-checker state table:
//!
//! * **Sharded open-addressed hash tables.** The 64-bit state hash
//!   picks a shard (high bits; 8 shards per worker, up to
//!   [`MAX_SHARDS`]) and a probe start (low bits). Each shard is a
//!   linear-probed array of `AtomicU64` slots
//!   holding `0` (empty), [`BUSY`] (an insert in flight), or
//!   `state_id + 1`. Lookup and insert are a CAS race: the first
//!   worker to swing a slot from empty to [`BUSY`] allocates the state
//!   id, writes the state, and publishes `id + 1` with release
//!   ordering; racers spin the handful of nanoseconds the publish
//!   takes, then compare keys and move on.
//! * **A segmented append-only arena.** State ids come from one global
//!   `fetch_add` counter and index geometrically growing segments
//!   (512 states, then 1024, 2048, … up to a 128k-state plateau)
//!   allocated on demand through `OnceLock`, so a state's packed words
//!   never move once written — readers need no locks, ids handed to
//!   one worker stay valid for every other worker, a hundred-state
//!   exploration allocates kilobytes, a multi-million-state one
//!   over-allocates at most one plateau granule, and the fixed
//!   directory addresses the full 2³¹-state ceiling.
//! * **Growth at a safe point per shard.** A shard past 50 % load is
//!   rebuilt under the shard's `RwLock` write half; inserts hold the
//!   read half, which makes claim-and-publish atomic with respect to
//!   rehashing while leaving the common path a shared (uncontended)
//!   lock acquisition plus a CAS.
//!
//! Interned ids are **provisional**: they depend on the race outcomes
//! and are only made deterministic by the canonical renumbering pass in
//! `graph/driver.rs` (sort by BFS level, then packed key). Nothing outside the
//! exploration ever observes a provisional id.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// Hard ceiling on hash-table shards (power of two).
const MAX_SHARDS: usize = 64;

/// States in the first arena segment (power of two); segment `k < `
/// [`DOUBLING_SEGS`] holds `SEG0 << k` states, so early segments
/// double — a hundred-state exploration allocates kilobytes — while
/// segments past [`MAX_SEG`] states stay constant-size, bounding the
/// tail over-allocation of a multi-million-state space to one
/// [`MAX_SEG`] granule instead of the ~2× a pure doubling ladder pays
/// (at ~22 packed words per consensus state that difference alone is
/// hundreds of MB at n = 3 order 3).
const SEG0: usize = 1 << 9;

/// Number of doubling segments before the size plateaus.
const DOUBLING_SEGS: usize = 9;

/// Constant segment size after the doubling prefix (= the last
/// doubling size, `SEG0 << (DOUBLING_SEGS - 1)`).
const MAX_SEG: usize = SEG0 << (DOUBLING_SEGS - 1);

/// States covered by the doubling prefix.
const DOUBLING_COVER: usize = SEG0 * ((1 << DOUBLING_SEGS) - 1);

/// Arena directory size: doubling prefix + enough constant segments to
/// cover the 2³¹-state ceiling.
const NUM_SEGS: usize = DOUBLING_SEGS + ((1usize << 31) - DOUBLING_COVER).div_ceil(MAX_SEG);

/// Splits a state id into `(segment, offset, segment_len)` under the
/// doubling-then-constant layout.
fn seg_of(id: usize) -> (usize, usize, usize) {
    if id < DOUBLING_COVER {
        let b = id / SEG0 + 1;
        let k = (usize::BITS - 1 - b.leading_zeros()) as usize;
        let base = SEG0 * ((1 << k) - 1);
        (k, id - base, SEG0 << k)
    } else {
        let past = id - DOUBLING_COVER;
        (DOUBLING_SEGS + past / MAX_SEG, past % MAX_SEG, MAX_SEG)
    }
}

/// Slot marker for an insert in flight.
const BUSY: u64 = u64::MAX;

/// Initial slots across ALL shards (power of two). Small, so that
/// exploring a hundred-state model does not pay for a table sized for
/// millions — and independent of the shard count, so requesting many
/// threads does not inflate the fixed setup either. Growth doubles a
/// shard on demand and the rehash cost is amortised away within a few
/// levels.
const INITIAL_TOTAL_SLOTS: usize = 1 << 12;

/// Floor on a single shard's table (power of two).
const MIN_SHARD_SLOTS: usize = 1 << 6;

/// The intern table rejected a new state because the configured
/// state cap is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InternFull;

/// Bit positions of the 16-bit hash tag stored next to the id in each
/// occupied slot: a probe compares tags before touching the state
/// arena, so walking past a different state costs one slot load
/// instead of a full key comparison (the arena read is the cache miss
/// that dominates intern latency on multi-word keys). Tag bits 32..48
/// of the hash are disjoint from both the shard-index bits (58..64)
/// and the probe-start bits (low), so the tag stays informative within
/// a probe sequence.
const TAG_SHIFT: u32 = 32;
const TAG_MASK: u64 = 0xFFFF;
const ID_MASK: u64 = 0xFFFF_FFFF;

/// The tag field of a hash.
fn tag_of(h: u64) -> u64 {
    (h >> TAG_SHIFT) & TAG_MASK
}

struct TableInner {
    /// `0` = empty, [`BUSY`] = claim in flight, else
    /// `tag << 32 | (id + 1)`.
    slots: Box<[AtomicU64]>,
    /// Published entries (monotone; grown tables keep the count).
    used: AtomicUsize,
}

impl TableInner {
    fn with_capacity(cap: usize) -> Self {
        Self {
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            used: AtomicUsize::new(0),
        }
    }
}

/// The sharded lock-free state intern table plus its state arena.
pub(crate) struct Interner {
    /// Packed words per state.
    words: usize,
    /// Hard cap on interned states.
    max_states: usize,
    /// Next state id (monotone; may run ahead of the published count
    /// only while an exploration is aborting on the cap).
    count: AtomicUsize,
    /// Shard count minus one (the shard-index mask).
    shard_mask: u64,
    shards: Box<[RwLock<TableInner>]>,
    /// Packed state words, `(SEG0 << k) * words` in segment `k`.
    state_segs: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// One absorbing flag per state, same segment layout.
    flag_segs: Box<[OnceLock<Box<[AtomicU8]>>]>,
}

impl Interner {
    /// A table for states of `words` packed words, capped at
    /// `max_states` entries, sized for `workers` concurrent writers.
    ///
    /// The shard count scales with the worker count (8 shards per
    /// worker keeps the CAS contention negligible) so a sequential
    /// exploration of a hundred-state model does not pay the fixed
    /// setup of a 64-shard table. Shard count never affects results —
    /// the canonical renumbering in `graph/driver.rs` erases every trace of
    /// the table layout.
    pub(crate) fn new(words: usize, max_states: usize, workers: usize) -> Self {
        // Beyond ~2³¹ states the exploration is hopeless anyway; the
        // doubling segments make the directory size independent of the
        // cap, so a generous cap costs nothing up front.
        let capped = max_states.min(1 << 31);
        let shards = (workers.max(1) * 8)
            .next_power_of_two()
            .clamp(8, MAX_SHARDS);
        let slots_per_shard = (INITIAL_TOTAL_SLOTS / shards).max(MIN_SHARD_SLOTS);
        Self {
            words: words.max(1),
            max_states: capped,
            count: AtomicUsize::new(0),
            shard_mask: shards as u64 - 1,
            shards: (0..shards)
                .map(|_| RwLock::new(TableInner::with_capacity(slots_per_shard)))
                .collect(),
            state_segs: (0..NUM_SEGS).map(|_| OnceLock::new()).collect(),
            flag_segs: (0..NUM_SEGS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of interned states. Exact once the workers that called
    /// [`Interner::intern`] have been joined.
    pub(crate) fn len(&self) -> usize {
        self.count.load(Ordering::Acquire).min(self.max_states)
    }

    /// Looks `key` up, inserting it with a fresh id if absent.
    /// `absorbing` is evaluated lazily — at most once, just before the
    /// first claim attempt on an empty slot (so a lookup that resolves
    /// to an already-published id without passing an empty slot never
    /// runs it); the flag is stored with the state when this call wins
    /// the insert race.
    pub(crate) fn intern(
        &self,
        key: &[u64],
        absorbing: impl FnOnce() -> bool,
    ) -> Result<usize, InternFull> {
        debug_assert_eq!(key.len(), self.words);
        let h = hash_key(key);
        let shard = &self.shards[((h >> 58) & self.shard_mask) as usize];
        let mut flag: Option<bool> = None;
        let mut absorbing = Some(absorbing);
        loop {
            let table = shard.read().expect("intern shard poisoned");
            let mask = table.slots.len() - 1;
            // Claiming into a nearly full table could starve the probe
            // loop; grow first. 50 % load keeps probes short.
            if table.used.load(Ordering::Relaxed) * 2 >= table.slots.len() {
                drop(table);
                self.grow(shard);
                continue;
            }
            let mut idx = (h as usize) & mask;
            let mut result = None;
            let mut probes = 0u64;
            'probe: for _ in 0..=mask {
                probes += 1;
                let slot = &table.slots[idx];
                let mut v = slot.load(Ordering::Acquire);
                loop {
                    match v {
                        0 => {
                            // The absorbing predicate is user code;
                            // evaluate it before claiming so a panic
                            // cannot strand the slot at BUSY.
                            if flag.is_none() {
                                flag = Some(absorbing.take().is_some_and(|f| f()));
                            }
                            match slot.compare_exchange(
                                0,
                                BUSY,
                                Ordering::Acquire,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => {
                                    let id = self.count.fetch_add(1, Ordering::AcqRel);
                                    if id >= self.max_states {
                                        slot.store(0, Ordering::Release);
                                        return Err(InternFull);
                                    }
                                    self.write_state(id, key, flag.unwrap_or(false));
                                    slot.store(
                                        (tag_of(h) << TAG_SHIFT) | (id as u64 + 1),
                                        Ordering::Release,
                                    );
                                    table.used.fetch_add(1, Ordering::Relaxed);
                                    result = Some(id);
                                    break 'probe;
                                }
                                Err(now) => {
                                    v = now;
                                    continue;
                                }
                            }
                        }
                        BUSY => {
                            // Publish is a few stores away; spin.
                            std::hint::spin_loop();
                            v = slot.load(Ordering::Acquire);
                            continue;
                        }
                        published => {
                            if (published >> TAG_SHIFT) & TAG_MASK != tag_of(h) {
                                break; // tag mismatch: next slot, no arena touch
                            }
                            let id = ((published & ID_MASK) - 1) as usize;
                            if self.key_eq(id, key) {
                                if ctsim_obs::enabled() {
                                    ctsim_obs::hist_record("intern.probe_len", probes);
                                }
                                return Ok(id);
                            }
                            break; // different state: next slot
                        }
                    }
                }
                idx = (idx + 1) & mask;
            }
            match result {
                Some(id) => {
                    let need_grow = table.used.load(Ordering::Relaxed) * 2 >= table.slots.len();
                    drop(table);
                    if need_grow {
                        self.grow(shard);
                    }
                    if ctsim_obs::enabled() {
                        ctsim_obs::hist_record("intern.probe_len", probes);
                    }
                    return Ok(id);
                }
                // Probe exhausted the whole table without an empty
                // slot (only possible under extreme contention right
                // at the load threshold): grow and retry.
                None => {
                    drop(table);
                    self.grow(shard);
                }
            }
        }
    }

    /// Copies state `id`'s packed words into `out`.
    pub(crate) fn read_state(&self, id: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words);
        let (k, off, _) = seg_of(id);
        let seg = self.state_segs[k].get().expect("state segment published");
        let base = off * self.words;
        for (w, o) in out.iter_mut().enumerate() {
            *o = seg[base + w].load(Ordering::Relaxed);
        }
    }

    /// Telemetry snapshot of the hash tables: `(published entries,
    /// total slots)` summed over the shards — `(0, 0)` after
    /// [`Interner::drop_tables`].
    pub(crate) fn table_stats(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(used, slots), shard| {
            let t = shard.read().expect("intern shard poisoned");
            (used + t.used.load(Ordering::Relaxed), slots + t.slots.len())
        })
    }

    /// Frees the hash-table shards, keeping only the state arena.
    /// Call once interning is over (e.g. when a `StateSpace` keeps the
    /// arena as its packed-state backing): lookups by key are gone,
    /// [`Interner::read_state`]/[`Interner::absorbing`] stay valid.
    pub(crate) fn drop_tables(&mut self) {
        self.shards = Vec::new().into_boxed_slice();
    }

    /// Whether state `id` was flagged absorbing at intern time.
    pub(crate) fn absorbing(&self, id: usize) -> bool {
        let (k, off, _) = seg_of(id);
        let seg = self.flag_segs[k].get().expect("flag segment published");
        seg[off].load(Ordering::Relaxed) != 0
    }

    fn key_eq(&self, id: usize, key: &[u64]) -> bool {
        let (k, off, _) = seg_of(id);
        let seg = self.state_segs[k].get().expect("state segment published");
        let base = off * self.words;
        key.iter()
            .enumerate()
            .all(|(w, &kw)| seg[base + w].load(Ordering::Relaxed) == kw)
    }

    fn write_state(&self, id: usize, key: &[u64], absorbing: bool) {
        let words = self.words;
        let (k, off, seg_len) = seg_of(id);
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

    /// Rebuilds `shard` at double capacity (no-op if another thread
    /// already grew it past the load threshold).
    fn grow(&self, shard: &RwLock<TableInner>) {
        let mut guard = shard.write().expect("intern shard poisoned");
        let used = guard.used.load(Ordering::Relaxed);
        if used * 2 < guard.slots.len() {
            return;
        }
        let new_cap = (guard.slots.len() * 2).max(MIN_SHARD_SLOTS);
        let new_slots: Box<[AtomicU64]> = (0..new_cap).map(|_| AtomicU64::new(0)).collect();
        let mask = new_cap - 1;
        let mut scratch = vec![0u64; self.words];
        for slot in guard.slots.iter() {
            let v = slot.load(Ordering::Relaxed);
            if v == 0 {
                continue;
            }
            // No claim can be in flight while we hold the write lock.
            debug_assert_ne!(v, BUSY);
            self.read_state(((v & ID_MASK) - 1) as usize, &mut scratch);
            let mut idx = (hash_key(&scratch) as usize) & mask;
            while new_slots[idx].load(Ordering::Relaxed) != 0 {
                idx = (idx + 1) & mask;
            }
            new_slots[idx].store(v, Ordering::Relaxed);
        }
        guard.slots = new_slots;
    }
}

/// 64-bit hash of the packed words (multiply–xor with a splitmix64
/// finalizer). Seed-free, so the table layout — though never observable
/// in results — is at least reproducible under a debugger. Shared with
/// the external-memory candidate tables in [`crate::ddd`].
pub(crate) fn hash_key(key: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in key {
        h ^= w;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_partition_the_id_space() {
        // Consecutive ids walk segments without gaps or overlaps,
        // across the doubling → constant-size boundary.
        let mut expect_seg = 0usize;
        let mut expect_off = 0usize;
        for id in 0..(DOUBLING_COVER + 3 * MAX_SEG) {
            let (k, off, len) = seg_of(id);
            assert_eq!((k, off), (expect_seg, expect_off), "id {id}");
            let expect_len = if k < DOUBLING_SEGS {
                SEG0 << k
            } else {
                MAX_SEG
            };
            assert_eq!(len, expect_len, "id {id}");
            expect_off += 1;
            if expect_off == len {
                expect_seg += 1;
                expect_off = 0;
            }
        }
        // Past the plateau the tail over-allocation is one MAX_SEG.
        assert_eq!(seg_of(DOUBLING_COVER).0, DOUBLING_SEGS);
        // The fixed directory covers the 2³¹ ceiling.
        let (k, _, _) = seg_of((1usize << 31) - 1);
        assert!(k < NUM_SEGS, "segment {k} out of directory");
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
}
