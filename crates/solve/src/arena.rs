//! Flat, segmented, optionally disk-spillable row storage.
//!
//! `SegStore` holds the rows that may page to disk under a spill
//! budget — one state's CSR entries, or one state's packed words —
//! back to back in fixed-capacity segments, so a multi-million-state
//! exploration pays a few hundred segment allocations instead of one
//! heap allocation per state.
//!
//! Rows never straddle a segment boundary (a row that does not fit the
//! open segment seals it and starts the next; a row longer than the
//! nominal capacity gets a dedicated oversized segment), so every row
//! is one contiguous slice addressed by a `RowLoc`.
//!
//! With a `SpillShared` spill backend attached, sealed
//! segments are paged out to the shared temp file oldest-first whenever
//! the resident account exceeds the budget, and paged back on demand
//! through a small LRU (two slots by default — the streaming access
//! pattern of every downstream consumer touches each segment once,
//! front to back; stores serving iterative solvers raise it with
//! `SegStore::set_cache_slots`). Sweep-style consumers that walk
//! many rows per pass (the paged-CSR SpMV) use
//! `SegStore::stream_rows`, which loads each spilled segment once
//! per group of consecutive rows instead of once per row.
//!
//! Segment lifecycle: a segment is *open* (the `tail`, append-only)
//! until a row does not fit; sealing freezes it behind an `Arc` and
//! accounts its bytes against the shared spill budget; a sealed
//! segment may then page out (`Resident` → `Spilled`), after which its
//! bytes are immutable on disk.

use std::ops::Deref;
use std::sync::{Arc, Mutex};

use crate::spill::{SpillRecord, SpillShared};

/// Where one row lives inside a [`SegStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowLoc {
    /// Segment index.
    pub seg: u32,
    /// Element offset inside the segment.
    pub off: u32,
    /// Row length in elements.
    pub len: u32,
}

enum Segment<T> {
    /// In RAM. `Arc` so a paged-out-and-reloaded copy and a live one
    /// share the guard type below.
    Resident(Arc<[T]>),
    /// Paged out to the spill file.
    Spilled { offset: u64, len: u32 },
}

/// Reloaded-segment LRU depth. Consumers stream rows in order, so one
/// slot would almost suffice; two absorbs the occasional look-back
/// (e.g. a CSR row re-read straddling an iteration restart).
const CACHE_SLOTS: usize = 2;

/// A guard dereferencing to one row's slice: either a direct borrow of
/// a resident segment or a keep-alive handle on a segment paged back
/// in from the spill file.
pub struct RowRef<'a, T> {
    inner: RowInner<'a, T>,
}

enum RowInner<'a, T> {
    Direct(&'a [T]),
    Loaded {
        seg: Arc<[T]>,
        off: usize,
        len: usize,
    },
    Owned(Vec<T>),
}

impl<T> RowRef<'_, T> {
    /// A guard around an owned buffer — for rows materialised on the
    /// fly (e.g. packed states read out of the intern arena).
    pub(crate) fn owned(data: Vec<T>) -> Self {
        RowRef {
            inner: RowInner::Owned(data),
        }
    }
}

impl<T> Deref for RowRef<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.inner {
            RowInner::Direct(s) => s,
            RowInner::Loaded { seg, off, len } => &seg[*off..*off + *len],
            RowInner::Owned(v) => v,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RowRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Append-only segmented row storage; see the module docs.
pub(crate) struct SegStore<T: SpillRecord> {
    /// Nominal elements per segment.
    cap: usize,
    segs: Vec<Segment<T>>,
    /// The open segment being appended (capacity `cap`, never
    /// reallocated).
    tail: Vec<T>,
    /// Elements stored (excluding sealing padding — there is none; a
    /// sealed-early segment is simply shorter).
    len: usize,
    spill: Option<Arc<SpillShared>>,
    /// Oldest sealed segment not yet paged out.
    next_spill: usize,
    cache: Mutex<Vec<(usize, Arc<[T]>)>>,
    /// LRU depth for reloaded segments ([`CACHE_SLOTS`] by default).
    cache_slots: usize,
    /// Extra `ctsim-obs` counter credited with every byte paged back
    /// in (e.g. `spill.csr_paged_bytes` for the generator store).
    page_counter: Option<&'static str>,
    /// Failpoint site names of this store's page-in / page-out I/O
    /// (see `docs/RESILIENCE.md`), one pair per consumer so fault
    /// schedules can target it.
    read_site: &'static str,
    write_site: &'static str,
}

/// Gives up on a page-in that survived the retry policy. Write
/// failures degrade gracefully (the segment stays resident, see
/// `page_out`), but a failed read means data already handed to the OS
/// is gone — there is no correct value to return, so unwind with the
/// typed error as the payload (`resume_unwind` never runs the panic
/// hook, so nothing reaches stderr); the `catch_spill` boundary at
/// every public entry point turns it back into
/// `Err(SolveError::SpillFailed { .. })`.
#[cold]
fn raise_read_failure(e: crate::SolveError) -> ! {
    std::panic::resume_unwind(Box::new(e))
}

impl<T: SpillRecord> SegStore<T> {
    /// An empty store of `cap`-element segments whose page-in and
    /// page-out failpoint sites are `[read, write]`.
    pub(crate) fn new(
        cap: usize,
        spill: Option<Arc<SpillShared>>,
        [read_site, write_site]: [&'static str; 2],
    ) -> Self {
        assert!(cap > 0);
        Self {
            cap,
            segs: Vec::new(),
            tail: Vec::with_capacity(cap),
            len: 0,
            spill,
            next_spill: 0,
            cache: Mutex::new(Vec::with_capacity(CACHE_SLOTS)),
            cache_slots: CACHE_SLOTS,
            page_counter: None,
            read_site,
            write_site,
        }
    }

    /// Raises (or lowers) the reloaded-segment LRU depth. Stores that
    /// serve iterative solvers — many full sweeps, occasional
    /// look-backs across a shard boundary — want more than the
    /// streaming default.
    pub(crate) fn set_cache_slots(&mut self, slots: usize) {
        self.cache_slots = slots.max(1);
    }

    /// Credits `counter` with every byte paged back into RAM by this
    /// store, in addition to the global pager counters.
    pub(crate) fn set_page_counter(&mut self, counter: &'static str) {
        self.page_counter = Some(counter);
    }

    /// Whether any segment currently lives on disk. Stable once the
    /// store is finished (reads never page out), so consumers can make
    /// a one-shot resident-vs-streamed decision per solve.
    pub(crate) fn has_spilled(&self) -> bool {
        self.segs
            .iter()
            .any(|s| matches!(s, Segment::Spilled { .. }))
    }

    /// Bytes of the sealed segments still resident, as sealing charged
    /// them to the spill account.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.segs
            .iter()
            .map(|s| match s {
                Segment::Resident(seg) => seg.len() * std::mem::size_of::<T>(),
                Segment::Spilled { .. } => 0,
            })
            .sum()
    }

    /// Appends one row, returning its location.
    pub(crate) fn append_row(&mut self, row: &[T]) -> RowLoc {
        if !self.tail.is_empty() && self.tail.len() + row.len() > self.cap {
            self.seal();
        }
        if row.len() > self.cap {
            // Jumbo row: its own dedicated segment.
            debug_assert!(self.tail.is_empty());
            let loc = RowLoc {
                seg: self.segs.len() as u32,
                off: 0,
                len: row.len() as u32,
            };
            self.tail.extend_from_slice(row);
            self.seal();
            self.len += row.len();
            return loc;
        }
        let loc = RowLoc {
            seg: self.segs.len() as u32,
            off: self.tail.len() as u32,
            len: row.len() as u32,
        };
        self.tail.extend_from_slice(row);
        self.len += row.len();
        if self.tail.len() >= self.cap {
            self.seal();
        }
        loc
    }

    /// Seals the open segment (no-op when empty) — call once after the
    /// last append so every row is addressable through [`Self::row`] —
    /// and frees the open segment's buffer, which a finished store
    /// never fills again.
    pub(crate) fn finish(&mut self) {
        if !self.tail.is_empty() {
            self.seal();
        }
        self.tail = Vec::new();
    }

    fn seal(&mut self) {
        let arc: Arc<[T]> = self.tail.as_slice().into();
        let bytes = arc.len() * std::mem::size_of::<T>();
        self.tail.clear();
        self.segs.push(Segment::Resident(arc));
        if ctsim_obs::enabled() {
            ctsim_obs::instant(
                "arena",
                "segment_seal",
                vec![
                    ("seg", (self.segs.len() - 1).into()),
                    ("bytes", bytes.into()),
                ],
            );
            ctsim_obs::counter_add("arena.seals", 1);
        }
        if let Some(spill) = &self.spill {
            if spill.add_resident(bytes) {
                self.page_out();
            }
        }
    }

    /// Pages resident sealed segments out, oldest first, until the
    /// shared account is back under budget or this store has nothing
    /// left to give.
    fn page_out(&mut self) {
        let Some(spill) = self.spill.clone() else {
            return;
        };
        let mut buf: Vec<u8> = Vec::new();
        while self.next_spill < self.segs.len() && spill.over_budget() {
            let idx = self.next_spill;
            self.next_spill += 1;
            let Segment::Resident(seg) = &self.segs[idx] else {
                continue;
            };
            buf.clear();
            buf.resize(seg.len() * T::BYTES, 0);
            for (e, chunk) in seg.iter().zip(buf.chunks_exact_mut(T::BYTES)) {
                e.store(chunk);
            }
            match spill.write_out(self.write_site, &buf) {
                Ok(offset) => {
                    self.segs[idx] = Segment::Spilled {
                        offset,
                        len: seg.len() as u32,
                    };
                }
                // Disk trouble that survived the retry policy: keep
                // the segment resident (correctness over the budget)
                // and stop trying this round.
                Err(_) => {
                    self.next_spill = idx;
                    break;
                }
            }
        }
    }

    /// The row at `loc`.
    pub(crate) fn row(&self, loc: RowLoc) -> RowRef<'_, T> {
        let (seg, off, len) = (loc.seg as usize, loc.off as usize, loc.len as usize);
        if seg == self.segs.len() {
            // Row still in the open tail (store not yet finished).
            return RowRef {
                inner: RowInner::Direct(&self.tail[off..off + len]),
            };
        }
        match &self.segs[seg] {
            Segment::Resident(s) => RowRef {
                inner: RowInner::Direct(&s[off..off + len]),
            },
            Segment::Spilled {
                offset,
                len: seg_len,
            } => RowRef {
                inner: RowInner::Loaded {
                    seg: self.load(seg, *offset, *seg_len as usize),
                    off,
                    len,
                },
            },
        }
    }

    /// Loads a spilled segment through the LRU.
    fn load(&self, seg: usize, offset: u64, seg_len: usize) -> Arc<[T]> {
        let mut cache = self.cache.lock().expect("segment cache poisoned");
        if let Some(pos) = cache.iter().position(|(s, _)| *s == seg) {
            let entry = cache.remove(pos);
            let arc = entry.1.clone();
            cache.push(entry); // most recently used last
            ctsim_obs::counter_add("spill.pager_hits", 1);
            return arc;
        }
        ctsim_obs::counter_add("spill.pager_misses", 1);
        if let Some(counter) = self.page_counter {
            ctsim_obs::counter_add(counter, (seg_len * T::BYTES) as u64);
        }
        let spill = self
            .spill
            .as_ref()
            .expect("spilled segment without a spill backend");
        let mut bytes = vec![0u8; seg_len * T::BYTES];
        if let Err(e) = spill.read_back(self.read_site, offset, &mut bytes) {
            raise_read_failure(e);
        }
        let data: Vec<T> = bytes.chunks_exact(T::BYTES).map(T::load).collect();
        let arc: Arc<[T]> = data.into();
        if cache.len() >= self.cache_slots {
            cache.remove(0);
        }
        cache.push((seg, arc.clone()));
        arc
    }

    /// Empties the reloaded-segment LRU. Reloaded segments sit outside
    /// the spill account, so a one-off pass (the generator's value
    /// fill) gives them back instead of holding them for the next user.
    pub(crate) fn clear_cache(&self) {
        self.cache.lock().expect("segment cache poisoned").clear();
    }

    /// Streams the rows addressed by `locs` (in the given order) into
    /// `f(index_within_locs, row_slice)`, loading each spilled segment
    /// at most once per run of consecutive rows that live in it. This
    /// is the sweep primitive of the paged-CSR SpMV: one `O(rows)`
    /// pass pays `O(segments)` disk reads rather than `O(rows)` LRU
    /// probes, and the per-row callback order — hence every
    /// floating-point summation order built on it — is exactly the
    /// order of `locs`.
    pub(crate) fn stream_rows(&self, locs: &[RowLoc], mut f: impl FnMut(usize, &[T])) {
        let mut i = 0;
        while i < locs.len() {
            let seg_idx = locs[i].seg as usize;
            let mut j = i;
            while j < locs.len() && locs[j].seg as usize == seg_idx {
                j += 1;
            }
            let group = i..j;
            i = j;
            if seg_idx == self.segs.len() {
                for k in group {
                    let (off, len) = (locs[k].off as usize, locs[k].len as usize);
                    f(k, &self.tail[off..off + len]);
                }
                continue;
            }
            match &self.segs[seg_idx] {
                Segment::Resident(s) => {
                    for k in group {
                        let (off, len) = (locs[k].off as usize, locs[k].len as usize);
                        f(k, &s[off..off + len]);
                    }
                }
                Segment::Spilled { offset, len } => {
                    let loaded = self.load(seg_idx, *offset, *len as usize);
                    for k in group {
                        let (off, len) = (locs[k].off as usize, locs[k].len as usize);
                        f(k, &loaded[off..off + len]);
                    }
                }
            }
        }
    }

    /// Every element in append order (loading spilled segments) — for
    /// reproducibility asserts and small-space consumers, not hot
    /// paths.
    pub(crate) fn collect_all(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for (i, seg) in self.segs.iter().enumerate() {
            match seg {
                Segment::Resident(s) => out.extend_from_slice(s),
                Segment::Spilled { offset, len } => {
                    let loaded = self.load(i, *offset, *len as usize);
                    out.extend_from_slice(&loaded);
                }
            }
        }
        out.extend_from_slice(&self.tail);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::SpillOptions;

    fn store(cap: usize, budget: Option<usize>) -> SegStore<u64> {
        let spill =
            budget.map(|b| Arc::new(SpillShared::new(&SpillOptions::with_budget(b)).unwrap()));
        SegStore::new(cap, spill, ["test.read", "test.write"])
    }

    #[test]
    fn rows_never_straddle_segments() {
        let mut s = store(8, None);
        // 3 + 3 fit one segment; the next 3 must start segment 1.
        let a = s.append_row(&[1, 2, 3]);
        let b = s.append_row(&[4, 5, 6]);
        let c = s.append_row(&[7, 8, 9]);
        assert_eq!((a.seg, a.off), (0, 0));
        assert_eq!((b.seg, b.off), (0, 3));
        assert_eq!((c.seg, c.off), (1, 0), "row crossed a segment boundary");
        s.finish();
        assert_eq!(&*s.row(a), &[1, 2, 3]);
        assert_eq!(&*s.row(b), &[4, 5, 6]);
        assert_eq!(&*s.row(c), &[7, 8, 9]);
        assert_eq!(s.collect_all(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn jumbo_rows_get_their_own_segment() {
        let mut s = store(4, None);
        let a = s.append_row(&[1, 2]);
        let big: Vec<u64> = (10..20).collect();
        let b = s.append_row(&big);
        let c = s.append_row(&[3]);
        s.finish();
        assert_eq!(b.len, 10);
        assert_eq!(b.off, 0);
        assert_ne!(a.seg, b.seg);
        assert_ne!(b.seg, c.seg);
        assert_eq!(&*s.row(b), big.as_slice());
        assert_eq!(&*s.row(c), &[3]);
    }

    #[test]
    fn tail_rows_are_readable_before_finish() {
        let mut s = store(16, None);
        let a = s.append_row(&[5, 6]);
        assert_eq!(&*s.row(a), &[5, 6]);
    }

    #[test]
    fn spilled_segments_round_trip() {
        // Budget 0: every sealed segment pages out immediately.
        let mut s = store(4, Some(0));
        let rows: Vec<Vec<u64>> = (0..40u64).map(|i| vec![i * 3, i * 3 + 1]).collect();
        let locs: Vec<RowLoc> = rows.iter().map(|r| s.append_row(r)).collect();
        s.finish();
        assert!(
            s.spill.as_ref().unwrap().spilled_bytes() > 0,
            "nothing spilled despite a zero budget"
        );
        // Sequential read-back (the streaming pattern)...
        for (r, &loc) in rows.iter().zip(&locs) {
            assert_eq!(&*s.row(loc), r.as_slice());
        }
        // ...and a random-access look-back that defeats the LRU.
        assert_eq!(&*s.row(locs[0]), rows[0].as_slice());
        assert_eq!(&*s.row(locs[39]), rows[39].as_slice());
        assert_eq!(
            s.collect_all(),
            rows.iter().flatten().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn partial_budget_spills_oldest_first() {
        // 4 segments of 32 bytes; a 64-byte budget keeps ~2 resident.
        let mut s = store(4, Some(64));
        for i in 0..16u64 {
            s.append_row(&[i]);
        }
        s.finish();
        let spilled = s
            .segs
            .iter()
            .map(|seg| matches!(seg, Segment::Spilled { .. }))
            .collect::<Vec<_>>();
        assert!(spilled[0], "oldest segment must page out first");
        assert!(
            !spilled.last().unwrap(),
            "newest segment should stay resident"
        );
        assert_eq!(s.collect_all(), (0..16).collect::<Vec<_>>());
    }
}
