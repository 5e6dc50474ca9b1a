//! External-memory BFS: delayed duplicate detection over sorted runs.
//!
//! The resident exploration path deduplicates states through an
//! in-RAM intern table (`intern::Interner`), which makes the table plus
//! its arena a hard RAM floor of `states × (8·words + 1)` bytes. This
//! module is the classic external-memory alternative (Munagala–Ranade
//! style delayed duplicate detection): workers collect *candidate*
//! successor keys into per-worker hash sets that only ever hold one
//! level's candidates, and the actual duplicate test against the full
//! visited set is *delayed* to the level boundary, where it becomes a
//! sort-merge between the sorted candidate list and the sorted visited
//! runs streamed from disk.
//!
//! # Data layout and invariants
//!
//! * **Visited runs** ([`VisitedRuns`]): one run per BFS level,
//!   appended raw to the shared spill file ([`SpillShared::append_raw`]
//!   — never counted as resident). A run is the level's packed keys,
//!   ascending, and the canonical id of the `i`-th key of run `ℓ` is
//!   `base_id(ℓ) + i` — ids are *positional*, which is what makes the
//!   canonical `(BFS level, packed key)` numbering free: it is the
//!   on-disk order.
//! * **Candidates** ([`CandSet`]): a worker-local flat key buffer plus
//!   an open-addressed index table (same `hash_key` as the resident
//!   interner). It dedups only within one worker and one level; cross-
//!   worker and cross-level duplicates are resolved at the merge.
//! * **Level merge** ([`resolve_level`]): sort all workers' candidates
//!   by key, collapse equal keys, stream every overlapping visited run
//!   once (two-pointer merge, counted in `ddd.merge_bytes`), and
//!   assign fresh ids to the unmatched remainder in sorted-key order —
//!   exactly the order the resident strategy's sort would have produced, so the
//!   resulting CSR is byte-identical to the resident path's.
//!
//! The RAM high-water mark of this path is one frontier (keys +
//! absorbing flags) plus the per-worker candidate sets and the sort
//! index of one level — all proportional to the *largest BFS level*,
//! not the state space.

use std::sync::Arc;

use crate::intern::{hash_key, InternFull};
use crate::spill::SpillShared;
use crate::SolveError;

/// What the successor-expansion code needs from a deduplicator: turn a
/// packed key into an id. The resident path's id is the canonical
/// intern id; the external path's is a worker-local *candidate* index,
/// rewritten to the canonical id at the level merge. Expansion is
/// generic over this trait, so both explorations monomorphize the
/// exact same firing/vanishing/phase code and differ only in where the
/// id comes from — the heart of the byte-identical-CSR argument.
pub(crate) trait DedupSink {
    /// Interns `key`, evaluating `absorbing` at most once on first
    /// sight. `Err(InternFull)` means the global state cap is hit
    /// (resident path only — candidate sets are unbounded and enforce
    /// the cap at the level merge).
    fn intern_key(
        &mut self,
        key: &[u64],
        absorbing: impl FnOnce() -> bool,
    ) -> Result<usize, InternFull>;
}

/// A worker-local candidate set of the external-memory path: inserts
/// cannot fail, duplicates collapse per worker, and the returned index
/// is local until [`resolve_level`] maps it to a canonical id.
impl DedupSink for &mut CandSet {
    fn intern_key(
        &mut self,
        key: &[u64],
        absorbing: impl FnOnce() -> bool,
    ) -> Result<usize, InternFull> {
        Ok(self.insert(key, absorbing))
    }
}

/// Empty slot marker of the candidate index table.
const EMPTY: u32 = u32::MAX;

/// Keys streamed per `read_back` while matching against a visited run.
const CHUNK_KEYS: usize = 1 << 13;

/// One worker's candidate-successor set for the BFS level in flight:
/// flat packed keys in insertion order, absorbing flags, and an
/// open-addressed dedup index over them. Cleared (buffers kept) at
/// every level boundary.
pub(crate) struct CandSet {
    words: usize,
    /// Flat keys: candidate `i` occupies `keys[i*words..(i+1)*words]`.
    keys: Vec<u64>,
    /// Per-candidate absorbing verdict (evaluated on first insert,
    /// like the resident interner's lazy flag).
    absorbing: Vec<bool>,
    /// Open-addressed table of candidate indices (linear probing,
    /// grown at 50 % load).
    table: Vec<u32>,
    mask: usize,
}

impl CandSet {
    pub(crate) fn new(words: usize) -> Self {
        let cap = 1usize << 10;
        Self {
            words: words.max(1),
            keys: Vec::new(),
            absorbing: Vec::new(),
            table: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    /// Number of distinct candidates inserted since the last clear.
    pub(crate) fn len(&self) -> usize {
        self.absorbing.len()
    }

    /// The packed key of candidate `i`.
    pub(crate) fn key(&self, i: usize) -> &[u64] {
        &self.keys[i * self.words..(i + 1) * self.words]
    }

    /// Whether candidate `i` was flagged absorbing at insert time.
    pub(crate) fn absorbing(&self, i: usize) -> bool {
        self.absorbing[i]
    }

    /// Drops the level's candidates, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.absorbing.clear();
        self.table.fill(EMPTY);
    }

    /// Dedups-or-inserts `key`, returning its worker-local candidate
    /// index. `absorbing` is evaluated lazily, at most once, on first
    /// insert — mirroring `Interner::intern`.
    pub(crate) fn insert(&mut self, key: &[u64], absorbing: impl FnOnce() -> bool) -> usize {
        debug_assert_eq!(key.len(), self.words);
        if (self.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let mut pos = (hash_key(key) as usize) & self.mask;
        loop {
            match self.table[pos] {
                EMPTY => {
                    let idx = self.len();
                    self.table[pos] = idx as u32;
                    self.keys.extend_from_slice(key);
                    self.absorbing.push(absorbing());
                    return idx;
                }
                idx => {
                    let idx = idx as usize;
                    if &self.keys[idx * self.words..(idx + 1) * self.words] == key {
                        return idx;
                    }
                }
            }
            pos = (pos + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.table.len() * 2;
        self.table.clear();
        self.table.resize(cap, EMPTY);
        self.mask = cap - 1;
        let words = self.words;
        let keys = &self.keys;
        for idx in 0..self.absorbing.len() {
            let key = &keys[idx * words..(idx + 1) * words];
            let mut pos = (hash_key(key) as usize) & self.mask;
            while self.table[pos] != EMPTY {
                pos = (pos + 1) & self.mask;
            }
            self.table[pos] = idx as u32;
        }
    }
}

/// One fixed BFS level held in RAM while its states are expanded: the
/// packed keys in canonical (ascending) order plus the absorbing flag
/// of each. The canonical id of entry `i` is `base + i`, where `base`
/// is the level's first id.
#[derive(Debug)]
pub(crate) struct Frontier {
    words: usize,
    keys: Vec<u64>,
    absorbing: Vec<bool>,
}

impl Frontier {
    fn new(words: usize) -> Self {
        Self {
            words,
            keys: Vec::new(),
            absorbing: Vec::new(),
        }
    }

    /// Number of states in the level.
    pub(crate) fn len(&self) -> usize {
        self.absorbing.len()
    }

    /// The packed key of the level's `i`-th state.
    pub(crate) fn key(&self, i: usize) -> &[u64] {
        &self.keys[i * self.words..(i + 1) * self.words]
    }

    /// Whether the level's `i`-th state is absorbing.
    pub(crate) fn absorbing(&self, i: usize) -> bool {
        self.absorbing[i]
    }
}

/// Metadata of one sorted on-disk visited run (one BFS level).
struct RunMeta {
    /// Byte offset of the run in the spill file.
    offset: u64,
    /// Number of keys in the run.
    states: usize,
    /// Canonical id of the run's first key.
    base_id: usize,
    /// Smallest key in the run (range pre-filter for the merge).
    min_key: Vec<u64>,
    /// Largest key in the run.
    max_key: Vec<u64>,
}

/// The on-disk visited set: one sorted key run per emitted BFS level.
/// Always complete — a level's run is written the moment its
/// membership is fixed — so "not in any run" is exactly "never seen".
pub(crate) struct VisitedRuns {
    words: usize,
    spill: Arc<SpillShared>,
    runs: Vec<RunMeta>,
    /// Serialization scratch.
    buf: Vec<u8>,
}

impl VisitedRuns {
    pub(crate) fn new(words: usize, spill: Arc<SpillShared>) -> Self {
        Self {
            words: words.max(1),
            spill,
            runs: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Appends a level's sorted flat keys as a new run whose first key
    /// has canonical id `base_id`.
    fn push_run(&mut self, keys: &[u64], base_id: usize) -> Result<(), SolveError> {
        debug_assert_eq!(keys.len() % self.words, 0);
        let states = keys.len() / self.words;
        if states == 0 {
            return Ok(());
        }
        self.buf.clear();
        self.buf.reserve(keys.len() * 8);
        for w in keys {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
        let offset = self.spill.append_raw("ddd.append_run", &self.buf)?;
        ctsim_obs::counter_add("ddd.sorted_runs", 1);
        self.runs.push(RunMeta {
            offset,
            states,
            base_id,
            min_key: keys[..self.words].to_vec(),
            max_key: keys[keys.len() - self.words..].to_vec(),
        });
        Ok(())
    }
}

/// The outcome of one level merge: per-worker candidate → canonical-id
/// maps, plus the next BFS level (the unmatched candidates).
#[derive(Debug)]
pub(crate) struct LevelResolution {
    /// `resolved[w][local]` is the canonical id of worker `w`'s
    /// candidate `local`.
    pub(crate) resolved: Vec<Vec<u32>>,
    /// The freshly discovered states, sorted by key — the next level.
    pub(crate) frontier: Frontier,
}

/// The delayed duplicate detection step at a level boundary: matches
/// every worker's candidates against the on-disk visited runs, assigns
/// canonical ids `next_base..` to the unmatched remainder in
/// sorted-key order, and seals the new level as the next visited run.
///
/// Determinism: candidate membership and the match verdicts are model
/// properties (the visited set after level `ℓ` is the same set the
/// resident interner would hold), and id assignment is by sorted key —
/// the same total order the resident strategy sorts a level by — so the ids, and
/// everything derived from them, are identical to the resident path.
pub(crate) fn resolve_level(
    workers: &[&CandSet],
    visited: &mut VisitedRuns,
    next_base: usize,
    max_states: usize,
) -> Result<LevelResolution, SolveError> {
    let words = visited.words;
    let total: usize = workers.iter().map(|c| c.len()).sum();
    // Global sort of the level's candidates: (worker, local) pairs
    // ordered by key. Ties across workers are real duplicates; the
    // worker/local tie-break only fixes the sort, not any result.
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(total);
    for (w, cs) in workers.iter().enumerate() {
        merged.extend((0..cs.len()).map(|i| (w as u32, i as u32)));
    }
    merged.sort_unstable_by(|&(aw, ai), &(bw, bi)| {
        workers[aw as usize]
            .key(ai as usize)
            .cmp(workers[bw as usize].key(bi as usize))
            .then(aw.cmp(&bw))
            .then(ai.cmp(&bi))
    });
    // Collapse equal keys: `distinct` holds one representative per
    // key, `group_of[m]` maps each merged entry to its representative.
    let mut distinct: Vec<(u32, u32)> = Vec::new();
    let mut group_of: Vec<u32> = Vec::with_capacity(merged.len());
    for &(w, i) in &merged {
        let fresh = distinct.last().map_or(true, |&(lw, li)| {
            workers[lw as usize].key(li as usize) != workers[w as usize].key(i as usize)
        });
        if fresh {
            distinct.push((w, i));
        }
        group_of.push((distinct.len() - 1) as u32);
    }
    let key_of = |d: usize| {
        let (w, i) = distinct[d];
        workers[w as usize].key(i as usize)
    };
    // Delayed duplicate detection: stream each overlapping run once,
    // two-pointer merge against the sorted distinct candidates.
    let mut id_of: Vec<u64> = vec![u64::MAX; distinct.len()];
    let mut merge_bytes = 0u64;
    if !distinct.is_empty() {
        let mut chunk = vec![0u8; CHUNK_KEYS * words * 8];
        let mut chunk_words = vec![0u64; CHUNK_KEYS * words];
        for run in &visited.runs {
            if run.max_key.as_slice() < key_of(0)
                || run.min_key.as_slice() > key_of(distinct.len() - 1)
            {
                continue;
            }
            let mut di = 0usize;
            let mut read = 0usize; // keys consumed from this run
            while read < run.states && di < distinct.len() {
                let n = (run.states - read).min(CHUNK_KEYS);
                let bytes = &mut chunk[..n * words * 8];
                visited.spill.read_back(
                    "ddd.read_run",
                    run.offset + (read * words * 8) as u64,
                    bytes,
                )?;
                merge_bytes += bytes.len() as u64;
                for (w, b) in chunk_words[..n * words]
                    .iter_mut()
                    .zip(bytes.chunks_exact(8))
                {
                    *w = u64::from_le_bytes(b.try_into().expect("8-byte word"));
                }
                for k in 0..n {
                    let rkey = &chunk_words[k * words..(k + 1) * words];
                    while di < distinct.len() && key_of(di) < rkey {
                        di += 1;
                    }
                    if di == distinct.len() {
                        break;
                    }
                    if key_of(di) == rkey {
                        id_of[di] = (run.base_id + read + k) as u64;
                        di += 1;
                    }
                }
                read += n;
            }
        }
    }
    ctsim_obs::counter_add("ddd.merge_bytes", merge_bytes);
    // The unmatched remainder is the next level: canonical ids in
    // sorted-key order, starting at `next_base`.
    let mut frontier = Frontier::new(words);
    for (d, &(w, i)) in distinct.iter().enumerate() {
        if id_of[d] == u64::MAX {
            id_of[d] = (next_base + frontier.len()) as u64;
            let cs = workers[w as usize];
            frontier.keys.extend_from_slice(cs.key(i as usize));
            frontier.absorbing.push(cs.absorbing(i as usize));
        }
    }
    if next_base + frontier.len() > max_states {
        return Err(SolveError::StateSpaceTooLarge { limit: max_states });
    }
    visited.push_run(&frontier.keys, next_base)?;
    let mut resolved: Vec<Vec<u32>> = workers.iter().map(|c| vec![0u32; c.len()]).collect();
    for (m, &(w, i)) in merged.iter().enumerate() {
        resolved[w as usize][i as usize] = id_of[group_of[m] as usize] as u32;
    }
    Ok(LevelResolution { resolved, frontier })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::SpillOptions;

    fn cands(words: usize, keys: &[&[u64]]) -> CandSet {
        let mut cs = CandSet::new(words);
        for k in keys {
            cs.insert(k, || false);
        }
        cs
    }

    #[test]
    fn candset_dedups_and_grows() {
        let mut cs = CandSet::new(2);
        // Insert enough distinct keys to force several table growths.
        for i in 0..5000u64 {
            assert_eq!(cs.insert(&[i, i * 7], || i % 3 == 0), i as usize);
        }
        assert_eq!(cs.len(), 5000);
        // Re-inserting returns the original index and never re-runs the
        // absorbing predicate.
        for i in (0..5000u64).rev() {
            assert_eq!(
                cs.insert(&[i, i * 7], || panic!("re-evaluated")),
                i as usize
            );
        }
        assert!(cs.absorbing(0) && !cs.absorbing(1) && cs.absorbing(3));
        cs.clear();
        assert_eq!(cs.len(), 0);
        assert_eq!(cs.insert(&[9, 9], || false), 0);
    }

    #[test]
    fn resolve_assigns_sorted_ids_and_matches_prior_runs() {
        let spill = Arc::new(SpillShared::new(&SpillOptions::with_budget(0)).unwrap());
        let mut visited = VisitedRuns::new(1, spill);
        // Level 0: keys {10, 20} → ids 0, 1.
        let seed = cands(1, &[&[20], &[10]]);
        let r0 = resolve_level(&[&seed], &mut visited, 0, 1 << 20).unwrap();
        assert_eq!(r0.frontier.len(), 2);
        assert_eq!(r0.frontier.key(0), &[10]);
        assert_eq!(r0.frontier.key(1), &[20]);
        assert_eq!(r0.resolved[0], vec![1, 0], "ids follow key order");
        // Level 1 candidates from two workers: {10 (dup), 15, 25} and
        // {15 (cross-worker dup), 5}.
        let a = cands(1, &[&[25], &[10], &[15]]);
        let b = cands(1, &[&[15], &[5]]);
        let r1 = resolve_level(&[&a, &b], &mut visited, 2, 1 << 20).unwrap();
        // New states sorted: 5 → 2, 15 → 3, 25 → 4; 10 matched id 0.
        assert_eq!(r1.frontier.len(), 3);
        assert_eq!(r1.frontier.key(0), &[5]);
        assert_eq!(r1.resolved[0], vec![4, 0, 3]);
        assert_eq!(r1.resolved[1], vec![3, 2]);
        // Level 2: everything seen so far matches, nothing is new.
        let c = cands(1, &[&[5], &[10], &[15], &[20], &[25]]);
        let r2 = resolve_level(&[&c], &mut visited, 5, 1 << 20).unwrap();
        assert_eq!(r2.frontier.len(), 0);
        assert_eq!(r2.resolved[0], vec![2, 0, 3, 1, 4]);
    }

    #[test]
    fn resolve_enforces_the_state_cap() {
        let spill = Arc::new(SpillShared::new(&SpillOptions::with_budget(0)).unwrap());
        let mut visited = VisitedRuns::new(1, spill);
        let seed = cands(1, &[&[1], &[2], &[3]]);
        let err = resolve_level(&[&seed], &mut visited, 0, 2).unwrap_err();
        assert!(matches!(err, SolveError::StateSpaceTooLarge { limit: 2 }));
    }
}
