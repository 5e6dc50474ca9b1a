//! The output side of the streaming pipeline: worker-local transition
//! chains, and the [`Assembly`] that streams each closed BFS level —
//! canonical state by canonical state — into the packed-state store and
//! the structural CSR with its term table.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ctsim_san::SanModel;

use super::driver::Dedup;
use super::expand::Expansion;
use super::terms::{Outcome, TermTable};
use super::PackedStates;
use crate::arena::SegStore;
use crate::ctmc::{CsrBuilder, CsrEntry};
use crate::reserve_by_quarters;
use crate::spill::SpillShared;

/// Transitions per worker-local chain segment (see [`WorkerChain`]).
const CHAIN_SEG: usize = 1 << 14;

/// Nominal `u64` words per segment of the packed-state store.
const PACKED_SEG: usize = 1 << 16;

/// Where one provisional state's transition run sits inside one
/// worker's chain.
#[derive(Clone, Copy)]
struct Run {
    prov: u32,
    seg: u32,
    off: u32,
    len: u32,
}

/// A worker's per-level transition storage: fixed-capacity segments
/// appended back to back (no per-state heap allocation, no shared
/// allocator traffic between workers) plus the run index locating each
/// expanded state's row. Chains are recycled level to level through
/// `Assembly::chain_pool` — the emission clears them, trimmed to what
/// their level used, and hands them back, so a level allocates only
/// the segments it needs beyond the level emitted before it (which
/// also keeps the allocator's resident footprint flat: freeing every
/// chain every level left the heap fragmented at peak).
#[derive(Default)]
pub(super) struct WorkerChain {
    segs: Vec<Vec<Outcome>>,
    runs: Vec<Run>,
    /// Index of the segment currently being filled (≤ `segs.len()`).
    cur: usize,
}

impl WorkerChain {
    /// Appends one state's row. Rows never straddle segments; a row
    /// longer than [`CHAIN_SEG`] gets a dedicated oversized segment.
    pub(super) fn push_row(&mut self, prov: usize, row: &[Outcome]) {
        if row.is_empty() {
            return; // an absent run reads back as an empty row
        }
        while self.cur < self.segs.len()
            && self.segs[self.cur].len() + row.len() > self.segs[self.cur].capacity()
        {
            self.cur += 1;
        }
        if self.cur == self.segs.len() {
            self.segs.push(Vec::with_capacity(CHAIN_SEG.max(row.len())));
        }
        let seg = &mut self.segs[self.cur];
        let off = seg.len();
        seg.extend_from_slice(row);
        self.runs.push(Run {
            prov: prov as u32,
            seg: self.cur as u32,
            off: off as u32,
            len: row.len() as u32,
        });
    }

    /// Transitions appended since the last reset.
    pub(super) fn num_transitions(&self) -> usize {
        self.runs.iter().map(|r| r.len as usize).sum()
    }

    /// Clears content for a later level, keeping the capacity this
    /// level used and giving back the rest: levels swell and shrink, and
    /// a chain sized for the widest level would hold that size to the
    /// end of the exploration, where the heap peaks.
    fn reset(&mut self) {
        self.segs.retain(|s| !s.is_empty());
        for s in &mut self.segs {
            s.clear();
        }
        self.runs.shrink_to_fit();
        self.runs.clear();
        self.cur = 0;
    }
}

/// Locates one provisional state's transition run inside a level's
/// worker chains (`chain == u16::MAX` marks an absorbing state with no
/// run).
#[derive(Clone, Copy)]
struct RunSlot {
    chain: u16,
    seg: u16,
    off: u32,
    len: u32,
}

impl RunSlot {
    const NONE: RunSlot = RunSlot {
        chain: u16::MAX,
        seg: 0,
        off: 0,
        len: 0,
    };
}

/// Opens the spill-mode canonical packed-state store: `words` per row,
/// pageable under the shared budget.
pub(super) fn packed_store(words: usize, spill: Arc<SpillShared>) -> SegStore<u64> {
    SegStore::new(
        states_per_seg(words) * words,
        Some(spill),
        ["pack.page_in", "pack.page_out"],
    )
}

/// Seals a [`packed_store`] into the finished state table.
pub(super) fn seal_packed(mut store: SegStore<u64>, words: usize) -> PackedStates {
    store.finish();
    PackedStates::Store {
        store,
        per_seg: states_per_seg(words),
    }
}

fn states_per_seg(words: usize) -> usize {
    (PACKED_SEG / words).max(1)
}

/// One fully expanded BFS level queued for emission: its id range
/// (canonical and provisional numbering share a level's contiguous
/// block), every worker's transition chain, and what the dedup strategy
/// kept to read the level's visit order, keys and target ids back
/// ([`Dedup::Level`]).
pub(super) struct PendingLevel<L> {
    pub(super) lo: usize,
    pub(super) hi: usize,
    pub(super) chains: Vec<WorkerChain>,
    pub(super) data: L,
}

/// The output side of the streaming pipeline: the canonical packed
/// states (held in the strategy's [`Dedup::States`]), and the
/// structural CSR and its term table, accumulated row by row as levels
/// are emitted.
pub(super) struct Assembly<'m, 'a, D: Dedup> {
    model: &'m SanModel,
    /// Where a new term's rate comes from.
    expansion: &'a Expansion,
    pub(super) states: D::States,
    pub(super) csr: CsrBuilder,
    pub(super) terms: TermTable,
    pub(super) absorbing: Vec<bool>,
    pub(super) total_trans: usize,
    merge_buf: Vec<Outcome>,
    edge_buf: Vec<CsrEntry>,
    runs_buf: Vec<RunSlot>,
    /// Emptied worker chains awaiting reuse by a later level.
    pub(super) chain_pool: Vec<WorkerChain>,
    /// Spent level buffers awaiting reuse ([`Dedup::recycle`]).
    pub(super) level_pool: Vec<D::Level>,
    /// Wall-clock spent in [`Self::emit_level`] so far.
    pub(super) emit_time: Duration,
}

impl<'m, 'a, D: Dedup> Assembly<'m, 'a, D> {
    pub(super) fn new(
        model: &'m SanModel,
        expansion: &'a Expansion,
        states: D::States,
        spill: Option<Arc<SpillShared>>,
    ) -> Self {
        Assembly {
            model,
            expansion,
            states,
            csr: CsrBuilder::new(spill),
            terms: TermTable::new(model.num_activities()),
            absorbing: Vec::new(),
            total_trans: 0,
            merge_buf: Vec::new(),
            edge_buf: Vec::new(),
            runs_buf: Vec::new(),
            chain_pool: Vec::new(),
            level_pool: Vec::new(),
            emit_time: Duration::ZERO,
        }
    }

    /// Indexes one level's worker chains by provisional id into
    /// `runs_buf` (absorbing states keep [`RunSlot::NONE`]).
    fn index_runs(&mut self, lo: usize, hi: usize, chains: &[WorkerChain]) {
        self.runs_buf.clear();
        self.runs_buf.resize(hi - lo, RunSlot::NONE);
        self.runs_buf.shrink_to_fit();
        for (ci, chain) in chains.iter().enumerate() {
            for r in &chain.runs {
                self.runs_buf[r.prov as usize - lo] = RunSlot {
                    chain: ci as u16,
                    seg: r.seg as u16,
                    off: r.off,
                    len: r.len,
                };
            }
        }
    }

    /// Streams one explored level into the canonical stores: states in
    /// packed-key order, and per row retarget → sort → merge → term ids
    /// → one CSR row. Term ids are given here, in canonical row order,
    /// so the table is the same for every thread count, spill budget
    /// and dedup strategy. In parallel explorations this runs *while
    /// the next level is still being expanded* — the explore → CSR
    /// handoff is pipelined, not serial.
    ///
    /// The visit order, each state's key and absorbing flag, and the
    /// map from the ids the chains carry (provisional intern ids or
    /// worker-local candidate indices) to canonical ids are read
    /// through the strategy; canonical ids are `lo + rank` either way.
    pub(super) fn emit_level(&mut self, dedup: &D, level: PendingLevel<D::Level>) {
        let PendingLevel {
            lo,
            hi,
            chains,
            data,
        } = level;
        let _csr_span = ctsim_obs::span("csr", "csr_build_level")
            .arg("lo", lo)
            .arg("states", hi - lo);
        let started = Instant::now();
        self.index_runs(lo, hi, &chains);
        reserve_by_quarters(&mut self.absorbing, hi - lo);
        for rank in 0..(hi - lo) {
            let src = lo + rank;
            debug_assert_eq!(src, self.absorbing.len(), "levels emitted in order");
            let (i, absorbing) = dedup.emit_state(&mut self.states, &data, lo, rank);
            self.absorbing.push(absorbing);
            self.merge_buf.clear();
            let slot = self.runs_buf[i];
            if slot.chain != u16::MAX {
                let seg = &chains[slot.chain as usize].segs[slot.seg as usize];
                self.merge_buf
                    .extend_from_slice(&seg[slot.off as usize..(slot.off + slot.len) as usize]);
                let map = dedup.target_map(&data, slot.chain as usize);
                for o in &mut self.merge_buf {
                    o.target = map[o.target as usize];
                }
                merge_outgoing(&mut self.merge_buf);
            }
            self.edge_buf.clear();
            for o in &self.merge_buf {
                let term = self.terms.intern(o, |a, stage| {
                    self.expansion.stage_rate(self.model, a, stage)
                });
                self.edge_buf.push(CsrEntry {
                    col: o.target,
                    term,
                });
            }
            self.total_trans += self.edge_buf.len();
            self.csr.push_row(src, &mut self.edge_buf);
        }
        // Recycle the emitted level's chains instead of freeing them:
        // the next levels reuse the capacity it used, keeping the
        // resident footprint flat instead of fragmenting the heap.
        for mut chain in chains {
            chain.reset();
            self.chain_pool.push(chain);
        }
        self.level_pool.extend(D::recycle(data));
        self.emit_time += started.elapsed();
    }
}

/// Sorts and merges one source state's outcomes in place: duplicate
/// `(activity, target, completes)` outcomes within each activity's
/// contiguous run are folded by summing `prob` in sorted order, so the
/// floating-point result is independent of discovery interleaving.
/// Duplicates always share the same stage — one activity's row
/// outcomes all come from one `completions` call — so the fold keeps
/// the stage, and with it the term's rate, untouched: a summed `prob`
/// is part of the term key, never a function of a rate. Must be called
/// with canonical target ids.
fn merge_outgoing(outs: &mut Vec<Outcome>) {
    let mut i = 0;
    while i < outs.len() {
        let mut j = i + 1;
        while j < outs.len() && outs[j].activity == outs[i].activity {
            j += 1;
        }
        if j - i > 1 {
            outs[i..j].sort_unstable_by_key(|t| (t.target, t.completes));
        }
        i = j;
    }
    // In-place fold of adjacent duplicates (`prev` is the retained
    // element), so the common no-duplicate case allocates nothing.
    outs.dedup_by(|cur, prev| {
        if prev.activity == cur.activity
            && prev.target == cur.target
            && prev.completes == cur.completes
        {
            debug_assert_eq!(prev.stage, cur.stage);
            prev.prob += cur.prob;
            true
        } else {
            false
        }
    });
}
