//! The exploration driver: one level-synchronous breadth-first sweep
//! ([`drive`]) generic over a [`Dedup`] strategy, and the two
//! strategies — the resident intern table ([`Resident`]) and
//! external-memory delayed duplicate detection ([`External`]).
//!
//! The driver owns the level loop, the worker claim loop, the overlap
//! of the previous level's emission with the current level's
//! expansion, the abort merge, telemetry, and buffer recycling. A
//! strategy owns only what differs: the current frontier, the sink a
//! successor key is interned through, how a finished level's ids become
//! canonical, and where the canonical packed states are kept. Dispatch
//! is static — nothing on a per-state or per-transition path goes
//! through a vtable.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctsim_san::SanModel;

use super::assembly::{packed_store, seal_packed, Assembly, PendingLevel, WorkerChain};
use super::expand::{AbsorbFn, Expansion, Explorer, Scratch};
use super::{state_limit, PackedStates, ReachOptions, StateSpace};
use crate::arena::SegStore;
use crate::ddd::{resolve_level, CandSet, DedupSink, Frontier, VisitedRuns};
use crate::intern::{InternFull, Interner};
use crate::pack::{PackOverflow, StateLayout};
use crate::spill::{DedupMode, SpillOptions, SpillShared};
use crate::{reserve_by_quarters, SolveError};

/// Why an exploration attempt stopped: place fields overflowed (retry
/// with those places wider), the resident intern table outgrew its
/// share of the spill budget (restart in external-memory dedup mode),
/// or a real solver error.
pub(super) enum Abort {
    /// Every overflow the attempt's workers reported.
    Pack(Vec<PackOverflow>),
    Ddd,
    Solve(SolveError),
}

impl From<SolveError> for Abort {
    fn from(e: SolveError) -> Self {
        Abort::Solve(e)
    }
}

impl From<PackOverflow> for Abort {
    fn from(o: PackOverflow) -> Self {
        Abort::Pack(vec![o])
    }
}

/// Minimum frontier size before spawning worker threads.
const PARALLEL_THRESHOLD: usize = 32;

/// Bounds on the adaptive claim granule: frontier states claimed per
/// worker `fetch_add`. The granule scales with the level size (about
/// 1/16th of a worker's fair share) so big levels amortise the shared
/// cursor while a straggler chunk still cannot serialise a level.
const MIN_CLAIM: usize = 64;
const MAX_CLAIM: usize = 8192;

/// Shortest run of a level's keys worth a thread of its own when the
/// level is sorted; a level under two of these is sorted inline.
const SORT_RUN_MIN: usize = 1 << 10;

/// One worker's persistent state: scratch buffers, the chain of
/// transition segments it appends rows to during the current level, and
/// the strategy's per-worker dedup state. Lives as long as its worker
/// slot — across every BFS level.
pub(super) struct Worker<L> {
    scratch: Scratch,
    chain: WorkerChain,
    local: L,
    /// Wall-clock of this worker's claim loop over the current level.
    busy: Duration,
}

/// Where the sweep's wall-clock went, summed over the BFS levels: how
/// long the expansion workers ran against how long they could have,
/// and the two single-threaded steps between levels. `worker_busy_us /
/// worker_slots_us` is the share of the expansion the workers spent
/// working rather than waiting — for each other at the level barrier,
/// or for a core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepProfile {
    /// Sum over levels and workers of the claim-loop wall-clock (µs).
    pub worker_busy_us: u64,
    /// Sum over levels of workers × expansion wall-clock (µs).
    pub worker_slots_us: u64,
    /// Sum over levels of the expansion wall-clock (µs); with more
    /// than one worker the previous level's emission runs inside it.
    pub expand_wall_us: u64,
    /// Closing levels: canonical order of the next frontier, table
    /// provisioning or the external merge (µs).
    pub close_us: u64,
    /// Streaming closed levels into the canonical stores (µs).
    pub emit_us: u64,
    /// Attempts abandoned before this sweep because a place outgrew
    /// its packed width; each restarted from scratch with the
    /// overflowed places wider.
    pub layout_restarts: u64,
}

impl SweepProfile {
    /// `worker_busy_us / worker_slots_us` (1 for an empty sweep).
    pub fn busy_ratio(&self) -> f64 {
        if self.worker_slots_us == 0 {
            1.0
        } else {
            self.worker_busy_us as f64 / self.worker_slots_us as f64
        }
    }
}

/// A state-deduplication strategy of the sweep. Entry `i` of the
/// current frontier has id `lo + i`, where `lo` is the number of states
/// on earlier levels; a level's ids are provisional (race-ordered) or
/// already canonical depending on the strategy, but always fill the
/// same contiguous block `lo..hi`.
pub(super) trait Dedup: Sized + Sync {
    /// Name of the root telemetry span.
    const SPAN: &'static str;
    /// Per-worker dedup state, kept across levels.
    type Local: Send;
    /// What successor generation interns keys through for one worker
    /// and one level.
    type Sink<'a>: DedupSink
    where
        Self: 'a;
    /// What a closed level keeps, besides the worker chains, for its
    /// emission.
    type Level;
    /// The canonical packed-state storage emission appends to.
    type States;

    fn local(&self) -> Self::Local;

    fn sink<'a>(&'a self, local: &'a mut Self::Local) -> Self::Sink<'a>;

    /// Size of the current frontier (0 ends the sweep).
    fn frontier_len(&self) -> usize;

    /// Whether frontier entry `i` is absorbing (its row stays empty).
    fn absorbing(&self, i: usize) -> bool;

    /// Reads frontier entry `i`'s packed key.
    fn read_key(&self, i: usize, out: &mut [u64]);

    /// Level-boundary budget check; `Err(Abort::Ddd)` asks for a
    /// restart in external-memory mode. Checked only here — membership
    /// of a level is a model property, so the switch level (and the
    /// restart) is deterministic for every thread count.
    fn check_budget(&self) -> Result<(), Abort> {
        Ok(())
    }

    /// Closes the fully expanded frontier `..hi`: the states discovered
    /// while expanding it *are* the next BFS level, so they get their
    /// canonical ids now — before this level's emission needs them as
    /// targets — and become the new frontier. Returns what the closed
    /// level's emission will read back; `recycled` offers a spent
    /// level's buffers for reuse.
    fn close_level(
        &mut self,
        workers: &mut [Worker<Self::Local>],
        hi: usize,
        recycled: Option<Self::Level>,
    ) -> Result<Self::Level, Abort>;

    /// Emission: stores the state of canonical id `lo + rank` into
    /// `states`, returning its index in the level's frontier (what its
    /// chain run is filed under) and its absorbing flag.
    fn emit_state(
        &self,
        states: &mut Self::States,
        level: &Self::Level,
        lo: usize,
        rank: usize,
    ) -> (usize, bool);

    /// Emission: the map from the target ids in worker chain `chain` of
    /// `level` to canonical ids.
    fn target_map<'a>(&'a self, level: &'a Self::Level, chain: usize) -> &'a [u32];

    /// Hands an emitted level's buffers back for `close_level` to
    /// reuse, or frees them now (`None`).
    fn recycle(_: Self::Level) -> Option<Self::Level> {
        None
    }

    /// Emits the strategy's gauges and seals the packed states.
    fn finish(self, states: Self::States) -> PackedStates;
}

/// A seeded strategy, ready to [`drive`]: level 0 is its frontier.
pub(super) struct Seed<D: Dedup> {
    dedup: D,
    states: D::States,
    /// Initial distribution over canonical ids, ascending.
    initial: Vec<(usize, f64)>,
    /// Spill backend of the CSR entries (and of the packed states).
    spill: Option<Arc<SpillShared>>,
}

/// Maps a seeded initial distribution to canonical ids.
fn canonical_initial(initial: Vec<(usize, f64)>, map: &[u32]) -> Vec<(usize, f64)> {
    let mut init: Vec<(usize, f64)> = initial
        .into_iter()
        .map(|(id, p)| (map[id] as usize, p))
        .collect();
    init.sort_unstable_by_key(|&(i, _)| i);
    init
}

/// Resident dedup: workers intern successors **directly** into the
/// lock-free [`Interner`], so ids are race-ordered and each level is
/// sorted by packed key when it closes.
pub(super) struct Resident {
    interner: Interner,
    words: usize,
    /// Threads a level's sort may use: the sweep's worker count (they
    /// are idle at the level barrier, where it runs).
    workers: usize,
    /// Provisional → canonical id of every state on a closed level or
    /// the current frontier.
    canon: Vec<u32>,
    /// The current frontier: provisional ids `lo..hi`. Ids are
    /// allocated by a global counter, so each level is exactly one
    /// contiguous range and needs no collection step.
    lo: usize,
    hi: usize,
    cur: ResidentLevel,
    /// Auto dedup: the byte allowance of the intern table (half the
    /// spill budget).
    auto_limit: Option<usize>,
}

/// The canonical visit order of one resident level and the packed keys
/// backing it, which emission reuses instead of re-reading the arena.
#[derive(Default)]
pub(super) struct ResidentLevel {
    /// The level's provisional ids sorted by packed key.
    order: Vec<u32>,
    /// Packed keys in provisional order, `(id - lo) * words` each.
    keys: Vec<u64>,
    /// The other buffer of the sort's merge rounds.
    spare: Vec<u32>,
}

/// By default the intern arena stays the state backing and emission
/// records the canonical rank → provisional id permutation; spill mode
/// writes a pageable canonical-order copy instead.
pub(super) enum ResidentStates {
    Perm(Vec<u32>),
    Packed(SegStore<u64>),
}

/// One worker's handle on the shared intern table: the probe lengths
/// it sees go to the worker's own histogram, folded into
/// `intern.probe_len` when the level closes.
pub(super) struct ResidentSink<'a> {
    interner: &'a Interner,
    probes: &'a mut ctsim_obs::Hist,
}

impl DedupSink for ResidentSink<'_> {
    fn intern_key(
        &mut self,
        key: &[u64],
        absorbing: impl FnOnce() -> bool,
    ) -> Result<usize, InternFull> {
        let (id, probes) = self.interner.intern_probed(key, absorbing)?;
        self.probes.record(probes);
        Ok(id)
    }
}

impl Resident {
    fn seed(explorer: &Explorer<'_, '_>, workers: usize) -> Result<Seed<Self>, Abort> {
        let opts = explorer.opts;
        let words = explorer.layout.words();
        // A level of `len` states runs at most `len / PARALLEL_THRESHOLD`
        // workers and no level holds more than `max_states`, so no more
        // writers than this ever race on the table.
        let writers = workers.min(opts.max_states / PARALLEL_THRESHOLD);
        let interner = Interner::new(words, opts.max_states, writers);
        // Level-0 seeding is not counted, as for `explore.transitions`.
        let initial = explorer.seed_initial(&mut ResidentSink {
            interner: &interner,
            probes: &mut ctsim_obs::Hist::default(),
        })?;
        let spill = match &opts.spill {
            Some(s) => Some(Arc::new(SpillShared::new(s)?)),
            None => None,
        };
        let states = match &spill {
            Some(s) => ResidentStates::Packed(packed_store(words, s.clone())),
            None => ResidentStates::Perm(Vec::new()),
        };
        let mut dedup = Resident {
            hi: interner.len(),
            interner,
            words,
            workers,
            canon: Vec::new(),
            lo: 0,
            cur: ResidentLevel::default(),
            auto_limit: opts.spill.as_ref().map(|s| s.budget_bytes / 2),
        };
        dedup.cur = dedup.canonize(None);
        Ok(Seed {
            initial: canonical_initial(initial, &dedup.canon),
            dedup,
            states,
            spill,
        })
    }

    /// Sorts the frontier `lo..hi` by packed key and assigns canonical
    /// ids (`lo + rank` — a BFS level occupies the same contiguous
    /// block in both numberings).
    ///
    /// This runs at the level barrier, so a level of at least two
    /// [`SORT_RUN_MIN`] runs is cut into one run per worker, each copied
    /// out of the arena and sorted on a thread of its own, and the runs
    /// are merged. Keys within a level are distinct, so the order is
    /// that of one `sort_unstable_by` over the whole level.
    fn canonize(&mut self, recycled: Option<ResidentLevel>) -> ResidentLevel {
        let (lo, hi, words) = (self.lo, self.hi, self.words);
        if lo == hi {
            // The empty frontier past the last level: free the recycled
            // buffers rather than carry their capacity through the
            // generator's finish, where the heap peaks.
            return ResidentLevel::default();
        }
        let ResidentLevel {
            mut order,
            mut keys,
            mut spare,
        } = recycled.unwrap_or_default();
        let len = hi - lo;
        keys.clear();
        keys.resize(len * words, 0);
        order.clear();
        order.extend((lo..hi).map(|i| i as u32));
        let run_len = len.div_ceil(self.workers.min(len / SORT_RUN_MIN).max(1));
        let interner = &self.interner;
        // Reads one run's keys (provisional ids from `first` on) and
        // sorts the run's ids by them.
        let sort_run = |first: usize, ids: &mut [u32], keys: &mut [u64]| {
            for (i, key) in keys.chunks_exact_mut(words).enumerate() {
                interner.read_state(first + i, key);
            }
            let key = |id: u32| {
                let at = (id as usize - first) * words;
                &keys[at..at + words]
            };
            ids.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        };
        std::thread::scope(|scope| {
            let mut runs = order
                .chunks_mut(run_len)
                .zip(keys.chunks_mut(run_len * words))
                .enumerate();
            let (_, (ids0, keys0)) = runs.next().expect("the level is not empty");
            for (r, (ids, keys)) in runs {
                scope.spawn(move || sort_run(lo + r * run_len, ids, keys));
            }
            sort_run(lo, ids0, keys0);
        });
        let key = |id: u32| {
            let at = (id as usize - lo) * words;
            &keys[at..at + words]
        };
        merge_runs(&mut order, &mut spare, run_len, |&a, &b| key(a).cmp(key(b)));
        debug_assert_eq!(self.canon.len(), lo, "levels close in order");
        reserve_by_quarters(&mut self.canon, len);
        self.canon.resize(hi, 0);
        for (rank, &prov) in order.iter().enumerate() {
            self.canon[prov as usize] = (lo + rank) as u32;
        }
        ResidentLevel { order, keys, spare }
    }
}

/// Merges the sorted runs of `run_len` elements (the last may be
/// shorter) `order` consists of into one, by rounds of pairwise merges
/// between `order` and `spare`; the merges of one round run side by
/// side. Leaves the result in `order`.
fn merge_runs(
    order: &mut Vec<u32>,
    spare: &mut Vec<u32>,
    run_len: usize,
    cmp: impl Fn(&u32, &u32) -> std::cmp::Ordering + Sync,
) {
    let len = order.len();
    let merge_pair = &|src: &[u32], dst: &mut [u32], mid: usize| {
        let (left, right) = src.split_at(mid.min(src.len()));
        let (mut l, mut r) = (0, 0);
        for out in dst.iter_mut() {
            let take_left =
                r == right.len() || (l < left.len() && cmp(&left[l], &right[r]).is_le());
            if take_left {
                *out = left[l];
                l += 1;
            } else {
                *out = right[r];
                r += 1;
            }
        }
    };
    let mut width = run_len;
    while width < len {
        spare.clear();
        spare.resize(len, 0);
        std::thread::scope(|scope| {
            let mut pairs = order.chunks(2 * width).zip(spare.chunks_mut(2 * width));
            let first = pairs.next();
            for (src, dst) in pairs {
                scope.spawn(move || merge_pair(src, dst, width));
            }
            if let Some((src, dst)) = first {
                merge_pair(src, dst, width);
            }
        });
        std::mem::swap(order, spare);
        width *= 2;
    }
}

impl Dedup for Resident {
    const SPAN: &'static str = "explore";
    type Local = ctsim_obs::Hist;
    type Sink<'a> = ResidentSink<'a>;
    type Level = ResidentLevel;
    type States = ResidentStates;

    fn local(&self) -> Self::Local {
        ctsim_obs::Hist::default()
    }

    fn sink<'a>(&'a self, probes: &'a mut ctsim_obs::Hist) -> ResidentSink<'a> {
        ResidentSink {
            interner: &self.interner,
            probes,
        }
    }

    fn frontier_len(&self) -> usize {
        self.hi - self.lo
    }

    fn absorbing(&self, i: usize) -> bool {
        self.interner.absorbing(self.lo + i)
    }

    fn read_key(&self, i: usize, out: &mut [u64]) {
        self.interner.read_state(self.lo + i, out);
    }

    /// Auto dedup: when the intern table's estimated footprint (arena
    /// bytes + flag byte per state, plus the hash-table slots) claims
    /// more than half the spill budget, restart the whole exploration
    /// in external-memory mode.
    fn check_budget(&self) -> Result<(), Abort> {
        if let Some(limit) = self.auto_limit {
            let slots = self.interner.table_stats().slots;
            if self.interner.len() * (self.words * 8 + 1) + slots * 8 > limit {
                return Err(Abort::Ddd);
            }
        }
        Ok(())
    }

    fn close_level(
        &mut self,
        workers: &mut [Worker<ctsim_obs::Hist>],
        hi: usize,
        recycled: Option<ResidentLevel>,
    ) -> Result<ResidentLevel, Abort> {
        for w in workers {
            ctsim_obs::hist_merge("intern.probe_len", &std::mem::take(&mut w.local));
        }
        (self.lo, self.hi) = (hi, self.interner.len());
        // The table grows here, where nothing else runs: the level just
        // closed found `hi - lo` new states, and BFS levels of a model
        // swell and shrink smoothly, so the next one is provisioned for
        // as many again and half more. An underestimate is absorbed by
        // the table's own slack first and by its mid-level path after
        // that (`intern.midlevel_grows`).
        let added = self.hi - self.lo;
        self.interner.provision(added + added / 2);
        let next = self.canonize(recycled);
        Ok(std::mem::replace(&mut self.cur, next))
    }

    fn emit_state(
        &self,
        states: &mut ResidentStates,
        level: &ResidentLevel,
        lo: usize,
        rank: usize,
    ) -> (usize, bool) {
        let prov = level.order[rank];
        let i = prov as usize - lo;
        match states {
            ResidentStates::Perm(perm) => {
                reserve_by_quarters(perm, 1);
                perm.push(prov);
            }
            ResidentStates::Packed(store) => {
                store.append_row(&level.keys[i * self.words..(i + 1) * self.words]);
            }
        }
        (i, self.interner.absorbing(prov as usize))
    }

    fn target_map<'a>(&'a self, _: &'a ResidentLevel, _: usize) -> &'a [u32] {
        &self.canon
    }

    /// Keeps the buffers at the size the emitted level used, as
    /// `WorkerChain` does its segments.
    fn recycle(mut level: ResidentLevel) -> Option<ResidentLevel> {
        let len = level.order.len();
        level.order.shrink_to_fit();
        level.keys.shrink_to_fit();
        level.spare.truncate(len);
        level.spare.shrink_to_fit();
        Some(level)
    }

    fn finish(self, states: ResidentStates) -> PackedStates {
        if ctsim_obs::enabled() {
            // Snapshot the intern table before it is dropped. A run
            // explores more than once; its largest table is the one
            // kept (the largest holds the most states too).
            let t = self.interner.table_stats();
            ctsim_obs::gauge_max("intern.used_slots", t.used as f64);
            ctsim_obs::gauge_max("intern.table_slots", t.slots as f64);
            ctsim_obs::counter_add("intern.midlevel_grows", t.midlevel_grows);
            ctsim_obs::counter_add("intern.rehashed_entries", t.rehashed_entries);
        }
        match states {
            // Spill mode: the pageable copy is the backing; the intern
            // arena is freed wholesale right here.
            ResidentStates::Packed(store) => seal_packed(store, self.words),
            // Default: keep the arena (hash table dropped) — the
            // states exist exactly once in memory. The permutation
            // lives as long as the space: give back its slack.
            ResidentStates::Perm(mut perm) => {
                perm.shrink_to_fit();
                let mut interner = self.interner;
                interner.drop_tables();
                PackedStates::Interned { interner, perm }
            }
        }
    }
}

/// External-memory dedup: delayed duplicate detection over sorted
/// on-disk runs ([`crate::ddd`]) instead of the resident intern table,
/// so exploration's RAM high-water mark is proportional to the largest
/// BFS level, not the state space. Workers expand the frontier into
/// worker-local candidate sets (chain targets are candidate indices);
/// closing a level merges the candidates against the visited runs,
/// which assigns canonical ids — positional in the sorted runs, so the
/// `(BFS level, packed key)` numbering is reproduced exactly — and
/// yields the next frontier.
pub(super) struct External {
    words: usize,
    max_states: usize,
    visited: VisitedRuns,
    frontier: Frontier,
}

/// A closed external level: the level itself (keys already in
/// canonical order, so there is no visit permutation) and the
/// per-worker candidate → canonical-id maps from the level merge
/// (see [`crate::ddd::LevelResolution`]).
pub(super) struct ExternalLevel {
    frontier: Frontier,
    resolved: Vec<Vec<u32>>,
}

impl External {
    fn seed(explorer: &Explorer<'_, '_>, sopts: &SpillOptions) -> Result<Seed<Self>, Abort> {
        let words = explorer.layout.words();
        let max_states = explorer.opts.max_states;
        let spill = Arc::new(SpillShared::new(sopts)?);
        let mut visited = VisitedRuns::new(words, spill.clone());
        // The initial tangible distribution is level 0 — interned into
        // one candidate set and resolved immediately, so initial ids
        // are canonical from the start.
        let mut seed = CandSet::new(words);
        let initial = explorer.seed_initial(&mut &mut seed)?;
        let r0 = resolve_level(&[&seed], &mut visited, 0, max_states)?;
        Ok(Seed {
            dedup: External {
                words,
                max_states,
                visited,
                frontier: r0.frontier,
            },
            states: packed_store(words, spill.clone()),
            initial: canonical_initial(initial, &r0.resolved[0]),
            spill: Some(spill),
        })
    }
}

impl Dedup for External {
    const SPAN: &'static str = "explore_ddd";
    type Local = CandSet;
    type Sink<'a> = &'a mut CandSet;
    type Level = ExternalLevel;
    type States = SegStore<u64>;

    fn local(&self) -> CandSet {
        CandSet::new(self.words)
    }

    fn sink<'a>(&'a self, local: &'a mut CandSet) -> &'a mut CandSet {
        local
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    fn absorbing(&self, i: usize) -> bool {
        self.frontier.absorbing(i)
    }

    fn read_key(&self, i: usize, out: &mut [u64]) {
        out.copy_from_slice(self.frontier.key(i));
    }

    /// The delayed duplicate detection: match every worker's candidates
    /// against the sorted visited runs, canonical ids for the unmatched
    /// remainder — the next level.
    fn close_level(
        &mut self,
        workers: &mut [Worker<CandSet>],
        hi: usize,
        _: Option<ExternalLevel>,
    ) -> Result<ExternalLevel, Abort> {
        let cands: Vec<&CandSet> = workers.iter().map(|w| &w.local).collect();
        let next = resolve_level(&cands, &mut self.visited, hi, self.max_states)?;
        for w in workers {
            w.local.clear();
        }
        Ok(ExternalLevel {
            frontier: std::mem::replace(&mut self.frontier, next.frontier),
            resolved: next.resolved,
        })
    }

    fn emit_state(
        &self,
        states: &mut SegStore<u64>,
        level: &ExternalLevel,
        _: usize,
        rank: usize,
    ) -> (usize, bool) {
        states.append_row(level.frontier.key(rank));
        (rank, level.frontier.absorbing(rank))
    }

    fn target_map<'a>(&'a self, level: &'a ExternalLevel, chain: usize) -> &'a [u32] {
        &level.resolved[chain]
    }

    fn finish(self, states: SegStore<u64>) -> PackedStates {
        if ctsim_obs::enabled() {
            // Make sure the merge counters exist in the metrics
            // document even when nothing was merged (tiny models).
            ctsim_obs::counter_add("ddd.sorted_runs", 0);
            ctsim_obs::counter_add("ddd.merge_bytes", 0);
        }
        seal_packed(states, self.words)
    }
}

/// Explores `model`, retrying on the two recoverable aborts: place
/// field overflows restart with each overflowed place widened to the
/// rung that holds its value, and an outgrown intern table (Auto dedup)
/// restarts in external-memory mode. Pack retries preserve the mode.
pub(super) fn explore<'m>(
    model: &'m SanModel,
    opts: &ReachOptions,
    absorb: Option<&AbsorbFn<'_>>,
) -> Result<StateSpace<'m>, SolveError> {
    // Every id below is stored as a `u32`: cap the state limit so that a
    // larger space fails on the cap instead of wrapping.
    let opts = &ReachOptions {
        max_states: state_limit(opts.max_states),
        ..opts.clone()
    };
    let expansion = Expansion::build(model, opts.ph_order)?;
    // Places that start above one token start wide, so only a count
    // first met during exploration can restart it.
    let mut layout = StateLayout::new(model.initial_marking().tokens(), &expansion.phase_maxes());
    let mut restarts = 0u64;
    let workers = ctsim_stoch::resolve_threads(opts.threads);
    // External-memory dedup from level 0 when forced.
    let mut external = opts
        .spill
        .as_ref()
        .filter(|s| s.dedup == DedupMode::External);
    loop {
        let explorer = Explorer::new(model, opts, &expansion, absorb, &layout);
        let attempt =
            match external {
                Some(sopts) => External::seed(&explorer, sopts)
                    .and_then(|seed| drive(&explorer, workers, seed)),
                None => Resident::seed(&explorer, workers)
                    .and_then(|seed| drive(&explorer, workers, seed)),
            };
        match attempt {
            Ok(mut ss) => {
                ss.profile.layout_restarts = restarts;
                if ctsim_obs::enabled() {
                    ctsim_obs::counter_add("explore.layout_restarts", 0);
                    ctsim_obs::gauge_max("explore.words_per_state", layout.words() as f64);
                }
                return Ok(ss);
            }
            // Place fields overflowed: restart from scratch with each
            // reported place on the rung that holds its value. Every
            // value is a reachable token count, so the widths converge
            // on the rungs of the reachable maxima whatever the thread
            // count; a place climbs at most five rungs.
            Err(Abort::Pack(overflows)) => {
                layout = layout.widen(&overflows);
                restarts += 1;
                ctsim_obs::counter_add("explore.layout_restarts", 1);
            }
            // Only `Resident::check_budget` raises this, and only under
            // spill options (Auto dedup).
            Err(Abort::Ddd) => external = opts.spill.as_ref(),
            Err(Abort::Solve(e)) => return Err(e),
        }
    }
}

/// What the workers of one level abort the attempt with, if anything.
/// Packed-width overflows beat any other abort, and every worker's are
/// kept, in worker order, so the retry widens every place that
/// overflowed: it re-examines the same reachable set, so a racing
/// cap/vanishing error (if genuine) recurs there. Otherwise the first
/// worker's abort wins.
fn level_abort(outcomes: Vec<Result<(), Abort>>) -> Option<Abort> {
    let mut err: Option<Abort> = None;
    for e in outcomes.into_iter().filter_map(Result::err) {
        match (&mut err, e) {
            (Some(Abort::Pack(all)), Abort::Pack(more)) => all.extend(more),
            (slot, e @ Abort::Pack(_)) => *slot = Some(e),
            (slot, e) if slot.is_none() => *slot = Some(e),
            _ => {}
        }
    }
    err
}

/// The level-synchronous breadth-first sweep. Every level is expanded
/// by up to `workers` threads claiming frontier chunks from a shared
/// cursor; the *previous* level is renumbered and streamed into the
/// canonical stores while the current one is expanded.
fn drive<'m, D: Dedup>(
    explorer: &Explorer<'m, '_>,
    workers: usize,
    seed: Seed<D>,
) -> Result<StateSpace<'m>, Abort> {
    let Seed {
        mut dedup,
        states,
        initial,
        spill,
    } = seed;
    let model = explorer.model;
    let layout = explorer.layout;
    let mut asm = Assembly::<D>::new(model, explorer.expansion, states, spill);
    let mut pending: Option<PendingLevel<D::Level>> = None;
    // A worker's state is built the first time a level runs that many
    // workers, so a thread count beyond what any level uses costs no
    // memory.
    let mut worker_states: Vec<Worker<D::Local>> = Vec::new();
    let mut profile = SweepProfile::default();
    let micros = |since: Instant| since.elapsed().as_micros() as u64;

    let mut lvl_lo = 0usize;
    let mut level_idx = 0usize;
    let _explore_span = ctsim_obs::span("explore", D::SPAN).arg("workers", workers);
    while dedup.frontier_len() > 0 {
        dedup.check_budget()?;
        let len = dedup.frontier_len();
        let lvl_hi = lvl_lo + len;
        let lvl_t0 = ctsim_obs::now_us();
        // Spawning a thread costs more than expanding a handful of
        // states, so cap the worker count by the level size: small
        // levels (and small models) run inline no matter how many
        // threads were requested.
        let effective = workers.min(len / PARALLEL_THRESHOLD);
        while worker_states.len() < effective.max(1) {
            worker_states.push(Worker {
                scratch: explorer.scratch(),
                chain: WorkerChain::default(),
                local: dedup.local(),
                busy: Duration::ZERO,
            });
        }
        let chunk = (len / (effective.max(1) * 16)).clamp(MIN_CLAIM, MAX_CLAIM);
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let worker_loop = |st: &mut Worker<D::Local>| -> Result<(), Abort> {
            let Worker {
                scratch,
                chain,
                local,
                busy,
            } = st;
            let claimed = Instant::now();
            let mut sink = dedup.sink(local);
            let outcome = 'claims: loop {
                if failed.load(Ordering::Relaxed) {
                    break Ok(());
                }
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break Ok(());
                }
                for i in start..(start + chunk).min(len) {
                    if dedup.absorbing(i) {
                        continue; // its row stays empty
                    }
                    dedup.read_key(i, &mut scratch.src_key);
                    if let Err(e) = explorer.successors_from_key(&mut sink, scratch) {
                        failed.store(true, Ordering::Relaxed);
                        break 'claims Err(e);
                    }
                    chain.push_row(lvl_lo + i, &scratch.row);
                }
            };
            *busy = claimed.elapsed();
            outcome
        };
        let mut outcomes: Vec<Result<(), Abort>> = Vec::new();
        let expanding;
        if effective <= 1 {
            // Sequential: emit the previous level first (freeing its
            // chains before this level allocates new ones), then
            // expand inline.
            if let Some(p) = pending.take() {
                asm.emit_level(&dedup, p);
            }
            expanding = Instant::now();
            outcomes.push(worker_loop(&mut worker_states[0]));
        } else {
            let p = pending.take();
            expanding = Instant::now();
            std::thread::scope(|scope| {
                let handles: Vec<_> = worker_states
                    .iter_mut()
                    .take(effective)
                    .map(|st| scope.spawn(|| worker_loop(st)))
                    .collect();
                // Overlap: stream the previous level into the
                // canonical stores while the workers expand this one.
                if let Some(level) = p {
                    asm.emit_level(&dedup, level);
                }
                for h in handles {
                    outcomes.push(h.join().unwrap_or_else(|payload| {
                        // Preserve a typed spill-read payload for the
                        // catch_spill boundary.
                        std::panic::resume_unwind(payload)
                    }));
                }
            });
        }
        if let Some(e) = level_abort(outcomes) {
            return Err(e);
        }
        let wall = micros(expanding);
        profile.expand_wall_us += wall;
        profile.worker_slots_us += wall * effective.max(1) as u64;
        for st in worker_states.iter_mut() {
            profile.worker_busy_us += std::mem::take(&mut st.busy).as_micros() as u64;
        }
        let closing = Instant::now();
        let data = dedup.close_level(&mut worker_states, lvl_hi, asm.level_pool.pop())?;
        profile.close_us += micros(closing);
        let chains: Vec<WorkerChain> = worker_states
            .iter_mut()
            .map(|st| std::mem::take(&mut st.chain))
            .collect();
        if ctsim_obs::enabled() {
            // One intern call per generated transition target, so
            // dedup hits = transitions minus freshly discovered
            // states.
            let transitions: usize = chains.iter().map(WorkerChain::num_transitions).sum();
            let new_states = dedup.frontier_len();
            let dedup_hits = transitions.saturating_sub(new_states);
            ctsim_obs::record_span(
                "explore",
                "bfs_level",
                lvl_t0,
                vec![
                    ("level", level_idx.into()),
                    ("states", len.into()),
                    ("new_states", new_states.into()),
                    ("transitions", transitions.into()),
                    ("dedup_hits", dedup_hits.into()),
                    ("workers", effective.max(1).into()),
                ],
            );
            ctsim_obs::counter_add("explore.levels", 1);
            ctsim_obs::counter_add("explore.transitions", transitions as u64);
            ctsim_obs::counter_add("explore.dedup_hits", dedup_hits as u64);
            // The workers' own counts of successor-generation work,
            // plain fields on the hot path, folded in once per level.
            let (mut evals, mut vanishing, mut patches) = (0, 0, 0);
            for st in worker_states.iter_mut() {
                let c = std::mem::take(&mut st.scratch.counts);
                evals += c.enabling_evals;
                vanishing += c.vanishing_markings;
                patches += c.key_patches;
            }
            ctsim_obs::counter_add("explore.enabling_evals", evals);
            ctsim_obs::counter_add("explore.vanishing_markings", vanishing);
            ctsim_obs::counter_add("explore.key_patches", patches);
        }
        level_idx += 1;
        // Hand emptied chains from an emitted level back to the
        // workers for the next one.
        for st in worker_states.iter_mut() {
            match asm.chain_pool.pop() {
                Some(rc) => st.chain = rc,
                None => break,
            }
        }
        pending = Some(PendingLevel {
            lo: lvl_lo,
            hi: lvl_hi,
            chains,
            data,
        });
        lvl_lo = lvl_hi;
    }
    if let Some(p) = pending.take() {
        asm.emit_level(&dedup, p);
    }
    profile.emit_us = asm.emit_time.as_micros() as u64;

    let terms = asm.terms.finish();
    if ctsim_obs::enabled() {
        ctsim_obs::gauge_set("explore.states_total", lvl_lo as f64);
        ctsim_obs::gauge_max("explore.terms", terms.len() as f64);
        ctsim_obs::gauge_set("explore.worker_busy_ratio", profile.busy_ratio());
        ctsim_obs::counter_add("explore.worker_busy_us", profile.worker_busy_us);
        ctsim_obs::counter_add("explore.worker_slots_us", profile.worker_slots_us);
        ctsim_obs::counter_add("explore.expand_wall_us", profile.expand_wall_us);
        ctsim_obs::counter_add("explore.close_us", profile.close_us);
        ctsim_obs::counter_add("explore.emit_us", profile.emit_us);
        // Make sure the spill pager counters exist in the metrics
        // document even for an all-resident run.
        ctsim_obs::counter_add("spill.pager_hits", 0);
        ctsim_obs::counter_add("spill.pager_misses", 0);
        ctsim_obs::counter_add("spill.paged_out_bytes", 0);
    }
    // The frontier is empty, so no key is looked up again: let the
    // strategy release what only lookups needed before the generator's
    // arrays are allocated.
    let packed = dedup.finish(asm.states);
    // The per-state arrays grew by quarters and are complete now: give
    // back the slack, which the space would otherwise hold for life.
    asm.absorbing.shrink_to_fit();
    Ok(StateSpace {
        model,
        base: model.num_places(),
        phase_slots: explorer.expansion.num_slots(),
        layout: layout.clone(),
        packed,
        profile,
        csr: Arc::new(asm.csr.finish()),
        terms,
        total_trans: asm.total_trans,
        initial,
        absorbing: asm.absorbing,
        ph_order: explorer.opts.ph_order,
        shape: explorer.expansion.shape(model),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_san::{Activity, Case, SanBuilder};
    use ctsim_stoch::Dist;

    /// Every dedup configuration the one driver runs under: the
    /// resident intern table, forced external-memory dedup, and an
    /// `Auto` budget so small that the resident attempt is abandoned at
    /// its first level boundary (`Abort::Ddd`) and restarts externally.
    fn dedup_modes() -> [(&'static str, Option<SpillOptions>); 3] {
        [
            ("resident", None),
            (
                "external",
                Some(SpillOptions::with_budget(1 << 20).dedup(DedupMode::External)),
            ),
            ("auto", Some(SpillOptions::with_budget(0))),
        ]
    }

    fn reach(spill: &Option<SpillOptions>) -> ReachOptions {
        ReachOptions {
            spill: spill.clone(),
            ..ReachOptions::default()
        }
    }

    /// The level sort — one run per worker, merged — gives the `order`
    /// and `canon` of one plain sort over the level's keys: on a level
    /// under the inline threshold, on one cut into two runs, and on one
    /// cut into four ragged runs merged in two rounds.
    #[test]
    fn level_sort_equals_a_plain_sort() {
        const WORDS: usize = 3;
        let key = |i: usize| {
            let x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Few distinct leading words, so later words decide.
            [x >> 62, (x >> 40) & 0xFF, x]
        };
        for (workers, sizes) in [
            (2, [700, 2 * SORT_RUN_MIN + 1]),
            (4, [5, 4 * SORT_RUN_MIN + 3]),
        ] {
            let interner = Interner::new(WORDS, 1 << 20, workers);
            let mut dedup = Resident {
                interner,
                words: WORDS,
                workers,
                canon: Vec::new(),
                lo: 0,
                hi: 0,
                cur: ResidentLevel::default(),
                auto_limit: None,
            };
            for size in sizes {
                let (lo, hi) = (dedup.hi, dedup.hi + size);
                for i in lo..hi {
                    assert_eq!(dedup.interner.intern(&key(i), || false), Ok(i));
                }
                (dedup.lo, dedup.hi) = (lo, hi);
                let level = dedup.canonize(None);
                let mut plain: Vec<u32> = (lo as u32..hi as u32).collect();
                plain.sort_unstable_by_key(|&id| key(id as usize));
                assert_eq!(level.order, plain, "{workers} workers, level of {size}");
                for (rank, &prov) in plain.iter().enumerate() {
                    assert_eq!(dedup.canon[prov as usize] as usize, lo + rank);
                }
                let keys: Vec<u64> = (lo..hi).flat_map(key).collect();
                assert_eq!(level.keys, keys);
            }
        }
    }

    /// Several workers overflowing in one level abort it with every
    /// overflow, in worker order, over any other abort before or after
    /// them — so one restart widens every place the level overflowed.
    /// (An exploration cannot force this: the first worker to fail stops
    /// the others' claims, so whether a second one overflows too is a
    /// race.) Without overflows the first worker's abort wins.
    #[test]
    fn a_level_aborts_with_every_workers_overflows() {
        let over = |place, value| PackOverflow { place, value };
        let cap = || Abort::Solve(SolveError::StateSpaceTooLarge { limit: 64 });
        let outcomes = vec![
            Err(cap()),
            Err(Abort::Pack(vec![over(3, 2)])),
            Ok(()),
            Err(Abort::Pack(vec![over(7, 4), over(1, 300)])),
            Err(Abort::Ddd),
            Err(Abort::Pack(vec![over(3, 5)])),
        ];
        match level_abort(outcomes) {
            Some(Abort::Pack(all)) => {
                assert_eq!(all, [over(3, 2), over(7, 4), over(1, 300), over(3, 5)]);
            }
            _ => panic!("the overflows must win"),
        }
        match level_abort(vec![Ok(()), Err(cap()), Err(Abort::Ddd)]) {
            Some(Abort::Solve(SolveError::StateSpaceTooLarge { limit: 64 })) => {}
            _ => panic!("the first worker's abort must win"),
        }
        assert!(level_abort(vec![Ok(()), Ok(())]).is_none());
    }

    /// The simulator's instantaneous livelock is a solver error.
    #[test]
    fn vanishing_loop_is_detected() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::instantaneous("pq")
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.add_activity(
            Activity::instantaneous("qp")
                .input(q, 1)
                .case(Case::with_prob(1.0).output(p, 1)),
        );
        let m = b.build().unwrap();
        for (mode, spill) in dedup_modes() {
            let err = StateSpace::explore(&m, &reach(&spill)).unwrap_err();
            assert!(
                matches!(err, SolveError::VanishingLoop { .. }),
                "{mode}: {err}"
            );
        }
    }

    /// The state cap aborts exploration of unbounded nets — after q
    /// overflowed its 1-, 2- and 4-bit rungs at q = 2, 4 and 16
    /// (`Abort::Pack`, under external dedup too) and the 8-bit retry
    /// ran into the cap.
    #[test]
    fn state_cap_is_enforced() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        // p self-loops while pumping tokens into q without bound.
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(p, 1).output(q, 1)),
        );
        let m = b.build().unwrap();
        for (mode, spill) in dedup_modes() {
            let opts = ReachOptions {
                max_states: 64,
                ..reach(&spill)
            };
            let err = StateSpace::explore(&m, &opts).unwrap_err();
            assert!(
                matches!(err, SolveError::StateSpaceTooLarge { limit: 64 }),
                "{mode}: {err}"
            );
        }
    }

    /// A token count past several rungs at once forces the packed
    /// layout onto a wider place field without changing the result.
    #[test]
    fn wide_token_counts_widen_the_layout() {
        // One activity pumps 300 tokens into q at once: q's count
        // overflows its 1-bit field, and the one restart puts q on the
        // 16-bit rung that holds 300 — in whichever dedup mode the
        // overflow struck (`auto`: `Abort::Ddd` at level 0, then
        // `Abort::Pack` in external mode).
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 300)),
        );
        let m = b.build().unwrap();
        let resident = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        for (mode, spill) in dedup_modes() {
            let ss = StateSpace::explore(&m, &reach(&spill)).unwrap();
            assert_eq!(ss.len(), 2, "{mode}");
            assert_eq!(ss.tokens(1), vec![0, 300], "{mode}");
            assert_eq!(ss.sweep_profile().layout_restarts, 1, "{mode}");
            assert_eq!(ss.packed_words(), resident.packed_words(), "{mode}");
        }
    }

    /// Five token lanes of five steps. Every step also drops a token on
    /// `count`, which so holds the BFS level and climbs to 25; the last
    /// steps of lanes 0 and 1 drop one on `pair`, which reaches 2.
    /// `count` overflows its 1-, 2- and 4-bit rungs at levels 2, 4 and
    /// 16 — the last from a level where every source overflows, wide
    /// enough for several workers, each of which may report it. The
    /// layout is learned over several restarts: how many, and which
    /// overflows each merges, may depend on the threads; what they
    /// learn may not.
    #[test]
    fn learned_widths_do_not_depend_on_threads_or_dedup() {
        let mut b = SanBuilder::new("m");
        let count = b.place("count", 0);
        let pair = b.place("pair", 0);
        for lane in 0..5 {
            let mut prev = b.place(format!("l{lane}_0"), 1);
            for st in 1..6 {
                let next = b.place(format!("l{lane}_{st}"), 0);
                let mut case = Case::with_prob(1.0).output(next, 1).output(count, 1);
                if st == 5 && lane < 2 {
                    case = case.output(pair, 1);
                }
                b.add_activity(
                    Activity::timed(format!("t{lane}_{st}"), Dist::Exp { mean: 1.0 })
                        .input(prev, 1)
                        .case(case),
                );
                prev = next;
            }
        }
        let m = b.build().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut runs = Vec::new();
        for threads in [1, 2, 8] {
            for (mode, spill) in &dedup_modes()[..2] {
                let opts = ReachOptions {
                    threads,
                    ..reach(spill)
                };
                let (ss, q) = StateSpace::explore_ctmc(&m, &opts).unwrap();
                let what = format!("{threads} threads, {mode}");
                assert_eq!(ss.len(), 6usize.pow(5), "{what}");
                let restarts = ss.sweep_profile().layout_restarts;
                assert!(restarts > 1, "{what}: {restarts} restarts");
                let top = (0..ss.len()).map(|s| ss.tokens(s)).max().unwrap();
                assert_eq!(top[..2], [25, 2], "{what}");
                let (row_ptr, col, rate, diag) = q.csr_owned();
                runs.push((
                    what,
                    ss.words_per_state(),
                    ss.packed_words(),
                    (row_ptr, col, bits(&rate), bits(&diag)),
                ));
            }
        }
        let (_, words, packed, csr) = &runs[0];
        for (what, w, p, c) in &runs[1..] {
            assert_eq!(w, words, "{what}: words per state");
            assert_eq!(p, packed, "{what}: packed states");
            assert_eq!(c, csr, "{what}: CSR");
        }
    }

    /// The paper's model at n = 2, order 2, with the first-passage
    /// goal: its 117 places fill two prefix words, no place holds two
    /// tokens (so nothing is learned and nothing restarts), and the
    /// phase counters take the rest: 4 words.
    #[test]
    fn consensus_n2_order2_key_width() {
        let params = ctsim_models::SanParams::paper_baseline(2);
        let model = ctsim_models::build_model(&params);
        let decided = ctsim_models::decided_place_ids(&model, 2);
        let opts = ReachOptions {
            ph_order: 2,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore_absorbing(&model, &opts, move |m| {
            decided.iter().any(|&d| m.get(d) > 0)
        })
        .unwrap();
        assert_eq!(ss.num_places(), 117);
        assert_eq!(ss.sweep_profile().layout_restarts, 0);
        assert_eq!(ss.words_per_state(), 4);
    }

    /// Absorbing predicate suppresses outgoing transitions.
    #[test]
    fn absorbing_predicate_stops_expansion() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let explore = |spill: &Option<SpillOptions>| {
            StateSpace::explore_absorbing(&m, &reach(spill), move |mk| mk.get(q) >= 1).unwrap()
        };
        let resident = explore(&None);
        for (mode, spill) in dedup_modes() {
            let ss = explore(&spill);
            // Without absorption there would be 3 states; q>=1 stops at 2.
            assert_eq!(ss.len(), 2, "{mode}");
            // p's two initial tokens put it on the 2-bit rung from the
            // start, so nothing overflows.
            assert_eq!(ss.sweep_profile().layout_restarts, 0, "{mode}");
            let a = ss.outgoing(0)[0].target;
            assert!(ss.absorbing[a], "{mode}");
            assert!(ss.outgoing(a).is_empty(), "{mode}");
            assert_eq!(ss.packed_words(), resident.packed_words(), "{mode}");
        }
    }

    /// Exploration is identical for any thread count, including the
    /// exact state ordering and every transition field.
    #[test]
    fn parallel_exploration_is_deterministic() {
        // A branching model big enough to cross the parallel threshold:
        // several tokens walking independent deterministic pipelines.
        let mut b = SanBuilder::new("m");
        for lane in 0..4 {
            let mut prev = b.place(format!("l{lane}_0"), 1);
            for st in 1..5 {
                let next = b.place(format!("l{lane}_{st}"), 0);
                b.add_activity(
                    Activity::timed(
                        format!("t{lane}_{st}"),
                        if st % 2 == 0 {
                            Dist::Exp { mean: 1.0 }
                        } else {
                            Dist::Det(0.5)
                        },
                    )
                    .input(prev, 1)
                    .case(Case::with_prob(1.0).output(next, 1)),
                );
                prev = next;
            }
        }
        let m = b.build().unwrap();
        let explore = |threads: usize| {
            let opts = ReachOptions {
                ph_order: 3,
                threads,
                ..ReachOptions::default()
            };
            StateSpace::explore(&m, &opts).unwrap()
        };
        let seq = explore(1);
        assert!(seq.len() > PARALLEL_THRESHOLD, "model too small to test");
        for threads in [2, 8] {
            let par = explore(threads);
            assert_eq!(
                seq.packed_words(),
                par.packed_words(),
                "{threads} threads: states"
            );
            assert_eq!(seq.initial, par.initial);
            assert_eq!(seq.absorbing, par.absorbing);
            assert_eq!(seq.len(), par.len());
            for s in 0..seq.len() {
                let (a, b) = (seq.outgoing(s), par.outgoing(s));
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.activity, y.activity);
                    assert_eq!(x.target, y.target);
                    assert_eq!(x.completes, y.completes);
                    assert_eq!(x.prob.to_bits(), y.prob.to_bits());
                    assert_eq!(x.rate.to_bits(), y.rate.to_bits());
                }
            }
        }
    }
}
