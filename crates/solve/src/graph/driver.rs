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

use ctsim_san::SanModel;

use super::assembly::{packed_store, seal_packed, Assembly, PendingLevel, WorkerChain};
use super::expand::{AbsorbFn, Expansion, Explorer, Scratch};
use super::{PackedStates, ReachOptions, StateSpace};
use crate::arena::SegStore;
use crate::backend::GeneratorBackend;
use crate::ddd::{resolve_level, CandSet, DedupSink, Frontier, VisitedRuns};
use crate::intern::Interner;
use crate::linop::Generator;
use crate::pack::StateLayout;
use crate::spill::{DedupMode, SpillOptions, SpillShared};
use crate::SolveError;

/// Why an exploration attempt stopped: a packed field overflowed (retry
/// with wider place fields), the resident intern table outgrew its
/// share of the spill budget (restart in external-memory dedup mode),
/// or a real solver error.
pub(super) enum Abort {
    Pack,
    Ddd,
    Solve(SolveError),
}

impl From<SolveError> for Abort {
    fn from(e: SolveError) -> Self {
        Abort::Solve(e)
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

/// One worker's persistent state: scratch buffers, the chain of
/// transition segments it appends rows to during the current level, and
/// the strategy's per-worker dedup state. Lives as long as its worker
/// slot — across every BFS level.
pub(super) struct Worker<L> {
    scratch: Scratch,
    chain: WorkerChain,
    local: L,
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
    /// Spill backend of the transition arena and the generator.
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
/// sharded lock-free [`Interner`], so ids are race-ordered and each
/// level is sorted by packed key when it closes.
pub(super) struct Resident {
    interner: Interner,
    words: usize,
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
}

/// By default the intern arena stays the state backing and emission
/// records the canonical rank → provisional id permutation; spill mode
/// writes a pageable canonical-order copy instead.
pub(super) enum ResidentStates {
    Perm(Vec<u32>),
    Packed(SegStore<u64>),
}

impl Resident {
    fn seed(explorer: &Explorer<'_, '_>, workers: usize) -> Result<Seed<Self>, Abort> {
        let opts = explorer.opts;
        let words = explorer.layout.words();
        let interner = Interner::new(words, opts.max_states, workers);
        let initial = explorer.seed_initial(&mut &interner)?;
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
            canon: Vec::new(),
            lo: 0,
            cur: ResidentLevel::default(),
            auto_limit: opts
                .spill
                .as_ref()
                .filter(|s| s.dedup == DedupMode::Auto)
                .map(|s| s.budget_bytes / 2),
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
        } = recycled.unwrap_or_default();
        keys.clear();
        keys.resize((hi - lo) * words, 0);
        for id in lo..hi {
            let at = (id - lo) * words;
            self.interner.read_state(id, &mut keys[at..at + words]);
        }
        let key = |id: u32| {
            let at = (id as usize - lo) * words;
            &keys[at..at + words]
        };
        order.clear();
        order.extend((lo..hi).map(|i| i as u32));
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        self.canon.resize(hi, 0);
        for (rank, &prov) in order.iter().enumerate() {
            self.canon[prov as usize] = (lo + rank) as u32;
        }
        ResidentLevel { order, keys }
    }
}

impl Dedup for Resident {
    const SPAN: &'static str = "explore";
    type Local = ();
    type Sink<'a> = &'a Interner;
    type Level = ResidentLevel;
    type States = ResidentStates;

    fn local(&self) -> Self::Local {}

    fn sink<'a>(&'a self, _: &'a mut ()) -> &'a Interner {
        &self.interner
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
            let (_, slots) = self.interner.table_stats();
            if self.interner.len() * (self.words * 8 + 1) + slots * 8 > limit {
                return Err(Abort::Ddd);
            }
        }
        Ok(())
    }

    fn close_level(
        &mut self,
        _: &mut [Worker<()>],
        hi: usize,
        recycled: Option<ResidentLevel>,
    ) -> Result<ResidentLevel, Abort> {
        (self.lo, self.hi) = (hi, self.interner.len());
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
            ResidentStates::Perm(perm) => perm.push(prov),
            ResidentStates::Packed(store) => {
                store.append_row(&level.keys[i * self.words..(i + 1) * self.words]);
            }
        }
        (i, self.interner.absorbing(prov as usize))
    }

    fn target_map<'a>(&'a self, _: &'a ResidentLevel, _: usize) -> &'a [u32] {
        &self.canon
    }

    fn recycle(level: ResidentLevel) -> Option<ResidentLevel> {
        Some(level)
    }

    fn finish(self, states: ResidentStates) -> PackedStates {
        if ctsim_obs::enabled() {
            // Snapshot the intern table before its hash shards are
            // dropped.
            let (used, slots) = self.interner.table_stats();
            let occ = if slots > 0 {
                used as f64 / slots as f64
            } else {
                0.0
            };
            ctsim_obs::gauge_set("intern.occupancy", occ);
            ctsim_obs::gauge_set("intern.used_slots", used as f64);
            ctsim_obs::gauge_set("intern.table_slots", slots as f64);
        }
        match states {
            // Spill mode: the pageable copy is the backing; the intern
            // arena is freed wholesale right here.
            ResidentStates::Packed(store) => seal_packed(store, self.words),
            // Default: keep the arena (hash tables dropped) — the
            // states exist exactly once in memory.
            ResidentStates::Perm(perm) => {
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

/// Explores `model`, retrying on the two recoverable aborts: a packed
/// field overflow restarts one layout rung wider, and an outgrown
/// intern table (Auto dedup) restarts in external-memory mode. Pack
/// retries preserve the mode.
pub(super) fn explore<'m>(
    model: &'m SanModel,
    opts: &ReachOptions,
    absorb: Option<&AbsorbFn<'_>>,
    want: Option<GeneratorBackend>,
) -> Result<(StateSpace<'m>, Option<Generator>), SolveError> {
    let expansion = Expansion::build(model, opts.ph_order)?;
    let mut layout = StateLayout::new(model.num_places(), &expansion.phase_maxes());
    let workers = crate::spmv::resolve_threads(opts.threads);
    // External-memory dedup from level 0 when forced.
    let mut external = opts
        .spill
        .as_ref()
        .filter(|s| s.dedup == DedupMode::External);
    loop {
        let explorer = Explorer::new(model, opts, &expansion, absorb, &layout);
        let attempt = match external {
            Some(sopts) => External::seed(&explorer, sopts)
                .and_then(|seed| drive(&explorer, workers, seed, want)),
            None => Resident::seed(&explorer, workers)
                .and_then(|seed| drive(&explorer, workers, seed, want)),
        };
        match attempt {
            Ok(pair) => return Ok(pair),
            // A place field overflowed its bit width: restart from
            // scratch one ladder rung wider. The reachable set is
            // thread-independent, so whether a width suffices is too —
            // the retry chain is deterministic and bounded by the
            // ladder length.
            Err(Abort::Pack) => {
                // Invariant: the top rung is 32 bits, as wide as a token count.
                layout = layout.widen().expect("32-bit place fields cannot overflow");
            }
            // Only `Resident::check_budget` raises this, and only under
            // spill options (Auto dedup).
            Err(Abort::Ddd) => external = opts.spill.as_ref(),
            Err(Abort::Solve(e)) => return Err(e),
        }
    }
}

/// The level-synchronous breadth-first sweep. Every level is expanded
/// by up to `workers` threads claiming frontier chunks from a shared
/// cursor; the *previous* level is renumbered and streamed into the
/// canonical stores (and the generator) while the current one is
/// expanded.
fn drive<'m, D: Dedup>(
    explorer: &Explorer<'m, '_>,
    workers: usize,
    seed: Seed<D>,
    want: Option<GeneratorBackend>,
) -> Result<(StateSpace<'m>, Option<Generator>), Abort> {
    let Seed {
        mut dedup,
        states,
        initial,
        spill,
    } = seed;
    let model = explorer.model;
    let layout = explorer.layout;
    let mut asm = Assembly::<D>::new(model, states, want, spill);
    let mut pending: Option<PendingLevel<D::Level>> = None;
    let mut worker_states: Vec<Worker<D::Local>> = (0..workers)
        .map(|_| Worker {
            scratch: explorer.scratch(),
            chain: WorkerChain::default(),
            local: dedup.local(),
        })
        .collect();

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
        let chunk = (len / (effective.max(1) * 16)).clamp(MIN_CLAIM, MAX_CLAIM);
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let worker_loop = |st: &mut Worker<D::Local>| -> Result<(), Abort> {
            let Worker {
                scratch,
                chain,
                local,
            } = st;
            let mut sink = dedup.sink(local);
            loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                for i in start..(start + chunk).min(len) {
                    if dedup.absorbing(i) {
                        continue; // its row stays empty
                    }
                    dedup.read_key(i, &mut scratch.src_key);
                    if let Err(e) = explorer.successors_from_key(&mut sink, scratch) {
                        failed.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                    chain.push_row(lvl_lo + i, &scratch.row);
                }
            }
            Ok(())
        };
        let mut outcomes: Vec<Result<(), Abort>> = Vec::new();
        if effective <= 1 {
            // Sequential: emit the previous level first (freeing its
            // chains before this level allocates new ones), then
            // expand inline.
            if let Some(p) = pending.take() {
                asm.emit_level(&dedup, p)?;
            }
            outcomes.push(worker_loop(&mut worker_states[0]));
        } else {
            let p = pending.take();
            let emitted = std::thread::scope(|scope| {
                let handles: Vec<_> = worker_states
                    .iter_mut()
                    .take(effective)
                    .map(|st| scope.spawn(|| worker_loop(st)))
                    .collect();
                // Overlap: stream the previous level into the
                // canonical stores (and the generator) while the
                // workers expand this one.
                let r = match p {
                    Some(level) => asm.emit_level(&dedup, level),
                    None => Ok(()),
                };
                if r.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                for h in handles {
                    outcomes.push(h.join().unwrap_or_else(|payload| {
                        // Preserve a typed spill-read payload for the
                        // catch_spill boundary.
                        std::panic::resume_unwind(payload)
                    }));
                }
                r
            });
            outcomes.push(emitted);
        }
        // A packed-width overflow beats any other abort: the retry
        // re-examines the same reachable set, so a racing
        // cap/vanishing error (if genuine) recurs there.
        let mut err: Option<Abort> = None;
        for r in outcomes {
            match r {
                Ok(()) => {}
                Err(Abort::Pack) => err = Some(Abort::Pack),
                Err(e) => {
                    if err.is_none() {
                        err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        let data = dedup.close_level(&mut worker_states, lvl_hi, asm.level_pool.pop())?;
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
        asm.emit_level(&dedup, p)?;
    }

    asm.trans.finish();
    if ctsim_obs::enabled() {
        ctsim_obs::gauge_set("explore.states_total", lvl_lo as f64);
        // Make sure the spill pager counters exist in the metrics
        // document even for an all-resident run.
        ctsim_obs::counter_add("spill.pager_hits", 0);
        ctsim_obs::counter_add("spill.pager_misses", 0);
        ctsim_obs::counter_add("spill.paged_out_bytes", 0);
    }
    let gen = asm.gen.take().map(|acc| acc.finish(&initial));
    let ss = StateSpace {
        model,
        base: model.num_places(),
        phase_slots: explorer.expansion.num_slots(),
        layout: layout.clone(),
        packed: dedup.finish(asm.states),
        trans: asm.trans,
        row_locs: asm.row_locs,
        total_trans: asm.total_trans,
        initial,
        absorbing: asm.absorbing,
        ph_order: explorer.opts.ph_order,
        shape: explorer.expansion.shape(model),
    };
    Ok((ss, gen))
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

    /// The state cap aborts exploration of unbounded nets — after the
    /// 4-bit rung overflowed at q = 16 (`Abort::Pack`, under external
    /// dedup too) and the 8-bit retry ran into the cap.
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

    /// Token counts past every narrow ladder rung force the packed
    /// layout onto wider place fields without changing the result.
    #[test]
    fn wide_token_counts_widen_the_layout() {
        // One activity pumps 300 tokens into q at once: q's count
        // overflows a 4-bit and an 8-bit field, so exploration must
        // retry and land on the 16-bit rung — in whichever dedup mode
        // the overflow struck (`auto`: `Abort::Ddd` at level 0, then
        // `Abort::Pack` twice in external mode).
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
            assert_eq!(ss.packed_words(), resident.packed_words(), "{mode}");
        }
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
