//! Successor generation: the phase-type expansion plan of a model and
//! the code that turns one tangible state into its outgoing
//! transitions. Generic over the [`DedupSink`] a successor key is
//! interned through, so every dedup strategy of [`super::driver`]
//! monomorphizes this one code path.
//!
//! # A successor is a difference from its source
//!
//! A firing moves a handful of places, so nothing here scans every
//! activity or re-encodes every field per successor. Three things are
//! carried from the source state to each successor, and only what the
//! firings in between can have changed is re-evaluated — found through
//! [`SanModel::dependents`] (the index the simulator uses) and the
//! change log a [`Marking`] accumulates as it is cloned and fired:
//!
//! * **Enabled instantaneous activities.** The source is tangible, so
//!   none is enabled there. Each worklist entry of
//!   `resolve_vanishing` carries the set enabled in its marking; a
//!   firing re-evaluates only the instantaneous dependents of the
//!   places it wrote.
//! * **Phase counters.** Copied wholesale (they ride in the key);
//!   `successor_keys` re-evaluates the completed activity and the
//!   expanded dependents of the places written along the whole firing
//!   chain. Any other expanded activity reads no place that moved, so
//!   its counter — non-zero exactly when enabled — is already right.
//! * **The packed key.** The source's words with the moved place
//!   fields and changed counters rewritten by the overflow-checked
//!   [`StateLayout::patch`]; an overflow is [`Abort::Pack`] naming the
//!   place and its count, the same widen-and-restart a full encode
//!   would ask for.
//!
//! # Why the order is unchanged
//!
//! Which instantaneous activities tie at the highest priority, the
//! order their weights are summed and their outcomes pushed in, and
//! the order branch-entry splits multiply out in all reach the result
//! (duplicate outcomes are folded by floating-point addition in row
//! order). Enabled sets and the counter re-evaluation set are bitsets
//! over declaration-order ordinals, walked ascending, and the worklist
//! is a stack as before — so every order is that of a scan over all
//! activities. Level 0 (`seed_initial`) is the same delta, from the
//! initial marking with zero counters and everything re-evaluated.
//!
//! # What keeps it honest
//!
//! Carrying a verdict over is sound only if every gate predicate
//! declares the places it reads. Debug builds therefore re-evaluate
//! every activity on every resolved marking (`assert_fresh`) and panic
//! naming the stale one. The full-rescan generation this replaced is
//! kept test-only in `oracle.rs`, and a differential test holds the
//! two to bit-identical state spaces.

use ctsim_san::{ActivityId, Marking, SanModel, Timing};
use ctsim_stoch::{Dist, PhaseType};

use super::driver::Abort;
use super::terms::{Outcome, UNEXPANDED};
use super::ReachOptions;
use crate::ddd::DedupSink;
use crate::pack::StateLayout;
use crate::SolveError;

/// How an expanded activity's phase counter steps through its branches:
/// phases are numbered `1..=num_phases`, branches laid out
/// consecutively.
pub(super) struct PhasePlan {
    /// Stage rate per phase (index `phase - 1`), 1/ms.
    pub(super) rates: Vec<f64>,
    /// Whether the phase is the last stage of its branch.
    last: Vec<bool>,
    /// Entry distribution: `(first phase of branch, probability)`.
    starts: Vec<(u32, f64)>,
}

impl PhasePlan {
    fn new(ph: &PhaseType) -> Self {
        let mut rates = Vec::new();
        let mut last = Vec::new();
        let mut starts = Vec::new();
        let mut off = 0u32;
        for b in ph.branches() {
            if b.prob > 0.0 {
                starts.push((off + 1, b.prob));
            }
            for s in 0..b.stages {
                rates.push(b.rate);
                last.push(s + 1 == b.stages);
            }
            off += b.stages;
        }
        Self {
            rates,
            last,
            starts,
        }
    }
}

/// The per-model phase-type expansion: which timed activities are
/// expanded and which phase-counter slot each one owns.
pub(super) struct Expansion {
    /// Per activity index: the phase plan, if expanded.
    pub(super) plans: Vec<Option<PhasePlan>>,
    /// Per activity index: absolute slot in the state vector
    /// (`usize::MAX` when not expanded).
    pub(super) slots: Vec<usize>,
    /// `(activity index, slot)` of every expanded activity, slot order.
    expanded: Vec<(ActivityId, usize)>,
}

impl Expansion {
    pub(super) fn build(model: &SanModel, ph_order: u32) -> Result<Self, SolveError> {
        let n = model.num_activities();
        let base = model.num_places();
        let mut plans: Vec<Option<PhasePlan>> = (0..n).map(|_| None).collect();
        let mut slots = vec![usize::MAX; n];
        let mut expanded = Vec::new();
        if ph_order >= 1 {
            // Models reuse a handful of distributions across many
            // activities (every CPU stage shares one Det, every lane
            // one bimodal), so memoise the moment-matching fit.
            let mut fits: Vec<(&Dist, PhaseType)> = Vec::new();
            for a in model.activity_ids() {
                let Timing::Timed(dist) = model.timing(a) else {
                    continue;
                };
                if matches!(dist, Dist::Exp { .. }) {
                    continue;
                }
                let mean = dist.mean();
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(SolveError::PhaseUnfittable {
                        activity: model.activity_name(a).to_string(),
                    });
                }
                let fit = match fits.iter().find(|(d, _)| *d == dist) {
                    Some((_, f)) => f.clone(),
                    None => {
                        let f = PhaseType::fit(dist, ph_order);
                        fits.push((dist, f.clone()));
                        f
                    }
                };
                let slot = base + expanded.len();
                plans[a.index()] = Some(PhasePlan::new(&fit));
                slots[a.index()] = slot;
                expanded.push((a, slot));
            }
        }
        Ok(Self {
            plans,
            slots,
            expanded,
        })
    }

    pub(super) fn num_slots(&self) -> usize {
        self.expanded.len()
    }

    /// The event rate (1/ms) of stage `stage` of activity `a` — the
    /// index into its phase plan's rates — or, for [`UNEXPANDED`],
    /// `1/mean` of the model's exponential (NaN for any other
    /// distribution: the CTMC build turns that into
    /// [`SolveError::NonMarkovian`]).
    pub(super) fn stage_rate(&self, model: &SanModel, a: ActivityId, stage: u32) -> f64 {
        match &self.plans[a.index()] {
            Some(plan) => plan.rates[stage as usize],
            None => {
                debug_assert_eq!(stage, UNEXPANDED);
                match model.timing(a) {
                    Timing::Timed(Dist::Exp { mean }) => 1.0 / mean,
                    _ => f64::NAN,
                }
            }
        }
    }

    /// Largest phase-counter value of each expanded activity, slot
    /// order — the static field bounds of the packed layout.
    pub(super) fn phase_maxes(&self) -> Vec<u32> {
        self.expanded
            .iter()
            .map(|&(a, _)| {
                self.plans[a.index()]
                    .as_ref()
                    .expect("expanded activity has a plan")
                    .rates
                    .len() as u32
            })
            .collect()
    }

    /// The rate-independent fingerprint of this expansion.
    pub(super) fn shape(&self, model: &SanModel) -> ExpansionShape {
        ExpansionShape {
            places: model.num_places(),
            activities: model.num_activities(),
            slots: self
                .expanded
                .iter()
                .map(|&(a, _)| {
                    let plan = self.plans[a.index()]
                        .as_ref()
                        .expect("expanded activity has a plan");
                    (
                        a.index(),
                        plan.last.clone(),
                        plan.starts
                            .iter()
                            .map(|&(ph, p)| (ph, p.to_bits()))
                            .collect(),
                    )
                })
                .collect(),
        }
    }
}

/// Rate-independent fingerprint of a model's phase-type expansion —
/// everything about the expansion that determines the *structure* of
/// the expanded reachability graph. Two models whose nets are identical
/// and whose expansions have equal shapes at the same order explore
/// identical graphs (same states, same CSR sparsity) differing only in
/// transition rates; [`StateSpace::rebuild_rates`] insists on shape
/// equality before rewriting rates in place. Branch probabilities enter
/// exploration verbatim, so bit equality is the right comparison.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ExpansionShape {
    /// Number of places.
    places: usize,
    /// Number of activities.
    pub(super) activities: usize,
    /// Per expanded activity in slot order.
    slots: Vec<SlotShape>,
}

/// Shape of one expanded-activity slot: `(activity index, per-phase
/// last-stage flags, entry distribution as (phase, prob bits))`.
type SlotShape = (usize, Vec<bool>, Vec<(u32, u64)>);

pub(super) type AbsorbFn<'a> = dyn Fn(&Marking) -> bool + Sync + 'a;

/// Per place, the ordinals of the activities of one kind whose enabling
/// depends on it — [`SanModel::dependents`] filtered and flattened, so
/// a walk over a changed place touches one contiguous run.
struct PlaceIndex {
    /// `items[off[p]..off[p + 1]]` belongs to place `p`.
    off: Vec<u32>,
    items: Vec<u32>,
}

impl PlaceIndex {
    /// Keeps the dependents `ordinal` maps to `Some`, in declaration
    /// order.
    fn build(model: &SanModel, ordinal: impl Fn(ActivityId) -> Option<usize>) -> Self {
        let mut off = vec![0u32];
        let mut items = Vec::new();
        for place in 0..model.num_places() {
            items.extend(
                model
                    .dependents(place)
                    .iter()
                    .filter_map(|&a| ordinal(a))
                    .map(|k| k as u32),
            );
            off.push(items.len() as u32);
        }
        Self { off, items }
    }

    fn of(&self, place: usize) -> &[u32] {
        &self.items[self.off[place] as usize..self.off[place + 1] as usize]
    }
}

fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    let mask = 1u64 << (i % 64);
    bits[i / 64] = (bits[i / 64] & !mask) | (u64::from(on) << (i % 64));
}

fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// The set bits of `bits`, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// Shared read-only context for successor computation.
pub(super) struct Explorer<'m, 'a> {
    pub(super) model: &'m SanModel,
    pub(super) opts: &'a ReachOptions,
    pub(super) expansion: &'a Expansion,
    absorb: Option<&'a AbsorbFn<'a>>,
    pub(super) layout: &'a StateLayout,
    base: usize,
    /// Instantaneous activities with their priority and weight,
    /// declaration order. An activity's position here is its ordinal in
    /// the enabled sets of [`Vanish`], so ascending ordinal *is*
    /// declaration order.
    instantaneous: Vec<(ActivityId, u32, f64)>,
    /// Per place: ordinals of the instantaneous dependents.
    inst_deps: PlaceIndex,
    /// Per place: slot ordinals (`slot - base`) of the expanded
    /// dependents.
    phase_deps: PlaceIndex,
    /// Timed activities without a phase plan, declaration order.
    /// Unexpanded non-exponential activities keep the strict contract:
    /// explore fine, get a NaN-rate term, fail at the CTMC build.
    unexpanded: Vec<ActivityId>,
    /// Run the full-rescan oracle instead of the delta path.
    #[cfg(test)]
    oracle: bool,
}

/// Work counters of successor generation: plain per-worker fields the
/// driver sums into `explore.*` telemetry when a level closes (level-0
/// seeding is not counted, as for `explore.transitions`).
#[derive(Default)]
pub(super) struct Counts {
    /// `is_enabled` calls (debug-build staleness checks excluded).
    pub(super) enabling_evals: u64,
    /// Markings with an enabled instantaneous activity, resolved away.
    pub(super) vanishing_markings: u64,
    /// Packed fields rewritten while deriving successor keys.
    pub(super) key_patches: u64,
}

/// What is decoded of the source state of the expansion in progress
/// ([`StateLayout::decode_source`]); single counters are read from the
/// packed key when wanted.
struct Source {
    /// The place prefix on its way into `marking`.
    places: Vec<u32>,
    /// The place prefix as a marking, change log empty.
    marking: Marking,
    /// Fields of the non-zero phase counters, ascending — the enabled
    /// expanded activities in declaration order.
    active: Vec<usize>,
}

/// Buffers of vanishing resolution. The worklist is a stack; `sets`
/// holds one enabled set (a bitset over instantaneous ordinals, `cur`'s
/// length in words) per worklist entry, pushed and popped in step.
struct Vanish {
    work: Vec<(Marking, f64, usize)>,
    sets: Vec<u64>,
    /// The enabled set of the marking being resolved.
    cur: Vec<u64>,
    /// Ordinals already re-evaluated for the firing at hand.
    seen: Vec<u64>,
    /// Highest-priority enabled instantaneous activities.
    level: Vec<(ActivityId, f64)>,
}

/// The packed keys one tangible marking fans out to (`words` each,
/// more than one only after a phase-entry branch split) with their
/// probabilities; the spares are the split's staging buffers.
struct KeySet {
    keys: Vec<u64>,
    probs: Vec<f64>,
    spare_keys: Vec<u64>,
    spare_probs: Vec<f64>,
    /// Slot ordinals whose counter must be re-evaluated.
    dirty: Vec<u64>,
}

/// Per-worker reusable buffers. One `Scratch` lives as long as its
/// worker slot — across every BFS level — so the steady-state hot path
/// allocates nothing per state.
pub(super) struct Scratch {
    /// The packed key of the source state being expanded (kept intact:
    /// every successor key is this one with the moved fields patched).
    pub(super) src_key: Vec<u64>,
    /// The source state's outgoing transitions being generated.
    pub(super) row: Vec<Outcome>,
    pub(super) counts: Counts,
    src: Source,
    vanish: Vanish,
    /// Vanishing-resolution output of one firing.
    tangible: Vec<(Marking, f64)>,
    /// Recycled `Marking`s: the expansion materialises a marking per
    /// fired case and per vanishing step.
    mpool: Vec<Marking>,
    keys: KeySet,
    /// `(sink id, probability)` of one firing's interned outcomes.
    targets: Vec<(usize, f64)>,
    #[cfg(test)]
    oracle: oracle::Buffers,
}

/// A copy of `from`, change log included, in a recycled buffer.
fn recycled(pool: &mut Vec<Marking>, from: &Marking) -> Marking {
    match pool.pop() {
        Some(mut m) => {
            m.clone_from(from);
            m
        }
        None => from.clone(),
    }
}

impl<'m, 'a> Explorer<'m, 'a> {
    pub(super) fn new(
        model: &'m SanModel,
        opts: &'a ReachOptions,
        expansion: &'a Expansion,
        absorb: Option<&'a AbsorbFn<'a>>,
        layout: &'a StateLayout,
    ) -> Self {
        let base = model.num_places();
        let instantaneous: Vec<(ActivityId, u32, f64)> = model
            .activity_ids()
            .filter_map(|a| match *model.timing(a) {
                Timing::Instantaneous { priority, weight } => Some((a, priority, weight)),
                Timing::Timed(_) => None,
            })
            .collect();
        Self {
            model,
            opts,
            expansion,
            absorb,
            layout,
            base,
            inst_deps: PlaceIndex::build(model, |a| {
                model
                    .is_instantaneous(a)
                    .then(|| instantaneous.partition_point(|&(i, ..)| i < a))
            }),
            phase_deps: PlaceIndex::build(model, |a| {
                expansion.plans[a.index()]
                    .is_some()
                    .then(|| expansion.slots[a.index()] - base)
            }),
            unexpanded: model
                .activity_ids()
                .filter(|a| expansion.plans[a.index()].is_none() && !model.is_instantaneous(*a))
                .collect(),
            instantaneous,
            #[cfg(test)]
            oracle: oracle::selected(),
        }
    }

    pub(super) fn scratch(&self) -> Scratch {
        let words = self.layout.words();
        Scratch {
            src_key: vec![0; words],
            row: Vec::new(),
            counts: Counts::default(),
            src: Source {
                places: vec![0; self.base],
                marking: self.model.initial_marking(),
                active: Vec::new(),
            },
            vanish: Vanish {
                work: Vec::new(),
                sets: Vec::new(),
                cur: vec![0; self.instantaneous.len().div_ceil(64)],
                seen: vec![0; self.instantaneous.len().div_ceil(64)],
                level: Vec::new(),
            },
            tangible: Vec::new(),
            mpool: Vec::new(),
            keys: KeySet {
                keys: Vec::new(),
                probs: Vec::new(),
                spare_keys: Vec::new(),
                spare_probs: Vec::new(),
                dirty: vec![0; self.expansion.num_slots().div_ceil(64)],
            },
            targets: Vec::new(),
            #[cfg(test)]
            oracle: oracle::Buffers::new(self.layout),
        }
    }

    /// Level 0: resolves the initial marking's vanishing chain (and
    /// phase entry) into the initial tangible states, interns them
    /// through `sink`, and returns the initial distribution over the
    /// sink's ids (one entry per distinct state). The same delta as any
    /// other expansion, taken from a source that is the initial marking
    /// with all-zero phase counters and with *every* activity in the
    /// re-evaluation set — nothing is known to be disabled there.
    pub(super) fn seed_initial<S: DedupSink>(
        &self,
        sink: &mut S,
    ) -> Result<Vec<(usize, f64)>, Abort> {
        #[cfg(test)]
        if self.oracle {
            return self.oracle_seed_initial(sink);
        }
        // A new scratch holds the initial marking and no active phase.
        let mut scratch = self.scratch();
        let start = scratch.src.marking.clone();
        let mut ext = vec![0; self.layout.num_fields()];
        ext[..self.base].copy_from_slice(start.tokens());
        self.layout.encode(&ext, &mut scratch.src_key)?;
        self.settle(sink, &mut scratch, start, 1.0, None, true)?;
        let mut initial: Vec<(usize, f64)> = Vec::new();
        for (id, p) in scratch.targets.drain(..) {
            match initial.iter_mut().find(|(i, _)| *i == id) {
                Some((_, q)) => *q += p,
                None => initial.push((id, p)),
            }
        }
        Ok(initial)
    }
}

impl Explorer<'_, '_> {
    /// Hands `key` to the deduplicator, returning the sink's id for it:
    /// the provisional intern id on the resident path, a worker-local
    /// candidate index on the external-memory one.
    fn intern<S: DedupSink>(
        &self,
        sink: &mut S,
        key: &[u64],
        absorbing: bool,
    ) -> Result<usize, Abort> {
        sink.intern_key(key, || absorbing).map_err(|_| {
            Abort::Solve(SolveError::StateSpaceTooLarge {
                limit: self.opts.max_states,
            })
        })
    }

    /// The stale-read guard of debug builds: a verdict carried over
    /// instead of re-evaluated must equal a fresh evaluation, or some
    /// gate predicate reads a place missing from its declared `reads`.
    fn assert_fresh(&self, a: ActivityId, carried: bool, marking: &Marking) {
        assert!(
            self.model.is_enabled(a, marking) == carried,
            "`{}` is stale: a gate read set is probably incomplete",
            self.model.activity_name(a)
        );
    }

    /// Computes every outgoing transition of the tangible state whose
    /// packed key sits in `scratch.src_key` into `scratch.row`,
    /// interning newly discovered targets through `sink` on the fly.
    /// Targets carry the sink's ids (provisional intern ids or
    /// worker-local candidate indices) until the level's canonical
    /// renumbering. The one entry point of every dedup strategy, so all
    /// of them run the exact same firing/vanishing/phase code.
    pub(super) fn successors_from_key<S: DedupSink>(
        &self,
        sink: &mut S,
        scratch: &mut Scratch,
    ) -> Result<(), Abort> {
        #[cfg(test)]
        if self.oracle {
            return self.oracle_successors(sink, scratch);
        }
        let base = self.base;
        scratch.row.clear();
        let src = &mut scratch.src;
        self.layout
            .decode_source(&scratch.src_key, &mut src.places, &mut src.active);
        src.marking.assign(&src.places);
        // Enabled timed activities in declaration order (the order of
        // the row's activity runs): an expanded one is enabled exactly
        // when its phase counter is non-zero, so those come from
        // `active` without consulting the marking; the unexpanded ones
        // are asked. Both lists ascend, so this is a two-way merge.
        let (mut i, mut j) = (0, 0);
        loop {
            let expanded = scratch
                .src
                .active
                .get(i)
                .map(|&field| self.expansion.expanded[field - base]);
            let plain = self.unexpanded.get(j).copied();
            match (expanded, plain) {
                (Some((a, field)), plain) if plain.map_or(true, |u| a < u) => {
                    i += 1;
                    self.advance_phase(sink, scratch, a, field)?;
                }
                (_, Some(a)) => {
                    j += 1;
                    scratch.counts.enabling_evals += 1;
                    if self.model.is_enabled(a, &scratch.src.marking) {
                        self.completions(sink, scratch, a, UNEXPANDED)?;
                    }
                }
                // Both lists are spent (an expanded activity facing no
                // plain one is taken by the first arm).
                _ => return Ok(()),
            }
        }
    }

    /// One stage completion of the expanded activity `a`, whose counter
    /// (at `field`) is non-zero in the source: an internal phase
    /// advance, or — from the last stage of its branch — the activity's
    /// completion.
    fn advance_phase<S: DedupSink>(
        &self,
        sink: &mut S,
        scratch: &mut Scratch,
        a: ActivityId,
        field: usize,
    ) -> Result<(), Abort> {
        debug_assert!(
            self.model.is_enabled(a, &scratch.src.marking),
            "phase counter out of sync with enabling"
        );
        let plan = self.expansion.plans[a.index()]
            .as_ref()
            .expect("expanded activity has a plan");
        let phase = self.layout.field(&scratch.src_key, field);
        let stage = phase - 1;
        if plan.last[stage as usize] {
            return self.completions(sink, scratch, a, stage);
        }
        // The target is the source with one phase field bumped. The
        // place prefix is unchanged, so the target's absorbing verdict
        // equals the (expanded, hence non-absorbing) source's: false.
        let key = &mut scratch.keys.keys;
        key.clear();
        key.extend_from_slice(&scratch.src_key);
        self.layout
            .patch(key, field, phase + 1)
            .expect("phase fields are sized for their plan");
        scratch.counts.key_patches += 1;
        let target = self.intern(sink, key, false)?;
        scratch.row.push(Outcome::new(a, stage, 1.0, false, target));
        Ok(())
    }

    /// Appends the completion outcomes of activity `a` in the source
    /// state to `scratch.row`, where `stage` is the completing stage
    /// (see [`Outcome::stage`]).
    fn completions<S: DedupSink>(
        &self,
        sink: &mut S,
        scratch: &mut Scratch,
        a: ActivityId,
        stage: u32,
    ) -> Result<(), Abort> {
        for case in 0..self.model.num_cases(a) {
            let case_p = self.model.case_prob(a, case);
            if case_p <= 0.0 {
                continue;
            }
            let mut after = recycled(&mut scratch.mpool, &scratch.src.marking);
            self.model.fire_case(&mut after, a, case);
            self.settle(sink, scratch, after, case_p, Some(a), false)?;
            let Scratch { row, targets, .. } = scratch;
            row.extend(
                targets
                    .drain(..)
                    .map(|(target, prob)| Outcome::new(a, stage, prob, true, target)),
            );
        }
        Ok(())
    }

    /// Turns `after` — the source marking plus one firing, its change
    /// log holding what the firing wrote — into interned tangible
    /// successor states, left in `scratch.targets` in resolution order.
    /// `seed` marks the level-0 call, where no verdict can be carried
    /// over from a source.
    fn settle<S: DedupSink>(
        &self,
        sink: &mut S,
        scratch: &mut Scratch,
        after: Marking,
        prob: f64,
        completed: Option<ActivityId>,
        seed: bool,
    ) -> Result<(), Abort> {
        let Scratch {
            src_key,
            src,
            vanish,
            tangible,
            mpool,
            keys,
            targets,
            counts,
            ..
        } = scratch;
        tangible.clear();
        targets.clear();
        self.resolve_vanishing(vanish, mpool, counts, after, prob, seed, tangible)?;
        for (marking, p) in tangible.drain(..) {
            let absorbing =
                self.successor_keys(src_key, src, keys, counts, &marking, p, completed, seed)?;
            for (key, &p) in keys.keys.chunks_exact(src_key.len()).zip(&keys.probs) {
                targets.push((self.intern(sink, key, absorbing)?, p));
            }
            mpool.push(marking);
        }
        Ok(())
    }

    /// Re-evaluates the instantaneous dependents of `places` in
    /// `marking`, each once, and records the verdicts in `set`.
    fn reevaluate(
        &self,
        marking: &Marking,
        places: &[usize],
        set: &mut [u64],
        seen: &mut [u64],
        counts: &mut Counts,
    ) {
        seen.fill(0);
        for &place in places {
            for &k in self.inst_deps.of(place) {
                let k = k as usize;
                if !bit(seen, k) {
                    set_bit(seen, k, true);
                    let (a, ..) = self.instantaneous[k];
                    set_bit(set, k, self.model.is_enabled(a, marking));
                    counts.enabling_evals += 1;
                }
            }
        }
    }

    /// Distributes the probability mass of a possibly-vanishing marking
    /// over the tangible markings its instantaneous chains lead to, in
    /// the order a depth-first walk (last pushed, first resolved)
    /// reaches them. Iterative (explicit worklist) so deep
    /// instantaneous cascades cannot overflow the call stack.
    ///
    /// Every worklist entry carries the set of instantaneous activities
    /// enabled in its marking. The source of `start` is tangible, so
    /// its set is empty by definition and `start`'s holds whichever
    /// dependents of the places in its change log evaluate enabled;
    /// after each firing only the dependents of the places that firing
    /// wrote are asked again. Sets are walked in ascending ordinal —
    /// declaration order — so which activities tie at the highest
    /// priority, the order their weights are summed in, and the order
    /// outcomes are pushed are those of a scan over every instantaneous
    /// activity. Markings are cloned with their change log, so a
    /// tangible result's log lists every place that may differ from the
    /// source.
    #[allow(clippy::too_many_arguments)]
    fn resolve_vanishing(
        &self,
        vanish: &mut Vanish,
        mpool: &mut Vec<Marking>,
        counts: &mut Counts,
        start: Marking,
        prob: f64,
        seed: bool,
        out: &mut Vec<(Marking, f64)>,
    ) -> Result<(), SolveError> {
        let model = self.model;
        if self.instantaneous.is_empty() {
            // No instantaneous activities anywhere: every marking is
            // tangible, skip the worklist entirely.
            out.push((start, prob));
            return Ok(());
        }
        let Vanish {
            work,
            sets,
            cur,
            seen,
            level,
        } = vanish;
        let set_words = cur.len();
        work.clear();
        sets.clear();
        sets.resize(set_words, 0);
        if seed {
            for (k, &(a, ..)) in self.instantaneous.iter().enumerate() {
                set_bit(sets, k, model.is_enabled(a, &start));
            }
            counts.enabling_evals += self.instantaneous.len() as u64;
        } else {
            self.reevaluate(&start, start.changed_places(), sets, seen, counts);
        }
        work.push((start, prob, 0));
        while let Some((marking, prob, depth)) = work.pop() {
            let top = sets.len() - set_words;
            cur.copy_from_slice(&sets[top..]);
            sets.truncate(top);
            if depth > self.opts.max_vanishing_depth {
                return Err(SolveError::VanishingLoop {
                    depth: self.opts.max_vanishing_depth,
                });
            }
            if cfg!(debug_assertions) {
                for (k, &(a, ..)) in self.instantaneous.iter().enumerate() {
                    self.assert_fresh(a, bit(cur, k), &marking);
                }
            }
            // The enabled instantaneous activities at the highest
            // priority.
            let mut best_prio = 0u32;
            level.clear();
            for k in ones(cur) {
                let (a, priority, weight) = self.instantaneous[k];
                if level.is_empty() || priority > best_prio {
                    best_prio = priority;
                    level.clear();
                    level.push((a, weight));
                } else if priority == best_prio {
                    level.push((a, weight));
                }
            }
            if level.is_empty() {
                out.push((marking, prob));
                continue;
            }
            counts.vanishing_markings += 1;
            let total_weight: f64 = level.iter().map(|&(_, w)| w).sum();
            for &(a, w) in level.iter() {
                let pick = prob * w / total_weight;
                for case in 0..model.num_cases(a) {
                    let case_p = model.case_prob(a, case);
                    if case_p <= 0.0 {
                        continue;
                    }
                    let mut after = recycled(mpool, &marking);
                    let written = after.changed_places().len();
                    model.fire_case(&mut after, a, case);
                    let top = sets.len();
                    sets.extend_from_slice(cur);
                    self.reevaluate(
                        &after,
                        &after.changed_places()[written..],
                        &mut sets[top..],
                        seen,
                        counts,
                    );
                    work.push((after, pick * case_p, depth + 1));
                }
            }
            // This vanishing marking's buffers are free for reuse.
            mpool.push(marking);
        }
        Ok(())
    }

    /// Builds in `keys` the packed key(s) of the tangible `marking`
    /// reached from the source, and returns its absorbing verdict.
    ///
    /// A key starts as the source's and gets the fields that moved
    /// rewritten. Places: those in `marking`'s change log, which spans
    /// the whole firing chain. Phase counters: copied over with the
    /// key, then re-evaluated for the `completed` activity and the
    /// expanded dependents of the logged places only — any other
    /// activity reads no place that moved, so it is enabled now exactly
    /// if it was in the source, which is what its carried counter
    /// (non-zero exactly when enabled) already says. A re-evaluated
    /// counter is kept where an activity other than `completed` stayed
    /// enabled (its clock keeps running), re-entered (branch split)
    /// where an activity is newly enabled or just completed, zero where
    /// disabled. Re-evaluation runs in slot order, so branch-entry
    /// splits multiply out in the order of a scan over every expanded
    /// activity. Absorbing markings get all-zero counters — their
    /// future is irrelevant, and canonicalising them merges states.
    #[allow(clippy::too_many_arguments)]
    fn successor_keys(
        &self,
        src_key: &[u64],
        src: &Source,
        keys: &mut KeySet,
        counts: &mut Counts,
        marking: &Marking,
        prob: f64,
        completed: Option<ActivityId>,
        seed: bool,
    ) -> Result<bool, Abort> {
        let layout = self.layout;
        let words = src_key.len();
        let KeySet {
            keys,
            probs,
            spare_keys,
            spare_probs,
            dirty,
        } = keys;
        keys.clear();
        keys.extend_from_slice(src_key);
        probs.clear();
        probs.push(prob);
        let changed = marking.changed_places();
        for &place in changed {
            layout.patch(keys, place, marking.tokens()[place])?;
        }
        counts.key_patches += changed.len() as u64;
        let absorbing = self.absorb.is_some_and(|f| f(marking));
        let slots = self.expansion.num_slots();
        if slots == 0 {
            return Ok(absorbing);
        }
        let put = |key: &mut [u64], field: usize, phase: u32| {
            layout
                .patch(key, field, phase)
                .expect("phase fields are sized for their plan");
        };
        if absorbing {
            for &field in &src.active {
                put(keys, field, 0);
            }
            counts.key_patches += src.active.len() as u64;
            return Ok(true);
        }
        dirty.fill(0);
        if seed {
            (0..slots).for_each(|k| set_bit(dirty, k, true));
        } else {
            if let Some(a) = completed.filter(|a| self.expansion.plans[a.index()].is_some()) {
                set_bit(dirty, self.expansion.slots[a.index()] - self.base, true);
            }
            for &place in changed {
                for &k in self.phase_deps.of(place) {
                    set_bit(dirty, k as usize, true);
                }
            }
        }
        for k in ones(dirty) {
            let (a, field) = self.expansion.expanded[k];
            let old = layout.field(src_key, field);
            counts.enabling_evals += 1;
            let entry: &[(u32, f64)] = if !self.model.is_enabled(a, marking) {
                if old == 0 {
                    continue;
                }
                &[(0, 1.0)]
            } else if completed != Some(a) && old >= 1 {
                continue; // its clock keeps running
            } else {
                &self.expansion.plans[a.index()]
                    .as_ref()
                    .expect("expanded activity has a plan")
                    .starts
            };
            counts.key_patches += (keys.len() / words * entry.len()) as u64;
            if let [(phase, _)] = entry {
                for key in keys.chunks_exact_mut(words) {
                    put(key, field, *phase);
                }
                continue;
            }
            // Entry splits over >1 branches: every current outcome
            // fans out, outcome-major, branches in plan order.
            spare_keys.clear();
            spare_probs.clear();
            for (key, &p) in keys.chunks_exact(words).zip(probs.iter()) {
                for &(phase, bp) in entry {
                    let at = spare_keys.len();
                    spare_keys.extend_from_slice(key);
                    put(&mut spare_keys[at..], field, phase);
                    spare_probs.push(p * bp);
                }
            }
            std::mem::swap(keys, spare_keys);
            std::mem::swap(probs, spare_probs);
        }
        if cfg!(debug_assertions) {
            // Both directions, every expanded activity: a non-zero
            // counter implies enabled, and enabled implies non-zero.
            for &(a, field) in &self.expansion.expanded {
                self.assert_fresh(a, layout.field(&keys[..words], field) != 0, marking);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::super::StateSpace;
    use super::*;
    use ctsim_san::{Activity, Case, SanBuilder};

    /// An instantaneous activity between two timed ones is eliminated:
    /// the intermediate marking never becomes a state.
    #[test]
    fn vanishing_markings_are_eliminated() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let v = b.place("v", 0);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(v, 1)),
        );
        b.add_activity(
            Activity::instantaneous("i")
                .input(v, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        assert_eq!(ss.len(), 2, "vanishing marking must not appear");
        let q_state = ss.tokens(ss.outgoing(0)[0].target);
        assert_eq!(q_state[q.index()], 1);
        assert_eq!(q_state[v.index()], 0);
    }

    /// Instantaneous cases split the probability mass.
    #[test]
    fn instantaneous_cases_split_probability() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let v = b.place("v", 0);
        let l = b.place("l", 0);
        let r = b.place("r", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(v, 1)),
        );
        b.add_activity(
            Activity::instantaneous("i")
                .input(v, 1)
                .case(Case::with_prob(0.3).output(l, 1))
                .case(Case::with_prob(0.7).output(r, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        assert_eq!(ss.len(), 3);
        let mut probs: Vec<f64> = ss.outgoing(0).iter().map(|t| t.prob).collect();
        probs.sort_by(f64::total_cmp);
        assert!((probs[0] - 0.3).abs() < 1e-12 && (probs[1] - 0.7).abs() < 1e-12);
    }

    /// Equal-priority instantaneous races split by weight; higher
    /// priority pre-empts.
    #[test]
    fn priority_and_weight_resolution() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let v = b.place("v", 0);
        let hi = b.place("hi", 0);
        let wa = b.place("wa", 0);
        let wb = b.place("wb", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(v, 2)),
        );
        // One high-priority activity consumes the first token...
        b.add_activity(
            Activity::instantaneous("h")
                .priority(5)
                .input(v, 2)
                .case(Case::with_prob(1.0).output(hi, 1).output(v, 1)),
        );
        // ...then two weight-3/weight-1 rivals race for the second.
        b.add_activity(
            Activity::instantaneous("a")
                .weight(3.0)
                .input(v, 1)
                .case(Case::with_prob(1.0).output(wa, 1)),
        );
        b.add_activity(
            Activity::instantaneous("b")
                .weight(1.0)
                .input(v, 1)
                .case(Case::with_prob(1.0).output(wb, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        // Initial + two tangible outcomes {hi,wa} and {hi,wb}.
        assert_eq!(ss.len(), 3);
        for t in ss.outgoing(0).iter() {
            let st = ss.tokens(t.target);
            assert_eq!(st[hi.index()], 1, "priority 5 always fires first");
            if st[wa.index()] == 1 {
                assert!((t.prob - 0.75).abs() < 1e-12);
            } else {
                assert_eq!(st[wb.index()], 1);
                assert!((t.prob - 0.25).abs() < 1e-12);
            }
        }
    }

    /// A deterministic activity expanded at order k becomes an Erlang
    /// chain: k phase states plus the absorbing end.
    #[test]
    fn det_activity_expands_to_erlang_chain() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Det(2.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        for order in [1u32, 3, 4] {
            let opts = ReachOptions {
                ph_order: order,
                ..ReachOptions::default()
            };
            let ss = StateSpace::explore(&m, &opts).unwrap();
            assert_eq!(ss.phase_slots, 1);
            assert_eq!(
                ss.len(),
                order as usize + 1,
                "order {order}: one state per stage plus the end"
            );
            // Every stage advances at rate k/mean; the last completes.
            let rate = order as f64 / 2.0;
            let mut completions = 0;
            for s in 0..ss.len() {
                for t in ss.outgoing(s).iter() {
                    assert!((t.rate - rate).abs() < 1e-12);
                    completions += usize::from(t.completes);
                }
            }
            assert_eq!(completions, 1, "exactly one completing transition");
        }
    }

    /// A bimodal activity expands to a two-branch hyper-Erlang: the
    /// initial distribution splits over the branch heads.
    #[test]
    fn bimodal_activity_splits_on_entry() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let dist = Dist::bimodal(0.8, (0.05, 0.08), (0.095, 0.3));
        b.add_activity(
            Activity::timed("t", dist.clone())
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 4,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore(&m, &opts).unwrap();
        // cv² ≈ 0.43 → mixed Erlang(2)/Erlang(3): two initial states.
        assert_eq!(ss.initial.len(), 2, "branch split at activation");
        let total: f64 = ss.initial.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // All rates are finite: the expanded graph is Markovian.
        for s in 0..ss.len() {
            for t in ss.outgoing(s).iter() {
                assert!(t.rate.is_finite() && t.rate > 0.0);
            }
        }
    }

    /// Without expansion, non-exponential transitions carry NaN rates
    /// (the CTMC build rejects them); with expansion they are finite.
    #[test]
    fn unexpanded_non_exponential_rates_are_nan() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("det", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        assert!(ss.outgoing(0)[0].rate.is_nan());
    }

    /// Phase counters freeze in absorbing states (canonical zero), so
    /// goal states reached in different phases merge.
    #[test]
    fn absorbing_states_have_canonical_phases() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 1);
        b.add_activity(
            Activity::timed("goal", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        // A background deterministic ticker that stays enabled forever.
        b.add_activity(
            Activity::timed("tick", Dist::Det(1.0))
                .input(r, 1)
                .case(Case::with_prob(1.0).output(r, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 4,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore_absorbing(&m, &opts, move |mk| mk.get(q) >= 1).unwrap();
        let absorbed: Vec<usize> = (0..ss.len()).filter(|&s| ss.absorbing[s]).collect();
        assert_eq!(absorbed.len(), 1, "one canonical absorbing state");
        let a = absorbed[0];
        assert!(ss.tokens(a)[ss.num_places()..].iter().all(|&x| x == 0));
    }

    /// A disabled expanded activity loses its phase (restart policy);
    /// continuously enabled ones keep it.
    #[test]
    fn restart_policy_resets_phase_on_disable() {
        // `det` needs p; `drain` (exponential) consumes p first with
        // some probability, disabling `det` mid-phase. The state right
        // after draining must carry phase 0 for `det`.
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        b.add_activity(
            Activity::timed("det", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.add_activity(
            Activity::timed("drain", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(r, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 4,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore(&m, &opts).unwrap();
        let det_slot = ss.num_places();
        for s in 0..ss.len() {
            let tokens = ss.tokens(s);
            if tokens[p.index()] == 0 {
                assert_eq!(tokens[det_slot], 0, "disabled activity keeps no phase");
            } else {
                assert!(tokens[det_slot] >= 1, "enabled activity holds a phase");
            }
        }
    }
}
