//! Layer 1: the reachability graph of a [`SanModel`].
//!
//! Explores every marking reachable from the model's initial marking.
//! Markings in which an instantaneous activity is enabled ("vanishing"
//! markings) are never materialised as states: they are eliminated on
//! the fly by recursively distributing their probability mass over the
//! instantaneous choices (highest priority first, weight-proportional
//! within a priority level, then case probabilities) until only
//! "tangible" markings remain — exactly the race the simulator resolves
//! by sampling, resolved here in distribution.
//!
//! # Phase-type expansion
//!
//! With [`ReachOptions::ph_order`] ≥ 1, non-exponential timed activities
//! no longer poison the analytic path: each one is replaced by its
//! [`PhaseType`](ctsim_stoch::PhaseType) fit (hyper-Erlang, matched
//! moments — see `ctsim_stoch::phase`), and the state vector gains one
//! *phase counter*
//! per expanded activity, appended after the place markings. A counter
//! is `0` while its activity is disabled; on enabling it jumps to the
//! first stage of a probabilistically chosen branch (the PH initial
//! distribution — a branching of the state like a vanishing
//! resolution), then walks through the branch's exponential stages.
//! Completing the last stage fires the activity's cases exactly like a
//! native exponential completion. Counters mirror the simulator's
//! "restart" reactivation policy, judged at tangible markings: an
//! activity continuously enabled across a completion keeps its phase
//! (its sampled clock keeps running), one that is disabled resets to 0
//! and re-enters afresh when next enabled.
//!
//! Everything downstream is unchanged: the expanded graph is still a
//! CTMC, each transition carrying the exponential stage rate and its
//! branching probability separately; the generator contribution is
//! their product ([`Term::coeff`], [`Transition::q`]). Keeping the base
//! rate pure lets [`StateSpace::rebuild_rates`] rewrite rates when only
//! the model's timing parameters change between solves.
//!
//! # Edges and terms
//!
//! A merged transition is an edge — canonical target and term id —
//! against a per-exploration table of [`Term`]s: (activity, phase
//! stage, probability, completes) plus the rate the model gives that
//! stage. The key is structural, so a re-parameterised model explores
//! to the same edges and term ids, and the rate-only rebuild rewrites
//! the table alone.
//!
//! The edges are stored once, as the structural CSR of the generator
//! (`ctmc::Csr`): one 8-byte (target, term id) entry per edge of a row,
//! ascending by target, parallel edges in edge order. Self-loops never
//! reach the generator, so they are not stored;
//! [`StateSpace::num_transitions`] still counts them. The space and
//! every [`Ctmc`] built from it share that structure, and
//! [`StateSpace::outgoing`] decodes a row into [`Transition`]s.
//!
//! # Compact state encoding
//!
//! States are stored bit-packed: the extended token vector (places,
//! then phase counters) is encoded into a few `u64` words by
//! `pack::StateLayout` — phase fields at their statically known width,
//! every place in one bit, and a place that holds more tokens with an
//! extension for its high bits, learned by restarting the exploration
//! with that place wider on overflow. The n = 3 order-2 consensus
//! state (289 places, 175 of them never marked) packs into 9 words
//! (72 bytes); packed words are also what the intern table hashes and
//! compares.
//!
//! # Concurrent exploration, streamed assembly
//!
//! Exploration fans out across [`ReachOptions::threads`] workers in a
//! level-synchronous breadth-first sweep, but — unlike the former
//! explore-then-sequentially-merge design — workers intern newly
//! discovered states **directly** into a lock-free state table
//! (`intern::Interner`) while expanding: there is no serial merge phase left
//! to cap the speedup.
//!
//! Transitions never touch the heap per state: each worker appends the
//! rows it generates into its own chain of fixed-capacity segments
//! (`WorkerChain`), and when a level finishes it is renumbered, given
//! term ids and **streamed** into the structural CSR *while the workers
//! already expand the next level*; assembly is a per-level permutation
//! into contiguous storage. With [`ReachOptions::spill`] set, cold CSR
//! segments additionally page out to a temp file under a RAM budget,
//! which is what lets spaces larger than memory explore.
//!
//! The price of concurrent interning is that state ids become
//! race-ordered ("provisional"); determinism is restored by a
//! canonical renumbering applied level by level:
//!
//! 1. The reachable state *set*, every state's successor distribution,
//!    and every state's BFS level (its distance from the initial
//!    states) are functions of the model alone — no interleaving can
//!    change them.
//! 2. States are renumbered by `(BFS level, packed key)` — a total
//!    order with no reference to discovery order. A level's membership
//!    is fixed the moment the previous level has been fully expanded,
//!    so the renumbering (and everything downstream of it) can run
//!    level-by-level behind the exploration front.
//! 3. Per-source transition lists are computed sequentially inside one
//!    worker each; after retargeting to canonical ids they are sorted
//!    with a deterministic comparator and duplicate targets are merged
//!    by summing in that sorted order, so even the floating-point
//!    accumulation order is fixed.
//!
//! The resulting state numbering, transition lists, and CSR generator
//! are therefore byte-identical for every thread count — property-
//! tested at 1/2/4/8/16 threads. (When exploration *fails*, the error
//! value can depend on which worker tripped first; only results are
//! guaranteed deterministic, not the identity of racing errors.)
//!
//! # One driver, two dedup strategies
//!
//! The sweep exists once: `driver::drive` owns the level loop, the
//! worker claim loop, the overlap of emission with expansion, and the
//! abort merge, generic over a `driver::Dedup` strategy that owns only
//! what differs between the resident intern table (`driver::Resident`)
//! and external-memory delayed duplicate detection
//! (`driver::External`, over `crate::ddd`): the frontier, the id a
//! successor key is given, and how a closed level's ids become
//! canonical. Successor generation (`expand`) and emission
//! (`assembly`) are shared code, so the two engines can only differ in
//! *where an id comes from* — and both number states by
//! `(BFS level, packed key)`.
//!
//! The module is split by stage: `expand` (phase plans, successor
//! generation, vanishing resolution), `driver` (the loop and the two
//! strategies), `assembly` (canonical emission into the structural
//! CSR), `terms` (the worker record and the term table), and this file
//! (options, [`Transition`], the [`StateSpace`] API, [`GraphParts`],
//! the rate-only rebuild).

mod assembly;
mod driver;
mod expand;
mod terms;

use ctsim_san::{ActivityId, Marking, SanModel};

use std::sync::Arc;

use crate::arena::{RowLoc, RowRef, SegStore};
use crate::backend::GeneratorBackend;
use crate::ctmc::{Csr, Ctmc};
use crate::intern::Interner;
use crate::kron::KronGenerator;
use crate::linop::Generator;
use crate::pack::StateLayout;
use crate::spill::SpillOptions;
use crate::SolveError;

pub use driver::SweepProfile;
use expand::{AbsorbFn, Expansion, ExpansionShape};
pub use terms::Term;

/// Exploration limits and expansion/parallelism knobs.
#[derive(Debug, Clone)]
pub struct ReachOptions {
    /// Abort with [`SolveError::StateSpaceTooLarge`] beyond this many
    /// tangible states. State ids are stored as `u32`, so the effective
    /// limit is at most 2³¹ whatever the value.
    pub max_states: usize,
    /// Abort with [`SolveError::VanishingLoop`] when a chain of
    /// instantaneous firings exceeds this depth (two instantaneous
    /// activities feeding each other tokens, the analytic analogue of
    /// the simulator's instantaneous-livelock guard).
    pub max_vanishing_depth: usize,
    /// Phase-type expansion order for non-exponential timed activities:
    /// the per-branch stage budget handed to
    /// [`PhaseType::fit`](ctsim_stoch::PhaseType::fit). `0`
    /// (the default) disables expansion, restoring the strict behaviour
    /// where any reachable non-exponential activity makes the CTMC
    /// build fail with [`SolveError::NonMarkovian`].
    pub ph_order: u32,
    /// Worker threads for the exploration (`0` = one per available
    /// core, `1` = in-place sequential). The result is identical — to
    /// the byte — for every value; this is purely a wall-clock knob.
    pub threads: usize,
    /// Page cold transition/state segments to a temp file under this
    /// RAM budget (see [`SpillOptions`]). `None` (the default) keeps
    /// everything resident. Results are identical — to the byte — with
    /// spill on or off; this trades wall-clock for peak memory on
    /// spaces that do not fit in RAM.
    pub spill: Option<SpillOptions>,
}

impl Default for ReachOptions {
    fn default() -> Self {
        Self {
            max_states: 1 << 20,
            max_vanishing_depth: 4096,
            ph_order: 0,
            threads: 1,
            spill: None,
        }
    }
}

/// The effective state limit of an exploration: `max_states`, capped so
/// that every state id fits the `u32` the arenas store it as.
fn state_limit(max_states: usize) -> usize {
    max_states.min(crate::intern::MAX_STATES)
}

/// One probabilistic transition of the reachability graph, decoded
/// from a CSR entry and its [`Term`] by [`StateSpace::outgoing`]:
/// completing `activity` (or, for expanded activities, one exponential
/// stage of it) in the source state leads to tangible state `target`
/// with probability `prob` (case probability × vanishing-path
/// probability × phase-entry probability; the `prob`s of one activity
/// in one source state sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// The timed activity whose (stage) completion triggers the move.
    pub activity: ActivityId,
    /// Branching probability of this particular outcome.
    pub prob: f64,
    /// Exponential event rate (1/ms) of the stage whose completion
    /// drives this move: the phase-stage rate for expanded activities,
    /// `1/mean` for native exponentials. The generator-matrix
    /// contribution is `rate * prob` ([`Transition::q`]). `NaN` when
    /// the source activity is non-exponential and expansion is
    /// disabled — the CTMC build turns that into
    /// [`SolveError::NonMarkovian`].
    pub rate: f64,
    /// Whether this move completes the activity (fires its cases).
    /// `false` only for internal phase advances of expanded activities.
    /// No solver or reward reads it. It is carried in the term (the
    /// stage determines it) and reported here for callers that count
    /// completions, as the phase-type tests do.
    pub completes: bool,
    /// Index of the destination state.
    pub target: usize,
}

impl Transition {
    /// Generator-matrix contribution of this transition (1/ms): the
    /// exponential stage rate weighted by the branching probability.
    #[inline]
    pub fn q(&self) -> f64 {
        self.rate * self.prob
    }
}

/// The tangible reachable state space of a model.
///
/// With phase-type expansion active, each state vector is the flat
/// place marking followed by one phase counter per expanded activity;
/// [`StateSpace::marking`] exposes only the place prefix. States are
/// stored bit-packed ([`StateSpace::packed_state`]); decode one with
/// [`StateSpace::tokens`].
///
/// State numbering is canonical — BFS level first, packed key within a
/// level — and identical for every [`ReachOptions::threads`] value.
pub struct StateSpace<'m> {
    model: &'m SanModel,
    /// Number of places — the length of the marking prefix of each
    /// state vector.
    base: usize,
    /// Number of appended phase counters (0 without expansion).
    pub phase_slots: usize,
    /// The bit layout shared by all packed states.
    layout: StateLayout,
    /// Canonically ordered packed states — either a spillable copy or
    /// a zero-copy view into the intern arena.
    packed: PackedStates,
    /// Every state's merged outgoing transitions, self-loops left out
    /// (an empty row for absorbing states): the structural CSR, shared
    /// with every [`Ctmc`] built from this space.
    csr: Arc<Csr>,
    /// The term table the entries point into.
    terms: Vec<Term>,
    /// Total transitions across all rows, self-loops included.
    total_trans: usize,
    /// Initial probability distribution over tangible states (the
    /// initial marking's vanishing chain may branch probabilistically,
    /// as may phase entry).
    pub initial: Vec<(usize, f64)>,
    /// Marks states at which the absorbing predicate held (if one was
    /// given); their outgoing transitions are suppressed.
    pub absorbing: Vec<bool>,
    /// The expansion order this space was explored at
    /// ([`ReachOptions::ph_order`]).
    ph_order: u32,
    /// Structural fingerprint of the expansion — what
    /// [`StateSpace::rebuild_rates`] validates against.
    shape: ExpansionShape,
    /// Where the exploration's wall-clock went.
    profile: SweepProfile,
}

impl std::fmt::Debug for StateSpace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateSpace")
            .field("model", &self.model.name())
            .field("states", &self.len())
            .field("phase_slots", &self.phase_slots)
            .field("words_per_state", &self.layout.words())
            .field("transitions", &self.total_trans)
            .finish()
    }
}

/// How the canonical packed states are stored.
///
/// By default the exploration's intern arena *is* the state storage:
/// the `StateSpace` keeps it (hash tables dropped) plus the canonical
/// → provisional permutation, so the states exist exactly once in
/// memory. Spill mode instead writes a canonical-order copy into a
/// spillable segmented store and frees the arena, so the state table
/// itself can page to disk under the RAM budget.
enum PackedStates {
    /// Spill mode: canonical-order copy, `words` per row, pageable.
    Store {
        store: SegStore<u64>,
        /// Rows per segment (fixed-width rows ⇒ location is pure
        /// arithmetic).
        per_seg: usize,
    },
    /// Default: the intern arena, read through the permutation.
    Interned { interner: Interner, perm: Vec<u32> },
}

/// The model-independent payload of an explored [`StateSpace`] — what a
/// [`DetachedRun`](crate::DetachedRun) holds between campaign grid
/// points. Detach with [`StateSpace::into_parts`], re-attach to a
/// (possibly re-parameterised) model with [`StateSpace::from_parts`],
/// then rewrite rates with [`StateSpace::rebuild_rates`].
pub struct GraphParts {
    base: usize,
    phase_slots: usize,
    ph_order: u32,
    layout: StateLayout,
    packed: PackedStates,
    csr: Arc<Csr>,
    terms: Vec<Term>,
    total_trans: usize,
    initial: Vec<(usize, f64)>,
    absorbing: Vec<bool>,
    shape: ExpansionShape,
    profile: SweepProfile,
}

impl GraphParts {
    /// Number of tangible states in the detached graph.
    pub fn num_states(&self) -> usize {
        self.csr.len()
    }

    /// Total transitions in the detached graph.
    pub fn num_transitions(&self) -> usize {
        self.total_trans
    }
}

impl std::fmt::Debug for GraphParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphParts")
            .field("states", &self.num_states())
            .field("transitions", &self.total_trans)
            .field("ph_order", &self.ph_order)
            .finish()
    }
}

impl<'m> StateSpace<'m> {
    /// Explores the full tangible state space (no absorbing predicate).
    pub fn explore(model: &'m SanModel, opts: &ReachOptions) -> Result<Self, SolveError> {
        Self::explore_inner(model, opts, None)
    }

    /// [`StateSpace::explore`] and the CTMC generator: exploration
    /// emits the CSR structure level by level while later levels are
    /// still being expanded, and
    /// [`Ctmc::from_state_space`](crate::Ctmc::from_state_space) adds
    /// the values in one read-only pass, sharing the structure.
    pub fn explore_ctmc(
        model: &'m SanModel,
        opts: &ReachOptions,
    ) -> Result<(Self, Ctmc), SolveError> {
        let ss = Self::explore(model, opts)?;
        let q = Ctmc::from_state_space(&ss)?;
        Ok((ss, q))
    }

    /// [`StateSpace::explore_absorbing`] and the CTMC generator — see
    /// [`StateSpace::explore_ctmc`].
    pub fn explore_absorbing_ctmc(
        model: &'m SanModel,
        opts: &ReachOptions,
        absorb: impl Fn(&Marking) -> bool + Sync,
    ) -> Result<(Self, Ctmc), SolveError> {
        let ss = Self::explore_absorbing(model, opts, absorb)?;
        let q = Ctmc::from_state_space(&ss)?;
        Ok((ss, q))
    }

    /// [`StateSpace::explore_absorbing_ctmc`] generalized over the
    /// generator representation: the returned [`Generator`] is the CSR
    /// matrix or the factored Kronecker-style descriptor
    /// ([`KronGenerator`]), both built from the explored graph.
    pub fn explore_absorbing_gen(
        model: &'m SanModel,
        opts: &ReachOptions,
        backend: GeneratorBackend,
        absorb: impl Fn(&Marking) -> bool + Sync,
    ) -> Result<(Self, Generator), SolveError> {
        match backend {
            GeneratorBackend::Csr => Self::explore_absorbing_ctmc(model, opts, absorb)
                .map(|(ss, q)| (ss, Generator::Csr(Box::new(q)))),
            GeneratorBackend::Kron => {
                let ss = Self::explore_absorbing(model, opts, absorb)?;
                let kron = KronGenerator::from_state_space(&ss)?;
                Ok((ss, Generator::Kron(kron)))
            }
        }
    }

    /// Explores the state space, treating every tangible marking for
    /// which `absorb` holds as absorbing (no outgoing transitions).
    ///
    /// This is how first-passage ("time until the predicate holds")
    /// quantities are solved: make the goal states absorbing and read
    /// the absorbed probability mass off the transient solution.
    ///
    /// The predicate is evaluated on tangible markings only — the same
    /// instants at which the simulator's `run_until` evaluates its stop
    /// predicate — so it should be stable under instantaneous firings
    /// (e.g. a monotone "place ever marked" test).
    pub fn explore_absorbing(
        model: &'m SanModel,
        opts: &ReachOptions,
        absorb: impl Fn(&Marking) -> bool + Sync,
    ) -> Result<Self, SolveError> {
        Self::explore_inner(model, opts, Some(&absorb))
    }

    fn explore_inner(
        model: &'m SanModel,
        opts: &ReachOptions,
        absorb: Option<&AbsorbFn<'_>>,
    ) -> Result<Self, SolveError> {
        // All spill read-back failures below (packed states, paged CSR,
        // external dedup runs) surface typed through this boundary.
        crate::catch_spill(|| driver::explore(model, opts, absorb))
    }

    /// The model this space was explored from.
    pub fn model(&self) -> &'m SanModel {
        self.model
    }

    /// Number of tangible states.
    pub fn len(&self) -> usize {
        self.csr.len()
    }

    /// Whether the space is empty (never true after exploration).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The merged outgoing transitions of state `i` other than
    /// self-loops (empty for absorbing states), ascending by target,
    /// decoded from the row's CSR entries and the term table into an
    /// owned row, parallel edges in edge order. Self-loops are counted
    /// by [`StateSpace::num_transitions`] but not stored: they never
    /// reach the generator. Meant for tests and inspection: the
    /// generator builds read the entries in place.
    pub fn outgoing(&self, i: usize) -> RowRef<'_, Transition> {
        let mut row = Vec::new();
        self.csr.for_each_edge(i, |target, term| {
            row.push(self.terms[term as usize].decode(target));
        });
        RowRef::owned(row)
    }

    /// The structural CSR this space's transitions live in, shared
    /// with the generators built from it.
    pub(crate) fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    /// The term table, by term id.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Total number of merged transitions, self-loops included.
    pub fn num_transitions(&self) -> usize {
        self.total_trans
    }

    /// Number of places (the marking prefix length of each state
    /// vector; phase counters follow).
    pub fn num_places(&self) -> usize {
        self.base
    }

    /// Packed words per state.
    pub fn words_per_state(&self) -> usize {
        self.layout.words()
    }

    /// Where the exploration's wall-clock went, level by level summed.
    pub fn sweep_profile(&self) -> SweepProfile {
        self.profile
    }

    /// The raw packed words of state `i` (compare with
    /// [`StateSpace::packed_words`] for the whole space).
    pub fn packed_state(&self, i: usize) -> RowRef<'_, u64> {
        let w = self.layout.words();
        match &self.packed {
            PackedStates::Store { store, per_seg } => store.row(RowLoc {
                seg: (i / per_seg) as u32,
                off: ((i % per_seg) * w) as u32,
                len: w as u32,
            }),
            PackedStates::Interned { interner, perm } => {
                let mut buf = vec![0u64; w];
                interner.read_state(perm[i] as usize, &mut buf);
                RowRef::owned(buf)
            }
        }
    }

    /// Every state's packed words, canonical order, back to back —
    /// byte-comparable across explorations to assert reproducibility.
    /// Collects (and, under spill, reloads) the whole array; meant for
    /// determinism asserts, not hot paths.
    pub fn packed_words(&self) -> Vec<u64> {
        match &self.packed {
            PackedStates::Store { store, .. } => store.collect_all(),
            PackedStates::Interned { interner, perm } => {
                let w = self.layout.words();
                let mut out = vec![0u64; perm.len() * w];
                for (rank, &prov) in perm.iter().enumerate() {
                    interner.read_state(prov as usize, &mut out[rank * w..(rank + 1) * w]);
                }
                out
            }
        }
    }

    /// Decodes state `i` into its extended token vector (places, then
    /// phase counters).
    pub fn tokens(&self, i: usize) -> Vec<u32> {
        self.layout.decode_vec(&self.packed_state(i))
    }

    /// Materialises state `i` as a [`Marking`] (for reward evaluation).
    /// Phase counters are not part of the marking.
    pub fn marking(&self, i: usize) -> Marking {
        let tokens = self.tokens(i);
        self.model.marking_from(&tokens[..self.base])
    }

    /// Detaches the model-independent payload of this space so it can
    /// outlive the model borrow (e.g. in a
    /// [`DetachedRun`](crate::DetachedRun) between campaign grid
    /// points).
    pub fn into_parts(self) -> GraphParts {
        GraphParts {
            base: self.base,
            phase_slots: self.phase_slots,
            ph_order: self.ph_order,
            layout: self.layout,
            packed: self.packed,
            csr: self.csr,
            terms: self.terms,
            total_trans: self.total_trans,
            initial: self.initial,
            absorbing: self.absorbing,
            shape: self.shape,
            profile: self.profile,
        }
    }

    /// Re-attaches cached [`GraphParts`] to a model. The model must
    /// have the same net dimensions the graph was explored with (full
    /// structural equality is the caller's contract — campaign drivers
    /// key caches by the structural parameters that generated the
    /// model); call [`StateSpace::rebuild_rates`] afterwards if the
    /// model's timing parameters changed.
    pub fn from_parts(model: &'m SanModel, parts: GraphParts) -> Result<Self, SolveError> {
        if model.num_places() != parts.base || model.num_activities() != parts.shape.activities {
            return Err(SolveError::StructureMismatch {
                reason: format!(
                    "model has {} places / {} activities, cached graph was explored with {} / {}",
                    model.num_places(),
                    model.num_activities(),
                    parts.base,
                    parts.shape.activities
                ),
            });
        }
        Ok(Self {
            model,
            base: parts.base,
            phase_slots: parts.phase_slots,
            layout: parts.layout,
            packed: parts.packed,
            csr: parts.csr,
            terms: parts.terms,
            total_trans: parts.total_trans,
            initial: parts.initial,
            absorbing: parts.absorbing,
            ph_order: parts.ph_order,
            shape: parts.shape,
            profile: parts.profile,
        })
    }

    /// Re-evaluates every term's stage rate from the (possibly
    /// re-parameterised) model, without re-exploring — the rate-only
    /// rebuild of the campaign engine. When two grid points share
    /// structure (same net, same `ph_order`, same expansion shape) but
    /// differ in timing parameters, the reachability graph and its CSR
    /// entries are identical; only rate values change.
    ///
    /// A rate is a function of a term's (activity, stage): `1/mean` of
    /// an unexpanded activity, or the stage rate of an expanded one's
    /// phase plan. So this rewrites the term table — O(terms) — and
    /// reads neither an entry nor a packed key. Probabilities are
    /// structural, so the table — and a CSR rebuilt from it via
    /// [`Ctmc::rebuild_values`] — is bit-identical to a fresh
    /// exploration of the new model. The initial distribution and
    /// absorbing marks are rate-independent.
    ///
    /// Fails with [`SolveError::StructureMismatch`] when the new
    /// model's expansion shape differs (e.g. a distribution change
    /// moved the moment-matching fit to a different branch structure);
    /// the caller should fall back to a cold exploration. The space is
    /// then left as it was.
    pub fn rebuild_rates(&mut self) -> Result<(), SolveError> {
        let expansion = Expansion::build(self.model, self.ph_order)?;
        let shape = expansion.shape(self.model);
        if shape != self.shape {
            return Err(SolveError::StructureMismatch {
                reason: "phase-type expansion shape changed between grid points".to_string(),
            });
        }
        for t in &mut self.terms {
            t.rate = expansion.stage_rate(self.model, t.activity, t.stage);
        }
        if ctsim_obs::enabled() {
            ctsim_obs::counter_add("graph_cache.rate_rebuilds", 1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_san::{Activity, Case, SanBuilder};
    use ctsim_stoch::Dist;

    /// p --exp--> q: two states, one transition.
    #[test]
    fn two_state_chain() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 2.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss.initial, vec![(0, 1.0)]);
        assert_eq!(ss.outgoing(0).len(), 1);
        assert_eq!(ss.outgoing(0)[0].target, 1);
        assert!((ss.outgoing(0)[0].rate - 0.5).abs() < 1e-12);
        assert!(ss.outgoing(0)[0].completes);
        assert!(ss.outgoing(1).is_empty(), "q-state is dead");
    }

    fn chain_model(mean: f64) -> ctsim_san::SanModel {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.build().unwrap()
    }

    /// The paper's model at n = 2 with every CPU stage `scale` times as
    /// long, explored to its first decision at phase-type order 2.
    fn paper_n2(scale: f64) -> SanModel {
        let mut p = ctsim_models::SanParams::paper_baseline(2);
        p.t_send *= scale;
        p.t_receive *= scale;
        p.t_work *= scale;
        ctsim_models::build_model(&p)
    }

    fn explore_n2(model: &SanModel) -> StateSpace<'_> {
        let decided = ctsim_models::decided_place_ids(model, 2);
        let opts = ReachOptions {
            ph_order: 2,
            ..ReachOptions::default()
        };
        StateSpace::explore_absorbing(model, &opts, move |m| decided.iter().any(|&d| m.get(d) > 0))
            .unwrap()
    }

    fn all_edges(ss: &StateSpace<'_>) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for i in 0..ss.len() {
            ss.csr
                .for_each_edge(i, |target, term| edges.push((target, term)));
        }
        edges
    }

    /// Terms are keyed by structure: a model 1.2× slower on its CPU
    /// stages explores to the same edges and term ids, and only rates
    /// differ — the ones the rate-only rebuild of the base graph
    /// writes, bit for bit.
    #[test]
    fn rescaled_model_explores_to_the_same_edges_and_terms() {
        let (base, slow) = (paper_n2(1.0), paper_n2(1.2));
        let (a, b) = (explore_n2(&base), explore_n2(&slow));
        assert_eq!(all_edges(&a), all_edges(&b));
        assert_eq!(a.terms().len(), b.terms().len());
        let key = |t: &Term| (t.activity, t.stage, t.prob.to_bits(), t.completes);
        let mut moved = 0;
        for (x, y) in a.terms().iter().zip(b.terms()) {
            assert_eq!(key(x), key(y));
            moved += usize::from(x.rate != y.rate);
        }
        assert!(moved > 0, "no term rate changed");
        let mut rebuilt = StateSpace::from_parts(&slow, a.into_parts()).unwrap();
        rebuilt.rebuild_rates().unwrap();
        let bits = |ss: &StateSpace<'_>| -> Vec<u64> {
            ss.terms().iter().map(|t| t.rate.to_bits()).collect()
        };
        assert_eq!(bits(&rebuilt), bits(&b));
    }

    /// Cases of one activity that reach the same marking fold into one
    /// transition whose `prob` is their sum in case order, as the fold
    /// has always taken it: (0.1 + 0.2) + 0.3, which is not 0.6.
    #[test]
    fn duplicate_outcomes_decode_to_the_summed_prob() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(0.1).output(q, 1))
                .case(Case::with_prob(0.2).output(q, 1))
                .case(Case::with_prob(0.3).output(q, 1))
                .case(Case::with_prob(0.4).output(r, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let row = ss.outgoing(0);
        assert_eq!(row.len(), 2, "{row:?}");
        let to_q = row.iter().find(|t| ss.tokens(t.target)[1] == 1).unwrap();
        let summed: f64 = 0.1 + 0.2 + 0.3;
        assert_eq!(to_q.prob.to_bits(), summed.to_bits());
        assert_ne!(to_q.prob.to_bits(), 0.6f64.to_bits());
        assert_eq!(ss.terms().len(), 2);
    }

    /// Every id is stored as a `u32`: a larger cap is cut to what the
    /// ids and the intern arena hold, a smaller one is kept.
    #[test]
    fn state_limit_is_capped_to_the_id_range() {
        assert_eq!(state_limit(64), 64);
        assert_eq!(state_limit(1 << 31), 1 << 31);
        assert_eq!(state_limit(usize::MAX), 1 << 31);
        assert!(state_limit(usize::MAX) - 1 <= u32::MAX as usize);
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let m1 = chain_model(2.0);
        let (ss, _) = StateSpace::explore_ctmc(&m1, &ReachOptions::default()).unwrap();
        let parts = ss.into_parts();
        let mut b = SanBuilder::new("bigger");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1).output(r, 1)),
        );
        let m2 = b.build().unwrap();
        assert!(matches!(
            StateSpace::from_parts(&m2, parts),
            Err(crate::SolveError::StructureMismatch { .. })
        ));
    }
}
