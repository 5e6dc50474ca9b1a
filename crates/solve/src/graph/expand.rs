//! Successor generation: the phase-type expansion plan of a model and
//! the firing / vanishing-resolution / phase-advance code that turns
//! one tangible state into its outgoing transitions. Generic over the
//! [`DedupSink`] a successor key is interned through, so every dedup
//! strategy of [`super::driver`] monomorphizes this one code path.

use ctsim_san::{ActivityId, Marking, SanModel, Timing};
use ctsim_stoch::{Dist, PhaseType};

use super::driver::Abort;
use super::{ReachOptions, Transition};
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

/// Shared read-only context for successor computation.
pub(super) struct Explorer<'m, 'a> {
    pub(super) model: &'m SanModel,
    pub(super) opts: &'a ReachOptions,
    pub(super) expansion: &'a Expansion,
    absorb: Option<&'a AbsorbFn<'a>>,
    pub(super) layout: &'a StateLayout,
    base: usize,
    /// Timed activities, declaration order.
    timed: Vec<ActivityId>,
    /// Instantaneous activities with their priority and weight,
    /// declaration order — precomputed so vanishing resolution does
    /// not re-filter the whole activity list per visited marking.
    instantaneous: Vec<(ActivityId, u32, f64)>,
}

/// Per-worker reusable buffers. One `Scratch` lives as long as its
/// worker slot — across every BFS level — so the steady-state hot path
/// allocates nothing per state.
pub(super) struct Scratch {
    /// Packed-key buffer (one state).
    key: Vec<u64>,
    /// The packed key of the source state being expanded (kept intact
    /// so phase-advance successors can be derived by patching it).
    pub(super) src_key: Vec<u64>,
    /// Decoded extended state vector of the source being expanded.
    ext: Vec<u32>,
    /// The source state's outgoing transitions being generated.
    pub(super) row: Vec<Transition>,
    /// Tangible `(tokens, prob)` outcomes of one case resolution.
    outs: Vec<(Vec<u32>, f64)>,
    /// Vanishing-resolution output of one case.
    dist: Vec<(Marking, f64)>,
    /// Recycled extended-state vectors (all `num_fields` long): the
    /// per-outcome buffers live only from `continue_phases` to the
    /// encode in `completions`, so a small pool removes the last
    /// per-transition allocation of the hot path.
    pool: Vec<Vec<u32>>,
    /// Phase-entry branch-split staging buffer (`continue_phases`).
    split: Vec<(Vec<u32>, f64)>,
    /// Vanishing-resolution worklist (`resolve_vanishing`).
    vwork: Vec<(Marking, f64, usize)>,
    /// Highest-priority enabled instantaneous activities
    /// (`resolve_vanishing`).
    vlevel: Vec<(ActivityId, f64)>,
    /// Recycled `Marking`s: the expansion materialises a marking per
    /// fired case and per vanishing step — reusing their buffers
    /// removes a few heap allocations per generated transition.
    mpool: Vec<Marking>,
}

impl Scratch {
    pub(super) fn new(layout: &StateLayout) -> Self {
        Self {
            key: vec![0; layout.words()],
            src_key: vec![0; layout.words()],
            ext: vec![0; layout.num_fields()],
            row: Vec::new(),
            outs: Vec::new(),
            dist: Vec::new(),
            pool: Vec::new(),
            split: Vec::new(),
            vwork: Vec::new(),
            vlevel: Vec::new(),
            mpool: Vec::new(),
        }
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
        Self {
            model,
            opts,
            expansion,
            absorb,
            layout,
            base: model.num_places(),
            timed: model
                .activity_ids()
                .filter(|&a| matches!(model.timing(a), Timing::Timed(_)))
                .collect(),
            instantaneous: model
                .activity_ids()
                .filter_map(|a| match *model.timing(a) {
                    Timing::Instantaneous { priority, weight } => Some((a, priority, weight)),
                    Timing::Timed(_) => None,
                })
                .collect(),
        }
    }

    /// Level 0: resolves the initial marking's vanishing chain (and
    /// phase entry) into the initial tangible states, interns them
    /// through `sink`, and returns the initial distribution over the
    /// sink's ids (one entry per distinct state).
    pub(super) fn seed_initial<S: DedupSink>(
        &self,
        sink: &mut S,
    ) -> Result<Vec<(usize, f64)>, Abort> {
        let init_marking = self
            .model
            .marking_from(self.model.initial_marking().tokens());
        let mut init_dist: Vec<(Marking, f64)> = Vec::new();
        let (mut vwork, mut vlevel) = (Vec::new(), Vec::new());
        let mut mpool: Vec<Marking> = Vec::new();
        self.resolve_vanishing(
            init_marking,
            1.0,
            &mut init_dist,
            &mut vwork,
            &mut vlevel,
            &mut mpool,
        )?;
        let mut ext: Vec<(Vec<u32>, f64)> = Vec::new();
        let mut pool: Vec<Vec<u32>> = Vec::new();
        let mut split: Vec<(Vec<u32>, f64)> = Vec::new();
        for (marking, p) in init_dist {
            self.continue_phases(None, None, &marking, p, &mut ext, &mut pool, &mut split);
        }
        let mut key = vec![0u64; self.layout.words()];
        let mut initial: Vec<(usize, f64)> = Vec::new();
        for (tokens, p) in ext {
            let id = self.intern_tokens(sink, &tokens, &mut key)?;
            match initial.iter_mut().find(|(i, _)| *i == id) {
                Some((_, q)) => *q += p,
                None => initial.push((id, p)),
            }
        }
        Ok(initial)
    }
}

impl Explorer<'_, '_> {
    /// Whether the tangible place prefix of `tokens` is absorbing.
    fn is_absorbing(&self, tokens: &[u32]) -> bool {
        self.absorb
            .is_some_and(|f| f(&self.model.marking_from(&tokens[..self.base])))
    }

    /// Encodes `tokens` and hands it to the deduplicator, returning the
    /// sink's id for it: the provisional intern id on the resident
    /// path, a worker-local candidate index on the external-memory one.
    fn intern_tokens<S: DedupSink>(
        &self,
        sink: &mut S,
        tokens: &[u32],
        key: &mut [u64],
    ) -> Result<usize, Abort> {
        self.layout.encode(tokens, key).map_err(|_| Abort::Pack)?;
        sink.intern_key(key, || self.is_absorbing(tokens))
            .map_err(|_| {
                Abort::Solve(SolveError::StateSpaceTooLarge {
                    limit: self.opts.max_states,
                })
            })
    }

    /// Draws a `num_fields`-long buffer with zeroed phase slots from
    /// the recycle pool (the place prefix is always overwritten by the
    /// caller, so only the suffix needs clearing).
    fn fresh_ext(&self, pool: &mut Vec<Vec<u32>>) -> Vec<u32> {
        match pool.pop() {
            Some(mut v) => {
                v[self.base..].fill(0);
                v
            }
            None => vec![0u32; self.base + self.expansion.num_slots()],
        }
    }

    /// Distributes phase counters over a freshly reached tangible place
    /// marking: kept where an activity other than `completed` stayed
    /// enabled (its clock keeps running), re-entered (branch split)
    /// where an activity is newly enabled or just completed, zero where
    /// disabled. Absorbing markings get all-zero counters — their
    /// future is irrelevant, and canonicalising them merges states.
    ///
    /// Appends its outcomes to `out`, treating `out[start..]` as its
    /// working set so the common single-outcome path allocates nothing
    /// (`split` is a reused staging buffer for the branch-split case).
    #[allow(clippy::too_many_arguments)]
    fn continue_phases(
        &self,
        old_ext: Option<&[u32]>,
        completed: Option<ActivityId>,
        marking: &Marking,
        prob: f64,
        out: &mut Vec<(Vec<u32>, f64)>,
        pool: &mut Vec<Vec<u32>>,
        split: &mut Vec<(Vec<u32>, f64)>,
    ) {
        let slots = self.expansion.num_slots();
        let start = out.len();
        let mut ext = self.fresh_ext(pool);
        ext[..self.base].copy_from_slice(marking.tokens());
        out.push((ext, prob));
        if slots == 0 {
            return;
        }
        if self.absorb.is_some_and(|f| f(marking)) {
            return;
        }
        for &(a, slot) in &self.expansion.expanded {
            if !self.model.is_enabled(a, marking) {
                continue; // counter stays 0
            }
            // A non-zero counter in the old state means the activity
            // was enabled there (the exploration invariant), so its
            // clock keeps running unless it is the one that completed.
            let keep = completed != Some(a) && old_ext.is_some_and(|o| o[slot] >= 1);
            if keep {
                let old = old_ext.expect("keep implies old state")[slot];
                for (e, _) in &mut out[start..] {
                    e[slot] = old;
                }
                continue;
            }
            let starts = &self.expansion.plans[a.index()]
                .as_ref()
                .expect("expanded activity has a plan")
                .starts;
            if let [(phase, _)] = starts.as_slice() {
                for (e, _) in &mut out[start..] {
                    e[slot] = *phase;
                }
                continue;
            }
            // Entry splits over >1 branches: expand every current
            // outcome, preserving the (deterministic) order — per
            // outcome, the non-final branches first, then the final
            // branch reusing the original buffer.
            split.clear();
            split.extend(out.drain(start..));
            let (&(last_phase, last_bp), rest) =
                starts.split_last().expect("non-empty entry distribution");
            for (e, p) in split.drain(..) {
                for &(phase, bp) in rest {
                    let mut e2 = self.fresh_ext(pool);
                    e2.copy_from_slice(&e);
                    e2[slot] = phase;
                    out.push((e2, p * bp));
                }
                let mut e = e;
                e[slot] = last_phase;
                out.push((e, p * last_bp));
            }
        }
    }

    /// Emits the completion outcomes of activity `a` from `ext`, where
    /// `base_rate` is the exponential rate of the completing event.
    /// Transitions are appended to `trans` (the caller's reused row
    /// buffer — `scratch.row`, temporarily taken out of the scratch).
    fn completions<S: DedupSink>(
        &self,
        sink: &mut S,
        ext: &[u32],
        a: ActivityId,
        base_rate: f64,
        scratch: &mut Scratch,
        trans: &mut Vec<Transition>,
    ) -> Result<(), Abort> {
        for case in 0..self.model.num_cases(a) {
            let case_p = self.model.case_prob(a, case);
            if case_p <= 0.0 {
                continue;
            }
            let mut after = match scratch.mpool.pop() {
                Some(mut m) => {
                    m.assign(&ext[..self.base]);
                    m
                }
                None => self.model.marking_from(&ext[..self.base]),
            };
            self.model.fire_case(&mut after, a, case);
            scratch.dist.clear();
            {
                let Scratch {
                    dist,
                    vwork,
                    vlevel,
                    mpool,
                    ..
                } = scratch;
                self.resolve_vanishing(after, case_p, dist, vwork, vlevel, mpool)?;
            }
            let Scratch {
                dist,
                outs,
                pool,
                split,
                key,
                mpool,
                ..
            } = scratch;
            outs.clear();
            for (marking, p) in dist.drain(..) {
                self.continue_phases(Some(ext), Some(a), &marking, p, outs, pool, split);
                mpool.push(marking);
            }
            for (tokens, p) in outs.drain(..) {
                let target = self.intern_tokens(sink, &tokens, key)?;
                pool.push(tokens);
                trans.push(Transition {
                    activity: a,
                    prob: p,
                    rate: base_rate,
                    completes: true,
                    target,
                });
            }
        }
        Ok(())
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
        self.layout.decode(&scratch.src_key, &mut scratch.ext);
        let ext = std::mem::take(&mut scratch.ext);
        let mut row = std::mem::take(&mut scratch.row);
        row.clear();
        let result = self.successors_of_ext(sink, &ext, scratch, &mut row);
        scratch.ext = ext;
        scratch.row = row;
        result
    }

    fn successors_of_ext<S: DedupSink>(
        &self,
        sink: &mut S,
        ext: &[u32],
        scratch: &mut Scratch,
        trans: &mut Vec<Transition>,
    ) -> Result<(), Abort> {
        let marking = match scratch.mpool.pop() {
            Some(mut m) => {
                m.assign(&ext[..self.base]);
                m
            }
            None => self.model.marking_from(&ext[..self.base]),
        };
        for &a in &self.timed {
            match &self.expansion.plans[a.index()] {
                Some(plan) => {
                    // An expanded activity's enabledness is already
                    // written in its phase counter (`continue_phases`
                    // sets it non-zero exactly when enabled), so the
                    // marking does not need to be consulted at all.
                    let slot = self.expansion.slots[a.index()];
                    let phase = ext[slot];
                    if phase == 0 {
                        continue;
                    }
                    debug_assert!(
                        self.model.is_enabled(a, &marking),
                        "phase counter out of sync with enabling"
                    );
                    let rate = plan.rates[(phase - 1) as usize];
                    if plan.last[(phase - 1) as usize] {
                        self.completions(sink, ext, a, rate, scratch, trans)?;
                    } else {
                        // Fast path for internal phase advances: the
                        // target's packed key is the source key with
                        // one phase field bumped — no token-vector
                        // materialisation, no re-encode (and phase
                        // fields are exactly sized, so the patch can
                        // never overflow). The place prefix is
                        // unchanged, so the target's absorbing verdict
                        // equals the (expanded, hence non-absorbing)
                        // source's: false.
                        let Scratch { key, src_key, .. } = scratch;
                        key.copy_from_slice(src_key);
                        self.layout.patch(key, slot, phase + 1);
                        let target = sink.intern_key(key, || false).map_err(|_| {
                            Abort::Solve(SolveError::StateSpaceTooLarge {
                                limit: self.opts.max_states,
                            })
                        })?;
                        trans.push(Transition {
                            activity: a,
                            prob: 1.0,
                            rate,
                            completes: false,
                            target,
                        });
                    }
                }
                None => {
                    if !self.model.is_enabled(a, &marking) {
                        continue;
                    }
                    let Timing::Timed(dist) = self.model.timing(a) else {
                        unreachable!("timed list only holds timed activities")
                    };
                    // Unexpanded non-exponential activities keep the
                    // strict contract: explore fine, carry a NaN rate,
                    // fail at the CTMC build.
                    let base_rate = match *dist {
                        Dist::Exp { mean } => 1.0 / mean,
                        _ => f64::NAN,
                    };
                    self.completions(sink, ext, a, base_rate, scratch, trans)?;
                }
            }
        }
        scratch.mpool.push(marking);
        Ok(())
    }
}

impl Explorer<'_, '_> {
    /// Distributes the probability mass of a possibly-vanishing marking
    /// over the tangible markings its instantaneous chains lead to.
    /// Iterative (explicit worklist) so deep instantaneous cascades
    /// cannot overflow the call stack. The worklist carries `Marking`s
    /// end to end — no token-vector round-trips on this hot path — and
    /// the worklist/race buffers are caller-provided scratch, reused
    /// across every resolution a worker performs.
    fn resolve_vanishing(
        &self,
        marking: Marking,
        prob: f64,
        out: &mut Vec<(Marking, f64)>,
        work: &mut Vec<(Marking, f64, usize)>,
        level: &mut Vec<(ActivityId, f64)>,
        mpool: &mut Vec<Marking>,
    ) -> Result<(), SolveError> {
        let model = self.model;
        if self.instantaneous.is_empty() {
            // No instantaneous activities anywhere: every marking is
            // tangible, skip the worklist entirely.
            out.push((marking, prob));
            return Ok(());
        }
        work.clear();
        work.push((marking, prob, 0));
        while let Some((marking, prob, depth)) = work.pop() {
            if depth > self.opts.max_vanishing_depth {
                return Err(SolveError::VanishingLoop {
                    depth: self.opts.max_vanishing_depth,
                });
            }
            // The enabled instantaneous activities at the highest
            // priority.
            let mut best_prio = 0u32;
            level.clear();
            for &(a, priority, weight) in &self.instantaneous {
                if !model.is_enabled(a, &marking) {
                    continue;
                }
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
            let total_weight: f64 = level.iter().map(|&(_, w)| w).sum();
            for &(a, w) in level.iter() {
                let pick = prob * w / total_weight;
                for case in 0..model.num_cases(a) {
                    let case_p = model.case_prob(a, case);
                    if case_p <= 0.0 {
                        continue;
                    }
                    let mut after = match mpool.pop() {
                        Some(mut m) => {
                            m.assign(marking.tokens());
                            m
                        }
                        None => model.marking_from(marking.tokens()),
                    };
                    model.fire_case(&mut after, a, case);
                    work.push((after, pick * case_p, depth + 1));
                }
            }
            // This vanishing marking's buffers are free for reuse.
            mpool.push(marking);
        }
        Ok(())
    }
}

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
