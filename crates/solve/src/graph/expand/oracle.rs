//! The full-rescan successor generation the delta path of
//! [`super`] replaced, kept test-only as its oracle: every
//! instantaneous activity evaluated on every vanishing marking, every
//! expanded one on every tangible outcome, every outcome materialised
//! as a token vector and encoded field by field. [`with_oracle`] makes
//! the explorations started on the calling thread run it — through the
//! same driver, dedup strategies and assembly — so a differential test
//! compares whole [`StateSpace`]s.

use std::cell::Cell;

use super::*;

thread_local! {
    static SELECTED: Cell<bool> = const { Cell::new(false) };
}

/// Whether an [`Explorer`] built on this thread runs the oracle.
pub(super) fn selected() -> bool {
    SELECTED.with(Cell::get)
}

/// Runs `f` with every exploration it starts (on this thread) expanded
/// by the oracle.
fn with_oracle<R>(f: impl FnOnce() -> R) -> R {
    SELECTED.with(|s| s.set(true));
    let out = f();
    SELECTED.with(|s| s.set(false));
    out
}

/// The oracle's per-worker buffers (the parent's `Scratch`).
pub(super) struct Buffers {
    /// Packed-key buffer (one state).
    key: Vec<u64>,
    /// Decoded extended state vector of the source being expanded.
    ext: Vec<u32>,
    /// Tangible `(tokens, prob)` outcomes of one case resolution.
    outs: Vec<(Vec<u32>, f64)>,
    /// Vanishing-resolution output of one case.
    dist: Vec<(Marking, f64)>,
    /// Recycled extended-state vectors (all `num_fields` long).
    pool: Vec<Vec<u32>>,
    /// Phase-entry branch-split staging buffer.
    split: Vec<(Vec<u32>, f64)>,
    /// Vanishing-resolution worklist.
    vwork: Vec<(Marking, f64, usize)>,
    /// Highest-priority enabled instantaneous activities.
    vlevel: Vec<(ActivityId, f64)>,
    /// Recycled `Marking`s.
    mpool: Vec<Marking>,
}

impl Buffers {
    pub(super) fn new(layout: &StateLayout) -> Self {
        Self {
            key: vec![0; layout.words()],
            ext: vec![0; layout.num_fields()],
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

impl Explorer<'_, '_> {
    /// Level 0: resolves the initial marking's vanishing chain (and
    /// phase entry) into the initial tangible states, interns them
    /// through `sink`, and returns the initial distribution over the
    /// sink's ids (one entry per distinct state).
    pub(super) fn oracle_seed_initial<S: DedupSink>(
        &self,
        sink: &mut S,
    ) -> Result<Vec<(usize, f64)>, Abort> {
        let init_marking = self
            .model
            .marking_from(self.model.initial_marking().tokens());
        let mut init_dist: Vec<(Marking, f64)> = Vec::new();
        let (mut vwork, mut vlevel) = (Vec::new(), Vec::new());
        let mut mpool: Vec<Marking> = Vec::new();
        self.full_resolve_vanishing(
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
            self.full_continue_phases(None, None, &marking, p, &mut ext, &mut pool, &mut split);
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
        self.layout.encode(tokens, key)?;
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
    fn full_continue_phases(
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
    /// `stage` is the completing stage (see `Outcome::stage`).
    /// Transitions are appended to `trans` (the caller's reused row
    /// buffer — `scratch.row`, temporarily taken out of the scratch).
    fn full_completions<S: DedupSink>(
        &self,
        sink: &mut S,
        ext: &[u32],
        a: ActivityId,
        stage: u32,
        scratch: &mut Buffers,
        trans: &mut Vec<Outcome>,
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
                let Buffers {
                    dist,
                    vwork,
                    vlevel,
                    mpool,
                    ..
                } = scratch;
                self.full_resolve_vanishing(after, case_p, dist, vwork, vlevel, mpool)?;
            }
            let Buffers {
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
                self.full_continue_phases(Some(ext), Some(a), &marking, p, outs, pool, split);
                mpool.push(marking);
            }
            for (tokens, p) in outs.drain(..) {
                let target = self.intern_tokens(sink, &tokens, key)?;
                pool.push(tokens);
                trans.push(Outcome::new(a, stage, p, true, target));
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
    pub(super) fn oracle_successors<S: DedupSink>(
        &self,
        sink: &mut S,
        scratch: &mut Scratch,
    ) -> Result<(), Abort> {
        let Scratch {
            src_key,
            row,
            oracle: buffers,
            ..
        } = scratch;
        self.layout.decode(src_key, &mut buffers.ext);
        let ext = std::mem::take(&mut buffers.ext);
        row.clear();
        let result = self.successors_of_ext(sink, &ext, src_key, buffers, row);
        buffers.ext = ext;
        result
    }

    fn successors_of_ext<S: DedupSink>(
        &self,
        sink: &mut S,
        ext: &[u32],
        src_key: &[u64],
        scratch: &mut Buffers,
        trans: &mut Vec<Outcome>,
    ) -> Result<(), Abort> {
        let marking = match scratch.mpool.pop() {
            Some(mut m) => {
                m.assign(&ext[..self.base]);
                m
            }
            None => self.model.marking_from(&ext[..self.base]),
        };
        for a in self.model.activity_ids() {
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
                    let stage = phase - 1;
                    if plan.last[stage as usize] {
                        self.full_completions(sink, ext, a, stage, scratch, trans)?;
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
                        let key = &mut scratch.key;
                        key.copy_from_slice(src_key);
                        self.layout
                            .patch(key, slot, phase + 1)
                            .expect("phase fields are sized for their plan");
                        let target = sink.intern_key(key, || false).map_err(|_| {
                            Abort::Solve(SolveError::StateSpaceTooLarge {
                                limit: self.opts.max_states,
                            })
                        })?;
                        trans.push(Outcome::new(a, stage, 1.0, false, target));
                    }
                }
                None => {
                    if self.model.is_instantaneous(a) || !self.model.is_enabled(a, &marking) {
                        continue;
                    }
                    // Unexpanded non-exponential activities keep the
                    // strict contract: explore fine, get a NaN-rate
                    // term, fail at the CTMC build.
                    self.full_completions(sink, ext, a, UNEXPANDED, scratch, trans)?;
                }
            }
        }
        scratch.mpool.push(marking);
        Ok(())
    }

    /// Distributes the probability mass of a possibly-vanishing marking
    /// over the tangible markings its instantaneous chains lead to.
    /// Iterative (explicit worklist) so deep instantaneous cascades
    /// cannot overflow the call stack. The worklist carries `Marking`s
    /// end to end — no token-vector round-trips on this hot path — and
    /// the worklist/race buffers are caller-provided scratch, reused
    /// across every resolution a worker performs.
    fn full_resolve_vanishing(
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

/// The delta path against the oracle: whole explored spaces, bit for
/// bit.
mod tests {
    use ctsim_san::{Activity, Case, InputGate, OutputGate, PlaceId, SanBuilder};
    use ctsim_stoch::SimRng;
    use proptest::prelude::*;

    use super::super::super::StateSpace;
    use super::*;
    use crate::spill::{DedupMode, SpillOptions};
    use crate::Ctmc;

    /// Everything an exploration produces, in comparable form: packed
    /// states, initial distribution, absorbing marks, every transition
    /// row, and the CSR generator where the chain is Markovian.
    /// `(activity, target, completes, prob bits, rate bits)`.
    type Row = Vec<(usize, usize, bool, u64, u64)>;
    /// `(row_ptr, cols, value bits, diagonal bits)`.
    type CsrBits = (Vec<usize>, Vec<usize>, Vec<u64>, Vec<u64>);

    #[derive(Debug, PartialEq)]
    struct Explored {
        packed: Vec<u64>,
        initial: Vec<(usize, u64)>,
        absorbing: Vec<bool>,
        rows: Vec<Row>,
        csr: Option<CsrBits>,
    }

    type Absorb<'a> = Option<&'a (dyn Fn(&Marking) -> bool + Sync)>;

    fn explored(
        model: &SanModel,
        opts: &ReachOptions,
        absorb: Absorb<'_>,
    ) -> Result<Explored, String> {
        let ss = match absorb {
            Some(f) => StateSpace::explore_absorbing(model, opts, f),
            None => StateSpace::explore(model, opts),
        }
        .map_err(|e| e.to_string())?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        Ok(Explored {
            packed: ss.packed_words(),
            initial: ss.initial.iter().map(|&(i, p)| (i, p.to_bits())).collect(),
            absorbing: ss.absorbing.clone(),
            rows: (0..ss.len())
                .map(|s| {
                    ss.outgoing(s)
                        .iter()
                        .map(|t| {
                            (
                                t.activity.index(),
                                t.target,
                                t.completes,
                                t.prob.to_bits(),
                                t.rate.to_bits(),
                            )
                        })
                        .collect()
                })
                .collect(),
            csr: Ctmc::from_state_space(&ss).ok().map(|q| {
                let (row_ptr, cols, values, diag) = q.csr_owned();
                (row_ptr, cols, bits(&values), bits(&diag))
            }),
        })
    }

    /// A random closed job shop in the shape of the paper's model (and
    /// of `san::sim`'s differential test): jobs queue for shared
    /// resource places through instantaneous acquires — equal and mixed
    /// priorities, unequal weights, some with a second `balk` case —
    /// are served by timed two-case activities that release the
    /// resource and finish or retry, and recycle. A `hold` place,
    /// raised through an output gate and lowered by timed activities,
    /// inhibits some acquires and services through gate predicates, and
    /// a priority-3 instantaneous `flush` with a two-place read set
    /// clears `done` places through its gate function. Jobs wait at
    /// time zero, so the initial marking is vanishing. Returns the
    /// model and two `done` places for an absorbing predicate.
    fn random_shop(shape: u64) -> (SanModel, [PlaceId; 2]) {
        let mut g = SimRng::new(shape);
        let mut pick = |n: usize| g.index(n);
        let mut b = SanBuilder::new("shop");
        let resources: Vec<PlaceId> = (0..1 + pick(2))
            .map(|r| b.place(format!("res{r}"), 1 + pick(2) as u32))
            .collect();
        let hold = b.place("hold", 0);
        let jobs = 2 + pick(3);
        let wait: Vec<PlaceId> = (0..jobs)
            .map(|j| b.place(format!("wait{j}"), pick(3) as u32))
            .collect();
        let done: Vec<PlaceId> = (0..jobs).map(|j| b.place(format!("done{j}"), 0)).collect();
        let unheld = move || InputGate::predicate(vec![hold], move |m: &Marking| m.get(hold) == 0);
        let dist = |k: usize, scale: f64| match k {
            0 => Dist::Det(0.25 * scale),
            1 => Dist::Exp { mean: 0.4 * scale },
            2 => Dist::bimodal(
                0.8,
                (0.05 * scale, 0.08 * scale),
                (0.095 * scale, 0.3 * scale),
            ),
            _ => Dist::Uniform {
                lo: 0.1 * scale,
                hi: 0.6 * scale,
            },
        };
        for j in 0..jobs {
            let res = resources[pick(resources.len())];
            let busy = b.place(format!("busy{j}"), 0);
            let mut acquire = Activity::instantaneous(format!("acquire{j}"))
                .priority([0, 0, 0, 1, 2][pick(5)])
                .weight([0.5, 1.0, 2.0, 3.5][pick(4)]);
            acquire = if pick(2) == 0 {
                acquire.input(res, 1).input(wait[j], 1)
            } else {
                acquire.input(wait[j], 1).input(res, 1)
            };
            if pick(4) == 0 {
                acquire = acquire.input_gate(unheld());
            }
            acquire = if pick(3) == 0 {
                acquire
                    .case(Case::with_prob(0.75).output(busy, 1))
                    .case(Case::with_prob(0.25).output(done[j], 1).output(res, 1))
            } else {
                acquire.case(Case::with_prob(1.0).output(busy, 1))
            };
            b.add_activity(acquire);
            let mut serve = Activity::timed(format!("serve{j}"), dist(pick(4), 1.0)).input(busy, 1);
            if pick(2) == 0 {
                serve = serve.input_gate(unheld());
            }
            let p_done = [0.5, 0.7, 0.9][pick(3)];
            b.add_activity(
                serve
                    .case(Case::with_prob(p_done).output(done[j], 1).output(res, 1))
                    .case(
                        Case::with_prob(1.0 - p_done)
                            .output(wait[j], 1)
                            .output(res, 1),
                    ),
            );
            b.add_activity(
                Activity::timed(format!("recycle{j}"), dist(pick(4), 2.0))
                    .input(done[j], 1)
                    .case(Case::with_prob(1.0).output(wait[pick(jobs)], 1)),
            );
        }
        b.add_activity(
            Activity::timed("raise", dist(pick(4), 3.0))
                .input_gate(unheld())
                .case(
                    Case::with_prob(1.0).gate(OutputGate::new(vec![hold], move |m| m.set(hold, 1))),
                ),
        );
        b.add_activity(Activity::timed("lower", dist(pick(4), 1.5)).input(hold, 1));
        let (da, db, back) = (done[pick(jobs)], done[pick(jobs)], wait[pick(jobs)]);
        b.add_activity(
            Activity::instantaneous("flush")
                .priority(3)
                .input_gate(
                    InputGate::predicate(vec![da, db], move |m| m.get(da) + m.get(db) >= 3)
                        .with_func(vec![da, db], move |m| {
                            m.set(da, 0);
                            m.set(db, 0);
                        }),
                )
                .case(Case::with_prob(1.0).output(back, 2)),
        );
        let model = b.build().expect("the shop is a valid model");
        (model, [done[0], done[jobs - 1]])
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

        /// Same states, initial distribution, absorbing marks, rows and
        /// generator as the full rescan — at every expansion order,
        /// with and without an absorbing predicate, and through the
        /// external-memory dedup path too.
        #[test]
        fn delta_successors_reproduce_the_full_rescan(
            shape in 0u64..1_000_000,
            ph_order in 0u32..4,
            absorbing in 0u8..2,
        ) {
            let (model, [da, db]) = random_shop(shape);
            let goal = move |m: &Marking| m.get(da) + m.get(db) >= 2;
            let absorb: Absorb<'_> = if absorbing == 1 { Some(&goal) } else { None };
            let opts = ReachOptions { ph_order, max_states: 30_000, ..ReachOptions::default() };
            let oracle = with_oracle(|| explored(&model, &opts, absorb));
            prop_assert_eq!(&explored(&model, &opts, absorb), &oracle);
            let external = ReachOptions {
                spill: Some(SpillOptions::with_budget(1 << 20).dedup(DedupMode::External)),
                threads: 2,
                ..opts
            };
            prop_assert_eq!(&explored(&model, &external, absorb), &oracle);
        }
    }

    /// The paper's own model, order 2 with the first-passage goal: the
    /// net the delta path was written for, at the size a debug build
    /// explores in a moment (n = 2).
    #[test]
    fn delta_successors_reproduce_the_full_rescan_on_the_consensus_model() {
        let params = ctsim_models::SanParams::paper_baseline(2);
        let model = ctsim_models::build_model(&params);
        let decided = ctsim_models::decided_place_ids(&model, 2);
        let goal = move |m: &Marking| decided.iter().any(|&d| m.get(d) > 0);
        for ph_order in 1..=3 {
            let opts = ReachOptions {
                ph_order,
                ..ReachOptions::default()
            };
            let oracle = with_oracle(|| explored(&model, &opts, Some(&goal)));
            assert_eq!(
                explored(&model, &opts, Some(&goal)),
                oracle,
                "order {ph_order}"
            );
            assert!(oracle.is_ok_and(|space| space.csr.is_some()));
        }
    }

    /// A completion that writes no place the completed activity reads:
    /// `tick` is enabled by a gate alone and its case is empty, so the
    /// change log does not bring it up for re-evaluation — it is the
    /// completed activity, and must re-enter its first phase anyway.
    #[test]
    fn a_completion_that_moves_nothing_still_reenters_its_phases() {
        let mut b = SanBuilder::new("m");
        let on = b.place("on", 1);
        b.add_activity(
            Activity::timed("tick", Dist::Det(1.0))
                .input_gate(InputGate::predicate(vec![on], move |m| m.get(on) > 0)),
        );
        b.add_activity(Activity::timed("stop", Dist::Exp { mean: 5.0 }).input(on, 1));
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 3,
            ..ReachOptions::default()
        };
        let delta = explored(&m, &opts, None).unwrap();
        assert_eq!(
            Ok(&delta),
            with_oracle(|| explored(&m, &opts, None)).as_ref()
        );
        // Three phases of `tick` while `on`, and the stopped state.
        assert_eq!(delta.rows.len(), 4);
    }

    /// Three counters behind gate predicates: `a` and `b` climb by one
    /// to 17, `d` by twenty to 260. Every place starts at one bit, so
    /// `a` and `b` overflow at 2, 4 and 16 and `d` at 20 and 260 — each
    /// only when a successor's key is patched, on levels wide enough to
    /// be expanded by several workers.
    fn counters() -> (SanModel, [PlaceId; 3]) {
        let mut b = SanBuilder::new("counters");
        let places = [b.place("a", 0), b.place("b", 0), b.place("d", 0)];
        for (p, step, cap) in [(places[0], 1, 17), (places[1], 1, 17), (places[2], 20, 260)] {
            b.add_activity(
                Activity::timed(format!("inc{}", p.index()), Dist::Exp { mean: 1.0 })
                    .input_gate(InputGate::predicate(vec![p], move |m| m.get(p) < cap))
                    .case(Case::with_prob(1.0).output(p, step)),
            );
        }
        (b.build().unwrap(), places)
    }

    /// Overflow through the patch path: the places widen over several
    /// restarts of the exploration, and every thread count lands on the
    /// one-thread result (which is the oracle's).
    #[test]
    fn patched_overflow_widens_the_ladder_and_restarts() {
        let (model, [a, b, d]) = counters();
        let opts = |threads| ReachOptions {
            threads,
            ..ReachOptions::default()
        };
        let one = explored(&model, &opts(1), None).unwrap();
        assert_eq!(one.rows.len(), 18 * 18 * 14);
        assert_eq!(
            Ok(&one),
            with_oracle(|| explored(&model, &opts(1), None)).as_ref()
        );
        for threads in [2, 8] {
            assert_eq!(Ok(&one), explored(&model, &opts(threads), None).as_ref());
        }
        // The last state holds 17/17/260: `a` and `b` end on the 8-bit
        // rung, `d` on the 16-bit one, all in one word.
        let ss = StateSpace::explore(&model, &opts(2)).unwrap();
        assert_eq!(ss.words_per_state(), 1);
        let top = ss.tokens(ss.len() - 1);
        assert_eq!(
            [top[a.index()], top[b.index()], top[d.index()]],
            [17, 17, 260]
        );
    }

    /// The exploration twin of `san::sim`'s `lurker` test. `lurker`
    /// declares `q` but also reads `hidden`, which `setter` raises
    /// later in the same vanishing chain: the verdict carried over that
    /// firing goes stale, and the debug check must say why.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`lurker` is stale: a gate read set is probably incomplete")]
    fn incomplete_read_set_is_diagnosed() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let go = b.place("go", 0);
        let hidden = b.place("hidden", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1).output(go, 1)),
        );
        b.add_activity(
            Activity::instantaneous("setter")
                .input(go, 1)
                .case(Case::with_prob(1.0).output(hidden, 1)),
        );
        b.add_activity(
            Activity::instantaneous("lurker").input_gate(InputGate::predicate(vec![q], move |m| {
                m.get(q) > 0 && m.get(hidden) > 0
            })),
        );
        let m = b.build().unwrap();
        let _ = StateSpace::explore(&m, &ReachOptions::default());
    }

    /// The same guard on the phase counters: `sleeper` is expanded and
    /// its predicate reads `hidden` undeclared, so its carried counter
    /// says "disabled" in a marking where it is enabled.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`sleeper` is stale: a gate read set is probably incomplete")]
    fn incomplete_read_set_of_an_expanded_activity_is_diagnosed() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let hidden = b.place("hidden", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(hidden, 1)),
        );
        b.add_activity(
            Activity::timed("sleeper", Dist::Det(1.0))
                .input_gate(InputGate::predicate(vec![], move |m| m.get(hidden) > 0)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            ph_order: 2,
            ..ReachOptions::default()
        };
        let _ = StateSpace::explore(&m, &opts);
    }
}
