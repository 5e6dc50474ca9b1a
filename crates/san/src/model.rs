//! SAN model specification: places, activities, gates, cases, and the
//! builder that assembles them into an immutable [`SanModel`].

use std::collections::HashMap;
use std::fmt;

use ctsim_stoch::Dist;

/// Identifies a place within one [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

/// Identifies an activity within one [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) usize);

impl PlaceId {
    /// The raw index of this place (stable over the model's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

impl ActivityId {
    /// The raw index of this activity (stable over the model's lifetime).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a raw index previously obtained through
    /// [`ActivityId::index`] — for compact serialized forms (e.g. the
    /// solver's disk-spilled transition records). Only meaningful for
    /// the model the index came from.
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

/// The token count of every place: the SAN's state.
#[derive(Debug, PartialEq, Eq)]
pub struct Marking {
    tokens: Vec<u32>,
    // Places written since the last `drain_changed` / `assign`: what
    // both engines drive their incremental enabling checks from (the
    // simulator drains it per firing, the solver lets it accumulate
    // from a source state to each of its successors).
    changed: Vec<usize>,
}

impl Clone for Marking {
    fn clone(&self) -> Self {
        Self {
            tokens: self.tokens.clone(),
            changed: self.changed.clone(),
        }
    }

    /// Copies tokens *and* change log into `self`'s existing buffers,
    /// so hot loops that recycle markings allocate nothing.
    fn clone_from(&mut self, source: &Self) {
        self.tokens.clone_from(&source.tokens);
        self.changed.clone_from(&source.changed);
    }
}

impl Marking {
    pub(crate) fn new(initial: &[u32]) -> Self {
        Self {
            tokens: initial.to_vec(),
            changed: Vec::new(),
        }
    }

    /// Reinitialises this marking in place from a token vector,
    /// reusing its buffers — the allocation-free counterpart of
    /// [`SanModel::marking_from`] for hot loops that recycle markings
    /// (e.g. the analytic solver's state expansion).
    pub fn assign(&mut self, tokens: &[u32]) {
        self.tokens.clear();
        self.tokens.extend_from_slice(tokens);
        self.changed.clear();
    }

    /// The number of tokens in `place`.
    ///
    /// # Panics
    /// Panics if `place` belongs to a different model.
    pub fn get(&self, place: PlaceId) -> u32 {
        self.tokens[place.0]
    }

    /// Sets the number of tokens in `place`.
    pub fn set(&mut self, place: PlaceId, value: u32) {
        if self.tokens[place.0] != value {
            self.tokens[place.0] = value;
            self.changed.push(place.0);
        }
    }

    /// Adds `n` tokens to `place`.
    pub fn add(&mut self, place: PlaceId, n: u32) {
        if n > 0 {
            self.tokens[place.0] += n;
            self.changed.push(place.0);
        }
    }

    /// Removes `n` tokens from `place`.
    ///
    /// # Panics
    /// Panics if the place holds fewer than `n` tokens — that would be a
    /// modelling error (an activity fired while not enabled).
    pub fn remove(&mut self, place: PlaceId, n: u32) {
        let cur = self.tokens[place.0];
        assert!(
            cur >= n,
            "removing {n} tokens from place #{} holding {cur}",
            place.0
        );
        if n > 0 {
            self.tokens[place.0] = cur - n;
            self.changed.push(place.0);
        }
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.tokens.len()
    }

    /// The raw token vector, indexed by place (the SAN state as a flat
    /// slice — what analytic solvers key their state maps on).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Sum of tokens over all places (useful for conservation checks).
    pub fn total_tokens(&self) -> u64 {
        self.tokens.iter().map(|&t| t as u64).sum()
    }

    /// The change log: the index ([`PlaceId::index`]) of every place
    /// written since this marking was created, [`assign`](Self::assign)ed
    /// or last drained by the simulator — in write order, a place once
    /// per write. A clone carries its source's log along, so a chain of
    /// clone-and-fire steps accumulates every place that may differ
    /// from the marking the chain started at.
    pub fn changed_places(&self) -> &[usize] {
        &self.changed
    }

    pub(crate) fn drain_changed(&mut self, out: &mut Vec<usize>) {
        out.append(&mut self.changed);
    }
}

/// How an activity completes.
pub enum Timing {
    /// Completes after a random delay drawn from the distribution
    /// (milliseconds) each time the activity becomes enabled.
    Timed(Dist),
    /// Completes immediately; `priority` orders concurrent instantaneous
    /// activities (higher first), `weight` resolves equal-priority races
    /// proportionally.
    Instantaneous { priority: u32, weight: f64 },
}

impl fmt::Debug for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Timing::Timed(d) => write!(f, "Timed({d:?})"),
            Timing::Instantaneous { priority, weight } => {
                write!(f, "Instantaneous(prio={priority}, w={weight})")
            }
        }
    }
}

// Gate closures are `Send + Sync` so a built model can be shared across
// replication worker threads and solver passes.
type PredFn = Box<dyn Fn(&Marking) -> bool + Send + Sync>;
type MarkFn = Box<dyn Fn(&mut Marking) + Send + Sync>;

/// An input gate: an enabling predicate plus a marking-changing function
/// run when the activity completes.
///
/// The `reads` set must list every place the predicate looks at: both
/// engines re-evaluate the predicate only when one of them changes —
/// the simulator between firings, the analytic exploration between a
/// state and its successors — so a place the predicate reads but does
/// not declare leaves a stale verdict behind and a silently wrong
/// trajectory or reachability graph. Debug builds of both engines
/// re-evaluate every activity and panic naming the one whose verdict
/// went stale; release builds do not look.
/// The `writes` set must list every place the function may change.
pub struct InputGate {
    pub(crate) reads: Vec<PlaceId>,
    pub(crate) writes: Vec<PlaceId>,
    pub(crate) pred: PredFn,
    pub(crate) func: Option<MarkFn>,
}

impl InputGate {
    /// A gate with only a predicate (no marking change on completion).
    pub fn predicate(
        reads: impl Into<Vec<PlaceId>>,
        pred: impl Fn(&Marking) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            reads: reads.into(),
            writes: Vec::new(),
            pred: Box::new(pred),
            func: None,
        }
    }

    /// Attaches a completion function that may write the given places.
    pub fn with_func(
        mut self,
        writes: impl Into<Vec<PlaceId>>,
        func: impl Fn(&mut Marking) + Send + Sync + 'static,
    ) -> Self {
        self.writes = writes.into();
        self.func = Some(Box::new(func));
        self
    }
}

impl fmt::Debug for InputGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InputGate")
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish_non_exhaustive()
    }
}

/// An output gate: a marking-changing function attached to a case.
pub struct OutputGate {
    pub(crate) writes: Vec<PlaceId>,
    pub(crate) func: MarkFn,
}

impl OutputGate {
    /// Creates an output gate writing the declared places.
    pub fn new(
        writes: impl Into<Vec<PlaceId>>,
        func: impl Fn(&mut Marking) + Send + Sync + 'static,
    ) -> Self {
        Self {
            writes: writes.into(),
            func: Box::new(func),
        }
    }
}

impl fmt::Debug for OutputGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OutputGate")
            .field("writes", &self.writes)
            .finish_non_exhaustive()
    }
}

/// One probabilistic outcome of an activity.
#[derive(Debug, Default)]
pub struct Case {
    pub(crate) prob: f64,
    pub(crate) outputs: Vec<(PlaceId, u32)>,
    pub(crate) gates: Vec<OutputGate>,
}

impl Case {
    /// A case selected with the given probability. Probabilities of all
    /// cases of an activity must sum to 1 (validated by the builder).
    pub fn with_prob(prob: f64) -> Self {
        Self {
            prob,
            outputs: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Deposits `n` tokens into `place` when this case is selected.
    pub fn output(mut self, place: PlaceId, n: u32) -> Self {
        self.outputs.push((place, n));
        self
    }

    /// Attaches an output gate to this case.
    pub fn gate(mut self, gate: OutputGate) -> Self {
        self.gates.push(gate);
        self
    }
}

/// An activity under construction (consuming builder).
#[derive(Debug)]
pub struct Activity {
    pub(crate) name: String,
    pub(crate) timing: Timing,
    pub(crate) inputs: Vec<(PlaceId, u32)>,
    pub(crate) input_gates: Vec<InputGate>,
    pub(crate) cases: Vec<Case>,
}

impl Activity {
    /// A timed activity with the given delay distribution (milliseconds).
    pub fn timed(name: impl Into<String>, dist: Dist) -> Self {
        Self {
            name: name.into(),
            timing: Timing::Timed(dist),
            inputs: Vec::new(),
            input_gates: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// An instantaneous activity with default priority 0 and weight 1.
    pub fn instantaneous(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            timing: Timing::Instantaneous {
                priority: 0,
                weight: 1.0,
            },
            inputs: Vec::new(),
            input_gates: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// Sets the priority of an instantaneous activity (higher fires
    /// first). No effect on timed activities.
    pub fn priority(mut self, priority: u32) -> Self {
        if let Timing::Instantaneous { priority: p, .. } = &mut self.timing {
            *p = priority;
        }
        self
    }

    /// Sets the race weight of an instantaneous activity.
    pub fn weight(mut self, weight: f64) -> Self {
        if let Timing::Instantaneous { weight: w, .. } = &mut self.timing {
            *w = weight;
        }
        self
    }

    /// Adds an input arc: the activity needs `n` tokens in `place` to be
    /// enabled and consumes them on completion.
    pub fn input(mut self, place: PlaceId, n: u32) -> Self {
        self.inputs.push((place, n));
        self
    }

    /// Adds an input gate.
    pub fn input_gate(mut self, gate: InputGate) -> Self {
        self.input_gates.push(gate);
        self
    }

    /// Adds a case. An activity with no explicit case gets a single
    /// empty case with probability 1.
    pub fn case(mut self, case: Case) -> Self {
        self.cases.push(case);
        self
    }
}

pub(crate) struct ActivityDef {
    pub(crate) name: String,
    pub(crate) timing: Timing,
    pub(crate) inputs: Vec<(PlaceId, u32)>,
    pub(crate) input_gates: Vec<InputGate>,
    pub(crate) cases: Vec<Case>,
}

/// Errors detected while assembling a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Two places were declared with the same name.
    DuplicatePlace(String),
    /// An activity's case probabilities do not sum to 1.
    BadCaseProbabilities(String),
    /// An activity has neither input arcs nor input gates, so it would
    /// be permanently enabled (or permanently dead); almost always a bug.
    NoEnablingCondition(String),
    /// A case probability is negative or not finite.
    BadProbability(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicatePlace(n) => write!(f, "duplicate place name `{n}`"),
            ModelError::BadCaseProbabilities(n) => {
                write!(f, "case probabilities of activity `{n}` do not sum to 1")
            }
            ModelError::NoEnablingCondition(n) => {
                write!(f, "activity `{n}` has no input arcs and no input gates")
            }
            ModelError::BadProbability(n) => {
                write!(
                    f,
                    "activity `{n}` has a negative or non-finite case probability"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// An immutable, validated SAN model, ready for simulation.
pub struct SanModel {
    pub(crate) name: String,
    pub(crate) place_names: Vec<String>,
    pub(crate) initial: Vec<u32>,
    pub(crate) activities: Vec<ActivityDef>,
    /// place index -> activities whose enabling depends on that place.
    pub(crate) dependents: Vec<Vec<ActivityId>>,
    /// activity index -> whether it is instantaneous: what the simulator
    /// asks of every dependent it visits, without loading the definition.
    pub(crate) instantaneous: Vec<bool>,
    /// activity index -> what [`SanModel::examine`] says to watch in the
    /// initial marking: the time-zero half of the simulator's enabling
    /// cache, taken once per model instead of once per replication.
    pub(crate) initial_watch: Vec<u32>,
    /// The activities enabled in the initial marking, declaration order.
    pub(crate) initial_enabled: Vec<ActivityId>,
}

/// Watch value meaning "any dependency": every input arc was satisfied
/// when the activity was examined. Place indices stay below it.
pub(crate) const WATCH_ANY: u32 = u32::MAX;

impl fmt::Debug for SanModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanModel")
            .field("name", &self.name)
            .field("places", &self.place_names.len())
            .field("activities", &self.activities.len())
            .finish()
    }
}

impl SanModel {
    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of activities.
    pub fn num_activities(&self) -> usize {
        self.activities.len()
    }

    /// The name of a place.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.place_names[p.0]
    }

    /// The name of an activity.
    pub fn activity_name(&self, a: ActivityId) -> &str {
        &self.activities[a.0].name
    }

    /// Looks up a place by name.
    pub fn place(&self, name: &str) -> Option<PlaceId> {
        self.place_names.iter().position(|n| n == name).map(PlaceId)
    }

    /// Looks up an activity by name.
    pub fn activity(&self, name: &str) -> Option<ActivityId> {
        self.activities
            .iter()
            .position(|a| a.name == name)
            .map(ActivityId)
    }

    /// A fresh marking initialised to the model's initial marking.
    pub fn initial_marking(&self) -> Marking {
        Marking::new(&self.initial)
    }

    /// A marking holding the given token vector — the entry point for
    /// analytic solvers that materialise states from a reachability
    /// graph rather than by simulation.
    ///
    /// # Panics
    /// Panics if `tokens` does not have one entry per place.
    pub fn marking_from(&self, tokens: &[u32]) -> Marking {
        assert_eq!(
            tokens.len(),
            self.place_names.len(),
            "token vector length must match the number of places"
        );
        Marking::new(tokens)
    }

    /// Iterates over every activity id, in declaration order.
    pub fn activity_ids(&self) -> impl Iterator<Item = ActivityId> {
        (0..self.activities.len()).map(ActivityId)
    }

    /// The timing (timed distribution or instantaneous priority/weight)
    /// of an activity.
    pub fn timing(&self, activity: ActivityId) -> &Timing {
        &self.activities[activity.0].timing
    }

    /// Number of probabilistic cases of an activity (at least 1).
    pub fn num_cases(&self, activity: ActivityId) -> usize {
        self.activities[activity.0].cases.len()
    }

    /// The probability of one case of an activity.
    pub fn case_prob(&self, activity: ActivityId, case: usize) -> f64 {
        self.activities[activity.0].cases[case].prob
    }

    /// Completes `activity` in `marking` with the given case index:
    /// removes input-arc tokens, runs input-gate functions, deposits the
    /// case's output-arc tokens, and runs its output-gate functions.
    ///
    /// This is the deterministic core of a completion — the simulator
    /// layers random case selection on top; analytic solvers instead
    /// enumerate every case with its probability.
    ///
    /// # Panics
    /// Panics if the activity is not enabled (input-arc underflow) or
    /// `case` is out of range.
    pub fn fire_case(&self, marking: &mut Marking, activity: ActivityId, case: usize) {
        let def = &self.activities[activity.0];
        for &(p, n) in &def.inputs {
            marking.remove(p, n);
        }
        for g in &def.input_gates {
            if let Some(f) = &g.func {
                f(marking);
            }
        }
        let case = &def.cases[case];
        for &(p, n) in &case.outputs {
            marking.add(p, n);
        }
        for og in &case.gates {
            (og.func)(marking);
        }
    }

    /// The activities whose enabling can change when the place with
    /// index `place` ([`PlaceId::index`]) is written: those with an
    /// input arc from it or an input gate declaring it in `reads`,
    /// declaration order. The one dependency index both the simulator
    /// and the analytic exploration re-evaluate enabling from.
    pub fn dependents(&self, place: usize) -> &[ActivityId] {
        &self.dependents[place]
    }

    /// Whether `activity` is instantaneous — without loading its
    /// definition, which is what a walk over [`Self::dependents`] wants.
    pub fn is_instantaneous(&self, activity: ActivityId) -> bool {
        self.instantaneous[activity.0]
    }

    /// Checks whether `activity` is enabled in `marking`: all input arcs
    /// satisfied and all input-gate predicates true.
    pub fn is_enabled(&self, activity: ActivityId, marking: &Marking) -> bool {
        let def = &self.activities[activity.0];
        def.inputs.iter().all(|&(p, n)| marking.get(p) >= n)
            && def.input_gates.iter().all(|g| (g.pred)(marking))
    }

    /// The simulator's enabling rule: whether `activity` is enabled in
    /// `marking`, and which marking change can overturn that verdict —
    /// the place of the first input arc `marking` cannot satisfy, or
    /// [`WATCH_ANY`] when every arc is satisfied and the verdict rests on
    /// the gate predicates.
    #[inline]
    pub(crate) fn examine(&self, activity: ActivityId, marking: &Marking) -> (u32, bool) {
        let def = &self.activities[activity.0];
        if let Some(&(p, _)) = def.inputs.iter().find(|&&(p, n)| marking.get(p) < n) {
            return (p.0 as u32, false);
        }
        (WATCH_ANY, def.input_gates.iter().all(|g| (g.pred)(marking)))
    }
}

/// Assembles a [`SanModel`].
///
/// Place names are unique; [`SanBuilder::shared_place`] returns the
/// existing place when the name is already taken, which is exactly the
/// UltraSAN *Join* mechanism (submodels communicate through common
/// places).
pub struct SanBuilder {
    name: String,
    place_names: Vec<String>,
    by_name: HashMap<String, PlaceId>,
    initial: Vec<u32>,
    activities: Vec<ActivityDef>,
}

impl fmt::Debug for SanBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanBuilder")
            .field("name", &self.name)
            .field("places", &self.place_names.len())
            .field("activities", &self.activities.len())
            .finish()
    }
}

impl SanBuilder {
    /// Creates an empty builder for a model called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            place_names: Vec::new(),
            by_name: HashMap::new(),
            initial: Vec::new(),
            activities: Vec::new(),
        }
    }

    /// Declares a new place with an initial marking.
    ///
    /// # Panics
    /// Panics if the name is already taken — use
    /// [`SanBuilder::shared_place`] for Join-style sharing.
    pub fn place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate place `{name}` (use shared_place for joins)"
        );
        let id = PlaceId(self.place_names.len());
        self.by_name.insert(name.clone(), id);
        self.place_names.push(name);
        self.initial.push(initial);
        id
    }

    /// Declares a place, or returns the existing one with that name
    /// (Join semantics). If the place exists, its initial marking is
    /// left unchanged.
    pub fn shared_place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        self.place(name, initial)
    }

    /// Looks up a previously declared place.
    pub fn find_place(&self, name: &str) -> Option<PlaceId> {
        self.by_name.get(name).copied()
    }

    /// Overrides the initial marking of an existing place (used to set
    /// up crash scenarios without rebuilding gate closures).
    pub fn set_initial(&mut self, place: PlaceId, tokens: u32) {
        self.initial[place.0] = tokens;
    }

    /// Adds an activity.
    pub fn add_activity(&mut self, act: Activity) -> ActivityId {
        let id = ActivityId(self.activities.len());
        let cases = if act.cases.is_empty() {
            vec![Case::with_prob(1.0)]
        } else {
            act.cases
        };
        self.activities.push(ActivityDef {
            name: act.name,
            timing: act.timing,
            inputs: act.inputs,
            input_gates: act.input_gates,
            cases,
        });
        id
    }

    /// Number of places declared so far.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Validates and freezes the model.
    ///
    /// # Errors
    /// Returns a [`ModelError`] if case probabilities of any activity do
    /// not sum to 1, a probability is invalid, or an activity has no
    /// enabling condition at all.
    pub fn build(self) -> Result<SanModel, ModelError> {
        for act in &self.activities {
            if act.inputs.is_empty() && act.input_gates.is_empty() {
                return Err(ModelError::NoEnablingCondition(act.name.clone()));
            }
            let mut sum = 0.0;
            for c in &act.cases {
                if !c.prob.is_finite() || c.prob < 0.0 {
                    return Err(ModelError::BadProbability(act.name.clone()));
                }
                sum += c.prob;
            }
            if (sum - 1.0).abs() > 1e-9 {
                return Err(ModelError::BadCaseProbabilities(act.name.clone()));
            }
        }
        // Dependency index: which activities must be re-checked when a
        // place changes. Input arcs and gate read sets contribute.
        let mut dependents: Vec<Vec<ActivityId>> = vec![Vec::new(); self.place_names.len()];
        for (i, act) in self.activities.iter().enumerate() {
            let id = ActivityId(i);
            let mut deps: Vec<usize> = act
                .inputs
                .iter()
                .map(|&(p, _)| p.0)
                .chain(
                    act.input_gates
                        .iter()
                        .flat_map(|g| g.reads.iter().map(|p| p.0)),
                )
                .collect();
            deps.sort_unstable();
            deps.dedup();
            for p in deps {
                dependents[p].push(id);
            }
        }
        let instantaneous = self
            .activities
            .iter()
            .map(|a| matches!(a.timing, Timing::Instantaneous { .. }))
            .collect();
        assert!(
            self.place_names.len() < WATCH_ANY as usize,
            "place indices must fit the watch field"
        );
        let mut model = SanModel {
            name: self.name,
            place_names: self.place_names,
            initial: self.initial,
            initial_watch: Vec::with_capacity(self.activities.len()),
            activities: self.activities,
            dependents,
            instantaneous,
            initial_enabled: Vec::new(),
        };
        // The time-zero examination every replication would otherwise
        // repeat.
        let marking = model.initial_marking();
        for a in model.activity_ids() {
            let (watch, enabled) = model.examine(a, &marking);
            model.initial_watch.push(watch);
            if enabled {
                model.initial_enabled.push(a);
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsim_stoch::Dist;

    #[test]
    fn places_are_named_and_unique() {
        let mut b = SanBuilder::new("m");
        let p = b.place("a", 2);
        let q = b.shared_place("a", 5); // join: same place, initial kept
        assert_eq!(p, q);
        let model_place_count = b.num_places();
        assert_eq!(model_place_count, 1);
        let r = b.shared_place("b", 0);
        assert_ne!(p, r);
    }

    #[test]
    #[should_panic(expected = "duplicate place")]
    fn duplicate_place_panics() {
        let mut b = SanBuilder::new("m");
        b.place("a", 0);
        b.place("a", 0);
    }

    #[test]
    fn build_validates_case_probabilities() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        b.add_activity(
            Activity::timed("t", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(0.5))
                .case(Case::with_prob(0.2)),
        );
        match b.build() {
            Err(ModelError::BadCaseProbabilities(name)) => assert_eq!(name, "t"),
            other => panic!("expected BadCaseProbabilities, got {other:?}"),
        }
    }

    #[test]
    fn build_rejects_unconditioned_activity() {
        let mut b = SanBuilder::new("m");
        b.place("p", 1);
        b.add_activity(Activity::timed("t", Dist::Det(1.0)));
        assert!(matches!(b.build(), Err(ModelError::NoEnablingCondition(_))));
    }

    #[test]
    fn build_rejects_negative_probability() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        b.add_activity(
            Activity::timed("t", Dist::Det(1.0))
                .input(p, 1)
                .case(Case::with_prob(-0.5))
                .case(Case::with_prob(1.5)),
        );
        assert!(matches!(b.build(), Err(ModelError::BadProbability(_))));
    }

    #[test]
    fn default_case_is_added() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        b.add_activity(Activity::timed("t", Dist::Det(1.0)).input(p, 1));
        let m = b.build().unwrap();
        assert_eq!(m.activities[0].cases.len(), 1);
        assert_eq!(m.activities[0].cases[0].prob, 1.0);
    }

    #[test]
    fn marking_accessors_and_conservation_counter() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 3);
        let q = b.place("q", 0);
        let m = b.build().unwrap();
        let mut mk = m.initial_marking();
        assert_eq!(mk.get(p), 3);
        mk.remove(p, 1);
        mk.add(q, 1);
        assert_eq!(mk.total_tokens(), 3);
        mk.set(q, 5);
        assert_eq!(mk.get(q), 5);
    }

    #[test]
    #[should_panic(expected = "removing")]
    fn marking_underflow_panics() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 0);
        let m = b.build().unwrap();
        let mut mk = m.initial_marking();
        mk.remove(p, 1);
    }

    #[test]
    fn is_enabled_checks_arcs_and_gates() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let k = b.place("k", 0);
        let a = b.add_activity(
            Activity::timed("t", Dist::Det(1.0))
                .input(p, 1)
                .input_gate(InputGate::predicate(vec![k], move |m| m.get(k) == 0)),
        );
        let m = b.build().unwrap();
        let mut mk = m.initial_marking();
        assert!(m.is_enabled(a, &mk));
        mk.add(k, 1);
        assert!(!m.is_enabled(a, &mk));
        mk.set(k, 0);
        mk.remove(p, 1);
        assert!(!m.is_enabled(a, &mk));
    }

    #[test]
    fn lookup_by_name() {
        let mut b = SanBuilder::new("m");
        let p = b.place("some_place", 0);
        b.add_activity(Activity::instantaneous("go").input(p, 1));
        let m = b.build().unwrap();
        assert_eq!(m.place("some_place"), Some(p));
        assert_eq!(m.place("nope"), None);
        assert_eq!(m.activity("go").map(|a| a.index()), Some(0));
        assert_eq!(m.activity("stop"), None);
        assert_eq!(m.place_name(p), "some_place");
    }

    #[test]
    fn dependents_index_covers_arcs_and_gate_reads() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 1);
        let r = b.place("r", 0);
        let a = b.add_activity(
            Activity::timed("t", Dist::Det(1.0))
                .input(p, 1)
                .input_gate(InputGate::predicate(vec![q], move |m| m.get(q) > 0)),
        );
        let m = b.build().unwrap();
        assert_eq!(m.dependents[p.index()], vec![a]);
        assert_eq!(m.dependents[q.index()], vec![a]);
        assert!(m.dependents[r.index()].is_empty());
    }
}
