//! The transition record and the term table it points into.
//!
//! A reachability graph has a few transitions per state but only a few
//! hundred distinct *terms*: (activity, phase stage, branching
//! probability, completes) combinations — 1 930 132 transitions against
//! 170 terms at n = 3, order 2. The structural CSR therefore stores
//! one 8-byte (target, term id) entry per merged transition, and each
//! exploration builds its table of [`Term`]s, which carries the rates.
//!
//! A term is keyed by *structure* only: the stage is an index into the
//! activity's phase plan (or [`UNEXPANDED`]), never its rate, and a
//! rate-only change of the model never rewrites a probability. A fresh
//! exploration of a re-parameterised model therefore yields the same
//! edges and term ids as the rate-only rebuild
//! ([`StateSpace::rebuild_rates`](super::StateSpace::rebuild_rates)),
//! which rewrites only the table.

use ctsim_san::ActivityId;

use super::Transition;

/// The stage of a transition driven by an activity without a phase
/// plan: its rate is the model's `1/mean` (NaN when non-exponential).
pub(super) const UNEXPANDED: u32 = u32::MAX;

/// One outgoing transition as successor generation writes it into a
/// worker chain: the term's structural key plus the target in the
/// dedup strategy's numbering. Emission merges a row of these, files
/// each under its term and keeps only the target and the term id.
#[derive(Debug, Clone, Copy)]
pub(super) struct Outcome {
    /// Branching probability of this outcome.
    pub(super) prob: f64,
    /// Target id: provisional or candidate index until emission
    /// renumbers it, canonical after.
    pub(super) target: u32,
    /// Index of the driving activity.
    pub(super) activity: u32,
    /// Index into the activity's phase-plan rates, or [`UNEXPANDED`].
    pub(super) stage: u32,
    /// Whether this move completes the activity.
    pub(super) completes: bool,
}

impl Outcome {
    pub(super) fn new(
        a: ActivityId,
        stage: u32,
        prob: f64,
        completes: bool,
        target: usize,
    ) -> Self {
        debug_assert!(
            target <= u32::MAX as usize,
            "ids are capped to the u32 range"
        );
        Outcome {
            prob,
            target: target as u32,
            activity: a.index() as u32,
            stage,
            completes,
        }
    }
}

/// One entry of an exploration's term table: what every edge filed
/// under it shares. Only `rate` depends on the model's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// The timed activity whose (stage) completion drives the move.
    pub activity: ActivityId,
    /// Index into the activity's phase-plan rates, or [`UNEXPANDED`].
    pub(super) stage: u32,
    /// Branching probability of the outcome.
    pub prob: f64,
    /// Whether the move completes the activity (see [`Transition`]).
    pub completes: bool,
    /// Exponential stage rate (1/ms), derived from the model; NaN for
    /// an unexpanded non-exponential activity.
    pub rate: f64,
}

impl Term {
    /// The generator contribution of one edge of this term:
    /// `rate · prob`, the same product as [`Transition::q`].
    pub fn coeff(&self) -> f64 {
        self.rate * self.prob
    }

    /// Whether `other` is this term up to its rate: the structure a
    /// rate-only rebuild must keep.
    pub(crate) fn same_key(&self, other: &Term) -> bool {
        self.activity == other.activity
            && self.stage == other.stage
            && self.prob.to_bits() == other.prob.to_bits()
            && self.completes == other.completes
    }

    /// The decoded transition of an edge of this term.
    pub(super) fn decode(&self, target: u32) -> Transition {
        Transition {
            activity: self.activity,
            prob: self.prob,
            rate: self.rate,
            completes: self.completes,
            target: target as usize,
        }
    }
}

/// The term table under construction: ids in first-use order, looked
/// up per activity. An activity has a handful of terms, so a short
/// scan of its own list replaces a general hash per transition.
pub(super) struct TermTable {
    terms: Vec<Term>,
    /// Per activity index: the ids of its terms.
    by_activity: Vec<Vec<u32>>,
}

impl TermTable {
    pub(super) fn new(activities: usize) -> Self {
        TermTable {
            terms: Vec::new(),
            by_activity: vec![Vec::new(); activities],
        }
    }

    /// The id of `o`'s term, added on first use with the rate
    /// `rate(activity, stage)`.
    pub(super) fn intern(&mut self, o: &Outcome, rate: impl FnOnce(ActivityId, u32) -> f64) -> u32 {
        let ids = &mut self.by_activity[o.activity as usize];
        for &id in ids.iter() {
            let t = &self.terms[id as usize];
            if t.stage == o.stage
                && t.completes == o.completes
                && t.prob.to_bits() == o.prob.to_bits()
            {
                return id;
            }
        }
        let id = u32::try_from(self.terms.len()).expect("term ids fit a u32");
        let activity = ActivityId::from_index(o.activity as usize);
        self.terms.push(Term {
            activity,
            stage: o.stage,
            prob: o.prob,
            completes: o.completes,
            rate: rate(activity, o.stage),
        });
        ids.push(id);
        id
    }

    /// The finished table (the per-activity index is dropped).
    pub(super) fn finish(self) -> Vec<Term> {
        self.terms
    }
}
