//! The matrix-free generator: a factored activity-term descriptor in
//! the Kronecker/Stewart tradition.
//!
//! # Representation
//!
//! The classic SAN route (Plateau/Stewart descriptors) writes the
//! generator of a composed model as a sum of Kronecker products of
//! small per-component matrices — local terms for component-private
//! activities, synchronizing terms for activities shared across
//! components. The consensus model is such a composition
//! (`crates/san/compose.rs` namespaces each replica's places and
//! activities; the network/broadcast activities touch shared places),
//! but its input gates are arbitrary Rust closures over the global
//! marking, so the *potential* product space (every combination of
//! component-local markings) is astronomically larger than the
//! reachable set — the textbook shuffle over the product space would
//! multiply mostly zeros.
//!
//! This module therefore keeps the *factored* half of the idea and
//! drops the product-space half: the generator over the **reachable**
//! states is stored as
//!
//! ```text
//! Q = Σ_g coeff_g · S_g
//! ```
//!
//! where `g` ranges over **activity terms** — one per distinct
//! (activity, stage rate, branching probability) triple, i.e. the
//! per-replica local activities and the synchronizing network
//! activities of the composition, split per phase stage and per case —
//! and `S_g` is a purely *structural* 0/1 incidence pattern. Every
//! stored transition is then two `u32`s (destination + term id)
//! instead of the CSR's `usize + f64` (8 B vs 16 B per entry), and the
//! handful of `coeff_g` values carry all the rates: rate-only
//! re-parameterizations rewrite the small coefficient table without
//! touching the (large) structure, and exploration no longer needs to
//! materialize a per-transition rate array at all — states stop
//! carrying rates (see `StateSpace::explore_absorbing_gen`).
//!
//! # Matvec
//!
//! Both operator products are the same sharded, nnz-balanced gather
//! loops as the CSR kernels in the `spmv` module — each output
//! element is summed by exactly one worker in a fixed order, so the
//! result is bit-identical for every thread count. The forward (row)
//! product walks the structural rows; the transposed product — the
//! `x·Q` the uniformization loop needs — walks a
//! lazily built, cached transposed index (the descriptor analogue of
//! [`Ctmc::incoming_view`](crate::Ctmc::incoming_view)). Solves that
//! only need the forward orientation (the absorption/first-passage
//! path that produces the paper's latency means) never build it, so
//! their peak heap stays at the 8 B/entry structural floor.
//!
//! The numerical results agree with the CSR path to solver tolerance,
//! not bit-for-bit: the CSR merges parallel transitions into one
//! per-destination rate at build time, while the descriptor keeps one
//! entry per activity term and sums at matvec time, so the
//! floating-point summation grouping differs.
//! `tests/generator_equivalence.rs` pins both products element-wise
//! to 1e-9 relative.
//!
//! No run path builds this descriptor: [`AnalyticRun`](crate::AnalyticRun)
//! solves on the CSR matrix. It is reached only through
//! [`StateSpace::explore_absorbing_gen`] by the benchmark's `kron.*`
//! rows and the tests.

use std::collections::HashMap;
use std::sync::OnceLock;

use ctsim_san::ActivityId;

use crate::graph::{StateSpace, Transition};
use crate::linop::LinOp;
use crate::{spmv, SolveError};

/// One activity term of the factored generator: a distinct
/// (activity, stage rate, branching probability) triple. Its
/// [`Term::coeff`] (= `rate · prob`) multiplies the term's structural
/// incidence pattern in the sum `Q = Σ_g coeff_g · S_g`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// The timed activity (composition-namespaced: per-replica local
    /// activities and shared synchronizing activities get distinct ids).
    pub activity: ActivityId,
    /// Exponential stage rate (1/ms) of the activity stage.
    pub rate: f64,
    /// Branching probability of this outcome.
    pub prob: f64,
}

impl Term {
    /// The generator contribution of one structural entry of this term.
    pub fn coeff(&self) -> f64 {
        self.rate * self.prob
    }
}

/// The cached transposed structural index: for each destination, its
/// predecessors (ascending) and the term each edge belongs to.
#[derive(Debug)]
struct Transpose {
    /// Column starts into `src`/`term` (length `n + 1`).
    col_ptr: Vec<usize>,
    /// Source-state ids, grouped by destination, ascending per column.
    src: Vec<u32>,
    /// Term ids parallel to `src`.
    term: Vec<u32>,
}

/// The matrix-free generator: structural transitions (destination +
/// term id, 8 B each) plus the small per-term coefficient table. See
/// the module docs for the representation and its trade-offs against
/// the materialized [`Ctmc`](crate::Ctmc).
#[derive(Debug)]
pub struct KronGenerator {
    /// Number of states.
    n: usize,
    /// Row starts into `dst`/`term` (length `n + 1`).
    row_ptr: Vec<usize>,
    /// Destination-state ids of the structural entries.
    dst: Vec<u32>,
    /// Term ids parallel to `dst`.
    term: Vec<u32>,
    /// `coeffs[g] = terms[g].coeff()`, split out so the matvec inner
    /// loop reads an 8 B table instead of 32 B `Term` records.
    coeffs: Vec<f64>,
    /// The activity terms, parallel to `coeffs`.
    terms: Vec<Term>,
    /// Diagonal entries `q_ii = -Σ_j≠i q_ij` (1/ms).
    diag: Vec<f64>,
    /// Initial probability distribution.
    initial: Vec<f64>,
    /// States with no outgoing rate.
    absorbing: Vec<bool>,
    /// Lazily built transposed index for `x·Q` / column access.
    transpose: OnceLock<Transpose>,
}

/// Row-by-row accumulation of a [`KronGenerator`] — the descriptor
/// counterpart of [`CtmcAcc`](crate::ctmc): the exploration pipeline
/// feeds it each canonical row as its BFS level is renumbered, and
/// [`KronGenerator::from_state_space`] drives it sequentially over an
/// already-explored graph, so both construction paths are identical by
/// construction.
pub(crate) struct KronAcc {
    row_ptr: Vec<usize>,
    dst: Vec<u32>,
    term: Vec<u32>,
    coeffs: Vec<f64>,
    terms: Vec<Term>,
    diag: Vec<f64>,
    /// Interns (activity, rate bits, prob bits) → term id.
    index: HashMap<(ActivityId, u64, u64), u32>,
}

impl KronAcc {
    pub(crate) fn new() -> Self {
        Self {
            row_ptr: vec![0],
            dst: Vec::new(),
            term: Vec::new(),
            coeffs: Vec::new(),
            terms: Vec::new(),
            diag: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Appends the structural row of state `src` (rows must arrive in
    /// canonical order). On a NaN rate — an unexpanded non-exponential
    /// activity — returns the offending activity, exactly like the CSR
    /// accumulator.
    pub(crate) fn push_row(&mut self, src: usize, outs: &[Transition]) -> Result<(), ActivityId> {
        debug_assert_eq!(src, self.diag.len(), "rows must arrive in order");
        let mut d = 0.0;
        for t in outs {
            if t.rate.is_nan() {
                return Err(t.activity);
            }
            if t.target == src {
                // Self-loops are invisible to the marking process, as
                // in the CSR build.
                continue;
            }
            let key = (t.activity, t.rate.to_bits(), t.prob.to_bits());
            let g = match self.index.get(&key) {
                Some(&g) => g,
                None => {
                    let g = u32::try_from(self.terms.len()).expect("term table fits u32");
                    let term = Term {
                        activity: t.activity,
                        rate: t.rate,
                        prob: t.prob,
                    };
                    self.terms.push(term);
                    self.coeffs.push(term.coeff());
                    self.index.insert(key, g);
                    g
                }
            };
            self.dst
                .push(u32::try_from(t.target).expect("state ids fit u32"));
            self.term.push(g);
            d -= self.coeffs[g as usize];
        }
        self.diag.push(d);
        self.row_ptr.push(self.dst.len());
        Ok(())
    }

    /// Materializes the descriptor; `initial_pairs` is the (canonical,
    /// sorted) initial distribution.
    pub(crate) fn finish(self, initial_pairs: &[(usize, f64)]) -> KronGenerator {
        let n = self.diag.len();
        let mut initial = vec![0.0; n];
        for &(i, p) in initial_pairs {
            initial[i] = p;
        }
        let absorbing = self.diag.iter().map(|&d| d == 0.0).collect();
        KronGenerator {
            n,
            row_ptr: self.row_ptr,
            dst: self.dst,
            term: self.term,
            coeffs: self.coeffs,
            terms: self.terms,
            diag: self.diag,
            initial,
            absorbing,
            transpose: OnceLock::new(),
        }
    }
}

/// Iterator over one structural row, yielding `(destination, rate)`
/// with the rate resolved through the coefficient table. Parallel
/// transitions to the same destination yield one entry per term — sum
/// consumers (sweeps, substitutions) accumulate them exactly like
/// distinct destinations.
pub struct KronEntries<'a> {
    state: &'a [u32],
    term: &'a [u32],
    coeffs: &'a [f64],
}

impl Iterator for KronEntries<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        let (&s, state_rest) = self.state.split_first()?;
        let (&g, term_rest) = self.term.split_first()?;
        self.state = state_rest;
        self.term = term_rest;
        Some((s as usize, self.coeffs[g as usize]))
    }
}

impl KronGenerator {
    /// Builds the descriptor from a reachability graph.
    ///
    /// Prefer `StateSpace::explore_absorbing_gen` when the graph is
    /// being explored anyway: it assembles the identical descriptor
    /// *during* exploration (pipelined per BFS level) without ever
    /// materializing a CSR.
    ///
    /// # Errors
    /// [`SolveError::NonMarkovian`] under the same condition as
    /// [`Ctmc::from_state_space`](crate::Ctmc::from_state_space).
    pub fn from_state_space(ss: &StateSpace<'_>) -> Result<Self, SolveError> {
        let model = ss.model();
        let mut acc = KronAcc::new();
        for s in 0..ss.len() {
            acc.push_row(s, &ss.outgoing(s))
                .map_err(|a| SolveError::NonMarkovian {
                    activity: model.activity_name(a).to_string(),
                })?;
        }
        Ok(acc.finish(&ss.initial))
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of stored structural entries (≥ the CSR's rate count:
    /// parallel activity transitions stay separate here).
    pub fn num_entries(&self) -> usize {
        self.dst.len()
    }

    /// Number of distinct activity terms in the factored sum.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The activity terms of the factored sum `Q = Σ_g coeff_g · S_g`.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Whether the transposed index has been materialized (it is built
    /// lazily on the first `x·Q` or column access).
    pub fn transpose_built(&self) -> bool {
        self.transpose.get().is_some()
    }

    /// Resident bytes of the descriptor's large arrays (structure +
    /// diagonal + transpose if built) — the number the CSR's
    /// ~24 B/entry footprint is compared against.
    pub fn approx_bytes(&self) -> usize {
        let entry = self.dst.len() * (std::mem::size_of::<u32>() * 2);
        let ptrs = self.row_ptr.len() * std::mem::size_of::<usize>();
        let per_state = self.n * (std::mem::size_of::<f64>() * 2 + std::mem::size_of::<bool>());
        let table = self.terms.len() * (std::mem::size_of::<Term>() + std::mem::size_of::<f64>());
        let transpose = self.transpose.get().map_or(0, |t| {
            t.col_ptr.len() * std::mem::size_of::<usize>()
                + t.src.len() * (std::mem::size_of::<u32>() * 2)
        });
        entry + ptrs + per_state + table + transpose
    }

    fn transpose(&self) -> &Transpose {
        self.transpose.get_or_init(|| {
            let n = self.n;
            let mut col_ptr = vec![0usize; n + 1];
            for &j in &self.dst {
                col_ptr[j as usize + 1] += 1;
            }
            for j in 0..n {
                col_ptr[j + 1] += col_ptr[j];
            }
            let mut cursor = col_ptr.clone();
            let mut src = vec![0u32; self.dst.len()];
            let mut term = vec![0u32; self.dst.len()];
            // Row-major traversal fills each column ascending by
            // source — the same deterministic gather order as the CSR
            // incoming view.
            for i in 0..n {
                for e in self.row_ptr[i]..self.row_ptr[i + 1] {
                    let at = cursor[self.dst[e] as usize];
                    src[at] = i as u32;
                    term[at] = self.term[e];
                    cursor[self.dst[e] as usize] += 1;
                }
            }
            Transpose { col_ptr, src, term }
        })
    }
}

impl LinOp for KronGenerator {
    type Row<'a> = KronEntries<'a>;
    type Col<'a> = KronEntries<'a>;

    fn dim(&self) -> usize {
        self.n
    }

    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }

    fn initial(&self) -> &[f64] {
        &self.initial
    }

    fn is_absorbing(&self, i: usize) -> bool {
        self.absorbing[i]
    }

    fn max_exit_rate(&self) -> f64 {
        self.diag.iter().fold(0.0, |m, &d| m.max(-d))
    }

    fn row(&self, i: usize) -> KronEntries<'_> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        KronEntries {
            state: &self.dst[lo..hi],
            term: &self.term[lo..hi],
            coeffs: &self.coeffs,
        }
    }

    fn column(&self, j: usize) -> KronEntries<'_> {
        let t = self.transpose();
        let lo = t.col_ptr[j];
        let hi = t.col_ptr[j + 1];
        KronEntries {
            state: &t.src[lo..hi],
            term: &t.term[lo..hi],
            coeffs: &self.coeffs,
        }
    }

    fn apply(&self, v: &[f64], out: &mut [f64], threads: usize) {
        assert_eq!(v.len(), self.n);
        assert!(out.len() <= self.n);
        spmv::for_each_shard(&self.row_ptr[..=out.len()], threads, out, |lo, shard| {
            for (di, o) in shard.iter_mut().enumerate() {
                let i = lo + di;
                let mut acc = 0.0;
                for e in self.row_ptr[i]..self.row_ptr[i + 1] {
                    acc += self.coeffs[self.term[e] as usize] * v[self.dst[e] as usize];
                }
                *o = acc;
            }
        });
    }

    fn apply_transposed(&self, x: &[f64], out: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.n);
        assert!(out.len() <= self.n);
        let t = self.transpose();
        spmv::for_each_shard(&t.col_ptr[..=out.len()], threads, out, |lo, shard| {
            for (dj, o) in shard.iter_mut().enumerate() {
                let j = lo + dj;
                let mut acc = x[j] * self.diag[j];
                for e in t.col_ptr[j]..t.col_ptr[j + 1] {
                    acc += x[t.src[e] as usize] * self.coeffs[t.term[e] as usize];
                }
                *o = acc;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ReachOptions;
    use crate::Ctmc;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    fn branchy(levels: u32) -> SanModel {
        let mut b = SanBuilder::new("branchy");
        let a = b.place("a", levels);
        let z = b.place("z", 0);
        let done = b.place("done", 0);
        b.add_activity(
            Activity::timed("fwd", Dist::Exp { mean: 1.25 })
                .input(a, 1)
                .case(Case::with_prob(0.75).output(z, 1))
                .case(Case::with_prob(0.25).output(done, 1)),
        );
        b.add_activity(
            Activity::timed("bwd", Dist::Exp { mean: 0.75 })
                .input(z, 1)
                .case(Case::with_prob(1.0).output(a, 1)),
        );
        b.build().unwrap()
    }

    fn both_generators(levels: u32) -> (Ctmc, KronGenerator) {
        let m = branchy(levels);
        let opts = ReachOptions {
            max_states: 1 << 16,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore(&m, &opts).unwrap();
        let csr = Ctmc::from_state_space(&ss).unwrap();
        let kron = KronGenerator::from_state_space(&ss).unwrap();
        (csr, kron)
    }

    #[test]
    fn terms_are_one_per_activity_case() {
        let (_, kron) = both_generators(6);
        // Two activities, one with two cases: three factored terms.
        assert_eq!(kron.num_terms(), 3);
        let coeffs: Vec<f64> = kron.terms().iter().map(Term::coeff).collect();
        for expect in [0.75 / 1.25, 0.25 / 1.25, 1.0 / 0.75] {
            assert!(
                coeffs.iter().any(|c| (c - expect).abs() < 1e-12),
                "missing coefficient {expect} in {coeffs:?}"
            );
        }
    }

    #[test]
    fn diag_and_absorbing_match_csr() {
        let (csr, kron) = both_generators(9);
        assert_eq!(kron.num_states(), csr.num_states());
        for i in 0..csr.num_states() {
            assert!(
                (csr.diag(i) - LinOp::diag(&kron, i)).abs() <= 1e-12 * csr.diag(i).abs(),
                "diag {i}"
            );
            assert_eq!(csr.is_absorbing(i), LinOp::is_absorbing(&kron, i));
        }
        assert_eq!(csr.initial(), LinOp::initial(&kron));
        assert!(
            (csr.max_exit_rate() - LinOp::max_exit_rate(&kron)).abs() < 1e-12,
            "uniformization rate"
        );
    }

    #[test]
    fn products_match_csr_within_roundoff() {
        let (csr, kron) = both_generators(12);
        let n = csr.num_states();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        csr.apply(&x, &mut a, 1);
        kron.apply(&x, &mut b, 1);
        for (i, (&ai, &bi)) in a.iter().zip(&b).enumerate() {
            assert!((ai - bi).abs() <= 1e-12 * ai.abs().max(1.0), "row {i}");
        }
        assert!(!kron.transpose_built(), "forward product stays lazy");
        csr.apply_transposed(&x, &mut a, 1);
        kron.apply_transposed(&x, &mut b, 1);
        for (i, (&ai, &bi)) in a.iter().zip(&b).enumerate() {
            assert!((ai - bi).abs() <= 1e-12 * ai.abs().max(1.0), "col {i}");
        }
        assert!(kron.transpose_built());
    }

    #[test]
    fn sharded_products_are_bit_identical_across_thread_counts() {
        // (levels+1)(levels+2)/2 states ≈ 10k clears the inline
        // threshold (8192), so real shards run.
        let (_, kron) = both_generators(140);
        let n = kron.num_states();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 / 7.0).collect();
        let (mut base, mut base_t) = (vec![0.0; n], vec![0.0; n]);
        kron.apply(&x, &mut base, 1);
        kron.apply_transposed(&x, &mut base_t, 1);
        for threads in [2usize, 3, 8] {
            let mut out = vec![0.0; n];
            kron.apply(&x, &mut out, threads);
            for (a, b) in base.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "apply at {threads} threads");
            }
            kron.apply_transposed(&x, &mut out, threads);
            for (a, b) in base_t.iter().zip(&out) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "apply_transposed at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn descriptor_is_smaller_than_csr_for_the_same_graph() {
        let (csr, kron) = both_generators(64);
        let (row_ptr, col, rate, diag) = csr.csr_owned();
        let csr_bytes = std::mem::size_of_val(&row_ptr[..])
            + std::mem::size_of_val(&col[..])
            + std::mem::size_of_val(&rate[..])
            + std::mem::size_of_val(&diag[..]);
        assert!(
            kron.approx_bytes() < csr_bytes,
            "descriptor {} B vs CSR {} B",
            kron.approx_bytes(),
            csr_bytes
        );
    }

    #[test]
    fn non_exponential_timing_is_rejected() {
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
        let err = KronGenerator::from_state_space(&ss).unwrap_err();
        assert!(matches!(err, SolveError::NonMarkovian { activity } if activity == "det"));
    }
}
