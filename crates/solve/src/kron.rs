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
//! where `g` ranges over **activity terms** — the explored graph's own
//! [`Term`] table: one term per (activity, phase stage, branching
//! probability, completes), i.e. the per-replica local activities and
//! the synchronizing network activities of the composition, split per
//! phase stage and per case — and `S_g` is a purely *structural* 0/1
//! incidence pattern. Every stored transition is then two `u32`s
//! (destination + term id), as in the CSR, whose entries name the same
//! term ids, and the handful of `coeff_g` values carry all the
//! rates. The descriptor copies the explored graph's shared CSR entries
//! (which hold no self-loop), with the coefficients of its term table.
//!
//! # Matvec
//!
//! The forward (row) product `Σ_k q_ik v_k` is the same sharded,
//! nnz-balanced gather loop as the CSR kernel in the `spmv` module —
//! each output element is summed by exactly one worker in a fixed
//! order, so the result is bit-identical for every thread count. It is
//! the descriptor's only product: the solvers run on the CSR
//! [`Ctmc`](crate::Ctmc), and the descriptor exists so that its build
//! footprint and product speed can be measured against the CSR's.
//!
//! The product agrees with the CSR one to round-off, not bit-for-bit:
//! the CSR merges parallel transitions into one per-destination rate at
//! build time, while the descriptor keeps one entry per activity term
//! and sums at matvec time, so the floating-point summation grouping
//! differs. `tests/generator_equivalence.rs` pins the two products
//! element-wise to 1e-9 relative.
//!
//! No run path builds this descriptor: [`AnalyticRun`](crate::AnalyticRun)
//! solves on the CSR matrix. It is reached only through
//! [`StateSpace::explore_absorbing_gen`] by the benchmark's `kron.*`
//! rows and the tests.

use crate::graph::{StateSpace, Term};
use crate::{spmv, SolveError};

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
    /// loop reads an 8 B table instead of whole `Term` records.
    coeffs: Vec<f64>,
    /// The activity terms, parallel to `coeffs`.
    terms: Vec<Term>,
}

impl KronGenerator {
    /// Builds the descriptor from a reachability graph: its shared CSR
    /// entries in canonical row order and the coefficients of its term
    /// table.
    ///
    /// # Errors
    /// [`SolveError::NonMarkovian`] under the same condition as
    /// [`Ctmc::from_state_space`](crate::Ctmc::from_state_space), naming
    /// the same activity.
    pub fn from_state_space(ss: &StateSpace<'_>) -> Result<Self, SolveError> {
        crate::ctmc::markovian(ss)?;
        let terms = ss.terms().to_vec();
        crate::catch_spill(|| {
            let mut row_ptr = Vec::with_capacity(ss.len() + 1);
            row_ptr.push(0);
            let (mut dst, mut term) = (Vec::new(), Vec::new());
            for s in 0..ss.len() {
                ss.csr().for_each_edge(s, |target, t| {
                    dst.push(target);
                    term.push(t);
                });
                row_ptr.push(dst.len());
            }
            Ok(KronGenerator {
                n: ss.len(),
                row_ptr,
                dst,
                term,
                coeffs: terms.iter().map(Term::coeff).collect(),
                terms,
            })
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of stored structural entries: one per merged transition
    /// other than a self-loop, so the CSR's rate count plus, for each
    /// entry that merges parallel transitions, all of them but one.
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

    /// `out[i] = Σ_k≠i q_ik · v[k]`, summed per activity term: the
    /// forward product of [`Ctmc::apply`](crate::Ctmc::apply), sharded
    /// the same way over `threads` workers (`0` = one per core). `out`
    /// may be a prefix of length ≤ `num_states`; only `out[..len]` is
    /// computed.
    pub fn apply(&self, v: &[f64], out: &mut [f64], threads: usize) {
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
    }

    #[test]
    fn sharded_products_are_bit_identical_across_thread_counts() {
        // (levels+1)(levels+2)/2 states ≈ 10k clears the inline
        // threshold (8192), so real shards run.
        let (_, kron) = both_generators(140);
        let n = kron.num_states();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 / 7.0).collect();
        let mut base = vec![0.0; n];
        kron.apply(&x, &mut base, 1);
        for threads in [2usize, 3, 8] {
            let mut out = vec![0.0; n];
            kron.apply(&x, &mut out, threads);
            for (a, b) in base.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "apply at {threads} threads");
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
        let kron_bytes = std::mem::size_of_val(&kron.row_ptr[..])
            + std::mem::size_of_val(&kron.dst[..])
            + std::mem::size_of_val(&kron.term[..])
            + std::mem::size_of_val(&kron.coeffs[..])
            + std::mem::size_of_val(&kron.terms[..]);
        assert!(
            kron_bytes < csr_bytes,
            "descriptor {kron_bytes} B vs CSR {csr_bytes} B"
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
