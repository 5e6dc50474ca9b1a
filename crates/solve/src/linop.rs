//! The forward product of a CTMC generator, whatever stores it.
//!
//! The solvers take the CSR [`Ctmc`] itself. [`LinOp`] names the one
//! product both generator representations share — the off-diagonal
//! row product `Σ_k q_ik v_k` — so a caller holding a [`Generator`]
//! chosen at runtime can time or compare it without matching on the
//! representation:
//!
//! * [`Ctmc`] — the materialized CSR, what every solver runs on.
//! * [`KronGenerator`] — the factored activity-term descriptor that
//!   never materializes per-transition rates (see the
//!   [`kron`](crate::kron) module docs).
//! * [`Generator`] — an either-of-the-above enum, what
//!   [`StateSpace::explore_absorbing_gen`](crate::StateSpace::explore_absorbing_gen)
//!   returns for a [`GeneratorBackend`](crate::GeneratorBackend) chosen
//!   at runtime.

use crate::ctmc::Ctmc;
use crate::kron::KronGenerator;

/// A CTMC generator's forward product, independent of storage (CSR or
/// Kronecker descriptor).
///
/// # Contract
/// [`LinOp::apply`] must be deterministic for every `threads` value
/// (each output element is produced by exactly one worker in a fixed
/// summation order) — the property every parallel backend's
/// bit-reproducibility rests on.
pub trait LinOp: Sync {
    /// Number of states (the operator is `dim × dim`).
    fn dim(&self) -> usize;

    /// `out[i] = Σ_k≠i q_ik · v[k]`: the off-diagonal row product (the
    /// flow term of the absorption system), sharded over `threads`
    /// workers (`0` = one per core). `v` has length `dim`; `out` may be
    /// a prefix of length ≤ `dim`, and only `out[..len]` is computed,
    /// each element from its whole row — exactly the values a
    /// full-length call puts there. The Jacobi absorption steps pass
    /// the prefix of rows that can still change.
    fn apply(&self, v: &[f64], out: &mut [f64], threads: usize);
}

impl LinOp for Ctmc {
    fn dim(&self) -> usize {
        self.num_states()
    }

    fn apply(&self, v: &[f64], out: &mut [f64], threads: usize) {
        Ctmc::apply(self, v, out, threads);
    }
}

impl LinOp for KronGenerator {
    fn dim(&self) -> usize {
        self.num_states()
    }

    fn apply(&self, v: &[f64], out: &mut [f64], threads: usize) {
        KronGenerator::apply(self, v, out, threads);
    }
}

/// A generator whose representation was chosen at runtime
/// ([`GeneratorBackend`](crate::GeneratorBackend)): either the
/// materialized CSR or the factored Kronecker-style descriptor. The
/// [`LinOp`] impl forwards to the chosen one.
#[derive(Debug)]
pub enum Generator {
    /// The materialized CSR generator (boxed: it is the larger value
    /// by far).
    Csr(Box<Ctmc>),
    /// The factored activity-term descriptor (matrix-free).
    Kron(KronGenerator),
}

impl Generator {
    /// The Kronecker descriptor, if that is the chosen representation.
    pub fn as_kron(&self) -> Option<&KronGenerator> {
        match self {
            Generator::Kron(k) => Some(k),
            Generator::Csr(_) => None,
        }
    }
}

impl LinOp for Generator {
    fn dim(&self) -> usize {
        match self {
            Generator::Csr(q) => q.dim(),
            Generator::Kron(k) => k.dim(),
        }
    }

    fn apply(&self, v: &[f64], out: &mut [f64], threads: usize) {
        match self {
            Generator::Csr(q) => q.apply(v, out, threads),
            Generator::Kron(k) => k.apply(v, out, threads),
        }
    }
}
