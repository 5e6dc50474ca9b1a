//! The generator-operator abstraction the iterative solvers run on.
//!
//! Every backend of
//! [`mean_time_to_absorption`](crate::mean_time_to_absorption) and the
//! uniformization loop of [`transient`](crate::transient()) need only
//! a handful of things from the generator `Q`: its dimension, its
//! diagonal, the two sparse products `x·Q` and `Σ_k q_ik v_k`, and
//! (for the sweep-style loops) per-row / per-column entry access.
//! [`LinOp`] names exactly that surface, so the solvers are generic
//! over *how* the generator is stored:
//!
//! * [`Ctmc`] — the materialized CSR (plus its cached incoming view),
//!   the reference implementor. Solvers invoked on a `Ctmc` compile to
//!   the same monomorphized code they contained before the trait
//!   existed, so results stay bit-identical.
//! * [`KronGenerator`] — the factored
//!   activity-term descriptor that never materializes per-transition
//!   rates (see the [`kron`](crate::kron) module docs).
//! * [`Generator`] — an either-of-the-above enum, what
//!   [`StateSpace::explore_absorbing_gen`](crate::StateSpace::explore_absorbing_gen)
//!   returns for a [`GeneratorBackend`](crate::GeneratorBackend) chosen
//!   at runtime.
//!
//! The trait uses lending-iterator associated types for row/column
//! access, so sweep loops (Gauss–Seidel, back-substitution) stay
//! allocation-free and monomorphize to direct slice walks. That makes
//! the trait generic-only (`L: LinOp`), not object-safe — which is
//! what the solvers want anyway: virtual dispatch inside a per-entry
//! loop would cost more than the arithmetic.

use crate::ctmc::Ctmc;
use crate::kron::KronGenerator;

/// A CTMC generator exposed as a linear operator: the exact surface the
/// iterative solvers need, independent of storage (CSR, Kronecker
/// descriptor, …).
///
/// # Contract
/// * `diag(i) ≤ 0` and rows sum to zero: `diag(i) = -Σ_k≠i q_ik`.
/// * [`LinOp::apply`] and [`LinOp::apply_transposed`] must be
///   deterministic for every `threads` value (each output element is
///   produced by exactly one worker in a fixed summation order) — the
///   property every parallel backend's bit-reproducibility rests on.
/// * `row(i)` yields the off-diagonal entries of row `i`;
///   `column(j)` the off-diagonal entries of column `j` in ascending
///   source order. Implementors may materialize a cached transposed
///   index on first `column`/`apply_transposed` use.
pub trait LinOp: Sync {
    /// Iterator over `(destination, rate)` entries of one row.
    type Row<'a>: Iterator<Item = (usize, f64)>
    where
        Self: 'a;
    /// Iterator over `(source, rate)` entries of one column.
    type Col<'a>: Iterator<Item = (usize, f64)>
    where
        Self: 'a;

    /// Number of states (the operator is `dim × dim`).
    fn dim(&self) -> usize;

    /// Diagonal entry `q_ii` (non-positive).
    fn diag(&self, i: usize) -> f64;

    /// The initial probability distribution.
    fn initial(&self) -> &[f64];

    /// Whether state `i` has no outgoing rate.
    fn is_absorbing(&self, i: usize) -> bool {
        self.diag(i) == 0.0
    }

    /// The uniformization rate `Λ = max_i |q_ii|`.
    fn max_exit_rate(&self) -> f64;

    /// Whether row entries currently live on disk (paged out under a
    /// spill budget) rather than in resident arrays. Streaming-friendly
    /// consumers (sharded products, one-pass back-substitution) ignore
    /// this; solvers that sweep rows in place and out of order
    /// (Gauss–Seidel) check it and refuse with
    /// [`SolveError::ResidentOnly`](crate::SolveError::ResidentOnly)
    /// instead of thrashing the pager. Defaults to `false` — only the
    /// paged CSR ever streams.
    fn is_streamed(&self) -> bool {
        false
    }

    /// The off-diagonal entries of row `i`: `(destination, rate)`.
    fn row(&self, i: usize) -> Self::Row<'_>;

    /// Visits the off-diagonal entries of row `i` in order, calling
    /// `f(destination, rate)` — semantically identical to walking
    /// [`LinOp::row`], and the fold order is the same, so swapping one
    /// for the other never changes bits. Exists so storage-dispatching
    /// implementors (the enum-bodied CSR, which may be resident or
    /// disk-paged) can resolve the representation once per *row*
    /// instead of once per entry: the Gauss–Seidel sweeps and the
    /// triangular substitution below run this in their innermost loop,
    /// where a per-entry discriminant check is measurable.
    fn for_each_in_row(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        for (k, r) in self.row(i) {
            f(k, r);
        }
    }

    /// The off-diagonal entries of column `j`: `(source, rate)`, in
    /// ascending source order.
    fn column(&self, j: usize) -> Self::Col<'_>;

    /// `out[i] = Σ_k≠i q_ik · v[k]`: the off-diagonal row product (the
    /// flow term of the absorption system), sharded over `threads`
    /// workers (`0` = one per core). `v` has length `dim`; `out` may be
    /// a prefix of length ≤ `dim`, and only `out[..len]` is computed,
    /// each element from its whole row — exactly the values a
    /// full-length call puts there. The Jacobi absorption steps pass
    /// the prefix of rows that can still change.
    fn apply(&self, v: &[f64], out: &mut [f64], threads: usize);

    /// `out = x · Q` including the diagonal: the row-vector product the
    /// uniformization loop needs, sharded over
    /// `threads` workers (`0` = one per core). `x` has length `dim`;
    /// `out` may be a prefix of length ≤ `dim`, and only `out[..len]`
    /// is computed, each element from its whole column — exactly the
    /// values a full-length call puts there. The uniformization loop
    /// passes the prefix past which `x · Q` is known to vanish.
    fn apply_transposed(&self, x: &[f64], out: &mut [f64], threads: usize);

    /// Backward Gauss–Seidel substitution: solves `(D − U) z = v` in
    /// place, where `D − U` is the diagonal-plus-strict-upper part of
    /// `-Q_TT` in the canonical state order (absorbing rows are
    /// identity). One `O(nnz)` descending pass — the right
    /// preconditioner of the absorption GMRES. The provided
    /// implementation walks [`LinOp::for_each_in_row`]; implementors
    /// only override it if they have a faster triangular view.
    fn upper_solve(&self, v: &mut [f64]) {
        for i in (0..self.dim()).rev() {
            if self.is_absorbing(i) {
                continue; // identity row: z_i = v_i
            }
            let mut acc = v[i];
            self.for_each_in_row(i, |k, r| {
                if k > i {
                    acc += r * v[k];
                }
            });
            v[i] = acc / -self.diag(i);
        }
    }
}

/// Iterator adapter for operators that wrap one of two inner
/// representations (see [`Generator`]).
pub enum EitherIter<A, B> {
    /// Entries from the first representation.
    A(A),
    /// Entries from the second representation.
    B(B),
}

impl<A, B, T> Iterator for EitherIter<A, B>
where
    A: Iterator<Item = T>,
    B: Iterator<Item = T>,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::A(it) => it.next(),
            EitherIter::B(it) => it.next(),
        }
    }
}

/// A generator whose representation was chosen at runtime
/// ([`GeneratorBackend`](crate::GeneratorBackend)): either the
/// materialized CSR or the factored Kronecker-style descriptor. The
/// [`LinOp`] impl delegates every call, so solvers accept a
/// `&Generator` like any other operator.
#[derive(Debug)]
pub enum Generator {
    /// The materialized CSR generator.
    Csr(Ctmc),
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

macro_rules! delegate {
    ($self:ident, $q:ident => $e:expr) => {
        match $self {
            Generator::Csr($q) => $e,
            Generator::Kron($q) => $e,
        }
    };
}

impl LinOp for Generator {
    type Row<'a> = EitherIter<<Ctmc as LinOp>::Row<'a>, <KronGenerator as LinOp>::Row<'a>>;
    type Col<'a> = EitherIter<<Ctmc as LinOp>::Col<'a>, <KronGenerator as LinOp>::Col<'a>>;

    fn dim(&self) -> usize {
        delegate!(self, q => q.dim())
    }

    fn diag(&self, i: usize) -> f64 {
        delegate!(self, q => LinOp::diag(q, i))
    }

    fn initial(&self) -> &[f64] {
        delegate!(self, q => LinOp::initial(q))
    }

    fn is_absorbing(&self, i: usize) -> bool {
        delegate!(self, q => LinOp::is_absorbing(q, i))
    }

    fn max_exit_rate(&self) -> f64 {
        delegate!(self, q => LinOp::max_exit_rate(q))
    }

    fn is_streamed(&self) -> bool {
        delegate!(self, q => LinOp::is_streamed(q))
    }

    fn row(&self, i: usize) -> Self::Row<'_> {
        match self {
            Generator::Csr(q) => EitherIter::A(LinOp::row(q, i)),
            Generator::Kron(k) => EitherIter::B(LinOp::row(k, i)),
        }
    }

    fn column(&self, j: usize) -> Self::Col<'_> {
        match self {
            Generator::Csr(q) => EitherIter::A(LinOp::column(q, j)),
            Generator::Kron(k) => EitherIter::B(LinOp::column(k, j)),
        }
    }

    fn for_each_in_row(&self, i: usize, f: impl FnMut(usize, f64)) {
        delegate!(self, q => q.for_each_in_row(i, f))
    }

    fn apply(&self, v: &[f64], out: &mut [f64], threads: usize) {
        delegate!(self, q => q.apply(v, out, threads))
    }

    fn apply_transposed(&self, x: &[f64], out: &mut [f64], threads: usize) {
        delegate!(self, q => q.apply_transposed(x, out, threads))
    }

    fn upper_solve(&self, v: &mut [f64]) {
        delegate!(self, q => q.upper_solve(v))
    }
}
