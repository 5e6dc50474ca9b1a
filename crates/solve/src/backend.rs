//! The pluggable linear-algebra backend of the absorption-time solver.
//!
//! All three backends solve the same first-passage system
//! `Q_TT τ = -1` to the same tolerance on the same residual (sup-norm
//! of the defect equations), so they are exact drop-in replacements
//! for one another: any two backends that both converge agree on every
//! mean to far below the cross-backend CI gate's 1e-6 relative budget.
//! They differ in *how* they iterate, which is what decides wall-clock
//! on a given chain:
//!
//! | backend | iteration | parallel | shines on |
//! |---|---|---|---|
//! | [`GaussSeidel`](SolverBackend::GaussSeidel) | in-place descending sweeps over the rows | no (sequential by construction) | small/medium chains, smooth rates — the reference |
//! | [`Jacobi`](SolverBackend::Jacobi) | Jacobi steps, double-buffered; a step sweeps only the rows that can still change | sharded SpMV over [`IterOptions::threads`](crate::IterOptions::threads) | multi-million-state chains on multi-core hosts |
//! | [`Krylov`](SolverBackend::Krylov) | restarted GMRES (Arnoldi + Givens), right-preconditioned by a backward Gauss–Seidel substitution | sharded SpMV | stiff/two-timescale chains where sweeps crawl |
//!
//! The backend rides in [`IterOptions::backend`](crate::IterOptions::backend)
//! and is surfaced as `repro analytic --solver <backend>`; CI runs the
//! full matrix and gates cross-backend agreement of the extrapolated
//! mean to ≤ 1e-6 relative.
//!
//! One asymmetry under a spill budget: Gauss–Seidel sweeps rows in
//! place and revisits them out of order, so it requires a fully
//! resident generator and refuses a disk-paged CSR with [`SolveError::ResidentOnly`](crate::SolveError::ResidentOnly)
//! rather than thrash the pager. Jacobi and Krylov consume the
//! generator only through the front-to-back sharded SpMV, which
//! streams paged segments through the LRU — they are the out-of-core
//! backends (see `docs/MEMORY.md`).
//!
//! A solve runs the backend it was asked for and nothing else: a
//! backend that fails returns its typed error, and no other backend
//! is tried in its place.

use std::fmt;
use std::str::FromStr;

/// Which iterative engine solves `Q_TT τ = -1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverBackend {
    /// In-place Gauss–Seidel sweeps — the reference backend.
    /// Sequential: each sweep uses the values the same sweep just
    /// wrote.
    #[default]
    GaussSeidel,
    /// Jacobi iteration: every component of the next iterate depends
    /// only on the previous one, so the update is one sharded sparse
    /// matrix–vector product fanned out over
    /// [`IterOptions::threads`](crate::IterOptions::threads) workers.
    /// Needs more iterations than Gauss–Seidel but each one scales
    /// with cores, and a step sweeps only the rows that can still
    /// change.
    Jacobi,
    /// Restarted GMRES over the Krylov subspace of the system
    /// right-preconditioned by a backward Gauss–Seidel substitution
    /// (Arnoldi with modified Gram–Schmidt, Givens-rotation least
    /// squares). Iteration counts on stiff chains are orders of
    /// magnitude below the stationary methods; the matrix–vector products use the same sharded SpMV
    /// as [`SolverBackend::Jacobi`].
    Krylov,
}

impl SolverBackend {
    /// Every backend, in documentation/CI-matrix order.
    pub const ALL: [SolverBackend; 3] = [
        SolverBackend::GaussSeidel,
        SolverBackend::Jacobi,
        SolverBackend::Krylov,
    ];

    /// The kebab-case name used by `--solver` and CI matrix entries.
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::GaussSeidel => "gauss-seidel",
            SolverBackend::Jacobi => "jacobi",
            SolverBackend::Krylov => "krylov",
        }
    }

    /// The bench/file-name-safe variant of [`Self::name`] (underscores
    /// instead of dashes).
    pub fn slug(self) -> &'static str {
        match self {
            SolverBackend::GaussSeidel => "gauss_seidel",
            SolverBackend::Jacobi => "jacobi",
            SolverBackend::Krylov => "krylov",
        }
    }
}

impl fmt::Display for SolverBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SolverBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gauss-seidel" | "gauss_seidel" | "gs" => Ok(SolverBackend::GaussSeidel),
            "jacobi" => Ok(SolverBackend::Jacobi),
            "krylov" | "gmres" => Ok(SolverBackend::Krylov),
            other => Err(format!(
                "unknown solver backend `{other}` (expected gauss-seidel, jacobi, or krylov)"
            )),
        }
    }
}

/// Which representation
/// [`StateSpace::explore_absorbing_gen`](crate::StateSpace::explore_absorbing_gen)
/// builds the generator `Q` in. The solvers run on the CSR matrix
/// only; the descriptor offers the forward product
/// ([`LinOp::apply`](crate::LinOp::apply)), which is what the benchmark
/// compares. [`AnalyticRun`](crate::AnalyticRun) always solves on the
/// CSR matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorBackend {
    /// The materialized sparse CSR matrix ([`Ctmc`](crate::Ctmc)),
    /// built during exploration — the representation every solver
    /// runs on; 8 B of resident memory per off-diagonal rate (a
    /// column and a coefficient id), 16 B once the transposed view of
    /// uniformization exists.
    Csr,
    /// The factored activity-term descriptor
    /// ([`KronGenerator`](crate::KronGenerator)), built from the
    /// explored graph: per-transition entries carry only a destination
    /// and an index into a small coefficient table (8 B each).
    Kron,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_str() {
        for b in SolverBackend::ALL {
            assert_eq!(b.name().parse::<SolverBackend>().unwrap(), b);
            assert_eq!(b.slug().parse::<SolverBackend>().unwrap(), b);
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(
            "GS".parse::<SolverBackend>().unwrap(),
            SolverBackend::GaussSeidel
        );
        assert_eq!(
            "gmres".parse::<SolverBackend>().unwrap(),
            SolverBackend::Krylov
        );
        assert!("cholesky".parse::<SolverBackend>().is_err());
    }

    #[test]
    fn default_is_the_reference_backend() {
        assert_eq!(SolverBackend::default(), SolverBackend::GaussSeidel);
    }
}
