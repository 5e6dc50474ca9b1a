//! Analytic (numerical) solution of Stochastic Activity Networks.
//!
//! The workspace's other SAN solver — [`ctsim_san::Simulator`] — is a
//! discrete-event Monte-Carlo engine: every figure it produces is an
//! estimate with a confidence interval, sharpened only by running more
//! replications. For models whose timed activities are **all
//! exponential**, the marking process is a continuous-time Markov chain
//! and can be solved *exactly*. This crate is that path, in four layers:
//!
//! 1. [`StateSpace`] — the tangible reachable marking graph, with
//!    markings enabling instantaneous activities eliminated on the fly
//!    (priority/weight races and case probabilities become branch
//!    probabilities: vanishing-state elimination);
//! 2. [`Ctmc`] — the sparse (CSR) generator matrix `Q`; models with a
//!    reachable non-exponential timed activity are rejected with
//!    [`SolveError::NonMarkovian`];
//! 3. [`transient()`] (uniformization with Fox–Glynn style Poisson
//!    truncation, each product limited to the states the chain can have
//!    reached, one pass serving a whole time grid) for first-passage
//!    CDFs, and [`mean_time_to_absorption`] (`Q_TT τ = -1`, with
//!    convergence diagnostics) for first-passage means;
//! 4. the reward layer ([`expected_rate_reward`], [`AnalyticRun`])
//!    which evaluates the same marking-function rewards the simulator
//!    integrates, against solved probability vectors — so experiment
//!    code can swap a replication campaign for one matrix solve.
//!
//! # When does the analytic path apply?
//!
//! Natively, exactly when every *reachable* timed activity has
//! `Dist::Exp` timing. The paper's baseline parameterisation mixes
//! deterministic CPU stages with bimodal network delays, so by default
//! it is simulated; its exponential re-parameterisation
//! (`ctsim_models::SanParams::exponential_baseline`) is solved, and the
//! simulator must agree with the solution within its own confidence
//! interval — a cross-validation of both engines (see
//! `experiments::analytic` and `tests/analytic_vs_sim.rs`).
//!
//! # Phase-type expansion
//!
//! With [`ReachOptions::ph_order`] ≥ 1 (or [`SolveOptions::ph`]), the
//! applicability condition widens to *any* timed distribution with a
//! positive finite mean: each non-exponential timed activity is
//! replaced during reachability exploration by its hyper-Erlang
//! [`PhaseType`](ctsim_stoch::PhaseType) fit, and the state vector
//! gains one phase counter per expanded activity. The moment-matching
//! rules (see `ctsim_stoch::phase`):
//!
//! | target                    | expansion (order `K`)                     | moments matched |
//! |---------------------------|-------------------------------------------|-----------------|
//! | `Exp`, `Erlang`           | itself (exact passthrough)                | all             |
//! | `cv² > 1` (heavy tail)    | balanced-means hyperexponential, 2 phases | first two       |
//! | `1/K ≤ cv² < 1`           | mixed Erlang(k−1)/Erlang(k), `k = ⌈1/cv²⌉`| first two       |
//! | `cv² < 1/K` (e.g. `Det`)  | Erlang(K), the min-variance order-K PH    | mean only       |
//!
//! Deterministic stages therefore converge at rate `1/K` in variance;
//! the convergence tests in `tests/analytic_vs_sim.rs` show the PH
//! answer entering the simulator's 90 % confidence band as the order
//! grows on the paper's *real* Fig. 7 parameters.
//!
//! The price is state-space growth — roughly the product of the phase
//! counts of the concurrently enabled expanded activities. The measured
//! state counts of the paper's consensus model per `n` and order are
//! one table, in the repository README's *Phase-type expansion*
//! section, and the explore timings and peak memory of each exploration
//! engine at n = 3 are another, in its *Out-of-core exploration and
//! solve* section. n = 3 at orders 2–3 fits comfortably in RAM and
//! inside a CI time budget — the `scalability` CI job solves the
//! order-2 space and cross-validates it against the simulator on every
//! push. For spaces that do *not* fit (n ≥ 4), [`ReachOptions::spill`]
//! pages cold transition/state segments to a temp file under an
//! explicit RAM budget with byte-identical results — see
//! [`SpillOptions`] and the spill-mode notes below.
//!
//! Prefer the **simulator** when the expanded space would exceed a few
//! million states (deep PH orders, large `n`, two-state FD submodels),
//! when distribution tails beyond the second moment matter, or when
//! the model is honestly non-Markovian in structure (the PH answer is
//! an approximation for `Det`/`Uniform`-like stages, exact only in the
//! matched moments). Prefer the **solver** for small-`n` exact answers,
//! CI-fast regression pins, and tail probabilities far beyond what
//! replications can resolve.
//!
//! # Concurrent exploration, compact states, streamed assembly
//!
//! [`ReachOptions::threads`] fans the breadth-first exploration out
//! over `std::thread` workers that intern newly discovered states
//! **concurrently** into a lock-free hash table (CAS claims on
//! open-addressed slots over a segmented append-only arena) — there is
//! no sequential merge phase to cap the speedup, and states are stored
//! bit-packed in a few `u64` words instead of `Arc<[u32]>` vectors
//! (~4–8× less per-state memory; `n = 3` phase-type spaces with
//! millions of states fit comfortably in RAM).
//!
//! Transitions have one store, the generator's structural CSR: workers
//! append rows into per-worker segment chains, and each BFS level is
//! renumbered and streamed into the CSR's entries while the next level
//! is still being expanded, so the explore → CSR phases pipeline
//! instead of running serially and the per-level buffers are recycled
//! rather than reallocated. The [`StateSpace`] and every [`Ctmc`] built
//! from it share those entries. With [`ReachOptions::spill`] set
//! ([`SpillOptions`]; CLI `--spill-budget`), cold CSR segments page out
//! to an unlinked temp file under a RAM budget and are read back
//! through a small LRU — results are byte-identical with spill on or
//! off (property-tested), which is what lets state spaces larger than
//! memory explore. The budget caps the run's bulk state as a whole:
//! packed states, the paged CSR entries, and — via
//! [`DedupMode`] — the dedup structure itself. When the resident
//! intern table outgrows its share of the budget, exploration restarts
//! in external-memory mode (sort each frontier, sort-merge it against
//! the on-disk visited runs — delayed duplicate detection), so the
//! remaining RAM floor is one BFS level plus per-worker scratch, not
//! the full state space. Gauss–Seidel is the one solver that still
//! requires a resident generator (and says so:
//! [`SolveError::ResidentOnly`]); Jacobi, Krylov and uniformization
//! stream paged CSR segments through the sharded SpMV. See
//! `docs/MEMORY.md` for the full accounting.
//!
//! Determinism survives the races by construction: the reachable set,
//! each state's successor distribution, and each state's BFS level are
//! model properties no interleaving can change, and after exploration
//! states are renumbered canonically — by `(BFS level, packed key)` —
//! while per-source transition lists are re-sorted and merged with a
//! deterministic comparator, fixing even the floating-point summation
//! order. The numbering and the CSR generator are therefore byte-
//! identical for every thread count; `threads` is purely a wall-clock
//! knob, exactly like the replication fan-out in `ctsim_san::replicate`
//! (see `graph` module docs for the full argument).
//!
//! The sweep is written once: `graph/driver.rs` holds the
//! level-synchronous loop, generic (statically dispatched) over the
//! dedup strategy — resident intern table or external-memory
//! sort-merge — so the two engines share successor generation
//! (`graph/expand.rs`) and canonical emission (`graph/assembly.rs`)
//! and can differ only in where a state's id comes from; `graph/mod.rs`
//! keeps the options and the [`StateSpace`] API.
//!
//! # Solver backends
//!
//! The linear-algebra layer behind [`mean_time_to_absorption`] is
//! pluggable via [`IterOptions::backend`]: all backends solve the same
//! system to the same sup-norm residual — converged answers are
//! backend-independent down to round-off, which the overlay test
//! `backends_agree_on_the_overlay_means` in `ctsim-experiments` gates
//! at ≤ 1e-6 relative — but they iterate very differently. The measured
//! solve times of each backend are one table, in the repository
//! README's *Pluggable solver backends* section.
//!
//! Rules of thumb:
//!
//! * [`SolverBackend::Krylov`] — restarted GMRES, right-preconditioned
//!   by a backward Gauss–Seidel substitution — is the default choice
//!   for first-passage solves up to ~1 M states (the canonical BFS
//!   numbering makes those systems near-triangular, so GMRES closes in
//!   a handful of matvecs where Jacobi needs one step per BFS level),
//!   and the *only* backend that survives stiff two-timescale chains
//!   whose sweep contraction is `1 − O(ε)`.
//! * [`SolverBackend::GaussSeidel`] — the reference. Smallest constant
//!   factor per iteration, and its sweeps descend with the canonical
//!   numbering, so a first-passage chain takes a few sweeps rather
//!   than one per BFS level.
//!   Sequential by construction; refuses disk-paged generators.
//! * [`SolverBackend::Jacobi`] — every update is one sharded SpMV over
//!   [`IterOptions::threads`] workers, so it is the backend that turns
//!   cores into solve throughput on large chains. A first-passage
//!   solve still takes one step per BFS level, but a step sweeps only
//!   the prefix of rows that can still change.
//!
//! Every backend returns [`SolveError::NotConverged`] with finite
//! diagnostics instead of NaNs or hangs on chains where absorption is
//! not certain, or on stiff chains (`tests/solver_backends.rs`
//! property-tests that contract at 1/2/4/8 threads). The
//! uniformization loop behind [`transient()`] and
//! [`AnalyticRun::cdf_grid`] reuses the same sharded SpMV via
//! [`TransientOptions::threads`], over the prefix of states its support
//! bound can reach.
//!
//! # Example
//!
//! ```
//! use ctsim_san::{Activity, Case, SanBuilder};
//! use ctsim_stoch::Dist;
//! use ctsim_solve::{AnalyticRun, IterOptions, ReachOptions};
//!
//! // p --exp(2ms)--> q: expected first-passage time is the mean.
//! let mut b = SanBuilder::new("m");
//! let p = b.place("p", 1);
//! let q = b.place("q", 0);
//! b.add_activity(
//!     Activity::timed("t", Dist::Exp { mean: 2.0 })
//!         .input(p, 1)
//!         .case(Case::with_prob(1.0).output(q, 1)),
//! );
//! let model = b.build().unwrap();
//! let run = AnalyticRun::first_passage(&model, &ReachOptions::default(), move |m| {
//!     m.get(q) > 0
//! })
//! .unwrap();
//! let out = run.mean(&IterOptions::default()).unwrap();
//! assert!((out.mean_ms - 2.0).abs() < 1e-9);
//! ```

use std::fmt;

pub mod absorption;
pub mod arena;
pub mod backend;
pub mod ctmc;
mod ddd;
pub mod graph;
mod intern;
pub mod kron;
mod krylov;
pub mod linop;
mod pack;
pub mod reward;
pub mod spill;
mod spmv;
pub mod transient;

pub use absorption::{mean_time_to_absorption, AbsorptionTimes, IterOptions};
pub use arena::RowRef;
pub use backend::{GeneratorBackend, SolverBackend};
pub use ctmc::{Ctmc, Incoming};
pub use graph::{GraphParts, ReachOptions, StateSpace, SweepProfile, Term, Transition};
pub use kron::KronGenerator;
pub use linop::{Generator, LinOp};
pub use reward::{expected_rate_reward, probability, AnalyticOutcome, AnalyticRun, DetachedRun};
pub use spill::{DedupMode, SpillOptions};
pub use transient::{transient, Transient, TransientOptions};

/// Every knob of one analytic solve, bundled: exploration limits plus
/// phase-type order and thread count (in [`ReachOptions`]), iterative-
/// solver backend/tolerances, and transient truncation. The
/// `repro analytic` command and the experiment layer configure solves
/// through this.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Exploration limits, phase-type expansion order, threads.
    pub reach: ReachOptions,
    /// Linear-algebra backend, tolerance, and iteration budget.
    pub iter: IterOptions,
    /// Uniformization truncation tolerance, term cap, and SpMV threads.
    pub transient: TransientOptions,
}

impl SolveOptions {
    /// Default options with the given phase-type order and exploration
    /// thread count (`threads = 0` means one worker per core).
    pub fn ph(ph_order: u32, threads: usize) -> Self {
        Self {
            reach: ReachOptions {
                ph_order,
                threads,
                ..ReachOptions::default()
            },
            ..Self::default()
        }
    }

    /// [`SolveOptions::ph`] with a solver backend: the exploration
    /// thread count is reused for the backend's sharded SpMV and the
    /// uniformization loop, so one `--threads` knob drives every
    /// parallel section of the solve.
    pub fn ph_with_backend(ph_order: u32, threads: usize, backend: SolverBackend) -> Self {
        let mut opts = Self::ph(ph_order, threads);
        opts.iter.backend = backend;
        opts.iter.threads = threads;
        opts.transient.threads = threads;
        opts
    }
}

/// Richardson extrapolation of a phase-type solution over the
/// expansion order.
///
/// Deterministic (and other `cv² < 1/K`) stages can only be matched in
/// the mean at any finite order `K`; the leading error of their
/// Erlang(K) stand-ins decays as `1/K`. Writing `m_K = m_∞ + c/K`, two
/// solves at distinct orders cancel the leading term:
///
/// ```text
/// m_∞ ≈ (K·m_K − K'·m_K') / (K − K')
/// ```
///
/// `orders` holds `(order, solved mean)` pairs in any order; the two
/// largest distinct orders drive the extrapolation (they carry the
/// smallest higher-order residue). One point returns its mean
/// unchanged, an empty slice returns `None`, and duplicate orders are
/// collapsed (the first-given mean wins).
///
/// ```
/// use ctsim_solve::extrapolated_mean;
///
/// // m_K = 10 − 2/K: the limit is exactly recovered from K = 3, 4.
/// let pts = [(3, 10.0 - 2.0 / 3.0), (4, 10.0 - 2.0 / 4.0)];
/// assert!((extrapolated_mean(&pts).unwrap() - 10.0).abs() < 1e-12);
/// assert_eq!(extrapolated_mean(&[(2, 5.0)]), Some(5.0));
/// assert_eq!(extrapolated_mean(&[]), None);
/// ```
pub fn extrapolated_mean(orders: &[(u32, f64)]) -> Option<f64> {
    let mut pts: Vec<(u32, f64)> = orders.to_vec();
    pts.sort_by_key(|&(k, _)| k);
    pts.dedup_by_key(|&mut (k, _)| k);
    match pts.as_slice() {
        [] => None,
        [(_, m)] => Some(*m),
        [.., (k1, m1), (k2, m2)] => {
            let (k1f, k2f) = (f64::from(*k1), f64::from(*k2));
            Some((k2f * m2 - k1f * m1) / (k2f - k1f))
        }
    }
}

/// Makes room in `v` for `additional` more elements, growing its
/// capacity by a quarter instead of doubling it. The CSR entries and
/// `row_ptr`, the per-state arrays of an exploration and its canonical
/// map are the largest vectors the pipeline grows, and a doubled
/// capacity is up to twice their live heap at the exploration's peak.
/// A large block is usually remapped rather than copied when it grows;
/// a small one grows by at least 1 Ki elements, so element-by-element
/// pushes do not reallocate each time.
pub(crate) fn reserve_by_quarters<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 4).max(1 << 10));
    }
}

/// Why an analytic solve failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A reachable timed activity is not exponentially distributed and
    /// phase-type expansion is off, so the marking process is not a
    /// CTMC. Raise [`ReachOptions::ph_order`] or use the simulator.
    NonMarkovian {
        /// Name of the offending activity.
        activity: String,
    },
    /// Phase-type expansion was requested but an activity's delay
    /// distribution has no positive finite mean to match (e.g. a point
    /// mass at zero — model that as an instantaneous activity).
    PhaseUnfittable {
        /// Name of the offending activity.
        activity: String,
    },
    /// Exploration exceeded the configured state cap.
    StateSpaceTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// A disk-spill operation failed after exhausting its retry
    /// policy (creating the temp file, paging a segment, or an
    /// append/read on the external-memory dedup runs). Carries the
    /// failing operation, path, and per-attempt trace so budget/disk
    /// failures are diagnosable from CI logs.
    SpillFailed {
        /// The failpoint site / operation that failed
        /// (`"spill.create"`, `"ddd.append_run"`, `"csr.page_in"`, …).
        op: &'static str,
        /// The spill-file path (unlinked after creation, but the only
        /// handle a log reader has on *which* filesystem failed).
        path: String,
        /// The final attempt's I/O error, rendered.
        message: String,
        /// One rendered line per failed attempt, including the virtual
        /// backoff the retry policy charged between them (see
        /// `ctsim-resilience`). Empty when the op was not retryable.
        attempts: Vec<String>,
    },
    /// The requested solver needs the generator resident in RAM, but
    /// it was built disk-paged under a spill budget.
    ResidentOnly {
        /// The solver backend that refused (`"gauss-seidel"`).
        backend: String,
    },
    /// A chain of instantaneous firings exceeded the depth bound (the
    /// analytic analogue of the simulator's instantaneous livelock).
    VanishingLoop {
        /// The configured depth bound.
        depth: usize,
    },
    /// A transient time is negative, NaN or infinite.
    InvalidTime {
        /// The offending time (ms).
        t_ms: f64,
    },
    /// The Poisson truncation needs more terms than allowed.
    TruncationTooLong {
        /// The configured term cap.
        terms: usize,
    },
    /// An iterative solver missed its tolerance within the budget.
    NotConverged {
        /// Sweeps performed.
        iterations: usize,
        /// Final residual.
        residual: f64,
    },
    /// A first-passage mean was requested but some reachable dead end
    /// does not satisfy the goal predicate: the goal is reached with
    /// probability < 1, so its mean first-passage time is infinite.
    GoalUnreachable {
        /// Index of a reachable non-goal deadlock state.
        state: usize,
    },
    /// A cached reachability graph cannot be reused for the requested
    /// model: the structure (net dimensions or phase-type expansion
    /// shape) changed, so a rate-only rebuild would be wrong. Fall back
    /// to a cold exploration.
    StructureMismatch {
        /// What differed, rendered.
        reason: String,
    },
    /// Absorption times requested but no state is absorbing.
    NoAbsorbingStates,
    /// The state space is empty.
    EmptyStateSpace,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NonMarkovian { activity } => write!(
                f,
                "timed activity `{activity}` is not exponential: the model \
                 has no underlying CTMC (enable phase-type expansion via \
                 ph_order or use the simulation solver)"
            ),
            SolveError::PhaseUnfittable { activity } => write!(
                f,
                "timed activity `{activity}` has no positive finite mean \
                 delay: no phase-type distribution can represent it"
            ),
            SolveError::StateSpaceTooLarge { limit } => {
                write!(f, "reachable state space exceeds {limit} states")
            }
            SolveError::SpillFailed {
                op,
                path,
                message,
                attempts,
            } => {
                write!(f, "disk-spill store failed to {op} at {path}: {message}")?;
                if !attempts.is_empty() {
                    write!(f, " [{}]", attempts.join("; "))?;
                }
                Ok(())
            }
            SolveError::ResidentOnly { backend } => write!(
                f,
                "the {backend} solver needs a resident generator but the \
                 CSR was paged to disk under the spill budget; use the \
                 jacobi or krylov backend, or raise --spill-budget"
            ),
            SolveError::VanishingLoop { depth } => write!(
                f,
                "instantaneous activities fired more than {depth} times at \
                 one instant (vanishing loop)"
            ),
            SolveError::InvalidTime { t_ms } => write!(
                f,
                "transient time {t_ms} ms is not a finite non-negative number"
            ),
            SolveError::TruncationTooLong { terms } => write!(
                f,
                "uniformization needs more than {terms} Poisson terms; \
                 reduce t or raise the cap"
            ),
            SolveError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver stopped after {iterations} sweeps at \
                 residual {residual:.3e}"
            ),
            SolveError::GoalUnreachable { state } => write!(
                f,
                "state {state} is a reachable dead end that does not satisfy \
                 the goal predicate: the mean first-passage time is infinite \
                 (use `cdf` to see where the distribution plateaus)"
            ),
            SolveError::StructureMismatch { reason } => write!(
                f,
                "cached reachability graph does not match the model: {reason} \
                 (re-explore instead of rate-only rebuild)"
            ),
            SolveError::NoAbsorbingStates => {
                write!(f, "no absorbing state: absorption time is undefined")
            }
            SolveError::EmptyStateSpace => write!(f, "empty state space"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Converts spill read-back failures raised deep inside pagers back
/// into typed errors at an API boundary.
///
/// Write failures degrade gracefully (a segment that cannot page out
/// stays resident), but a *read* failure surfaces under a shared
/// guard in the middle of a sweep callback, where no `Result` channel
/// exists — so after the retry policy is exhausted the pager unwinds
/// with the typed [`SolveError`] as the payload
/// ([`std::panic::resume_unwind`], which never runs the panic hook, so
/// the intentional unwind prints nothing), and every public entry
/// point that can reach a paged store runs under this catch, turning
/// it back into `Err(SolveError::SpillFailed { .. })` with the attempt
/// trace intact. Callers therefore never see a panic or a hang for
/// spill I/O trouble — only the typed error. Panics with any other
/// payload (real bugs) resume unwinding unchanged.
pub(crate) fn catch_spill<T>(f: impl FnOnce() -> Result<T, SolveError>) -> Result<T, SolveError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => match payload.downcast::<SolveError>() {
            Ok(e) => Err(*e),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}
