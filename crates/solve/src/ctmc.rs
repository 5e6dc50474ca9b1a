//! Layer 2: the sparse generator matrix of the underlying CTMC.
//!
//! A SAN whose timed activities are all exponential — natively or after
//! phase-type expansion — is, after vanishing elimination, a
//! continuous-time Markov chain over the tangible states: each edge of
//! the reachability graph points into a [`Term`] carrying its
//! exponential stage rate and branching probability, whose product
//! ([`Term::coeff`]) is the generator contribution. The generator
//! `Q` is stored in
//! compressed-sparse-row (CSR) form with the diagonal split out, the
//! layout both the uniformization and the Gauss–Seidel solvers want.
//!
//! # Entries and coefficients
//!
//! An off-diagonal entry is 8 bytes: a `u32` column and a `u32` term
//! id, whose coefficient is [`Term::coeff`]. The table is the term
//! table's coefficients by id, a few hundred against millions of
//! entries (170 terms at n = 3, order 2). Parallel transitions — several
//! edges of one row into one target — keep one entry each, in edge
//! order, so every consumer folds them edge by edge.
//!
//! # One structure, shared
//!
//! Exploration emits every merged row once, into a `Csr`: `row_ptr`
//! and the entries. It names no rate, so it is the reachability
//! graph's own transition store — the [`StateSpace`] holds it behind
//! an `Arc` and decodes its rows — and a
//! [`Ctmc`] is a view of it: the shared structure plus what depends on
//! the rates, namely the coefficient table, the diagonal, the initial
//! vector and the absorbing marks, filled in one read-only pass over
//! the entries. Building a generator therefore copies no entry, and a
//! rate-only rebuild ([`Ctmc::rebuild_values`]) rewrites only the
//! table and the diagonal.
//!
//! # Out-of-core generators
//!
//! When exploration runs under a spill budget
//! ([`SpillOptions`](crate::SpillOptions)), the entries — the one CSR
//! array that grows with the rate count — are accumulated into a
//! disk-spillable `SegStore` instead of a resident vector (the
//! `CsrBody::Paged` representation). `row_ptr`, `diag`, `initial`,
//! `absorbing` and the coefficient table stay resident: they are
//! `O(states)` or smaller and every solver indexes them randomly. Row
//! access then goes through the store's LRU pager, and the sweep kernels
//! (`spmv::flow_mul`, the incoming-view transpose build) use
//! the grouped `SegStore::stream_rows` primitive so a full pass
//! costs one disk read per spilled segment, not per row. Paging never
//! changes values: the entries hold the same bits on disk as in RAM
//! and every consumer walks them in the same order, so a paged solve
//! is bit-identical to a resident one (CI-gated).

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::arena::{RowLoc, SegStore};
use crate::graph::{StateSpace, Term};
use crate::spill::{SpillRecord, SpillShared};
use crate::{reserve_by_quarters, SolveError};

/// One off-diagonal CSR entry: destination state and coefficient id
/// (see the module docs), 8 bytes in RAM and on disk. Destinations fit
/// `u32` because canonical state ids are assigned from a `u32`
/// renumbering; the rate itself lives in the resident coefficient
/// table, so the paged and resident generators are bit-identical.
/// Emission also uses it for one edge of a row before the merge: a
/// target and a term id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CsrEntry {
    pub(crate) col: u32,
    pub(crate) term: u32,
}

impl SpillRecord for CsrEntry {
    const BYTES: usize = 8;
    fn store(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.col.to_le_bytes());
        out[4..].copy_from_slice(&self.term.to_le_bytes());
    }
    fn load(bytes: &[u8]) -> Self {
        let u = |r: Range<usize>| u32::from_le_bytes(bytes[r].try_into().expect("4B"));
        Self {
            col: u(0..4),
            term: u(4..8),
        }
    }
}

/// Entries per paged-CSR segment (8 bytes each → 256 KiB segments).
const CSR_SEG: usize = 1 << 15;

/// LRU depth for the paged-CSR store: iterative solvers sweep the rows
/// many times and shard them across workers, so a deeper cache than
/// the streaming default avoids cross-shard thrash.
const CSR_CACHE_SLOTS: usize = 8;

/// The entry storage of a [`Csr`]: a resident vector, or a
/// disk-spillable store addressed per row (see the module docs).
enum CsrBody {
    Resident(Vec<CsrEntry>),
    Paged {
        /// Entries, rows appended in canonical order.
        entries: SegStore<CsrEntry>,
        /// Where each state's row lives in `entries`.
        locs: Vec<RowLoc>,
    },
}

impl std::fmt::Debug for CsrBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrBody::Resident(entries) => f
                .debug_struct("Resident")
                .field("entries", &entries.len())
                .finish(),
            CsrBody::Paged { locs, .. } => {
                f.debug_struct("Paged").field("rows", &locs.len()).finish()
            }
        }
    }
}

/// The structural CSR of a reachability graph: each state's merged
/// off-diagonal transitions as entries, in canonical order. Exploration
/// builds it once ([`CsrBuilder`]); the [`StateSpace`] and every
/// [`Ctmc`] built from it share it (see the module docs).
#[derive(Debug)]
pub(crate) struct Csr {
    /// Row starts into the entries (length `n + 1`).
    row_ptr: Vec<usize>,
    body: CsrBody,
}

impl Csr {
    /// Number of rows (states).
    pub(crate) fn len(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Visits `rows` in order as `f(state, entries)`: resident rows as
    /// slices of one hoisted entry slice, paged rows streamed through
    /// [`SegStore::stream_rows`] at one disk read per spilled segment.
    /// Every consumer walks a row's entries left to right, so the bits
    /// agree across bodies.
    fn for_each_row(&self, rows: Range<usize>, mut f: impl FnMut(usize, &[CsrEntry])) {
        match &self.body {
            CsrBody::Resident(entries) => {
                let (entries, row_ptr) = (&entries[..], &self.row_ptr[..]);
                for i in rows {
                    f(i, &entries[row_ptr[i]..row_ptr[i + 1]]);
                }
            }
            CsrBody::Paged { entries, locs } => {
                let lo = rows.start;
                entries.stream_rows(&locs[rows], |k, row| f(lo + k, row));
            }
        }
    }

    /// Calls `f` with the entries of row `i`; a paged row is served
    /// through the store's LRU pager.
    fn with_row(&self, i: usize, f: impl FnOnce(&[CsrEntry])) {
        match &self.body {
            CsrBody::Resident(entries) => f(&entries[self.row_ptr[i]..self.row_ptr[i + 1]]),
            CsrBody::Paged { entries, locs } => f(&entries.row(locs[i])),
        }
    }

    /// Visits the transitions of row `i` as `f(target, term id)`, in
    /// entry order. Self-loops were never stored, so none is visited.
    pub(crate) fn for_each_edge(&self, i: usize, mut f: impl FnMut(u32, u32)) {
        self.with_row(i, |row| {
            for e in row {
                f(e.col, e.term);
            }
        });
    }
}

/// The coefficient table the entries' ids index (see the module docs).
#[derive(Debug, Clone)]
struct Coefficients {
    /// The exploration's terms by id — the structural key a rebuild is
    /// checked against, and the rates the table is filled from.
    terms: Vec<Term>,
    /// Each term's coefficient, by term id.
    table: Vec<f64>,
}

impl Coefficients {
    /// Fills the table from `terms`.
    fn new(terms: &[Term]) -> Self {
        Coefficients {
            terms: terms.to_vec(),
            table: terms.iter().map(Term::coeff).collect(),
        }
    }

    /// The id → coefficient map, with the table read once: the sparse
    /// kernels call it per entry, and through a `&Ctmc` (which holds a
    /// `OnceLock`) it would be reloaded after every store.
    #[inline]
    fn lookup(&self) -> impl Fn(u32) -> f64 + Copy + '_ {
        let table = &self.table[..];
        move |id| table[id as usize]
    }
}

/// A finite-state CTMC in CSR form: a view of the shared structural
/// `Csr` with the values the rates give it (see the module docs).
#[derive(Debug, Clone)]
pub struct Ctmc {
    /// Number of states.
    n: usize,
    /// The off-diagonal structure, shared with the state space.
    csr: Arc<Csr>,
    /// What the entries' coefficient ids stand for.
    coeffs: Coefficients,
    /// Diagonal entries `q_ii = -Σ_j≠i q_ij` (1/ms).
    diag: Vec<f64>,
    /// Initial probability distribution.
    initial: Vec<f64>,
    /// States with no outgoing rate (absorbing or deadlocked).
    absorbing: Vec<bool>,
    /// Lazily built, cached incoming (column-oriented) view — shared by
    /// every solver backend, so repeated solves on the same generator
    /// (order sweeps, residual checks, CDF grids) pay the transpose
    /// once instead of per call. It holds coefficient ids, not rates,
    /// so a rate-only rebuild keeps it.
    incoming: OnceLock<Incoming>,
}

/// The transposed (incoming) CSR view of the generator: for each
/// destination state, its predecessors and the coefficient ids of the
/// entries from them, in ascending predecessor order.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Column starts into `entries` (length `n + 1`).
    col_ptr: Vec<usize>,
    /// `(source, coefficient id)` pairs, grouped by destination.
    entries: Vec<(u32, u32)>,
}

impl Incoming {
    /// Builds the transpose. The incoming view is always *resident* —
    /// `O(rates)` bytes even when the forward CSR is paged to disk —
    /// so uniformization, which gathers over it, re-acquires that
    /// footprint; the absorption solves only sweep forward rows and
    /// never build it. `docs/MEMORY.md` spells this out.
    fn build(ctmc: &Ctmc) -> Self {
        let n = ctmc.n;
        let all = 0..n;
        let mut col_ptr = vec![0usize; n + 1];
        ctmc.csr.for_each_row(all.clone(), |_, row| {
            for e in row {
                col_ptr[e.col as usize + 1] += 1;
            }
        });
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut cursor = col_ptr.clone();
        let mut entries = vec![(0u32, 0u32); ctmc.num_rates()];
        // Row-major traversal fills each column's predecessor list in
        // ascending source order — the deterministic summation order
        // the gather kernels rely on.
        ctmc.csr.for_each_row(all, |i, row| {
            for e in row {
                let j = e.col as usize;
                entries[cursor[j]] = (i as u32, e.term);
                cursor[j] += 1;
            }
        });
        Self { col_ptr, entries }
    }

    /// Column starts (a CSR offset array over destinations) — the
    /// shard-balancing input of the parallel kernels.
    pub(crate) fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The `(source, coefficient id)` predecessors of destination `j`;
    /// [`Ctmc::coefficients`] turns an id into its rate.
    pub(crate) fn column(&self, j: usize) -> &[(u32, u32)] {
        &self.entries[self.col_ptr[j]..self.col_ptr[j + 1]]
    }
}

/// Row-by-row construction of the structural [`Csr`]. Emission feeds
/// it each canonical row as soon as that row's BFS level is renumbered,
/// so the build overlaps the exploration of later levels. It reads no
/// rate: a NaN rate fails later, at the [`Ctmc`] build.
pub(crate) struct CsrBuilder {
    row_ptr: Vec<usize>,
    body: CsrBody,
}

impl CsrBuilder {
    /// An empty builder. With a spill backend the entries live in a
    /// disk-spillable store sharing the exploration's spill budget —
    /// the out-of-core CSR; `row_ptr` stays resident (see the module
    /// docs).
    pub(crate) fn new(spill: Option<Arc<SpillShared>>) -> Self {
        let body = match spill {
            None => CsrBody::Resident(Vec::new()),
            Some(spill) => {
                let mut entries =
                    SegStore::new(CSR_SEG, Some(spill), ["csr.page_in", "csr.page_out"]);
                entries.set_cache_slots(CSR_CACHE_SLOTS);
                entries.set_page_counter("spill.csr_paged_bytes");
                CsrBody::Paged {
                    entries,
                    locs: Vec::new(),
                }
            }
        };
        Self {
            row_ptr: vec![0],
            body,
        }
    }

    /// Appends the row of state `src` (rows must arrive in canonical
    /// order) from its edges, given as `(target, term id)` entries and
    /// reordered in place: one entry per edge other than a self-loop,
    /// ascending by destination, parallel edges in edge order. A
    /// completion that re-enters its source state is invisible to the
    /// marking process — it contributes neither an off-diagonal rate
    /// nor exit rate — so it is not stored.
    pub(crate) fn push_row(&mut self, src: usize, edges: &mut Vec<CsrEntry>) {
        debug_assert_eq!(src + 1, self.row_ptr.len(), "rows must arrive in order");
        edges.retain(|e| e.col as usize != src);
        // Stable: parallel edges keep their edge order.
        edges.sort_by_key(|e| e.col);
        match &mut self.body {
            CsrBody::Resident(entries) => {
                reserve_by_quarters(entries, edges.len());
                entries.extend_from_slice(edges);
            }
            CsrBody::Paged { entries, locs } => locs.push(entries.append_row(edges)),
        }
        let next = self.row_ptr.last().copied().unwrap_or(0) + edges.len();
        reserve_by_quarters(&mut self.row_ptr, 1);
        self.row_ptr.push(next);
    }

    /// The finished structure. The entries and `row_ptr` grew by
    /// quarters and are complete now, so their slack is given back: the
    /// structure lives as long as the space and its generators.
    pub(crate) fn finish(self) -> Csr {
        let mut body = self.body;
        match &mut body {
            CsrBody::Resident(entries) => entries.shrink_to_fit(),
            CsrBody::Paged { entries, locs } => {
                entries.finish();
                locs.shrink_to_fit();
            }
        }
        let mut row_ptr = self.row_ptr;
        row_ptr.shrink_to_fit();
        Csr { row_ptr, body }
    }
}

/// [`SolveError::NonMarkovian`] naming the activity of the space's
/// first NaN-rate term — an unexpanded non-exponential activity — if
/// it has one.
pub(crate) fn markovian(ss: &StateSpace<'_>) -> Result<(), SolveError> {
    match ss.terms().iter().find(|t| t.rate.is_nan()) {
        Some(t) => Err(SolveError::NonMarkovian {
            activity: ss.model().activity_name(t.activity).to_string(),
        }),
        None => Ok(()),
    }
}

impl Ctmc {
    /// The generator of an explored reachability graph: a view of the
    /// space's shared `Csr`, with the coefficient table, diagonal,
    /// initial vector and absorbing marks filled in one read-only pass
    /// over its entries. No entry is copied.
    ///
    /// # Errors
    /// [`SolveError::NonMarkovian`] if any transition is driven by a
    /// non-exponential timed activity that was not phase-type expanded
    /// (its `rate` is NaN): the embedded process is then not a CTMC and
    /// the analytic path does not apply — raise
    /// [`ReachOptions::ph_order`](crate::ReachOptions::ph_order) or use
    /// the simulator. Term ids are given in row order, so the first
    /// NaN-rate term is the one a walk over the rows meets first.
    pub fn from_state_space(ss: &StateSpace<'_>) -> Result<Self, SolveError> {
        markovian(ss)?;
        let csr = Arc::clone(ss.csr());
        let n = csr.len();
        let mut initial = vec![0.0; n];
        for &(i, p) in &ss.initial {
            initial[i] = p;
        }
        let mut q = Ctmc {
            n,
            coeffs: Coefficients::new(ss.terms()),
            csr,
            diag: vec![0.0; n],
            initial,
            absorbing: vec![false; n],
            incoming: OnceLock::new(),
        };
        q.fill_diagonal()?;
        if ctsim_obs::enabled() {
            ctsim_obs::gauge_max("ctmc.coefficients", q.coeffs.table.len() as f64);
        }
        Ok(q)
    }

    /// Rewrites the generator's *values* (coefficients, diagonal,
    /// absorbing marks) from a rate-rebuilt reachability graph, keeping
    /// every entry — the CTMC half of the campaign engine's rate-only
    /// rebuild (see [`StateSpace::rebuild_rates`]). The entries name
    /// coefficients, not rates, so this refills the coefficient table
    /// from the graph's terms and folds each row's diagonal from it in
    /// the read-only pass of a fresh build: the result is
    /// byte-identical to a generator built fresh from the same graph.
    /// The cached incoming view holds ids too and is kept; the initial
    /// distribution is rate-independent and kept.
    ///
    /// # Errors
    /// [`SolveError::StructureMismatch`] if the graph has another state
    /// count or another term table (up to rates) than the one this
    /// generator was built from — the caller paired a generator with
    /// the wrong graph; [`SolveError::NonMarkovian`] on a NaN rate (as
    /// in `from_state_space`). The generator is then untouched. A
    /// paged body that cannot be read back fails with
    /// [`SolveError::SpillFailed`] after the table was refilled —
    /// discard the generator then.
    pub fn rebuild_values(&mut self, ss: &StateSpace<'_>) -> Result<(), SolveError> {
        let terms = ss.terms();
        if ss.len() != self.n {
            return Err(SolveError::StructureMismatch {
                reason: format!(
                    "generator has {} states, rebuilt graph has {}",
                    self.n,
                    ss.len()
                ),
            });
        }
        let known = &self.coeffs.terms;
        if terms.len() != known.len() || !terms.iter().zip(known).all(|(a, b)| a.same_key(b)) {
            return Err(SolveError::StructureMismatch {
                reason: format!(
                    "generator has {} terms, rebuilt graph has {} or other ones",
                    known.len(),
                    terms.len()
                ),
            });
        }
        markovian(ss)?;
        self.coeffs = Coefficients::new(terms);
        self.fill_diagonal()
    }

    /// Folds each row's diagonal from +0.0 over its entries' current
    /// coefficients, in entry order, and marks the rows it leaves at
    /// zero absorbing. Folded from +0.0 so an empty row's diagonal is
    /// +0.0: `.sum()` would yield -0.0 there, and absorbing states
    /// compare by bits. A paged body leaves the pass with a cold LRU,
    /// as it left emission.
    fn fill_diagonal(&mut self) -> Result<(), SolveError> {
        let Ctmc {
            n,
            csr,
            coeffs,
            diag,
            absorbing,
            ..
        } = self;
        let coeff = coeffs.lookup();
        crate::catch_spill(|| {
            csr.for_each_row(0..*n, |i, row| {
                let mut d = 0.0;
                for e in row {
                    d -= coeff(e.term);
                }
                diag[i] = d;
                absorbing[i] = d == 0.0;
            });
            Ok(())
        })?;
        if let CsrBody::Paged { entries, .. } = &csr.body {
            entries.clear_cache();
        }
        Ok(())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// The raw CSR layout `(row_ptr, col, rate, diag)` as owned
    /// vectors, each entry's rate read from the coefficient table and
    /// paged entries materialised from disk when necessary — exposed
    /// so callers can assert bit-level reproducibility of the
    /// generator across exploration thread counts and spill budgets.
    /// Meant for asserts and tests, not hot paths: it allocates
    /// `O(rates)` vectors.
    pub fn csr_owned(&self) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
        let mut col = Vec::with_capacity(self.num_rates());
        let mut rate = Vec::with_capacity(self.num_rates());
        let coeff = self.coeffs.lookup();
        self.csr.for_each_row(0..self.n, |_, row| {
            for e in row {
                col.push(e.col as usize);
                rate.push(coeff(e.term));
            }
        });
        (self.csr.row_ptr.clone(), col, rate, self.diag.clone())
    }

    /// The CSR row-offset array (length `n + 1`) — always resident,
    /// the shard-balancing input of the parallel kernels.
    pub(crate) fn row_ptr(&self) -> &[usize] {
        &self.csr.row_ptr
    }

    /// The map from an entry's coefficient id to the rate it stands
    /// for (see the module docs).
    #[inline]
    pub(crate) fn coefficients(&self) -> impl Fn(u32) -> f64 + Copy + '_ {
        self.coeffs.lookup()
    }

    /// Whether any off-diagonal entries currently live *on disk*: true
    /// only for a paged body with at least one spilled segment. The
    /// row-sweeping in-place solvers (Gauss–Seidel) refuse such
    /// generators (see [`SolveError::ResidentOnly`]); the streaming
    /// kernels page them through the LRU.
    pub fn is_streamed(&self) -> bool {
        match &self.csr.body {
            CsrBody::Resident(_) => false,
            CsrBody::Paged { entries, .. } => entries.has_spilled(),
        }
    }

    /// One shard of the flow product `out[i] = Σ_k q_ik · v[k]` (rows
    /// `lo..lo + shard.len()`), over either body: each row's entries
    /// are summed left to right, so the bits agree.
    pub(crate) fn flow_shard(&self, lo: usize, shard: &mut [f64], v: &[f64]) {
        let coeff = self.coeffs.lookup();
        self.csr.for_each_row(lo..lo + shard.len(), |i, row| {
            let mut acc = 0.0;
            for e in row {
                acc += coeff(e.term) * v[e.col as usize];
            }
            shard[i - lo] = acc;
        });
    }

    /// Number of stored off-diagonal rates.
    pub fn num_rates(&self) -> usize {
        self.csr.row_ptr[self.n]
    }

    /// The initial probability distribution.
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// Diagonal entry `q_ii` (non-positive).
    pub fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }

    /// Whether state `i` has no outgoing rate.
    pub fn is_absorbing(&self, i: usize) -> bool {
        self.absorbing[i]
    }

    /// The uniformization rate `Λ = max_i |q_ii|`.
    pub fn max_exit_rate(&self) -> f64 {
        self.diag.iter().fold(0.0, |m, &d| m.max(-d))
    }

    /// The cached column-oriented (incoming) view: for each state, its
    /// predecessors and the coefficient ids of their entries, in
    /// ascending source order. Built on first use and kept — across
    /// rate-only rebuilds too — so repeated transient solves on the
    /// same generator (CDF grids, order sweeps, campaign points) do not
    /// pay the transpose each call.
    pub fn incoming_view(&self) -> &Incoming {
        self.incoming.get_or_init(|| Incoming::build(self))
    }

    /// Whether this generator is a view of `ss`'s own transition
    /// store (the same allocation, not an equal copy).
    #[cfg(test)]
    pub(crate) fn shares_store_with(&self, ss: &StateSpace<'_>) -> bool {
        Arc::ptr_eq(&self.csr, ss.csr())
    }

    /// Whether the incoming view has been built and is cached.
    #[cfg(test)]
    pub(crate) fn has_incoming_view(&self) -> bool {
        self.incoming.get().is_some()
    }

    /// Visits the off-diagonal entries of row `i` in order, calling
    /// `f(destination, rate)`. On a paged generator the row is served
    /// through the store's LRU pager: sequential row walks stay cheap
    /// (consecutive rows share segments), random access may hit the
    /// disk. The storage body is resolved once per row, not once per
    /// entry — the Gauss–Seidel sweeps and the triangular substitution
    /// run this in their innermost loop.
    pub fn for_each_in_row(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let coeff = self.coeffs.lookup();
        self.csr.with_row(i, |row| {
            for e in row {
                f(e.col as usize, coeff(e.term));
            }
        });
    }

    /// `out[i] = Σ_k≠i q_ik · v[k]`: the off-diagonal row product (the
    /// flow term of the absorption system), sharded over `threads`
    /// workers (`0` = one per core). `v` has length `num_states`; `out`
    /// may be a prefix of length ≤ `num_states`, and only `out[..len]`
    /// is computed, each element from its whole row — exactly the
    /// values a full-length call puts there. The Jacobi absorption
    /// steps pass the prefix of rows that can still change.
    pub fn apply(&self, v: &[f64], out: &mut [f64], threads: usize) {
        crate::spmv::flow_mul(self, v, out, threads);
    }

    /// `out = x · Q` including the diagonal: the row-vector product the
    /// uniformization loop needs, sharded over `threads` workers (`0` =
    /// one per core). `x` has length `num_states`; `out` may be a
    /// prefix of length ≤ `num_states`, and only `out[..len]` is
    /// computed, each element from its whole column — exactly the
    /// values a full-length call puts there. The uniformization loop
    /// passes the prefix past which `x · Q` is known to vanish.
    pub fn apply_transposed(&self, x: &[f64], out: &mut [f64], threads: usize) {
        crate::spmv::vec_mul(self, x, out, threads);
    }

    /// Backward Gauss–Seidel substitution: solves `(D − U) z = v` in
    /// place, where `D − U` is the diagonal-plus-strict-upper part of
    /// `-Q_TT` in the canonical state order (absorbing rows are
    /// identity). One `O(nnz)` descending pass — the right
    /// preconditioner of the absorption GMRES.
    pub fn upper_solve(&self, v: &mut [f64]) {
        for i in (0..self.n).rev() {
            if self.absorbing[i] {
                continue; // identity row: z_i = v_i
            }
            let mut acc = v[i];
            self.for_each_in_row(i, |k, r| {
                if k > i {
                    acc += r * v[k];
                }
            });
            v[i] = acc / -self.diag[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ReachOptions;
    use crate::spill::SpillOptions;
    use ctsim_san::{Activity, Case, SanBuilder, SanModel};
    use ctsim_stoch::Dist;

    fn birth_death(lambda_mean: f64, mu_mean: f64) -> SanModel {
        let mut b = SanBuilder::new("bd");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.add_activity(
            Activity::timed("fail", Dist::Exp { mean: lambda_mean })
                .input(up, 1)
                .case(Case::with_prob(1.0).output(down, 1)),
        );
        b.add_activity(
            Activity::timed("repair", Dist::Exp { mean: mu_mean })
                .input(down, 1)
                .case(Case::with_prob(1.0).output(up, 1)),
        );
        b.build().unwrap()
    }

    #[test]
    fn birth_death_generator_matches_rates() {
        let m = birth_death(4.0, 0.5);
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        assert_eq!(q.num_states(), 2);
        assert_eq!(q.num_rates(), 2);
        // State 0 is the initial (up) state: exit rate 1/4.
        assert!((q.diag(0) + 0.25).abs() < 1e-12);
        assert!((q.diag(1) + 2.0).abs() < 1e-12);
        assert_eq!(q.initial(), &[1.0, 0.0]);
        assert!((q.max_exit_rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rows_of_q_sum_to_zero() {
        let m = birth_death(1.0, 3.0);
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        for i in 0..q.num_states() {
            let mut row_sum = q.diag(i);
            q.for_each_in_row(i, |_, r| row_sum += r);
            assert!(row_sum.abs() < 1e-12, "row {i} sums to {row_sum}");
        }
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
        let err = Ctmc::from_state_space(&ss).unwrap_err();
        match err {
            SolveError::NonMarkovian { activity } => assert_eq!(activity, "det"),
            other => panic!("expected NonMarkovian, got {other:?}"),
        }
    }

    #[test]
    fn self_loops_are_invisible() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        b.add_activity(
            Activity::timed("spin", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(p, 1)),
        );
        let m = b.build().unwrap();
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        assert_eq!(q.num_states(), 1);
        assert_eq!(q.num_rates(), 0);
        assert_eq!(q.diag(0), 0.0);
        assert!(q.is_absorbing(0));
    }

    #[test]
    fn vec_mul_matches_dense_product() {
        let m = birth_death(2.0, 1.0);
        let ss = StateSpace::explore(&m, &ReachOptions::default()).unwrap();
        let q = Ctmc::from_state_space(&ss).unwrap();
        let x = [0.3, 0.7];
        let mut out = [0.0; 2];
        q.apply_transposed(&x, &mut out, 1);
        // Dense Q = [[-0.5, 0.5], [1.0, -1.0]].
        assert!((out[0] - (0.3 * (-0.5) + 0.7)).abs() < 1e-12);
        assert!((out[1] - (0.3 * 0.5 - 0.7)).abs() < 1e-12);
    }

    /// Three activities move the one token from `p` to `q` at rates
    /// `1 / means[k]`: three parallel edges into one target.
    fn parallel(means: [f64; 3]) -> SanModel {
        let mut b = SanBuilder::new("parallel");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        for (k, mean) in means.into_iter().enumerate() {
            b.add_activity(
                Activity::timed(format!("a{k}"), Dist::Exp { mean })
                    .input(p, 1)
                    .case(Case::with_prob(1.0).output(q, 1)),
            );
        }
        b.build().unwrap()
    }

    /// State 0's diagonal: its transition rates subtracted from +0.0
    /// left to right in `order`.
    fn row_diag(ss: &StateSpace<'_>, order: impl Iterator<Item = usize>) -> f64 {
        let row = ss.outgoing(0);
        order.fold(0.0, |d, k| d - row[k].q())
    }

    fn csr_bits(q: &Ctmc) -> (Vec<usize>, Vec<usize>, Vec<u64>, Vec<u64>) {
        let (row_ptr, col, rate, diag) = q.csr_owned();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
        (row_ptr, col, bits(rate), bits(diag))
    }

    /// Parallel edges into one target keep one entry each, in edge
    /// order, under their own terms, and the diagonal folds them edge
    /// by edge: at a fresh build, resident and paged, and after a
    /// rate-only rebuild, which gives a fresh build's bits.
    #[test]
    fn parallel_edges_share_one_composite_entry() {
        let first = parallel([10.0, 5.0, 10.0 / 3.0]);
        let (ss, mut q) = StateSpace::explore_ctmc(&first, &ReachOptions::default()).unwrap();
        let row = ss.outgoing(0);
        assert_eq!(row.len(), 3);
        let d = row_diag(&ss, 0..3);
        // 0.1, 0.2 and 0.3 round otherwise in reverse, so the bits pin
        // the order.
        assert_ne!(d.to_bits(), row_diag(&ss, (0..3).rev()).to_bits());
        assert_eq!(q.num_rates(), 3);
        assert_eq!(q.coeffs.table.len(), ss.terms().len());
        let (_, col, rate, diag) = q.csr_owned();
        assert_eq!(col, [1, 1, 1]);
        let edge_rates: Vec<u64> = row.iter().map(|t| t.q().to_bits()).collect();
        assert_eq!(
            rate.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            edge_rates
        );
        assert_eq!(diag[0].to_bits(), d.to_bits());

        let paged_opts = ReachOptions {
            spill: Some(SpillOptions::with_budget(0)),
            ..ReachOptions::default()
        };
        let (_, paged) = StateSpace::explore_ctmc(&first, &paged_opts).unwrap();
        assert_eq!(csr_bits(&paged), csr_bits(&q));

        let second = parallel([7.0, 3.0, 11.0]);
        let mut rebuilt = StateSpace::from_parts(&second, ss.into_parts()).unwrap();
        rebuilt.rebuild_rates().unwrap();
        q.rebuild_values(&rebuilt).unwrap();
        let (fresh_ss, fresh) =
            StateSpace::explore_ctmc(&second, &ReachOptions::default()).unwrap();
        assert_eq!(
            q.csr_owned().3[0].to_bits(),
            row_diag(&fresh_ss, 0..3).to_bits()
        );
        assert_eq!(csr_bits(&q), csr_bits(&fresh));
    }

    /// A paged entry is charged to the spill account when its segment
    /// seals and credited when it pages out by the same 8 bytes, so
    /// after a build under a budget of one and a half segments the
    /// account holds exactly the segments still resident.
    #[test]
    fn spill_account_holds_the_resident_csr_segments() {
        let levels = 70_000;
        let mut b = SanBuilder::new("ladder");
        let a = b.place("a", levels);
        let z = b.place("z", 0);
        b.add_activity(
            Activity::timed("fwd", Dist::Exp { mean: 1.0 })
                .input(a, 1)
                .case(Case::with_prob(1.0).output(z, 1)),
        );
        b.add_activity(
            Activity::timed("bwd", Dist::Exp { mean: 2.0 })
                .input(z, 1)
                .case(Case::with_prob(1.0).output(a, 1)),
        );
        let m = b.build().unwrap();
        let opts = ReachOptions {
            max_states: levels as usize + 8,
            ..ReachOptions::default()
        };
        let ss = StateSpace::explore(&m, &opts).unwrap();
        let budget = CSR_SEG * 3 / 2 * CsrEntry::BYTES;
        let spill = Arc::new(SpillShared::new(&SpillOptions::with_budget(budget)).unwrap());
        let mut builder = CsrBuilder::new(Some(spill.clone()));
        let mut row = Vec::new();
        for s in 0..ss.len() {
            row.clear();
            ss.csr()
                .for_each_edge(s, |col, term| row.push(CsrEntry { col, term }));
            builder.push_row(s, &mut row);
        }
        let csr = builder.finish();
        assert!(csr.row_ptr[csr.len()] > 4 * CSR_SEG);
        let CsrBody::Paged { entries, .. } = &csr.body else {
            panic!("a builder with a spill backend builds a paged body");
        };
        assert!(entries.has_spilled(), "the budget pages segments out");
        assert!(entries.resident_bytes() > 0, "some segments stay resident");
        assert_eq!(spill.resident_bytes(), entries.resident_bytes());
    }

    /// The structure and values of a generator, in bits: `row_ptr`,
    /// the `(column, coefficient id)` entries, the coefficient table
    /// and the diagonal.
    type StructureBits = (Vec<usize>, Vec<(u32, u32)>, Vec<u64>, Vec<u64>);

    fn structure_bits(q: &Ctmc) -> StructureBits {
        let mut entries = Vec::new();
        q.csr.for_each_row(0..q.n, |_, row| {
            entries.extend(row.iter().map(|e| (e.col, e.term)));
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            q.csr.row_ptr.clone(),
            entries,
            bits(&q.coeffs.table),
            bits(&q.diag),
        )
    }

    /// A generator built from an explored space equals the fused one
    /// (explore plus generator in one call) bit for bit — `row_ptr`,
    /// entries, coefficients and diagonal — on the paper's model at
    /// n = 2, orders 0–2 (order 0 on its exponential parameters), at
    /// 1, 2 and 4 threads, resident and under a zero spill budget, and
    /// both equal the one-thread resident build.
    #[test]
    fn a_generator_of_an_explored_space_equals_the_fused_one() {
        for order in 0..=2u32 {
            let params = if order == 0 {
                ctsim_models::SanParams::exponential_baseline(2)
            } else {
                ctsim_models::SanParams::paper_baseline(2)
            };
            let model = ctsim_models::build_model(&params);
            let decided = ctsim_models::decided_place_ids(&model, 2);
            let goal = move |m: &ctsim_san::Marking| decided.iter().any(|&d| m.get(d) > 0);
            let mut reference = None;
            for threads in [1usize, 2, 4] {
                for spill in [None, Some(SpillOptions::with_budget(0))] {
                    let opts = ReachOptions {
                        ph_order: order,
                        threads,
                        spill,
                        ..ReachOptions::default()
                    };
                    let what = format!("order {order}, {threads} threads, {:?}", opts.spill);
                    let ss = StateSpace::explore_absorbing(&model, &opts, &goal).unwrap();
                    let built = Ctmc::from_state_space(&ss).unwrap();
                    assert!(built.shares_store_with(&ss), "{what}");
                    let (_, fused) =
                        StateSpace::explore_absorbing_ctmc(&model, &opts, &goal).unwrap();
                    let bits = structure_bits(&built);
                    assert_eq!(bits, structure_bits(&fused), "{what}");
                    assert_eq!(built.initial(), fused.initial(), "{what}");
                    let reference = reference.get_or_insert_with(|| bits.clone());
                    assert_eq!(&bits, reference, "{what}");
                }
            }
        }
    }

    /// A self-loop and two activities into one target: the space
    /// counts all three transitions, the CSR stores one entry per
    /// parallel edge and no self-loop, `outgoing` decodes both in edge
    /// order, and the Kronecker descriptor stores the same two.
    #[test]
    fn self_loops_are_counted_not_stored_and_parallel_edges_merge() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("spin", Dist::Exp { mean: 1.0 })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(p, 1)),
        );
        for (name, mean) in [("a", 2.0), ("b", 4.0)] {
            b.add_activity(
                Activity::timed(name, Dist::Exp { mean })
                    .input(p, 1)
                    .case(Case::with_prob(1.0).output(q, 1)),
            );
        }
        let m = b.build().unwrap();
        let (ss, gen) = StateSpace::explore_ctmc(&m, &ReachOptions::default()).unwrap();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss.num_transitions(), 3, "the self-loop is counted");
        let (row_ptr, entries, _, diag) = structure_bits(&gen);
        assert_eq!(row_ptr, [0, 2, 2]);
        assert_eq!(entries, [(1, 1), (1, 2)], "two entries, no self-loop");
        assert_eq!(f64::from_bits(diag[0]), -(0.5 + 0.25));
        let row = ss.outgoing(0);
        let names: Vec<&str> = row.iter().map(|t| m.activity_name(t.activity)).collect();
        assert_eq!(names, ["a", "b"], "{row:?}");
        assert!(row.iter().all(|t| t.target == 1));
        let kron = crate::KronGenerator::from_state_space(&ss).unwrap();
        assert_eq!(kron.num_entries(), 2);
        assert_eq!(kron.num_entries(), gen.num_rates());
    }
}
