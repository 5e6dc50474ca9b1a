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
//! # Out-of-core generators
//!
//! When exploration runs under a spill budget
//! ([`SpillOptions`](crate::SpillOptions)), the off-diagonal entries —
//! the one CSR array that grows with the rate count — are accumulated
//! into a disk-spillable `SegStore` instead of resident vectors (the
//! `CsrBody::Paged` representation). `row_ptr`, `diag`, `initial`
//! and `absorbing` stay resident: they are `O(states)` and every
//! solver indexes them randomly. Row access then goes through the
//! store's LRU pager, and the sweep kernels
//! (`spmv::flow_mul`, the incoming-view transpose build) use
//! the grouped `SegStore::stream_rows` primitive so a full pass
//! costs one disk read per spilled segment, not per row. Paging never
//! changes values: the entries hold the same bits on disk as in RAM
//! and every consumer walks them in the same order, so a paged solve
//! is bit-identical to a resident one (CI-gated).

use std::sync::{Arc, OnceLock};

use ctsim_san::ActivityId;

use crate::arena::{RowLoc, SegStore};
use crate::graph::{Edge, StateSpace, Term};
use crate::spill::{SpillRecord, SpillShared};
use crate::SolveError;

/// One off-diagonal CSR entry in spillable form. Destinations fit
/// `u32` because canonical state ids are assigned from a `u32`
/// renumbering; rates keep full `f64` precision so the paged and
/// resident generators are bit-identical.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CsrEntry {
    pub(crate) col: u32,
    pub(crate) rate: f64,
}

impl SpillRecord for CsrEntry {
    const BYTES: usize = 12;
    fn store(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.col.to_le_bytes());
        out[4..].copy_from_slice(&self.rate.to_le_bytes());
    }
    fn load(bytes: &[u8]) -> Self {
        Self {
            col: u32::from_le_bytes(bytes[..4].try_into().expect("4-byte col")),
            rate: f64::from_le_bytes(bytes[4..].try_into().expect("8-byte rate")),
        }
    }
}

/// Entries per paged-CSR segment (12 bytes each → ~384 KiB segments).
const CSR_SEG: usize = 1 << 15;

/// LRU depth for the paged-CSR store: iterative solvers sweep the rows
/// many times and shard them across workers, so a deeper cache than
/// the streaming default avoids cross-shard thrash.
const CSR_CACHE_SLOTS: usize = 8;

/// The off-diagonal storage of a [`Ctmc`]: resident twin vectors, or a
/// disk-spillable entry store addressed per row (see the module docs).
enum CsrBody {
    Resident {
        /// Column (destination-state) indices of off-diagonal entries.
        col: Vec<usize>,
        /// Off-diagonal rates `q_ij > 0` (1/ms).
        rate: Vec<f64>,
    },
    Paged {
        /// `(col, rate)` entries, rows appended in canonical order.
        entries: SegStore<CsrEntry>,
        /// Where each state's row lives in `entries`.
        locs: Vec<RowLoc>,
    },
}

impl std::fmt::Debug for CsrBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrBody::Resident { col, rate } => f
                .debug_struct("Resident")
                .field("col", col)
                .field("rate", rate)
                .finish(),
            CsrBody::Paged { locs, .. } => {
                f.debug_struct("Paged").field("rows", &locs.len()).finish()
            }
        }
    }
}

impl Clone for CsrBody {
    /// Cloning a paged body materialises it resident: the spill file
    /// offsets cannot be shared by two owners whose `update_rows`
    /// rewrites would diverge. Clones of large paged generators are
    /// therefore expensive and resident — no caller on the out-of-core
    /// path clones the generator.
    fn clone(&self) -> Self {
        match self {
            CsrBody::Resident { col, rate } => CsrBody::Resident {
                col: col.clone(),
                rate: rate.clone(),
            },
            CsrBody::Paged { entries, .. } => {
                let all = entries.collect_all();
                CsrBody::Resident {
                    col: all.iter().map(|e| e.col as usize).collect(),
                    rate: all.iter().map(|e| e.rate).collect(),
                }
            }
        }
    }
}

/// A finite-state CTMC in CSR form.
#[derive(Debug, Clone)]
pub struct Ctmc {
    /// Number of states.
    n: usize,
    /// CSR row starts into the off-diagonal entries (length `n + 1`).
    row_ptr: Vec<usize>,
    /// Off-diagonal entries (resident vectors or a paged store).
    body: CsrBody,
    /// Diagonal entries `q_ii = -Σ_j≠i q_ij` (1/ms).
    diag: Vec<f64>,
    /// Initial probability distribution.
    initial: Vec<f64>,
    /// States with no outgoing rate (absorbing or deadlocked).
    absorbing: Vec<bool>,
    /// Lazily built, cached incoming (column-oriented) view — shared by
    /// every solver backend, so repeated solves on the same generator
    /// (order sweeps, residual checks, CDF grids) pay the transpose
    /// once instead of per call.
    incoming: OnceLock<Incoming>,
}

/// The transposed (incoming) CSR view of the generator: for each
/// destination state, its predecessors and the rates from them, in
/// ascending predecessor order.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Column starts into `entries` (length `n + 1`).
    col_ptr: Vec<usize>,
    /// `(source, rate)` pairs, grouped by destination.
    entries: Vec<(usize, f64)>,
}

impl Incoming {
    /// Builds the transpose. The incoming view is always *resident* —
    /// `O(rates)` bytes even when the forward CSR is paged to disk —
    /// so uniformization, which gathers over it, re-acquires that
    /// footprint; the absorption solves only sweep forward rows and
    /// never build it. `docs/MEMORY.md` spells this out.
    fn build(ctmc: &Ctmc) -> Self {
        let n = ctmc.n;
        let mut col_ptr = vec![0usize; n + 1];
        ctmc.for_each_entry(|_, j, _| col_ptr[j + 1] += 1);
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut cursor = col_ptr.clone();
        let mut entries = vec![(0usize, 0.0f64); ctmc.num_rates()];
        // Row-major traversal fills each column's predecessor list in
        // ascending source order — the deterministic summation order
        // the gather kernels rely on.
        ctmc.for_each_entry(|i, j, r| {
            entries[cursor[j]] = (i, r);
            cursor[j] += 1;
        });
        Self { col_ptr, entries }
    }

    /// Column starts (a CSR offset array over destinations) — the
    /// shard-balancing input of the parallel kernels.
    pub(crate) fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The `(source, rate)` predecessors of destination `j`.
    pub fn column(&self, j: usize) -> &[(usize, f64)] {
        &self.entries[self.col_ptr[j]..self.col_ptr[j + 1]]
    }
}

/// Folds the outgoing edges of state `src` into `acc` — one
/// `(destination, rate)` entry per distinct destination, ascending —
/// and returns the row's diagonal; `terms` is the table the edges point
/// into. The one accumulation behind a fresh build
/// ([`CtmcAcc::push_row`]) and a values-only rebuild
/// ([`Ctmc::rebuild_values`]), which is what keeps the two
/// bit-identical. On a NaN rate — an unexpanded non-exponential
/// activity — returns the offending activity.
fn accumulate_row(
    src: usize,
    edges: &[Edge],
    terms: &[Term],
    acc: &mut Vec<(usize, f64)>,
) -> Result<f64, ActivityId> {
    acc.clear();
    for e in edges {
        let t = &terms[e.term as usize];
        if t.rate.is_nan() {
            return Err(t.activity);
        }
        let target = e.target as usize;
        if target == src {
            // A completion that re-enters its source state is
            // invisible to the marking process: it contributes
            // neither an off-diagonal rate nor exit rate.
            continue;
        }
        match acc.iter_mut().find(|(d, _)| *d == target) {
            Some((_, existing)) => *existing += t.coeff(),
            None => acc.push((target, t.coeff())),
        }
    }
    acc.sort_unstable_by_key(|&(d, _)| d);
    // Folded from +0.0 so an empty row's diagonal is +0.0: `.sum()`
    // would yield -0.0 there, and absorbing states compare by bits.
    let mut d = 0.0;
    for &(_, r) in acc.iter() {
        d -= r;
    }
    Ok(d)
}

/// Row-by-row CTMC generator accumulation — the streaming counterpart
/// of [`Ctmc::from_state_space`]. The exploration pipeline feeds it
/// each canonical row as soon as that row's BFS level is renumbered
/// (see `StateSpace::explore_ctmc`), so the CSR build overlaps the
/// exploration of later levels; `from_state_space` drives the same
/// accumulator sequentially, making the two construction paths
/// byte-identical by construction.
pub(crate) struct CtmcAcc {
    row_ptr: Vec<usize>,
    body: AccBody,
    diag: Vec<f64>,
    /// Per-destination scratch of the row being accumulated.
    row: Vec<(usize, f64)>,
}

/// Accumulator counterpart of [`CsrBody`].
enum AccBody {
    Resident {
        col: Vec<usize>,
        rate: Vec<f64>,
    },
    Paged {
        entries: SegStore<CsrEntry>,
        locs: Vec<RowLoc>,
        row_buf: Vec<CsrEntry>,
    },
}

impl CtmcAcc {
    pub(crate) fn new() -> Self {
        Self {
            row_ptr: vec![0],
            body: AccBody::Resident {
                col: Vec::new(),
                rate: Vec::new(),
            },
            diag: Vec::new(),
            row: Vec::new(),
        }
    }

    /// An accumulator whose off-diagonal entries live in a
    /// disk-spillable store sharing the exploration's spill budget —
    /// the out-of-core CSR build. `row_ptr`/`diag` stay resident (see
    /// the module docs).
    pub(crate) fn new_paged(spill: Arc<SpillShared>) -> Self {
        let mut entries = SegStore::new(CSR_SEG, Some(spill));
        entries.set_cache_slots(CSR_CACHE_SLOTS);
        entries.set_page_counter("spill.csr_paged_bytes");
        entries.set_io_sites("csr.page_in", "csr.page_out");
        Self {
            row_ptr: vec![0],
            body: AccBody::Paged {
                entries,
                locs: Vec::new(),
                row_buf: Vec::new(),
            },
            diag: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Appends the generator row of state `src` from its edges and the
    /// term table (rows must arrive in canonical order). On a NaN rate
    /// — an unexpanded non-exponential activity — returns the offending
    /// activity.
    pub(crate) fn push_row(
        &mut self,
        src: usize,
        edges: &[Edge],
        terms: &[Term],
    ) -> Result<(), ActivityId> {
        debug_assert_eq!(src, self.diag.len(), "rows must arrive in order");
        let acc = &mut self.row;
        let d = accumulate_row(src, edges, terms, acc)?;
        match &mut self.body {
            AccBody::Resident { col, rate } => {
                for &(dst, r) in acc.iter() {
                    col.push(dst);
                    rate.push(r);
                }
            }
            AccBody::Paged {
                entries,
                locs,
                row_buf,
            } => {
                row_buf.clear();
                for &(dst, r) in acc.iter() {
                    row_buf.push(CsrEntry {
                        col: dst as u32,
                        rate: r,
                    });
                }
                locs.push(entries.append_row(row_buf));
            }
        }
        self.diag.push(d);
        self.row_ptr
            .push(self.row_ptr.last().copied().unwrap_or(0) + acc.len());
        Ok(())
    }

    /// Materialises the generator; `initial_pairs` is the (canonical,
    /// sorted) initial distribution.
    pub(crate) fn finish(self, initial_pairs: &[(usize, f64)]) -> Ctmc {
        let n = self.diag.len();
        let mut initial = vec![0.0; n];
        for &(i, p) in initial_pairs {
            initial[i] = p;
        }
        let absorbing = self.diag.iter().map(|&d| d == 0.0).collect();
        let body = match self.body {
            AccBody::Resident { col, rate } => CsrBody::Resident { col, rate },
            AccBody::Paged {
                mut entries, locs, ..
            } => {
                entries.finish();
                CsrBody::Paged { entries, locs }
            }
        };
        Ctmc {
            n,
            row_ptr: self.row_ptr,
            body,
            diag: self.diag,
            initial,
            absorbing,
            incoming: OnceLock::new(),
        }
    }
}

impl Ctmc {
    /// Builds the generator matrix from a reachability graph.
    ///
    /// Prefer `StateSpace::explore_ctmc` /
    /// `StateSpace::explore_absorbing_ctmc` when the graph is being
    /// explored anyway: they assemble the identical generator *during*
    /// exploration (pipelined per BFS level) instead of in a second
    /// pass over the transition arena.
    ///
    /// # Errors
    /// [`SolveError::NonMarkovian`] if any transition is driven by a
    /// non-exponential timed activity that was not phase-type expanded
    /// (its `rate` is NaN): the embedded process is then not a CTMC and
    /// the analytic path does not apply — raise
    /// [`ReachOptions::ph_order`](crate::ReachOptions::ph_order) or use
    /// the simulator.
    pub fn from_state_space(ss: &StateSpace<'_>) -> Result<Self, SolveError> {
        crate::catch_spill(|| {
            let model = ss.model();
            let mut acc = CtmcAcc::new();
            for s in 0..ss.len() {
                acc.push_row(s, &ss.edges(s), ss.terms()).map_err(|a| {
                    SolveError::NonMarkovian {
                        activity: model.activity_name(a).to_string(),
                    }
                })?;
            }
            Ok(acc.finish(&ss.initial))
        })
    }

    /// Rewrites the generator's *values* (off-diagonal rates, diagonal,
    /// absorbing marks) from a rate-rebuilt reachability graph, keeping
    /// the CSR sparsity pattern — the CTMC half of the campaign
    /// engine's rate-only rebuild (see [`StateSpace::rebuild_rates`]).
    /// Replays the exact accumulation of [`Ctmc::from_state_space`], so
    /// the result is byte-identical to a generator built fresh from the
    /// same graph. The cached incoming view is invalidated; the initial
    /// distribution is rate-independent and kept.
    ///
    /// # Errors
    /// [`SolveError::NonMarkovian`] on a NaN rate (as in
    /// `from_state_space`); [`SolveError::StructureMismatch`] if the
    /// graph's row structure does not match this generator's sparsity —
    /// the caller paired a generator with the wrong graph. On error the
    /// generator may hold partially rewritten values — discard it.
    pub fn rebuild_values(&mut self, ss: &StateSpace<'_>) -> Result<(), SolveError> {
        crate::catch_spill(|| self.rebuild_values_inner(ss))
    }

    fn rebuild_values_inner(&mut self, ss: &StateSpace<'_>) -> Result<(), SolveError> {
        if ss.len() != self.n {
            return Err(SolveError::StructureMismatch {
                reason: format!(
                    "generator has {} states, rebuilt graph has {}",
                    self.n,
                    ss.len()
                ),
            });
        }
        let model = ss.model();
        let mut acc: Vec<(usize, f64)> = Vec::new();
        let accumulate = |s: usize, acc: &mut Vec<(usize, f64)>| {
            accumulate_row(s, &ss.edges(s), ss.terms(), acc).map_err(|a| SolveError::NonMarkovian {
                activity: model.activity_name(a).to_string(),
            })
        };
        let row_ptr = &self.row_ptr;
        let diag = &mut self.diag;
        match &mut self.body {
            CsrBody::Resident { col, rate } => {
                for s in 0..self.n {
                    let d = accumulate(s, &mut acc)?;
                    let lo = row_ptr[s];
                    let hi = row_ptr[s + 1];
                    if acc.len() != hi - lo {
                        return Err(SolveError::StructureMismatch {
                            reason: format!(
                                "row {s}: {} destinations, generator stores {}",
                                acc.len(),
                                hi - lo
                            ),
                        });
                    }
                    for (k, &(dst, r)) in acc.iter().enumerate() {
                        if col[lo + k] != dst {
                            return Err(SolveError::StructureMismatch {
                                reason: format!(
                                    "row {s}: destination {dst} not in sparsity pattern"
                                ),
                            });
                        }
                        rate[lo + k] = r;
                    }
                    diag[s] = d;
                }
            }
            CsrBody::Paged { entries, locs } => {
                // One grouped pass over the paged store: each spilled
                // segment is read, rewritten and re-spilled once. An
                // error inside the sweep is captured and surfaced
                // after — the generator is then partially rewritten,
                // exactly the "discard it" contract above.
                let mut err: Option<SolveError> = None;
                entries.update_rows(locs, |s, row| {
                    if err.is_some() {
                        return;
                    }
                    let d = match accumulate(s, &mut acc) {
                        Ok(d) => d,
                        Err(e) => {
                            err = Some(e);
                            return;
                        }
                    };
                    if acc.len() != row.len() {
                        err = Some(SolveError::StructureMismatch {
                            reason: format!(
                                "row {s}: {} destinations, generator stores {}",
                                acc.len(),
                                row.len()
                            ),
                        });
                        return;
                    }
                    for (e, &(dst, r)) in row.iter_mut().zip(acc.iter()) {
                        if e.col as usize != dst {
                            err = Some(SolveError::StructureMismatch {
                                reason: format!(
                                    "row {s}: destination {dst} not in sparsity pattern"
                                ),
                            });
                            return;
                        }
                        e.rate = r;
                    }
                    diag[s] = d;
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
        }
        for (i, &d) in self.diag.iter().enumerate() {
            self.absorbing[i] = d == 0.0;
        }
        self.incoming = OnceLock::new();
        Ok(())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// The raw CSR layout `(row_ptr, col, rate, diag)` as owned
    /// vectors, materialising paged entries from disk when necessary —
    /// exposed so callers can assert bit-level reproducibility of the
    /// generator across exploration thread counts and spill budgets.
    /// Meant for asserts and tests, not hot paths: on a paged generator
    /// this temporarily re-materialises all `O(rates)` entries in RAM.
    pub fn csr_owned(&self) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
        let (col, rate) = match &self.body {
            CsrBody::Resident { col, rate } => (col.clone(), rate.clone()),
            CsrBody::Paged { entries, .. } => {
                let all = entries.collect_all();
                (
                    all.iter().map(|e| e.col as usize).collect(),
                    all.iter().map(|e| e.rate).collect(),
                )
            }
        };
        (self.row_ptr.clone(), col, rate, self.diag.clone())
    }

    /// The CSR row-offset array (length `n + 1`) — always resident,
    /// the shard-balancing input of the parallel kernels.
    pub(crate) fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Whether any off-diagonal entries currently live *on disk*: true
    /// only for a paged body with at least one spilled segment. The
    /// row-sweeping in-place solvers (Gauss–Seidel) refuse such
    /// generators (see [`SolveError::ResidentOnly`]); the streaming
    /// kernels page them through the LRU.
    pub fn is_streamed(&self) -> bool {
        match &self.body {
            CsrBody::Resident { .. } => false,
            CsrBody::Paged { entries, .. } => entries.has_spilled(),
        }
    }

    /// Visits every off-diagonal entry as `(source, destination,
    /// rate)` in row-major order, streaming paged segments at one disk
    /// read per segment. The visit order is identical for both bodies.
    fn for_each_entry(&self, mut f: impl FnMut(usize, usize, f64)) {
        match &self.body {
            CsrBody::Resident { col, rate } => {
                for i in 0..self.n {
                    for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                        f(i, col[k], rate[k]);
                    }
                }
            }
            CsrBody::Paged { entries, locs } => {
                entries.stream_rows(locs, |i, row| {
                    for e in row {
                        f(i, e.col as usize, e.rate);
                    }
                });
            }
        }
    }

    /// One shard of the flow product `out[i] = Σ_k q_ik · v[k]` (rows
    /// `lo..lo + shard.len()`), matched to the storage body: resident
    /// slices index directly, a paged body streams the shard's rows
    /// through [`SegStore::stream_rows`]. Both walk each row's entries
    /// left to right, so the summation order (and the bits) agree.
    pub(crate) fn flow_shard(&self, lo: usize, shard: &mut [f64], v: &[f64]) {
        match &self.body {
            CsrBody::Resident { col, rate } => {
                for (di, o) in shard.iter_mut().enumerate() {
                    let i = lo + di;
                    let mut acc = 0.0;
                    for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                        acc += rate[k] * v[col[k]];
                    }
                    *o = acc;
                }
            }
            CsrBody::Paged { entries, locs } => {
                entries.stream_rows(&locs[lo..lo + shard.len()], |di, row| {
                    let mut acc = 0.0;
                    for e in row {
                        acc += e.rate * v[e.col as usize];
                    }
                    shard[di] = acc;
                });
            }
        }
    }

    /// Number of stored off-diagonal rates.
    pub fn num_rates(&self) -> usize {
        self.row_ptr[self.n]
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
    /// predecessors and the rates from them, in ascending source order.
    /// Built on first use and kept, so repeated transient solves on the
    /// same generator (CDF grids, order sweeps) do not pay the transpose
    /// each call.
    pub fn incoming_view(&self) -> &Incoming {
        self.incoming.get_or_init(|| Incoming::build(self))
    }

    /// Visits the off-diagonal entries of row `i` in order, calling
    /// `f(destination, rate)`. On a paged generator the row is served
    /// through the store's LRU pager: sequential row walks stay cheap
    /// (consecutive rows share segments), random access may hit the
    /// disk. The storage body is resolved once per row, not once per
    /// entry — the Gauss–Seidel sweeps and the triangular substitution
    /// run this in their innermost loop.
    pub fn for_each_in_row(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match &self.body {
            CsrBody::Resident { col, rate } => {
                for (&c, &r) in col[lo..hi].iter().zip(&rate[lo..hi]) {
                    f(c, r);
                }
            }
            CsrBody::Paged { entries, locs } => {
                for e in entries.row(locs[i]).iter() {
                    f(e.col as usize, e.rate);
                }
            }
        }
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
}
