//! The scenario-campaign engine: sweeps a parameter grid through the
//! analytic solver, paying exploration once per *structural* family.
//!
//! Across a campaign grid most points differ only in timing parameters
//! (service-stage scaling, network-delay scaling), not in structure
//! (process count, phase-type order). All such points share one
//! reachability graph and one CSR sparsity pattern, so the engine
//! groups the grid by [`StructuralKey`] and gives each group to one
//! worker, which carries a single [`AnalyticRun`] from point to point:
//! [`detach`](AnalyticRun::detach) it from the solved point's model,
//! [`attach`](DetachedRun::attach) it to the next point's — a
//! values-only rewrite of transition rates and CSR entries that is
//! bit-identical to a fresh exploration at the new rates — and solve.
//! The graph is all a point hands the next: every solve starts from
//! its backend's own initial iterate, so with the rebuild bit-identical
//! a campaign row is the same sequence of floats as a cold run of that
//! point, which the CI campaign gate checks *bit for bit* on all three
//! backends.
//!
//! Structural groups are independent, so they are the jobs of one
//! [`ctsim_stoch::fan_out`]; points inside a group run sequentially
//! (they hand the one graph down the chain). Rows stream to stderr as
//! points finish and are reported sorted deterministically.
//!
//! If a rate change *does* alter the expansion shape (e.g. scaling a
//! bi-modal network delay perturbs its hyper-Erlang branch
//! probabilities in the last ulp), the re-attach refuses with
//! [`SolveError::StructureMismatch`](ctsim_solve::SolveError) and the
//! point falls back to a cold exploration — correctness never depends
//! on the graph being reusable, only speed does. The CI campaign grid
//! therefore sweeps only the service scale and leaves the network
//! delays untouched, which keeps every rate-only point an actual hit;
//! the network axis remains available for local exploration.

use std::path::PathBuf;
use std::time::Instant;

use ctsim_models::{build_model, SanParams};
use ctsim_solve::{AnalyticRun, DetachedRun, IterOptions, ReachOptions, SolveError, SolverBackend};

/// The structural identity of a reachability graph: grid points with
/// equal keys explore identical graphs and may share one. Rate-like
/// parameters (service times, network delay scales) must NOT enter the
/// key; anything that changes the reachable set or the phase-type
/// expansion shape MUST.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructuralKey {
    /// Number of hosts (the paper's `n`).
    pub n: usize,
    /// Phase-type expansion order (0 = no expansion).
    pub ph_order: u32,
    /// Free-form topology / model-family discriminator (e.g.
    /// `"paper"` vs `"exponential"`, crash scenarios, FD variants).
    pub topology: String,
}

impl StructuralKey {
    /// A key for the paper's consensus model family.
    pub fn new(n: usize, ph_order: u32, topology: impl Into<String>) -> Self {
        Self {
            n,
            ph_order,
            topology: topology.into(),
        }
    }
}

/// One grid point: the structural axes (`n`, `ph_order`) plus the
/// rate-only axes (service/network scaling) and the solver backend.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Number of processes.
    pub n: usize,
    /// Phase-type expansion order; `0` selects the exponential
    /// (Markovian) baseline family instead of the paper's parameters.
    pub ph_order: u32,
    /// Linear-algebra backend for this point.
    pub backend: SolverBackend,
    /// Multiplier on the CPU/handler stage means (`t_send`,
    /// `t_receive`, `t_work`). Rate-only: never changes the graph.
    pub service_scale: f64,
    /// Multiplier on the network delay distributions. Rate-only for
    /// the exponential family; for the paper family it may perturb the
    /// hyper-Erlang fit's branch probabilities and force a cold
    /// fallback (see module docs).
    pub net_scale: f64,
}

impl PointSpec {
    /// The structural identity of this point's reachability graph.
    pub fn key(&self) -> StructuralKey {
        StructuralKey::new(self.n, self.ph_order, self.family())
    }

    fn family(&self) -> &'static str {
        if self.ph_order == 0 {
            "exponential"
        } else {
            "paper"
        }
    }

    /// Report order: `(n, ph_order, backend, net_scale, service_scale)`.
    /// Inside a structural group `n` and `ph_order` are equal, so it is
    /// the solve order too — which point of a group explores cold is
    /// deterministic.
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        let key = |s: &Self| (s.n, s.ph_order, s.backend.name());
        // `grid` admits only finite scales > 0: total order is numeric order.
        key(self)
            .cmp(&key(other))
            .then(self.net_scale.total_cmp(&other.net_scale))
            .then(self.service_scale.total_cmp(&other.service_scale))
    }

    /// The model parameters of this point.
    pub fn params(&self) -> SanParams {
        let mut p = if self.ph_order == 0 {
            SanParams::exponential_baseline(self.n)
        } else {
            SanParams::paper_baseline(self.n)
        };
        p.t_send *= self.service_scale;
        p.t_receive *= self.service_scale;
        p.t_work *= self.service_scale;
        if self.net_scale != 1.0 {
            p.net_unicast = p.net_unicast.scaled(self.net_scale);
            p.net_broadcast = p.net_broadcast.scaled(self.net_scale);
        }
        p
    }
}

/// Campaign configuration, surfaced as `repro campaign ...` flags.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Explicit grid file (`n,ph_order,backend,service_scale,net_scale`
    /// per line, `#` comments and a header line allowed). When set, the
    /// axis fields below are ignored.
    pub grid: Option<PathBuf>,
    /// Process counts (cross-product axis).
    pub ns: Vec<usize>,
    /// Phase-type orders (cross-product axis; `0` = exponential family).
    pub ph_orders: Vec<u32>,
    /// Service-stage scale factors (cross-product axis).
    pub service_scales: Vec<f64>,
    /// Network-delay scale factors (cross-product axis).
    pub net_scales: Vec<f64>,
    /// Solver backends (cross-product axis).
    pub backends: Vec<SolverBackend>,
    /// Worker threads for parallel structural groups (`0` = one per
    /// core). Inside a point the solve uses the same knob when only one
    /// group exists, and stays single-threaded otherwise.
    pub threads: usize,
    /// Re-run every point cold (fresh exploration) and record
    /// agreement + the measured speedup. This is what the CI campaign
    /// job gates on.
    pub verify_cold: bool,
    /// Run the testbed's measured-latency campaign for each distinct
    /// `n` with this many executions, reporting measured rows next to
    /// the analytic grid (`0` = off).
    pub measure: u32,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            grid: None,
            ns: vec![2],
            ph_orders: vec![1, 2],
            service_scales: vec![0.85, 1.0, 1.15],
            net_scales: vec![1.0],
            backends: vec![SolverBackend::GaussSeidel, SolverBackend::Krylov],
            threads: 0,
            verify_cold: false,
            measure: 0,
        }
    }
}

/// Why a campaign failed — typed, with the failing grid point and the
/// underlying solver error preserved for [`std::error::Error::source`]
/// chains.
#[derive(Debug)]
pub enum CampaignError {
    /// The grid could not be assembled (bad `--grid` file, empty axes,
    /// or a value no model exists for).
    Grid(String),
    /// A grid point failed to build or solve.
    Point {
        /// The phase that failed (e.g. `"exploration"`, `"solve"`).
        what: &'static str,
        /// The failing grid point.
        spec: PointSpec,
        /// The underlying solver error — for spill exhaustion this is
        /// [`SolveError::SpillFailed`] carrying the full attempt trace.
        /// Boxed so the happy-path `Result` stays register-sized.
        source: Box<SolveError>,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Grid(msg) => write!(f, "campaign grid: {msg}"),
            CampaignError::Point { what, spec, source } => write!(
                f,
                "campaign {what} failed for n={} ph={} {} svc={} net={}: {source}",
                spec.n, spec.ph_order, spec.backend, spec.service_scale, spec.net_scale
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Grid(_) => None,
            CampaignError::Point { source, .. } => Some(&**source),
        }
    }
}

/// One solved grid point.
#[derive(Debug, Clone)]
pub struct PointRow {
    /// The grid point.
    pub spec: PointSpec,
    /// Tangible states of the CTMC.
    pub states: usize,
    /// Off-diagonal transitions of the CTMC.
    pub transitions: usize,
    /// Whether the reachability graph came out of the cache (rate-only
    /// rebuild) instead of a fresh exploration.
    pub cache_hit: bool,
    /// Iterations of the solve.
    pub iterations: usize,
    /// Wall-clock of the graph phase: rate rebuild on a hit, full
    /// exploration + CSR assembly on a miss (ms).
    pub build_ms: f64,
    /// Wall-clock of the linear-algebra solve (ms).
    pub solve_ms: f64,
    /// Mean consensus latency from the initial marking (ms).
    pub mean_ms: f64,
    /// `--verify-cold` only: mean of the cold re-run (ms).
    pub cold_mean_ms: Option<f64>,
    /// `--verify-cold` only: wall-clock of the cold explore + solve (ms).
    pub cold_ms: Option<f64>,
    /// `--verify-cold` only: iterations of the cold solve.
    pub cold_iterations: Option<usize>,
    /// `--verify-cold` only: whether campaign and cold means agree bit
    /// for bit.
    pub agree: Option<bool>,
}

impl PointRow {
    /// Total wall-clock of the campaign path for this point (ms).
    pub fn total_ms(&self) -> f64 {
        self.build_ms + self.solve_ms
    }

    /// CSV header for [`PointRow::csv`]; `ci/campaign_gate.py` reads
    /// the columns by these names.
    pub fn csv_header() -> &'static str {
        "n,ph_order,backend,service_scale,net_scale,states,transitions,cache_hit,\
         iterations,build_ms,solve_ms,total_ms,mean_ms,cold_mean_ms,cold_ms,agree"
    }

    /// The CSV rendering of this row.
    pub fn csv(&self) -> String {
        let tri = |v: Option<bool>| match v {
            None => "skip".to_string(),
            Some(b) => b.to_string(),
        };
        format!(
            "{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.9},{},{},{}",
            self.spec.n,
            self.spec.ph_order,
            self.spec.backend,
            self.spec.service_scale,
            self.spec.net_scale,
            self.states,
            self.transitions,
            self.cache_hit,
            self.iterations,
            self.build_ms,
            self.solve_ms,
            self.total_ms(),
            self.mean_ms,
            self.cold_mean_ms
                .map_or(String::new(), |v| format!("{v:.9}")),
            self.cold_ms.map_or(String::new(), |v| format!("{v:.3}")),
            tri(self.agree),
        )
    }
}

/// A measured-latency reference row (testbed campaign).
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Number of processes.
    pub n: usize,
    /// Measured mean consensus latency (ms).
    pub mean_ms: f64,
    /// 90 % CI half-width of the mean (ms).
    pub ci90: f64,
}

/// The campaign result: one row per grid point, plus cache and timing
/// aggregates.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Solved grid points, sorted by
    /// `(n, ph_order, backend, net_scale, service_scale)`.
    pub rows: Vec<PointRow>,
    /// Measured-latency rows (`--measure` only), by `n` ascending.
    pub measured: Vec<MeasuredRow>,
    /// Solved points that found their group's graph already explored.
    pub cache_hits: u64,
    /// Solved points that had no graph to start from.
    pub cache_misses: u64,
    /// Wall-clock of the whole grid (ms), workers included.
    pub wall_ms: f64,
}

/// A scale multiplies stage means: only a finite value > 0 leaves a
/// model to solve (and a grid to sort).
fn scale(v: f64) -> Result<f64, String> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!("`{v}` is not a finite scale > 0"))
    }
}

/// The model needs a process: `n = 0` has no model to solve.
fn processes(n: usize) -> Result<usize, String> {
    if n >= 1 {
        Ok(n)
    } else {
        Err("`0` is not a process count >= 1".to_string())
    }
}

/// Parses a campaign grid file: one `n,ph_order,backend,service_scale,
/// net_scale` point per line; blank lines, `#` comments, and a header
/// line are skipped.
///
/// # Errors
/// [`CampaignError::Grid`] naming the line and the field.
pub fn parse_grid(text: &str) -> Result<Vec<PointSpec>, CampaignError> {
    let mut specs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("n,") {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 5 {
            return Err(CampaignError::Grid(format!(
                "grid line {}: expected 5 fields `n,ph_order,backend,service_scale,net_scale`, \
                 got {}",
                lineno + 1,
                fields.len()
            )));
        }
        let bad = |what: &str, e: String| {
            CampaignError::Grid(format!("grid line {}: bad {what}: {e}", lineno + 1))
        };
        let scale_field = |what: &str, field: &str| {
            field
                .parse::<f64>()
                .map_err(|e| e.to_string())
                .and_then(scale)
                .map_err(|e| bad(what, e))
        };
        specs.push(PointSpec {
            n: fields[0]
                .parse()
                .map_err(|e: std::num::ParseIntError| e.to_string())
                .and_then(processes)
                .map_err(|e| bad("n", e))?,
            ph_order: fields[1]
                .parse()
                .map_err(|e: std::num::ParseIntError| bad("ph_order", e.to_string()))?,
            backend: fields[2].parse().map_err(|e: String| bad("backend", e))?,
            service_scale: scale_field("service_scale", fields[3])?,
            net_scale: scale_field("net_scale", fields[4])?,
        });
    }
    if specs.is_empty() {
        return Err(CampaignError::Grid(
            "grid file contains no points".to_string(),
        ));
    }
    Ok(specs)
}

/// The grid of a configuration: the parsed `--grid` file when given,
/// otherwise the cross-product of the axis fields. Every point has
/// `n >= 1` and every scale of every point is finite and > 0.
///
/// # Errors
/// [`CampaignError::Grid`] naming the file line or the axis.
pub fn grid(opts: &CampaignOptions) -> Result<Vec<PointSpec>, CampaignError> {
    if let Some(path) = &opts.grid {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::Grid(format!("reading grid {}: {e}", path.display())))?;
        return parse_grid(&text);
    }
    for (axis, scales) in [
        ("service scales", &opts.service_scales),
        ("net scales", &opts.net_scales),
    ] {
        if let Some(e) = scales.iter().find_map(|&v| scale(v).err()) {
            return Err(CampaignError::Grid(format!("{axis}: {e}")));
        }
    }
    if let Some(e) = opts.ns.iter().find_map(|&n| processes(n).err()) {
        return Err(CampaignError::Grid(format!("ns: {e}")));
    }
    let mut specs = Vec::new();
    for &n in &opts.ns {
        for &ph_order in &opts.ph_orders {
            for &backend in &opts.backends {
                for &net_scale in &opts.net_scales {
                    for &service_scale in &opts.service_scales {
                        specs.push(PointSpec {
                            n,
                            ph_order,
                            backend,
                            service_scale,
                            net_scale,
                        });
                    }
                }
            }
        }
    }
    if specs.is_empty() {
        return Err(CampaignError::Grid(
            "empty campaign grid: every axis needs at least one value".to_string(),
        ));
    }
    Ok(specs)
}

/// Runs the campaign. `seed` only feeds the `--measure` testbed rows —
/// the analytic grid is deterministic.
///
/// # Errors
/// A typed [`CampaignError`]: grid problems, the first failing point
/// of the lowest-index failing group (wrapping its [`SolveError`]).
/// Every group runs, also after another one failed.
pub fn run_with(seed: u64, opts: &CampaignOptions) -> Result<Campaign, CampaignError> {
    let _run_span = ctsim_obs::span("experiment", "campaign").arg("threads", opts.threads);
    let specs = grid(opts)?;

    // Group points by structural key; groups are the parallel unit,
    // points inside a group run sequentially so the one graph passes
    // from point to point.
    let mut groups: Vec<(StructuralKey, Vec<PointSpec>)> = Vec::new();
    for spec in specs {
        let key = spec.key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, points)) => points.push(spec),
            None => groups.push((key, vec![spec])),
        }
    }
    for (_, points) in &mut groups {
        points.sort_by(PointSpec::order);
    }

    let workers = ctsim_stoch::resolve_threads(opts.threads).min(groups.len());
    // One group keeps the solve parallel; concurrent groups already
    // saturate the machine, so their solves stay single-threaded.
    let solve_threads = if workers == 1 { opts.threads } else { 1 };

    let start = Instant::now();
    let tallies = ctsim_stoch::fan_out(
        groups.len(),
        workers,
        || (),
        |_, g| run_group(&groups[g].1, solve_threads, opts),
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Several groups can fail; the lowest-index one is reported, so the
    // error does not depend on the thread count.
    let (mut rows, mut cache_hits, mut cache_misses) = (Vec::new(), 0, 0);
    for tally in tallies {
        let tally = tally?;
        rows.extend(tally.rows);
        cache_hits += tally.cache_hits;
        cache_misses += tally.cache_misses;
    }
    rows.sort_by(|a, b| a.spec.order(&b.spec));

    let mut measured = Vec::new();
    if opts.measure > 0 {
        let mut ns: Vec<usize> = rows.iter().map(|r| r.spec.n).collect();
        ns.sort_unstable();
        ns.dedup();
        for n in ns {
            let r =
                crate::run_campaign(&ctsim_testbed::TestbedConfig::class1(n, opts.measure, seed));
            measured.push(MeasuredRow {
                n,
                mean_ms: r.mean(),
                ci90: r.ci90(),
            });
        }
    }

    Ok(Campaign {
        rows,
        measured,
        cache_hits,
        cache_misses,
        wall_ms,
    })
}

/// What a group hands back: solved rows, and how often a point found
/// its group's graph already explored.
#[derive(Default)]
struct Tally {
    rows: Vec<PointRow>,
    cache_hits: u64,
    cache_misses: u64,
}

/// Solves one structural group sequentially, handing the group's one
/// explored graph from point to point.
fn run_group(
    points: &[PointSpec],
    solve_threads: usize,
    opts: &CampaignOptions,
) -> Result<Tally, CampaignError> {
    let mut graph: Option<DetachedRun> = None;
    let mut out = Tally::default();
    for spec in points {
        // The graph is moved into the point and comes back re-attached
        // to that point's model — one owner at a time, never a copy.
        let cached = graph.take();
        if cached.is_some() {
            out.cache_hits += 1;
            ctsim_obs::counter_add("graph_cache.hits", 1);
        } else {
            out.cache_misses += 1;
            ctsim_obs::counter_add("graph_cache.misses", 1);
        }
        let (row, detached) = run_point(spec, cached, solve_threads, opts)?;
        graph = Some(detached);
        eprintln!(
            "campaign: n={} ph={} {} svc={} net={} -> mean {:.6} ms \
             ({} states, {}, {} iters, build {:.1} ms, solve {:.1} ms)",
            spec.n,
            spec.ph_order,
            spec.backend,
            spec.service_scale,
            spec.net_scale,
            row.mean_ms,
            row.states,
            if row.cache_hit {
                "cache hit"
            } else {
                "explored"
            },
            row.iterations,
            row.build_ms,
            row.solve_ms,
        );
        out.rows.push(row);
    }
    Ok(out)
}

fn reach_options(spec: &PointSpec, params: &SanParams, threads: usize) -> ReachOptions {
    ReachOptions {
        ph_order: spec.ph_order,
        threads,
        max_states: params.recommended_max_states(spec.ph_order),
        ..ReachOptions::default()
    }
}

/// Solves one point: re-attaches `cached` (the group's graph, if a
/// previous point explored it) or explores cold, solves, and returns
/// the row with the graph detached again for the group's next point.
fn run_point(
    spec: &PointSpec,
    cached: Option<DetachedRun>,
    solve_threads: usize,
    opts: &CampaignOptions,
) -> Result<(PointRow, DetachedRun), CampaignError> {
    let _point_span = ctsim_obs::span("campaign", "point")
        .arg("n", spec.n)
        .arg("ph_order", spec.ph_order)
        .arg("backend", spec.backend.to_string())
        .arg("service_scale", spec.service_scale)
        .arg("net_scale", spec.net_scale);
    let params = spec.params();
    let model = build_model(&params);
    let goal = crate::some_process_decided(&model, params.n);
    let reach = reach_options(spec, &params, solve_threads);

    let fail = |what: &'static str, e: SolveError| CampaignError::Point {
        what,
        spec: spec.clone(),
        source: Box::new(e),
    };

    // Graph phase: rate-only rebuild of the group's graph, or a cold
    // exploration when there is none yet or the structure moved.
    let build_start = Instant::now();
    let mut rebuilt = None;
    if let Some(detached) = cached {
        let mut sp = ctsim_obs::span("campaign", "rebuild_rates");
        match detached.attach(&model) {
            Ok(run) => {
                sp.push_arg("states", run.space().len());
                rebuilt = Some(run);
            }
            Err(SolveError::StructureMismatch { .. }) => {}
            Err(e) => return Err(fail("rate rebuild", e)),
        }
    }
    let cache_hit = rebuilt.is_some();
    let run = match rebuilt {
        Some(run) => run,
        None => {
            let _sp = ctsim_obs::span("campaign", "explore");
            AnalyticRun::first_passage(&model, &reach, &goal).map_err(|e| fail("exploration", e))?
        }
    };
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let iter = IterOptions {
        backend: spec.backend,
        threads: solve_threads,
        ..IterOptions::default()
    };
    let solve_start = Instant::now();
    let sol = run.mean(&iter).map_err(|e| fail("solve", e))?;
    let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;

    let (mut cold_mean_ms, mut cold_ms, mut cold_iterations, mut agree) = (None, None, None, None);
    if opts.verify_cold {
        let _sp = ctsim_obs::span("campaign", "verify_cold");
        let cold_start = Instant::now();
        let cold = AnalyticRun::first_passage(&model, &reach, &goal)
            .map_err(|e| fail("cold exploration", e))?
            .mean(&iter)
            .map_err(|e| fail("cold solve", e))?;
        cold_ms = Some(cold_start.elapsed().as_secs_f64() * 1e3);
        cold_mean_ms = Some(cold.mean_ms);
        cold_iterations = Some(cold.iterations);
        // Same initial iterate and a bit-identical rebuild: the two
        // trajectories are the same sequence of floats.
        agree = Some(sol.mean_ms.to_bits() == cold.mean_ms.to_bits());
    }

    let row = PointRow {
        spec: spec.clone(),
        states: run.space().len(),
        transitions: run.space().num_transitions(),
        cache_hit,
        iterations: sol.iterations,
        build_ms,
        solve_ms,
        mean_ms: sol.mean_ms,
        cold_mean_ms,
        cold_ms,
        cold_iterations,
        agree,
    };
    Ok((row, run.detach()))
}

impl Campaign {
    /// Sum of per-point campaign wall-clock (build + solve, ms).
    pub fn campaign_point_ms(&self) -> f64 {
        self.rows.iter().map(PointRow::total_ms).sum()
    }

    /// Sum of per-point cold wall-clock (ms); `None` unless every row
    /// was verified cold.
    pub fn cold_point_ms(&self) -> Option<f64> {
        self.rows.iter().map(|r| r.cold_ms).sum()
    }

    /// Cold-vs-campaign speedup on per-point sums (`--verify-cold`
    /// runs only).
    pub fn speedup(&self) -> Option<f64> {
        let warmed = self.campaign_point_ms();
        self.cold_point_ms()
            .filter(|_| warmed > 0.0)
            .map(|cold| cold / warmed)
    }

    /// Latency heat-map blocks: for every `(n, ph_order, backend)` a
    /// dense `service_scale × net_scale` matrix of mean latencies,
    /// rendered as CSV (first column `service_scale`, one column per
    /// net scale). Returns `(block_name, csv_text)` pairs.
    pub fn heatmaps(&self) -> Vec<(String, String)> {
        let mut blocks: Vec<(usize, u32, &'static str)> = Vec::new();
        for r in &self.rows {
            let b = (r.spec.n, r.spec.ph_order, r.spec.backend.name());
            if !blocks.contains(&b) {
                blocks.push(b);
            }
        }
        blocks
            .into_iter()
            .map(|(n, ph_order, backend)| {
                let rows: Vec<&PointRow> = self
                    .rows
                    .iter()
                    .filter(|r| {
                        r.spec.n == n
                            && r.spec.ph_order == ph_order
                            && r.spec.backend.name() == backend
                    })
                    .collect();
                let mut svc: Vec<f64> = rows.iter().map(|r| r.spec.service_scale).collect();
                svc.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                svc.dedup();
                let mut net: Vec<f64> = rows.iter().map(|r| r.spec.net_scale).collect();
                net.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                net.dedup();
                let mut csv = String::from("service_scale");
                for x in &net {
                    csv.push_str(&format!(",net_{x}"));
                }
                csv.push('\n');
                for &s in &svc {
                    csv.push_str(&format!("{s}"));
                    for &x in &net {
                        let cell = rows
                            .iter()
                            .find(|r| r.spec.service_scale == s && r.spec.net_scale == x)
                            .map_or(String::new(), |r| format!("{:.9}", r.mean_ms));
                        csv.push(',');
                        csv.push_str(&cell);
                    }
                    csv.push('\n');
                }
                (format!("heatmap_n{n}_ph{ph_order}_{backend}"), csv)
            })
            .collect()
    }

    /// Aggregate summary as a small JSON document (hand-rolled like the
    /// bench harness — the workspace carries no JSON dependency).
    pub fn summary_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"points\": {},\n", self.rows.len()));
        s.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        s.push_str(&format!("  \"cache_misses\": {},\n", self.cache_misses));
        s.push_str(&format!("  \"wall_ms\": {:.3},\n", self.wall_ms));
        s.push_str(&format!(
            "  \"campaign_point_ms\": {:.3},\n",
            self.campaign_point_ms()
        ));
        match self.cold_point_ms() {
            Some(cold) => s.push_str(&format!("  \"cold_point_ms\": {cold:.3},\n")),
            None => s.push_str("  \"cold_point_ms\": null,\n"),
        }
        match self.speedup() {
            Some(x) => s.push_str(&format!("  \"speedup\": {x:.3}\n")),
            None => s.push_str("  \"speedup\": null\n"),
        }
        s.push('}');
        s
    }

    /// Paper-style text rendering of the campaign.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Campaign — {} points, cache {} hits / {} misses, wall {:.1} ms\n",
            self.rows.len(),
            self.cache_hits,
            self.cache_misses,
            self.wall_ms
        );
        s.push_str(
            "  n | ph | backend      |  svc |  net |  states |   hit | iters | \
             build_ms | solve_ms |  mean_ms | agree\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:>3} | {:>2} | {:<12} | {:>4} | {:>4} | {:>7} | {:>5} | {:>5} | \
                 {:>8.2} | {:>8.2} | {} | {}\n",
                r.spec.n,
                r.spec.ph_order,
                r.spec.backend.name(),
                r.spec.service_scale,
                r.spec.net_scale,
                r.states,
                r.cache_hit,
                r.iterations,
                r.build_ms,
                r.solve_ms,
                crate::cell(r.mean_ms),
                r.agree.map_or("skip".to_string(), |b| b.to_string()),
            ));
        }
        if let Some(x) = self.speedup() {
            s.push_str(&format!(
                "cold-vs-campaign: {:.1} ms cold vs {:.1} ms cached per-point -> {x:.2}x\n",
                self.cold_point_ms().expect("speedup implies cold"),
                self.campaign_point_ms(),
            ));
        }
        for m in &self.measured {
            s.push_str(&format!(
                "measured n={}: {:.3} ms +/- {:.3} (testbed campaign)\n",
                m.n, m.mean_ms, m.ci90
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(verify: bool) -> CampaignOptions {
        CampaignOptions {
            ns: vec![2],
            ph_orders: vec![0, 2],
            service_scales: vec![0.9, 1.0, 1.2],
            backends: vec![
                SolverBackend::GaussSeidel,
                SolverBackend::Jacobi,
                SolverBackend::Krylov,
            ],
            threads: 2,
            verify_cold: verify,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn grid_cross_product_and_structural_grouping() {
        let specs = grid(&tiny(false)).unwrap();
        // 1 n x 2 orders x 3 backends x 1 net x 3 service = 18 points,
        // but only 2 structural families (backend is not structural).
        assert_eq!(specs.len(), 18);
        let mut keys: Vec<StructuralKey> = specs.iter().map(PointSpec::key).collect();
        keys.dedup();
        keys.sort_by_key(|k| k.ph_order);
        keys.dedup();
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].topology, "exponential");
        assert_eq!(keys[1].topology, "paper");
    }

    #[test]
    fn grid_file_round_trip() {
        let text = "# campaign grid\nn,ph_order,backend,service_scale,net_scale\n\
                    2,2,krylov,1.0,1.0\n3,0,gauss-seidel,0.9,1.1\n";
        let specs = parse_grid(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].backend, SolverBackend::Krylov);
        assert_eq!(specs[1].n, 3);
        assert_eq!(specs[1].net_scale, 1.1);
        assert!(parse_grid("2,2,krylov,1.0\n").is_err());
        assert!(parse_grid("# nothing\n").is_err());
        // A scale that is not finite and > 0 is refused where the grid
        // is assembled, naming the line or the axis.
        for bad in ["nan", "0", "-1", "inf"] {
            let err = parse_grid(&format!("2,2,krylov,1.0,1.0\n2,2,krylov,{bad},1.0\n"));
            let err = err.unwrap_err().to_string();
            assert!(err.contains("line 2: bad service_scale"), "{err}");
            let err = grid(&CampaignOptions {
                net_scales: vec![1.0, bad.parse().unwrap()],
                ..tiny(false)
            });
            let err = err.unwrap_err();
            assert!(matches!(err, CampaignError::Grid(_)), "{err:?}");
            assert!(err.to_string().contains("net scales"), "{err}");
        }
        // So is `n = 0`, which has no model.
        let err = parse_grid("2,2,krylov,1.0,1.0\n0,1,krylov,1,1\n").unwrap_err();
        assert!(err.to_string().contains("line 2: bad n"), "{err}");
        let err = grid(&CampaignOptions {
            ns: vec![2, 0],
            ..tiny(false)
        })
        .unwrap_err();
        assert!(matches!(err, CampaignError::Grid(_)), "{err:?}");
        assert!(err.to_string().contains("ns: `0`"), "{err}");
    }

    #[test]
    fn campaign_caches_graphs_and_agrees_with_cold() {
        let c = run_with(7, &tiny(true)).unwrap();
        assert_eq!(c.rows.len(), 18);
        // Exactly one cold exploration per structural family; every
        // other point is a rate-only rebuild.
        let cold: Vec<&PointRow> = c.rows.iter().filter(|r| !r.cache_hit).collect();
        assert_eq!(cold.len(), 2, "one miss per structural group");
        assert_eq!(c.cache_misses, 2);
        assert_eq!(c.cache_hits, 16);
        // The verify-cold gate: every row is its cold twin, step for
        // step and bit for bit.
        for r in &c.rows {
            assert_eq!(Some(r.iterations), r.cold_iterations, "{r:?}");
            assert_eq!(r.agree, Some(true), "{r:?}");
        }
        // Distinct service scales genuinely move the answer.
        let means: Vec<f64> = c
            .rows
            .iter()
            .filter(|r| r.spec.backend == SolverBackend::GaussSeidel && r.spec.ph_order == 2)
            .map(|r| r.mean_ms)
            .collect();
        assert_eq!(means.len(), 3);
        assert!(means.windows(2).all(|w| w[0] < w[1]), "{means:?}");
        // Rendering and CSV round out the row.
        let rendered = c.render();
        assert!(rendered.contains("cache 16 hits / 2 misses"));
        assert!(c.speedup().is_some());
        let csv = c.rows[0].csv();
        assert_eq!(
            csv.split(',').count(),
            PointRow::csv_header().split(',').count()
        );
        assert!(csv.ends_with(",true"));
        assert!(!c.heatmaps().is_empty());
        let json = c.summary_json();
        assert!(json.contains("\"cache_hits\": 16"));
    }

    #[test]
    fn campaign_errors_are_typed_displayed_and_chained() {
        use std::error::Error;
        let spec = PointSpec {
            n: 2,
            ph_order: 1,
            backend: SolverBackend::Krylov,
            service_scale: 1.0,
            net_scale: 1.0,
        };
        let e = CampaignError::Point {
            what: "solve",
            spec,
            source: Box::new(SolveError::NotConverged {
                iterations: 17,
                residual: 0.5,
            }),
        };
        let msg = e.to_string();
        assert!(msg.contains("campaign solve failed"), "{msg}");
        assert!(msg.contains("n=2"), "{msg}");
        assert!(msg.contains("krylov"), "{msg}");
        let source = e.source().expect("solver error chained").to_string();
        assert!(source.contains("17"), "{source}");
    }

    #[test]
    fn gauss_seidel_campaign_means_are_bit_identical_to_cold() {
        // The strongest form of the acceptance criterion, in-process:
        // a rate-only rebuilt graph reproduces the cold mean to the
        // last bit, in the same number of steps, on every point of a
        // service sweep — whichever backend solves it.
        let opts = CampaignOptions {
            ns: vec![2],
            ph_orders: vec![2],
            service_scales: vec![0.8, 0.9, 1.0, 1.1, 1.25],
            backends: vec![
                SolverBackend::GaussSeidel,
                SolverBackend::Jacobi,
                SolverBackend::Krylov,
            ],
            threads: 1,
            verify_cold: true,
            ..CampaignOptions::default()
        };
        let c = run_with(7, &opts).unwrap();
        assert_eq!(c.rows.len(), 15);
        assert_eq!(c.rows.iter().filter(|r| r.cache_hit).count(), 14);
        for r in &c.rows {
            let cold = r.cold_mean_ms.unwrap();
            assert_eq!(
                r.mean_ms.to_bits(),
                cold.to_bits(),
                "{} svc={}: {} vs cold {}",
                r.spec.backend,
                r.spec.service_scale,
                r.mean_ms,
                cold
            );
            assert_eq!(Some(r.iterations), r.cold_iterations, "{:?}", r.spec);
        }
    }
}
