//! The analytic overlay: exact solver results next to the Monte-Carlo
//! estimates of the Fig. 7 latency and Table 1 crash-latency
//! experiments.
//!
//! Two families of rows:
//!
//! * **exponential** rows (`ph_order` column empty) solve the Markovian
//!   re-parameterisation ([`SanParams::exponential_baseline`]) exactly
//!   — the marking process is a CTMC as-is. The simulator run on the
//!   identical parameters must agree within its own 90 % confidence
//!   interval, cross-validating both engines.
//! * **phase-type** rows (`ph_order = K`) attack the paper's *real*
//!   Fig. 7 parameterisation — deterministic CPU stages, bi-modal
//!   uniform network delays — by hyper-Erlang expansion inside the
//!   solver (`ReachOptions::ph_order`). Deterministic stages can only
//!   be matched in the mean at any finite order (their variance error
//!   decays as `1/K`), so the headline `analytic_ms` is the standard
//!   Richardson extrapolation over the order,
//!   `(K·m_K − K'·m_{K'})/(K − K')` with `K' = K − 1`, and the raw
//!   order-K mean is kept alongside in `ph_raw_ms`. The overlay CDF
//!   comes from the order-K solve.

use std::time::Instant;

use ctsim_models::{build_model, latency_replications, SanParams};
use ctsim_san::Replications;
use ctsim_solve::{
    extrapolated_mean, AnalyticRun, DedupMode, SolveError, SolveOptions, SolverBackend,
    SpillOptions,
};
use ctsim_testbed::CrashScenario;

use crate::scale::Scale;

/// Knobs for the phase-type rows, surfaced as `repro analytic
/// --ph-order K --threads T [--n N] [--solver BACKEND]`.
#[derive(Debug, Clone)]
pub struct AnalyticOptions {
    /// Phase-type expansion order for the paper-parameter rows
    /// (`0` disables those rows entirely).
    pub ph_order: u32,
    /// Exploration worker threads (`0` = one per core), reused for the
    /// solver backend's sharded SpMV. Results are identical for every
    /// value.
    pub threads: usize,
    /// Run the overlay for exactly this process count instead of the
    /// scale's default sweep. An explicit `n` also lifts the scale's
    /// state cap to [`SanParams::recommended_max_states`], so
    /// `--n 3 --ph-order 2 --scale quick` really solves its half-
    /// million-state space instead of reporting a cap skip — this is
    /// the mode the CI scalability gate runs.
    pub n: Option<usize>,
    /// Which linear-algebra backend solves the CTMC (`repro analytic
    /// --solver gauss-seidel|jacobi|krylov`). Every backend must land
    /// on the same means — the `backends_agree_on_the_overlay_means`
    /// test gates their agreement to ≤ 1e-6 relative.
    pub backend: SolverBackend,
    /// RAM budget (bytes) for the exploration's and solve's bulk
    /// arrays — the packed states, the CSR entries, and (under
    /// [`DedupMode::Auto`]) the intern table's estimated footprint;
    /// beyond it cold segments page to a temp file (`repro analytic
    /// --spill-budget 512M`). `None` keeps everything resident.
    /// Results are byte-identical either way.
    pub spill_budget: Option<usize>,
    /// How exploration deduplicates states when a spill budget is set
    /// (`repro analytic --dedup auto|external`): the resident sharded
    /// intern table until it outgrows its share of the budget, or
    /// external-memory BFS with delayed duplicate detection from the
    /// start. Ignored without `--spill-budget`. Results are
    /// byte-identical across modes.
    pub dedup: DedupMode,
}

impl Default for AnalyticOptions {
    fn default() -> Self {
        Self {
            ph_order: 4,
            threads: 0,
            n: None,
            backend: SolverBackend::default(),
            spill_budget: None,
            dedup: DedupMode::default(),
        }
    }
}

/// One analytic-vs-simulation comparison.
#[derive(Debug, Clone)]
pub struct AnalyticRow {
    /// Crash scenario (Table 1 axis).
    pub scenario: CrashScenario,
    /// Number of processes (Fig. 7 axis).
    pub n: usize,
    /// Phase-type order of the solve (`None` for the exponential rows).
    pub ph_order: Option<u32>,
    /// Headline analytic mean latency (ms): exact for exponential
    /// rows, order-extrapolated for phase-type rows.
    pub analytic_ms: Option<f64>,
    /// Raw order-K phase-type mean (ms), before extrapolation.
    pub ph_raw_ms: Option<f64>,
    /// Wall-clock (ms) of the linear-algebra *solve* phase — the
    /// `Q_TT τ = -1` mean solves (both orders for extrapolated rows),
    /// excluding exploration and the CDF grid. This is what
    /// `--solver` trades off; 0 when the row was skipped.
    pub solve_ms: f64,
    /// The backend that solved the analytic columns
    /// ([`AnalyticOptions::backend`]).
    pub backend: SolverBackend,
    /// Tangible states of the underlying CTMC (0 when skipped).
    pub states: usize,
    /// Analytic latency CDF points `(t_ms, P(latency ≤ t))`.
    pub cdf: Vec<(f64, f64)>,
    /// Simulated mean latency (ms) on the same parameters.
    pub sim_ms: f64,
    /// 90 % CI half-width of the simulated mean.
    pub sim_ci90: f64,
    /// Phase-type rows only: simulated mean latency (ms) of the
    /// **PH-substituted** model ([`SanParams::ph_substituted`]) — the
    /// exact stochastic model the solver expanded, so [`Self::ph_raw_ms`]
    /// must agree with it regardless of how far the phase-type
    /// *approximation* sits from the paper's parameters.
    pub ph_sim_ms: Option<f64>,
    /// 90 % CI half-width of [`Self::ph_sim_ms`].
    pub ph_sim_ci90: Option<f64>,
    /// Why the analytic solve was skipped, if it was.
    pub skipped: Option<String>,
}

impl AnalyticRow {
    /// Whether the headline analytic mean and the simulator agree
    /// within the simulator's 90 % confidence interval, on the *target*
    /// parameters. For phase-type rows at larger `n` this measures the
    /// phase-type approximation quality, which is limited by the
    /// support-edge bias (no finite PH reproduces the hard minimum of
    /// the paper's delay mixtures) — see [`Self::engine_agrees`] for
    /// the regression-gateable comparison.
    pub fn agrees(&self) -> bool {
        self.analytic_ms
            .is_some_and(|a| (a - self.sim_ms).abs() <= self.sim_ci90)
    }

    /// Engine-vs-engine agreement on the **identical** stochastic
    /// model: exponential rows compare the exact solve against the
    /// simulation directly (same model already), phase-type rows
    /// compare the raw order-K mean against the simulation of the
    /// PH-substituted parameters. A `false` here means one of the two
    /// engines is wrong — this is the column CI gates on.
    pub fn engine_agrees(&self) -> bool {
        match (self.ph_raw_ms, self.ph_sim_ms, self.ph_sim_ci90) {
            (Some(raw), Some(sim), Some(ci)) => (raw - sim).abs() <= ci,
            _ => self.agrees(),
        }
    }
}

/// The analytic overlay experiment.
#[derive(Debug, Clone)]
pub struct Analytic {
    /// Rows grouped by scenario, then n ascending; phase-type rows
    /// follow the exponential rows.
    pub rows: Vec<AnalyticRow>,
}

/// Process counts per scale. `n = 2` is the smallest non-degenerate
/// consensus (a 20-state CTMC); `n = 3` is the paper's smallest
/// simulated size (≈ 10⁵ states without crashes) and is reserved for
/// the non-quick scales.
fn analytic_ns(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Quick => &[2],
        _ => &[2, 3],
    }
}

/// Process counts for the phase-type rows. Expansion multiplies the
/// state space (n = 3 passes 5 × 10⁵ states at order 2 already — see
/// the `ctsim-solve` crate docs), so n = 3 is Full-scale territory and
/// hits the state cap at higher orders, reporting a skip.
fn ph_ns(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Full => &[2, 3],
        _ => &[2],
    }
}

/// Replications per comparison point. Agreement is asserted against the
/// *simulator's* 90 % CI, so the campaign must be large enough for that
/// interval to be a few per mille of the mean — more than the figure
/// campaigns need.
fn analytic_reps(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 2_000,
        Scale::Default => 4_000,
        Scale::Full => 10_000,
    }
}

fn max_states(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 200_000,
        _ => 1_000_000,
    }
}

/// What one solve contributes to its overlay row.
struct Solved {
    /// Headline mean (ms): exact, or order-extrapolated.
    mean_ms: f64,
    /// Raw order-K mean (ms) of a phase-type row.
    raw_ms: Option<f64>,
    states: usize,
    cdf: Vec<(f64, f64)>,
    /// Wall-clock of the mean solves alone (no exploration, no CDF
    /// grid).
    solve_ms: f64,
}

/// Largest state space for which the overlay CDF is evaluated. The
/// seven-point grid is one uniformization pass
/// ([`AnalyticRun::cdf_grid`]) as long as its largest time's: on the
/// n = 3 order-2 chain (534 429 states) that is 1 012 Poisson terms,
/// measured at 4.9 s on two threads and 7.7 s on one (2-core Xeon
/// host), where seven separate `cdf` calls took 15–17 s. Order 3
/// (2.3 M states, about four times the work per term) stays above the
/// cap and reports the mean (and the agreement verdict) with an empty
/// CDF series.
const CDF_MAX_STATES: usize = 1_000_000;

/// The solve options of one overlay solve at expansion `order`: the
/// command-line knobs, capped at the model's recommended state count
/// under an explicit `--n` and at the scale's cap otherwise.
fn solve_options(
    ph: &AnalyticOptions,
    scale: Scale,
    order: u32,
    params: &SanParams,
) -> SolveOptions {
    let mut opts = SolveOptions::ph_with_backend(order, ph.threads, ph.backend);
    opts.reach.max_states = if ph.n.is_some() {
        params.recommended_max_states(order)
    } else {
        max_states(scale)
    };
    opts.reach.spill = ph
        .spill_budget
        .map(|b| SpillOptions::with_budget(b).dedup(ph.dedup));
    opts
}

/// Solves the first-passage mean (and, if wanted and affordable, the
/// CDF grid around it) for the given parameters.
fn solve_mean_and_cdf(
    params: &SanParams,
    opts: &SolveOptions,
    want_cdf: bool,
) -> Result<Solved, SolveError> {
    let model = build_model(params);
    let goal = crate::some_process_decided(&model, params.n);
    let run = AnalyticRun::first_passage_with(&model, opts, goal)?;
    let solve_start = Instant::now();
    let mean = run.mean(&opts.iter)?;
    let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;
    let cdf = if want_cdf && mean.states <= CDF_MAX_STATES {
        let times = cdf_grid(mean.mean_ms);
        let probs = run.cdf_grid(&times, &opts.transient)?;
        times.into_iter().zip(probs).collect()
    } else {
        Vec::new()
    };
    Ok(Solved {
        mean_ms: mean.mean_ms,
        raw_ms: None,
        states: mean.states,
        cdf,
        solve_ms,
    })
}

/// Assembles one overlay row from its simulation campaign and its
/// solve; a state-cap or non-Markovian refusal becomes a skipped row,
/// any other solver error is the caller's.
fn overlay_row(
    scenario: CrashScenario,
    n: usize,
    ph_order: Option<u32>,
    ph: &AnalyticOptions,
    reps: &Replications,
    solved: Result<Solved, SolveError>,
) -> Result<AnalyticRow, SolveError> {
    let mut row = AnalyticRow {
        scenario,
        n,
        ph_order,
        analytic_ms: None,
        ph_raw_ms: None,
        solve_ms: 0.0,
        backend: ph.backend,
        states: 0,
        cdf: Vec::new(),
        sim_ms: reps.mean(),
        sim_ci90: reps.ci90(),
        ph_sim_ms: None,
        ph_sim_ci90: None,
        skipped: None,
    };
    match solved {
        Ok(solved) => {
            row.analytic_ms = Some(solved.mean_ms);
            row.ph_raw_ms = solved.raw_ms;
            row.solve_ms = solved.solve_ms;
            row.states = solved.states;
            row.cdf = solved.cdf;
        }
        Err(e) if skippable(&e) => row.skipped = Some(e.to_string()),
        Err(e) => return Err(e),
    }
    Ok(row)
}

fn skippable(e: &SolveError) -> bool {
    matches!(
        e,
        SolveError::StateSpaceTooLarge { .. } | SolveError::NonMarkovian { .. }
    )
}

/// Runs the overlay with default phase-type options (order 4, all
/// cores).
///
/// # Panics
/// On a non-skippable solver error — the default options are known
/// feasible, so this wrapper keeps the infallible signature the figure
/// pipeline uses. Fallible callers (the `repro` CLI) use [`run_with`].
pub fn run(scale: Scale, seed: u64) -> Analytic {
    run_with(scale, seed, &AnalyticOptions::default()).expect("default analytic overlay solves")
}

/// Runs the overlay: every scenario × n that is both feasible for the
/// solver (state cap by scale) and meaningful for the scenario (crashes
/// need `n ≥ 3` to keep a correct majority), then the phase-type rows
/// on the paper's real parameters. [`AnalyticOptions::n`] replaces the
/// scale's n sweep with one explicit process count.
///
/// # Errors
/// Any non-skippable [`SolveError`] — including
/// [`SolveError::SpillFailed`] with its attempt trace when a disk-spill
/// operation exhausts its retry budget. State-cap and non-Markovian
/// skips stay rows with [`AnalyticRow::skipped`] set, as before.
pub fn run_with(scale: Scale, seed: u64, ph: &AnalyticOptions) -> Result<Analytic, SolveError> {
    let _run_span = ctsim_obs::span("experiment", "analytic_overlay")
        .arg("ph_order", ph.ph_order)
        .arg("backend", ph.backend.to_string())
        .arg("seed", seed);
    let exp_ns: Vec<usize> = match ph.n {
        Some(n) => vec![n],
        None => analytic_ns(scale).to_vec(),
    };
    let phase_ns: Vec<usize> = match ph.n {
        Some(n) => vec![n],
        None => ph_ns(scale).to_vec(),
    };
    let mut rows = Vec::new();
    for scenario in [
        CrashScenario::None,
        CrashScenario::Coordinator,
        CrashScenario::Participant,
    ] {
        for &n in &exp_ns {
            if scenario.crashed_index().is_some() && n < 3 {
                continue;
            }
            let mut params = SanParams::exponential_baseline(n);
            if let Some(idx) = scenario.crashed_index() {
                params = params.with_crash(idx);
            }
            let reps = latency_replications(&params, analytic_reps(scale), seed, 10_000.0);
            let opts = solve_options(ph, scale, 0, &params);
            let solved = solve_mean_and_cdf(&params, &opts, true);
            rows.push(overlay_row(scenario, n, None, ph, &reps, solved)?);
        }
    }
    // Phase-type rows: the paper's real class-1 parameters.
    if ph.ph_order >= 1 {
        for &n in &phase_ns {
            rows.push(ph_row(scale, seed, n, ph)?);
        }
    }
    Ok(Analytic { rows })
}

/// One phase-type row: raw solve at order K, extrapolation against
/// order K−1, simulation on the identical (real) parameters.
fn ph_row(
    scale: Scale,
    seed: u64,
    n: usize,
    ph: &AnalyticOptions,
) -> Result<AnalyticRow, SolveError> {
    let params = SanParams::paper_baseline(n);
    let reps = latency_replications(&params, analytic_reps(scale), seed, 10_000.0);
    let k = ph.ph_order;
    let opts = solve_options(ph, scale, k, &params);
    let solved = solve_mean_and_cdf(&params, &opts, true).and_then(|mut at_k| {
        at_k.raw_ms = Some(at_k.mean_ms);
        if k >= 2 {
            // Richardson extrapolation over the order: the dominant
            // error of the Erlang(K) stand-ins for deterministic
            // stages is ∝ 1/K (see `ctsim_solve::extrapolated_mean`).
            let prev = solve_options(ph, scale, k - 1, &params);
            let below = solve_mean_and_cdf(&params, &prev, false)?;
            at_k.mean_ms = extrapolated_mean(&[(k - 1, below.mean_ms), (k, at_k.mean_ms)])
                .expect("two order points");
            at_k.solve_ms += below.solve_ms;
        }
        Ok(at_k)
    });
    let mut row = overlay_row(CrashScenario::None, n, Some(k), ph, &reps, solved)?;
    if row.skipped.is_none() {
        // Engine cross-validation: simulate the PH-substituted
        // model — exactly the expanded CTMC just solved — and
        // require the raw order-K mean inside its 90 % CI. A
        // decorrelated seed keeps the two campaigns independent.
        let ph_reps = latency_replications(
            &params.ph_substituted(k),
            analytic_reps(scale),
            seed ^ 0x70AD_5EED,
            10_000.0,
        );
        row.ph_sim_ms = Some(ph_reps.mean());
        row.ph_sim_ci90 = Some(ph_reps.ci90());
    }
    Ok(row)
}

/// CDF evaluation grid around a mean latency.
fn cdf_grid(mean_ms: f64) -> Vec<f64> {
    [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|&f| f * mean_ms)
        .collect()
}

impl Analytic {
    /// Finds an exponential-model row.
    pub fn row(&self, scenario: CrashScenario, n: usize) -> Option<&AnalyticRow> {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.n == n && r.ph_order.is_none())
    }

    /// Finds a phase-type row.
    pub fn ph_row(&self, n: usize) -> Option<&AnalyticRow> {
        self.rows.iter().find(|r| r.n == n && r.ph_order.is_some())
    }

    /// Paper-style rendering of the overlay.
    pub fn render(&self) -> String {
        fn name(s: CrashScenario) -> &'static str {
            match s {
                CrashScenario::None => "no crash          ",
                CrashScenario::Coordinator => "coordinator crash ",
                CrashScenario::Participant => "participant crash ",
            }
        }
        let mut s = String::new();
        let backend = self
            .rows
            .first()
            .map_or_else(|| SolverBackend::default().name(), |r| r.backend.name());
        s.push_str(&format!(
            "Analytic overlay — exact solve vs simulation (ms), solver backend: {backend}\n"
        ));
        s.push_str(
            "scenario           |  n | model | states | analytic | solve_ms |     sim |    ci90 | agree | engine\n",
        );
        for r in &self.rows {
            let model = match r.ph_order {
                None => "  exp".to_string(),
                Some(k) => format!(" ph-{k}"),
            };
            let verdict = |ok: bool| {
                if r.skipped.is_some() {
                    "skip"
                } else if ok {
                    "yes"
                } else {
                    "NO"
                }
            };
            s.push_str(&format!(
                "{} |{:>3} | {} |{:>7} |{} |{:>9.3} |{} |{:>8.4} | {:<5} | {}\n",
                name(r.scenario),
                r.n,
                model,
                r.states,
                r.analytic_ms.map_or("       —".into(), crate::cell),
                r.solve_ms,
                crate::cell(r.sim_ms),
                r.sim_ci90,
                verdict(r.agrees()),
                verdict(r.engine_agrees()),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_overlay_agrees_within_ci() {
        let a = run(Scale::Quick, 11);
        assert_eq!(
            a.rows.len(),
            2,
            "quick scale: exponential n = 2 plus phase-type n = 2"
        );
        let r = a.row(CrashScenario::None, 2).unwrap();
        let exact = r.analytic_ms.expect("n = 2 must solve");
        assert!(r.states > 2, "states {}", r.states);
        assert!(
            r.agrees(),
            "solver {exact} vs sim {} ± {}",
            r.sim_ms,
            r.sim_ci90
        );
        // The CDF is monotone and reaches well past the median by 3×mean.
        let cdf = &r.cdf;
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
        assert!(cdf.last().unwrap().1 > 0.9, "cdf {:?}", cdf.last());
        let rendered = a.render();
        assert!(rendered.contains("agree"));
        assert!(rendered.contains("yes"));
    }

    #[test]
    fn n_override_restricts_rows_and_solves() {
        let opts = AnalyticOptions {
            ph_order: 2,
            threads: 1,
            n: Some(2),
            ..AnalyticOptions::default()
        };
        let a = run_with(Scale::Quick, 11, &opts).unwrap();
        assert!(a.rows.iter().all(|r| r.n == 2), "only the overridden n");
        // Crash scenarios need n ≥ 3, so: one exponential + one
        // phase-type row, both actually solved (no cap skips).
        assert_eq!(a.rows.len(), 2);
        assert!(a.rows.iter().all(|r| r.skipped.is_none()));
        assert!(a.rows.iter().all(|r| r.analytic_ms.is_some()));
        // Both engines must agree on the identical stochastic model —
        // the CI-gated column.
        assert!(a.rows.iter().all(|r| r.engine_agrees()));
    }

    /// Every solver backend reproduces the same overlay means to 1e-6
    /// relative, each with its engine column agreeing — the gate the CI
    /// `solver-backends` matrix used to run out of process.
    #[test]
    fn backends_agree_on_the_overlay_means() {
        let solve = |backend: SolverBackend| {
            let opts = AnalyticOptions {
                ph_order: 3,
                threads: 2,
                n: Some(2),
                backend,
                ..AnalyticOptions::default()
            };
            run_with(Scale::Quick, 11, &opts).unwrap()
        };
        let reference = solve(SolverBackend::GaussSeidel);
        for backend in [SolverBackend::Jacobi, SolverBackend::Krylov] {
            let a = solve(backend);
            assert_eq!(a.rows.len(), reference.rows.len());
            for (r, b) in reference.rows.iter().zip(&a.rows) {
                let (rm, bm) = (r.analytic_ms.unwrap(), b.analytic_ms.unwrap());
                assert!(
                    (rm - bm).abs() <= 1e-6 * rm.abs(),
                    "{backend}: {bm} vs gauss-seidel {rm}"
                );
                assert_eq!(b.backend, backend);
                assert!(b.engine_agrees(), "{backend}");
            }
        }
    }

    #[test]
    fn quick_overlay_phase_type_row_agrees_on_real_parameters() {
        let a = run(Scale::Quick, 11);
        let r = a.ph_row(2).expect("phase-type row present");
        assert_eq!(r.ph_order, Some(4));
        let headline = r.analytic_ms.expect("order-4 n = 2 must solve");
        let raw = r.ph_raw_ms.expect("raw mean recorded");
        assert!(
            r.agrees(),
            "extrapolated {headline} vs sim {} ± {}",
            r.sim_ms,
            r.sim_ci90
        );
        // The raw order-4 mean underestimates (Erlang stand-ins have
        // too much variance); extrapolation must move toward the sim.
        assert!(raw < headline, "raw {raw} vs extrapolated {headline}");
        assert!(!r.cdf.is_empty(), "overlay CDF present");
        // And the raw mean must match the simulation of the identical
        // PH-substituted model: the engine-vs-engine gate.
        let ph_sim = r.ph_sim_ms.expect("ph-model campaign ran");
        let ph_ci = r.ph_sim_ci90.expect("ph-model campaign ran");
        assert!(
            r.engine_agrees(),
            "raw {raw} vs ph-model sim {ph_sim} ± {ph_ci}"
        );
    }
}
