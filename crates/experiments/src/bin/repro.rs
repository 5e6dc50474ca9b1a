//! `repro` — regenerates every table and figure of the DSN 2002 paper.
//!
//! ```text
//! repro <fig6|fig7a|fig7b|table1|fig8|fig9a|fig9b|campaign|all> \
//!       [--scale quick|default|full] [--seed N] [--out DIR] \
//!       [--ph-order K] [--threads T] [--n N] [--solver BACKEND] \
//!       [--trace FILE.json] [--metrics FILE.json]
//! ```
//!
//! `repro campaign` runs the scenario-campaign engine
//! (`ctsim_experiments::campaign`): a parameter grid — either the
//! cross-product of `--ns`/`--ph-orders`/`--service-scales`/
//! `--net-scales`/`--backends` or an explicit `--grid FILE.csv` — is
//! swept through the analytic solver with one exploration per
//! structural family (cached reachability + rate-only CSR rebuild).
//! `--verify-cold` re-runs every point cold and records per-row
//! bit-for-bit agreement plus the measured speedup (the CI campaign job
//! gates on those columns). Output: `campaign.csv` (per-point rows)
//! and `campaign_summary.json`.
//!
//! Text renderings (with the paper's reference values inline) go to
//! stdout; CSV series go to `--out` (default `results/`). A result
//! file that cannot be written is an error: the remaining subcommands
//! still run, then the exit code is 1.
//!
//! `--ph-order`, `--threads`, `--n`, and `--solver` drive the
//! `analytic` overlay: the phase-type expansion order used to
//! Markovianize the paper's deterministic/bi-modal stages, the
//! state-space exploration worker count (0 = all cores; the result is
//! identical for any value — it is reused for the solver's sharded
//! SpMV), an explicit process count replacing the scale's n sweep
//! (`--n 3` lifts the state cap to the model's recommended value so
//! the half-million-state order-2 expansion actually solves — the CI
//! scalability gate runs exactly that), and the linear-algebra backend
//! (`gauss-seidel` | `jacobi` | `krylov`) the CTMC is solved with —
//! every backend must produce the same means, which the
//! `backends_agree_on_the_overlay_means` test gates at ≤ 1e-6
//! relative. `--threads` also sets the workers the measurement
//! campaigns of `fig7a`, `fig8`, `fig9a`, `fig9b` and `table1` fan out
//! to (`ctsim_stoch::fan_out`); their CSVs are byte-identical at every
//! value.
//!
//! `--trace` and `--metrics` turn the `ctsim-obs` telemetry on for the
//! whole invocation — every subcommand it runs — and afterwards write
//! a chrome://tracing `trace_event` file and a metrics JSON document
//! (counters, gauges, residual traces, histograms) to the given paths,
//! also when a subcommand failed; the human-readable run summary goes
//! to stderr. A file that cannot be written is an error (exit 1).
//! Telemetry never changes results — it only observes.
//!
//! Fault injection (see `docs/RESILIENCE.md`): `--failpoints SPEC`
//! arms the deterministic fault-injection registry on the sites of
//! `ctsim_resilience::fail::SITES` (any other site is a usage error)
//! with `always` or `first:K` schedules — the CI fault-injection legs
//! drive retry and typed failure paths through exactly this flag.

use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};

use ctsim_experiments::analytic::AnalyticOptions;
use ctsim_experiments::campaign::{self, CampaignOptions, PointRow};
use ctsim_experiments::{ablations, analytic, fig6, fig7, fig8, fig9, table1, throughput, Scale};

struct Args {
    command: String,
    scale: Scale,
    seed: u64,
    out: PathBuf,
    ph: AnalyticOptions,
    campaign: CampaignOptions,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    failpoints: Option<String>,
}

/// The value after `flag`, parsed: "missing value for FLAG" when the
/// arguments end, the parse error's text when it does not parse.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    args.next()
        .ok_or_else(|| format!("missing value for {flag}"))?
        .parse()
        .map_err(|e: T::Err| e.to_string())
}

/// The comma-separated list after `flag`, each item parsed.
fn list<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    value::<String>(args, flag)?
        .split(',')
        .map(|x| {
            x.trim()
                .parse::<T>()
                .map_err(|e| format!("bad {what} `{x}`: {e}"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut scale = Scale::Default;
    let mut seed = 20020623; // DSN 2002 conference date
    let mut out = PathBuf::from("results");
    let mut ph = AnalyticOptions::default();
    let mut campaign = CampaignOptions::default();
    let (mut trace, mut metrics) = (None, None);
    let mut failpoints = None;
    while let Some(flag) = args.next() {
        let a = &mut args;
        match flag.as_str() {
            "--grid" => campaign.grid = Some(value(a, &flag)?),
            "--ns" => campaign.ns = list(a, &flag, "n")?,
            "--ph-orders" => campaign.ph_orders = list(a, &flag, "ph order")?,
            "--service-scales" => campaign.service_scales = list(a, &flag, "service scale")?,
            "--net-scales" => campaign.net_scales = list(a, &flag, "net scale")?,
            "--backends" => campaign.backends = list(a, &flag, "backend")?,
            "--verify-cold" => campaign.verify_cold = true,
            "--failpoints" => failpoints = Some(value(a, &flag)?),
            "--scale" => scale = value(a, &flag)?,
            "--seed" => seed = value(a, &flag)?,
            "--out" => out = value(a, &flag)?,
            "--ph-order" => ph.ph_order = value(a, &flag)?,
            "--threads" => ph.threads = value(a, &flag)?,
            "--n" => match value(a, &flag)? {
                0 => return Err("--n 0: the model needs at least one process".to_string()),
                n => ph.n = Some(n),
            },
            "--solver" => ph.backend = value(a, &flag)?,
            "--spill-budget" => {
                ph.spill_budget = Some(ctsim_experiments::parse_size(&value::<String>(a, &flag)?)?);
            }
            "--dedup" => ph.dedup = value(a, &flag)?,
            "--trace" => trace = Some(value(a, &flag)?),
            "--metrics" => metrics = Some(value(a, &flag)?),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    // The shared knob drives the campaign too: one `--threads` set
    // regardless of the subcommand.
    campaign.threads = ph.threads;
    Ok(Args {
        command,
        scale,
        seed,
        out,
        ph,
        campaign,
        trace,
        metrics,
        failpoints,
    })
}

fn usage() -> String {
    "usage: repro <fig6|fig7a|fig7b|table1|fig8|fig9a|fig9b|ablations|throughput|analytic|campaign|all> \
     [--scale quick|default|full] [--seed N] [--out DIR] [--ph-order K] [--threads T] [--n N] \
     [--solver gauss-seidel|jacobi|krylov] [--spill-budget BYTES[K|M|G]] \
     [--dedup auto|external] \
     [--trace FILE.json] [--metrics FILE.json] \
     [--grid FILE.csv] [--ns LIST] [--ph-orders LIST] [--service-scales LIST] \
     [--net-scales LIST] [--backends LIST] [--verify-cold] \
     [--failpoints SPEC]\n\
     --threads T: workers (0 = all cores) for analytic and campaign, and for the measurement \
     campaigns of fig7a/fig8/fig9a/fig9b/table1; results do not depend on it"
        .to_string()
}

/// The result files of one invocation, all directly under `--out`.
struct ResultFiles<'a> {
    dir: &'a Path,
    /// Set once a file could not be written; the run carries on and
    /// exits 1.
    failed: Cell<bool>,
}

impl ResultFiles<'_> {
    fn write(&self, name: &str, body: String) {
        let path = self.dir.join(name);
        match fs::create_dir_all(self.dir).and_then(|()| fs::write(&path, body)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                self.failed.set(true);
            }
        }
    }

    fn csv(&self, name: &str, header: &str, rows: impl IntoIterator<Item = String>) {
        let mut body = String::from(header);
        body.push('\n');
        for r in rows {
            body.push_str(&r);
            body.push('\n');
        }
        self.write(name, body);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Arm fault injection before any work.
    if let Some(spec) = &args.failpoints {
        if let Err(e) = ctsim_resilience::fail::configure_known(spec) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        eprintln!("failpoints armed");
    }
    // Telemetry is captured here, once, around whichever subcommands
    // run, and written out whatever they returned: the trace of a
    // failed run is the one worth reading.
    let telemetry = args.trace.is_some() || args.metrics.is_some();
    if telemetry {
        ctsim_obs::enable();
    }
    let mut code = run_commands(&args);
    if telemetry {
        eprintln!("{}", ctsim_obs::summary().trim_end());
        let written = write_telemetry("trace", args.trace.as_deref(), ctsim_obs::chrome_trace_json)
            & write_telemetry("metrics", args.metrics.as_deref(), ctsim_obs::metrics_json);
        ctsim_obs::disable();
        if !written {
            code = code.max(1);
        }
    }
    std::process::exit(code);
}

/// Writes one telemetry document if its flag was given; `false` when
/// the file could not be written.
fn write_telemetry(what: &str, path: Option<&Path>, document: fn() -> String) -> bool {
    let Some(path) = path else {
        return true;
    };
    match fs::write(path, document()) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: writing {what} {}: {e}", path.display());
            false
        }
    }
}

/// Runs the subcommands `args` names; returns the process exit code
/// (0 done, 1 a run failed with a typed error or a result file could
/// not be written, 2 bad usage).
fn run_commands(args: &Args) -> i32 {
    let out = ResultFiles {
        dir: &args.out,
        failed: Cell::new(false),
    };
    let all = args.command == "all";
    let want = |c: &str| all || args.command == c;
    let mut ran = false;

    // Fig. 6 doubles as the calibration input for every simulation
    // figure, so run it whenever anything downstream needs it.
    let need_fig6 =
        want("fig6") || want("fig7b") || want("table1") || want("fig9b") || want("ablations");
    let f6 = need_fig6.then(|| fig6::run(args.scale, args.seed));

    if want("fig6") {
        ran = true;
        let f6 = f6.as_ref().expect("computed above");
        println!("{}", f6.render());
        for (name, series) in f6.series(120) {
            let fname = format!("fig6_{}.csv", name.replace(' ', "_"));
            out.csv(
                &fname,
                "delay_ms,cdf",
                series.iter().map(|(x, y)| format!("{x:.6},{y:.6}")),
            );
        }
    }

    let need_f7a = want("fig7a") || want("fig7b");
    let f7a = need_f7a.then(|| fig7::run_fig7a(args.scale, args.seed, args.ph.threads));

    if want("fig7a") {
        ran = true;
        let f7a = f7a.as_ref().expect("computed above");
        println!("{}", f7a.render());
        for row in &f7a.rows {
            out.csv(
                &format!("fig7a_n{}.csv", row.n),
                "latency_ms,cdf",
                row.ecdf
                    .series(200)
                    .iter()
                    .map(|(x, y)| format!("{x:.6},{y:.6}")),
            );
        }
    }

    if want("fig7b") {
        ran = true;
        let f6 = f6.as_ref().expect("computed above");
        let measured = f7a
            .as_ref()
            .expect("computed above")
            .rows
            .iter()
            .find(|r| r.n == 5)
            .expect("n = 5 measured")
            .clone();
        let f7b = fig7::run_fig7b(args.scale, args.seed, f6, measured);
        println!("{}", f7b.render());
        for p in &f7b.sweep {
            out.csv(
                &format!("fig7b_tsend_{:.3}.csv", p.t_send),
                "latency_ms,cdf",
                p.ecdf
                    .series(200)
                    .iter()
                    .map(|(x, y)| format!("{x:.6},{y:.6}")),
            );
        }
    }

    if want("table1") {
        ran = true;
        let f6 = f6.as_ref().expect("computed above");
        let t1 = table1::run(args.scale, args.seed, f6, args.ph.threads);
        println!("{}", t1.render());
        out.csv(
            "table1.csv",
            "scenario,n,meas_ms,meas_ci90,sim_ms",
            t1.rows.iter().map(|r| {
                format!(
                    "{:?},{},{:.4},{:.4},{}",
                    r.scenario,
                    r.n,
                    r.meas,
                    r.meas_ci90,
                    ctsim_experiments::csv_cell(r.sim),
                )
            }),
        );
    }

    let need_f8 = want("fig8") || want("fig9a") || want("fig9b");
    let f8 = need_f8.then(|| fig8::run(args.scale, args.seed, args.ph.threads));

    if want("fig8") {
        ran = true;
        let f8 = f8.as_ref().expect("computed above");
        println!("{}", f8.render());
        out.csv(
            "fig8.csv",
            "n,timeout_ms,t_mr_ms,t_mr_ci90,t_m_ms,t_m_ci90",
            f8.points.iter().map(|p| p.fig8_row()),
        );
    }

    if want("fig9a") {
        ran = true;
        let f8 = f8.as_ref().expect("computed above");
        println!("{}", fig9::render_fig9a(f8));
        out.csv(
            "fig9a.csv",
            "n,timeout_ms,latency_ms,latency_ci90,undecided_frac",
            f8.points.iter().map(|p| p.fig9a_row()),
        );
    }

    if want("fig9b") {
        ran = true;
        let f6 = f6.as_ref().expect("computed above");
        let f8 = f8.as_ref().expect("computed above");
        let f9b = fig9::run_fig9b(args.scale, args.seed, f6, f8);
        println!("{}", f9b.render());
        for n in [3usize, 5] {
            if let Some((small, large)) = f9b.validation_gaps(n) {
                println!(
                    "validation n={n}: relative sim-meas gap {:.0}% at smallest T, {:.0}% at largest T",
                    100.0 * small,
                    100.0 * large
                );
            }
        }
        out.csv(
            "fig9b.csv",
            "n,timeout_ms,meas_ms,sim_det_ms,sim_exp_ms,t_mr_ms,t_m_ms",
            f9b.rows.iter().map(|r| r.csv_row()),
        );
    }

    if want("ablations") {
        ran = true;
        let f6 = f6.as_ref().expect("computed above");
        let a = ablations::run(args.scale, args.seed, f6);
        println!("{}", a.render());
        out.csv(
            "ablations.csv",
            "name,metric,with,without",
            a.rows
                .iter()
                .map(|r| format!("{:?},{:?},{:.4},{:.4}", r.name, r.metric, r.with, r.without)),
        );
    }

    if want("throughput") {
        ran = true;
        let t = throughput::run(args.scale, args.seed);
        println!("{}", t.render());
        out.csv(
            "throughput.csv",
            "n,per_second,inter_decision_ms,isolated_latency_ms",
            t.rows.iter().map(|r| {
                format!(
                    "{},{:.2},{:.4},{:.4}",
                    r.n, r.per_second, r.inter_decision_ms, r.isolated_latency_ms
                )
            }),
        );
    }

    if want("analytic") {
        ran = true;
        // A typed solver failure — e.g. `SpillFailed` after retry
        // exhaustion, with its attempt trace — exits with the error
        // rendered, never a panic.
        let a = match analytic::run_with(args.scale, args.seed, &args.ph) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("analytic: {e}");
                return 1;
            }
        };
        println!("{}", a.render());
        out.csv(
            "analytic.csv",
            "scenario,n,ph_order,states,analytic_ms,ph_raw_ms,solver,solve_ms,sim_ms,sim_ci90,\
             agrees,ph_sim_ms,ph_sim_ci90,engine",
            a.rows.iter().map(|r| {
                // Both verdicts are tri-state so a capped/skipped solve
                // is never mistaken for a disagreement. CI gates
                // `engine` — the engine-vs-engine cross-validation on
                // the identical stochastic model — by column name
                // (`ci/analytic_gate.py`), while `agrees` (distance to
                // the paper's real parameters, bounded by the
                // documented phase-type support-edge bias at n ≥ 3) is
                // reported but not gated.
                let verdict = |ok: bool| {
                    if r.skipped.is_some() {
                        "skip"
                    } else if ok {
                        "true"
                    } else {
                        "false"
                    }
                };
                format!(
                    "{:?},{},{},{},{},{},{},{:.3},{:.4},{:.4},{},{},{},{}",
                    r.scenario,
                    r.n,
                    r.ph_order.map_or(String::new(), |k| k.to_string()),
                    r.states,
                    r.analytic_ms.map_or(String::new(), |v| format!("{v:.6}")),
                    r.ph_raw_ms.map_or(String::new(), |v| format!("{v:.6}")),
                    r.backend,
                    r.solve_ms,
                    r.sim_ms,
                    r.sim_ci90,
                    verdict(r.agrees()),
                    r.ph_sim_ms.map_or(String::new(), |v| format!("{v:.4}")),
                    r.ph_sim_ci90.map_or(String::new(), |v| format!("{v:.4}")),
                    verdict(r.engine_agrees()),
                )
            }),
        );
        // Peak-memory record for the whole analytic pipeline (explore +
        // CSR + solve): the CI scalability job uploads this CSV and its
        // spill-budget leg uses it to show the budget actually binds.
        // The dedup mode only applies under a spill budget, so its cell
        // is empty without one, like the budget's.
        let (budget, dedup) = args.ph.spill_budget.map_or_else(Default::default, |b| {
            (b.to_string(), args.ph.dedup.to_string())
        });
        out.csv(
            "peak_memory.csv",
            "command,n,ph_order,threads,spill_budget_bytes,dedup,peak_rss_mb",
            std::iter::once(format!(
                "analytic,{},{},{},{budget},{dedup},{:.1}",
                args.ph.n.map_or(String::new(), |n| n.to_string()),
                args.ph.ph_order,
                args.ph.threads,
                ctsim_experiments::peak_rss_mb(),
            )),
        );
        for r in &a.rows {
            if r.cdf.is_empty() {
                continue;
            }
            let model = r.ph_order.map_or("exp".to_string(), |k| format!("ph{k}"));
            out.csv(
                &format!("analytic_cdf_{:?}_{model}_n{}.csv", r.scenario, r.n),
                "latency_ms,cdf",
                r.cdf.iter().map(|(t, p)| format!("{t:.6},{p:.6}")),
            );
        }
    }

    if want("campaign") {
        ran = true;
        let c = match campaign::run_with(args.seed, &args.campaign) {
            Ok(c) => c,
            Err(e @ campaign::CampaignError::Grid(_)) => {
                eprintln!("{e}");
                return 2;
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        println!("{}", c.render());
        out.csv(
            "campaign.csv",
            PointRow::csv_header(),
            c.rows.iter().map(PointRow::csv),
        );
        out.write("campaign_summary.json", c.summary_json());
    }

    if !ran {
        eprintln!("{}", usage());
        return 2;
    }
    i32::from(out.failed.get())
}
