//! `ctbench`: the repository's benchmark. See `README.md` in this
//! directory for the workloads, the metrics and how they interact.
//!
//! ```text
//! ctbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--out FILE.json] [--trace-out DIR] [--smoke] [--corrupt-reference]
//! ctbench --compare A B [--benchmark BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code
//! is non-zero when any op failed.

use std::path::PathBuf;
use std::process::ExitCode;

use ctsim_bench::alloc_counter::CountingAlloc;

mod compare;
mod harness;
mod host;
mod json;
mod layers;
mod provenance;
mod trace;
mod workloads;

use harness::{summarize, Cfg, WorkloadResult, END_TO_END};
use json::{obj, Json};
use layers::PER_LAYER;
use workloads::WORKLOADS;

/// Exact live-heap accounting for `peak_heap_bytes`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The seed `repro` defaults to; the sim and testbed references are
/// recorded for it.
pub const DEFAULT_SEED: u64 = 20020623;

fn run_workload(name: &str, cfg: &Cfg) -> Result<WorkloadResult, String> {
    use workloads::*;
    match name {
        "analytic_n3_ph2" => harness::run::<analytic_n3_ph2::AnalyticN3Ph2>(cfg),
        "analytic_n3_ooc" => harness::run::<analytic_n3_ooc::AnalyticN3Ooc>(cfg),
        "solve_n3_ph2" => harness::run::<solve_n3_ph2::SolveN3Ph2>(cfg),
        "campaign_n3_sweep" => harness::run::<campaign_n3_sweep::CampaignN3Sweep>(cfg),
        "sim_n5_mc" => harness::run::<sim_n5_mc::SimN5Mc>(cfg),
        "testbed_n5_hb" => harness::run::<testbed_n5_hb::TestbedN5Hb>(cfg),
        other => Err(format!(
            "unknown workload `{other}`; one of: {}",
            WORKLOADS.join(", ")
        )),
    }
}

fn print_table(r: &WorkloadResult) {
    println!(
        "{} — {} ops attempted, {} failed",
        r.name, r.attempted, r.failed
    );
    for e in &r.errors {
        println!("  FAILED: {e}");
    }
    for (name, samples) in &r.samples {
        let s = summarize(samples);
        println!(
            "  {name:<28} {:>14.6} s   [q1 {:.6}, q3 {:.6}, n {}]",
            s.median, s.q1, s.q3, s.n
        );
    }
    println!("  {:<28} {:>14} B", "peak_heap_bytes", r.peak_heap_bytes);
    for (name, n) in &r.counts {
        println!("  {name:<28} {n:>14} count");
    }
    // A sub-timing that is also a per-layer metric is printed above.
    for (name, unit) in PER_LAYER {
        if let Some(v) = r.layers.get(name).filter(|_| !r.samples.contains_key(name)) {
            println!("  {name:<28} {v:>14.6} {unit}");
        }
    }
}

/// The metrics of the result line: end-to-end untraced, per-layer
/// traced. `prefix` tells workloads apart when several ran.
fn result_metrics(r: &WorkloadResult, traced: bool, prefix: &str, into: &mut Vec<(String, Json)>) {
    let mut push = |name: &str, value: f64, unit: &str| {
        into.push((
            format!("{prefix}{name}"),
            obj([("value", Json::from(value)), ("unit", unit.into())]),
        ));
    };
    if traced {
        for (name, unit) in PER_LAYER {
            push(name, r.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            push(name, r.end_to_end(name), unit);
        }
    }
}

struct Args {
    cfg: Cfg,
    workload: Option<String>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .ok_or("cannot locate the build directory")?;
    let mut a = Args {
        cfg: Cfg {
            seed: DEFAULT_SEED,
            seconds: f64::NAN,
            trace: false,
            smoke: false,
            corrupt_reference: false,
            trace_out: None,
            scratch: exe_dir.join("ctbench-scratch"),
        },
        workload: None,
        out: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.cfg.seconds >= 0.0 && a.cfg.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                a.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace-out" => a.cfg.trace_out = Some(PathBuf::from(value()?)),
            "--benchmark" => a.benchmark = PathBuf::from(value()?),
            "--smoke" => a.cfg.smoke = true,
            "--corrupt-reference" => a.cfg.corrupt_reference = true,
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.cfg.seconds.is_nan() {
        a.cfg.seconds = if a.cfg.smoke { 0.1 } else { 12.0 };
    }
    Ok(a)
}

fn real_main(raw: &[String]) -> Result<bool, String> {
    let args = parse_args(raw)?;
    if let Some((a, b)) = &args.compare {
        return compare::compare(&args.benchmark, a, b);
    }
    let cfg = &args.cfg;
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("creating {}: {e}", cfg.scratch.display()))?;

    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut results = Vec::new();
    for name in &names {
        let r = run_workload(name, cfg)?;
        print_table(&r);
        results.push(r);
    }

    if let Some(path) = &args.out {
        let doc = obj([
            ("provenance", provenance::block(cfg, raw)),
            (
                "workloads",
                obj(results.iter().map(|r| (r.name, r.to_json()))),
            ),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in &results {
        let prefix = if results.len() > 1 {
            format!("{}.", r.name)
        } else {
            String::new()
        };
        result_metrics(r, cfg.trace, &prefix, &mut metrics);
    }
    println!(
        "{}",
        obj([
            ("correct", Json::from(failed == 0)),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", obj(metrics)),
        ])
        .render()
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ctbench: {e}");
            ExitCode::from(2)
        }
    }
}
