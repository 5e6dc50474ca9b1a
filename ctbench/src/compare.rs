//! `ctbench --compare A B`: B against A under the bounds of
//! `BENCHMARK.json`, one row per end-to-end metric × workload.
//!
//! A side is one result file (`--out`) or a directory of them. With
//! several runs a side's value is the median of the runs' values and
//! its quartiles are theirs; with one run the quartiles are those of
//! the run's own ops.
//!
//! * `worse`: B's median is worse than A's by more than the bound.
//! * `unresolved`: the quartile spread of either side exceeds the
//!   bound and the sides' quartile ranges overlap, so the runs cannot
//!   tell; not a pass.
//! * `ok`: otherwise.
//!
//! Every count a workload reports must be identical in every run of
//! both sides.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::{summarize, Summary};
use crate::json::Json;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_side(path: &Path) -> Result<Vec<Json>, String> {
    if !path.is_dir() {
        return Ok(vec![load(path)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    files.iter().map(|p| load(p)).collect()
}

fn metric(runs: &[Json], workload: &str, name: &str) -> Result<Summary, String> {
    let cells: Vec<&Json> = runs
        .iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(name)
        })
        .collect();
    let field = |c: &Json, f: &str| c.get(f).and_then(Json::as_f64);
    match cells.as_slice() {
        [] => Err(format!("{workload}/{name}: not in the result file")),
        [one] => {
            let value = field(one, "value").ok_or("metric without a value")?;
            Ok(Summary {
                median: value,
                q1: field(one, "q1").unwrap_or(value),
                q3: field(one, "q3").unwrap_or(value),
                n: field(one, "n").unwrap_or(1.0) as usize,
            })
        }
        many => {
            let values: Option<Vec<f64>> = many.iter().map(|c| field(c, "value")).collect();
            Ok(summarize(&values.ok_or("metric without a value")?))
        }
    }
}

fn counts(runs: &[Json], workload: &str) -> Vec<BTreeMap<String, Json>> {
    runs.iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("counts")?
                .as_obj()
                .cloned()
        })
        .collect()
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `bound` is the share of A's median by which B's may be worse.
pub fn verdict(a: Summary, b: Summary, lower_is_better: bool, bound: f64) -> Verdict {
    let worse_by = if lower_is_better {
        (b.median - a.median) / a.median
    } else {
        (a.median - b.median) / a.median
    };
    let spread = |s: Summary| (s.q3 - s.q1) / s.median;
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if spread(a).max(spread(b)) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(true)` when nothing is worse and every
/// count agrees.
pub fn compare(benchmark: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load(benchmark)?;
    let (runs_a, runs_b) = (load_side(a)?, load_side(b)?);
    let mut pass = true;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for w in spec.get("workloads").map(Json::as_arr).unwrap_or(&[]) {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let (sa, sb) = (
                metric(&runs_a, workload, name)?,
                metric(&runs_b, workload, name)?,
            );
            let v = verdict(sa, sb, lower, bound);
            pass &= v != Verdict::Worse;
            println!(
                "{workload:<20} {name:<16} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}%  {}",
                sa.median,
                sb.median,
                (sb.median - sa.median) / sa.median * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let all: Vec<_> = counts(&runs_a, workload)
            .into_iter()
            .chain(counts(&runs_b, workload))
            .collect();
        if let Some(first) = all.first() {
            for other in &all[1..] {
                if other != first {
                    pass = false;
                    println!("{workload:<20} counts differ: {first:?} vs {other:?}");
                }
            }
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        // Tight runs, 5 % slower, 10 % bound.
        assert_eq!(
            verdict(s(0.99, 1.0, 1.01), s(1.04, 1.05, 1.06), true, 0.10),
            Verdict::Ok
        );
        // Tight runs, 20 % slower.
        assert_eq!(
            verdict(s(0.99, 1.0, 1.01), s(1.19, 1.2, 1.21), true, 0.10),
            Verdict::Worse
        );
        // Wide, overlapping runs cannot tell either way.
        assert_eq!(
            verdict(s(0.9, 1.0, 1.1), s(0.95, 1.05, 1.2), true, 0.10),
            Verdict::Unresolved
        );
        // Wide but disjoint, and better: every run of B beats A.
        assert_eq!(
            verdict(s(0.9, 1.0, 1.1), s(0.5, 0.6, 0.7), true, 0.10),
            Verdict::Ok
        );
        // Higher is better: a drop is what is worse.
        assert_eq!(
            verdict(s(99.0, 100.0, 101.0), s(79.0, 80.0, 81.0), false, 0.10),
            Verdict::Worse
        );
    }
}
