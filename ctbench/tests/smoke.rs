//! Schema and behaviour of the `ctbench` binary, on the n = 2 stand-ins
//! (`--smoke`): everything `BENCHMARK.json` lists is reported, a
//! corrupted reference fails the run, and `--compare` tells a
//! regression from a repeat.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

fn ctbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ctbench"))
        .args(args)
        .output()
        .expect("ctbench runs")
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn benchmark_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn read_json(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("readable")).expect("valid JSON")
}

fn names(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .expect("list present")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The last line of standard output: the result object.
fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

#[test]
fn traced_smoke_run_reports_every_listed_metric() {
    let file = tmp("smoke_traced.json");
    let file = file.to_str().unwrap();
    let out = ctbench(&["--smoke", "--trace", "1", "--out", file]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let spec = read_json(&benchmark_path());
    let doc = read_json(Path::new(file));
    let workloads = doc.get("workloads").expect("workloads block");
    for (workload, _) in names(&spec, "workloads") {
        assert!(valid_name(&workload), "{workload}");
        let w = workloads
            .get(&workload)
            .unwrap_or_else(|| panic!("{workload} missing from the output"));
        assert_eq!(
            w.get("fail_ratio").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        for block in ["end_to_end", "per_layer"] {
            for (name, unit) in names(&spec, block) {
                assert!(valid_name(&name), "{name}");
                let m = w
                    .get(block)
                    .and_then(|b| b.get(&name))
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                if block == "end_to_end" {
                    assert!(value > Some(0.0), "{workload}: {name} must never be 0");
                }
            }
        }
    }
    // The stand-in ops take microseconds — the resolution of a span —
    // so the floor here is looser than the 0.95 a full-size traced op
    // must reach (`trace::MIN_COVERAGE`, checked by the binary itself).
    for workload in ["analytic_n3_ph2", "campaign_n3_sweep"] {
        let coverage = workloads
            .get(workload)
            .and_then(|w| {
                w.get("per_layer")?
                    .get("trace.coverage")?
                    .get("value")?
                    .as_f64()
            })
            .expect("coverage reported");
        assert!(
            (0.8..=1.001).contains(&coverage),
            "{workload}: coverage {coverage}"
        );
    }
    let provenance = doc.get("provenance").expect("provenance block");
    for key in [
        "git_revision",
        "rustc",
        "host",
        "threads",
        "seed",
        "seconds",
        "args",
    ] {
        assert!(provenance.get(key).is_some(), "provenance lacks {key}");
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let spec = read_json(&benchmark_path());
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = ctbench(&["--smoke", "--workload", "solve_n3_ph2", "--trace", trace]);
        assert!(out.status.success());
        let line = result_line(&out);
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let mut got: Vec<&str> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let listed = names(&spec, list);
        let mut want: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "--trace {trace}");
    }
}

#[test]
fn corrupted_reference_fails_every_workload() {
    let out = ctbench(&["--smoke", "--corrupt-reference"]);
    assert_eq!(out.status.code(), Some(1));
    let line = result_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    let (attempted, failed) = (
        line.get("attempted").and_then(Json::as_f64).unwrap(),
        line.get("failed").and_then(Json::as_f64).unwrap(),
    );
    assert_eq!(failed, attempted, "every op checks a reference");
}

#[test]
fn unknown_arguments_and_workloads_are_refused() {
    assert_eq!(ctbench(&["--bogus"]).status.code(), Some(2));
    assert_eq!(
        ctbench(&["--smoke", "--workload", "nope"]).status.code(),
        Some(2)
    );
    assert_eq!(ctbench(&["--trace", "yes"]).status.code(), Some(2));
}

#[test]
fn compare_accepts_a_repeat_and_flags_a_regression() {
    let a = tmp("compare_a.json");
    let out = ctbench(&["--smoke", "--out", a.to_str().unwrap()]);
    assert!(out.status.success());
    let spec = benchmark_path();
    let compare = |b: &Path| {
        ctbench(&[
            "--compare",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--benchmark",
            spec.to_str().unwrap(),
        ])
    };

    let same = compare(&a);
    let table = String::from_utf8_lossy(&same.stdout).to_string();
    // Microsecond ops spread widely, so some rows may be `unresolved`;
    // none may be `worse`.
    assert!(same.status.success(), "{table}");
    assert!(!table.contains("worse"), "{table}");

    // Twice the heap on one workload, and one count off by one.
    let text = std::fs::read_to_string(&a).unwrap();
    let doc = Json::parse(&text).unwrap();
    let peak = doc
        .get("workloads")
        .and_then(|w| {
            w.get("sim_n5_mc")?
                .get("end_to_end")?
                .get("peak_heap_bytes")?
                .get("value")
        })
        .and_then(Json::as_f64)
        .unwrap();
    let b = tmp("compare_b.json");
    std::fs::write(
        &b,
        text.replace(&format!("{peak}"), &format!("{}", peak * 2.0)),
    )
    .unwrap();
    let slower = compare(&b);
    let table = String::from_utf8_lossy(&slower.stdout).to_string();
    assert_eq!(slower.status.code(), Some(1), "{table}");
    assert!(table.contains("worse"), "{table}");

    std::fs::write(&b, text.replace("\"samples\": 300", "\"samples\": 301")).unwrap();
    let counts = compare(&b);
    let table = String::from_utf8_lossy(&counts.stdout).to_string();
    assert_eq!(counts.status.code(), Some(1), "{table}");
    assert!(table.contains("counts differ"), "{table}");
}
