//! The `repro` binary as a user meets it: exit codes and stderr.

use std::process::Command;

/// A telemetry file that cannot be written is reported like any other
/// I/O failure — after the run, on stderr, exit code 1 — not by a
/// panic.
#[test]
fn unwritable_trace_path_is_an_error_not_a_panic() {
    let out = std::env::temp_dir().join(format!("ctsim-repro-cli-{}", std::process::id()));
    let trace = out.join("no-such-dir").join("t.json");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "analytic",
            "--n",
            "2",
            "--ph-order",
            "1",
            "--scale",
            "quick",
        ])
        .arg("--out")
        .arg(&out)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("spawn repro");
    let _ = std::fs::remove_dir_all(&out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: writing trace"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

/// A bad command line is a usage error: its message on stderr and exit
/// code 2, never a panic.
#[test]
fn bad_flags_are_usage_errors_not_panics() {
    let grid = std::env::temp_dir().join(format!("ctsim-repro-grid-{}.csv", std::process::id()));
    std::fs::write(&grid, "2,1,krylov,1,1\n0,1,krylov,1,1\n").expect("write grid file");
    let grid = grid.to_str().expect("utf-8 temp path");
    for (args, message) in [
        (&["fig6", "--threads"][..], "missing value for --threads"),
        (&["fig6", "--threads", "x"][..], "invalid digit found"),
        (&["fig6", "--bogus"][..], "unknown flag `--bogus`"),
        (
            &[
                "analytic",
                "--n",
                "2",
                "--ph-order",
                "1",
                "--scale",
                "quick",
                "--spill-budget",
                "17179869184G",
            ][..],
            "bad size `17179869184G`",
        ),
        (&["analytic", "--n", "0"][..], "--n 0: the model needs"),
        (
            &["campaign", "--ns", "2,0"][..],
            "ns: `0` is not a process count",
        ),
        (&["campaign", "--grid", grid][..], "line 2: bad n: `0`"),
        (
            &["campaign", "--checkpoint", "F"][..],
            "unknown flag `--checkpoint`",
        ),
        (&["campaign", "--resume"][..], "unknown flag `--resume`"),
        (
            &["fig6", "--failpoints", "nosuch.site=always"][..],
            "unknown site \"nosuch.site\"",
        ),
        (
            &["campaign", "--failpoints", "campaign.checkpoint=first:1"][..],
            "unknown site \"campaign.checkpoint\"",
        ),
        (
            &["campaign", "--failpoints", "campaign.checkpoint=abort_at:5"][..],
            "unknown schedule kind \"abort_at\"",
        ),
        (&["analytic", "--fallback"][..], "unknown flag `--fallback`"),
        (
            &["fig6", "--failpoint-seed", "7"][..],
            "unknown flag `--failpoint-seed`",
        ),
        (
            &["analytic", "--failpoints", "csr.page_in=every:3"][..],
            "unknown schedule kind \"every\"",
        ),
        (
            &["analytic", "--failpoints", "pack.page_in=first:1"][..],
            "unknown site \"pack.page_in\"",
        ),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(grid);
}

/// Memory follows the workers that run, not the workers requested: a
/// level of the n = 2 order-1 model runs one worker however many
/// `--threads` asks for, so a huge request must not allocate a
/// worker's buffers per requested thread.
#[test]
fn a_huge_thread_count_costs_no_memory() {
    let out = std::env::temp_dir().join(format!("ctsim-repro-threads-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "analytic",
            "--n",
            "2",
            "--ph-order",
            "1",
            "--scale",
            "quick",
            "--threads",
            "100000",
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn repro");
    let csv = std::fs::read_to_string(out.join("peak_memory.csv"));
    let _ = std::fs::remove_dir_all(&out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    let csv = csv.expect("peak_memory.csv written");
    let row = csv.lines().nth(1).expect("one data row");
    let peak: f64 = row
        .rsplit(',')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("peak_rss_mb column");
    assert!(peak < 64.0, "peak RSS {peak} MB at --threads 100000");
}
