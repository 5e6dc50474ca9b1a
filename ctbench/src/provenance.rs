//! The provenance block of a result file: enough to trace a number to
//! the run that produced it.

use std::process::Command;

use crate::harness::{Cfg, MIN_OPS, SETUP_REPS, THREADS};
use crate::json::{obj, Json};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Data and unified caches of cpu0, from sysfs: `L1d 32K`, `L2 4096K`, …
fn cache_sizes() -> Json {
    let mut caches = Vec::new();
    for i in 0..8 {
        let read = |f: &str| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/{f}"))
                .map(|s| s.trim().to_string())
        };
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind != "Instruction" {
            caches.push(Json::from(format!("L{level} {kind} {size}")));
        }
    }
    Json::Arr(caches)
}

pub fn block(cfg: &Cfg, args: &[String]) -> Json {
    let host = ctsim_obs::host_info();
    obj([
        (
            "git_revision",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "host",
            obj([
                ("logical_cores", Json::from(host.logical_cores)),
                ("page_size_bytes", host.page_size_bytes.into()),
                ("total_ram_bytes", host.total_ram_bytes.into()),
                ("caches", cache_sizes()),
            ]),
        ),
        ("threads", THREADS.into()),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("setup_reps_min", SETUP_REPS.0.into()),
        ("setup_reps_max", SETUP_REPS.1.into()),
        ("min_ops", MIN_OPS.into()),
        ("smoke", cfg.smoke.into()),
        ("traced", cfg.trace.into()),
        (
            "args",
            Json::Arr(args.iter().map(|a| a.as_str().into()).collect()),
        ),
    ])
}
