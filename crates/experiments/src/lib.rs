//! Regeneration of every table and figure in the paper's evaluation
//! (§5), combining testbed measurements and SAN simulation exactly as
//! the paper does.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig6`] | Fig. 6 — CDF of unicast/broadcast end-to-end delays, plus the bimodal fit that parameterizes the SAN model |
//! | [`fig7`] | Fig. 7(a) latency CDFs from measurements for n = 3..11; Fig. 7(b) SAN CDFs for n = 5 sweeping `t_send`; §5.2 mean-latency table |
//! | [`table1`] | Table 1 — latency under no crash / coordinator crash / participant crash, measurements and simulation |
//! | [`fig8`] | Fig. 8 — failure-detector QoS (`T_MR`, `T_M`) vs timeout `T` |
//! | [`fig9`] | Fig. 9(a) latency vs `T` from measurements; Fig. 9(b) measurements vs SAN with deterministic/exponential FD sojourns |
//! | [`ablations`] | ablations of the reproduction's modelling choices |
//! | [`throughput`] | the paper's announced future work (§2.3): chained-consensus throughput |
//! | [`analytic`] | analytic (CTMC) solution of the exponential model overlaid on the Fig. 7 / Table 1 simulations |
//! | [`campaign`] | scenario-campaign engine: parameter grids through the solver with cached reachability and rate-only CSR rebuilds |
//!
//! Every module returns a plain-data result struct and renders a
//! paper-style text table including the paper's reference values where
//! the paper states them, so divergences are visible at a glance.

pub mod ablations;
pub mod analytic;
pub mod campaign;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scale;
pub mod table1;
pub mod throughput;

pub use scale::Scale;

/// Runs one measurement campaign and folds what its emulated cluster
/// did into `ctsim-obs` counters: `testbed.campaigns`,
/// `testbed.executions`, the `net.events.*`,
/// `net.timers.*` and `net.messages.*` sums, and `des.queue_peak_len`,
/// the most events any campaign had pending at once. Every campaign the
/// experiments run goes through here.
pub(crate) fn run_campaign(cfg: &ctsim_testbed::TestbedConfig) -> ctsim_testbed::CampaignResult {
    let r = ctsim_testbed::run_campaign(cfg);
    let t = &r.traffic;
    for (name, n) in [
        ("testbed.campaigns", 1),
        ("testbed.executions", r.per_exec.len() as u64),
        ("net.events.cpu", t.cpu_events),
        ("net.events.hub", t.hub_events),
        ("net.events.timer", t.timer_events),
        ("net.events.gc", t.gc_events),
        ("net.events.nagle", t.nagle_events),
        ("net.timers.set", t.timers_set()),
        ("net.timers.precise", t.precise_timers),
        ("net.timers.coarse", t.coarse_timers),
        ("net.timers.fired", t.timers_fired),
        ("net.timers.deferred", t.timers_deferred),
        ("net.timers.dropped", t.timers_dropped),
        ("net.messages.app", t.app_messages),
        ("net.messages.heartbeat", t.heartbeat_messages),
        ("net.messages.delivered", t.delivered),
    ] {
        ctsim_obs::counter_add(name, n);
    }
    ctsim_obs::counter_max("des.queue_peak_len", t.peak_pending);
    r
}

/// Peak resident-set size of this process in decimal megabytes
/// (`VmHWM` from `/proc/self/status`, which counts KiB; 0.0 where that
/// interface is unavailable).
/// The `repro analytic` command records this next to its results so CI
/// can track the memory footprint of the analytic pipeline.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb * 1024.0 / 1e6;
        }
    }
    0.0
}

/// Parses a byte size with an optional `K`/`M`/`G` suffix (`512M`) —
/// the format of `repro analytic --spill-budget` and of the
/// `explore_scaling` example's spill argument.
pub fn parse_size(s: &str) -> Result<usize, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let v = digits
        .parse::<usize>()
        .map_err(|e| format!("bad size `{s}`: {e}"))?;
    v.checked_mul(mult)
        .ok_or_else(|| format!("bad size `{s}`: more bytes than this machine can address"))
}

/// The first-passage goal of every analytic experiment — some process
/// has decided — for a model built by [`ctsim_models::build_model`].
pub(crate) fn some_process_decided(
    model: &ctsim_san::SanModel,
    n: usize,
) -> impl Fn(&ctsim_san::Marking) -> bool + Sync {
    let decided = ctsim_models::decided_place_ids(model, n);
    move |m| decided.iter().any(|&d| m.get(d) > 0)
}

/// Formats an `f64` table cell with fixed width.
pub(crate) fn cell(x: f64) -> String {
    if x.is_infinite() {
        "     inf".to_string()
    } else if x >= 1000.0 {
        format!("{x:>8.0}")
    } else {
        format!("{x:>8.3}")
    }
}

/// [`cell`] of a statistic that may be undefined, blank when it is.
pub(crate) fn opt_cell(x: Option<f64>) -> String {
    x.map_or_else(|| " ".repeat(8), cell)
}

/// A CSV cell of a statistic that may be undefined: four decimals, or
/// empty when it is.
pub fn csv_cell(x: Option<f64>) -> String {
    x.map_or(String::new(), |v| format!("{v:.4}"))
}
