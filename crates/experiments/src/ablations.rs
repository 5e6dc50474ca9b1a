//! Ablations of the reproduction's modelling choices — each one
//! isolates a mechanism the reproduction depends on and shows what the
//! results would look like without it.
//!
//! 1. **Bimodal vs. single-point network delay** (SAN): replacing the
//!    fitted delay mixture with a deterministic delay of equal mean
//!    narrows the latency distribution — the tail mass of Fig. 6 is
//!    what widens Fig. 7's CDFs.
//! 2. **Broadcast-as-one-message vs. sequential unicasts** (SAN): the
//!    paper's shortcut hides the n = 3 participant-crash anomaly of
//!    Table 1; the unicast variant shrinks the spurious benefit.
//! 3. **Handler-work stage** (SAN): dropping `t_work` collapses the
//!    class-1 latency far below the measurement — per-message CPU cost,
//!    not wire time, dominates the real system.
//! 4. **Nagle batching of heartbeats** (testbed): enabling delayed-ack
//!    batching stretches heartbeat gaps to ~40 ms and wrecks the FD
//!    QoS at timeouts below that — evidence the measured framework ran
//!    with `TCP_NODELAY`.

use ctsim_models::latency_replications;
use ctsim_netsim::NetParams;
use ctsim_stoch::Dist;
use ctsim_testbed::TestbedConfig;

use crate::fig6::Fig6;
use crate::run_campaign;
use crate::scale::Scale;

/// One ablation row: the mechanism on vs. off, with the observable it
/// changes.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// What was ablated.
    pub name: &'static str,
    /// The observable with the mechanism as modelled.
    pub with: f64,
    /// The observable with the mechanism removed/ablated.
    pub without: f64,
    /// What the observable is.
    pub metric: &'static str,
}

/// The ablation suite results.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// All rows.
    pub rows: Vec<AblationRow>,
}

/// Runs the four ablations.
pub fn run(scale: Scale, seed: u64, fig6: &Fig6) -> Ablations {
    let reps = scale.san_reps();
    let mut rows = Vec::new();

    // 1. Bimodal vs deterministic-equal-mean network delay: compare the
    //    latency spread (q90 - q10) of the simulated CDF for n = 3.
    {
        let base = fig6.san_params(3, 0.025);
        let mut det = base.clone();
        det.net_unicast = Dist::Det(base.net_unicast.mean());
        det.net_broadcast = Dist::Det(base.net_broadcast.mean());
        let spread = |p| {
            let r = latency_replications(p, reps, seed, 1e4);
            let e = ctsim_stoch::Ecdf::new(r.samples);
            e.quantile(0.9) - e.quantile(0.1)
        };
        rows.push(AblationRow {
            name: "bimodal network delay (vs deterministic mean)",
            with: spread(&base),
            without: spread(&det),
            metric: "latency q90-q10 spread (ms), SAN n=3",
        });
    }

    // 2. Broadcast-as-one-message vs sequential unicasts: the
    //    participant-crash benefit at n = 3.
    {
        let base = fig6.san_params(3, 0.025);
        let mut uni = base.clone();
        uni.broadcast_as_unicasts = true;
        let benefit = |p: &ctsim_models::SanParams| {
            let none = latency_replications(p, reps, seed, 1e4).mean();
            let crash = latency_replications(&p.clone().with_crash(1), reps, seed, 1e4).mean();
            none - crash
        };
        rows.push(AblationRow {
            name: "single broadcast message (vs sequential unicasts)",
            with: benefit(&base),
            without: benefit(&uni),
            metric: "participant-crash latency benefit (ms), SAN n=3",
        });
    }

    // 3. Handler-work stage: class-1 latency with and without t_work.
    {
        let base = fig6.san_params(3, 0.025);
        let mut no_work = base.clone();
        no_work.t_work = 0.0;
        rows.push(AblationRow {
            name: "receive-handler work stage (vs none)",
            with: latency_replications(&base, reps, seed, 1e4).mean(),
            without: latency_replications(&no_work, reps, seed, 1e4).mean(),
            metric: "class-1 latency (ms), SAN n=3",
        });
    }

    // 4. Nagle on heartbeats: the FD mistake *duration* at T = 20.
    //    With NODELAY a mistake heals at the next heartbeat (a few ms);
    //    with delayed-ack batching the healing heartbeat itself waits
    //    for the ~40 ms flush, so mistakes last far longer — the paper's
    //    sub-12 ms T_M (Fig. 8b) is incompatible with batching.
    {
        let t_m = |nagle: bool| {
            let mut cfg = TestbedConfig::class3(3, scale.qos_executions().min(150), 20.0, seed);
            cfg.net = NetParams {
                nagle_on_heartbeats: nagle,
                ..NetParams::default()
            };
            let r = run_campaign(&cfg);
            r.qos.expect("class 3 yields QoS").t_m
        };
        rows.push(AblationRow {
            name: "TCP_NODELAY heartbeats (vs Nagle batching)",
            with: t_m(false),
            without: t_m(true),
            metric: "FD mistake duration T_M (ms) at T=20",
        });
    }

    Ablations { rows }
}

impl Ablations {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Ablations — modelling choices and their effect\n");
        for r in &self.rows {
            s.push_str(&format!(
                "* {}\n    {}: {:.3} as modelled, {:.3} ablated\n",
                r.name, r.metric, r.with, r.without
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_have_the_expected_directions() {
        let fig6 = crate::fig6::run(Scale::Quick, 31);
        let a = run(Scale::Quick, 31, &fig6);
        assert_eq!(a.rows.len(), 4);
        let by_name = |n: &str| {
            a.rows
                .iter()
                .find(|r| r.name.starts_with(n))
                .unwrap_or_else(|| panic!("missing ablation {n}"))
        };
        // Bimodal delays widen the latency distribution.
        let bim = by_name("bimodal");
        assert!(
            bim.with > bim.without,
            "bimodal should widen the spread: {} !> {}",
            bim.with,
            bim.without
        );
        // The single-broadcast shortcut overstates the crash benefit.
        let bc = by_name("single broadcast");
        assert!(
            bc.with > bc.without,
            "broadcast shortcut shows larger benefit: {} !> {}",
            bc.with,
            bc.without
        );
        // The work stage carries most of the latency.
        let wk = by_name("receive-handler");
        assert!(
            wk.with > 1.5 * wk.without,
            "work stage dominates: {} vs {}",
            wk.with,
            wk.without
        );
        // Nagle batching makes mistakes last far longer (larger T_M).
        let ng = by_name("TCP_NODELAY");
        assert!(
            ng.with < 0.7 * ng.without,
            "NODELAY must show shorter mistakes: {} vs {}",
            ng.with,
            ng.without
        );
    }
}
