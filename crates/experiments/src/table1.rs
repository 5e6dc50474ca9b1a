//! Table 1 — latency under crash scenarios (class 2): no crash,
//! coordinator crash, participant crash; measurements for
//! n = 3,5,7,9,11 and simulation for n = 3,5.
//!
//! The paper's qualitative findings this table must reproduce:
//!
//! * a coordinator crash always **increases** latency (a second round);
//! * a participant crash **decreases** latency (less contention) —
//!   except in the *measurements* at n = 3, where the sequential
//!   unicast of the proposal (`m` is sent to the crashed `p` first,
//!   delaying the send to `q`) makes it slightly slower;
//! * the simulation, which models the proposal as a *single broadcast
//!   message*, does not show the n = 3 anomaly.

use ctsim_models::latency_replications;
use ctsim_stoch::fan_out;
use ctsim_testbed::{CrashScenario, TestbedConfig};

use crate::fig6::Fig6;
use crate::run_campaign;
use crate::scale::Scale;

/// Paper's Table 1 (ms): `(n, meas, sim)` — `sim` only for n = 3, 5.
pub const PAPER: &[(CrashScenario, usize, f64, Option<f64>)] = &[
    (CrashScenario::None, 3, 1.06, Some(1.030)),
    (CrashScenario::None, 5, 1.43, Some(1.442)),
    (CrashScenario::None, 7, 2.00, None),
    (CrashScenario::None, 9, 2.62, None),
    (CrashScenario::None, 11, 3.27, None),
    (CrashScenario::Coordinator, 3, 1.568, Some(1.336)),
    (CrashScenario::Coordinator, 5, 2.245, Some(2.295)),
    (CrashScenario::Coordinator, 7, 2.739, None),
    (CrashScenario::Coordinator, 9, 3.101, None),
    (CrashScenario::Coordinator, 11, 3.469, None),
    (CrashScenario::Participant, 3, 1.115, Some(0.786)),
    (CrashScenario::Participant, 5, 1.340, Some(1.336)),
    (CrashScenario::Participant, 7, 1.811, None),
    (CrashScenario::Participant, 9, 2.400, None),
    (CrashScenario::Participant, 11, 3.049, None),
];

/// One Table-1 cell set: measured and (for n = 3, 5) simulated latency.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Crash scenario.
    pub scenario: CrashScenario,
    /// Number of processes.
    pub n: usize,
    /// Measured mean latency (ms).
    pub meas: f64,
    /// Measured 90 % CI half width.
    pub meas_ci90: f64,
    /// Simulated mean latency (ms), for the paper's simulated sizes.
    pub sim: Option<f64>,
}

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows grouped by scenario, then n ascending.
    pub rows: Vec<Table1Row>,
}

/// Runs the Table 1 campaigns and simulations. The measurement
/// campaigns fan out to `threads` workers (0 = all cores); the
/// simulations follow one by one, each replicated on every core.
pub fn run(scale: Scale, seed: u64, fig6: &Fig6, threads: usize) -> Table1 {
    let scenarios = [
        CrashScenario::None,
        CrashScenario::Coordinator,
        CrashScenario::Participant,
    ];
    let ns = scale.measurement_ns();
    let cell = |i: usize| (scenarios[i / ns.len()], ns[i % ns.len()]);
    let meas = fan_out(
        scenarios.len() * ns.len(),
        threads,
        || (),
        |_, i| {
            let (scenario, n) = cell(i);
            let cfg = TestbedConfig::class2(n, scale.executions(), scenario, seed);
            run_campaign(&cfg)
        },
    );
    let mut rows = Vec::new();
    for (i, meas) in meas.iter().enumerate() {
        let (scenario, n) = cell(i);
        let sim = if scale.simulation_ns().contains(&n) {
            let mut params = fig6.san_params(n, 0.025);
            if let Some(idx) = scenario.crashed_index() {
                params = params.with_crash(idx);
            }
            let reps = latency_replications(&params, scale.san_reps(), seed, 10_000.0);
            Some(reps.mean())
        } else {
            None
        };
        rows.push(Table1Row {
            scenario,
            n,
            meas: meas.mean(),
            meas_ci90: meas.ci90(),
            sim,
        });
    }
    Table1 { rows }
}

impl Table1 {
    /// Finds a row.
    pub fn row(&self, scenario: CrashScenario, n: usize) -> Option<&Table1Row> {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.n == n)
    }

    /// Paper-style rendering with reference values inline.
    pub fn render(&self) -> String {
        fn name(s: CrashScenario) -> &'static str {
            match s {
                CrashScenario::None => "no crash          ",
                CrashScenario::Coordinator => "coordinator crash ",
                CrashScenario::Participant => "participant crash ",
            }
        }
        let mut s = String::new();
        s.push_str("Table 1 — latency (ms) for crash scenarios\n");
        s.push_str("scenario           |  n |    meas |     sim | paper meas | paper sim\n");
        for r in &self.rows {
            let paper = PAPER
                .iter()
                .find(|(sc, n, _, _)| *sc == r.scenario && *n == r.n);
            s.push_str(&format!(
                "{} |{:>3} |{} |{} |{:>11} |{:>10}\n",
                name(r.scenario),
                r.n,
                crate::cell(r.meas),
                r.sim.map_or("       —".into(), crate::cell),
                paper.map_or("—".into(), |(_, _, m, _)| format!("{m:.3}")),
                paper
                    .and_then(|(_, _, _, s)| *s)
                    .map_or("—".into(), |v| format!("{v:.3}")),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_papers_orderings() {
        let fig6 = crate::fig6::run(Scale::Quick, 5);
        let t = run(Scale::Quick, 5, &fig6, 1);
        for &n in [3usize, 5].iter() {
            let none = t.row(CrashScenario::None, n).unwrap();
            let coord = t.row(CrashScenario::Coordinator, n).unwrap();
            let part = t.row(CrashScenario::Participant, n).unwrap();
            // Coordinator crash increases latency (meas and sim).
            assert!(coord.meas > none.meas, "n={n} meas coord");
            assert!(coord.sim.unwrap() > none.sim.unwrap(), "n={n} sim coord");
            // Simulation: participant crash decreases latency for all n
            // (single-broadcast model, paper's Table 1 discussion).
            assert!(
                part.sim.unwrap() < none.sim.unwrap() * 1.02,
                "n={n} sim participant: {} !< {}",
                part.sim.unwrap(),
                none.sim.unwrap()
            );
        }
        let rendered = t.render();
        assert!(rendered.contains("paper meas"));
    }

    /// The n=3 measurement anomaly (participant crash *slower* than no
    /// crash) is a ~5% effect, so it needs a larger sample and
    /// outlier-robust statistics than the quick Table-1 smoke run.
    #[test]
    fn n3_participant_crash_anomaly_in_measurements() {
        use ctsim_stoch::Ecdf;
        let median = |scenario: CrashScenario| {
            let cfg = TestbedConfig::class2(3, 700, scenario, 23);
            let r = run_campaign(&cfg);
            Ecdf::new(r.latencies_ms).quantile(0.5)
        };
        let none = median(CrashScenario::None);
        let part = median(CrashScenario::Participant);
        assert!(
            part > none,
            "n=3 participant-crash anomaly missing: {part} !> {none}"
        );
    }
}
