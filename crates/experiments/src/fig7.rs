//! Fig. 7 and the §5.2 mean-latency table: class-1 latency (no
//! failures, no suspicions).
//!
//! * Fig. 7(a): the cumulative distribution of measured latencies for
//!   n = 3, 5, 7, 9, 11 (5000 executions each at full scale);
//! * Fig. 7(b): simulated latency CDFs for n = 5 with the end-to-end
//!   delay fixed to the Fig. 6 fit but `t_send` swept — the paper finds
//!   `t_send = 0.025 ms` matches the measurements and adopts it for all
//!   simulations.

use ctsim_models::latency_replications;
use ctsim_stoch::{fan_out, Ecdf};
use ctsim_testbed::TestbedConfig;

use crate::fig6::Fig6;
use crate::run_campaign;
use crate::scale::Scale;

/// The paper's §5.2 reference means (ms).
pub const PAPER_MEAS_MEANS: &[(usize, f64)] =
    &[(3, 1.06), (5, 1.43), (7, 2.00), (9, 2.62), (11, 3.27)];
/// The paper's simulation means (ms) for n = 3 and 5.
pub const PAPER_SIM_MEANS: &[(usize, f64)] = &[(3, 1.030), (5, 1.442)];
/// The paper's `t_send` sweep values for Fig. 7(b), ms.
pub const PAPER_TSEND_SWEEP: &[f64] = &[0.005, 0.010, 0.015, 0.020, 0.025, 0.035];

/// One measured latency distribution.
#[derive(Debug, Clone)]
pub struct MeasuredLatency {
    /// Number of processes.
    pub n: usize,
    /// The latency samples as an ECDF (ms).
    pub ecdf: Ecdf,
    /// Mean (ms).
    pub mean: f64,
    /// 90 % CI half-width (paper reports < 0.02 ms at full scale).
    pub ci90: f64,
}

/// Fig. 7(a): measured latency CDFs per n.
#[derive(Debug, Clone)]
pub struct Fig7a {
    /// One entry per process count.
    pub rows: Vec<MeasuredLatency>,
}

/// One simulated CDF of the Fig. 7(b) `t_send` sweep.
#[derive(Debug, Clone)]
pub struct SimSweepPoint {
    /// The swept `t_send = t_receive` (ms).
    pub t_send: f64,
    /// Simulated latency samples (ms).
    pub ecdf: Ecdf,
    /// Mean (ms).
    pub mean: f64,
}

/// Fig. 7(b): simulation sweep vs the measured n = 5 distribution.
#[derive(Debug, Clone)]
pub struct Fig7b {
    /// The sweep, in `t_send` order.
    pub sweep: Vec<SimSweepPoint>,
    /// The measured n = 5 latency distribution for comparison.
    pub measured: MeasuredLatency,
    /// The sweep value whose mean is closest to the measurement (the
    /// paper's procedure selects `t_send = 0.025`).
    pub best_t_send: f64,
}

/// Runs Fig. 7(a), one campaign per n on `threads` workers (0 = all
/// cores).
pub fn run_fig7a(scale: Scale, seed: u64, threads: usize) -> Fig7a {
    let ns = scale.measurement_ns();
    let rows = fan_out(
        ns.len(),
        threads,
        || (),
        |_, i| {
            let n = ns[i];
            let r = run_campaign(&TestbedConfig::class1(n, scale.executions(), seed));
            MeasuredLatency {
                n,
                mean: r.mean(),
                ci90: r.ci90(),
                ecdf: Ecdf::new(r.latencies_ms),
            }
        },
    );
    Fig7a { rows }
}

/// Runs Fig. 7(b): requires the Fig. 6 fits (the "same end-to-end
/// delay" the sweep holds fixed) and a measured n = 5 distribution.
pub fn run_fig7b(scale: Scale, seed: u64, fig6: &Fig6, measured_n5: MeasuredLatency) -> Fig7b {
    assert_eq!(measured_n5.n, 5, "fig 7(b) compares against n = 5");
    let mut sweep = Vec::new();
    for &t_send in PAPER_TSEND_SWEEP {
        let params = fig6.san_params(5, t_send);
        let reps = latency_replications(&params, scale.san_reps(), seed, 10_000.0);
        sweep.push(SimSweepPoint {
            t_send,
            mean: reps.mean(),
            ecdf: Ecdf::new(reps.samples),
        });
    }
    let best_t_send = sweep
        .iter()
        .min_by(|a, b| {
            (a.mean - measured_n5.mean)
                .abs()
                .total_cmp(&(b.mean - measured_n5.mean).abs())
        })
        .expect("non-empty sweep")
        .t_send;
    Fig7b {
        sweep,
        measured: measured_n5,
        best_t_send,
    }
}

impl Fig7a {
    /// Paper-style rendering with the reference means.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Fig. 7(a) / §5.2 — class-1 latency (ms), measurements\n");
        s.push_str("   n |    mean |   ci90 |     q50 |     q90 |  paper mean\n");
        for row in &self.rows {
            let paper = PAPER_MEAS_MEANS
                .iter()
                .find(|(n, _)| *n == row.n)
                .map(|(_, m)| *m);
            s.push_str(&format!(
                "{:>4} |{} |{:>7.3} |{} |{} |{:>8}\n",
                row.n,
                crate::cell(row.mean),
                row.ci90,
                crate::cell(row.ecdf.quantile(0.5)),
                crate::cell(row.ecdf.quantile(0.9)),
                paper.map_or("    —".into(), |m| format!("{m:>8.2}")),
            ));
        }
        s
    }
}

impl Fig7b {
    /// Paper-style rendering of the sweep.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Fig. 7(b) — simulated latency for n = 5, t_send sweep (ms)\n");
        s.push_str(&format!(
            "measured: mean {:.3} (paper: 1.43)\n",
            self.measured.mean
        ));
        for p in &self.sweep {
            let marker = if p.t_send == self.best_t_send {
                " <- best match"
            } else {
                ""
            };
            s.push_str(&format!(
                "t_send {:>6.3}: mean {}  q50 {}  q90 {}{}\n",
                p.t_send,
                crate::cell(p.mean),
                crate::cell(p.ecdf.quantile(0.5)),
                crate::cell(p.ecdf.quantile(0.9)),
                marker
            ));
        }
        s.push_str(&format!(
            "best-matching t_send = {:.3} ms (paper adopts 0.025)\n",
            self.best_t_send
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_quick_has_growing_means_and_full_cdfs() {
        let f = run_fig7a(Scale::Quick, 7, 1);
        assert_eq!(f.rows.len(), 2); // quick scale: n = 3, 5
        assert!(f.rows[0].mean < f.rows[1].mean);
        for r in &f.rows {
            assert!(r.ecdf.len() >= 100);
            assert!(r.ci90 < 0.2, "ci {}", r.ci90);
            // Shape: in the paper's band (≈ 1-2x of 1.06 / 1.43).
            assert!((0.5..3.0).contains(&r.mean), "mean {}", r.mean);
        }
        let rendered = f.render();
        assert!(rendered.contains("paper mean"));
    }

    #[test]
    fn fig7b_sweep_means_increase_with_t_send_and_match_measurement() {
        let fig6 = crate::fig6::run(Scale::Quick, 3);
        let f7a = run_fig7a(Scale::Quick, 3, 1);
        let measured = f7a.rows.iter().find(|r| r.n == 5).unwrap().clone();
        let f = run_fig7b(Scale::Quick, 3, &fig6, measured);
        assert_eq!(f.sweep.len(), PAPER_TSEND_SWEEP.len());
        // More CPU per message -> more contention -> larger latency:
        // the first and last sweep points must be ordered.
        assert!(
            f.sweep.first().unwrap().mean < f.sweep.last().unwrap().mean,
            "sweep not monotone at the ends"
        );
        // The best match is an interior-ish value and the match is
        // reasonably tight (the paper's validation criterion).
        let best = f.sweep.iter().find(|p| p.t_send == f.best_t_send).unwrap();
        assert!(
            (best.mean - f.measured.mean).abs() < 0.35 * f.measured.mean,
            "best sim {} vs meas {}",
            best.mean,
            f.measured.mean
        );
    }
}
