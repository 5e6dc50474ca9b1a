//! Fig. 9 — consensus latency vs the failure-detection timeout `T`.
//!
//! * Fig. 9(a): measurements for n = 3..11 — each curve starts high at
//!   small `T` (frequent wrong suspicions), decreases fast, and levels
//!   at the no-suspicion latency; a small peak appears around
//!   `T = 10 ms` (the Linux scheduler quantum) for middle n;
//! * Fig. 9(b): measurements vs SAN simulation for n = 3 and 5, with
//!   the two-state FD model fed the *measured* `T_MR(T)`, `T_M(T)` from
//!   Fig. 8 and deterministic or exponential sojourn distributions. The
//!   paper's validation finding: the model matches when the QoS is good
//!   (large `T`) and underestimates the effect of frequent wrong
//!   suspicions (small `T`) because real detectors are *correlated*
//!   while the model assumes independence.

use ctsim_models::{latency_replications, FdModel, SojournDist};

use crate::fig6::Fig6;
use crate::fig8::Fig8;
use crate::scale::Scale;

/// One Fig. 9(b) comparison row.
#[derive(Debug, Clone)]
pub struct Fig9bRow {
    /// Number of processes (3 or 5).
    pub n: usize,
    /// The timeout `T` (ms).
    pub timeout: f64,
    /// Measured latency (ms) from the class-3 campaigns; `None` where no
    /// execution decided.
    pub measured: Option<f64>,
    /// SAN latency with deterministic sojourns (ms).
    pub sim_det: f64,
    /// SAN latency with exponential sojourns (ms).
    pub sim_exp: f64,
    /// The QoS fed into the model.
    pub t_mr: f64,
    /// The QoS fed into the model (`None`: no run saw a mistake).
    pub t_m: Option<f64>,
}

impl Fig9bRow {
    /// The row of `fig9b.csv`: `n,timeout_ms,meas_ms,sim_det_ms,
    /// sim_exp_ms,t_mr_ms,t_m_ms`, an undefined statistic as an empty
    /// cell.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.4},{:.4},{:.4},{}",
            self.n,
            self.timeout,
            crate::csv_cell(self.measured),
            self.sim_det,
            self.sim_exp,
            self.t_mr,
            crate::csv_cell(self.t_m),
        )
    }
}

/// Fig. 9(b) dataset.
#[derive(Debug, Clone)]
pub struct Fig9b {
    /// Rows grouped by n, then T ascending.
    pub rows: Vec<Fig9bRow>,
}

/// Renders Fig. 9(a) from the Fig. 8 sweep (the same campaigns measure
/// both QoS and latency, as in the paper).
pub fn render_fig9a(fig8: &Fig8) -> String {
    let mut s = String::new();
    s.push_str("Fig. 9(a) — latency vs timeout T (ms), measurements\n");
    s.push_str("paper: decreasing to the class-1 plateau; high at small T\n");
    s.push_str("   n |     T | latency | ±ci90   | undecided\n");
    for p in &fig8.points {
        s.push_str(&format!(
            "{:>4} |{:>6.1} |{} |{:>8} | {:>5.1}%\n",
            p.n,
            p.timeout,
            crate::opt_cell(p.latency),
            p.latency_ci90.map_or(String::new(), |c| format!("{c:.3}")),
            100.0 * p.undecided_frac,
        ));
    }
    s
}

/// Runs the Fig. 9(b) simulations against the measured QoS.
pub fn run_fig9b(scale: Scale, seed: u64, fig6: &Fig6, fig8: &Fig8) -> Fig9b {
    let mut rows = Vec::new();
    for &n in scale.simulation_ns() {
        for &t in scale.timeout_grid() {
            let Some(point) = fig8.point(n, t) else {
                continue;
            };
            let mut sims = [0.0f64; 2];
            for (k, dist) in [SojournDist::Deterministic, SojournDist::Exponential]
                .into_iter()
                .enumerate()
            {
                let mut params = fig6.san_params(n, 0.025);
                params.fd = match point.t_m {
                    Some(t_m) if point.t_mr.is_finite() => FdModel::TwoState {
                        t_mr: point.t_mr,
                        // Guard the T_M < T_MR invariant against
                        // estimator noise at extreme settings.
                        t_m: t_m.min(0.9 * point.t_mr).max(1e-3),
                        dist,
                    },
                    _ => FdModel::Accurate,
                };
                let reps = latency_replications(&params, scale.san_reps(), seed, 60_000.0);
                sims[k] = reps.mean();
            }
            rows.push(Fig9bRow {
                n,
                timeout: t,
                measured: point.latency,
                sim_det: sims[0],
                sim_exp: sims[1],
                t_mr: point.t_mr,
                t_m: point.t_m,
            });
        }
    }
    Fig9b { rows }
}

impl Fig9b {
    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Fig. 9(b) — latency vs T: measurements vs SAN model (ms)\n");
        s.push_str("paper: match at large T (good QoS); divergence at small T\n");
        s.push_str("   n |     T |    meas | sim det | sim exp |    T_MR |    T_M\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{:>4} |{:>6.1} |{} |{} |{} |{} |{}\n",
                r.n,
                r.timeout,
                crate::opt_cell(r.measured),
                crate::cell(r.sim_det),
                crate::cell(r.sim_exp),
                crate::cell(r.t_mr),
                crate::opt_cell(r.t_m),
            ));
        }
        s
    }

    /// The paper's validation statement, checked on this data: relative
    /// sim/meas gap at the largest T vs the smallest T with a
    /// measurement.
    pub fn validation_gaps(&self, n: usize) -> Option<(f64, f64)> {
        let gaps: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.n == n)
            .filter_map(|r| {
                let measured = r.measured?;
                let sim = 0.5 * (r.sim_det + r.sim_exp);
                Some((sim - measured).abs() / measured.max(1e-9))
            })
            .collect();
        Some((*gaps.first()?, *gaps.last()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig8;

    #[test]
    fn fig9b_matches_at_large_t() {
        let fig6 = crate::fig6::run(Scale::Quick, 17);
        // A mini-sweep with just the extremes.
        let points = vec![
            fig8::run_point(Scale::Quick, 17, 3, 1.0, 1),
            fig8::run_point(Scale::Quick, 17, 3, 100.0, 1),
        ];
        let f8 = Fig8 { points };
        let f9 = run_fig9b(Scale::Quick, 17, &fig6, &f8);
        assert_eq!(f9.rows.len(), 2);
        let large = &f9.rows[1];
        // Good QoS: the model must approach the measurement (within
        // ~35% — the paper's "results match").
        let sim = 0.5 * (large.sim_det + large.sim_exp);
        let measured = large.measured.expect("large T decides");
        assert!(
            (sim - measured).abs() < 0.35 * measured,
            "large-T mismatch: sim {sim} vs meas {measured}"
        );
        let rendered = f9.render();
        assert!(rendered.contains("sim det"));
    }
}
