//! Fig. 8 — failure-detector quality of service vs the timeout `T`
//! (class-3 campaigns: no crashes, wrong suspicions), and the latency
//! data Fig. 9(a) plots from the same experiments.
//!
//! Procedure per (n, T): `qos_runs` independent runs of
//! `qos_executions` consensus executions each, with `T_h = 0.7·T`; the
//! QoS metrics are estimated over the whole run with the §4 equations
//! and averaged over pairs; means and 90 % CIs are computed across the
//! runs — exactly the paper's procedure (20 runs × 1000 executions at
//! full scale).
//!
//! Expected shapes (paper §5.4):
//! * `T_MR` increases with `T`, then explodes past `T ≈ 30-40 ms`
//!   (`> 190 ms` at `T = 40`, `> 5000 ms` at `T = 100`);
//! * `T_M` stays bounded (`< 12 ms`) for all `T`.

use ctsim_stoch::{fan_out, OnlineStats};
use ctsim_testbed::{CampaignResult, TestbedConfig};

use crate::run_campaign;
use crate::scale::Scale;

/// QoS and latency estimates for one (n, T) setting.
#[derive(Debug, Clone)]
pub struct QosPoint {
    /// Number of processes.
    pub n: usize,
    /// The failure-detection timeout `T` (ms).
    pub timeout: f64,
    /// Mean mistake recurrence time over runs with mistakes (ms);
    /// infinite if no run observed a mistake.
    pub t_mr: f64,
    /// 90 % CI half-width of `t_mr` across runs.
    pub t_mr_ci90: f64,
    /// Mean mistake duration (ms).
    pub t_m: f64,
    /// 90 % CI half-width of `t_m` across runs.
    pub t_m_ci90: f64,
    /// Mean consensus latency (ms) across runs (Fig. 9(a)'s y-value).
    pub latency: f64,
    /// 90 % CI half-width of the latency across runs.
    pub latency_ci90: f64,
    /// Fraction of executions that never decided (diagnostics).
    pub undecided_frac: f64,
    /// Runs (out of `qos_runs`) in which at least one mistake occurred.
    pub runs_with_mistakes: u32,
    /// Total runs.
    pub runs: u32,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// All points, grouped by n then T ascending.
    pub points: Vec<QosPoint>,
}

/// Run `r` of the (n, T) setting, seeded from `(seed, r, n)` alone.
fn run_one(scale: Scale, seed: u64, n: usize, timeout: f64, r: usize) -> CampaignResult {
    run_campaign(&TestbedConfig::class3(
        n,
        scale.qos_executions(),
        timeout,
        seed ^ (0x9e37 * (r as u64 + 1)) ^ ((n as u64) << 32),
    ))
}

/// Folds the runs of one (n, T) setting, in run order.
fn fold(n: usize, timeout: f64, runs: &[CampaignResult]) -> QosPoint {
    let mut t_mr = OnlineStats::new();
    let mut t_m = OnlineStats::new();
    let mut lat = OnlineStats::new();
    let mut undecided = 0usize;
    let mut total = 0usize;
    let mut with_mistakes = 0u32;
    for res in runs {
        let qos = res.qos.as_ref().expect("class 3 produces QoS");
        if qos.pairs_with_mistakes > 0 && qos.t_mr.is_finite() {
            t_mr.push(qos.t_mr);
            t_m.push(qos.t_m);
            with_mistakes += 1;
        }
        if res.stats.count() > 0 {
            lat.push(res.mean());
        }
        undecided += res.undecided;
        total += res.per_exec.len();
    }
    QosPoint {
        n,
        timeout,
        t_mr: if t_mr.count() == 0 {
            f64::INFINITY
        } else {
            t_mr.mean()
        },
        t_mr_ci90: t_mr.ci_half_width(0.90),
        t_m: t_m.mean(),
        t_m_ci90: t_m.ci_half_width(0.90),
        latency: lat.mean(),
        latency_ci90: lat.ci_half_width(0.90),
        undecided_frac: undecided as f64 / total.max(1) as f64,
        runs_with_mistakes: with_mistakes,
        runs: runs.len() as u32,
    }
}

/// Runs one (n, T) setting, its runs on `threads` workers (0 = all
/// cores); the point is the same at every thread count.
pub fn run_point(scale: Scale, seed: u64, n: usize, timeout: f64, threads: usize) -> QosPoint {
    let runs = fan_out(
        scale.qos_runs() as usize,
        threads,
        || (),
        |_, r| run_one(scale, seed, n, timeout, r),
    );
    fold(n, timeout, &runs)
}

/// Runs the full Fig. 8 sweep: every run of every (n, T) setting is one
/// job of a single fan-out on `threads` workers (0 = all cores).
pub fn run(scale: Scale, seed: u64, threads: usize) -> Fig8 {
    let settings: Vec<(usize, f64)> = scale
        .measurement_ns()
        .iter()
        .flat_map(|&n| scale.timeout_grid().iter().map(move |&t| (n, t)))
        .collect();
    let per = scale.qos_runs() as usize;
    let runs = fan_out(
        settings.len() * per,
        threads,
        || (),
        |_, j| {
            let (n, t) = settings[j / per];
            run_one(scale, seed, n, t, j % per)
        },
    );
    let points = settings
        .iter()
        .zip(runs.chunks(per))
        .map(|(&(n, t), runs)| fold(n, t, runs))
        .collect();
    Fig8 { points }
}

impl Fig8 {
    /// The point for (n, T), if part of the sweep.
    pub fn point(&self, n: usize, timeout: f64) -> Option<&QosPoint> {
        self.points
            .iter()
            .find(|p| p.n == n && (p.timeout - timeout).abs() < 1e-9)
    }

    /// Paper-style rendering (both panels of Fig. 8).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Fig. 8 — failure-detector QoS vs timeout T (ms)\n");
        s.push_str("paper: T_MR rising, then exploding past T ≈ 30-40; T_M < 12 for all T\n");
        s.push_str("   n |     T |    T_MR | ±ci90   |     T_M | ±ci90   | mistakes\n");
        for p in &self.points {
            s.push_str(&format!(
                "{:>4} |{:>6.1} |{} |{:>8.2} |{} |{:>8.2} | {}/{}\n",
                p.n,
                p.timeout,
                crate::cell(p.t_mr),
                p.t_mr_ci90,
                crate::cell(p.t_m),
                p.t_m_ci90,
                p.runs_with_mistakes,
                p.runs,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_point_shapes_at_small_and_large_t() {
        let small = run_point(Scale::Quick, 11, 3, 3.0, 1);
        let large = run_point(Scale::Quick, 11, 3, 100.0, 1);
        // Small T: constant mistakes with short recurrence.
        assert_eq!(small.runs_with_mistakes, small.runs);
        assert!(small.t_mr < 100.0, "T_MR {}", small.t_mr);
        assert!(small.t_m < 15.0, "T_M {} must stay bounded", small.t_m);
        // Large T: mistakes rare or absent; recurrence far larger.
        assert!(
            large.t_mr > 10.0 * small.t_mr,
            "cliff missing: {} vs {}",
            small.t_mr,
            large.t_mr
        );
    }

    #[test]
    fn latency_decreases_from_small_to_large_t() {
        let small = run_point(Scale::Quick, 13, 3, 1.0, 1);
        let large = run_point(Scale::Quick, 13, 3, 100.0, 1);
        assert!(
            small.latency > large.latency,
            "fig9a trend: {} !> {}",
            small.latency,
            large.latency
        );
    }
}
