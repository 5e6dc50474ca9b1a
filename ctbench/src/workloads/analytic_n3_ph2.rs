//! `analytic_n3_ph2`: the CI scalability gate and the ROADMAP's
//! headline command, `repro analytic --n 3 --ph-order 2`.
//!
//! Op: fused explore + generator build on the paper's n = 3 model at
//! phase-type order 2 (534 429 states, 1 930 132 rates), then the
//! Krylov first-passage mean.

use std::hint::black_box;

use ctsim_bench::alloc_counter;
use ctsim_models::{build_model, latency_replications, SanParams};
use ctsim_san::SanModel;
use ctsim_solve::{
    mean_time_to_absorption, AnalyticRun, Ctmc, SolveOptions, SolverBackend, StateSpace,
};
use ctsim_stoch::{Dist, PhaseType};

use super::{goal, leak_model, reach_options, reference, size, solve_options};
use crate::harness::{
    check_eq, check_rel, median_time, timed, Cfg, Layers, Rec, Workload, WorkloadResult, THREADS,
};
use crate::trace;

pub const PH_ORDER: u32 = 2;

/// Recorded output of the full-size op: mean (ms), states, rates.
pub const RECORDED: (f64, usize, usize) = (1.000045364058373, 534_429, 1_930_132);

pub struct AnalyticN3Ph2 {
    params: SanParams,
    model: &'static SanModel,
    opts: SolveOptions,
    want: (f64, usize, usize),
}

/// The order-2 model's mean, state and rate count, from the plain
/// sequential pipeline (one thread, Gauss–Seidel): what `--smoke`
/// checks against, since only the full size has a recorded output.
pub fn sequential_reference(
    model: &SanModel,
    params: &SanParams,
) -> Result<(f64, usize, usize), String> {
    let opts = SolveOptions::ph(PH_ORDER, 1);
    let run = AnalyticRun::first_passage_with(model, &opts, goal(model, params.n))
        .map_err(|e| e.to_string())?;
    let out = run.mean(&opts.iter).map_err(|e| e.to_string())?;
    Ok((out.mean_ms, out.states, out.rates))
}

impl Workload for AnalyticN3Ph2 {
    const NAME: &'static str = "analytic_n3_ph2";

    fn setup(cfg: &Cfg) -> Result<Self, String> {
        let params = SanParams::paper_baseline(size(cfg, 3));
        let model = leak_model(&params);
        let (mean, states, rates) = if cfg.smoke {
            sequential_reference(model, &params)?
        } else {
            RECORDED
        };
        Ok(Self {
            opts: solve_options(&params, PH_ORDER, SolverBackend::Krylov),
            want: (reference(cfg, mean), states, rates),
            params,
            model,
        })
    }

    fn op(&mut self, rec: &mut Rec) -> Result<(), String> {
        let run = AnalyticRun::first_passage_with(
            self.model,
            &self.opts,
            goal(self.model, self.params.n),
        )
        .map_err(|e| e.to_string())?;
        let out = run.mean(&self.opts.iter).map_err(|e| e.to_string())?;
        check_rel("mean_ms", out.mean_ms, self.want.0, 1e-6)?;
        check_eq("states", out.states, self.want.1)?;
        check_eq("rates", out.rates, self.want.2)?;
        rec.count("states", out.states as u64);
        rec.count("rates", out.rates as u64);
        rec.count("krylov_iters", out.iterations as u64);
        Ok(())
    }

    fn traced(
        &mut self,
        cfg: &Cfg,
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String> {
        let n = self.params.n;
        // The fused call, replaced by its stages so that each gets a
        // span. The stages run back to back instead of overlapped, which
        // is part of what `trace.overhead_ratio` reports.
        let (mean, t) = trace::record(|| -> Result<f64, String> {
            let model = {
                let _s = trace::layer("models.build_model");
                build_model(&self.params)
            };
            let space = {
                let _s = trace::layer("solve.graph.explore_absorbing");
                StateSpace::explore_absorbing(&model, &self.opts.reach, goal(&model, n))
                    .map_err(|e| e.to_string())?
            };
            let ctmc = {
                let _s = trace::layer("solve.ctmc.from_state_space");
                Ctmc::from_state_space(&space).map_err(|e| e.to_string())?
            };
            let sol = {
                let _s = trace::layer("solve.krylov.mean_time_to_absorption");
                mean_time_to_absorption(&ctmc, &self.opts.iter).map_err(|e| e.to_string())?
            };
            let mean = {
                // What `AnalyticRun::mean` does around the solve: the
                // goal must be the only place probability can rest.
                let _s = trace::layer("solve.reward");
                if let Some(s) =
                    (0..space.len()).find(|&s| ctmc.is_absorbing(s) && !space.absorbing[s])
                {
                    return Err(format!("state {s} is a non-goal dead end"));
                }
                sol.mean
            };
            let _s = trace::layer("harness.drop");
            drop((ctmc, space));
            Ok(mean)
        })?;
        check_rel("traced mean_ms", mean, self.want.0, 1e-6)?;
        t.report(cfg, Self::NAME, &[], untraced, out)?;
        out.set(
            "explore.dedup_hit_ratio",
            t.counter("explore.dedup_hits") as f64 / t.counter("explore.transitions") as f64,
        );

        // Layer probes, telemetry off.
        out.set(
            "models.build_model_s",
            median_time(20, || {
                black_box(build_model(&self.params));
            }),
        );
        let stages = [
            self.params.net_unicast.clone(),
            self.params.net_broadcast.clone(),
            Dist::Det(self.params.t_send),
        ];
        let fits = 1000;
        out.set(
            "stoch.ph_fit_ns",
            median_time(5, || {
                for _ in 0..fits {
                    for d in &stages {
                        black_box(PhaseType::fit(black_box(d), PH_ORDER));
                    }
                }
            }) * 1e9
                / (fits * stages.len()) as f64,
        );

        // The plain single-threaded exploration is the baseline.
        let explore = |threads: usize| {
            let live0 = alloc_counter::live_bytes();
            let (space, s) = timed(|| {
                StateSpace::explore_absorbing(
                    self.model,
                    &reach_options(&self.params, PH_ORDER, threads),
                    goal(self.model, n),
                )
            });
            let held = alloc_counter::live_bytes().saturating_sub(live0);
            space.map(|sp| (sp, s, held)).map_err(|e| e.to_string())
        };
        let (space, t1_s, _) = explore(1)?;
        drop(space);
        let (space, explore_s, held) = explore(THREADS)?;
        let (states, transitions) = (space.len() as f64, space.num_transitions() as f64);
        out.set("explore.s", explore_s);
        out.set("explore.states", states);
        out.set("explore.ns_per_state", explore_s * 1e9 / states);
        out.set("explore.ns_per_transition", explore_s * 1e9 / transitions);
        out.set("explore.bytes_per_state", held as f64 / states);
        out.set("explore.t1_s", t1_s);
        out.set("explore.speedup_t2", t1_s / explore_s);

        let live0 = alloc_counter::live_bytes();
        let (ctmc, build_s) = timed(|| Ctmc::from_state_space(&space));
        let ctmc = ctmc.map_err(|e| e.to_string())?;
        let held = alloc_counter::live_bytes().saturating_sub(live0);
        let rates = ctmc.num_rates() as f64;
        out.set("generator.build_s", build_s);
        out.set("generator.rates", rates);
        out.set("generator.ns_per_rate", build_s * 1e9 / rates);
        out.set("generator.bytes_per_rate", held as f64 / rates);
        out.set("generator.transpose_s", timed(|| ctmc.incoming_view()).1);
        drop((ctmc, space));

        // The model-vs-measurement gap the paper is about: order-2
        // analytic mean against the simulator on the real parameters.
        let reps = if cfg.smoke { 2_000 } else { 100_000 };
        let sim = latency_replications(&self.params, reps, 7, 1e4).mean();
        out.set("model.ph_gap_rel", (mean - sim).abs() / sim);
        Ok(())
    }
}
