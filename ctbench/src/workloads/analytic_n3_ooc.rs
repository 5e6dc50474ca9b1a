//! `analytic_n3_ooc`: the analytic pipeline the *other* way through the
//! exploration layer — external-memory dedup (sort-merge against
//! on-disk visited runs), paged CSR and retried spill I/O instead of
//! the resident intern table.
//!
//! Op: explore + generator + Krylov mean of the exponential n = 3 model
//! (135 125 states) under an 8 MiB spill budget with `DedupMode::External`.

use std::hint::black_box;

use ctsim_bench::alloc_counter;
use ctsim_models::SanParams;
use ctsim_san::SanModel;
use ctsim_solve::{
    AnalyticRun, DedupMode, GeneratorBackend, IterOptions, LinOp, ReachOptions, SolverBackend,
    SpillOptions, StateSpace,
};

use super::{goal, leak_model, reach_options, reference, size};
use crate::harness::{check_eq, median_time, Cfg, Layers, Rec, Workload, WorkloadResult, THREADS};
use crate::trace;

const BUDGET_BYTES: usize = 8 << 20;

pub struct AnalyticN3Ooc {
    params: SanParams,
    model: &'static SanModel,
    resident: ReachOptions,
    spilled: ReachOptions,
    iter: IterOptions,
    /// Mean (ms), states and rates of the resident solve done in set-up.
    want: (f64, usize, usize),
}

impl AnalyticN3Ooc {
    fn solve(&self, reach: &ReachOptions) -> Result<(f64, usize, usize), String> {
        let run = AnalyticRun::first_passage(self.model, reach, goal(self.model, self.params.n))
            .map_err(|e| e.to_string())?;
        let out = run.mean(&self.iter).map_err(|e| e.to_string())?;
        Ok((out.mean_ms, out.states, out.rates))
    }
}

impl Workload for AnalyticN3Ooc {
    const NAME: &'static str = "analytic_n3_ooc";

    fn setup(cfg: &Cfg) -> Result<Self, String> {
        let params = SanParams::exponential_baseline(size(cfg, 3));
        let resident = reach_options(&params, 0, THREADS);
        let mut w = Self {
            model: leak_model(&params),
            spilled: ReachOptions {
                spill: Some(SpillOptions {
                    budget_bytes: BUDGET_BYTES,
                    dir: Some(cfg.scratch.clone()),
                    dedup: DedupMode::External,
                }),
                ..resident.clone()
            },
            resident,
            iter: IterOptions::with_backend(SolverBackend::Krylov, THREADS),
            want: (0.0, 0, 0),
            params,
        };
        let (mean, states, rates) = w.solve(&w.resident)?;
        w.want = (reference(cfg, mean), states, rates);
        Ok(w)
    }

    fn op(&mut self, rec: &mut Rec) -> Result<(), String> {
        let (mean, states, rates) = self.solve(&self.spilled)?;
        // Spill and external dedup are byte-transparent: the mean of
        // the resident solve, to the bit.
        check_eq("mean_ms bits", mean.to_bits(), self.want.0.to_bits())?;
        check_eq("states", states, self.want.1)?;
        check_eq("rates", rates, self.want.2)?;
        rec.count("states", states as u64);
        rec.count("rates", rates as u64);
        Ok(())
    }

    fn traced(
        &mut self,
        cfg: &Cfg,
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String> {
        let n = self.params.n;
        let (mean, t) = trace::record(|| -> Result<f64, String> {
            // Exploration and the paged generator are one pipelined
            // pass; no public call separates them.
            let run = {
                let _s = trace::layer("solve.ddd-spill.first_passage");
                AnalyticRun::first_passage(self.model, &self.spilled, goal(self.model, n))
                    .map_err(|e| e.to_string())?
            };
            let mean = {
                let _s = trace::layer("solve.krylov.mean");
                run.mean(&self.iter).map_err(|e| e.to_string())?.mean_ms
            };
            let _s = trace::layer("harness.drop");
            drop(run);
            Ok(mean)
        })?;
        check_eq("traced mean_ms bits", mean.to_bits(), self.want.0.to_bits())?;
        t.report(cfg, Self::NAME, &[], untraced, out)?;
        out.set("ooc.sorted_runs", t.counter("ddd.sorted_runs") as f64);
        out.set("ooc.merge_bytes", t.counter("ddd.merge_bytes") as f64);
        let (hits, misses) = (
            t.counter("spill.pager_hits") as f64,
            t.counter("spill.pager_misses") as f64,
        );
        out.set("ooc.pager_hit_ratio", hits / (hits + misses).max(1.0));
        out.set("ooc.retries", t.counter("resilience.retries") as f64);

        // Exploration alone, external against resident, telemetry off.
        let explore = |reach: &ReachOptions| {
            median_time(3, || {
                // A failure here panics, and so fails the traced op.
                let space = StateSpace::explore_absorbing(self.model, reach, goal(self.model, n))
                    .expect("the model explored in every op above");
                black_box(space.len());
            })
        };
        let ooc_s = explore(&self.spilled);
        out.set("ooc.explore_s", ooc_s);
        out.set("ooc.vs_resident_ratio", ooc_s / explore(&self.resident));

        // The second generator representation, on the same model. It is
        // on no default path; the rows exist so that the ROADMAP's "earn
        // its place or go" decision has numbers.
        let live0 = alloc_counter::live_bytes();
        alloc_counter::reset_peak();
        let (space, gen) = StateSpace::explore_absorbing_gen(
            self.model,
            &self.resident,
            GeneratorBackend::Kron,
            goal(self.model, n),
        )
        .map_err(|e| e.to_string())?;
        out.set(
            "kron.build_peak_bytes",
            alloc_counter::peak_bytes().saturating_sub(live0) as f64,
        );
        drop(space);
        let dim = LinOp::dim(&gen);
        let v: Vec<f64> = (0..dim).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let mut y = vec![0.0; dim];
        let apply_s = median_time(20, || {
            gen.apply(&v, &mut y, 1);
            black_box(&y[0]);
        });
        let nnz = gen.as_kron().expect("built as kron").num_entries();
        out.set("kron.spmv_ns_per_nnz", apply_s * 1e9 / nnz as f64);
        Ok(())
    }
}
