//! `sim_n5_mc`: the Monte-Carlo engine on the paper's real parameters
//! (`san::sim`, `san::reward::replicate`, `stoch` sampling, `des`
//! time). `solve` does nothing here, so an analytic-side change
//! predicts "no move".
//!
//! Op: `models::latency_replications(paper_baseline(5), 30 000, seed, 1e4)`.

use std::hint::black_box;

use ctsim_des::SimTime;
use ctsim_models::{build_model, decided_place_ids, latency_replications, SanParams};
use ctsim_san::{replicate, Simulator, StopReason};
use ctsim_stoch::SimRng;

use super::{des_probes, size, MeanReference};
use crate::harness::{check_eq, median_time, timed, Cfg, Layers, Rec, Workload, WorkloadResult};
use crate::trace;

const HORIZON_MS: f64 = 1e4;

/// Recorded mean latency (ms) of the full-size op. Any seed must land
/// within 5·ci90 of it; [`crate::DEFAULT_SEED`] reproduces
/// [`RECORDED_DEFAULT_SEED`] itself.
const RECORDED_MEAN_MS: f64 = 1.6258;
const RECORDED_DEFAULT_SEED: f64 = 1.624069614666654;

/// Replications the set-up runs one by one on one thread. `replicate`
/// promises the outcome of that plain loop whatever its worker count,
/// so the op's first samples must equal these to the bit.
const SEQUENTIAL_PREFIX: usize = 1000;

pub struct SimN5Mc {
    params: SanParams,
    reps: usize,
    seed: u64,
    prefix: Vec<f64>,
    mean: MeanReference,
}

/// Latencies (ms) of replications `0..reps`, from one simulator after
/// another on the calling thread; with the completions they took.
fn sequential(params: &SanParams, reps: usize, seed: u64) -> Result<(Vec<f64>, u64), String> {
    let model = build_model(params);
    let decided = decided_place_ids(&model, params.n);
    let root = SimRng::new(seed);
    let mut completions = 0;
    let mut latencies = Vec::with_capacity(reps);
    for i in 0..reps {
        let mut sim = Simulator::new(&model, root.substream(i as u64));
        let out = sim.run_until(
            |m| decided.iter().any(|&d| m.get(d) > 0),
            SimTime::from_ms(HORIZON_MS),
        );
        if out.reason != StopReason::Predicate {
            return Err(format!("replication {i} stopped on {:?}", out.reason));
        }
        completions += out.completions;
        latencies.push(out.time.as_ms());
    }
    Ok((latencies, completions))
}

impl SimN5Mc {
    fn check(&mut self, r: &ctsim_san::Replications) -> Result<(), String> {
        check_eq("discarded", r.discarded, 0)?;
        if r.samples[..self.prefix.len()] != self.prefix[..] {
            return Err("the first samples differ from the sequential loop's".to_string());
        }
        self.mean.check(r.mean(), r.ci90(), &r.samples)
    }
}

impl Workload for SimN5Mc {
    const NAME: &'static str = "sim_n5_mc";

    fn setup(cfg: &Cfg) -> Result<Self, String> {
        let params = SanParams::paper_baseline(size(cfg, 5));
        let reps = if cfg.smoke { 300 } else { 30_000 };
        Ok(Self {
            prefix: sequential(&params, SEQUENTIAL_PREFIX.min(reps), cfg.seed)?.0,
            params,
            reps,
            seed: cfg.seed,
            mean: MeanReference::new(cfg, RECORDED_MEAN_MS, RECORDED_DEFAULT_SEED),
        })
    }

    fn op(&mut self, rec: &mut Rec) -> Result<(), String> {
        let r = latency_replications(&self.params, self.reps, self.seed, HORIZON_MS);
        self.check(&r)?;
        rec.count("samples", r.samples.len() as u64);
        Ok(())
    }

    fn traced(
        &mut self,
        cfg: &Cfg,
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String> {
        let n = self.params.n;
        let horizon = SimTime::from_ms(HORIZON_MS);
        // `latency_replications`, replaced by its stages.
        let (r, t) = trace::record(|| {
            let model = {
                let _s = trace::layer("models.build_model");
                build_model(&self.params)
            };
            let decided = decided_place_ids(&model, n);
            let _s = trace::layer("san.reward.replicate");
            Ok(replicate(&model, self.reps, self.seed, |sim| {
                let out = sim.run_until(|m| decided.iter().any(|&d| m.get(d) > 0), horizon);
                (out.reason == StopReason::Predicate).then(|| out.time.as_ms())
            }))
        })?;
        self.check(&r)?;
        t.report(cfg, Self::NAME, &[], untraced, out)?;
        out.set("san.discarded", t.counter("sim.discarded") as f64);

        // One thread, one simulator per replication: the plain loop
        // `replicate` fans out.
        let loop_reps = self.reps / 10;
        let (looped, loop_s) = timed(|| sequential(&self.params, loop_reps, self.seed));
        let completions = looped?.1;
        out.set("san.events_per_s", completions as f64 / loop_s);
        out.set("san.ns_per_rep", loop_s * 1e9 / loop_reps as f64);
        let workers = ctsim_obs::host_info().logical_cores as f64;
        let per_rep_parallel = untraced.median("op_s") / self.reps as f64;
        out.set(
            "san.replicate_efficiency",
            (loop_s / loop_reps as f64) / (workers * per_rep_parallel),
        );

        // Replications for a 1 % relative 90 % CI, from a pilot: the
        // half-width scales as 1/√reps.
        let pilot = latency_replications(&self.params, 400, self.seed, HORIZON_MS);
        out.set(
            "san.reps_for_1pct_ci",
            (400.0 * (pilot.ci90() / (0.01 * pilot.mean())).powi(2)).ceil(),
        );

        // How the engine scales with the model: the paper's sizes.
        let sweep_reps = self.reps / 15;
        for (size, name) in [
            (3, "san.reps_per_s_n3"),
            (5, "san.reps_per_s_n5"),
            (7, "san.reps_per_s_n7"),
            (9, "san.reps_per_s_n9"),
            (11, "san.reps_per_s_n11"),
        ] {
            let p = SanParams::paper_baseline(if cfg.smoke { 2 } else { size });
            let (r, s) = timed(|| latency_replications(&p, sweep_reps, self.seed, HORIZON_MS));
            check_eq(name, r.discarded, 0)?;
            out.set(name, sweep_reps as f64 / s);
        }

        // stoch: one draw of the bimodal network delay.
        let dist = self.params.net_unicast.clone();
        let mut rng = SimRng::new(self.seed);
        let draws = 1_000_000;
        out.set(
            "stoch.sample_ns",
            median_time(5, || {
                let mut acc = 0.0;
                for _ in 0..draws {
                    acc += dist.sample(&mut rng);
                }
                black_box(acc);
            }) * 1e9
                / draws as f64,
        );
        des_probes(out);
        Ok(())
    }
}
