//! The six workloads. Names are fixed: every later performance or
//! simplicity change is judged with them.

use std::hint::black_box;

use ctsim_des::{EventQueue, SimTime};
use ctsim_models::{build_model, decided_place_ids, SanParams};
use ctsim_san::{Marking, PlaceId, SanModel};
use ctsim_solve::{ReachOptions, SolveOptions, SolverBackend};

use crate::harness::{check_eq, check_rel, median_time, Cfg, Layers, THREADS};

pub mod analytic_n3_ooc;
pub mod analytic_n3_ph2;
pub mod campaign_n3_sweep;
pub mod sim_n5_mc;
pub mod solve_n3_ph2;
pub mod testbed_n5_hb;

/// The workloads in run order, as listed in `BENCHMARK.json` (which
/// also says why each was chosen).
pub const WORKLOADS: [&str; 6] = [
    "analytic_n3_ph2",
    "analytic_n3_ooc",
    "solve_n3_ph2",
    "campaign_n3_sweep",
    "sim_n5_mc",
    "testbed_n5_hb",
];

/// The process count standing in for `n` under `--smoke`.
pub fn size(cfg: &Cfg, n: usize) -> usize {
    if cfg.smoke {
        2
    } else {
        n
    }
}

/// A model that lives as long as the process. The solver's types borrow
/// their model, and a workload's state holds both; a run builds a
/// handful of these small nets, so they are never freed.
pub fn leak_model(params: &SanParams) -> &'static SanModel {
    Box::leak(Box::new(build_model(params)))
}

/// The first-passage goal of every analytic workload: some process has
/// decided.
pub fn goal(model: &SanModel, n: usize) -> impl Fn(&Marking) -> bool + Sync + Clone {
    let decided: Vec<PlaceId> = decided_place_ids(model, n);
    move |m: &Marking| decided.iter().any(|&d| m.get(d) > 0)
}

/// `SolveOptions::ph_with_backend` at the benchmark's thread count and
/// the state cap `repro analytic` uses.
pub fn solve_options(params: &SanParams, ph_order: u32, backend: SolverBackend) -> SolveOptions {
    let mut opts = SolveOptions::ph_with_backend(ph_order, THREADS, backend);
    opts.reach.max_states = params.recommended_max_states(ph_order);
    opts
}

pub fn reach_options(params: &SanParams, ph_order: u32, threads: usize) -> ReachOptions {
    ReachOptions {
        ph_order,
        threads,
        max_states: params.recommended_max_states(ph_order),
        ..ReachOptions::default()
    }
}

/// Shifts a reference value under `--corrupt-reference`, by more than
/// any statistical tolerance forgives.
pub fn reference(cfg: &Cfg, value: f64) -> f64 {
    if cfg.corrupt_reference {
        value * 1.5
    } else {
        value
    }
}

/// The checks on a mean latency that the two stochastic workloads
/// share: every op repeats the first op's mean to the bit; the mean is
/// within 5·ci90 of the recorded one for any seed and reproduces the
/// recorded default-seed value at [`crate::DEFAULT_SEED`]. `--smoke`
/// has no recorded output; there the mean must be its samples' sum
/// over their count.
pub struct MeanReference {
    smoke: bool,
    default_seed: bool,
    /// How far a reference is shifted (1 unless `--corrupt-reference`).
    shift: f64,
    recorded_mean_ms: f64,
    recorded_default_seed: f64,
    first: Option<f64>,
}

impl MeanReference {
    pub fn new(cfg: &Cfg, recorded_mean_ms: f64, recorded_default_seed: f64) -> Self {
        Self {
            smoke: cfg.smoke,
            default_seed: cfg.seed == crate::DEFAULT_SEED,
            shift: reference(cfg, 1.0),
            recorded_mean_ms,
            recorded_default_seed,
            first: None,
        }
    }

    pub fn check(&mut self, mean: f64, ci90: f64, samples: &[f64]) -> Result<(), String> {
        let first = *self.first.get_or_insert(mean);
        check_eq("mean_ms bits across ops", mean.to_bits(), first.to_bits())?;
        if self.smoke {
            let want = samples.iter().sum::<f64>() / samples.len() as f64;
            return check_rel("mean_ms vs samples", mean, want * self.shift, 1e-9);
        }
        let want = self.recorded_mean_ms * self.shift;
        if (mean - want).abs() > 5.0 * ci90 {
            return Err(format!(
                "mean_ms {mean} is not within 5·ci90 = {} of the recorded {want}",
                5.0 * ci90
            ));
        }
        if self.default_seed {
            let want = self.recorded_default_seed * self.shift;
            check_rel("mean_ms at the default seed", mean, want, 1e-9)?;
        }
        Ok(())
    }
}

/// The event queue under both engines: 10 k schedule + pop (the
/// `engine_micro` bench's loop), and 10 k schedule + cancel.
pub fn des_probes(out: &mut Layers) {
    const EVENTS: u32 = 10_000;
    let at = |i: u32| SimTime::from_nanos((i.wrapping_mul(2_654_435_761) % 1_000_000) as u64);
    out.set(
        "des.queue_ns_per_event",
        median_time(50, || {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..EVENTS {
                q.schedule_at(at(i), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e as u64);
            }
            black_box(acc);
        }) * 1e9
            / EVENTS as f64,
    );
    out.set(
        "des.cancel_ns",
        median_time(50, || {
            let mut q: EventQueue<u32> = EventQueue::new();
            let handles: Vec<_> = (0..EVENTS).map(|i| q.schedule_at(at(i), i)).collect();
            let mut acc = 0u64;
            for h in handles {
                acc = acc.wrapping_add(q.cancel(h).unwrap_or(0) as u64);
            }
            black_box(acc);
        }) * 1e9
            / EVENTS as f64,
    );
}
