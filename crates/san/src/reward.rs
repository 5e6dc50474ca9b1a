//! Replication harness: independent runs, mean estimates, confidence
//! intervals.
//!
//! The paper's simulation results are replicated-run estimates of the
//! consensus latency with 90 % confidence intervals; [`replicate`] is
//! that procedure: N independent [`Simulator`] runs over a shared model,
//! each with its own RNG substream, reduced to a scalar by a caller
//! reward function.

use ctsim_stoch::{OnlineStats, SimRng};

use crate::model::SanModel;
use crate::sim::Simulator;

/// The outcome of a replicated simulation experiment.
#[derive(Debug, Clone)]
pub struct Replications {
    /// Statistics over the per-replication reward values.
    pub stats: OnlineStats,
    /// Every per-replication reward value (for CDFs).
    pub samples: Vec<f64>,
    /// Number of replications whose reward function returned `None`
    /// (e.g. run hit the horizon before deciding).
    pub discarded: u64,
}

impl Replications {
    /// Mean reward over the kept replications.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Half-width of the 90 % confidence interval on the mean — the
    /// interval the paper reports.
    pub fn ci90(&self) -> f64 {
        self.stats.ci_half_width(0.90)
    }
}

/// Replications in one job of the fan-out. Small enough that a slow
/// core costs the run at most one block of waiting, large enough that
/// the job hand-out and the per-block telemetry are noise.
const BLOCK: usize = 64;

/// Runs `reps` independent replications of `model`.
///
/// Replication `i` runs on a [`Simulator`] seeded from substream `i` of
/// `seed` and in its just-created state, so results are reproducible and
/// insensitive to the number of replications requested. The `reward`
/// closure drives the run (typically via [`Simulator::run_until`]) and
/// returns the scalar to record, or `None` to discard the replication.
///
/// Replications run on every core through [`ctsim_stoch::fan_out`], one
/// job per block of 64 consecutive indices. Each worker keeps one
/// simulator and [`Simulator::reset`]s it between replications — after
/// the first, a replication allocates nothing. Because every
/// replication derives its RNG purely from `(seed, index)`, starts from
/// a reset simulator, and the fan-out returns blocks in index order,
/// the outcome is bit-identical to a sequential loop over new
/// simulators, whatever the worker count or the scheduling.
pub fn replicate(
    model: &SanModel,
    reps: usize,
    seed: u64,
    reward: impl Fn(&mut Simulator<'_>) -> Option<f64> + Sync,
) -> Replications {
    replicate_on(0, model, reps, seed, |_, sim| reward(sim))
}

/// [`replicate`] on at most `workers` threads (0 = all cores), with the
/// replication index passed to `reward` — the seam the tests use to
/// show that neither changes a sample.
fn replicate_on(
    workers: usize,
    model: &SanModel,
    reps: usize,
    seed: u64,
    reward: impl Fn(usize, &mut Simulator<'_>) -> Option<f64> + Sync,
) -> Replications {
    let root = SimRng::new(seed);
    let blocks = reps.div_ceil(BLOCK);
    let _span = ctsim_obs::span("sim", "replicate")
        .arg("reps", reps)
        .arg("workers", ctsim_stoch::resolve_threads(workers).min(blocks));
    // One `replication_batch` span and one counter update per block.
    let results = ctsim_stoch::fan_out(
        blocks,
        workers,
        // Seeded per replication, by `reset`.
        || Simulator::new(model, root.clone()),
        |sim, block| {
            let (lo, hi) = (block * BLOCK, ((block + 1) * BLOCK).min(reps));
            let t0 = if ctsim_obs::enabled() {
                ctsim_obs::now_us()
            } else {
                0
            };
            let (mut completions, mut evals, mut visits) = (0, 0, 0);
            let slots: Vec<Option<f64>> = (lo..hi)
                .map(|i| {
                    sim.reset(root.substream(i as u64));
                    let r = reward(i, sim);
                    let (c, e, v) = sim.work_counts();
                    completions += c;
                    evals += e;
                    visits += v;
                    r
                })
                .collect();
            if ctsim_obs::enabled() {
                ctsim_obs::record_span(
                    "sim",
                    "replication_batch",
                    t0,
                    vec![("lo", lo.into()), ("hi", hi.into())],
                );
                ctsim_obs::counter_add("sim.completions", completions);
                ctsim_obs::counter_add("sim.enabling_evals", evals);
                ctsim_obs::counter_add("sim.dependent_visits", visits);
            }
            slots
        },
    );
    let mut stats = OnlineStats::new();
    let mut samples = Vec::with_capacity(reps);
    let mut discarded = 0;
    for r in results.into_iter().flatten() {
        match r {
            Some(x) => {
                stats.push(x);
                samples.push(x);
            }
            None => discarded += 1,
        }
    }
    if ctsim_obs::enabled() {
        ctsim_obs::counter_add("sim.replications", reps as u64);
        ctsim_obs::counter_add("sim.discarded", discarded);
    }
    Replications {
        stats,
        samples,
        discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, Case, SanBuilder};
    use ctsim_des::SimTime;
    use ctsim_stoch::Dist;

    fn exp_model(mean: f64) -> SanModel {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.add_activity(
            Activity::timed("t", Dist::Exp { mean })
                .input(p, 1)
                .case(Case::with_prob(1.0).output(q, 1)),
        );
        b.build().unwrap()
    }

    #[test]
    fn replicate_estimates_exponential_mean() {
        let m = exp_model(2.0);
        let q = m.place("q").unwrap();
        let r = replicate(&m, 4000, 42, |sim| {
            let out = sim.run_until(|mk| mk.get(q) > 0, SimTime::from_secs(1e3));
            Some(out.time.as_ms())
        });
        assert_eq!(r.stats.count(), 4000);
        assert!(
            (r.mean() - 2.0).abs() < 3.0 * r.ci90().max(0.05),
            "mean {}",
            r.mean()
        );
        assert!(r.ci90() > 0.0 && r.ci90() < 0.2);
        assert_eq!(r.discarded, 0);
    }

    #[test]
    fn replicate_is_reproducible_and_prefix_stable() {
        let m = exp_model(1.0);
        let q = m.place("q").unwrap();
        let run = |reps| {
            replicate(&m, reps, 7, |sim| {
                let out = sim.run_until(|mk| mk.get(q) > 0, SimTime::from_secs(1e3));
                Some(out.time.as_ms())
            })
        };
        let a = run(100);
        let b = run(100);
        assert_eq!(a.samples, b.samples, "same seed, same samples");
        let c = run(50);
        assert_eq!(&a.samples[..50], &c.samples[..], "substreams are per-index");
    }

    /// The threaded fan-out must be indistinguishable from a sequential
    /// loop: same substream per index, collected in index order.
    #[test]
    fn parallel_collection_is_bit_identical_to_sequential() {
        let m = exp_model(1.5);
        let q = m.place("q").unwrap();
        let reward = |sim: &mut Simulator<'_>| {
            let out = sim.run_until(|mk| mk.get(q) > 0, SimTime::from_secs(1e3));
            Some(out.time.as_ms())
        };
        // 500 reps exceeds the parallel threshold; reproduce the
        // sequential order by hand.
        let r = replicate(&m, 500, 1234, reward);
        let root = SimRng::new(1234);
        let seq: Vec<f64> = (0..500)
            .map(|i| {
                let mut sim = Simulator::new(&m, root.substream(i));
                reward(&mut sim).unwrap()
            })
            .collect();
        assert_eq!(r.samples, seq, "fan-out must preserve order and bits");
        let mut stats = OnlineStats::new();
        for &x in &seq {
            stats.push(x);
        }
        assert_eq!(r.stats.mean().to_bits(), stats.mean().to_bits());
        assert_eq!(r.stats.count(), 500);
    }

    /// A worker recycles one simulator, so whatever a replication does
    /// to it — a trace, a forced marking, a run — must be
    /// gone when the next one starts; and a sample must not depend on
    /// which worker ran it, at block boundaries in particular.
    #[test]
    fn reuse_leaks_nothing_and_worker_count_changes_no_bit() {
        let m = exp_model(1.5);
        let (p, q) = (m.place("p").unwrap(), m.place("q").unwrap());
        let horizon = SimTime::from_secs(1e3);
        // Even indices dirty the simulator: they start with two tokens
        // and stop at the second completion, tracing along the way.
        let reward = |i: usize, sim: &mut Simulator<'_>| {
            assert_eq!(sim.now(), SimTime::ZERO);
            assert_eq!(sim.marking(), &m.initial_marking());
            assert!(sim.firing_counts().iter().all(|&c| c == 0));
            assert!(sim.trace().is_empty());
            if i % 2 == 0 {
                sim.force_marking(p, 2);
                sim.record_trace(true);
                let out = sim.run_until(|mk| mk.get(q) > 1, horizon);
                assert_eq!(sim.trace().len(), 2);
                Some(out.time.as_ms())
            } else {
                let out = sim.run_until(|mk| mk.get(q) > 0, horizon);
                Some(out.time.as_ms())
            }
        };
        let root = SimRng::new(77);
        for reps in [63, 64, 65, 1000] {
            let fresh: Vec<f64> = (0..reps)
                .map(|i| reward(i, &mut Simulator::new(&m, root.substream(i as u64))).unwrap())
                .collect();
            for workers in [1, 2, 5] {
                let r = replicate_on(workers, &m, reps, 77, reward);
                assert_eq!(r.samples, fresh, "{reps} reps on {workers} workers");
            }
        }
    }

    #[test]
    fn discarded_replications_are_counted() {
        let m = exp_model(1.0);
        let q = m.place("q").unwrap();
        let r = replicate(&m, 100, 1, |sim| {
            // An absurdly short horizon discards slow runs.
            let out = sim.run_until(|mk| mk.get(q) > 0, SimTime::from_ms(0.5));
            (out.reason == crate::StopReason::Predicate).then(|| out.time.as_ms())
        });
        assert!(r.discarded > 0);
        assert_eq!(r.stats.count() + r.discarded, 100);
        // Every kept sample respects the horizon.
        assert!(r.samples.iter().all(|&x| x <= 0.5));
    }
}
