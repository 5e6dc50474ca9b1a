//! `testbed_n5_hb`: the measurement engine — `des` queue,
//! `netsim::cluster`, `neko::Runtime`, `core::consensus`,
//! `fd::heartbeat`/`qos`. Class 3 at T = 10 ms drives timers, wrong
//! suspicions and more than one round per execution, all of which
//! class 1 would bypass. Single-threaded.
//!
//! Op: `testbed::run_campaign(TestbedConfig::class3(5, 4000, 10.0, seed))`.
//!
//! Latencies, rounds and QoS are *simulated* time; `op_s` and
//! everything derived from it are *host* time.

use std::hint::black_box;

use ctsim_des::SimTime;
use ctsim_netsim::{ClusterNet, Delivery, HostId, HostParams, MsgClass, NetParams};
use ctsim_stoch::SimRng;
use ctsim_testbed::{run_campaign, CampaignResult, TestbedConfig};

use super::{des_probes, size, MeanReference};
use crate::harness::{check_eq, median_time, timed, Cfg, Layers, Rec, Workload, WorkloadResult};
use crate::trace;

const TIMEOUT_MS: f64 = 10.0;

/// Recorded mean latency (ms) of the full-size op, averaged over 52
/// seeds; any seed must land within 5·ci90 of it. Executions of one
/// campaign are correlated (the detectors persist), so the seed-to-seed
/// deviation of the mean (0.019 ms) is about twice what ci90 (0.014 ms)
/// implies: 5·ci90 is 3.8 real standard deviations, not 8.
const RECORDED_MEAN_MS: f64 = 1.5934;
/// The same at [`crate::DEFAULT_SEED`], which reproduces it exactly.
const RECORDED_DEFAULT_SEED: f64 = 1.5875492909998756;

/// Executions of the pilot campaign the set-up runs: an independent,
/// shorter measurement of the same latency.
const PILOT_EXECUTIONS: u32 = 200;

pub struct TestbedN5Hb {
    config: TestbedConfig,
    /// Mean and 90 % CI half-width (ms) of the set-up's pilot campaign.
    pilot: (f64, f64),
    mean: MeanReference,
    last: Option<CampaignResult>,
}

impl TestbedN5Hb {
    fn check(&mut self, r: &CampaignResult) -> Result<(), String> {
        check_eq("undecided", r.undecided, 0)?;
        let (pilot, ci90) = self.pilot;
        if (r.mean() - pilot).abs() > 5.0 * (ci90 + r.ci90()) {
            return Err(format!(
                "mean_ms {} ± {} disagrees with the pilot campaign's {pilot} ± {ci90}",
                r.mean(),
                r.ci90()
            ));
        }
        self.mean.check(r.mean(), r.ci90(), &r.latencies_ms)
    }
}

impl Workload for TestbedN5Hb {
    const NAME: &'static str = "testbed_n5_hb";

    fn setup(cfg: &Cfg) -> Result<Self, String> {
        let executions = if cfg.smoke { 40 } else { 4000 };
        let n = size(cfg, 5);
        // The pilot gets a seed of its own: same seed, same first events.
        let pilot_seed = SimRng::new(cfg.seed)
            .substream_named("ctbench.pilot")
            .seed();
        let pilot = run_campaign(&TestbedConfig::class3(
            n,
            PILOT_EXECUTIONS.min(executions),
            TIMEOUT_MS,
            pilot_seed,
        ));
        check_eq("pilot undecided", pilot.undecided, 0)?;
        Ok(Self {
            config: TestbedConfig::class3(n, executions, TIMEOUT_MS, cfg.seed),
            pilot: (pilot.mean(), pilot.ci90()),
            mean: MeanReference::new(cfg, RECORDED_MEAN_MS, RECORDED_DEFAULT_SEED),
            last: None,
        })
    }

    fn op(&mut self, rec: &mut Rec) -> Result<(), String> {
        let r = run_campaign(&self.config);
        self.check(&r)?;
        rec.count("executions", r.per_exec.len() as u64);
        self.last = Some(r);
        Ok(())
    }

    fn traced(
        &mut self,
        cfg: &Cfg,
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String> {
        // One public call and no span inside it: the traced op is that
        // call. Splitting it by layer needs spans in the program.
        let (r, t) = trace::record(|| {
            let _s = trace::layer("testbed.run_campaign");
            Ok(run_campaign(&self.config))
        })?;
        self.check(&r)?;
        t.report(cfg, Self::NAME, &[], untraced, out)?;

        let op_s = untraced.median("op_s");
        let r = self.last.as_ref().ok_or("no untraced op succeeded")?;
        out.set("testbed.execs_per_s", r.per_exec.len() as f64 / op_s);
        // Simulated milliseconds per host second.
        out.set("testbed.sim_ms_per_host_s", r.duration_ms / op_s);
        out.set("core.rounds_per_exec", r.mean_rounds);
        out.set(
            "testbed.undecided_ratio",
            r.undecided as f64 / r.per_exec.len() as f64,
        );
        // `t_mr` is infinite when no pair ever made a mistake.
        if let Some(q) = r.qos.as_ref().filter(|q| q.t_mr.is_finite()) {
            out.set("fd.t_mr_ms", q.t_mr);
            out.set("fd.t_m_ms", q.t_m);
        }

        // Host count sweep, class 1, 10 ms isolation gap (the
        // `HOST_COUNT TASK_COUNT` shape of a master-workers harness).
        // A few executions in a thousand lose their slot to an emulated
        // GC pause and never decide; at n = 33 executions outlast the
        // gap and a third of them are lost, so the curve stops at 17.
        let executions = if cfg.smoke { 40 } else { 500 };
        for (hosts, name) in [
            (3, "testbed.execs_per_s_n3"),
            (5, "testbed.execs_per_s_n5"),
            (9, "testbed.execs_per_s_n9"),
            (17, "testbed.execs_per_s_n17"),
        ] {
            let c = TestbedConfig::class1(size(cfg, hosts), executions, self.config.seed);
            let (r, s) = timed(|| run_campaign(&c));
            if r.undecided * 20 > r.per_exec.len() {
                return Err(format!("{name}: {} executions undecided", r.undecided));
            }
            out.set(name, executions as f64 / s);
        }

        // netsim: a ping loop on the bare cluster network, one message
        // in flight.
        let pings = 20_000;
        out.set(
            "netsim.ns_per_delivery",
            median_time(5, || {
                let mut net: ClusterNet<u32> = ClusterNet::new(
                    2,
                    NetParams::default(),
                    HostParams::default(),
                    SimRng::new(self.config.seed),
                );
                let horizon = SimTime::from_secs(1e6);
                let mut delivered = 0u32;
                net.send(HostId(0), HostId(1), MsgClass::App, 100, 0);
                while delivered < pings {
                    match net.advance(horizon) {
                        Some(Delivery::Message { from, to, .. }) => {
                            delivered += 1;
                            net.send(to, from, MsgClass::App, 100, delivered);
                        }
                        Some(Delivery::Timer { .. }) => {}
                        None => break,
                    }
                }
                assert_eq!(black_box(delivered), pings, "the ping loop ran dry");
            }) * 1e9
                / pings as f64,
        );
        des_probes(out);
        Ok(())
    }
}
