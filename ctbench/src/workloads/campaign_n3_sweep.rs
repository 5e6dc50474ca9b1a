//! `campaign_n3_sweep`: the scenario-campaign engine on a rate-only
//! grid — graph cache, `StateSpace::rebuild_rates`,
//! `Ctmc::rebuild_values` and warm-started Krylov carry the op;
//! exploration is paid once, by the first point.
//!
//! Op: `campaign::run_with` on the exponential n = 3 family, Krylov,
//! 24 service scales 0.70…1.275 in steps of 0.025: 1 cold point and 23
//! cached ones.

use std::hint::black_box;

use ctsim_experiments::campaign::{run_with, Campaign, CampaignOptions, PointSpec};
use ctsim_models::build_model;
use ctsim_solve::{AnalyticRun, IterOptions, SolverBackend, StateSpace};
use ctsim_stoch::SimRng;

use super::{goal, reach_options, reference, size};
use crate::harness::{
    check_eq, check_rel, summarize, timed, Cfg, Layers, Rec, Workload, WorkloadResult, THREADS,
};
use crate::trace;

const POINTS: usize = 24;
const SPOT_CHECKS: usize = 3;

/// The program's own spans that mark a point's stages. `run_with` is
/// one public call, so the traced op reads these instead of wrapping
/// stages itself.
const STAGE_SPANS: [(&str, &str); 4] = [
    ("campaign", "point"),
    ("campaign", "explore"),
    ("campaign", "rebuild_rates"),
    ("solver", "mean_time_to_absorption"),
];

pub struct CampaignN3Sweep {
    seed: u64,
    opts: CampaignOptions,
    /// `(row index, mean of a cold solve done in set-up)`; which rows
    /// are checked is drawn from the seed.
    spot: Vec<(usize, f64)>,
    last: Option<Campaign>,
}

fn cold_mean(spec: &PointSpec) -> Result<f64, String> {
    let params = spec.params();
    let model = build_model(&params);
    let run = AnalyticRun::first_passage(
        &model,
        &reach_options(&params, spec.ph_order, THREADS),
        goal(&model, params.n),
    )
    .map_err(|e| e.to_string())?;
    run.mean(&IterOptions::with_backend(spec.backend, THREADS))
        .map(|o| o.mean_ms)
        .map_err(|e| e.to_string())
}

impl CampaignN3Sweep {
    fn spec(&self, row: usize) -> PointSpec {
        PointSpec {
            n: self.opts.ns[0],
            ph_order: 0,
            backend: SolverBackend::Krylov,
            service_scale: self.opts.service_scales[row],
            net_scale: 1.0,
        }
    }

    fn check(&self, c: &Campaign) -> Result<(), String> {
        check_eq("rows", c.rows.len(), POINTS)?;
        check_eq("cache_hits", c.cache_hits, POINTS as u64 - 1)?;
        for &(row, want) in &self.spot {
            let got = &c.rows[row];
            check_eq(
                "row order",
                got.spec.service_scale,
                self.spec(row).service_scale,
            )?;
            check_rel(&format!("row {row} mean_ms"), got.mean_ms, want, 1e-6)?;
        }
        Ok(())
    }
}

impl Workload for CampaignN3Sweep {
    const NAME: &'static str = "campaign_n3_sweep";

    fn setup(cfg: &Cfg) -> Result<Self, String> {
        let mut w = Self {
            seed: cfg.seed,
            opts: CampaignOptions {
                ns: vec![size(cfg, 3)],
                ph_orders: vec![0],
                service_scales: (0..POINTS).map(|i| 0.70 + 0.025 * i as f64).collect(),
                net_scales: vec![1.0],
                backends: vec![SolverBackend::Krylov],
                threads: THREADS,
                ..CampaignOptions::default()
            },
            spot: Vec::new(),
            last: None,
        };
        let mut rng = SimRng::new(cfg.seed).substream_named("ctbench.campaign.spot");
        while w.spot.len() < SPOT_CHECKS {
            let row = rng.index(POINTS);
            if w.spot.iter().all(|&(r, _)| r != row) {
                w.spot.push((row, reference(cfg, cold_mean(&w.spec(row))?)));
            }
        }
        Ok(w)
    }

    fn op(&mut self, rec: &mut Rec) -> Result<(), String> {
        let c = run_with(self.seed, &self.opts).map_err(|e| e.to_string())?;
        self.check(&c)?;
        rec.count("cache_hits", c.cache_hits);
        rec.count("states", c.rows[0].states as u64);
        rec.count(
            "krylov_iters_total",
            c.rows.iter().map(|r| r.iterations as u64).sum(),
        );
        self.last = Some(c);
        Ok(())
    }

    fn traced(
        &mut self,
        cfg: &Cfg,
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String> {
        // No harness layer span: the op span is the call, and the
        // stage spans run on the campaign's worker thread.
        let (c, t) = trace::record(|| run_with(self.seed, &self.opts).map_err(|e| e.to_string()))?;
        self.check(&c)?;
        t.report(cfg, Self::NAME, &STAGE_SPANS, untraced, out)?;

        // The per-point columns of the last untraced op.
        let c = self.last.as_ref().ok_or("no untraced op succeeded")?;
        let (cold, warm): (Vec<_>, Vec<_>) = c.rows.iter().partition(|r| !r.cache_hit);
        let median = |f: &dyn Fn(&&ctsim_experiments::campaign::PointRow) -> f64| {
            summarize(&warm.iter().map(f).collect::<Vec<_>>()).median
        };
        out.set("campaign.cold_point_ms", cold[0].total_ms());
        out.set("campaign.cold_iters", cold[0].iterations as f64);
        out.set("campaign.warm_build_ms", median(&|r| r.build_ms));
        out.set("campaign.warm_solve_ms", median(&|r| r.solve_ms));
        out.set("campaign.warm_iters", median(&|r| r.iterations as f64));
        out.set(
            "campaign.cache_hit_ratio",
            c.cache_hits as f64 / c.rows.len() as f64,
        );

        // The two rebuild calls a cached point makes, called directly:
        // re-attach the graph to a re-parameterised model, rewrite the
        // rates, rewrite the CSR values.
        let models = [
            build_model(&self.spec(0).params()),
            build_model(&self.spec(POINTS - 1).params()),
        ];
        let n = self.opts.ns[0];
        let (space, mut ctmc) = StateSpace::explore_absorbing_ctmc(
            &models[0],
            &reach_options(&self.spec(0).params(), 0, THREADS),
            goal(&models[0], n),
        )
        .map_err(|e| e.to_string())?;
        let mut parts = space.into_parts();
        let (mut rates_s, mut values_s) = (Vec::new(), Vec::new());
        for i in 1..=6 {
            let mut space =
                StateSpace::from_parts(&models[i % 2], parts).map_err(|e| e.to_string())?;
            let (r, s) = timed(|| space.rebuild_rates());
            r.map_err(|e| e.to_string())?;
            rates_s.push(s);
            let (r, s) = timed(|| ctmc.rebuild_values(&space));
            r.map_err(|e| e.to_string())?;
            values_s.push(s);
            parts = space.into_parts();
        }
        black_box(&ctmc);
        out.set("cache.rebuild_rates_s", summarize(&rates_s).median);
        out.set("generator.rebuild_values_s", summarize(&values_s).median);
        Ok(())
    }
}
