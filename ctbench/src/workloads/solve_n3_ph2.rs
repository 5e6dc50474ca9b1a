//! `solve_n3_ph2`: the linear-algebra layers alone. The chain of
//! `analytic_n3_ph2` is explored once in set-up; the op solves on it.
//!
//! Op: one first-passage mean with each of Gauss–Seidel, Jacobi and
//! Krylov, then one `cdf(0.25·mean)`. Absorption solves and
//! uniformization use the same `LinOp` differently (triangular sweeps
//! vs thousands of forward products), so both are timed side by side.

use std::hint::black_box;

use ctsim_models::SanParams;
use ctsim_solve::{transient, AnalyticRun, IterOptions, LinOp, SolverBackend, TransientOptions};

use super::analytic_n3_ph2::{sequential_reference, PH_ORDER, RECORDED};
use super::{goal, leak_model, reference, size, solve_options};
use crate::harness::{
    check_eq, check_rel, median_time, timed, Cfg, Layers, Rec, Workload, WorkloadResult, THREADS,
};
use crate::trace;

/// Backends in op order, with the names of each one's sub-timing and
/// of its span in the traced op.
const BACKENDS: [(SolverBackend, &str, &str); 3] = [
    (
        SolverBackend::GaussSeidel,
        "gs_solve_s",
        "solve.steady.gauss_seidel",
    ),
    (
        SolverBackend::Jacobi,
        "jacobi_solve_s",
        "solve.steady.jacobi",
    ),
    (SolverBackend::Krylov, "krylov_solve_s", "solve.krylov"),
];

pub struct SolveN3Ph2 {
    run: AnalyticRun<'static>,
    want_mean: f64,
    /// `cdf(t)` from the sequential uniformization done in set-up.
    t_ms: f64,
    want_cdf: f64,
    /// Iterations per backend in the last op, in `BACKENDS` order.
    iters: [usize; 3],
}

fn transient_options(threads: usize) -> TransientOptions {
    TransientOptions {
        threads,
        ..TransientOptions::default()
    }
}

impl Workload for SolveN3Ph2 {
    const NAME: &'static str = "solve_n3_ph2";

    fn setup(cfg: &Cfg) -> Result<Self, String> {
        let params = SanParams::paper_baseline(size(cfg, 3));
        let model = leak_model(&params);
        let mean = if cfg.smoke {
            sequential_reference(model, &params)?.0
        } else {
            RECORDED.0
        };
        let opts = solve_options(&params, PH_ORDER, SolverBackend::Krylov);
        let run = AnalyticRun::first_passage_with(model, &opts, goal(model, params.n))
            .map_err(|e| e.to_string())?;
        let t_ms = 0.25 * mean;
        let cdf = run
            .cdf(t_ms, &transient_options(1))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            run,
            want_mean: reference(cfg, mean),
            t_ms,
            want_cdf: reference(cfg, cdf),
            iters: [0; 3],
        })
    }

    fn op(&mut self, rec: &mut Rec) -> Result<(), String> {
        let mut means = [0.0; 3];
        for (i, (backend, name, _)) in BACKENDS.into_iter().enumerate() {
            let (out, s) = timed(|| self.run.mean(&IterOptions::with_backend(backend, THREADS)));
            let out = out.map_err(|e| format!("{backend}: {e}"))?;
            check_eq("solved_by", out.solved_by, backend)?;
            check_rel(name, out.mean_ms, self.want_mean, 1e-6)?;
            rec.sample(name, s);
            means[i] = out.mean_ms;
            self.iters[i] = out.iterations;
        }
        check_rel("jacobi vs gauss-seidel", means[1], means[0], 1e-6)?;
        check_rel("krylov vs gauss-seidel", means[2], means[0], 1e-6)?;
        rec.count("gs_iters", self.iters[0] as u64);
        rec.count("jacobi_iters", self.iters[1] as u64);
        rec.count("krylov_iters", self.iters[2] as u64);

        let (cdf, s) = timed(|| self.run.cdf(self.t_ms, &transient_options(THREADS)));
        let cdf = cdf.map_err(|e| e.to_string())?;
        if !(0.0..=1.0).contains(&cdf) {
            return Err(format!("cdf({}) = {cdf} is not a probability", self.t_ms));
        }
        if (cdf - self.want_cdf).abs() > 1e-9 {
            return Err(format!(
                "cdf({}): got {cdf:?}, set-up value {:?} (tolerance 1e-9)",
                self.t_ms, self.want_cdf
            ));
        }
        rec.sample("cdf_point_s", s);
        Ok(())
    }

    fn traced(
        &mut self,
        cfg: &Cfg,
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String> {
        let gen = self.run.generator();
        let ((krylov_mean, terms), t) = trace::record(|| -> Result<(f64, usize), String> {
            let mut krylov = 0.0;
            for (backend, _, span) in BACKENDS {
                let _s = trace::layer(span);
                krylov = self
                    .run
                    .mean(&IterOptions::with_backend(backend, THREADS))
                    .map_err(|e| e.to_string())?
                    .mean_ms;
            }
            // `AnalyticRun::cdf` keeps the truncation length to itself;
            // the layer's own entry point returns it.
            let _s = trace::layer("solve.transient");
            let sol = transient(gen, self.t_ms, &transient_options(THREADS))
                .map_err(|e| e.to_string())?;
            Ok((krylov, sol.terms))
        })?;
        check_rel("traced krylov mean_ms", krylov_mean, self.want_mean, 1e-6)?;
        t.report(cfg, Self::NAME, &[], untraced, out)?;

        // Matrix–vector products of one Krylov solve, from the
        // program's own `spmv.products` counter.
        let (_, tk) = trace::record(|| {
            self.run
                .mean(&IterOptions::with_backend(SolverBackend::Krylov, THREADS))
                .map_err(|e| e.to_string())
        })?;
        out.set("krylov.matvecs", tk.counter("spmv.products") as f64);

        let states = LinOp::dim(gen) as f64;
        let rates = self.run.ctmc().num_rates() as f64;
        for (_, name, _) in BACKENDS {
            out.set(name, untraced.median(name));
        }
        let cdf_point_s = untraced.median("cdf_point_s");
        out.set("cdf_point_s", cdf_point_s);
        out.set("steady.gs_iters", self.iters[0] as f64);
        out.set("steady.jacobi_iters", self.iters[1] as f64);
        out.set("krylov.iters", self.iters[2] as f64);
        out.set(
            "steady.ns_per_rate_iter",
            untraced.median("gs_solve_s") * 1e9 / (self.iters[0] as f64 * rates),
        );
        out.set("transient.terms", terms as f64);
        out.set(
            "transient.ns_per_rate_term",
            cdf_point_s * 1e9 / (terms as f64 * rates),
        );

        // SpMV probes on the same generator, telemetry off.
        let dim = LinOp::dim(gen);
        let v: Vec<f64> = (0..dim).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let mut y = vec![0.0; dim];
        let mut apply = |threads: usize| {
            median_time(20, || {
                gen.apply(&v, &mut y, threads);
                black_box(&y[0]);
            })
        };
        let (t1, t2) = (apply(1), apply(THREADS));
        out.set("spmv.ns_per_nnz_t1", t1 * 1e9 / rates);
        out.set("spmv.ns_per_nnz_t2", t2 * 1e9 / rates);
        // Computed, not measured, traffic: 12 B per rate (column index
        // and value) and 16 B per state (one read, one write).
        out.set(
            "spmv.gbps_computed",
            (12.0 * rates + 16.0 * states) / t2 * 1e-9,
        );
        let transposed = median_time(20, || {
            gen.apply_transposed(&v, &mut y, 1);
            black_box(&y[0]);
        });
        out.set("spmv.t_ns_per_nnz", transposed * 1e9 / rates);
        let mut z = v.clone();
        out.set(
            "krylov.precond_s",
            median_time(5, || {
                z.copy_from_slice(&v);
                gen.upper_solve(&mut z);
                black_box(&z[0]);
            }),
        );
        Ok(())
    }
}
