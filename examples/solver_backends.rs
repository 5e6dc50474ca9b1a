//! Times every linear-algebra backend on one consensus first-passage
//! CTMC — the data source for the README/crate-docs backend-selection
//! table.
//!
//! ```sh
//! cargo run --release --example solver_backends -- <n> <ph_order> [threads] [repeats]
//! ```
//!
//! Explores once, then solves `Q_TT τ = -1` with each backend,
//! printing the mean, iteration count, and best-of-N wall-clock. The
//! means must agree to well below 1e-6 relative — the same invariant
//! the `backends_agree_on_the_overlay_means` overlay test gates.

use std::time::Instant;

use ct_consensus_repro::models::{build_model, decided_place_ids, SanParams};
use ct_consensus_repro::solve::{AnalyticRun, IterOptions, ReachOptions, SolverBackend};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(3, |a| a.parse().expect("n"));
    let ph_order: u32 = args.next().map_or(0, |a| a.parse().expect("ph_order"));
    let threads: usize = args.next().map_or(1, |a| a.parse().expect("threads"));
    let repeats: u32 = args.next().map_or(3, |a| a.parse().expect("repeats"));

    let params = if ph_order == 0 {
        match n {
            3 => SanParams::exponential_n3(),
            _ => SanParams::exponential_baseline(n),
        }
    } else {
        match n {
            3 => SanParams::paper_n3(),
            _ => SanParams::paper_baseline(n),
        }
    };
    let model = build_model(&params);
    let decided = decided_place_ids(&model, params.n);
    let opts = ReachOptions {
        ph_order,
        threads,
        max_states: 8 << 20,
        ..ReachOptions::default()
    };
    let start = Instant::now();
    let run = AnalyticRun::first_passage(&model, &opts, |m| decided.iter().any(|&d| m.get(d) > 0))
        .expect("explore");
    println!(
        "n={n} ph_order={ph_order}: {} states, {} rates, explored in {:.2?}",
        run.space().len(),
        run.ctmc().num_rates(),
        start.elapsed()
    );

    let mut reference = f64::NAN;
    for backend in SolverBackend::ALL {
        let iter = IterOptions::with_backend(backend, threads);
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..repeats {
            let start = Instant::now();
            out = Some(run.mean(&iter).expect("solve"));
            best = best.min(start.elapsed().as_secs_f64());
        }
        let out = out.expect("repeats >= 1");
        if reference.is_nan() {
            reference = out.mean_ms;
        }
        let rel = ((out.mean_ms - reference) / reference).abs();
        println!(
            "  {:<13} mean {:.9} ms  ({} iterations, best of {repeats}: {:.1} ms, rel dev {rel:.2e})",
            backend.name(),
            out.mean_ms,
            out.iterations,
            best * 1e3,
        );
        assert!(rel < 1e-6, "backends disagree");
    }
}
