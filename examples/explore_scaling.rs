//! Measures state-space exploration wall-clock and peak RSS for the
//! consensus model — the data source for the README state-growth table
//! and for eyeballing the concurrent-intern speedup.
//!
//! ```sh
//! cargo run --release --example explore_scaling -- \
//!     <n> <ph_order> <threads> [fp|solve] [repeats] [spill-budget]
//! ```
//!
//! `spill-budget` (e.g. `512M`) pages cold transition/state segments to
//! a temp file once the exploration's bulk arrays exceed the budget —
//! the mode that lets state spaces larger than RAM explore.

use std::time::Instant;

use ct_consensus_repro::models::{build_model, decided_place_ids, SanParams};
use ct_consensus_repro::solve::{AnalyticRun, IterOptions, ReachOptions, SpillOptions, StateSpace};
use ctsim_bench::alloc_counter::{self, CountingAlloc};
use ctsim_experiments::{parse_size, peak_rss_mb};

/// Exact live-heap accounting next to the RSS sample: RSS includes
/// allocator slack and freed-but-retained pages, the counter is the
/// true peak of live bytes.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Decimal megabytes, as `ctbench` and the ledgers count them.
fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().map_or(3, |s| s.parse().unwrap());
    let ph_order: u32 = args.get(1).map_or(0, |s| s.parse().unwrap());
    let threads: usize = args.get(2).map_or(1, |s| s.parse().unwrap());
    let first_passage = args.get(3).is_some_and(|s| s == "fp" || s == "solve");
    let solve = args.get(3).is_some_and(|s| s == "solve");
    let spill = args
        .get(5)
        .map(|s| SpillOptions::with_budget(parse_size(s).expect("spill budget")));

    let params = if ph_order == 0 {
        SanParams::exponential_baseline(n)
    } else {
        SanParams::paper_baseline(n)
    };
    let model = build_model(&params);
    let opts = ReachOptions {
        ph_order,
        threads,
        max_states: params.recommended_max_states(ph_order),
        spill,
        ..ReachOptions::default()
    };
    let start = Instant::now();
    let decided = decided_place_ids(&model, n);
    if solve {
        let goal =
            move |m: &ct_consensus_repro::san::Marking| decided.iter().any(|&d| m.get(d) > 0);
        let run = AnalyticRun::first_passage(&model, &opts, goal).unwrap();
        let explored = start.elapsed();
        let out = run.mean(&IterOptions::default()).unwrap();
        println!(
            "n={n} ph_order={ph_order} threads={threads}: {} states, mean {:.6} ms, \
             explore {:.3}s, total {:.3}s, peak RSS {:.1} MB",
            out.states,
            out.mean_ms,
            explored.as_secs_f64(),
            start.elapsed().as_secs_f64(),
            peak_rss_mb()
        );
        println!("peak live heap {:.1} MB", mb(alloc_counter::peak_bytes()));
        return;
    }
    let repeats: usize = args.get(4).map_or(1, |s| s.parse().unwrap());
    let explore_once = || {
        if first_passage {
            StateSpace::explore_absorbing(&model, &opts, |m| decided.iter().any(|&d| m.get(d) > 0))
                .unwrap()
        } else {
            StateSpace::explore(&model, &opts).unwrap()
        }
    };
    let mut best = f64::INFINITY;
    let mut ss = explore_once();
    best = best.min(start.elapsed().as_secs_f64());
    for _ in 1..repeats {
        let t = Instant::now();
        ss = explore_once();
        best = best.min(t.elapsed().as_secs_f64());
    }
    let dt = std::time::Duration::from_secs_f64(best);
    println!(
        "n={n} ph_order={ph_order} threads={threads} fp={first_passage}: \
         {} states, {} transitions, {} terms, {:.6}s, peak RSS {:.1} MB",
        ss.len(),
        ss.num_transitions(),
        ss.terms().len(),
        dt.as_secs_f64(),
        peak_rss_mb()
    );
    let profile = ss.sweep_profile();
    println!(
        "workers busy {:.3} of threads × expand wall ({:.3}s of {:.3}s); close {:.3}s, emit {:.3}s",
        profile.busy_ratio(),
        profile.worker_busy_us as f64 / 1e6,
        profile.worker_slots_us as f64 / 1e6,
        profile.close_us as f64 / 1e6,
        profile.emit_us as f64 / 1e6,
    );
    println!(
        "peak live heap {:.1} MB, live after explore {:.1} MB, {} words/state, {} layout restarts",
        mb(alloc_counter::peak_bytes()),
        mb(alloc_counter::live_bytes()),
        ss.words_per_state(),
        profile.layout_restarts
    );
}
