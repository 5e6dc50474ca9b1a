//! What a resident exploration reports about itself: the intern
//! table's probe histogram (counted per worker, folded in when a level
//! closes), its growth counters, and where the sweep's wall-clock went.
//!
//! The telemetry registry is process-global, so this lives in its own
//! integration binary with a single test.

use ctsim_san::{Activity, Case, SanBuilder};
use ctsim_solve::{ReachOptions, StateSpace};
use ctsim_stoch::Dist;

#[test]
fn resident_run_reports_probes_growth_and_the_serial_fraction() {
    // Two independent 40-place rings: 1 600 states, 3 200 transitions,
    // levels wide enough for both workers.
    let mut b = SanBuilder::new("rings");
    for ring in 0..2 {
        let places: Vec<_> = (0..40)
            .map(|i| b.place(format!("r{ring}p{i}"), u32::from(i == 0)))
            .collect();
        for i in 0..40 {
            b.add_activity(
                Activity::timed(format!("r{ring}t{i}"), Dist::Exp { mean: 1.0 })
                    .input(places[i], 1)
                    .case(Case::with_prob(1.0).output(places[(i + 1) % 40], 1)),
            );
        }
    }
    let model = b.build().unwrap();
    let opts = ReachOptions {
        threads: 2,
        ..ReachOptions::default()
    };

    ctsim_obs::enable();
    let ss = StateSpace::explore(&model, &opts).unwrap();
    ctsim_obs::disable();
    assert_eq!((ss.len(), ss.num_transitions()), (1600, 3200));

    let metrics = ctsim_obs::metrics_json();
    // One probe sequence per generated transition (level-0 seeding is
    // not counted, as for `explore.transitions`).
    assert!(
        metrics.contains("\"intern.probe_len\": {") && metrics.contains("\"total\": 3200,"),
        "{metrics}"
    );
    // 1 600 states never outgrow the initial table.
    for counter in ["intern.midlevel_grows", "intern.rehashed_entries"] {
        assert!(metrics.contains(&format!("\"{counter}\": 0")), "{metrics}");
    }
    for counter in [
        "explore.worker_busy_us",
        "explore.worker_slots_us",
        "explore.expand_wall_us",
        "explore.close_us",
        "explore.emit_us",
    ] {
        assert!(metrics.contains(&format!("\"{counter}\"")), "{metrics}");
    }
    // The counters are the space's own profile.
    let p = ss.sweep_profile();
    assert!(metrics.contains(&format!("\"explore.worker_busy_us\": {}", p.worker_busy_us)));
    assert!(p.worker_busy_us <= p.worker_slots_us && p.worker_slots_us >= p.expand_wall_us);
    assert!(p.busy_ratio() > 0.0 && p.busy_ratio() <= 1.0);
    assert!(ctsim_obs::summary().contains("gauge   explore.worker_busy_ratio = "));
}
