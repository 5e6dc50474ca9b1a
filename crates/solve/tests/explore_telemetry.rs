//! Telemetry parity of the one exploration driver: an external-dedup
//! run reports the same `explore.*` counters a resident run does —
//! the driver's and the per-worker successor-generation ones — plus
//! its strategy's own `ddd.*` ones.
//!
//! The telemetry registry is process-global, so this lives in its own
//! integration binary with a single test — no concurrent resident
//! exploration can put the counter there instead.

use ctsim_san::{Activity, Case, SanBuilder};
use ctsim_solve::{DedupMode, ReachOptions, SpillOptions, StateSpace};
use ctsim_stoch::Dist;

#[test]
fn external_dedup_run_reports_the_drivers_counters() {
    // A token ring: every state past the first lap is a dedup hit.
    let mut b = SanBuilder::new("ring");
    let places: Vec<_> = (0..4)
        .map(|i| b.place(format!("p{i}"), u32::from(i == 0)))
        .collect();
    for i in 0..4 {
        b.add_activity(
            Activity::timed(format!("t{i}"), Dist::Exp { mean: 1.0 })
                .input(places[i], 1)
                .case(Case::with_prob(1.0).output(places[(i + 1) % 4], 1)),
        );
    }
    let model = b.build().unwrap();
    let opts = ReachOptions {
        spill: Some(SpillOptions::with_budget(1 << 20).dedup(DedupMode::External)),
        ..ReachOptions::default()
    };

    ctsim_obs::enable();
    let ss = StateSpace::explore(&model, &opts).unwrap();
    ctsim_obs::disable();
    assert_eq!(ss.len(), 4);

    let metrics = ctsim_obs::metrics_json();
    for counter in [
        "explore.levels",
        "explore.transitions",
        "explore.dedup_hits",
        "explore.enabling_evals",
        "explore.vanishing_markings",
        "explore.key_patches",
        "spill.pager_hits",
        "ddd.sorted_runs",
    ] {
        assert!(
            metrics.contains(&format!("\"{counter}\"")),
            "{counter} missing from {metrics}"
        );
    }
    // Four states, each asking its four unexpanded timed activities and
    // firing the one enabled: 16 evaluations, 4 transitions of which
    // the one closing the ring is a dedup hit, two place fields patched
    // per successor key, and nothing instantaneous to resolve.
    for (counter, value) in [
        ("explore.transitions", 4),
        ("explore.dedup_hits", 1),
        ("explore.enabling_evals", 16),
        ("explore.vanishing_markings", 0),
        ("explore.key_patches", 8),
    ] {
        assert!(
            metrics.contains(&format!("\"{counter}\": {value}")),
            "{counter} is not {value} in {metrics}"
        );
    }
}
