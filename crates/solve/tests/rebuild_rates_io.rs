//! The rate-only rebuild rewrites the term table and nothing else:
//! under a zero spill budget, which pages the transition arena out, it
//! pages no segment in or out — its cost is O(terms),
//! not O(transitions).
//!
//! The telemetry registry is process-global, so this lives in its own
//! integration binary with a single test.

use ctsim_models::{build_model, decided_place_ids, SanParams};
use ctsim_san::SanModel;
use ctsim_solve::{ReachOptions, SpillOptions, StateSpace};

/// The paper's model at n = 2 with every CPU stage `scale` times as
/// long.
fn paper_n2(scale: f64) -> SanModel {
    let mut p = SanParams::paper_baseline(2);
    p.t_send *= scale;
    p.t_receive *= scale;
    p.t_work *= scale;
    build_model(&p)
}

/// The value of counter `name` in a metrics document (0 when absent).
fn counter(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    metrics.find(&key).map_or(0, |at| {
        let rest = &metrics[at + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().expect("counter value")
    })
}

const PAGER: [&str; 3] = [
    "spill.pager_hits",
    "spill.pager_misses",
    "spill.paged_out_bytes",
];

#[test]
fn rebuild_rates_pages_no_arena_segment() {
    let base = paper_n2(1.0);
    let decided = decided_place_ids(&base, 2);
    let opts = ReachOptions {
        ph_order: 2,
        spill: Some(SpillOptions::with_budget(0)),
        ..ReachOptions::default()
    };

    ctsim_obs::enable();
    let ss =
        StateSpace::explore_absorbing(&base, &opts, move |m| decided.iter().any(|&d| m.get(d) > 0))
            .unwrap();
    let slow = paper_n2(1.2);
    let mut ss = StateSpace::from_parts(&slow, ss.into_parts()).unwrap();
    let before = ctsim_obs::metrics_json();
    assert!(counter(&before, "spill.paged_out_bytes") > 0, "{before}");
    ss.rebuild_rates().unwrap();
    let after = ctsim_obs::metrics_json();
    for name in PAGER {
        assert_eq!(counter(&before, name), counter(&after, name), "{name}");
    }
    // The counters are live: reading the rows back pages the arena in.
    for i in 0..ss.len() {
        ss.outgoing(i);
    }
    let read = ctsim_obs::metrics_json();
    ctsim_obs::disable();
    assert!(
        counter(&read, "spill.pager_misses") > counter(&after, "spill.pager_misses"),
        "{read}"
    );
}
