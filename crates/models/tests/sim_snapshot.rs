//! The simulator starts every replication from its model's time-zero
//! snapshot, taken once when the model is built. Debug builds compare
//! the whole snapshot with a fresh enabling scan in a run's first
//! settle and panic on a stale verdict, so one replication of each of
//! the paper's model variants checks every activity of each model.

use ctsim_models::{latency_replications, SanParams, SojournDist};

#[test]
fn every_paper_model_starts_from_a_consistent_snapshot() {
    for n in 2..=7 {
        let base = SanParams::paper_baseline(n);
        let mut variants = vec![
            ("class 1", base.clone()),
            (
                "two-state FD",
                base.clone()
                    .with_two_state_fd(16.0, 4.8, SojournDist::Exponential),
            ),
        ];
        // A crash needs a correct majority, which n = 2 does not keep.
        if n >= 3 {
            variants.push(("coordinator crash", base.clone().with_crash(0)));
            variants.push(("participant crash", base.clone().with_crash(n - 1)));
        }
        for (name, p) in variants {
            let r = latency_replications(&p, 1, 7, 1e4);
            assert_eq!(r.discarded, 0, "n = {n}, {name}: no decision");
        }
    }
}
