//! The Jacobi absorption backend sweeps only the rows that can still
//! change. The full sweep it replaced lives here as the reference: on
//! random absorbing chains with and without back edges, and on one
//! chain built so that only the `reach` bound sees the row that must
//! move, over the resident and the disk-paged CSR generator, at 1, 2
//! and 8 SpMV threads, the backend's `per_state`, `iterations`
//! and `residual` must equal the full sweep's in every bit.

use ctsim_san::{Activity, Case, PlaceId, SanBuilder, SanModel};
use ctsim_solve::{
    mean_time_to_absorption, Ctmc, IterOptions, ReachOptions, SolverBackend, SpillOptions,
    StateSpace,
};
use ctsim_stoch::Dist;
use proptest::prelude::*;

/// Jacobi on `Q_TT τ = -1` with every row updated in every step:
/// `τ_j ← (1 + Σ_k q_jk τ_k) / |q_jj|` from one full-length product, the
/// residual the largest defect `|q_jj τ_j + Σ_k q_jk τ_k + 1|` over all
/// transient rows, stopped where the solvers' iteration loop stops.
/// Returns `(τ, iterations, residual)`, or `None` where the backend
/// reports `NotConverged`.
fn full_sweep(op: &Ctmc, opts: &IterOptions) -> Option<(Vec<f64>, usize, f64)> {
    let n = op.num_states();
    let (mut tau, mut flow) = (vec![0.0; n], vec![0.0; n]);
    for iter in 1..=opts.max_iterations {
        op.apply(&tau, &mut flow, 1);
        let mut residual = 0.0f64;
        for j in 0..n {
            if op.is_absorbing(j) {
                flow[j] = 0.0;
                continue;
            }
            residual = residual.max((op.diag(j) * tau[j] + flow[j] + 1.0).abs());
            flow[j] = (1.0 + flow[j]) / -op.diag(j);
        }
        std::mem::swap(&mut tau, &mut flow);
        if residual <= opts.tolerance {
            return Some((tau, iter, residual));
        }
        if !residual.is_finite() {
            return None;
        }
    }
    None
}

/// A first-passage net. `tokens` tokens leave `a` one at a time, to `z`
/// with probability `split` or straight to `done`; a token in `z`
/// finishes, and on a `cyclic` net may also go back to `a`, an edge to
/// the previous BFS level. An independent token walks a detour of
/// `hops` steps that interleave with the others; on a cyclic net each
/// step may send it back to the start. `(tokens + 1)(tokens + 2)/2 ·
/// (hops + 1)` states, so a large draw spans more than one residual
/// block and clears the sharded product's inline threshold.
fn net(tokens: u32, means: (f64, f64, f64), split: f64, cyclic: bool, hops: u32) -> SanModel {
    let mut b = SanBuilder::new("net");
    let a = b.place("a", tokens);
    let z = b.place("z", 0);
    let done = b.place("done", 0);
    b.add_activity(
        Activity::timed("fwd", Dist::Exp { mean: means.0 })
            .input(a, 1)
            .case(Case::with_prob(split).output(z, 1))
            .case(Case::with_prob(1.0 - split).output(done, 1)),
    );
    b.add_activity(
        Activity::timed("fin", Dist::Exp { mean: means.1 })
            .input(z, 1)
            .case(Case::with_prob(1.0).output(done, 1)),
    );
    if cyclic {
        b.add_activity(
            Activity::timed("bwd", Dist::Exp { mean: means.2 })
                .input(z, 1)
                .case(Case::with_prob(1.0).output(a, 1)),
        );
    }
    let start = b.place("h0", 1);
    let mut at = start;
    for i in 0..hops {
        let next = b.place(format!("h{}", i + 1), 0);
        let mean = 0.3 + 0.2 * f64::from(i);
        let hop = Activity::timed(format!("hop{i}"), Dist::Exp { mean }).input(at, 1);
        b.add_activity(if cyclic {
            hop.case(Case::with_prob(0.8).output(next, 1))
                .case(Case::with_prob(0.2).output(start, 1))
        } else {
            hop.case(Case::with_prob(1.0).output(next, 1))
        });
        at = next;
    }
    b.build().expect("the net is valid")
}

/// Adds a timed activity of mean `mean` that moves the tokens `from`
/// to the places `to`.
fn arc(b: &mut SanBuilder, name: &str, mean: f64, from: &[(PlaceId, u32)], to: &[(PlaceId, u32)]) {
    let act = from
        .iter()
        .fold(Activity::timed(name, Dist::Exp { mean }), |act, &(p, n)| {
            act.input(p, n)
        });
    let case = to
        .iter()
        .fold(Case::with_prob(1.0), |case, &(p, n)| case.output(p, n));
    b.add_activity(act.case(case));
}

/// A chain whose bound needs `reach`, not just the rows that changed.
/// The initial state enters `c`, enters a slow two-state cycle, or
/// starts draining `drain` + `drain` tokens (`(drain + 1)²` states)
/// into `end`, which reads `c`: an edge thousands of rows back. `c`
/// absorbs at once or, with probability 1e-19, walks `stages` unit
/// stages into one of mean 1e4 ms, whose mean reaches `c` in bits only
/// `stages` steps later. By then every drained row has settled, so
/// that step changes only `c` and the cycle's rows, all near the top,
/// and `end`, far past them, must move in the next one.
fn late_reader(drain: u32, stages: u32) -> SanModel {
    let mut b = SanBuilder::new("late_reader");
    let g0 = b.place("g0", 1);
    let (x, xd) = (b.place("x", 0), b.place("xd", 0));
    let (y, yd) = (b.place("y", 0), b.place("yd", 0));
    let end = b.place("end", 0);
    let c = b.place("c", 0);
    let done = b.place("done", 0);
    arc(&mut b, "start", 1.0, &[(g0, 1)], &[(x, drain), (y, drain)]);
    arc(&mut b, "enter", 1.0, &[(g0, 1)], &[(c, 1)]);
    arc(&mut b, "dx", 1.0, &[(x, 1)], &[(xd, 1)]);
    arc(&mut b, "dy", 1.0, &[(y, 1)], &[(yd, 1)]);
    arc(
        &mut b,
        "drained",
        1.0,
        &[(xd, drain), (yd, drain)],
        &[(end, 1)],
    );
    arc(&mut b, "back", 1.0, &[(end, 1)], &[(c, 1)]);
    arc(&mut b, "finish", 1.0, &[(end, 1)], &[(done, 1)]);
    arc(&mut b, "leave", 1.0, &[(c, 1)], &[(done, 1)]);
    // A slow cycle near the top keeps the iteration going for hundreds
    // of steps after `c`'s late change.
    let (u, v) = (b.place("u", 0), b.place("v", 0));
    arc(&mut b, "cycle", 1.0, &[(g0, 1)], &[(u, 1)]);
    arc(&mut b, "uv", 1.0, &[(u, 1)], &[(v, 1)]);
    b.add_activity(
        Activity::timed("vu", Dist::Exp { mean: 1.0 })
            .input(v, 1)
            .case(Case::with_prob(0.9).output(u, 1))
            .case(Case::with_prob(0.1).output(done, 1)),
    );
    let mut at = c;
    for i in 0..=stages {
        let next = if i == stages {
            done
        } else {
            b.place(format!("s{i}"), 0)
        };
        let mean = match i {
            0 => 1e19,
            _ if i == stages => 1e4,
            _ => 1.0,
        };
        arc(&mut b, &format!("stage{i}"), mean, &[(at, 1)], &[(next, 1)]);
        at = next;
    }
    b.build().expect("the chain is valid")
}

/// The backend at 1, 2 and 8 threads against [`full_sweep`].
fn matches_full_sweep(what: &str, op: &Ctmc, tolerance: f64) -> Result<(), TestCaseError> {
    let reference = full_sweep(
        op,
        &IterOptions {
            tolerance,
            ..IterOptions::default()
        },
    );
    for threads in [1usize, 2, 8] {
        let opts = IterOptions {
            tolerance,
            ..IterOptions::with_backend(SolverBackend::Jacobi, threads)
        };
        match (&reference, mean_time_to_absorption(op, &opts)) {
            (Some((tau, iterations, residual)), Ok(sol)) => {
                prop_assert_eq!(
                    sol.iterations,
                    *iterations,
                    "{} at {} threads",
                    what,
                    threads
                );
                prop_assert_eq!(
                    sol.residual.to_bits(),
                    residual.to_bits(),
                    "{} at {} threads: residual",
                    what,
                    threads
                );
                let differs =
                    (0..tau.len()).find(|&i| tau[i].to_bits() != sol.per_state[i].to_bits());
                prop_assert!(
                    differs.is_none(),
                    "{what} at {threads} threads: state {differs:?} differs"
                );
            }
            (None, Err(_)) => {}
            (reference, got) => prop_assert!(
                false,
                "{what} at {threads} threads: full sweep converged: {}, backend: {:?}",
                reference.is_some(),
                got.map(|s| s.iterations)
            ),
        }
    }
    Ok(())
}

/// The resident and the paged CSR generator of `model`, each against
/// [`full_sweep`].
fn both_generators_match(
    what: &str,
    model: &SanModel,
    tolerance: f64,
) -> Result<(), TestCaseError> {
    let opts = ReachOptions {
        max_states: 1 << 17,
        ..ReachOptions::default()
    };
    let ss = StateSpace::explore(model, &opts).expect("explore");
    let csr = Ctmc::from_state_space(&ss).expect("csr");
    prop_assert!(
        full_sweep(
            &csr,
            &IterOptions {
                tolerance,
                ..IterOptions::default()
            }
        )
        .is_some(),
        "{what}: the full sweep converges"
    );
    matches_full_sweep(&format!("{what}, csr"), &csr, tolerance)?;
    let spill = ReachOptions {
        spill: Some(SpillOptions::with_budget(0)),
        ..opts
    };
    let (_, paged) = StateSpace::explore_ctmc(model, &spill).expect("explore paged");
    prop_assert!(
        paged.is_streamed(),
        "the zero budget pages the rows to disk"
    );
    matches_full_sweep(&format!("{what}, paged csr"), &paged, tolerance)
}

/// Bounding a step by the largest row that changed instead of its
/// `reach` freezes `end` at its stale value here.
#[test]
fn a_reader_past_every_changed_row_still_moves() {
    // 71² drained states put `end` in a later block than `c`; the 160
    // stages outlast the drain's 142 levels. The slow stage's 1e4 ms
    // needs a tolerance above the default's 1e-12 absolute defect.
    both_generators_match("late reader", &late_reader(70, 160), 1e-9).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn prefix_jacobi_is_the_full_sweep_bit_for_bit(
        tokens in 40u32..95,
        means in (0.2f64..3.0, 0.2f64..3.0, 0.2f64..3.0),
        split in 0.1f64..0.9,
        hops in 0u32..2,
    ) {
        for cyclic in [false, true] {
            let model = net(tokens, means, split, cyclic, hops);
            both_generators_match(&format!("cyclic {cyclic}"), &model, 1e-12)?;
        }
    }
}
