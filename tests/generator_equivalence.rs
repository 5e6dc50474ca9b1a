//! Property tests pinning the matrix-free Kronecker generator to the
//! materialized CSR matrix: on the same exploration, the forward
//! product `Q v` must agree element-wise for random vectors, every
//! thread count, and every consensus model in the tier-1 envelope
//! (n ∈ {2, 3}, phase-type orders {1, 2}).
//!
//! The CSR path merges parallel arcs into one entry per (src, dst)
//! pair while the Kronecker descriptor keeps one entry per activity
//! term, so the two products sum in different orders — equality is
//! gated at a few ULPs (1e-9 relative), not bitwise. *Within* one
//! generator, though, the sharded SpMV is bit-identical for every
//! thread count, and that is asserted exactly.

use std::sync::OnceLock;

use ct_consensus_repro::models::{build_model, SanParams};
use ct_consensus_repro::solve::{
    Ctmc, Generator, GeneratorBackend, KronGenerator, LinOp, ReachOptions, StateSpace,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One explored model held both ways.
struct Fixture {
    label: String,
    csr: Ctmc,
    kron: KronGenerator,
}

/// The tier-1 envelope: the paper's real (phase-type) parameters at
/// n = 2 and the exponential crash model at n = 3, each under
/// expansion orders 1 and 2.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut out = Vec::new();
        for ph_order in [1u32, 2] {
            for (name, params) in [
                ("paper_n2", SanParams::paper_baseline(2)),
                (
                    "exp_crash_n3",
                    SanParams::exponential_baseline(3).with_crash(1),
                ),
            ] {
                let model = build_model(&params);
                let opts = ReachOptions {
                    ph_order,
                    max_states: params.recommended_max_states(ph_order),
                    threads: 1,
                    ..ReachOptions::default()
                };
                let explore = |backend| {
                    StateSpace::explore_absorbing_gen(&model, &opts, backend, |_| false)
                        .expect("tier-1 model explores")
                        .1
                };
                let csr = match explore(GeneratorBackend::Csr) {
                    Generator::Csr(q) => *q,
                    Generator::Kron(_) => unreachable!("asked for csr"),
                };
                let kron = match explore(GeneratorBackend::Kron) {
                    Generator::Kron(k) => k,
                    Generator::Csr(_) => unreachable!("asked for kron"),
                };
                assert_eq!(LinOp::dim(&csr), LinOp::dim(&kron), "{name} ph{ph_order}");
                out.push(Fixture {
                    label: format!("{name}_ph{ph_order}"),
                    csr,
                    kron,
                });
            }
        }
        out
    })
}

/// A reproducible dense vector with entries in `(lo, hi)`: SplitMix64
/// expanded from a sampled seed, so each case draws a fresh vector
/// without the strategy needing to know the fixture's dimension.
fn dense_vector(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let unit = ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            lo + (hi - lo) * unit
        })
        .collect()
}

/// `a` and `b` agree to `tol` relative (floored at 1.0 absolute — the
/// vectors hold probability-scale and rate-scale values).
fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) -> Result<(), TestCaseError> {
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        prop_assert!(
            (x - y).abs() <= tol * scale,
            "{what}[{i}]: csr {x} vs kron {y}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `Q v` (forward flow) matches between generators for random
    /// positive vectors, and each generator is bit-identical across
    /// thread counts.
    #[test]
    fn forward_products_agree(fix_idx in 0usize..4, seed in 0u64..u64::MAX) {
        let fix = &fixtures()[fix_idx];
        let n = fix.csr.dim();
        let v = dense_vector(seed, n, 0.05, 5.0);
        let mut csr_y = vec![0.0; n];
        let mut kron_y = vec![0.0; n];
        fix.csr.apply(&v, &mut csr_y, 1);
        fix.kron.apply(&v, &mut kron_y, 1);
        assert_close(&csr_y, &kron_y, 1e-9, &fix.label)?;
        for &threads in &THREAD_COUNTS[1..] {
            let mut y = vec![0.0; n];
            fix.csr.apply(&v, &mut y, threads);
            prop_assert_eq!(&y, &csr_y, "csr threads={}", threads);
            fix.kron.apply(&v, &mut y, threads);
            prop_assert_eq!(&y, &kron_y, "kron threads={}", threads);
        }
    }
}
