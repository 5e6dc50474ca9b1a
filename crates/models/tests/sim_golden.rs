//! Golden sample digests of the Monte-Carlo engine on the paper's model.
//!
//! Which of several simultaneously enabled instantaneous activities
//! fires is decided by the simulator's tie order plus one RNG draw, so
//! any change to that order — or to the order in which timed activities
//! sample their delays — moves every later sample of a replication.
//! The digests below were recorded before the simulator's enabling
//! checks became cached and watch-driven; an engine change that keeps
//! them keeps every sample of every replication to the bit.

use ctsim_models::{latency_replications, SanParams, SojournDist};

/// FNV-1a over the bit patterns of the samples, one word at a time.
fn digest(samples: &[f64]) -> u64 {
    samples.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        (h ^ s.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Wrong suspicions (T_MR = 16 ms, T_M = 4.8 ms) make runs take several
/// rounds, with timed activities disabled and re-enabled along the way.
#[test]
fn two_state_fd_samples_match_the_recorded_digests() {
    use SojournDist::{Deterministic as Det, Exponential as Exp};
    // (n, process 0 crashed, sojourn distribution, recorded digest)
    let cases = [
        (3, false, Exp, 0x9b06_d0f0_0ff8_5bfd_u64),
        (3, false, Det, 0x70c7_741f_60e4_60b3),
        (5, true, Exp, 0x0830_6ec7_2528_d1a1),
        (5, true, Det, 0x6d71_b551_025a_0bbc),
        (5, false, Exp, 0xa945_da7b_8361_ec48),
        (5, false, Det, 0x8fe4_e38b_1ef1_dcc3),
    ];
    for (n, crash, sojourn, want) in cases {
        let mut p = SanParams::paper_baseline(n);
        if crash {
            p = p.with_crash(0);
        }
        let p = p.with_two_state_fd(16.0, 4.8, sojourn);
        let r = latency_replications(&p, 3000, 99, 1e4);
        assert_eq!(r.discarded, 0);
        let got = digest(&r.samples);
        assert_eq!(
            got, want,
            "n = {n}, crash {crash}, {sojourn:?}: digest {got:016x}, recorded {want:016x}"
        );
    }
}

/// The benchmark's `sim_n5_mc` op at its default seed.
#[test]
fn paper_baseline_n5_default_seed_mean_is_unchanged() {
    let r = latency_replications(&SanParams::paper_baseline(5), 30_000, 20_020_623, 1e4);
    assert_eq!(r.discarded, 0);
    assert_eq!(r.mean().to_bits(), 1.624069614666654f64.to_bits());
}
