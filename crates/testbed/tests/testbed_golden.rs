//! Golden digests of the emulated testbed.
//!
//! Every simulated timestamp depends on the order in which handlers
//! call into the failure detector, the consensus engine,
//! `Ctx::charge_work` and the per-node RNG: one moved draw shifts every
//! later latency of a campaign. The in-crate tests assert ranges and
//! orderings and would not notice. The digests below were recorded
//! before the campaign process became a policy over the sequenced host
//! in `ctsim-core`; a change to `neko`, `core`, `fd` or `testbed` that
//! keeps them keeps every sample to the bit.

use ctsim_testbed::{run_campaign, CrashScenario, TestbedConfig};

/// FNV-1a, one 64-bit word at a time.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a campaign is pinned on: the digest of `per_exec` (an undecided
/// execution hashes as all ones), `undecided`, the bits of
/// `mean_rounds` and `duration_ms`, and the QoS summary as
/// `(t_mr bits, t_m bits, pairs_with_mistakes, pairs)`.
type CampaignPin = (u64, usize, u64, u64, Option<(u64, u64, usize, usize)>);

fn pin(cfg: &TestbedConfig) -> CampaignPin {
    let r = run_campaign(cfg);
    (
        digest(
            r.per_exec
                .iter()
                .map(|l| l.map_or(u64::MAX, |ms| ms.to_bits())),
        ),
        r.undecided,
        r.mean_rounds.to_bits(),
        r.duration_ms.to_bits(),
        r.qos.map(|q| {
            (
                q.t_mr.to_bits(),
                q.t_m.to_bits(),
                q.pairs_with_mistakes,
                q.pairs,
            )
        }),
    )
}

fn assert_pins(cases: &[(&str, TestbedConfig, CampaignPin)]) {
    for (name, cfg, want) in cases {
        let got = pin(cfg);
        assert_eq!(&got, want, "{name}: got {got:#x?}, recorded {want:#x?}");
    }
}

#[test]
fn class1_and_class2_campaigns_match_the_recorded_digests() {
    assert_pins(&[
        (
            "class 1, n = 3",
            TestbedConfig::class1(3, 200, 42),
            (
                0xc09b_1b16_fd0d_e26d,
                0,
                0x3ffb_0ab8_637b_ed22,
                0x40a0_00ec_8f75_5369,
                None,
            ),
        ),
        (
            "class 1, n = 5",
            TestbedConfig::class1(5, 200, 42),
            (
                0x42d4_9418_b507_9d05,
                0,
                0x3ffd_7176_9bea_6350,
                0x40a0_85ed_63cb_8173,
                None,
            ),
        ),
        (
            "class 2, coordinator crash, n = 5",
            TestbedConfig::class2(5, 200, CrashScenario::Coordinator, 42),
            (
                0x31d2_c81f_fd8d_a549,
                0,
                0x4006_1495_39e3_b2d0,
                0x40a0_6c3c_6844_8cf8,
                None,
            ),
        ),
        (
            "class 2, participant crash, n = 5",
            TestbedConfig::class2(5, 200, CrashScenario::Participant, 42),
            (
                0x0b8f_de3a_9162_4eb9,
                0,
                0x4003_fada_b187_134c,
                0x40a0_821f_6965_f527,
                None,
            ),
        ),
    ]);
}

/// T = 3 ms is below the 10 ms tick: wrong suspicions are frequent and
/// executions take several rounds. T = 10 ms at n = 5 is the
/// benchmark's `testbed_n5_hb` setting.
#[test]
fn class3_campaigns_match_the_recorded_digests() {
    assert_pins(&[
        (
            "class 3, T = 3 ms, n = 3",
            TestbedConfig::class3(3, 200, 3.0, 42),
            (
                0x39f9_ceee_62ca_1b25,
                0,
                0x4009_dcd6_67c5_ae87,
                0x40d3_bedb_a4ac_f313,
                Some((0x402c_27b3_5c4e_cbe8, 0x4025_8b24_9061_6b30, 6, 6)),
            ),
        ),
        (
            "class 3, T = 10 ms, n = 5",
            TestbedConfig::class3(5, 200, 10.0, 42),
            (
                0x69a0_c82d_a85f_e2b5,
                0,
                0x4006_3f4a_decf_5f74,
                0x40d3_befe_b0c8_8a48,
                Some((0x4030_0fae_0fba_5eca, 0x4012_f24e_0549_d08e, 20, 20)),
            ),
        ),
    ]);
}
