//! Golden digests of the emulated testbed.
//!
//! Every simulated timestamp depends on the order in which handlers
//! call into the failure detector, the consensus engine,
//! `Ctx::charge_work` and the per-node RNG: one moved draw shifts every
//! later latency of a campaign. The in-crate tests assert ranges and
//! orderings and would not notice. The digests below were recorded
//! before the four hosts of `CtConsensus` became policies over one
//! sequenced host in `ctsim-core`; a change to `neko`, `core`, `fd` or
//! `testbed` that keeps them keeps every sample to the bit.

use ctsim_core::abcast::{AbcastMsg, AbcastNode};
use ctsim_des::{SimDuration, SimTime};
use ctsim_fd::{FailureDetector, FdParams, HeartbeatFd, OracleFd};
use ctsim_neko::{Ctx, Node, NodeConfig, ProcessId, Runtime, TimerKind};
use ctsim_netsim::{HostParams, NetParams};
use ctsim_stoch::SimRng;
use ctsim_testbed::{measure_throughput, run_campaign, CrashScenario, TestbedConfig};

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

#[test]
fn chained_throughput_matches_the_recorded_count_and_rate() {
    let r = measure_throughput(3, 400.0, 5);
    assert_eq!(
        (r.decided, r.per_second.to_bits()),
        (313, 0x4088_8300_0000_0000),
        "decided {}, per_second {:#x}",
        r.decided,
        r.per_second.to_bits()
    );
}

/// A replica that abroadcasts its payloads from staggered timers, so
/// that instances overlap and consensus messages of instance `k + 1`
/// reach replicas still deciding `k`.
struct Sender<F> {
    abcast: AbcastNode<u64, F>,
    payloads: Vec<u64>,
}

/// First timer token of a [`Sender`]; below every failure-detector
/// token.
const SEND: u64 = 100;

impl<F: FailureDetector<AbcastMsg<u64>>> Node<AbcastMsg<u64>> for Sender<F> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, AbcastMsg<u64>>) {
        self.abcast.on_start(ctx);
        let offset = 0.11 * ctx.me().0 as f64;
        for k in 0..self.payloads.len() {
            ctx.set_timer(
                SimDuration::from_ms(1.0 + offset + 0.37 * k as f64),
                TimerKind::Precise,
                SEND + k as u64,
            );
        }
    }
    fn on_app_message(
        &mut self,
        ctx: &mut Ctx<'_, AbcastMsg<u64>>,
        from: ProcessId,
        msg: AbcastMsg<u64>,
    ) {
        self.abcast.on_app_message(ctx, from, msg);
    }
    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, AbcastMsg<u64>>, from: ProcessId) {
        self.abcast.on_heartbeat(ctx, from);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, AbcastMsg<u64>>, token: u64) {
        match token.checked_sub(SEND) {
            Some(k) if (k as usize) < self.payloads.len() => {
                self.abcast.abroadcast(ctx, self.payloads[k as usize]);
            }
            _ => self.abcast.on_timer(ctx, token),
        }
    }
}

/// Runs `n` replicas, each abroadcasting `per_replica` payloads, and
/// returns the digest of every replica's delivery order.
fn abcast_orders<F: FailureDetector<AbcastMsg<u64>>>(
    n: usize,
    per_replica: u64,
    seed: u64,
    fd: impl Fn(ProcessId) -> F,
) -> Vec<u64> {
    let mut rt = Runtime::new(
        n,
        NetParams::default(),
        HostParams::default(),
        NodeConfig::default(),
        SimRng::new(seed),
        |p| Sender {
            abcast: AbcastNode::new(p, n, fd(p)),
            payloads: (0..per_replica).map(|k| 1000 * p.0 as u64 + k).collect(),
        },
    );
    rt.run_until(SimTime::from_secs(1.0));
    (0..n)
        .map(|i| {
            let log = rt.node(ProcessId(i)).abcast.delivered();
            assert_eq!(
                log.len() as u64,
                n as u64 * per_replica,
                "replica {i} delivered everything"
            );
            digest(
                log.iter()
                    .flat_map(|&(origin, seq, payload)| [origin as u64, seq, payload]),
            )
        })
        .collect()
}

#[test]
fn abcast_delivery_orders_match_the_recorded_digests() {
    let oracle = abcast_orders(3, 12, 7, |_| OracleFd::accurate(3));
    assert_eq!(oracle, [0x7738_d68d_d605_24fd; 3], "oracle: {oracle:#x?}");
    // T = 4 ms: wrong suspicions while instances are in flight.
    let heartbeat = abcast_orders(3, 12, 7, |p| {
        HeartbeatFd::new(p, 3, FdParams::with_timeout(4.0))
    });
    assert_eq!(
        heartbeat, [0xab0b_286c_d8fd_2087; 3],
        "heartbeat: {heartbeat:#x?}"
    );
}
