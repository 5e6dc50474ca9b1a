//! Measurement campaigns on the simulated cluster — the "measurements"
//! half of the paper's combined methodology.
//!
//! The paper's experimental procedure (§4):
//!
//! * latency is averaged over a large number of *sequential* consensus
//!   executions, the beginnings of two consecutive executions separated
//!   by 10 ms to avoid interference (more for very bad failure
//!   detection);
//! * all processes propose at the same nominal instant, aligned via
//!   NTP-synchronized clocks (±50 µs) and measured with a 1 µs
//!   native-code clock;
//! * failure detectors are *not* reset between executions; their QoS
//!   metrics are estimated over the **whole** experiment with the two
//!   equations of §4, from per-pair suspected time and transition
//!   counts that each detector tallies as it goes;
//! * run classes: (1) no failures and no suspicions — oracle detectors,
//!   (2) one initial crash with complete and accurate detectors,
//!   (3) no crashes but real heartbeat detectors with wrong suspicions.
//!
//! [`run_campaign`] reproduces that procedure end to end;
//! [`delays::measure_delays`] reproduces the §5.1 message-delay
//! measurements (Fig. 6) used to parameterize the SAN model.
//!
//! A campaign process is a policy over the consensus host,
//! `ctsim_core::node::ConsensusNode`: it starts execution `k` at the
//! precise timer `warmup + k·gap` and records decision stamps and
//! rounds. The failure-detector plumbing, the execution tag
//! ([`Tagged`]), the stale-drop / future-buffer rule and the engine's
//! environment live in the host.

pub mod campaign;
pub mod config;
pub mod delays;

pub use campaign::{run_campaign, CampaignResult, Tagged};
pub use config::{CrashScenario, FdSetup, TestbedConfig};
pub use delays::{measure_delays, DelayMeasurements};
