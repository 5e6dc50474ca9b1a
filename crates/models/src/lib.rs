//! The paper's SAN model of the Chandra–Toueg ◇S consensus algorithm
//! (DSN 2002, §3), built on the `ctsim-san` engine.
//!
//! The model composes, for `n` processes:
//!
//! * **the per-process state machine** (§3.2): submodels P1C
//!   (coordinator: wait majority of estimates → propose → wait majority
//!   of acks → decide or next round), P1A1 (send estimate, wait
//!   proposal), P1A2a (proposal received → positive ack), P1A2b
//!   (coordinator suspected → negative ack), and P1A3 (round management
//!   — the round number is kept **modulo n**, the paper's simplification
//!   that only messages of the last `n−1` rounds are distinguishable);
//! * **the contention-aware network model** (§3.3, Fig. 3): each message
//!   passes through the sender's CPU (`t_send`), the single shared
//!   network resource (`t_network`), and the receiver's CPU
//!   (`t_receive`); messages to all processes travel as *one* broadcast
//!   message with a larger `t_network` (§5.1) — the
//!   [`SanParams::broadcast_as_unicasts`] switch turns that
//!   simplification off for the Table-1 ablation;
//! * **the abstract failure-detector model** (§3.4, Fig. 5): one
//!   two-state (trust/suspect) process per ordered pair, alternating
//!   with sojourn times derived from the measured QoS metrics `T_MR`
//!   and `T_M`, with deterministic or exponential distributions and a
//!   stationary-residual initial state.
//!
//! One deliberate addition relative to the paper's three-stage pipeline
//! is a fourth `t_work` stage (the receive-side protocol-handler cost of
//! the Java implementation). The paper folds this cost into parameter
//! fitting; making it explicit lets the same calibration reproduce both
//! the raw delay CDF of Fig. 6 and the consensus latencies of Fig. 7.

pub mod build;
pub mod latency;
pub mod params;

pub use build::build_model;
pub use latency::{all_decided_place_ids, decided_place_ids, latency_replications};
pub use params::{FdModel, SanParams, SojournDist};
