//! Simulated cluster substrate: hosts, CPUs, and a shared-hub Ethernet.
//!
//! The DSN 2002 paper ran its measurements on 12 PCs connected by a
//! simplex 100Base-TX Ethernet **hub** (a single collision domain), with
//! the algorithms in Java over TCP/IP on Linux 2.2. This crate is the
//! discrete-event substitute for that cluster. It models, explicitly and
//! per the paper's own observations:
//!
//! * **CPU contention** — each host has one CPU; protocol-stack send and
//!   receive costs are FIFO jobs on it (the paper: "the CPUs may limit
//!   performance when a process has to receive information from a lot of
//!   other processes"),
//! * **network contention** — one shared medium transmits one frame at a
//!   time (the paper: "only one process can use this resource ... at any
//!   given point in time"),
//! * **handler work billing** — protocol handlers charge CPU time for
//!   the work a message triggers ([`ClusterNet::charge`]); this is the
//!   Java-dispatch cost that dominates consensus latency on the real
//!   cluster but not the raw ping delay,
//! * **OS timer granularity** — Linux 2.2 had a 10 ms scheduling
//!   quantum; coarse timers ([`TimerKind::Coarse`]) are quantized the way
//!   `sleep()` was, which the paper invokes to explain the latency peak
//!   at `T = 10 ms` in Fig. 9,
//! * **stop-the-world pauses** — JVM garbage collection stalls a whole
//!   host for tens of ms at random times; these produce the rare long
//!   heartbeat gaps behind the mistake-recurrence cliff of Fig. 8,
//! * **Nagle / delayed-ACK batching** — heartbeat streams are one-way
//!   small writes on idle TCP connections, so consecutive heartbeats
//!   coalesce into ~40 ms batches; application messages flush the queue
//!   (piggybacking). This produces the 30–40 ms heartbeat-gap mass that
//!   makes the failure-detector QoS collapse below `T ≈ 40 ms`.
//!
//! The crate is payload-generic: it moves opaque `P` values from sender
//! to receiver and never inspects them. It has at most 65 536 hosts, so
//! that a queue event is 16 bytes (see [`cluster`]).

pub mod cluster;
pub mod params;

pub use cluster::{ClusterNet, Delivery, TimerKind, Traffic};
pub use params::{HostId, HostParams, MsgClass, NetParams};
