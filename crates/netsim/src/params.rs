//! Parameters of the simulated cluster.
//!
//! Defaults are calibrated so that the measured
//! unicast end-to-end delay distribution reproduces the bimodal fit of
//! the paper's Fig. 6 — `U[0.1, 0.13]` ms with probability ≈ 0.8 and a
//! `U[~0.145, ~0.35]` ms tail — and so that the class-1 consensus
//! latency lands in the paper's 1–3.3 ms band for 3–11 processes.

use ctsim_stoch::Dist;

/// Identifies a host (machine) in the cluster. Process `i` of the
/// consensus algorithm runs on host `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Traffic class of a message; decides Nagle treatment and receive cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Protocol messages of the algorithm under study. Sent with
    /// piggybacked acknowledgements (no Nagle stall) and flushing any
    /// pending heartbeats on the same connection.
    App,
    /// Failure-detector heartbeats: small one-way writes subject to the
    /// Nagle / delayed-ACK batching of an idle TCP connection.
    Heartbeat,
}

/// Network-wide parameters (the hub and TCP behaviour).
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Medium bandwidth in Mbit/s (100 for the paper's 100Base-TX hub).
    pub bandwidth_mbps: f64,
    /// Transport+network header bytes added to every payload (TCP/IP).
    pub header_bytes: u32,
    /// Link-layer overhead per frame: Ethernet header + preamble + IPG.
    pub frame_overhead_bytes: u32,
    /// Minimum Ethernet frame size (payload+headers), 64 bytes.
    pub min_frame_bytes: u32,
    /// Whether heartbeat-class traffic is subject to Nagle batching.
    /// Off by default: the measured framework sets `TCP_NODELAY` (the
    /// paper's sub-12 ms mistake durations in Fig. 8b are only possible
    /// without delayed-ack stalls); the mechanism is kept for ablations.
    pub nagle_on_heartbeats: bool,
    /// Delayed-ACK return time: how long a one-way TCP stream stalls
    /// before the receiver's ack releases the next small write (~40 ms
    /// on Linux 2.2).
    pub delayed_ack: Dist,
}

impl Default for NetParams {
    fn default() -> Self {
        Self {
            bandwidth_mbps: 100.0,
            header_bytes: 40,
            frame_overhead_bytes: 38,
            min_frame_bytes: 64,
            nagle_on_heartbeats: false,
            delayed_ack: Dist::Uniform { lo: 35.0, hi: 45.0 },
        }
    }
}

impl NetParams {
    /// Wire occupancy of one message with `payload` bytes, in ms.
    pub fn frame_time_ms(&self, payload: u32) -> f64 {
        let on_wire = (payload + self.header_bytes + self.frame_overhead_bytes)
            .max(self.min_frame_bytes + self.frame_overhead_bytes);
        (on_wire as f64 * 8.0) / (self.bandwidth_mbps * 1e3)
    }
}

/// Per-host parameters (stack costs and OS/JVM jitter). All times ms.
#[derive(Debug, Clone)]
pub struct HostParams {
    /// CPU cost of pushing one message through the send path
    /// (syscall + TCP/IP stack + serialization).
    pub send_cost: Dist,
    /// CPU cost of the receive path up to handing the message to the
    /// application (interrupt + stack + deserialization).
    pub recv_cost: Dist,
    /// Probability that a message receive is hit by an extra scheduling
    /// delay (the slow mode of the paper's bimodal Fig. 6 fit).
    pub recv_tail_prob: f64,
    /// The extra delay when it happens.
    pub recv_tail: Dist,
    /// Interval between JVM stop-the-world pauses.
    pub gc_interval: Dist,
    /// Duration of one pause.
    pub gc_duration: Dist,
    /// Whether pauses are simulated at all.
    pub gc_enabled: bool,
    /// Scheduler tick for coarse timers (Linux 2.2: 10 ms).
    pub timer_granularity: f64,
    /// Extra wake-up lateness of a coarse timer beyond quantization,
    /// as a fraction of the granularity drawn uniformly: a sleeping
    /// thread wakes between `ceil(d/g)·g` and `ceil(d/g)·g + g`.
    pub timer_extra: Dist,
    /// Wake-up lateness of precise (busy-wait / native clock) timers.
    pub precise_timer_jitter: Dist,
}

impl Default for HostParams {
    fn default() -> Self {
        Self {
            send_cost: Dist::Uniform {
                lo: 0.050,
                hi: 0.070,
            },
            recv_cost: Dist::Uniform {
                lo: 0.025,
                hi: 0.038,
            },
            recv_tail_prob: 0.2,
            recv_tail: Dist::Uniform {
                lo: 0.045,
                hi: 0.230,
            },
            gc_interval: Dist::Exp { mean: 3000.0 },
            gc_duration: Dist::Uniform { lo: 8.0, hi: 25.0 },
            gc_enabled: true,
            timer_granularity: 10.0,
            timer_extra: Dist::Uniform { lo: 0.0, hi: 10.0 },
            precise_timer_jitter: Dist::Uniform { lo: 0.0, hi: 0.05 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_time_of_typical_message() {
        let p = NetParams::default();
        // ~100-byte payload + 40 header + 38 overhead = 178 bytes
        // -> 178*8/100e3 ms = 0.014 ms.
        let t = p.frame_time_ms(100);
        assert!((t - 0.014_24).abs() < 1e-6, "frame time {t}");
    }

    #[test]
    fn frame_time_respects_minimum() {
        let p = NetParams::default();
        // 1-byte payload is padded to the 64-byte minimum + overhead.
        let t = p.frame_time_ms(1);
        let expect = (64.0 + 38.0) * 8.0 / 100e3;
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn frame_time_scales_with_bandwidth() {
        let mut p = NetParams::default();
        let t100 = p.frame_time_ms(1000);
        p.bandwidth_mbps = 10.0;
        let t10 = p.frame_time_ms(1000);
        assert!((t10 / t100 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn default_unicast_path_lands_in_fig6_band() {
        // send + frame + recv typical ≈ 0.06 + 0.014 + 0.03 ≈ 0.105 ms:
        // inside the paper's fast mode U[0.10, 0.13].
        let h = HostParams::default();
        let n = NetParams::default();
        let typical = h.send_cost.mean() + n.frame_time_ms(100) + h.recv_cost.mean();
        assert!((0.09..=0.14).contains(&typical), "typical e2e {typical}");
    }
}
