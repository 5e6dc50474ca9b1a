//! Campaign configuration: run class, scale, and cluster parameters.

use ctsim_neko::NodeConfig;
use ctsim_netsim::{HostParams, NetParams};

/// Which process (if any) is crashed before the experiment starts
/// (run class 2; the paper distinguishes coordinator and participant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashScenario {
    /// All processes correct (classes 1 and 3).
    None,
    /// The first coordinator (`p1`) is crashed from the beginning: the
    /// algorithm needs two rounds.
    Coordinator,
    /// A participant of the first round (`p2`) is crashed: one round
    /// still suffices.
    Participant,
}

impl CrashScenario {
    /// The crashed process index, if any.
    pub fn crashed_index(self) -> Option<usize> {
        match self {
            CrashScenario::None => None,
            CrashScenario::Coordinator => Some(0),
            CrashScenario::Participant => Some(1),
        }
    }
}

/// Failure-detection setup for a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FdSetup {
    /// Idealized complete-and-accurate detectors (classes 1 and 2).
    Oracle,
    /// The real push heartbeat detector with timeout `T` (ms) and
    /// heartbeat period `T_h = 0.7·T` (class 3, paper §5.4).
    Heartbeat {
        /// The timeout `T` in ms.
        timeout: f64,
    },
}

/// Full configuration of one measurement campaign.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of processes (the paper measures 3, 5, 7, 9, 11).
    pub n: usize,
    /// Number of sequential consensus executions.
    pub executions: u32,
    /// Separation between execution starts, ms (paper: 10 ms; larger
    /// for very bad failure detection).
    pub isolation_gap_ms: f64,
    /// Delay before the first execution, ms (lets heartbeat detectors
    /// settle).
    pub warmup_ms: f64,
    /// Crash scenario.
    pub crash: CrashScenario,
    /// Failure-detection setup.
    pub fd: FdSetup,
    /// Network parameters of the simulated cluster.
    pub net: NetParams,
    /// Host parameters of the simulated cluster.
    pub host: HostParams,
    /// Framework-layer parameters (handler cost, clock sync, sizes).
    pub node: NodeConfig,
    /// RNG seed; campaigns with equal seeds are bit-identical.
    pub seed: u64,
}

impl TestbedConfig {
    /// A class-1 campaign (no failures, no suspicions) at the paper's
    /// defaults.
    pub fn class1(n: usize, executions: u32, seed: u64) -> Self {
        Self {
            n,
            executions,
            isolation_gap_ms: 10.0,
            warmup_ms: 5.0,
            crash: CrashScenario::None,
            fd: FdSetup::Oracle,
            net: NetParams::default(),
            host: HostParams::default(),
            node: NodeConfig::default(),
            seed,
        }
    }

    /// A class-2 campaign (one initial crash, oracle detectors).
    pub fn class2(n: usize, executions: u32, crash: CrashScenario, seed: u64) -> Self {
        Self {
            crash,
            ..Self::class1(n, executions, seed)
        }
    }

    /// A class-3 campaign (no crashes, heartbeat detectors with
    /// timeout `T`). Small timeouts cause frequent wrong suspicions and
    /// latencies well above 10 ms, so the isolation gap is widened —
    /// the paper did the same when latencies exceeded the separation
    /// (footnote 2).
    pub fn class3(n: usize, executions: u32, timeout: f64, seed: u64) -> Self {
        let gap = if timeout < 15.0 {
            100.0
        } else if timeout < 40.0 {
            25.0
        } else {
            10.0
        };
        Self {
            fd: FdSetup::Heartbeat { timeout },
            isolation_gap_ms: gap,
            warmup_ms: 20.0_f64.max(2.0 * timeout),
            ..Self::class1(n, executions, seed)
        }
    }

    /// Total simulated duration of the campaign in ms (plus tail time
    /// the harness adds for the last execution to finish).
    pub fn nominal_duration_ms(&self) -> f64 {
        self.warmup_ms + self.isolation_gap_ms * self.executions as f64
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.n >= 1, "need at least one process");
        assert!(self.n <= 1 << 16, "at most 65 536 processes");
        assert!(self.executions >= 1, "need at least one execution");
        assert!(self.isolation_gap_ms > 0.0);
        if let FdSetup::Heartbeat { timeout } = self.fd {
            assert!(timeout > 0.0, "timeout must be positive");
            assert!(
                self.crash == CrashScenario::None,
                "class 3 runs have no crashes (paper §2.4)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_constructors_set_paper_defaults() {
        let c1 = TestbedConfig::class1(5, 1000, 7);
        assert_eq!(c1.isolation_gap_ms, 10.0);
        assert_eq!(c1.fd, FdSetup::Oracle);
        assert_eq!(c1.crash, CrashScenario::None);
        c1.validate();

        let c2 = TestbedConfig::class2(5, 1000, CrashScenario::Coordinator, 7);
        assert_eq!(c2.crash.crashed_index(), Some(0));
        c2.validate();

        let c3 = TestbedConfig::class3(5, 1000, 30.0, 7);
        assert_eq!(c3.fd, FdSetup::Heartbeat { timeout: 30.0 });
        assert!(c3.isolation_gap_ms >= 10.0);
        c3.validate();
    }

    #[test]
    fn class3_widens_gap_for_small_timeouts() {
        let tight = TestbedConfig::class3(3, 10, 1.0, 1);
        assert!(tight.isolation_gap_ms >= 100.0);
        let wide = TestbedConfig::class3(3, 10, 50.0, 1);
        assert_eq!(wide.isolation_gap_ms, 10.0);
    }

    #[test]
    #[should_panic(expected = "class 3 runs have no crashes")]
    fn class3_with_crash_rejected() {
        let mut c = TestbedConfig::class3(3, 10, 5.0, 1);
        c.crash = CrashScenario::Coordinator;
        c.validate();
    }

    #[test]
    fn nominal_duration_accounts_for_gap_and_warmup() {
        let c = TestbedConfig::class1(3, 100, 1);
        assert!((c.nominal_duration_ms() - (5.0 + 1000.0)).abs() < 1e-9);
    }
}
