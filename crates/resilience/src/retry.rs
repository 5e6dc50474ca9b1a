//! Bounded retry with deterministic virtual backoff and per-op budgets.
//!
//! Transient spill-file I/O failures (and injected faults standing in
//! for them) are retried a bounded number of times. The exponential
//! backoff between attempts is *virtual*: the delay a wall-clock
//! deployment would wait is computed deterministically, recorded in the
//! attempt trace and the `resilience.backoff_virtual_us` counter, but
//! the thread never sleeps — so a fault-heavy CI leg costs
//! microseconds, and the trace still documents the policy. A per-op
//! *budget* caps the total retries any one operation kind may consume
//! per process, so a persistently failing disk degenerates to
//! fail-fast instead of multiplying every I/O by `max_attempts`.

use std::collections::HashMap;
use std::sync::Mutex;

/// Retry policy for one operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Virtual backoff before the first retry, in microseconds.
    pub backoff_base_us: u64,
    /// Multiplier applied to the backoff after each failed retry.
    pub backoff_factor: u64,
    /// Ceiling on the total retries (not first attempts) this op name
    /// may consume per process; once spent, failures surface after a
    /// single attempt.
    pub op_budget: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base_us: 500,
            backoff_factor: 4,
            op_budget: 256,
        }
    }
}

/// All attempts failed (or the op's retry budget was spent). Carries
/// the rendered per-attempt trace so a typed error upstream can show
/// exactly what was tried.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryExhausted {
    /// The operation name the caller passed in.
    pub op: String,
    /// One rendered line per failed attempt, e.g.
    /// `"attempt 2/4 failed: injected fault (failpoint spill.read); backoff 2000us"`.
    pub attempts: Vec<String>,
    /// The final attempt's error, rendered.
    pub last: String,
}

/// Retries consumed per op name (process-wide), for budget accounting.
static SPENT: Mutex<Option<HashMap<String, u64>>> = Mutex::new(None);

fn spend_retry(op: &str, budget: u64) -> bool {
    let mut spent = SPENT.lock().unwrap_or_else(|e| e.into_inner());
    let counter = spent
        .get_or_insert_with(HashMap::new)
        .entry(op.to_string())
        .or_insert(0);
    if *counter >= budget {
        return false;
    }
    *counter += 1;
    true
}

/// Resets the per-op retry budgets (test isolation).
pub fn reset_budgets() {
    *SPENT.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Runs `f` under `policy`, retrying failed attempts with virtual
/// backoff until one succeeds, the attempt bound is hit, or the op's
/// budget is spent. Each retry bumps `resilience.retries`; the total
/// virtual backoff is added to `resilience.backoff_virtual_us`.
pub fn with_retries<T, E: std::fmt::Display>(
    policy: &RetryPolicy,
    op: &str,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, RetryExhausted> {
    let max = policy.max_attempts.max(1);
    let mut attempts = Vec::new();
    let mut backoff_us = policy.backoff_base_us;
    let mut virtual_us = 0u64;
    for attempt in 1..=max {
        match f() {
            Ok(v) => {
                if virtual_us > 0 && ctsim_obs::enabled() {
                    ctsim_obs::counter_add("resilience.backoff_virtual_us", virtual_us);
                }
                return Ok(v);
            }
            Err(e) => {
                let last = e.to_string();
                let can_retry = attempt < max && spend_retry(op, policy.op_budget);
                if can_retry {
                    attempts.push(format!(
                        "attempt {attempt}/{max} failed: {last}; backoff {backoff_us}us"
                    ));
                    virtual_us += backoff_us;
                    backoff_us = backoff_us.saturating_mul(policy.backoff_factor);
                    if ctsim_obs::enabled() {
                        ctsim_obs::counter_add("resilience.retries", 1);
                    }
                } else {
                    let why = if attempt < max {
                        " (op budget spent)"
                    } else {
                        ""
                    };
                    attempts.push(format!("attempt {attempt}/{max} failed: {last}{why}"));
                    if ctsim_obs::enabled() {
                        ctsim_obs::counter_add("resilience.backoff_virtual_us", virtual_us);
                    }
                    return Err(RetryExhausted {
                        op: op.to_string(),
                        attempts,
                        last,
                    });
                }
            }
        }
    }
    unreachable!("loop returns on the final attempt")
}

impl std::fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} exhausted retries: {}",
            self.op,
            self.attempts.join("; ")
        )
    }
}

impl std::error::Error for RetryExhausted {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_after_transient_failures_and_records_the_trace() {
        // `reset_budgets` clears every op's budget, so the tests that
        // spend one run one at a time.
        let _guard = crate::fail::test_lock();
        reset_budgets();
        let mut calls = 0;
        let out = with_retries(&RetryPolicy::default(), "test.transient", || {
            calls += 1;
            if calls < 3 {
                Err("flaky")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
    }

    #[test]
    fn exhaustion_carries_every_attempt() {
        let _guard = crate::fail::test_lock();
        reset_budgets();
        let err = with_retries(
            &RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            "test.dead",
            || Err::<(), _>("still broken"),
        )
        .unwrap_err();
        assert_eq!(err.op, "test.dead");
        assert_eq!(err.attempts.len(), 3);
        assert!(err.attempts[0].contains("attempt 1/3 failed: still broken"));
        assert!(
            err.attempts[0].contains("backoff 500us"),
            "{:?}",
            err.attempts
        );
        assert!(
            err.attempts[1].contains("backoff 2000us"),
            "{:?}",
            err.attempts
        );
        assert!(!err.attempts[2].contains("backoff"), "{:?}", err.attempts);
        assert_eq!(err.last, "still broken");
        let rendered = err.to_string();
        assert!(
            rendered.contains("test.dead exhausted retries"),
            "{rendered}"
        );
    }

    #[test]
    fn op_budget_degrades_to_fail_fast() {
        let _guard = crate::fail::test_lock();
        reset_budgets();
        let policy = RetryPolicy {
            max_attempts: 4,
            op_budget: 5,
            ..RetryPolicy::default()
        };
        // Two exhaustions spend 3 retries each, but the budget of 5
        // truncates the second one.
        let first = with_retries(&policy, "test.budget", || Err::<(), _>("x")).unwrap_err();
        assert_eq!(first.attempts.len(), 4);
        let second = with_retries(&policy, "test.budget", || Err::<(), _>("x")).unwrap_err();
        assert_eq!(second.attempts.len(), 3, "{:?}", second.attempts);
        assert!(second.attempts[2].contains("op budget spent"));
        // And from now on every failure is single-attempt.
        let third = with_retries(&policy, "test.budget", || Err::<(), _>("x")).unwrap_err();
        assert_eq!(third.attempts.len(), 1);
        assert!(third.attempts[0].contains("op budget spent"));
    }
}
