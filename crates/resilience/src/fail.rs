//! Deterministic failpoint registry.
//!
//! A failpoint is a named call site (`"spill.read"`, `"ddd.append_run"`,
//! …) placed just before a fallible operation. With no schedule armed —
//! the production default — [`hit`] is one relaxed atomic load and a
//! branch, so the sites cost nothing. Arming a schedule with
//! [`configure`] turns chosen hits into injected failures that exercise
//! the retry, fallback, and checkpoint machinery end to end.
//!
//! # Schedule grammar
//!
//! A spec is `site=sched` pairs separated by `;` (or `,`):
//!
//! | sched       | meaning                                               |
//! |-------------|-------------------------------------------------------|
//! | `always`    | every hit fails (drives retry *exhaustion*)           |
//! | `first:K`   | the first `K` hits fail, later hits succeed           |
//! | `every:N`   | every `N`-th hit fails                                |
//! | `nth:K`     | exactly the `K`-th hit fails                          |
//! | `prob:P`    | each hit fails with probability `P`                   |
//! | `1in:N`     | shorthand for `prob:1/N`                              |
//! | `abort_at:K`| the `K`-th hit aborts the process (crash injection)   |
//!
//! e.g. `spill.read=first:2;ddd.append_run=1in:7;campaign.checkpoint=abort_at:3`.
//!
//! # Determinism
//!
//! Probabilistic schedules draw from a [`SimRng`] substream derived
//! from the configured seed and the site name, and count-based
//! schedules depend only on the site's hit counter — so a `(spec,
//! seed)` pair replays the identical fault sequence per site. Under
//! multiple worker threads the *assignment* of hit indices to logical
//! operations can vary with interleaving; results still cannot drift,
//! because an injected fault either disappears under retry (the
//! reissued read/append returns the same bytes) or kills the run with
//! a typed error. Runs that must reproduce a fault schedule exactly
//! (the CI chaos legs) pin `--threads 1`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ctsim_stoch::SimRng;

/// What a hit at an armed failpoint should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Not selected by the schedule: run the real operation.
    Proceed,
    /// Injected failure: the caller should behave as if the operation
    /// failed (spill sites synthesize an `io::Error`).
    Fail,
    /// Crash injection: the caller should abort the process without
    /// unwinding or flushing ([`io_check`] does it for you).
    Abort,
}

#[derive(Debug, Clone, Copy)]
enum Schedule {
    Always,
    First(u64),
    Every(u64),
    Nth(u64),
    Prob(f64),
    AbortAt(u64),
}

struct Rule {
    site: String,
    schedule: Schedule,
    rng: SimRng,
    hits: u64,
}

/// Fast-path arm flag: one relaxed load decides whether [`hit`] takes
/// the locked slow path at all.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Total injected failures (including aborts) since process start.
static INJECTED: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Vec<Rule>> = Mutex::new(Vec::new());
/// Serializes tests that arm the process-wide registry.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Parses and arms a fault schedule. Replaces any previous schedule.
/// See the module docs for the grammar; `seed` feeds the per-site
/// [`SimRng`] substreams of probabilistic schedules.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    let root = SimRng::new(seed);
    let mut rules = Vec::new();
    for part in spec.split([';', ',']) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, sched) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoint spec {part:?}: expected site=schedule"))?;
        let schedule =
            parse_schedule(sched).map_err(|e| format!("failpoint spec {part:?}: {e}"))?;
        rules.push(Rule {
            site: site.trim().to_string(),
            schedule,
            rng: root.substream_named(site.trim()),
            hits: 0,
        });
    }
    if rules.is_empty() {
        return Err("failpoint spec is empty".into());
    }
    *PLAN.lock().expect("failpoint plan poisoned") = rules;
    ARMED.store(true, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint (hits go back to the one-atomic-load fast
/// path) without resetting [`injected_total`].
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    PLAN.lock().expect("failpoint plan poisoned").clear();
}

fn parse_schedule(s: &str) -> Result<Schedule, String> {
    let s = s.trim();
    if s == "always" {
        return Ok(Schedule::Always);
    }
    let (kind, arg) = s
        .split_once(':')
        .ok_or_else(|| format!("unknown schedule {s:?}"))?;
    let count = || {
        arg.parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{kind}:{arg}: expected a positive integer"))
    };
    match kind {
        "first" => Ok(Schedule::First(count()?)),
        "every" => Ok(Schedule::Every(count()?)),
        "nth" => Ok(Schedule::Nth(count()?)),
        "abort_at" => Ok(Schedule::AbortAt(count()?)),
        "1in" => Ok(Schedule::Prob(1.0 / count()? as f64)),
        "prob" => {
            let p = arg
                .parse::<f64>()
                .ok()
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| format!("prob:{arg}: expected a probability in [0, 1]"))?;
            Ok(Schedule::Prob(p))
        }
        other => Err(format!("unknown schedule kind {other:?}")),
    }
}

/// Registers a hit at `site` and returns what the schedule decided.
/// Disarmed, this is one relaxed atomic load.
#[inline]
pub fn hit(site: &str) -> Action {
    if !ARMED.load(Ordering::Relaxed) {
        return Action::Proceed;
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Action {
    let mut plan = PLAN.lock().expect("failpoint plan poisoned");
    let Some(rule) = plan.iter_mut().find(|r| r.site == site) else {
        return Action::Proceed;
    };
    rule.hits += 1;
    let action = match rule.schedule {
        Schedule::Always => Action::Fail,
        Schedule::First(k) => {
            if rule.hits <= k {
                Action::Fail
            } else {
                Action::Proceed
            }
        }
        Schedule::Every(n) => {
            if rule.hits % n == 0 {
                Action::Fail
            } else {
                Action::Proceed
            }
        }
        Schedule::Nth(k) => {
            if rule.hits == k {
                Action::Fail
            } else {
                Action::Proceed
            }
        }
        Schedule::Prob(p) => {
            if rule.rng.chance(p) {
                Action::Fail
            } else {
                Action::Proceed
            }
        }
        Schedule::AbortAt(k) => {
            if rule.hits == k {
                Action::Abort
            } else {
                Action::Proceed
            }
        }
    };
    if action != Action::Proceed {
        INJECTED.fetch_add(1, Ordering::Relaxed);
        if ctsim_obs::enabled() {
            ctsim_obs::counter_add("resilience.injected_faults", 1);
            ctsim_obs::instant(
                "failpoint",
                site.to_string(),
                vec![("hit", rule.hits.into())],
            );
        }
    }
    action
}

/// [`hit`] specialized for I/O sites: `Fail` becomes a synthetic
/// `io::Error` tagged with the site name, `Abort` aborts the process on
/// the spot (the whole point of crash injection is that no destructor,
/// flush, or unwind runs).
#[inline]
pub fn io_check(site: &str) -> std::io::Result<()> {
    match hit(site) {
        Action::Proceed => Ok(()),
        Action::Fail => Err(std::io::Error::other(format!(
            "injected fault (failpoint {site})"
        ))),
        Action::Abort => {
            // Flush nothing: simulate SIGKILL as closely as safe Rust can.
            eprintln!("failpoint {site}: injected crash (abort)");
            std::process::abort()
        }
    }
}

/// Total injected failures since process start (monotonic; survives
/// [`disarm`]). The CI chaos job gates on this being nonzero.
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Serializes tests that touch the process-wide registry. Hold the
/// guard for the whole test; pair with [`disarm`] before dropping it.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_fire_deterministically() {
        let _guard = test_lock();
        configure("a=first:2;b=every:3;c=nth:2", 7).unwrap();
        assert_eq!(hit("a"), Action::Fail);
        assert_eq!(hit("a"), Action::Fail);
        assert_eq!(hit("a"), Action::Proceed);
        assert_eq!(hit("b"), Action::Proceed);
        assert_eq!(hit("b"), Action::Proceed);
        assert_eq!(hit("b"), Action::Fail);
        assert_eq!(hit("c"), Action::Proceed);
        assert_eq!(hit("c"), Action::Fail);
        assert_eq!(hit("c"), Action::Proceed);
        assert_eq!(hit("unlisted"), Action::Proceed);
        disarm();
        assert_eq!(hit("a"), Action::Proceed);
    }

    #[test]
    fn probabilistic_schedules_replay_with_the_seed() {
        let _guard = test_lock();
        let draw = |seed: u64| -> Vec<Action> {
            configure("p=prob:0.4", seed).unwrap();
            let v = (0..64).map(|_| hit("p")).collect();
            disarm();
            v
        };
        let a = draw(42);
        let b = draw(42);
        let c = draw(43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.contains(&Action::Fail) && a.contains(&Action::Proceed));
    }

    #[test]
    fn io_check_tags_the_site() {
        let _guard = test_lock();
        configure("io.site=always", 0).unwrap();
        let before = injected_total();
        let err = io_check("io.site").unwrap_err();
        assert!(err.to_string().contains("failpoint io.site"), "{err}");
        assert!(injected_total() > before);
        disarm();
        assert!(io_check("io.site").is_ok());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["", "a", "a=unknown", "a=prob:2.0", "a=first:0", "a=first:x"] {
            assert!(configure(bad, 0).is_err(), "{bad:?} should be rejected");
        }
    }
}
