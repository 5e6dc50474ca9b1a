//! Deterministic failpoint registry.
//!
//! A failpoint is a named call site (`"spill.read"`, `"ddd.append_run"`,
//! …) placed just before a fallible operation. With no schedule armed —
//! the production default — [`hit`] is one relaxed atomic load and a
//! branch, so the sites cost nothing. Arming a schedule with
//! [`configure`] turns chosen hits into injected failures that exercise
//! the retry and fallback machinery end to end. [`SITES`] lists every
//! site the program hits.
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
//!
//! e.g. `csr.page_in=first:2;ddd.append_run=1in:7;solver.krylov=nth:3`.
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
//! (the CI fault-injection legs) pin `--threads 1`.

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
}

/// Every failpoint site the program hits. [`configure_known`] refuses a
/// spec naming any other site; `docs/RESILIENCE.md` tabulates them.
pub const SITES: &[&str] = &[
    "spill.create",
    "csr.page_in",
    "csr.page_out",
    "pack.page_in",
    "pack.page_out",
    "ddd.append_run",
    "ddd.read_run",
    "solver.krylov",
];

#[derive(Debug, Clone, Copy)]
enum Schedule {
    Always,
    First(u64),
    Every(u64),
    Nth(u64),
    Prob(f64),
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
/// Total injected failures since process start.
static INJECTED: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Vec<Rule>> = Mutex::new(Vec::new());
/// Serializes tests that arm the process-wide registry.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Parses and arms a fault schedule. Replaces any previous schedule.
/// See the module docs for the grammar; `seed` feeds the per-site
/// [`SimRng`] substreams of probabilistic schedules. Any site name is
/// accepted; [`configure_known`] admits only the program's [`SITES`].
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    arm(parse(spec, seed)?);
    Ok(())
}

/// [`configure`] for a spec from the command line: a site outside
/// [`SITES`] is an error, not a schedule that never fires.
pub fn configure_known(spec: &str, seed: u64) -> Result<(), String> {
    let rules = parse(spec, seed)?;
    if let Some(rule) = rules.iter().find(|r| !SITES.contains(&r.site.as_str())) {
        return Err(format!(
            "failpoint spec: unknown site {:?} (sites: {})",
            rule.site,
            SITES.join(", ")
        ));
    }
    arm(rules);
    Ok(())
}

fn parse(spec: &str, seed: u64) -> Result<Vec<Rule>, String> {
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
    Ok(rules)
}

fn arm(rules: Vec<Rule>) {
    *PLAN.lock().expect("failpoint plan poisoned") = rules;
    ARMED.store(true, Ordering::Release);
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
    let fail = match rule.schedule {
        Schedule::Always => true,
        Schedule::First(k) => rule.hits <= k,
        Schedule::Every(n) => rule.hits % n == 0,
        Schedule::Nth(k) => rule.hits == k,
        Schedule::Prob(p) => rule.rng.chance(p),
    };
    if !fail {
        return Action::Proceed;
    }
    INJECTED.fetch_add(1, Ordering::Relaxed);
    if ctsim_obs::enabled() {
        ctsim_obs::counter_add("resilience.injected_faults", 1);
        ctsim_obs::instant(
            "failpoint",
            site.to_string(),
            vec![("hit", rule.hits.into())],
        );
    }
    Action::Fail
}

/// [`hit`] specialized for I/O sites: `Fail` becomes a synthetic
/// `io::Error` tagged with the site name.
#[inline]
pub fn io_check(site: &str) -> std::io::Result<()> {
    match hit(site) {
        Action::Proceed => Ok(()),
        Action::Fail => Err(std::io::Error::other(format!(
            "injected fault (failpoint {site})"
        ))),
    }
}

/// Total injected failures since process start (monotonic; survives
/// [`disarm`]). The CI fault-injection legs gate on this being nonzero.
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

    #[test]
    fn configure_known_admits_only_catalogued_sites() {
        let _guard = test_lock();
        let err = configure_known("csr.page_in=first:1;nosuch.site=always", 0).unwrap_err();
        assert!(err.contains("unknown site \"nosuch.site\""), "{err}");
        assert_eq!(
            hit("csr.page_in"),
            Action::Proceed,
            "a refused spec arms nothing"
        );
        let every: Vec<String> = SITES.iter().map(|s| format!("{s}=always")).collect();
        configure_known(&every.join(";"), 0).unwrap();
        disarm();
    }

    /// The site table of `docs/RESILIENCE.md` names exactly [`SITES`].
    #[test]
    fn the_documented_site_table_mirrors_the_catalogue() {
        let doc = include_str!("../../../docs/RESILIENCE.md");
        let table = doc
            .split("### Site catalog")
            .nth(1)
            .and_then(|t| t.split("\n\n").find(|p| p.starts_with('|')))
            .expect("a site table under `### Site catalog`");
        let mut documented: Vec<&str> = table
            .lines()
            .skip(2)
            .flat_map(|row| {
                row.split('|')
                    .nth(1)
                    .unwrap_or("")
                    .split('`')
                    .skip(1)
                    .step_by(2)
            })
            .collect();
        documented.sort_unstable();
        let mut sites = SITES.to_vec();
        sites.sort_unstable();
        assert_eq!(documented, sites);
    }
}
