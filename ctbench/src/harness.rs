//! The closed-loop driver every workload runs under, and the result it
//! produces.
//!
//! Load shape: one client. Per workload the driver sets up several
//! times ([`SETUP_REPS`]; reporting the median set-up time), runs one
//! discarded warm-up op, then starts the next op as soon as the
//! previous one returns until `--seconds` have passed. Every op checks
//! its own output; an op that returns `Err`, panics, or misses its
//! reference counts as failed.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use ctsim_bench::alloc_counter;

use crate::json::{obj, Json};

/// Set-ups per run: at least `SETUP_REPS.0`, then more while they have
/// taken less than a second together, up to `SETUP_REPS.1`. `setup_s`
/// is their median. A set-up that takes seconds is repeated three
/// times; one that takes a millisecond is too short to time three
/// times and call it steady.
pub const SETUP_REPS: (usize, usize) = (3, 15);

/// No run reports a median of fewer timed ops than this, whatever
/// `--seconds` says.
pub const MIN_OPS: usize = 3;

/// Exploration and SpMV threads of every analytic workload
/// (`ReachOptions::threads`, `IterOptions::threads`). Fixed, so that
/// numbers from hosts with different core counts measure the same
/// program; the host's core count is in the provenance block.
pub const THREADS: usize = 2;

/// End-to-end metrics: `(name, unit)`, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] =
    [("op_s", "s"), ("peak_heap_bytes", "B"), ("setup_s", "s")];

#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the timed window of one workload, seconds.
    pub seconds: f64,
    /// Run the traced op and the per-layer probes as well.
    pub trace: bool,
    /// n = 2 stand-ins for every workload (schema check, not a
    /// measurement).
    pub smoke: bool,
    /// Self-test: shift every reference value so that every check must
    /// fail.
    pub corrupt_reference: bool,
    /// Where the chrome trace of the traced ops goes, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Directory for spill files; inside the checkout's build
    /// directory so the benchmark writes nowhere else.
    pub scratch: PathBuf,
}

/// What one op hands back to the driver besides success: named
/// sub-timings and deterministic counts.
#[derive(Debug, Default)]
pub struct Rec {
    pub samples: Vec<(&'static str, f64)>,
    pub counts: Vec<(&'static str, u64)>,
}

impl Rec {
    pub fn sample(&mut self, name: &'static str, seconds: f64) {
        self.samples.push((name, seconds));
    }
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.counts.push((name, n));
    }
}

/// Per-layer metric values of one traced run, keyed by the names in
/// [`crate::layers::PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::layers::PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric `{name}` is not declared in layers::PER_LAYER"
        );
        self.0.insert(name, value);
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Everything before the warm-up op: model build, pre-exploration,
    /// reference values.
    fn setup(cfg: &Cfg) -> Result<Self, String>;
    /// One op, output checked.
    fn op(&mut self, rec: &mut Rec) -> Result<(), String>;
    /// The traced op (decomposed into spans) and this workload's layer
    /// probes. `untraced` holds the timed window that just ended.
    fn traced(
        &mut self,
        cfg: &Cfg,
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String>;
}

/// Median and quartiles of a sample, computed like Python's
/// `statistics.median` / `statistics.quantiles(values, n=4)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = v.len();
    assert!(n > 0, "summarize needs a sample");
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quart = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quart(1),
        q3: quart(3),
        n,
    }
}

#[derive(Debug)]
pub struct WorkloadResult {
    pub name: &'static str,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Samples per timing metric (`op_s`, `setup_s`, sub-timings).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub peak_heap_bytes: u64,
    /// Counts that must repeat exactly between ops and between runs.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl WorkloadResult {
    /// Median of a timing metric's samples.
    pub fn median(&self, name: &str) -> f64 {
        summarize(&self.samples[name]).median
    }

    /// The value of an end-to-end metric as reported on the result line.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "peak_heap_bytes" => self.peak_heap_bytes as f64,
            _ => self.median(name),
        }
    }

    pub fn to_json(&self) -> Json {
        // Timings carry their quartiles and sample count; the ones that
        // are not end-to-end metrics are the ops' sub-timings.
        let (mut end_to_end, mut sub_timings) = (BTreeMap::new(), BTreeMap::new());
        for (name, v) in &self.samples {
            let s = summarize(v);
            let cell = obj([
                ("unit", Json::from("s")),
                ("value", s.median.into()),
                ("q1", s.q1.into()),
                ("q3", s.q3.into()),
                ("n", s.n.into()),
            ]);
            if END_TO_END.iter().any(|(n, _)| n == name) {
                end_to_end.insert(name.to_string(), cell);
            } else {
                sub_timings.insert(name.to_string(), cell);
            }
        }
        end_to_end.insert(
            "peak_heap_bytes".to_string(),
            obj([
                ("unit", Json::from("B")),
                ("value", self.peak_heap_bytes.into()),
            ]),
        );
        let fail_ratio = self.failed as f64 / self.attempted as f64;
        let mut doc = vec![
            ("attempted", Json::from(self.attempted)),
            ("failed", self.failed.into()),
            ("fail_ratio", fail_ratio.into()),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
            ("end_to_end", Json::Obj(end_to_end)),
            ("sub_timings", Json::Obj(sub_timings)),
            (
                "counts",
                obj(self.counts.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
        ];
        if !self.layers.is_empty() {
            doc.push((
                "per_layer",
                obj(crate::layers::PER_LAYER.iter().map(|(name, unit)| {
                    let value = self.layers.get(name).copied().unwrap_or(0.0);
                    (
                        *name,
                        obj([("value", Json::from(value)), ("unit", (*unit).into())]),
                    )
                })),
            ));
        }
        obj(doc)
    }
}

/// Runs `f`, turning a panic into an `Err` so that it counts as a
/// failed op instead of ending the benchmark.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

pub fn run<W: Workload>(cfg: &Cfg) -> Result<WorkloadResult, String> {
    let mut res = WorkloadResult {
        name: W::NAME,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        samples: BTreeMap::new(),
        peak_heap_bytes: 0,
        counts: BTreeMap::new(),
        layers: BTreeMap::new(),
    };

    // Set-up is not an op: a workload that cannot be set up has nothing
    // to measure, so that is an error of the run, not a failed op.
    let mut state = None;
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setup_s.iter().sum::<f64>() < 1.0)
    {
        drop(state.take());
        let t0 = Instant::now();
        let s = guarded(|| W::setup(cfg)).map_err(|e| format!("{}: set-up: {e}", W::NAME))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    res.samples.insert("setup_s", setup_s);
    let mut state = state.expect("at least one set-up ran");

    let attempt = |state: &mut W, res: &mut WorkloadResult, timed: bool| {
        let mut rec = Rec::default();
        let live0 = alloc_counter::live_bytes();
        alloc_counter::reset_peak();
        let t0 = Instant::now();
        let outcome = guarded(|| state.op(&mut rec));
        let op_s = t0.elapsed().as_secs_f64();
        let peak = alloc_counter::peak_bytes().saturating_sub(live0) as u64;
        res.attempted += 1;
        let mut fail = |msg: String| {
            res.failed += 1;
            if res.errors.len() < 8 {
                res.errors.push(msg);
            }
        };
        match outcome {
            Err(e) => fail(e),
            Ok(()) => {
                for (name, n) in rec.counts {
                    let first = *res.counts.entry(name).or_insert(n);
                    if first != n {
                        fail(format!("count {name} changed between ops: {first} -> {n}"));
                    }
                }
            }
        }
        if timed {
            res.samples.entry("op_s").or_default().push(op_s);
            for (name, s) in rec.samples {
                res.samples.entry(name).or_default().push(s);
            }
            res.peak_heap_bytes = res.peak_heap_bytes.max(peak);
        }
    };

    attempt(&mut state, &mut res, false);
    let window = Instant::now();
    let mut ops = 0;
    while ops < MIN_OPS || window.elapsed().as_secs_f64() < cfg.seconds {
        attempt(&mut state, &mut res, true);
        ops += 1;
    }

    if cfg.trace {
        let mut layers = Layers::default();
        crate::host::yardsticks(&mut layers);
        res.attempted += 1;
        if let Err(e) = guarded(|| state.traced(cfg, &res, &mut layers)) {
            res.failed += 1;
            res.errors.push(format!("traced op: {e}"));
        }
        res.layers = layers.0;
    }
    Ok(res)
}

/// Wall time of `f`, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall time of `reps` calls of `f`, seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    summarize(&times).median
}

/// `|got − want| ≤ rel·|want|`, as an op-failing check.
pub fn check_rel(what: &str, got: f64, want: f64, rel: f64) -> Result<(), String> {
    if (got - want).abs() <= rel * want.abs() {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {got:?}, reference {want:?} (tolerance {rel:e} relative)"
        ))
    }
}

pub fn check_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, reference {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quartiles must be the ones the acceptance rule computes
    /// (`statistics.quantiles(values, n=4)`, exclusive method).
    #[test]
    fn quartiles_match_python_statistics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn a_panicking_op_is_a_failed_op() {
        let r: Result<(), String> = guarded(|| panic!("boom"));
        assert_eq!(r.unwrap_err(), "panicked: boom");
    }
}
