//! Dependency-free telemetry for the analytic pipeline: spans,
//! monotonic counters and gauges, named sample series (solver residual
//! traces), power-of-two histograms, and per-thread event buffers —
//! with exporters for a human-readable run summary, a JSON metrics
//! document, and a chrome://tracing (`trace_event`) file.
//!
//! Like the `crates/compat/` shim, this crate is built for the
//! offline workspace: no `tracing`, no `serde` — the exporters
//! hand-roll their JSON.
//!
//! # Disabled-mode overhead guarantee
//!
//! Telemetry is **off by default** and must be switched on explicitly
//! with [`enable`]. While disabled, every recording entry point
//! ([`span`], [`instant`], [`counter_add`], [`counter_max`], [`gauge_set`],
//! [`gauge_max`], [`series_push`], [`hist_record`], [`hist_merge`],
//! [`record_span`]) reduces to **one
//! relaxed atomic load and a predictable branch** — no clock read, no
//! allocation, no lock. Instrumented hot loops additionally guard
//! their argument construction behind [`enabled`] so a disabled build
//! pays nothing for `format!`/`Vec` work either. The benchmark
//! (`ctbench/`) times every workload with telemetry disabled — those
//! are the `op_s` figures its bounds apply to — and once more traced,
//! reporting the ratio as `trace.overhead_ratio`; a clock read on a
//! disabled hot path would show in the first, the recorder's own cost
//! in the second.
//!
//! # Capturing a trace
//!
//! ```
//! ctsim_obs::enable();
//! {
//!     let _s = ctsim_obs::span("demo", "work").arg("items", 3u64);
//!     ctsim_obs::counter_add("demo.items", 3);
//!     ctsim_obs::series_push("demo.residual", 1.0, 0.125);
//! }
//! let trace = ctsim_obs::chrome_trace_json(); // load in chrome://tracing
//! let metrics = ctsim_obs::metrics_json();
//! assert!(trace.contains("\"ph\": \"X\""));
//! assert!(metrics.contains("demo.items"));
//! ctsim_obs::disable();
//! ```
//!
//! Spans record on `Drop` as chrome `"ph": "X"` complete events with
//! microsecond timestamps relative to the [`enable`] call; each OS
//! thread gets its own buffer (and `tid`), so recording never contends
//! across workers. Buffers are capped at [`EVENT_CAP_PER_THREAD`]
//! events per thread; overflow is counted in the
//! `obs.dropped_events` metric instead of growing without bound.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered events per OS thread; overflow increments the
/// `obs.dropped_events` metric rather than allocating further.
pub const EVENT_CAP_PER_THREAD: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Whether telemetry is currently recording. One relaxed atomic load —
/// the entire disabled-mode cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A recorded event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// An unsigned integer argument.
    U64(u64),
    /// A signed integer argument.
    I64(i64),
    /// A floating-point argument.
    F64(f64),
    /// A string argument.
    Str(String),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U64(v)
    }
}
impl From<usize> for ArgVal {
    fn from(v: usize) -> Self {
        ArgVal::U64(v as u64)
    }
}
impl From<u32> for ArgVal {
    fn from(v: u32) -> Self {
        ArgVal::U64(v as u64)
    }
}
impl From<i64> for ArgVal {
    fn from(v: i64) -> Self {
        ArgVal::I64(v)
    }
}
impl From<f64> for ArgVal {
    fn from(v: f64) -> Self {
        ArgVal::F64(v)
    }
}
impl From<&str> for ArgVal {
    fn from(v: &str) -> Self {
        ArgVal::Str(v.to_string())
    }
}
impl From<String> for ArgVal {
    fn from(v: String) -> Self {
        ArgVal::Str(v)
    }
}

type Args = Vec<(&'static str, ArgVal)>;

#[derive(Debug, Clone)]
enum Ev {
    Span {
        cat: &'static str,
        name: Cow<'static, str>,
        t0_us: u64,
        dur_us: u64,
        args: Args,
    },
    Instant {
        cat: &'static str,
        name: Cow<'static, str>,
        t_us: u64,
        args: Args,
    },
}

type ThreadBuf = Arc<Mutex<Vec<Ev>>>;

struct Global {
    epoch: Mutex<Option<Instant>>,
    /// Every thread buffer ever registered (kept alive past thread
    /// exit so export sees the full run).
    registry: Mutex<Vec<(u32, ThreadBuf)>>,
    counters: Mutex<std::collections::BTreeMap<String, u64>>,
    gauges: Mutex<std::collections::BTreeMap<String, f64>>,
    series: Mutex<std::collections::BTreeMap<String, Vec<(f64, f64)>>>,
    hists: Mutex<std::collections::BTreeMap<String, Hist>>,
}

/// A power-of-two-bucket histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones).
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Per-bucket sample counts; index = position of the highest set
    /// bit of the sample (0 for samples ≤ 1).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub total: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Hist {
    /// Records one sample. A hot loop records into a `Hist` of its own
    /// and hands it to [`hist_merge`] now and then, instead of paying
    /// [`hist_record`]'s registry lock per sample.
    pub fn record(&mut self, v: u64) {
        let bucket = if v <= 1 {
            0
        } else {
            64 - (v - 1).leading_zeros() as usize
        };
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global {
        epoch: Mutex::new(None),
        registry: Mutex::new(Vec::new()),
        counters: Mutex::new(Default::default()),
        gauges: Mutex::new(Default::default()),
        series: Mutex::new(Default::default()),
        hists: Mutex::new(Default::default()),
    })
}

/// Switches telemetry on, clearing all previously recorded data and
/// anchoring the trace clock at "now". Timestamps in exported traces
/// are microseconds since this call.
pub fn enable() {
    let g = global();
    *g.epoch.lock().unwrap() = Some(Instant::now());
    for (_, buf) in g.registry.lock().unwrap().iter() {
        buf.lock().unwrap().clear();
    }
    g.counters.lock().unwrap().clear();
    g.gauges.lock().unwrap().clear();
    g.series.lock().unwrap().clear();
    g.hists.lock().unwrap().clear();
    DROPPED.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Switches telemetry off. Recorded data stays available to the
/// exporters until the next [`enable`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Microseconds since the [`enable`] anchor (0 when disabled or never
/// enabled). Use with [`record_span`] to emit batch spans whose
/// boundaries are measured manually.
pub fn now_us() -> u64 {
    if !enabled() {
        return 0;
    }
    match *global().epoch.lock().unwrap() {
        Some(epoch) => epoch.elapsed().as_micros() as u64,
        None => 0,
    }
}

thread_local! {
    static LOCAL: std::cell::OnceCell<(u32, ThreadBuf)> = const { std::cell::OnceCell::new() };
}

fn push_event(ev: Ev) {
    LOCAL.with(|cell| {
        let (_, buf) = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let buf: ThreadBuf = Arc::new(Mutex::new(Vec::new()));
            global().registry.lock().unwrap().push((tid, buf.clone()));
            (tid, buf)
        });
        let mut b = buf.lock().unwrap();
        if b.len() < EVENT_CAP_PER_THREAD {
            b.push(ev);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// An in-flight span; records a chrome `"ph": "X"` complete event when
/// dropped. Obtain one with [`span`]; attach arguments with
/// [`Span::arg`]. A span created while telemetry is disabled is inert.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    live: bool,
    cat: &'static str,
    name: Cow<'static, str>,
    t0_us: u64,
    args: Args,
}

impl Span {
    /// Attaches a key/value argument (builder style).
    pub fn arg(mut self, key: &'static str, val: impl Into<ArgVal>) -> Self {
        if self.live {
            self.args.push((key, val.into()));
        }
        self
    }

    /// Attaches a key/value argument in place (for args only known at
    /// the end of the span).
    pub fn push_arg(&mut self, key: &'static str, val: impl Into<ArgVal>) {
        if self.live {
            self.args.push((key, val.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live && enabled() {
            let dur_us = now_us().saturating_sub(self.t0_us);
            push_event(Ev::Span {
                cat: self.cat,
                name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                t0_us: self.t0_us,
                dur_us,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// Starts a span in category `cat`. When telemetry is disabled this
/// returns an inert guard without reading the clock.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    if !enabled() {
        return Span {
            live: false,
            cat,
            name: Cow::Borrowed(""),
            t0_us: 0,
            args: Vec::new(),
        };
    }
    Span {
        live: true,
        cat,
        name: name.into(),
        t0_us: now_us(),
        args: Vec::new(),
    }
}

/// Records a completed span whose boundaries were measured manually
/// (`t0_us` from [`now_us`]) — the batch-span primitive for loops that
/// group many iterations into one event.
pub fn record_span(cat: &'static str, name: impl Into<Cow<'static, str>>, t0_us: u64, args: Args) {
    if !enabled() {
        return;
    }
    let dur_us = now_us().saturating_sub(t0_us);
    push_event(Ev::Span {
        cat,
        name: name.into(),
        t0_us,
        dur_us,
        args,
    });
}

/// Records a zero-duration instant event (rendered as a chrome `"i"`
/// mark), e.g. an arena segment seal or a GMRES restart.
pub fn instant(cat: &'static str, name: impl Into<Cow<'static, str>>, args: Args) {
    if !enabled() {
        return;
    }
    push_event(Ev::Instant {
        cat,
        name: name.into(),
        t_us: now_us(),
        args,
    });
}

/// Adds `delta` to the named monotonic counter.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    *global()
        .counters
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_insert(0) += delta;
}

/// Raises the named counter to `value` if it is lower: a high-water
/// mark over every run that reports one, such as a peak queue length.
pub fn counter_max(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut counters = global().counters.lock().unwrap();
    let c = counters.entry(name.to_string()).or_insert(0);
    *c = (*c).max(value);
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    global()
        .gauges
        .lock()
        .unwrap()
        .insert(name.to_string(), value);
}

/// Raises the named gauge to `value` if it is lower (or unset): the
/// largest value any run reported, such as the widest packed key.
pub fn gauge_max(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut gauges = global().gauges.lock().unwrap();
    let g = gauges.entry(name.to_string()).or_insert(value);
    *g = g.max(value);
}

/// Appends an `(x, y)` sample to the named series — e.g.
/// `(iteration, residual)` for a solver convergence trace.
pub fn series_push(name: &str, x: f64, y: f64) {
    if !enabled() {
        return;
    }
    global()
        .series
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_default()
        .push((x, y));
}

/// Records `value` into the named power-of-two histogram — e.g. intern
/// probe lengths or per-shard SpMV nanoseconds.
pub fn hist_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    global()
        .hists
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Adds every sample of `part` to the named histogram, as if each had
/// gone through [`hist_record`].
pub fn hist_merge(name: &str, part: &Hist) {
    if !enabled() || part.total == 0 {
        return;
    }
    let mut hists = global().hists.lock().unwrap();
    let h = hists.entry(name.to_string()).or_default();
    if h.counts.len() < part.counts.len() {
        h.counts.resize(part.counts.len(), 0);
    }
    for (into, &n) in h.counts.iter_mut().zip(&part.counts) {
        *into += n;
    }
    h.total += part.total;
    h.sum += part.sum;
    h.max = h.max.max(part.max);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn json_args(args: &Args, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape_json(k, out);
        out.push_str("\": ");
        match v {
            ArgVal::U64(x) => {
                let _ = write!(out, "{x}");
            }
            ArgVal::I64(x) => {
                let _ = write!(out, "{x}");
            }
            ArgVal::F64(x) => json_f64(*x, out),
            ArgVal::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

fn collect_events() -> Vec<(u32, Ev)> {
    let mut all = Vec::new();
    for (tid, buf) in global().registry.lock().unwrap().iter() {
        for ev in buf.lock().unwrap().iter() {
            all.push((*tid, ev.clone()));
        }
    }
    all.sort_by_key(|(_, ev)| match ev {
        Ev::Span { t0_us, .. } => *t0_us,
        Ev::Instant { t_us, .. } => *t_us,
    });
    all
}

/// Renders every recorded event as a chrome://tracing `trace_event`
/// JSON document (`{"traceEvents": [...]}`); load the file via the
/// "Load" button of chrome://tracing or <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(
        "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"ctsim\"}}",
    );
    for (tid, ev) in collect_events() {
        out.push_str(",\n  ");
        match ev {
            Ev::Span {
                cat,
                name,
                t0_us,
                dur_us,
                args,
            } => {
                out.push_str("{\"name\": \"");
                escape_json(&name, &mut out);
                let _ = write!(
                    out,
                    "\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {t0_us}, \
                     \"dur\": {dur_us}, \"pid\": 1, \"tid\": {tid}, \"args\": "
                );
                json_args(&args, &mut out);
                out.push('}');
            }
            Ev::Instant {
                cat,
                name,
                t_us,
                args,
            } => {
                out.push_str("{\"name\": \"");
                escape_json(&name, &mut out);
                let _ = write!(
                    out,
                    "\", \"cat\": \"{cat}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {t_us}, \
                     \"pid\": 1, \"tid\": {tid}, \"args\": "
                );
                json_args(&args, &mut out);
                out.push('}');
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders counters, gauges, series (residual traces), and histograms
/// as one JSON metrics document.
pub fn metrics_json() -> String {
    let g = global();
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (k, v)) in g.counters.lock().unwrap().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_json(k, &mut out);
        let _ = write!(out, "\": {v}");
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (k, v)) in g.gauges.lock().unwrap().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_json(k, &mut out);
        out.push_str("\": ");
        json_f64(*v, &mut out);
    }
    out.push_str("\n  },\n  \"series\": {");
    for (i, (k, pts)) in g.series.lock().unwrap().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_json(k, &mut out);
        out.push_str("\": [");
        for (j, (x, y)) in pts.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('[');
            json_f64(*x, &mut out);
            out.push_str(", ");
            json_f64(*y, &mut out);
            out.push(']');
        }
        out.push(']');
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (k, h)) in g.hists.lock().unwrap().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_json(k, &mut out);
        let _ = write!(
            out,
            "\": {{\"pow2_counts\": {:?}, \"total\": {}, \"sum\": {}, \"max\": {}, \"mean\": ",
            h.counts, h.total, h.sum, h.max
        );
        json_f64(h.mean(), &mut out);
        out.push('}');
    }
    let _ = write!(
        out,
        "\n  }},\n  \"dropped_events\": {}\n}}\n",
        DROPPED.load(Ordering::Relaxed)
    );
    out
}

/// Renders a short human-readable run summary: counters, gauges, and
/// histogram/series digests.
pub fn summary() -> String {
    let g = global();
    let mut out = String::from("telemetry summary\n");
    let events: usize = g
        .registry
        .lock()
        .unwrap()
        .iter()
        .map(|(_, b)| b.lock().unwrap().len())
        .sum();
    let _ = writeln!(
        out,
        "  events: {events} ({} dropped at the {} per-thread cap)",
        DROPPED.load(Ordering::Relaxed),
        EVENT_CAP_PER_THREAD
    );
    for (k, v) in g.counters.lock().unwrap().iter() {
        let _ = writeln!(out, "  counter {k} = {v}");
    }
    for (k, v) in g.gauges.lock().unwrap().iter() {
        let _ = writeln!(out, "  gauge   {k} = {v}");
    }
    for (k, pts) in g.series.lock().unwrap().iter() {
        let last = pts.last().map(|&(_, y)| y).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  series  {k}: {} samples, last y = {last:e}",
            pts.len()
        );
    }
    for (k, h) in g.hists.lock().unwrap().iter() {
        let _ = writeln!(
            out,
            "  hist    {k}: n = {}, mean = {:.2}, max = {}",
            h.total,
            h.mean(),
            h.max
        );
    }
    out
}

// ---------------------------------------------------------------------
// Host info
// ---------------------------------------------------------------------

/// Static facts about the machine a run executed on, recorded into
/// bench result files so thread-sweep numbers are interpretable (a
/// single-core container cannot show parallel speedups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostInfo {
    /// Logical CPU count visible to this process.
    pub logical_cores: usize,
    /// Virtual-memory page size in bytes (0 when undeterminable).
    pub page_size_bytes: u64,
    /// Total physical RAM in bytes (0 when undeterminable).
    pub total_ram_bytes: u64,
}

/// Probes the host: logical cores via `available_parallelism`, page
/// size from the ELF auxiliary vector (`AT_PAGESZ`), total RAM from
/// `/proc/meminfo`. The latter two read 0 on platforms without procfs.
pub fn host_info() -> HostInfo {
    HostInfo {
        logical_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        page_size_bytes: page_size(),
        total_ram_bytes: total_ram(),
    }
}

/// `AT_PAGESZ` from `/proc/self/auxv`: pairs of native-endian
/// pointer-size words `(key, value)`, key 6 = page size.
fn page_size() -> u64 {
    const AT_PAGESZ: u64 = 6;
    let Ok(bytes) = std::fs::read("/proc/self/auxv") else {
        return 0;
    };
    let word = std::mem::size_of::<usize>();
    let mut it = bytes.chunks_exact(word);
    while let (Some(k), Some(v)) = (it.next(), it.next()) {
        let key = usize::from_ne_bytes(k.try_into().expect("exact chunk")) as u64;
        if key == AT_PAGESZ {
            return usize::from_ne_bytes(v.try_into().expect("exact chunk")) as u64;
        }
    }
    0
}

/// `MemTotal` from `/proc/meminfo` (reported in kB).
fn total_ram() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/meminfo") else {
        return 0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("MemTotal:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is global, so tests that toggle it serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static L: Mutex<()> = Mutex::new(());
        L.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _l = lock();
        disable();
        {
            let _s = span("t", "never").arg("k", 1u64);
        }
        counter_add("t.c", 5);
        gauge_set("t.g", 1.0);
        series_push("t.s", 0.0, 1.0);
        hist_record("t.h", 7);
        enable(); // clears and arms; nothing from above may appear
        let m = metrics_json();
        assert!(!m.contains("t.c"), "{m}");
        assert!(!m.contains("t.s"), "{m}");
        disable();
    }

    #[test]
    fn span_counter_series_hist_round_trip() {
        let _l = lock();
        enable();
        {
            let mut s = span("cat", "unit").arg("n", 42u64);
            s.push_arg("label", "x\"y");
            counter_add("c.events", 2);
            counter_add("c.events", 3);
            counter_max("c.peak", 7);
            counter_max("c.peak", 4);
            gauge_set("g.occ", 0.75);
            series_push("residual", 1.0, 1e-3);
            series_push("residual", 2.0, 1e-6);
            hist_record("probes", 1);
            hist_record("probes", 5);
        }
        instant("cat", "mark", vec![("v", ArgVal::F64(2.5))]);
        let trace = chrome_trace_json();
        assert!(trace.contains("\"name\": \"unit\""), "{trace}");
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"ph\": \"i\""));
        assert!(trace.contains("x\\\"y"), "escaped quote: {trace}");
        let m = metrics_json();
        assert!(m.contains("\"c.events\": 5"), "{m}");
        assert!(m.contains("\"c.peak\": 7"), "{m}");
        assert!(m.contains("\"g.occ\": 0.75"), "{m}");
        assert!(m.contains("[1, 0.001], [2, 0.000001]"), "{m}");
        assert!(m.contains("\"probes\""), "{m}");
        let s = summary();
        assert!(s.contains("counter c.events = 5"), "{s}");
        assert!(s.contains("series  residual: 2 samples"), "{s}");
        disable();
    }

    #[test]
    fn enable_resets_previous_run() {
        let _l = lock();
        enable();
        counter_add("old", 1);
        {
            let _s = span("t", "old-span");
        }
        enable();
        counter_add("new", 1);
        let m = metrics_json();
        assert!(!m.contains("\"old\""), "{m}");
        assert!(m.contains("\"new\": 1"), "{m}");
        assert!(!chrome_trace_json().contains("old-span"));
        disable();
    }

    #[test]
    fn batch_spans_and_threads_record_under_own_tids() {
        let _l = lock();
        enable();
        let t0 = now_us();
        record_span("t", "batch", t0, vec![("iters", ArgVal::U64(64))]);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _sp = span("t", "worker");
                });
            }
        });
        let trace = chrome_trace_json();
        assert!(trace.contains("\"batch\""), "{trace}");
        assert_eq!(trace.matches("\"worker\"").count(), 2, "{trace}");
        disable();
    }

    #[test]
    fn hist_buckets_are_pow2() {
        let mut h = Hist::default();
        for v in [0, 1, 2, 3, 4, 8, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.total, 8);
        assert_eq!(h.max, 1000);
        // 0,1 -> bucket 0; 2 -> 1; 3,4 -> 2; 8 -> 3; 9 -> 4; 1000 -> 10.
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.counts[10], 1);
    }

    /// Merging locally recorded histograms reads the same as recording
    /// every sample through the registry.
    #[test]
    fn hist_merge_equals_per_sample_recording() {
        let _l = lock();
        enable();
        let samples = [1u64, 1, 2, 7, 1, 300, 3];
        let (mut a, mut b) = (Hist::default(), Hist::default());
        for (i, &v) in samples.iter().enumerate() {
            hist_record("one.by.one", v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        hist_merge("merged", &a);
        hist_merge("merged", &b);
        hist_merge("merged", &Hist::default());
        let m = metrics_json();
        let body = |name: &str| {
            let at = m.find(&format!("\"{name}\": ")).expect("histogram present");
            m[at + name.len() + 4..]
                .lines()
                .next()
                .unwrap()
                .trim_end_matches(',')
                .to_string()
        };
        assert_eq!(body("merged"), body("one.by.one"), "{m}");
        assert!(
            body("merged").contains("\"total\": 7, \"sum\": 315, \"max\": 300"),
            "{m}"
        );
        disable();
    }

    #[test]
    fn host_info_is_sane() {
        let h = host_info();
        assert!(h.logical_cores >= 1);
        // On Linux both procfs probes succeed; elsewhere they read 0.
        if cfg!(target_os = "linux") {
            assert!(h.page_size_bytes >= 4096, "{h:?}");
            assert!(h.total_ram_bytes > 0, "{h:?}");
        }
    }

    #[test]
    fn json_escapes_control_chars_and_nonfinite() {
        let mut s = String::new();
        escape_json("a\u{1}\n\"\\", &mut s);
        assert_eq!(s, "a\\u0001\\n\\\"\\\\");
        let mut f = String::new();
        json_f64(f64::NAN, &mut f);
        assert_eq!(f, "null");
    }
}
