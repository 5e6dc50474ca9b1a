//! The traced op: spans recorded from the harness with `ctsim_obs`,
//! around calls into each crate's public functions, and read back
//! through the recorder's own exporters (`chrome_trace_json`,
//! `metrics_json`) — one recorder, one source of truth.
//!
//! Spans stay in the recorder's memory until the op has ended. A
//! layer's self time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::harness::{Cfg, Layers, WorkloadResult};
use crate::json::Json;

/// Category of every span the harness records.
pub const CAT: &str = "ctbench";
/// The share of a full-size traced op its layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;
/// Name of the span around the whole traced op; the parent of every
/// layer span.
const OP: &str = "op";

/// Id of the traced op in progress (or the last one).
static OP_ID: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
pub struct SpanEv {
    pub cat: String,
    pub name: String,
    pub ts_us: u64,
    pub dur_us: u64,
    pub tid: u64,
}

/// Everything one traced op left in the recorder.
#[derive(Debug)]
pub struct Traced {
    pub spans: Vec<SpanEv>,
    pub counters: BTreeMap<String, u64>,
    /// The chrome://tracing document, for `--trace-out`.
    pub chrome: String,
}

/// A span around one layer's share of the traced op, child of the op
/// span. Name it after the layer (`solve.graph.explore`).
pub fn layer(name: &'static str) -> ctsim_obs::Span {
    ctsim_obs::span(CAT, name)
        .arg("op", OP_ID.load(Ordering::Relaxed))
        .arg("parent", OP)
}

/// Runs `f` as one traced op: telemetry on, an op span around it,
/// telemetry off, then the recorder's documents parsed.
pub fn record<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, Traced), String> {
    let id = OP_ID.fetch_add(1, Ordering::Relaxed) + 1;
    ctsim_obs::enable();
    let out = {
        let _op = ctsim_obs::span(CAT, OP).arg("op", id);
        f()
    };
    ctsim_obs::disable();
    let out = out?;
    let chrome = ctsim_obs::chrome_trace_json();
    let spans = parse_spans(&chrome);
    let counters = Json::parse(&ctsim_obs::metrics_json())
        .ok()
        .and_then(|m| m.get("counters").and_then(Json::as_obj).cloned())
        .map(|m| {
            m.into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()? as u64)))
                .collect()
        })
        .unwrap_or_default();
    Ok((
        out,
        Traced {
            spans,
            counters,
            chrome,
        },
    ))
}

fn parse_spans(chrome: &str) -> Vec<SpanEv> {
    let doc = Json::parse(chrome).expect("ctsim_obs writes valid JSON");
    let events = doc.get("traceEvents").map(Json::as_arr).unwrap_or(&[]);
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| {
            Some(SpanEv {
                cat: e.get("cat")?.as_str()?.to_string(),
                name: e.get("name")?.as_str()?.to_string(),
                ts_us: e.get("ts")?.as_f64()? as u64,
                dur_us: e.get("dur")?.as_f64()? as u64,
                tid: e.get("tid")?.as_f64()? as u64,
            })
        })
        .collect()
}

impl Traced {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Wall time of the traced op, seconds.
    pub fn op_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.cat == CAT && s.name == OP)
            .map(|s| s.dur_us as f64 * 1e-6)
            .sum()
    }

    /// Self time per layer span, seconds. The layer spans are the
    /// harness's own plus the program's existing spans named in
    /// `program` (`(cat, name)`; keyed `cat.name`) — used where one
    /// public call is the whole op and the program already marks its
    /// stages.
    pub fn self_times(&self, program: &[(&str, &str)]) -> BTreeMap<String, f64> {
        let mut layer_spans: Vec<(&SpanEv, String)> = self
            .spans
            .iter()
            .filter_map(|s| {
                if s.cat == CAT && s.name != OP {
                    Some((s, s.name.clone()))
                } else if program.contains(&(s.cat.as_str(), s.name.as_str())) {
                    Some((s, format!("{}.{}", s.cat, s.name)))
                } else {
                    None
                }
            })
            .collect();
        // Parents before children: by thread, by start, longest first.
        layer_spans.sort_by_key(|(s, _)| (s.tid, s.ts_us, std::cmp::Reverse(s.dur_us)));
        let mut self_us: Vec<i64> = layer_spans.iter().map(|(s, _)| s.dur_us as i64).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, (s, _)) in layer_spans.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let p = layer_spans[top].0;
                if p.tid == s.tid && s.ts_us + s.dur_us <= p.ts_us + p.dur_us {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                self_us[parent] -= s.dur_us as i64;
            }
            stack.push(i);
        }
        let mut out = BTreeMap::new();
        for ((_, label), us) in layer_spans.iter().zip(self_us) {
            *out.entry(label.clone()).or_insert(0.0) += us.max(0) as f64 * 1e-6;
        }
        out
    }

    /// Sum of layer self times ÷ traced op wall.
    pub fn coverage(&self, program: &[(&str, &str)]) -> f64 {
        self.self_times(program).values().sum::<f64>() / self.op_s()
    }

    /// Reports the harness's own metrics of this traced op and writes
    /// its chrome trace under `--trace-out`. At full size the layer
    /// spans must account for [`MIN_COVERAGE`] of the op.
    pub fn report(
        &self,
        cfg: &Cfg,
        workload: &str,
        program: &[(&str, &str)],
        untraced: &WorkloadResult,
        out: &mut Layers,
    ) -> Result<(), String> {
        let coverage = self.coverage(program);
        out.set("trace.coverage", coverage);
        out.set(
            "trace.overhead_ratio",
            self.op_s() / untraced.median("op_s"),
        );
        out.set("trace.spans", self.spans.len() as f64);
        if let Some(dir) = &cfg.trace_out {
            let path = dir.join(format!("{workload}.trace.json"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &self.chrome))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        // The n = 2 stand-ins finish in microseconds, the resolution of
        // a span.
        if !cfg.smoke && coverage < MIN_COVERAGE {
            return Err(format!(
                "layer spans cover {coverage:.3} of the traced op, less than {MIN_COVERAGE}: {:?}",
                self.self_times(program)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &str, name: &str, ts_us: u64, dur_us: u64, tid: u64) -> SpanEv {
        SpanEv {
            cat: cat.to_string(),
            name: name.to_string(),
            ts_us,
            dur_us,
            tid,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Traced {
            spans: vec![
                ev(CAT, OP, 0, 1000, 1),
                ev(CAT, "a", 0, 600, 1),
                ev("prog", "inner", 100, 200, 1),
                ev("prog", "ignored", 100, 50, 1),
                ev(CAT, "b", 600, 300, 1),
                ev("prog", "inner", 0, 100, 2),
            ],
            counters: BTreeMap::new(),
            chrome: String::new(),
        };
        let st = t.self_times(&[("prog", "inner")]);
        assert!((st["a"] - 400e-6).abs() < 1e-12, "{st:?}");
        assert!((st["b"] - 300e-6).abs() < 1e-12, "{st:?}");
        assert!((st["prog.inner"] - 300e-6).abs() < 1e-12, "{st:?}");
        assert!((t.coverage(&[]) - 0.9).abs() < 1e-12);
    }
}
