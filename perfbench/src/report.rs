//! Metric collection and the report lines the benchmark prints.

use crate::replay::Replayed;
use crate::stats::{median, percentile, self_times, sorted, Span};
use std::collections::BTreeMap;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    /// Per-layer timings reported as a mean because fewer than
    /// `2 * MIN_BEYOND` calls were made (no reportable median).
    pub means: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.into(), value, unit));
    }

    /// A timing series: `<base>.<unit>` = median (mean below twenty
    /// samples, 0 with none), `<base>.total_ms` and `<base>.calls`.
    /// `samples` are in the metric's unit.
    pub fn timing(&mut self, base: &str, unit: &'static str, samples: Vec<f64>, to_ms: f64) {
        let calls = samples.len();
        let total = samples.iter().fold(0.0, |a, b| a + b);
        let s = sorted(samples);
        let mid = match percentile(&s, 0.5) {
            Some(p) => p,
            None if calls > 0 => {
                self.means.push(format!("{base}.{unit}"));
                total / calls as f64
            }
            None => 0.0,
        };
        self.put(format!("{base}.{unit}"), mid, unit);
        self.put(format!("{base}.total_ms"), total * to_ms, "ms");
        self.put(format!("{base}.calls"), calls as f64, "count");
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Layer spans reported per call: span name, metric base, unit, and the
/// factor from nanoseconds to that unit.
pub const LAYER_SPANS: &[(&str, &str, f64)] = &[
    ("ir.parse", "ms", 1e-6),
    ("core.detransform", "ms", 1e-6),
    ("core.devectorize", "ms", 1e-6),
    ("core.naming", "ms", 1e-6),
    ("core.structure", "ms", 1e-6),
    ("cfront.emit", "ms", 1e-6),
    ("core.fingerprint", "us", 1e-3),
    ("core.reprepare", "ms", 1e-6),
    ("core.digest", "us", 1e-3),
    ("serve.lru.get", "us", 1e-3),
    ("serve.codec.encode", "us", 1e-3),
    ("cachestore.put", "us", 1e-3),
    ("cachestore.flush", "ms", 1e-6),
    ("cachestore.get", "us", 1e-3),
    ("cfront.relower", "ms", 1e-6),
    ("validate.check", "ms", 1e-6),
    ("interp.vm_new", "us", 1e-3),
    ("interp.source_run", "ms", 1e-6),
    ("interp.relowered_run", "ms", 1e-6),
];

/// Layers of certified decompilation. `batch-cold` takes their figures
/// from a separate certifying replay of its inputs, so they do not mix
/// into its decompile-only replay.
pub const VALIDATION_LAYERS: &[&str] = &[
    "cfront.relower",
    "validate.check",
    "interp.vm_new",
    "interp.source_run",
    "interp.relowered_run",
];

/// Self times in nanoseconds, grouped by span name.
fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        by.entry(s.name).or_default().push(own);
    }
    by
}

/// Per-layer timing metrics: the [`VALIDATION_LAYERS`] from
/// `validation`, every other layer from `spans`. Returns the total time
/// of the request roots of `spans` and the self time of everything below
/// them.
pub fn layer_metrics(m: &mut Metrics, spans: &[Span], validation: &[Span]) -> (f64, f64) {
    let by = self_times_by_name(spans);
    let vby = self_times_by_name(validation);
    for &(name, unit, scale) in LAYER_SPANS {
        let from = if VALIDATION_LAYERS.contains(&name) {
            &vby
        } else {
            &by
        };
        let samples: Vec<f64> = from
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64 * scale).collect())
            .unwrap_or_default();
        m.timing(name, unit, samples, 1e-6 / scale);
    }
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration() as f64)
        .sum();
    let below: f64 = by
        .iter()
        .filter(|(n, _)| **n != "request")
        .flat_map(|(_, v)| v.iter().map(|&ns| ns as f64))
        .sum();
    (roots, below)
}

/// Per-layer figures every workload's traced run reports: layer timings,
/// exact counts, and the trace's own cost (`traced` against the same
/// replay with the tracer off). Validation figures come from `certified`,
/// a traced replay with validation on (`traced` itself in
/// `validate-cold`).
pub fn put_replay_layers(
    m: &mut Metrics,
    traced: &Replayed,
    untraced: &Replayed,
    certified: &Replayed,
) {
    let spans = &traced.spans;
    let (first, all) = (&traced.first, &traced.all);
    let (roots, below) = layer_metrics(m, spans, &certified.spans);
    let parse_s = total_self(spans, "ir.parse") * 1e-9;
    m.put(
        "ir.parse.mb_s",
        frac(all.parsed_bytes as f64 / 1e6, parse_s),
        "MB/s",
    );
    m.put(
        "core.devectorize.loops",
        first.devectorized_loops as f64,
        "count",
    );
    m.put(
        "core.devectorize.recovered_frac",
        frac(first.devectorized_loops as f64, first.vector_loops as f64),
        "frac",
    );
    m.put(
        "core.structure.share",
        frac(total_self(spans, "core.structure"), roots),
        "frac",
    );
    let vspans = &certified.spans;
    let vfirst = &certified.first;
    m.put("validate.verified", vfirst.verified as f64, "count");
    m.put("validate.unverified", vfirst.unverified as f64, "count");
    let run_s = (total_self(vspans, "interp.source_run")
        + total_self(vspans, "interp.relowered_run"))
        * 1e-9;
    m.put(
        "interp.minsts_s",
        frac(certified.all.insts as f64 / 1e6, run_s),
        "Minst/s",
    );
    m.put("interp.insts", vfirst.insts as f64, "count");
    m.put(
        "trace.overhead_frac",
        1.0 - traced.throughput / untraced.throughput,
        "frac",
    );
    m.put("trace.accounted_frac", frac(below, roots), "frac");
    m.put("trace.spans", spans.len() as f64, "count");
}

/// Total self time of one span name, in nanoseconds.
pub fn total_self(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, own)| own as f64)
        .sum()
}

/// Latency summary: the nearest-rank p50 and p90 of each window (a pass,
/// or a time slice of the timed loop), and their medians over the
/// windows, so a burst of load from outside the benchmark moves one
/// window, not the result. A window with fewer than ten samples beyond
/// its p90 is left out; returns how many windows counted, and fails when
/// none did.
pub fn latency(m: &mut Metrics, windows: &[Vec<f64>]) -> Result<usize, String> {
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for w in windows {
        let s = sorted(w.clone());
        if let (Some(p50), Some(p90)) = (percentile(&s, 0.5), percentile(&s, 0.9)) {
            p50s.push(p50);
            p90s.push(p90);
        }
    }
    if p90s.is_empty() {
        let n: usize = windows.iter().map(Vec::len).sum();
        return Err(format!("{n} requests are too few to report p90"));
    }
    m.put("latency_p50_ms", median(&p50s), "ms");
    m.put("latency_p90_ms", median(&p90s), "ms");
    Ok(p90s.len())
}

pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(m: &Metrics, name: &str) -> f64 {
        m.entries
            .iter()
            .find(|e| e.0 == name)
            .expect("metric present")
            .1
    }

    #[test]
    fn latency_is_the_median_of_window_percentiles() {
        let window = |offset: f64| (1..=100).map(|i| f64::from(i) + offset).collect::<Vec<_>>();
        let mut m = Metrics::default();
        // The third window has too few samples beyond p90 and is left out.
        let windows = [
            window(0.0),
            window(1000.0),
            window(0.0)[..50].to_vec(),
            window(1.0),
        ];
        assert_eq!(latency(&mut m, &windows), Ok(3));
        assert_eq!(value(&m, "latency_p50_ms"), 51.0);
        assert_eq!(value(&m, "latency_p90_ms"), 91.0);
        assert!(latency(&mut Metrics::default(), &[window(0.0)[..99].to_vec()]).is_err());
    }
}
