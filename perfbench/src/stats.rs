//! Percentiles, span recording and self-time arithmetic.

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a percentile before it is
/// reported: below this, the figure is one or two outliers, not a
/// distribution.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`ceil(p·n)`-th smallest) of `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort a sample set for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a small set of repeated measurements (e.g. set-up times):
/// the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One recorded span: a call into a layer, timed from outside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `core.structure`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start: u64,
    /// Nanoseconds since the trace origin.
    pub end: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread, in-memory span recorder. Spans are written out only when
/// the run ends, so the recorder's cost is two clock reads and a push.
///
/// A disabled tracer runs the same code without reading the clock or
/// recording anything: the baseline the trace's own cost is measured
/// against.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (must be the innermost open span).
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
        self.open.pop();
        self.spans[id].end = end;
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread traces, rebasing parent indices.
pub fn merge(traces: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(traces.iter().map(Vec::len).sum());
    for t in traces {
        let base = all.len();
        all.extend(t.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a
/// child running past its parent is clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Write spans as tab-separated lines: id, parent, request, name,
/// start_ns, end_ns, self_ns.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
            s.request, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        // ceil(0.9 * 101) = 91.
        assert_eq!(percentile(&v, 0.9), Some(91.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // Rank 90 leaves 9 samples beyond it.
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn self_times_sum_to_root_duration() {
        let spans = [
            span("request", 0, 1000, None),
            span("a", 100, 400, Some(0)),
            span("a.x", 150, 250, Some(1)),
            span("b", 500, 900, Some(0)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration());
    }

    #[test]
    fn tracer_nests_and_merge_rebases_parents() {
        let origin = Instant::now();
        let mut off = Tracer::new(origin, false);
        let root = off.begin("request", 7);
        off.time("leaf", 7, || ());
        off.end(root);
        assert!(off.into_spans().is_empty());
        let mut t = Tracer::new(origin, true);
        let root = t.begin("request", 7);
        t.time("leaf", 7, || ());
        t.end(root);
        let one = t.into_spans();
        assert_eq!(one[1].parent, Some(0));
        let merged = merge(vec![one.clone(), one]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[2].parent, None);
        assert!(merged.iter().all(|s| s.end >= s.start));
    }
}
