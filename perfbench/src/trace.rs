//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the run is measured
//! and are written out when it ends. A span's self time is its duration
//! minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One thread's span log. With tracing off every call is a no-op that
/// never reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans (same origin), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Share of the root spans' time that no child span accounts for:
/// 1 − (Σ self time of the layer spans under them ÷ Σ root duration).
pub fn unaccounted_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut root_total, mut root_self) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            root_total += s.duration_ns();
            root_self += own;
        }
    }
    if root_total == 0 {
        return 0.0;
    }
    root_self as f64 / root_total as f64
}

/// Per span name: durations in ms, self time in ms.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (Samples, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (Samples, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = out.entry(s.name).or_default();
        entry.0.push(s.duration_ns() as f64 / 1e6);
        entry.1 += own as f64 / 1e6;
    }
    out
}

/// The waterfall: one row per span name, with its p50/p95 duration and
/// total self time (p95 only where the sample rule allows it).
pub fn waterfall(title: &str, spans: &[Span]) -> String {
    let mut out = format!(
        "# waterfall {title}\n# {:<28} {:>7} {:>10} {:>10} {:>12}\n",
        "span", "count", "p50 ms", "p95 ms", "self ms"
    );
    for (name, (durations, self_ms)) in by_name(spans) {
        let p95 = durations
            .p95()
            .map_or_else(|_| "-".to_string(), |v| format!("{v:.3}"));
        out.push_str(&format!(
            "# {:<28} {:>7} {:>10.3} {:>10} {:>12.1}\n",
            name,
            durations.len(),
            durations.p50().unwrap_or(0.0),
            p95,
            self_ms
        ));
    }
    out.push_str(&format!(
        "# unaccounted share {:.4}\n",
        unaccounted_share(spans)
    ));
    out
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children from different threads overlap on [30, 40).
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 20, 40, Some(0)),
            span("y", 30, 50, Some(0)),
            span("z", 35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn unaccounted_share_is_root_self_over_root_time() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 75, Some(0)),
            span("root2", 200, 300, None),
            span("b", 200, 275, Some(2)),
        ];
        assert!((unaccounted_share(&spans) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tracer_links_parents_and_absorbs() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let root = t.begin("root", 0);
        let child = t.begin("child", 7);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        let mut other = Tracer::new(true, origin);
        let r = other.begin("root", 1);
        let c = other.begin("child", 1);
        other.end(c);
        other.end(r);
        t.absorb(other);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, Some(2));

        let mut off = Tracer::new(false, origin);
        let id = off.begin("root", 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
