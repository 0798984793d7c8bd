//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call (or one externally observed interval, such as submit → `accepted`
//! on the daemon's socket), and a layer's self time is its spans'
//! durations minus the parts of them that child spans cover.
//!
//! Span names are `<layer>.<operation>`; the layer is the part before the
//! first dot.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request or cell the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's layer: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer. A disabled tracer records nothing, so untimed and
/// timed code can share one path.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an interval measured by the caller; returns its index
    /// (meaningless when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                request,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Opens a span that ends at [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, index: usize) {
        if self.enabled {
            let end = self.ns(Instant::now());
            self.spans[index].end_ns = end;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in nanoseconds: its duration minus the union
    /// of its children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (
                            c.start_ns.clamp(span.start_ns, span.end_ns),
                            c.end_ns.clamp(span.start_ns, span.end_ns),
                        )
                    })
                    .collect();
                covered.sort_unstable();
                let mut covered_ns = 0;
                let mut reach = span.start_ns;
                for (start, end) in covered {
                    let start = start.max(reach);
                    if end > start {
                        covered_ns += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered_ns
            })
            .collect()
    }

    /// Self time per layer, in seconds.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.layer()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // apps.trial [0, 100) holds registry.materialize [10, 30) and a
        // nested child [50, 90), which itself holds [60, 70).
        let t = tracer_with(vec![
            span("apps.trial", 0, 100, None),
            span("registry.materialize", 10, 30, Some(0)),
            span("fpu.kernel", 50, 90, Some(0)),
            span("linalg.spmv", 60, 70, Some(2)),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 20, 30, 10]);
        let by_layer = t.self_seconds_by_layer();
        assert!((by_layer["apps"] - 40e-9).abs() < 1e-18);
        assert!((by_layer["linalg"] - 10e-9).abs() < 1e-18);
        // Self times add up to the root's duration.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_as_a_union() {
        // Two concurrent children overlap on [40, 60); one overhangs the
        // parent's end and is clipped to it.
        let t = tracer_with(vec![
            span("protocol.submit", 0, 100, None),
            span("runner.cells", 20, 60, Some(0)),
            span("runner.cells", 40, 130, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        let id = off.open("apps.trial", None, 1);
        off.close(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.open("runner.grid", None, 0);
        let child = on.open("runner.emit", Some(root), 0);
        on.close(child);
        on.close(root);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.to_json().starts_with("[{\"name\":\"runner.grid\""));
    }
}
