//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public functions: name, start, end and the span that
//! caused it. They stay in memory until the run ends, then go to a
//! tab-separated file. A layer's self time is its spans' duration minus
//! the part covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span (index into the recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), seconds.
    pub self_s: f64,
}

/// The span recorder. `Tracer::off()` records nothing, so workload code
/// can call it unconditionally on the untraced path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans.
    pub fn on() -> Tracer {
        Tracer { on: true, origin: Instant::now(), spans: Vec::new() }
    }

    /// A recorder that drops everything (the untraced run).
    pub fn off() -> Tracer {
        Tracer { on: false, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::begin`]; returns its duration in
    /// seconds (0 when recording is off).
    pub fn end(&mut self, id: Option<SpanId>) -> f64 {
        let Some(SpanId(i)) = id else { return 0.0 };
        let end_ns = self.now_ns();
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Time `f` inside a span named `name`; returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per-name totals and self times.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as `id parent name start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |SpanId(p)| p.to_string());
            writeln!(w, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let root = t.begin("root", None);
        t.span("child", root, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(root);
        let times = t.layer_times();
        let (root, child) = (&times["root"], &times["child"]);
        assert_eq!((root.count, child.count), (1, 1));
        assert!(child.total_s >= 0.005);
        assert!(root.self_s < root.total_s - 0.004, "{root:?}");
        assert!((child.self_s - child.total_s).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", None);
        assert_eq!(t.end(id), 0.0);
        assert!(t.layer_times().is_empty());
    }
}
