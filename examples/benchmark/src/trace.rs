//! Spans recorded around calls into the layers, kept in memory and
//! written as JSONL when the benchmark ends.
//!
//! A span is a closed wall-clock interval with a name of the form
//! `layer/call`, the span that caused it, and the number of calls it
//! covers. A call issued once per session (an offer) is recorded as one
//! span per batch of consecutive calls, with `calls` set to the batch
//! size; everything else gets a span per call. Spans of layer `bench`
//! are the benchmark's own loops: their self time is the unattributed
//! share.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dms_sim::JsonValue;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

impl Span {
    /// The part of the name before `/`.
    pub fn layer(&self) -> &'static str {
        self.name.split('/').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one thread. Tracers of other threads share the
/// epoch and take a distinct thread number, so ids never collide.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    next: u64,
    base_parent: Option<u64>,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            thread: 0,
            next: 0,
            base_parent: None,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread whose top-level spans are children
    /// of `parent`.
    pub fn for_thread(&self, thread: u64, parent: Option<u64>) -> Tracer {
        Tracer {
            thread,
            base_parent: parent,
            ..Tracer::new(self.epoch)
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant, calls: u64) -> usize {
        let id = (self.thread << 48) | self.next;
        self.next += 1;
        let parent = self.current();
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Id of the innermost open span (or the thread's base parent).
    pub fn current(&self) -> Option<u64> {
        self.open
            .last()
            .map(|&i| self.spans[i].id)
            .or(self.base_parent)
    }

    /// Opens a span that later spans nest under; returns its id.
    pub fn open(&mut self, name: &'static str) -> u64 {
        let now = Instant::now();
        let at = self.push(name, now, now, 1);
        self.open.push(at);
        self.spans[at].id
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let at = self.open.pop().expect("close without open");
        self.spans[at].end_ns = self.ns(Instant::now());
    }

    /// Records a finished interval under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, calls: u64) {
        self.push(name, start, end, calls);
    }

    /// Takes over the spans another thread recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Spans recorded so far, in recording order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and calls of spans named `name` recorded at index
    /// `from` or later.
    pub fn sum_since(&self, from: usize, name: &str) -> (u64, u64) {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| {
                (ns + s.duration_ns(), calls + s.calls)
            })
    }

    /// Median duration in seconds of the spans named `name`.
    pub fn median_s(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        crate::stats::median(&v)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            JsonValue::Object(vec![
                ("id".into(), JsonValue::Uint(s.id)),
                (
                    "parent".into(),
                    s.parent.map_or(JsonValue::Null, JsonValue::Uint),
                ),
                ("name".into(), JsonValue::from(s.name)),
                ("start_ns".into(), JsonValue::Uint(s.start_ns)),
                ("end_ns".into(), JsonValue::Uint(s.end_ns)),
                ("calls".into(), JsonValue::Uint(s.calls)),
            ])
            .render_compact_into(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Runs `f`, recording it as a span only when tracing.
pub fn timed<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    calls: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr.as_deref_mut() {
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.leaf(name, start, Instant::now(), calls);
            out
        }
        None => f(),
    }
}

/// Self time summed per layer, over every span.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub layer: &'static str,
    pub self_ns: u64,
    pub calls: u64,
}

/// Self times per layer (sorted by layer name) and the summed duration
/// of the top-level spans, which is the traced wall time of all threads.
///
/// A span's self time is its duration minus the part of it that its
/// children cover; children running in parallel on other threads are
/// merged into one covered set first.
pub fn self_times(spans: &[Span]) -> (Vec<LayerTime>, u64) {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut by_layer: HashMap<&'static str, (u64, u64)> = HashMap::new();
    let mut wall = 0u64;
    let mut covered: Vec<(u64, u64)> = Vec::new();
    for s in spans {
        covered.clear();
        if let Some(kids) = children.get(&s.id) {
            covered.extend(kids.iter().map(|&k| {
                let c = &spans[k];
                (
                    c.start_ns.clamp(s.start_ns, s.end_ns),
                    c.end_ns.clamp(s.start_ns, s.end_ns),
                )
            }));
        }
        let self_ns = s.duration_ns() - union_len(&mut covered);
        let entry = by_layer.entry(s.layer()).or_insert((0, 0));
        entry.0 += self_ns;
        entry.1 += s.calls;
        if s.parent.is_none() {
            wall += s.duration_ns();
        }
    }
    let mut rows: Vec<LayerTime> = by_layer
        .into_iter()
        .map(|(layer, (self_ns, calls))| LayerTime {
            layer,
            self_ns,
            calls,
        })
        .collect();
    rows.sort_by_key(|r| r.layer);
    (rows, wall)
}

/// Length of the union of half-open intervals (sorts `intervals`).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            calls: 1,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        let mut v = vec![(10, 20), (0, 5), (15, 30), (40, 50)];
        assert_eq!(union_len(&mut v), 5 + 20 + 10);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, "bench/run", 0, 100),
            span(2, Some(1), "serve.engine/step_slot", 10, 40),
            // Two parallel shard runs overlap: covered once.
            span(3, Some(1), "cluster.shards/exec", 50, 90),
            span(4, Some(3), "cluster.shards/run", 50, 85),
            span(5, Some(3), "cluster.shards/run", 55, 90),
        ];
        let (rows, wall) = self_times(&spans);
        assert_eq!(wall, 100);
        let get = |layer: &str| rows.iter().find(|r| r.layer == layer).unwrap().self_ns;
        assert_eq!(get("bench"), 100 - 30 - 40);
        assert_eq!(get("serve.engine"), 30);
        // exec is fully covered by its children; the runs count whole.
        assert_eq!(get("cluster.shards"), 35 + 35);
    }

    #[test]
    fn tracer_nests_and_sums() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("bench/run");
        let now = Instant::now();
        t.leaf("serve.engine/offer", now, now, 7);
        t.leaf("serve.engine/offer", now, now, 3);
        t.close();
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.sum_since(0, "serve.engine/offer").1, 10);
        let worker = t.for_thread(3, Some(root));
        assert_eq!(worker.current(), Some(root));
    }
}
