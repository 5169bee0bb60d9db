//! In-memory spans around the harness's calls into the program.
//!
//! The program has no stage clocks of its own yet, so every layer is
//! measured from outside: a span opens before a public call and closes
//! after it. Spans nest (a replayed query decomposes into `overlapping` →
//! per-shard `dpt().answer` → `merge`), spans of one request share a
//! request id, and each carries a count of the work done at that boundary.
//! A tracer that is off costs one branch per call site, which is what the
//! end-to-end runs use; the traced run reports the difference.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// "No span": the parent of a root, and what a disabled tracer hands out.
pub const NONE: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// Request the span belongs to (`NONE` for phase-level spans).
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (rows, ops, sub-queries — per the name).
    pub count: u32,
}

/// One thread's span recorder. Threads record separately and are merged
/// with [`Tracer::absorb`] once they have joined.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock and switch.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span after the fact, from times on this recorder's clock
    /// (for waits that were spent inside a driver that cannot call back).
    pub fn record(&mut self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                parent,
                req: NONE,
                start_ns,
                end_ns,
                count: 0,
            });
        }
    }

    #[inline]
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u32) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    #[inline]
    pub fn close(&mut self, id: SpanId, count: usize) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count.min(u32::MAX as usize) as u32;
    }

    /// Records a span around `f`.
    #[inline]
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u32,
        count: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id, count);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// `(spans, mean ns, max ns)` of the spans called `name`.
    pub fn durations(&self, name: &str) -> (usize, f64, u64) {
        let (mut n, mut total, mut max) = (0usize, 0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            let d = s.end_ns - s.start_ns;
            n += 1;
            total += d;
            max = max.max(d);
        }
        (n, total as f64 / n.max(1) as f64, max)
    }

    /// Nanoseconds one `open`/`close` pair costs on this machine, measured
    /// on a scratch recorder.
    pub fn calibrate_span_cost_ns() -> f64 {
        let mut scratch = Tracer::new(true, Instant::now());
        let n = 200_000;
        scratch.spans.reserve(n);
        let started = Instant::now();
        for i in 0..n {
            let id = scratch.open("harness.calibrate", NONE, i as u32);
            scratch.close(id, 0);
        }
        started.elapsed().as_nanos() as f64 / n as f64
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, SelfRow> = BTreeMap::new();
        let mut root_ns = 0u64;
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let dur = span.end_ns - span.start_ns;
            let row = rows.entry(span.name).or_default();
            row.self_ns += dur.saturating_sub(*children);
            row.spans += 1;
            row.count += span.count as u64;
            if span.parent == NONE {
                root_ns += dur;
            }
        }
        SelfTimes { rows, root_ns }
    }

    /// Writes spans as JSON lines: every phase-level span, and the spans
    /// of every `keep_every`-th request, up to `cap` lines (a traced run
    /// records a span per operation — millions — and the file is for
    /// reading, the self-time table is computed from all of them).
    pub fn write_jsonl(&self, path: &Path, keep_every: u32, cap: usize) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0usize;
        for (id, s) in self.spans.iter().enumerate() {
            if s.req != NONE && s.req % keep_every.max(1) != 0 {
                continue;
            }
            if written == cap {
                break;
            }
            let opt = |v: u32| if v == NONE { -1 } else { v as i64 };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                opt(s.parent),
                opt(s.req),
                s.name,
                s.start_ns,
                s.end_ns,
                s.count
            )?;
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfRow {
    pub self_ns: u64,
    pub spans: u64,
    pub count: u64,
}

/// The self-time table of one traced run.
pub struct SelfTimes {
    pub rows: BTreeMap<&'static str, SelfRow>,
    /// Total duration of the root spans: the traced wall, summed over
    /// threads. The rows' self times add up to exactly this.
    pub root_ns: u64,
}

impl SelfTimes {
    /// Share of the traced wall spent in the root spans themselves (they
    /// are all called `root_name`) — harness time that no program call
    /// accounts for — in percent.
    pub fn unattributed_pct(&self, root_name: &str) -> f64 {
        let own = self.rows.get(root_name).map_or(0, |r| r.self_ns);
        100.0 * own as f64 / self.root_ns.max(1) as f64
    }

    /// Rolled up by layer (the span name up to its first dot).
    pub fn by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (name, row) in &self.rows {
            *layers
                .entry(name.split('.').next().unwrap_or(name))
                .or_insert(0) += row.self_ns;
        }
        layers
    }

    pub fn render(&self) -> String {
        let mut text = format!(
            "{:<34} {:>12} {:>7} {:>10} {:>12}\n",
            "span", "self_ms", "share%", "spans", "count"
        );
        for (name, row) in &self.rows {
            text += &format!(
                "{:<34} {:>12.3} {:>7.2} {:>10} {:>12}\n",
                name,
                row.self_ns as f64 / 1e6,
                100.0 * row.self_ns as f64 / self.root_ns.max(1) as f64,
                row.spans,
                row.count
            );
        }
        text += &format!(
            "{:<34} {:>12.3} {:>7.2}\n",
            "= traced wall",
            self.root_ns as f64 / 1e6,
            100.0
        );
        for (layer, ns) in self.by_layer() {
            text += &format!(
                "  layer {:<26} {:>12.3} {:>7.2}\n",
                layer,
                ns as f64 / 1e6,
                100.0 * ns as f64 / self.root_ns.max(1) as f64
            );
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            req: NONE,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_wall() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("harness.timed", NONE, 0, 1_000),
            span("cluster.query", 0, 100, 600),
            span("core.dpt_answer", 1, 200, 500),
            span("core.insert", 0, 700, 900),
        ];
        let table = t.self_times();
        assert_eq!(table.root_ns, 1_000);
        assert_eq!(table.rows["harness.timed"].self_ns, 300);
        assert_eq!(table.rows["cluster.query"].self_ns, 200);
        assert_eq!(table.rows["core.dpt_answer"].self_ns, 300);
        assert_eq!(table.rows["core.insert"].self_ns, 200);
        let total: u64 = table.rows.values().map(|r| r.self_ns).sum();
        assert_eq!(total, table.root_ns);
        assert_eq!(table.by_layer()["core"], 500);
        assert!((table.unattributed_pct("harness.timed") - 30.0).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("core.insert", NONE, 0);
        t.close(id, 3);
        assert_eq!(t.call("core.query", NONE, 0, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut a = Tracer::new(true, Instant::now());
        let root = a.open("harness.timed", NONE, NONE);
        a.close(root, 0);
        let mut b = a.sibling();
        let root_b = b.open("harness.timed", NONE, NONE);
        let child = b.open("cluster.query", root_b, 0);
        b.close(child, 1);
        b.close(root_b, 0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NONE);
    }
}
