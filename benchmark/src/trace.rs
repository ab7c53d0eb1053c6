//! In-memory span recorder owned by the benchmark.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! crates' public functions — no file outside `benchmark/` gains a timer.
//! A span's *self time* is its duration minus the part its child spans
//! cover; self times are summed per span name and per layer as spans
//! close, so a fleet pass with millions of slices costs no memory beyond
//! the capped list of full records kept for the trace file.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers are the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Frontend,
    Ir,
    Analysis,
    Core,
    Runtime,
    Kernel,
    Vm,
    Workloads,
}

impl Layer {
    pub const CRATES: [Layer; 8] = [
        Layer::Frontend,
        Layer::Ir,
        Layer::Analysis,
        Layer::Core,
        Layer::Runtime,
        Layer::Kernel,
        Layer::Vm,
        Layer::Workloads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Frontend => "frontend",
            Layer::Ir => "ir",
            Layer::Analysis => "analysis",
            Layer::Core => "core",
            Layer::Runtime => "runtime",
            Layer::Kernel => "kernel",
            Layer::Vm => "vm",
            Layer::Workloads => "workloads",
        }
    }
}

/// What a span worked on: spans of one program run or one tenant batch
/// share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    None,
    /// A program or tenant-image name.
    Name(&'static str),
    /// A slice number, wave number or pid.
    Id(u64),
}

/// One closed span, as written to the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing recorded span.
    pub parent: Option<u32>,
    pub request: Request,
}

/// Per-name totals over every span closed, recorded in full or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    pub layer: Layer,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    record: Option<u32>,
}

/// Full records kept for the trace file; later spans still count toward
/// the totals. 200k records are ~40 MB of Chrome trace JSON, which the
/// viewers still open.
const MAX_RECORDS: usize = 200_000;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    records: Vec<SpanRecord>,
    totals: BTreeMap<&'static str, SpanTotals>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder that does nothing: `scope` runs its closure and reads
    /// no clock.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            records: Vec::new(),
            totals: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span. Spans nest: a `scope` called from inside
    /// `f` becomes a child of this one.
    #[inline]
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: Request,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.enter_at(name, layer, request, now);
        let r = f(self);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.exit_at(now);
        r
    }

    /// Add `n` to a named count, taken at the same boundary as a span.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    fn enter_at(&mut self, name: &'static str, layer: Layer, request: Request, now: u64) {
        let record = (self.records.len() < MAX_RECORDS).then(|| {
            let parent = self.open.last().and_then(|o| o.record);
            self.records.push(SpanRecord {
                name,
                layer,
                start_ns: now,
                end_ns: now,
                parent,
                request,
            });
            (self.records.len() - 1) as u32
        });
        self.open.push(Open {
            name,
            layer,
            start_ns: now,
            child_ns: 0,
            record,
        });
    }

    fn exit_at(&mut self, now: u64) {
        let Some(span) = self.open.pop() else {
            return;
        };
        let dur = now.saturating_sub(span.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = span.record {
            self.records[i as usize].end_ns = now;
        }
        let t = self.totals.entry(span.name).or_insert(SpanTotals {
            layer: span.layer,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(span.child_ns);
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    pub fn span(&self, name: &str) -> Option<SpanTotals> {
        self.totals.get(name).copied()
    }

    /// Mean duration of the spans called `name`, in microseconds (0 when
    /// none closed).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.span(name)
            .filter(|t| t.count > 0)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e3)
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Summed self time of every span of `layer`.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        self.totals
            .values()
            .filter(|t| t.layer == layer)
            .map(|t| t.self_ns)
            .sum()
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Write the recorded spans as Chrome trace-event JSON (loadable in
    /// `chrome://tracing` and Perfetto). Timestamps are microseconds.
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.records.iter().enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            match s.request {
                Request::None => {}
                Request::Name(n) => write!(out, ",\"request\":\"{n}\"")?,
                Request::Id(n) => write!(out, ",\"request\":{n}")?,
            }
            out.write_all(b"}}")?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on();
        // pass [0,100) { load [10,30) { decode [12,20) }  run [30,90) }
        t.enter_at("pass", Layer::Workloads, Request::None, 0);
        t.enter_at("load", Layer::Kernel, Request::Name("mcf"), 10);
        t.enter_at("decode", Layer::Vm, Request::Name("mcf"), 12);
        t.exit_at(20);
        t.exit_at(30);
        t.enter_at("run", Layer::Vm, Request::Name("mcf"), 30);
        t.exit_at(90);
        t.exit_at(100);
        let get = |n: &str| t.span(n).unwrap();
        assert_eq!((get("pass").total_ns, get("pass").self_ns), (100, 20));
        assert_eq!((get("load").total_ns, get("load").self_ns), (20, 12));
        assert_eq!((get("decode").total_ns, get("decode").self_ns), (8, 8));
        assert_eq!(t.layer_self_ns(Layer::Vm), 68);
        assert_eq!(t.layer_self_ns(Layer::Kernel), 12);
        // Self times partition the root span.
        let all: u64 = t.totals().values().map(|s| s.self_ns).sum();
        assert_eq!(all, 100);
        // Parent links follow the nesting.
        let parents: Vec<_> = t.records().iter().map(|r| r.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn repeated_spans_accumulate_and_counts_add() {
        let mut t = Tracer::on();
        for i in 0..3u64 {
            t.enter_at("slice", Layer::Vm, Request::Id(i), i * 10);
            t.exit_at(i * 10 + 4);
        }
        t.count("slices", 2);
        t.count("slices", 1);
        assert_eq!(t.span("slice").unwrap().count, 3);
        assert_eq!(t.span("slice").unwrap().total_ns, 12);
        assert!((t.mean_us("slice") - 0.004).abs() < 1e-12);
        assert_eq!(t.counts()["slices"], 3);
        assert_eq!(t.mean_us("absent"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.scope("x", Layer::Vm, Request::None, |t| {
            t.count("c", 1);
            7
        });
        assert_eq!(v, 7);
        assert!(t.totals().is_empty() && t.counts().is_empty() && t.records().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::on();
        t.scope("outer", Layer::Core, Request::Name("lbm"), |t| {
            t.scope("inner", Layer::Ir, Request::Id(3), |_| ());
        });
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let Some(crate::json::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("ir"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("request").unwrap().as_f64(), Some(3.0));
    }
}
