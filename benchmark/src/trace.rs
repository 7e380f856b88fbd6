//! In-memory spans recorded by the harness around its calls into each
//! layer's public functions, dumped as JSON when the benchmark ends.
//!
//! Phase spans (machine build, preload, run, flush, verify, ...) are cheap
//! and always recorded — `setup_s` and `run_s` are read from them. Per-op
//! spans around workload-closure calls are what "tracing on" adds: each
//! costs two clock reads, which is the overhead `trace.overhead_pct` reports.
//! Where ops are only a few microseconds long, every `stride`-th call is
//! spanned, so that the overhead stays small.

use std::fmt::Write as _;
use std::time::Instant;

/// One phase span. `parent` indexes [`Tracer::spans`]; `rep` is shared by
/// every span of one cell run (the request identifier).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One per-op span: a call of the workload closure, child of a `run` span.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub inst: u16,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    /// Per-op spans of the current rep: every `stride`-th closure call of
    /// a traced rep, none of an untraced one (`stride == 0`).
    pub ops: Vec<OpSpan>,
    stride: u64,
    /// Closure calls of the current rep.
    calls: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            ops: Vec::new(),
            stride: 0,
            calls: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a new rep: later spans carry a fresh identifier, and every
    /// `stride`-th closure call gets a per-op span (0: none).
    pub fn begin_rep(&mut self, stride: u64) {
        self.rep += 1;
        self.stride = stride;
        self.restart_ops();
    }

    /// Forget the per-op spans of an abandoned measured phase.
    pub fn restart_ops(&mut self) {
        self.calls = 0;
        self.ops.clear();
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` and return its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Run one workload-closure call, as a per-op span if it is due one.
    #[inline]
    pub fn op<T>(&mut self, inst: usize, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if self.stride == 0 || !self.calls.is_multiple_of(self.stride) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.ops.push(OpSpan {
            start_ns: (start - self.t0).as_nanos() as u64,
            dur_ns: dur.as_nanos().min(u32::MAX as u128) as u32,
            inst: inst as u16,
        });
        out
    }

    /// Seconds inside the closure calls of the current rep, estimated from
    /// the calls that were spanned.
    pub fn ops_total_s(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        let spanned = self.ops.iter().map(|o| o.dur_ns as u64).sum::<u64>() as f64 / 1e9;
        spanned * self.calls as f64 / self.ops.len() as f64
    }

    /// Write every phase span and the current rep's per-op spans to `path`.
    /// Op spans are flattened to `[start_ns, dur_ns, instance]` triples whose
    /// parent is the traced rep's `run` span.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 + self.spans.len() * 96 + self.ops.len() * 28);
        s.push_str("{\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"rep\":{},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.rep, sp.start_ns, sp.end_ns
            );
        }
        let run_parent = self
            .spans
            .iter()
            .rposition(|sp| sp.name == "run" && sp.rep == self.rep)
            .map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "\n],\"op_spans\":{{\"parent\":{run_parent},\"stride\":{},\"count\":{},\"start_dur_inst\":[",
            self.stride,
            self.ops.len()
        );
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{},{},{}", o.start_ns, o.dur_ns, o.inst);
        }
        s.push_str("]}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
