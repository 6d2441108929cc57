//! In-memory spans for the traced run: name, start, end, parent, op id,
//! plus the allocations the calling thread made inside the span. Self
//! time and self allocations exclude child spans.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// The pass over the workload's distinct inputs this op belongs to;
    /// work counters are taken from pass 0 only, so they repeat exactly.
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

impl Span {
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }

    pub fn self_allocs(&self) -> u64 {
        self.allocs.saturating_sub(self.child_allocs)
    }
}

/// One thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    pass: u32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    /// Attribute the following spans to op `op` of pass `pass`.
    pub fn begin_op(&mut self, op: u64, pass: u32) {
        self.op = op;
        self.pass = pass;
    }

    /// Run `f` inside a span named `name`. The parent is charged the
    /// whole call, the tracer's own bookkeeping included, as child time,
    /// while the child's window covers `f` alone: pushing the span record
    /// (which may grow the span list) counts against neither self cost.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let outer_allocs0 = alloc::thread_allocs();
        let outer_start = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            child_ns: 0,
            child_allocs: 0,
        });
        self.stack.push(idx);
        let allocs0 = alloc::thread_allocs();
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let allocs = alloc::thread_allocs() - allocs0;
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        span.allocs = allocs;
        if let Some(p) = span.parent {
            let outer_end = self.now_ns();
            self.spans[p].child_ns += outer_end - outer_start;
            self.spans[p].child_allocs += alloc::thread_allocs() - outer_allocs0;
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-span-name totals over a finished trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Self time over every pass.
    pub self_ns: u64,
    /// Spans over every pass.
    pub count: u64,
    /// Self allocations in pass 0.
    pub allocs_pass0: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.self_ns += s.self_ns();
        t.count += 1;
        if s.pass == 0 {
            t.allocs_pass0 += s.self_allocs();
        }
    }
    out
}

/// Every span as one JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"pass\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"allocs\":{},\"self_allocs\":{}}}",
            s.name,
            s.op,
            s.pass,
            s.start_ns,
            s.end_ns,
            s.self_ns(),
            s.allocs,
            s.self_allocs()
        );
    }
    out
}
