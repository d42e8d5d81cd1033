//! Spans recorded from the benchmark's own files, around each call into
//! a crate's public API. Kept in memory; written out once at exit.
//!
//! The crates themselves are not instrumented by this benchmark (that
//! is a later change), so a span's *name* is the public call it wraps
//! (`service.push_datagram`, `proto.query.collect_rows`, …) and its
//! children are the nested calls the benchmark itself made inside it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The public call (or benchmark section) this span wraps.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Generator thread that recorded it (0 = main).
    pub thread: u32,
    /// Public-API calls this span covers. A hot loop (one
    /// `push_datagram` per datagram) is one span with `calls = N`, so
    /// a traced run stays within a few per cent of an untraced one.
    pub calls: u32,
}

impl SpanRec {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Disabled recorders cost one branch per
/// call and record nothing, so the same code path runs traced and
/// untraced.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    thread: u32,
    stack: Vec<u32>,
    recs: Vec<SpanRec>,
}

impl Spans {
    /// Recorder for the main thread; `origin` is process start.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            thread: 0,
            stack: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// A recorder for another generator thread sharing this origin.
    pub fn fork(&self, thread: u32) -> Spans {
        Spans {
            enabled: self.enabled,
            origin: self.origin,
            thread,
            stack: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// Fold a forked recorder's spans back in (parent indices rebased).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.recs.len() as u32;
        self.recs.extend(other.recs.into_iter().map(|mut r| {
            r.parent = r.parent.map(|p| p + base);
            r
        }));
    }

    /// Run `f` under a span named `name` covering one public call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.span_n(name, 1, f)
    }

    /// Run `f` under a span covering `calls` back-to-back public calls.
    pub fn span_n<R>(
        &mut self,
        name: &'static str,
        calls: u32,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let token = self.enter(name, calls);
        let out = f(self);
        self.exit(token);
        out
    }

    /// Open a span; pair with [`exit`](Self::exit). For callers that
    /// cannot lend the recorder to a closure.
    pub fn enter(&mut self, name: &'static str, calls: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.recs.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.recs.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            thread: self.thread,
            calls,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span `enter` opened.
    pub fn exit(&mut self, token: Option<u32>) {
        if let Some(idx) = token {
            self.stack.pop();
            self.recs[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Everything recorded so far.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }
}

/// Per-name aggregate over a span set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under it.
    pub spans: u64,
    /// Public calls those spans cover.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus what their child spans cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover. Children are recorded on the
/// parent's thread, nested and non-overlapping, so their durations add.
pub fn self_times(recs: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = recs.iter().map(SpanRec::duration_ns).collect();
    for rec in recs {
        if let Some(p) = rec.parent {
            let slot = &mut own[p as usize];
            *slot = slot.saturating_sub(rec.duration_ns());
        }
    }
    own
}

/// Count, total and self time per span name, largest self time first.
pub fn totals(recs: &[SpanRec]) -> Vec<NameTotals> {
    let own = self_times(recs);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (rec, self_ns) in recs.iter().zip(own) {
        let t = by_name.entry(rec.name).or_insert(NameTotals {
            name: rec.name,
            spans: 0,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        t.spans += 1;
        t.calls += u64::from(rec.calls);
        t.total_ns += rec.duration_ns();
        t.self_ns += self_ns;
    }
    let mut out: Vec<NameTotals> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    out
}

/// Per generator thread: the share of its wall time (first root start
/// to last root end) that root spans cover.
pub fn root_coverage(recs: &[SpanRec]) -> Vec<(u32, f64)> {
    let mut per_thread: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for rec in recs.iter().filter(|r| r.parent.is_none()) {
        let e = per_thread
            .entry(rec.thread)
            .or_insert((rec.start_ns, rec.end_ns, 0));
        e.0 = e.0.min(rec.start_ns);
        e.1 = e.1.max(rec.end_ns);
        e.2 += rec.duration_ns();
    }
    per_thread
        .into_iter()
        .map(|(thread, (first, last, covered))| {
            let wall = (last - first).max(1);
            (thread, covered as f64 / wall as f64)
        })
        .collect()
}

/// Render a trace file: run identity, per-name totals, root coverage,
/// then every span.
pub fn render_json(workload: &str, seed: u64, parallelism: usize, recs: &[SpanRec]) -> String {
    let mut out = String::with_capacity(recs.len() * 96 + 4096);
    let _ = write!(
        out,
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"available_parallelism\": {parallelism},\n  \"names\": [\n"
    );
    let names = totals(recs);
    for (i, t) in names.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"spans\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}",
            t.name,
            t.spans,
            t.calls,
            t.total_ns,
            t.self_ns,
            if i + 1 < names.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"root_coverage\": [\n");
    let coverage = root_coverage(recs);
    for (i, (thread, share)) in coverage.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"thread\": {thread}, \"covered\": {share:.4}}}{}",
            if i + 1 < coverage.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"spans\": [\n");
    for (i, r) in recs.iter().enumerate() {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"thread\": {}, \"calls\": {}}}{}",
            r.name,
            r.start_ns,
            r.end_ns,
            r.thread,
            r.calls,
            if i + 1 < recs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}
