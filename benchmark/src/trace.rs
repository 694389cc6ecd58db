//! The harness's own spans (`--trace 1`). One `op` root per traced
//! operation with a child per call into the product; nothing is recorded
//! inside `crates/`. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Span names. `op` is the root; the others are its children, or the
/// roots of probe calls.
pub const OP: &str = "op";
pub const ENGINE_EXEC: &str = "engine.exec";
pub const WAL_COMMIT_CALL: &str = "wal.commit_call";
pub const ENGINE_GET: &str = "engine.get";
pub const ENGINE_SCAN: &str = "engine.scan";

/// Nanoseconds since the first call in this process: one clock for every
/// client, repetition and probe.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One finished span. `parent` is the index of the parent span in the
/// same [`Tracer`] (`None` for a root); spans of one operation share `trace`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub trace: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Child spans of the operation in flight. When tracing is off for the
/// op, `mark` takes no clock reading and `child` does nothing.
pub struct OpTrace {
    on: bool,
    kids: Vec<(&'static str, u64, u64)>,
}

impl OpTrace {
    pub fn new(on: bool) -> OpTrace {
        OpTrace { on, kids: Vec::new() }
    }

    /// Switch tracing on or off for the next op.
    pub fn arm(&mut self, on: bool) {
        self.on = on;
    }

    /// A timestamp at a layer boundary (0 when tracing is off).
    pub fn mark(&self) -> u64 {
        if self.on {
            now_ns()
        } else {
            0
        }
    }

    /// Record a child span between two marks.
    pub fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.kids.push((name, start_ns, end_ns));
        }
    }
}

/// One thread's span buffer.
pub struct Tracer {
    pub spans: Vec<Span>,
    next_trace: u32,
}

impl Tracer {
    /// A tracer whose trace ids start at `first_trace` (so ids stay
    /// unique across the threads of a run).
    pub fn new(first_trace: u32) -> Tracer {
        Tracer { spans: Vec::new(), next_trace: first_trace }
    }

    /// Record a root span and the children collected while it ran.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, op: &mut OpTrace) {
        let trace = self.next_trace;
        self.next_trace += 1;
        let root = self.spans.len() as u32;
        self.spans.push(Span { trace, parent: None, name, start_ns, end_ns });
        for (name, start_ns, end_ns) in op.kids.drain(..) {
            self.spans.push(Span { trace, parent: Some(root), name, start_ns, end_ns });
        }
    }

    /// Time a call as a root span of its own (probes).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = f();
        self.record(name, start, now_ns(), &mut OpTrace::new(false));
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone, Debug)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    /// Sorted durations.
    pub durations: Vec<u64>,
}

/// Aggregate spans by name. Children of one root never overlap (they are
/// consecutive calls on one thread), so a root's self time is its
/// duration minus the sum of its children's.
pub fn summarize(tracers: &[Tracer]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, kids) in t.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(kids);
            e.durations.push(dur);
        }
    }
    for e in out.values_mut() {
        e.durations.sort_unstable();
    }
    out
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `"spans"` array of the trace file: at most `max_traces` operations
/// per tracer, evenly strided, each with all its spans. Span ids are
/// unique within the file; `parent` refers to them.
pub fn spans_json(tracers: &[Tracer], max_traces: usize) -> String {
    let mut out = String::from("[");
    let mut base = 0u32;
    for t in tracers {
        let roots = t.spans.iter().filter(|s| s.parent.is_none()).count();
        let stride = roots.div_ceil(max_traces.max(1)).max(1);
        let mut root_no = 0usize;
        let mut keep = false;
        for (i, s) in t.spans.iter().enumerate() {
            if s.parent.is_none() {
                keep = root_no.is_multiple_of(stride);
                root_no += 1;
            }
            if !keep {
                continue;
            }
            if out.len() > 1 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| (base + p).to_string());
            let _ = write!(
                out,
                "\n{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.trace,
                base + i as u32,
                parent,
                json_str(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        base += t.spans.len() as u32;
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(0);
        let mut op = OpTrace::new(true);
        op.child(ENGINE_EXEC, 10, 40);
        op.child(WAL_COMMIT_CALL, 40, 90);
        t.record(OP, 0, 100, &mut op);
        let s = summarize(&[t]);
        assert_eq!(s[OP].self_ns, 20);
        assert_eq!(s[OP].total_ns, 100);
        assert_eq!(s[ENGINE_EXEC].self_ns, 30);
        assert_eq!(s[WAL_COMMIT_CALL].durations, vec![50]);
    }

    #[test]
    fn untraced_ops_record_nothing_and_ids_are_parent_linked() {
        let mut off = OpTrace::new(false);
        assert_eq!(off.mark(), 0);
        off.child(ENGINE_GET, 1, 2);
        let mut t = Tracer::new(7);
        t.record(OP, 0, 5, &mut off);
        assert_eq!(t.spans.len(), 1);
        let mut on = OpTrace::new(true);
        on.child(ENGINE_GET, 6, 8);
        t.record(OP, 5, 9, &mut on);
        let json = spans_json(&[t], 10);
        assert!(
            json.contains("\"trace\":8,\"id\":2,\"parent\":1,\"name\":\"engine.get\""),
            "{json}"
        );
    }
}
