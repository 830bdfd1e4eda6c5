//! Spans recorded by the harness around every call it makes into a
//! layer.
//!
//! A span is `{id, parent, op, name, start_ns, end_ns}`. Spans live in a
//! pre-sized in-memory vector (recording never allocates, so it cannot
//! disturb the allocation counts taken in the same pass) and are written
//! out once, when the traced pass ends. A layer's number is the **median
//! self time** per span name: a span's duration minus the part its child
//! spans cover. Spans *inside* the program are a later change; these sit
//! at the boundaries the benchmark itself crosses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans one tracer keeps before it stops recording (~19 MB).
pub const SPAN_CAPACITY: usize = 400_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    /// The enclosing span's id, 0 at the top.
    pub parent: u32,
    /// Which operation of the pass this span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`], spent by [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never exited has no end time"]
pub struct Open(u32);

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    /// Off for the untraced pass: `enter`/`exit` do nothing, not even
    /// read the clock.
    enabled: bool,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (shared between
    /// threads so their spans line up in one file).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(SPAN_CAPACITY),
            stack: Vec::with_capacity(16),
            op: 0,
            enabled: true,
            dropped: 0,
        }
    }

    /// A recorder that records nothing, so traced and untraced passes
    /// can share the code that crosses the layer boundaries.
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            enabled: false,
            dropped: 0,
        }
    }

    /// Starts the next operation; spans entered from now on carry its
    /// number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        // The clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping lands in the parent's self time.
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize - 1].start_ns = now;
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[open.0 as usize - 1].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
    }

    /// Runs `f` inside a span. For leaf calls; nested spans use
    /// [`enter`](Self::enter) / [`exit`](Self::exit).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time covered by each span's direct children, indexed by span id
    /// (index 0 collects the top-level spans).
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        child_ns
    }

    /// Self time (duration minus children) of every recorded span,
    /// grouped by span name, each group ascending.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let child_ns = self.child_ns();
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            by_name.entry(s.name).or_default().push(own);
        }
        for times in by_name.values_mut() {
            times.sort_unstable();
        }
        by_name
    }

    /// For every span named `name`, the share of its duration its
    /// direct children cover; the median over those spans. This is the
    /// acceptance check that an op's child spans account for the op.
    pub fn child_coverage(&self, name: &str) -> f64 {
        let child_ns = self.child_ns();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > s.start_ns)
            .map(|s| child_ns[s.id as usize] as f64 / (s.end_ns - s.start_ns) as f64)
            .collect();
        crate::harness::median(&shares)
    }
}

/// Merges several tracers' self times (one per generator thread).
pub fn merged_self_times_ns(tracers: &[Tracer]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut merged: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for t in tracers {
        for (name, times) in t.self_times_ns() {
            merged.entry(name).or_default().extend(times);
        }
    }
    for times in merged.values_mut() {
        times.sort_unstable();
    }
    merged
}

/// Serializes the spans of `tracers` (index = thread) as one JSON
/// document: `{"workload": …, "spans": [{thread, id, parent, op, name,
/// start_ns, end_ns}, …]}`.
pub fn encode(workload: &str, tracers: &[Tracer]) -> String {
    let total: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let mut out = String::with_capacity(64 + total * 96);
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"dropped\":");
    let _ = write!(out, "{},", tracers.iter().map(|t| t.dropped).sum::<u64>());
    out.push_str("\"spans\":[\n");
    let mut first = true;
    for (thread, tracer) in tracers.iter().enumerate() {
        for s in &tracer.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"thread\":{thread},\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now());
        t.next_op();
        let op = t.enter("op");
        t.span("child.a", || std::thread::sleep(Duration::from_millis(4)));
        t.span("child.b", || std::thread::sleep(Duration::from_millis(2)));
        std::thread::sleep(Duration::from_millis(1));
        t.exit(op);

        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].id, spans[0].parent, spans[0].op), (1, 0, 1));
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));

        let own = t.self_times_ns();
        let whole = spans[0].end_ns - spans[0].start_ns;
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own["op"], vec![whole - children]);
        assert!(own["child.a"][0] >= 4_000_000);
        let coverage = t.child_coverage("op");
        assert!(coverage > 0.5 && coverage < 1.0, "coverage {coverage}");
    }

    #[test]
    fn trace_file_parses_and_names_every_span() {
        let mut t = Tracer::new(Instant::now());
        t.next_op();
        t.span("core.rank", || ());
        use plansample_serve::json::{parse, Json};
        let doc = parse(&encode("tree_roundtrip_q8cp", &[t])).unwrap();
        let Some(Json::Arr(spans)) = doc.get("spans") else {
            panic!("no spans array in {doc:?}")
        };
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name"),
            Some(&Json::Str("core.rank".to_string()))
        );
        assert_eq!(spans[0].get("op").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn a_full_buffer_drops_spans_instead_of_growing() {
        let mut t = Tracer::new(Instant::now());
        for _ in 0..SPAN_CAPACITY + 3 {
            t.span("x", || ());
        }
        assert_eq!(t.spans().len(), SPAN_CAPACITY);
        assert_eq!(t.dropped, 3);
    }
}
