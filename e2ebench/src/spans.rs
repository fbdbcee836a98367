//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (name, start, end, parent, node), kept in memory while the
//! workload runs, and written out as JSON lines when it ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! children cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer or step name (`round`, `start_round`, `drain`, ...).
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch; `>= start_ns`.
    pub end_ns: u64,
    /// The span this one is a child of.
    pub parent: Option<SpanId>,
    /// The node (or trial) the span belongs to, when there is one.
    pub node: Option<u64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self::with_epoch(Instant::now())
    }

    /// An empty recorder sharing `epoch` with other recorders, so their
    /// spans can be merged onto one time line.
    pub fn with_epoch(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        node: Option<u64>,
    ) -> SpanId {
        let now = self.now();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            node,
        })
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        node: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, node);
        let out = f();
        self.close(id);
        out
    }

    /// Appends a finished span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Every span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans (same epoch) onto this one,
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The part of `[start, end)` covered by the union of `children`
/// (intervals are clipped to the parent; overlaps count once).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Sum of self time per span name, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += t,
            None => totals.push((s.name, t)),
        }
    }
    totals.sort_unstable();
    totals
}

/// Share of each span named `parent_name` covered by its children, in
/// span order, and the share of all those spans' time covered. An empty
/// list and 1 when there is no such span.
pub fn child_coverage(spans: &[Span], parent_name: &str) -> (Vec<f64>, f64) {
    let mut each = Vec::new();
    let (mut covered, mut total) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.name != parent_name || s.duration_ns() == 0 {
            continue;
        }
        let c = s.duration_ns() - self_ns;
        each.push(c as f64 / s.duration_ns() as f64);
        covered += c;
        total += s.duration_ns();
    }
    let overall = if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    };
    (each, overall)
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        write!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.name, s.start_ns, s.end_ns
        )?;
        if let Some(p) = s.parent {
            write!(out, ",\"parent\":{p}")?;
        }
        if let Some(n) = s.node {
            write!(out, ",\"node\":{n}")?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            node: None,
        }
    }

    #[test]
    fn covered_time_is_the_clipped_union() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 50)]), 30);
        // Overlapping children count once.
        assert_eq!(covered_ns(0, 100, &[(10, 40), (30, 50)]), 40);
        // Nested children count once.
        assert_eq!(covered_ns(0, 100, &[(10, 90), (20, 30)]), 80);
        // Children are clipped to the parent interval.
        assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered_ns(10, 20, &[(30, 40)]), 0);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span("round", 0, 100, None),
            span("start_round", 0, 30, Some(0)),
            span("drain", 40, 90, Some(0)),
            // A grandchild does not reduce the round's self time twice.
            span("verify", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
        assert_eq!(
            self_time_by_name(&spans),
            vec![
                ("drain", 40),
                ("round", 20),
                ("start_round", 30),
                ("verify", 10)
            ]
        );
        assert_eq!(child_coverage(&spans, "round"), (vec![0.8], 0.8));
    }

    #[test]
    fn coverage_reports_the_worst_round_and_the_total() {
        let spans = [
            span("round", 0, 100, None),
            span("step", 0, 100, Some(0)),
            span("round", 100, 200, None),
            span("step", 100, 150, Some(2)),
        ];
        assert_eq!(child_coverage(&spans, "round"), (vec![1.0, 0.5], 0.75));
        assert_eq!(child_coverage(&spans, "missing"), (vec![], 1.0));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::with_epoch(epoch);
        a.push(span("trial", 0, 10, None));
        let mut b = Recorder::with_epoch(epoch);
        let t = b.push(span("trial", 0, 10, None));
        b.push(span("step", 1, 2, Some(t)));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }

    #[test]
    fn recorder_times_a_closure() {
        let mut r = Recorder::new();
        let parent = r.open("round", None, None);
        let v = r.time("call", Some(parent), Some(3), || 41 + 1);
        r.close(parent);
        assert_eq!(v, 42);
        let s = r.spans();
        assert_eq!(s[1].node, Some(3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
