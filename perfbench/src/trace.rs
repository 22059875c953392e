//! A dependency-free span recorder. Spans are kept in memory and written out
//! once the run ends; a disabled recorder records nothing and only calls
//! through, so the untraced run pays for no clock reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// The verdict this work belongs to: a day, a window, a round or a
    /// population, numbered by the workload.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an interval measured by the caller as a closed child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON, one object per line inside an array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push(']');
        out
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// durations of its direct children, summed over spans of the same name.
/// Children of one span run one after another on one thread, so their
/// durations never overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(*children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,35); root ⊃ c [50,90)
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 35, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 100 - 30 - 40);
        assert_eq!(st["a"], 30 - 20);
        assert_eq!(st["b"], 20);
        assert_eq!(st["c"], 40);
        assert_eq!(
            st.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn self_times_add_up_across_spans_of_one_name() {
        let spans = [
            span("root", 0, 50, None),
            span("x", 0, 10, Some(0)),
            span("x", 20, 25, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["x"], 15);
        assert_eq!(st["root"], 35);
    }

    #[test]
    fn recorder_nests_spans_and_tags_requests() {
        let mut rec = Recorder::new(true);
        rec.set_request(7);
        let v = rec.span("outer", |r| r.span("inner", |_| 1) + r.span("inner", |_| 2));
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(rec.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let now = Instant::now();
        rec.span("a", |r| r.record("b", now, now));
        assert!(rec.spans().is_empty());
    }
}
