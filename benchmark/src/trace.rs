//! In-memory spans recorded from the benchmark's own code, around every
//! call into a layer. Spans are written out once, when the run ends.

use crate::json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: which layer, when, caused by which span, for which
/// sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.device_section`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// The sample (or training step) the span belongs to.
    pub sample: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate over a recording.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Calls recorded.
    pub count: usize,
    /// Median duration of one call, ns.
    pub median_ns: f64,
    /// Median self time of one call (duration minus child spans), ns.
    pub median_self_ns: f64,
    /// Sum of self time over all calls, ns.
    pub total_self_ns: f64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Recorder {
    /// A recording with hand-set times, for tests of what reads spans.
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Recorder {
        Recorder { spans, ..Recorder::default() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        sample: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            sample,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (children run strictly inside their parent on this
    /// single thread, so they never overlap each other).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Aggregates by span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let own = self.self_times_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, &self_ns) in self.spans.iter().zip(&own) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.duration_ns() as f64);
            entry.1.push(self_ns as f64);
        }
        by_name
            .into_iter()
            .map(|(name, (durations, selfs))| {
                let stats = SpanStats {
                    count: durations.len(),
                    median_ns: median(&durations),
                    median_self_ns: median(&selfs),
                    total_self_ns: selfs.iter().sum(),
                };
                (name, stats)
            })
            .collect()
    }

    /// Median duration of the spans named `name`, in microseconds.
    ///
    /// # Panics
    ///
    /// Panics when no such span was recorded: a per-layer metric without
    /// measurements is a bug in the replay.
    pub fn median_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        assert!(!durations.is_empty(), "no span named {name} was recorded");
        median(&durations)
    }

    /// The whole recording as one JSON document: the per-name summary and
    /// every span.
    pub fn to_json(&self, header: &str) -> String {
        let summary: Vec<(&str, String)> = self
            .stats()
            .into_iter()
            .map(|(name, s)| {
                let fields = [
                    ("count", s.count.to_string()),
                    ("median_ns", json::number(s.median_ns)),
                    ("median_self_ns", json::number(s.median_self_ns)),
                    ("total_self_ns", json::number(s.total_self_ns)),
                ];
                (name, json::object(&fields))
            })
            .collect();
        let own = self.self_times_ns();
        let spans: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                json::object(&[
                    ("id", id.to_string()),
                    ("name", json::string(s.name)),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    ("self_ns", self_ns.to_string()),
                    ("parent", s.parent.map_or_else(|| "null".to_string(), |p| p.to_string())),
                    ("sample", s.sample.to_string()),
                ])
            })
            .collect();
        format!(
            "{{\"header\": {header},\n \"summary\": {},\n \"spans\": [\n  {}\n ]}}\n",
            json::object(&summary),
            spans.join(",\n  ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recording with hand-set times: root [0, 100] holding a [10, 40]
    /// (itself holding a.x [20, 25]) and b [50, 90].
    fn fixture() -> Recorder {
        let span =
            |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, sample: 3 };
        Recorder::from_spans(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.x", 20, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ])
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        assert_eq!(fixture().self_times_ns(), vec![100 - 30 - 40, 30 - 5, 5, 40]);
    }

    #[test]
    fn stats_group_by_name() {
        let mut r = fixture();
        r.spans.push(Span { name: "b", start_ns: 100, end_ns: 120, parent: None, sample: 4 });
        let stats = r.stats();
        assert_eq!(stats["b"].count, 2);
        assert_eq!(stats["b"].median_ns, 30.0);
        assert_eq!(stats["b"].total_self_ns, 60.0);
        assert_eq!(stats["root"].median_self_ns, 30.0);
        assert_eq!(r.median_us("a"), 0.03);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut r = Recorder::default();
        let out = r.span("outer", 7, |r| {
            r.span("inner", 7, |_| std::hint::black_box(1 + 1));
            r.span("inner", 7, |_| ());
            5
        });
        assert_eq!(out, 5);
        let parents: Vec<Option<usize>> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        let s = r.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(r.spans().iter().all(|s| s.sample == 7));
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let doc = fixture().to_json("{}");
        assert!(doc.contains(
            r#""name": "a.x", "start_ns": 20, "end_ns": 25, "self_ns": 5, "parent": 1, "sample": 3"#
        ));
        assert!(doc.contains(r#""parent": null"#));
        assert!(doc.contains(
            r#""root": {"count": 1, "median_ns": 100, "median_self_ns": 30, "total_self_ns": 30}"#
        ));
    }
}
