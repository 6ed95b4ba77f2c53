//! In-memory spans recorded from the harness's side of each call into
//! Mocha, and the self-time arithmetic over them. Spans inside the
//! program are a later change (ROADMAP item 2).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed (`"cycle"`, `"acquire"`, a probe's metric name).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span this one happened inside, if any.
    pub parent: Option<SpanId>,
    /// Identifier shared by all spans of one cycle (or one probe batch).
    pub trace_id: u64,
}

/// Collects spans in memory; nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans, so recording does
    /// not reallocate inside a measured phase until that many exist.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Makes room for `additional` more spans.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Converts an `Instant` taken elsewhere to the tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        trace_id: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            trace_id,
        });
        id
    }

    /// Opens a span whose end is not known yet (a cycle, so its children
    /// can name it as parent); [`close`](Self::close) sets the end.
    pub fn open(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<SpanId>,
        trace_id: u64,
    ) -> SpanId {
        self.record(name, start_ns, start_ns, parent, trace_id)
    }

    /// Sets the end of a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval its direct children cover (overlapping children are
    /// counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.clamp(cursor, s.end_ns);
                    let end = end.clamp(cursor, s.end_ns);
                    covered += end - start;
                    cursor = cursor.max(end);
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per span name: how many, total duration and total self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The trace file: per-name totals over every span, and the first
    /// `max_spans` spans verbatim (a 6 s phase records millions; the
    /// totals are what the cost table uses, the verbatim prefix is for
    /// looking at individual cycles).
    pub fn to_json(&self, max_spans: usize) -> Json {
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Json::obj([
                        ("count", Json::count(t.count)),
                        ("total_ns", Json::count(t.total_ns)),
                        ("self_ns", Json::count(t.self_ns)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::count(s.start_ns)),
                    ("end_ns", Json::count(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::num)),
                    ("trace_id", Json::count(s.trace_id)),
                ])
            })
            .collect();
        Json::obj([
            ("span_count", Json::count(self.spans.len() as u64)),
            ("totals", Json::obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Aggregate over all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::with_capacity(8);
        let cycle = t.record("cycle", 0, 100, None, 1);
        t.record("acquire", 10, 40, Some(cycle), 1);
        t.record("read", 40, 50, Some(cycle), 1);
        // Overlaps "read" by 5 ns and sticks out of the parent by 20 ns:
        // only [50, 100) adds to what is covered.
        let release = t.record("release", 45, 120, Some(cycle), 1);
        t.record("inner", 60, 70, Some(release), 1);
        let own = t.self_times();
        assert_eq!(own[cycle as usize], 100 - (30 + 10 + 50));
        assert_eq!(own[1], 30);
        assert_eq!(own[release as usize], 75 - 10);
        let totals = t.totals();
        assert_eq!(
            totals["cycle"],
            SpanTotal {
                count: 1,
                total_ns: 100,
                self_ns: 10
            }
        );
        assert_eq!(totals["inner"].self_ns, 10);
    }

    #[test]
    fn trace_file_caps_verbatim_spans_but_totals_cover_all() {
        let mut t = Tracer::with_capacity(4);
        for i in 0..10 {
            t.record("cycle", i * 10, i * 10 + 5, None, i);
        }
        let doc = t.to_json(3);
        assert_eq!(doc.get("span_count").and_then(Json::as_f64), Some(10.0));
        assert!(matches!(doc.get("spans"), Some(Json::Arr(v)) if v.len() == 3));
        let cycle = doc.get("totals").and_then(|t| t.get("cycle")).unwrap();
        assert_eq!(cycle.get("total_ns").and_then(Json::as_f64), Some(50.0));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
