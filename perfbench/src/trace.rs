//! The harness's span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans *inside* the program are the program's own
//! telemetry plane, which this benchmark only arms to price it). A span
//! carries a name, start, end, the span that caused it and a request
//! id; spans stay in memory and are written as a chrome://tracing file
//! when the benchmark ends. A disabled tracer records nothing and
//! costs one branch per call, which is what the untraced run uses.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Identifier of a recorded span; [`NO_PARENT`] marks a root.
pub type SpanId = u32;

/// Parent id of a root span.
pub const NO_PARENT: SpanId = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (ids start at 1).
    pub id: SpanId,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub request: u64,
    /// Layer-boundary name, e.g. `krylov.apply`.
    pub name: &'static str,
    /// Harness lane (thread) the span belongs to in the timeline.
    pub lane: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns: duration minus the part of the
    /// interval the span's children cover.
    pub self_ns: u64,
}

/// In-memory span sink shared by the harness threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on` is true and is inert otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(if on { 1 << 16 } else { 0 })),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's creation to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span that closes when the guard drops.
    pub fn span(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        lane: u32,
    ) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: NO_PARENT,
                parent,
                request,
                name,
                lane,
                start: 0,
            };
        }
        // Relaxed: the id only has to be unique, it publishes nothing
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard { tracer: self, id, parent, request, name, lane, start: self.now_ns() }
    }

    /// Record a span whose ends were observed on different threads
    /// (a request from its due time to its resolution).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span { id, parent, request, name, lane, start_ns, end_ns });
        id
    }

    fn push(&self, s: Span) {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(s);
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Count, total and self time per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        span_stats(&self.spans())
    }

    /// The recorded spans as a chrome://tracing document (complete
    /// `"X"` events; `args` carries id, parent and request).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans()
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.lane as f64)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        obj(vec![
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("request", Json::Num(s.request as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
    }
}

/// RAII handle of an open span.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: SpanId,
    parent: SpanId,
    request: u64,
    name: &'static str,
    lane: u32,
    start: u64,
}

impl SpanGuard<'_> {
    /// The id children name as their parent ([`NO_PARENT`] when the
    /// tracer is off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id != NO_PARENT {
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                request: self.request,
                name: self.name,
                lane: self.lane,
                start_ns: self.start,
                end_ns: self.tracer.now_ns(),
            });
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (each clipped to the parent), summed by name.
pub fn span_stats(spans: &[Span]) -> BTreeMap<&'static str, SpanStat> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let st = out.entry(s.name).or_default();
        st.count += 1;
        st.total_ns += dur;
        st.self_ns += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: SpanId, parent: SpanId, name: &'static str, a: u64, b: u64) -> Span {
        Span { id, parent, request: 7, name, lane: 0, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // parent 0..100; children 10..30, 20..50 (overlap), 90..120 (clipped)
        let spans = [
            sp(1, NO_PARENT, "pcg", 0, 100),
            sp(2, 1, "apply", 10, 30),
            sp(3, 1, "apply", 20, 50),
            sp(4, 1, "spmv", 90, 120),
        ];
        let st = span_stats(&spans);
        assert_eq!(st["pcg"], SpanStat { count: 1, total_ns: 100, self_ns: 100 - 40 - 10 });
        assert_eq!(st["apply"], SpanStat { count: 2, total_ns: 50, self_ns: 50 });
        assert_eq!(st["spmv"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("x", NO_PARENT, 1, 0);
            assert_eq!(g.id(), NO_PARENT);
        }
        assert_eq!(t.record("y", NO_PARENT, 1, 0, 0, 5), NO_PARENT);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn guards_nest_and_export() {
        let t = Tracer::new(true);
        {
            let root = t.span("root", NO_PARENT, 42, 0);
            let _kid = t.span("kid", root.id(), 42, 0);
        }
        let id = t.record("req", NO_PARENT, 43, 1, 5, 9);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let kid = spans.iter().find(|s| s.name == "kid").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!((kid.parent, kid.request), (root.id, 42));
        assert!(root.start_ns <= kid.start_ns && kid.end_ns <= root.end_ns);
        assert!(id > root.id);
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        assert!(crate::json::parse(&doc.render()).is_ok());
    }
}
