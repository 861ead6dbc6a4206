//! Request-scoped distributed tracing: trace contexts, span records, and a
//! bounded in-memory ring of recently completed request traces.
//!
//! A [`TraceContext`] is minted once per logical request (client side) and
//! propagated across the wire so every hop — admission, batching, solve,
//! retry, idempotent replay — records spans under the same 128-bit trace
//! id. A [`Tracer`] is the one place a request span is made: it owns the
//! clock every span's start is measured on and the sequence its span ids
//! come from, assembles a trace's [`SpanRecord`]s into a [`RequestTrace`]
//! tree when the trace finishes, and keeps the most recent traces in a
//! bounded ring with a "slowest N" view.
//!
//! Zero external dependencies, like the rest of the crate. A disabled
//! tracer costs one branch per call and never blocks the caller on I/O.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::JsonValue;

/// Default capacity of the finished-trace ring (and of the open traces).
pub const DEFAULT_TRACE_RING: usize = 64;

/// A propagated trace identity: which request this work belongs to and
/// which span is the current causal parent.
///
/// `trace_id == 0` means "no tracing" — the wire encodes that as an
/// all-zero trace block and every layer skips span recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit request-unique trace id (0 = tracing disabled).
    pub trace_id: u128,
    /// The span id of the current causal parent (0 = root).
    pub span_id: u64,
    /// Whether downstream layers should record spans for this trace.
    pub sampled: bool,
}

impl TraceContext {
    /// The "no tracing" context: all-zero, never sampled.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        sampled: false,
    };

    /// Mints a fresh sampled root context from a SplitMix64 state.
    ///
    /// Two `next` calls build the 128-bit trace id, a third the root span
    /// id; the id is re-rolled in the (astronomically unlikely) all-zero
    /// case so zero stays reserved for "disabled".
    pub fn mint(state: &mut u64) -> TraceContext {
        let mut trace_id =
            (u128::from(splitmix_next(state)) << 64) | u128::from(splitmix_next(state));
        while trace_id == 0 {
            trace_id = u128::from(splitmix_next(state));
        }
        let mut span_id = splitmix_next(state);
        while span_id == 0 {
            span_id = splitmix_next(state);
        }
        TraceContext {
            trace_id,
            span_id,
            sampled: true,
        }
    }

    /// Whether this context carries a real trace (nonzero id and sampled).
    pub fn is_active(&self) -> bool {
        self.trace_id != 0 && self.sampled
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::NONE
    }
}

/// The SplitMix64 increment: one step of [`splitmix_next`] adds it to the
/// state.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the tiny deterministic generator behind trace and span ids,
/// and the service layer's jitter and idempotency keys.
pub fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh 64-bit seed per call: wall clock, process id, a process-wide
/// counter (calls in the same nanosecond), and an ASLR-perturbed stack
/// address, whitened through SplitMix64. No dependency on any configured
/// seed — id streams seeded from it stay distinct even when every
/// producer runs the same config.
pub fn entropy_seed() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let stack_probe = 0u8;
    let mut state = nanos
        ^ (u64::from(std::process::id()) << 32)
        ^ seq.rotate_left(17)
        ^ (std::ptr::addr_of!(stack_probe) as u64).rotate_left(47);
    splitmix_next(&mut state)
}

/// One completed span within a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Causal parent span id (0 = root of the tree).
    pub parent_span_id: u64,
    /// Stage name, e.g. `request`, `queue`, `batch`, `solve`, `retry`.
    pub name: String,
    /// Start, microseconds since the recording tracer was created.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form attributes (attempt number, batch size, lane, ...).
    pub attrs: Vec<(String, JsonValue)>,
}

impl SpanRecord {
    /// Serializes the span as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("trace_id".into(), format!("{:032x}", self.trace_id).into()),
            ("span_id".into(), self.span_id.into()),
            ("parent_span_id".into(), self.parent_span_id.into()),
            ("name".into(), self.name.as_str().into()),
            ("start_us".into(), self.start_us.into()),
            ("dur_us".into(), self.dur_us.into()),
        ];
        if !self.attrs.is_empty() {
            fields.push(("attrs".into(), JsonValue::Object(self.attrs.clone())));
        }
        JsonValue::Object(fields)
    }
}

/// A finished request trace: the assembled span tree plus summary fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The trace id shared by every span.
    pub trace_id: u128,
    /// Spans sorted by `start_us` (ties keep record order).
    pub spans: Vec<SpanRecord>,
    /// Duration of the root span (the longest causal chain observed).
    pub total_us: u64,
}

impl RequestTrace {
    fn assemble(trace_id: u128, mut spans: Vec<SpanRecord>) -> RequestTrace {
        spans.sort_by_key(|s| s.start_us);
        let total_us = spans
            .iter()
            .filter(|s| s.parent_span_id == 0)
            .map(|s| s.dur_us)
            .max()
            .unwrap_or_else(|| spans.iter().map(|s| s.dur_us).max().unwrap_or(0));
        RequestTrace {
            trace_id,
            spans,
            total_us,
        }
    }

    /// Builds a trace from an arbitrary span collection — e.g. merging the
    /// server-side spans of several attempts of one retried request, or
    /// joining client- and server-side views of the same trace id.
    pub fn from_spans(trace_id: u128, spans: Vec<SpanRecord>) -> RequestTrace {
        RequestTrace::assemble(trace_id, spans)
    }

    /// The root spans (parent id 0).
    pub fn roots(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.parent_span_id == 0)
    }

    /// Direct children of `span_id`, in start order.
    pub fn children(&self, span_id: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans
            .iter()
            .filter(move |s| s.parent_span_id == span_id)
    }

    /// Looks up a span by name (first match in start order).
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Whether the tree is complete: at least one root exists and every
    /// non-root span's parent id is present in the trace (no orphans).
    pub fn is_complete(&self) -> bool {
        if self.spans.is_empty() || !self.spans.iter().any(|s| s.parent_span_id == 0) {
            return false;
        }
        self.spans.iter().all(|s| {
            s.parent_span_id == 0 || self.spans.iter().any(|p| p.span_id == s.parent_span_id)
        })
    }

    /// Serializes the trace (summary plus every span).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("trace_id".into(), format!("{:032x}", self.trace_id).into()),
            ("total_us".into(), self.total_us.into()),
            ("span_count".into(), (self.spans.len() as u64).into()),
            (
                "spans".into(),
                JsonValue::Array(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
        ])
    }
}

struct TracerInner {
    /// The clock origin: every span start is microseconds after it.
    epoch: Instant,
    /// SplitMix64 state of the span-id sequence, seeded per tracer.
    span_ids: AtomicU64,
    traces: Mutex<Traces>,
}

impl TracerInner {
    /// The next nonzero id of the span-id sequence: one SplitMix64 step,
    /// taken atomically so concurrent recorders never share an id.
    fn next_span_id(&self) -> u64 {
        loop {
            let mut state = self.span_ids.fetch_add(SPLITMIX_GAMMA, Ordering::Relaxed);
            let id = splitmix_next(&mut state);
            if id != 0 {
                return id;
            }
        }
    }
}

struct Traces {
    /// Spans of traces still in flight, oldest opened first; at most
    /// `capacity` of them.
    open: VecDeque<(u128, Vec<SpanRecord>)>,
    /// Finished traces, oldest first, bounded by `capacity`.
    finished: VecDeque<RequestTrace>,
    capacity: usize,
}

/// Records request spans and assembles finished request traces into a
/// bounded ring. Cloning shares the clock, the id sequence and the ring; a
/// [`Tracer::disabled`] handle makes every call a single branch.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Tracer {
    /// An enabled tracer keeping the most recent `capacity` finished traces
    /// and at most `capacity` open ones.
    pub fn with_capacity(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                span_ids: AtomicU64::new(entropy_seed()),
                traces: Mutex::new(Traces {
                    open: VecDeque::new(),
                    finished: VecDeque::new(),
                    capacity,
                }),
            })),
        }
    }

    /// An enabled tracer with the default ring size.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_RING)
    }

    /// A tracer that records nothing (also the `Default`).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this tracer was created: the clock every span it
    /// records is measured on. 0 when disabled.
    pub fn now_us(&self) -> u64 {
        if self.is_enabled() {
            self.offset_us(Instant::now())
        } else {
            0
        }
    }

    /// Microseconds from this tracer's creation to `at` (0 for an earlier
    /// instant, or when disabled).
    pub fn offset_us(&self, at: Instant) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            let micros = at.saturating_duration_since(inner.epoch).as_micros();
            u64::try_from(micros).unwrap_or(u64::MAX)
        })
    }

    /// A new span context in `parent`'s trace: the same trace id and a
    /// fresh nonzero span id from this tracer's sequence.
    /// [`TraceContext::NONE`] for an inactive parent or a disabled tracer.
    pub fn child(&self, parent: TraceContext) -> TraceContext {
        match &self.inner {
            Some(inner) if parent.is_active() => TraceContext {
                span_id: inner.next_span_id(),
                ..parent
            },
            _ => TraceContext::NONE,
        }
    }

    /// Records one finished span of `parent`'s trace, covering `span_us` on
    /// this tracer's clock, and returns the span's own context (to parent
    /// further spans under it).
    ///
    /// With `root == None` the span gets a fresh id and hangs under
    /// `parent.span_id`. A root whose id is already on the wire passes it
    /// as `Some(id)` and hangs at parent 0. A no-op returning
    /// [`TraceContext::NONE`] for an inactive `parent` or a disabled
    /// tracer.
    pub fn record(
        &self,
        parent: TraceContext,
        root: Option<u64>,
        name: &str,
        span_us: Range<u64>,
        attrs: Vec<(String, JsonValue)>,
    ) -> TraceContext {
        let Some(inner) = &self.inner else {
            return TraceContext::NONE;
        };
        if !parent.is_active() {
            return TraceContext::NONE;
        }
        let (span_id, parent_span_id) = match root {
            Some(id) => (id, 0),
            None => (inner.next_span_id(), parent.span_id),
        };
        let span = SpanRecord {
            trace_id: parent.trace_id,
            span_id,
            parent_span_id,
            name: name.to_string(),
            start_us: span_us.start,
            dur_us: span_us.end.saturating_sub(span_us.start),
            attrs,
        };
        let mut traces = inner.traces.lock().expect("tracer poisoned");
        match traces
            .open
            .iter_mut()
            .find(|(id, _)| *id == parent.trace_id)
        {
            Some((_, spans)) => spans.push(span),
            None => {
                // A trace nobody finishes (its response write failed, or an
                // in-process submission) must not pin memory forever.
                if traces.open.len() == traces.capacity {
                    traces.open.pop_front();
                }
                traces.open.push_back((parent.trace_id, vec![span]));
            }
        }
        TraceContext { span_id, ..parent }
    }

    /// Finishes a trace: moves its spans into the ring as a
    /// [`RequestTrace`]. A trace with no recorded spans is ignored.
    pub fn finish(&self, trace_id: u128) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut traces = inner.traces.lock().expect("tracer poisoned");
        let Some(at) = traces.open.iter().position(|(id, _)| *id == trace_id) else {
            return;
        };
        let (_, spans) = traces.open.remove(at).expect("position is in range");
        let trace = RequestTrace::assemble(trace_id, spans);
        if traces.finished.len() == traces.capacity {
            traces.finished.pop_front();
        }
        traces.finished.push_back(trace);
    }

    /// A finished trace by id, if still in the ring.
    pub fn get(&self, trace_id: u128) -> Option<RequestTrace> {
        let inner = self.inner.as_ref()?;
        let traces = inner.traces.lock().expect("tracer poisoned");
        traces
            .finished
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// All finished traces, oldest first.
    pub fn recent(&self) -> Vec<RequestTrace> {
        match &self.inner {
            Some(inner) => inner
                .traces
                .lock()
                .expect("tracer poisoned")
                .finished
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// The `n` slowest finished traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<RequestTrace> {
        let mut traces = self.recent();
        traces.sort_by_key(|t| std::cmp::Reverse(t.total_us));
        traces.truncate(n);
        traces
    }

    /// Number of finished traces currently held.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.traces.lock().expect("tracer poisoned").finished.len(),
            None => 0,
        }
    }

    /// Whether the ring holds no finished traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::time::Duration;

    use super::*;

    /// An active context of trace `trace` whose current span is `span`.
    fn ctx(trace: u128, span: u64) -> TraceContext {
        TraceContext {
            trace_id: trace,
            span_id: span,
            sampled: true,
        }
    }

    #[test]
    fn mint_is_deterministic_and_nonzero() {
        let mut a = 42u64;
        let mut b = 42u64;
        let ca = TraceContext::mint(&mut a);
        let cb = TraceContext::mint(&mut b);
        assert_eq!(ca, cb, "same state mints the same context");
        assert_ne!(ca.trace_id, 0);
        assert_ne!(ca.span_id, 0);
        assert!(ca.is_active());
        let cc = TraceContext::mint(&mut a);
        assert_ne!(ca.trace_id, cc.trace_id, "successive mints differ");
    }

    #[test]
    fn child_keeps_trace_id_and_none_stays_none() {
        let tracer = Tracer::new();
        let root = TraceContext::mint(&mut 7u64);
        let child = tracer.child(root);
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        assert!(child.sampled);
        assert_eq!(tracer.child(TraceContext::NONE), TraceContext::NONE);
        assert_eq!(Tracer::disabled().child(root), TraceContext::NONE);
        assert!(!TraceContext::default().is_active());
    }

    #[test]
    fn tracers_mint_distinct_span_ids() {
        let root = ctx(1, 1);
        let mut seen = HashSet::new();
        for tracer in [Tracer::new(), Tracer::new()] {
            for _ in 0..1000 {
                let id = tracer.child(root).span_id;
                assert_ne!(id, 0);
                assert!(seen.insert(id), "span id {id:#x} minted twice");
            }
        }
    }

    #[test]
    fn clock_counts_from_creation() {
        let before = Instant::now();
        let tracer = Tracer::new();
        assert_eq!(tracer.offset_us(before), 0, "earlier instants clamp to 0");
        let later = Instant::now() + Duration::from_millis(5);
        assert!(tracer.offset_us(later) >= 5_000);
    }

    #[test]
    fn tracer_assembles_sorted_complete_trees() {
        let tracer = Tracer::new();
        let root = ctx(9, 1);
        let batch = tracer.record(root, None, "batch", 40..90, vec![]);
        let solve = tracer.record(batch, None, "solve", 50..70, vec![]);
        tracer.record(root, None, "queue", 10..40, vec![]);
        tracer.record(root, Some(1), "request", 0..100, vec![]);
        tracer.finish(9);
        let trace = tracer.get(9).expect("finished trace is retrievable");
        assert_eq!(trace.total_us, 100);
        assert!(trace.is_complete());
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["request", "queue", "batch", "solve"],
            "sorted by start"
        );
        assert_eq!(trace.roots().count(), 1);
        assert_eq!(trace.children(1).count(), 2);
        assert_eq!(trace.find("queue").unwrap().dur_us, 30);
        let solve_span = trace.find("solve").unwrap();
        assert_eq!(solve_span.span_id, solve.span_id);
        assert_eq!(solve_span.parent_span_id, batch.span_id);
    }

    #[test]
    fn orphan_spans_make_a_trace_incomplete() {
        let tracer = Tracer::new();
        tracer.record(ctx(5, 1), Some(1), "request", 0..10, vec![]);
        tracer.record(ctx(5, 99), None, "stray", 1..3, vec![]); // parent 99 missing
        tracer.finish(5);
        assert!(!tracer.get(5).unwrap().is_complete());

        tracer.record(ctx(6, 1), None, "child-without-root", 0..1, vec![]);
        tracer.finish(6);
        assert!(!tracer.get(6).unwrap().is_complete(), "no root span");
    }

    #[test]
    fn ring_is_bounded_and_slowest_sorts() {
        let tracer = Tracer::with_capacity(3);
        for i in 1..=5u128 {
            tracer.record(ctx(i, 1), Some(1), "request", 0..(i as u64) * 10, vec![]);
            tracer.finish(i);
        }
        assert_eq!(tracer.len(), 3, "ring holds the most recent 3");
        assert!(tracer.get(1).is_none(), "oldest evicted");
        let slowest = tracer.slowest(2);
        assert_eq!(slowest.len(), 2);
        assert_eq!(slowest[0].total_us, 50);
        assert_eq!(slowest[1].total_us, 40);
    }

    #[test]
    fn open_traces_are_bounded_dropping_the_first_opened() {
        let tracer = Tracer::with_capacity(2);
        tracer.record(ctx(1, 1), Some(1), "request", 0..1, vec![]);
        tracer.record(ctx(2, 1), Some(1), "request", 0..2, vec![]);
        // A second span of an open trace opens nothing new.
        tracer.record(ctx(1, 1), None, "queue", 0..1, vec![]);
        // A third unfinished trace drops trace 1, the first opened.
        tracer.record(ctx(3, 1), Some(1), "request", 0..3, vec![]);
        for id in 1..=3 {
            tracer.finish(id);
        }
        assert!(
            tracer.get(1).is_none(),
            "the first opened trace was dropped"
        );
        assert_eq!(tracer.get(2).unwrap().spans.len(), 1);
        assert_eq!(tracer.get(3).unwrap().spans.len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let recorded = tracer.record(ctx(1, 1), Some(1), "request", 0..1, vec![]);
        assert_eq!(recorded, TraceContext::NONE);
        tracer.finish(1);
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.now_us(), 0);
        assert!(tracer.is_empty());
        assert!(tracer.get(1).is_none());
        assert!(tracer.slowest(10).is_empty());
    }

    #[test]
    fn trace_json_carries_hex_id_and_spans() {
        let tracer = Tracer::new();
        let attrs = vec![("attempt".into(), 1u64.into())];
        tracer.record(ctx(0xAB, 1), Some(1), "request", 0..42, attrs);
        tracer.finish(0xAB);
        let json = tracer.get(0xAB).unwrap().to_json();
        assert_eq!(
            json.get("trace_id").unwrap().as_str().unwrap(),
            format!("{:032x}", 0xABu128)
        );
        assert_eq!(json.get_path("total_us").unwrap().as_f64(), Some(42.0));
        let spans = json.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get_path("attrs.attempt").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn finish_without_spans_is_a_noop() {
        let tracer = Tracer::new();
        tracer.finish(77);
        assert!(tracer.is_empty());
        let unsampled = TraceContext {
            sampled: false,
            ..ctx(8, 1)
        };
        for inactive in [TraceContext::NONE, unsampled] {
            let recorded = tracer.record(inactive, None, "dropped", 0..1, vec![]);
            assert_eq!(recorded, TraceContext::NONE);
        }
        tracer.finish(0);
        tracer.finish(8);
        assert!(tracer.is_empty());
    }
}
