//! RAII span timers.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::Metrics;

/// An open span: created by [`crate::Telemetry::span`], closed (and timed)
/// on drop.
///
/// Closing records the elapsed wall time, in microseconds, into the
/// histogram `span.<name>` — so p50/p90/p99 of every instrumented region
/// come for free in the final report. A span of a disabled handle is an
/// empty guard: opening and dropping it reads no clock and allocates
/// nothing.
///
/// # Examples
///
/// ```
/// use chambolle_telemetry::Telemetry;
///
/// let tele = Telemetry::null();
/// {
///     let _solve = tele.span("solve");
///     let _round = tele.span("round"); // nested
/// } // both close here, innermost first
/// let snap = tele.snapshot();
/// assert_eq!(snap.get("span.round").unwrap().as_histogram().unwrap().count(), 1);
/// ```
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a named variable"]
pub struct Span {
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    metrics: Arc<Mutex<Metrics>>,
    metric: String,
    start: Instant,
}

impl Span {
    pub(crate) fn open(metrics: Option<&Arc<Mutex<Metrics>>>, name: &str) -> Span {
        Span {
            open: metrics.map(|metrics| OpenSpan {
                metrics: Arc::clone(metrics),
                metric: span_metric_name(name),
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(span) = &self.open else {
            return;
        };
        let micros = span.start.elapsed().as_micros() as f64;
        // A poisoned registry loses this one sample; panicking in drop
        // could abort an unwinding thread.
        if let Ok(mut metrics) = span.metrics.lock() {
            metrics.observe(&span.metric, micros);
        }
    }
}

/// Metric name of the duration histogram a span feeds.
pub fn span_metric_name(span_name: &str) -> String {
    format!("span.{span_name}")
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn nested_spans_each_time_their_own_scope() {
        let tele = Telemetry::null();
        {
            let _outer = tele.span("outer");
            {
                let _mid = tele.span("mid");
                let _inner = tele.span("inner");
            }
            let _sibling = tele.span("sibling");
        }
        let snap = tele.snapshot();
        let hist = |name: &str| snap.get(name).unwrap().as_histogram().unwrap().clone();
        for name in ["span.outer", "span.mid", "span.inner", "span.sibling"] {
            assert_eq!(hist(name).count(), 1, "{name}");
        }
        // The outer span covers the inner one, so it is never shorter.
        assert!(hist("span.outer").max() >= hist("span.inner").max());
    }

    #[test]
    fn disabled_span_is_inert() {
        let tele = Telemetry::disabled();
        let span = tele.span("anything");
        assert!(span.open.is_none());
        drop(span);
        assert!(tele.snapshot().is_empty());
    }
}
