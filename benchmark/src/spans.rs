//! Bench-side spans around each layer call, kept in memory and written
//! out as one ChromeTrace file when the traced run ends.
//!
//! The spans live here, in the harness, rather than inside the program:
//! every layer is timed from outside, through calls into its public
//! functions. A disabled recorder (the untraced run) costs one branch per
//! span.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use chambolle_telemetry::json::JsonValue;

/// Identifier of a recorded span; pass it as the parent of nested spans.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Record {
    name: String,
    parent: SpanId,
    start_us: f64,
    end_us: f64,
    thread: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    records: Option<Mutex<Vec<Record>>>,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn enabled() -> Spans {
        Spans {
            epoch: Instant::now(),
            records: Some(Mutex::new(Vec::new())),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Spans {
        Spans {
            epoch: Instant::now(),
            records: None,
        }
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(&self, name: &str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        let records = self.records.as_ref()?;
        let mut records = records.lock().expect("span recorder poisoned");
        records.push(Record {
            name: name.to_string(),
            parent,
            start_us: self.micros(start),
            end_us: self.micros(end),
            thread: thread_number(),
        });
        Some(records.len() - 1)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans.
    pub fn scope<T>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let Some(records) = &self.records else {
            return f(None);
        };
        let id = {
            let mut records = records.lock().expect("span recorder poisoned");
            records.push(Record {
                name: name.to_string(),
                parent,
                start_us: self.micros(Instant::now()),
                end_us: f64::NAN,
                thread: thread_number(),
            });
            records.len() - 1
        };
        let out = f(Some(id));
        let end = self.micros(Instant::now());
        records.lock().expect("span recorder poisoned")[id].end_us = end;
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.records
            .as_ref()
            .map_or(0, |r| r.lock().expect("span recorder poisoned").len())
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as a ChromeTrace (`chrome://tracing`, Perfetto)
    /// complete event, with its id and parent id in `args`, plus `meta`
    /// as the trace's metadata.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing `path`.
    pub fn write_chrome_trace(&self, path: &Path, meta: JsonValue) -> std::io::Result<()> {
        let records = match &self.records {
            Some(r) => r.lock().expect("span recorder poisoned").clone(),
            None => Vec::new(),
        };
        let events = records
            .iter()
            .enumerate()
            .map(|(id, r)| {
                JsonValue::Object(vec![
                    ("name".into(), r.name.as_str().into()),
                    ("ph".into(), "X".into()),
                    ("ts".into(), r.start_us.into()),
                    ("dur".into(), (r.end_us - r.start_us).max(0.0).into()),
                    ("pid".into(), 1u64.into()),
                    ("tid".into(), r.thread.into()),
                    (
                        "args".into(),
                        JsonValue::Object(vec![
                            ("id".into(), id.into()),
                            (
                                "parent".into(),
                                r.parent.map_or(JsonValue::Null, JsonValue::from),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = JsonValue::Object(vec![
            ("traceEvents".into(), JsonValue::Array(events)),
            ("displayTimeUnit".into(), "ms".into()),
            ("metadata".into(), meta),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_string())
    }

    fn micros(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }
}

/// A small stable number per OS thread, for the trace's `tid` lanes.
fn thread_number() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}
