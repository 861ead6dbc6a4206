//! What a run prints: named metrics with units, the pass/fail counts, and
//! the host stamp every recorded run carries.

use std::path::Path;

use chambolle_telemetry::json::JsonValue;
use chambolle_tune::Fingerprint;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit (`ms`, `s`, `1/s`, `MB`, `count`, ...).
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Units of work attempted: frames, flows, requests, CLI runs.
    pub attempted: u64,
    /// Attempts that failed, were rejected or missed a deadline, plus
    /// outputs that failed their check.
    pub failed: u64,
    /// Outputs that failed their correctness check (counted in `failed`).
    pub wrong: u64,
    /// Every metric of the run, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks: effective percentiles, sample counts,
    /// skipped layers and why.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The metric named `name`, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Folds another result's counts (not its metrics) into this one.
    pub fn absorb_counts(&mut self, other: &RunResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each metric as `{"value", "unit"}`).
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Object(vec![
                        ("value".into(), m.value.into()),
                        ("unit".into(), m.unit.into()),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), self.correct().into()),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
    }
}

/// The host and revision a result was measured on. Numbers compare only
/// within one fingerprint.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `chambolle_tune::Fingerprint` of the host.
    pub fingerprint: Fingerprint,
    /// Whether the host executes AVX-512F (not part of the fingerprint).
    pub avx512f: bool,
    /// Worker threads the pools run with (`available_parallelism`).
    pub nproc: usize,
    /// Git revision of the checkout, or `unknown` outside a repository.
    pub revision: String,
}

impl Stamp {
    /// Stamps the current host and the checkout in the working directory.
    pub fn detect() -> Stamp {
        Stamp {
            fingerprint: Fingerprint::detect(),
            avx512f: chambolle_core::KernelBackend::Avx512.is_supported(),
            nproc: nproc(),
            revision: git_revision(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// A directory-safe key naming the fingerprint, e.g.
    /// `x86_64-2c-avx2-avx512f`.
    pub fn key(&self) -> String {
        let fp = &self.fingerprint;
        let mut key = format!("{}-{}c", fp.arch, fp.cores);
        if fp.avx2 {
            key.push_str("-avx2");
        }
        if self.avx512f {
            key.push_str("-avx512f");
        }
        key
    }

    /// JSON form.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("fingerprint".into(), self.fingerprint.to_json()),
            ("fingerprint_key".into(), self.key().into()),
            ("avx512f".into(), self.avx512f.into()),
            ("nproc".into(), self.nproc.into()),
            ("revision".into(), self.revision.as_str().into()),
        ])
    }
}

/// Worker threads every pool and service of the benchmark runs with.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names in the repository rooted at `root`, read from
/// `.git` directly (no `git` process; nothing outside the checkout).
pub fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
