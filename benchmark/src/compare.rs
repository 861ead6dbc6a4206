//! `bench compare`: judges a change's run set against its parent's.
//!
//! A claimed (workload, metric) pair must pass the paired rule: at least
//! ten alternating pairs, the change better in at least nine tenths of
//! them (ties count for neither), and medians further apart than the
//! parent's interquartile range. Every other pair must not be worse than
//! the parent's median by more than its tolerance: the bound
//! `BENCHMARK.json` fixes, as a share of the parent's median, or the
//! metric's absolute floor when that is larger. A pair whose run-to-run
//! spread exceeds its tolerance is unresolved unless every change run
//! beats every parent run. Failures may not increase.

use std::fmt::Write as _;

use chambolle_telemetry::json::JsonValue;

use crate::stats::{median, quartiles};

/// Absolute tolerances `BENCHMARK.json` has no key for, in the metric's
/// unit: set-up time may worsen by its bound or by 20 ms, whichever is
/// larger, since a few milliseconds of a sub-100 ms set-up are scheduler
/// noise rather than work moved into set-up.
pub const ABSOLUTE_FLOORS: [(&str, f64); 1] = [("setup_s", 0.020)];

/// An end-to-end metric's direction and regression tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
    /// Worsening that is always tolerated, in the metric's unit.
    pub floor: f64,
}

impl MetricSpec {
    /// How far the change's median may fall behind a parent median of
    /// `parent`, in the metric's unit.
    pub fn tolerance(&self, parent: f64) -> f64 {
        (self.bound * parent.abs()).max(self.floor)
    }
}

/// Reads the `end_to_end` metrics of a `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or a metric without `name`, `better` or `bound`.
pub fn load_specs(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without name")?;
            let better = m.get("better").and_then(JsonValue::as_str);
            Ok(MetricSpec {
                name: name.to_string(),
                higher_is_better: match better {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err(format!("{name}: better must be higher or lower")),
                },
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{name}: bound missing"))?,
                floor: ABSOLUTE_FLOORS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, f)| *f),
            })
        })
        .collect()
}

/// One recorded run: its workload, failure count and metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Failed attempts.
    pub failed: u64,
    /// `(name, value)` of every metric.
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Parses a run set: one JSON object per line, as `--record` appends them.
///
/// # Errors
///
/// A line that is not such an object.
pub fn parse_runs(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let doc = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let workload = doc
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: no workload", i + 1))?;
            let metrics = doc
                .get("metrics")
                .and_then(JsonValue::as_object)
                .ok_or_else(|| format!("line {}: no metrics", i + 1))?
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(Record {
                workload: workload.to_string(),
                failed: doc.get("failed").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
                metrics,
            })
        })
        .collect()
}

/// The judgement on one (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within its bound; carries the signed change of the median as a share
    /// of the parent's (positive = better).
    Ok(f64),
    /// Worse than the bound allows.
    Regressed(f64),
    /// Spread wider than the tolerance, and the runs overlap.
    Unresolved {
        /// The larger IQR of the two sides, as a share of the parent's
        /// median.
        spread: f64,
    },
    /// Spread wider than the tolerance, but every change run beats every
    /// parent run.
    Better(f64),
    /// The claimed pair passed the paired rule.
    GainMet {
        /// Pairs the change won.
        wins: usize,
        /// Pairs compared.
        pairs: usize,
        /// Signed median change as a share of the parent's.
        change: f64,
    },
    /// The claimed pair failed the paired rule.
    GainNotMet {
        /// Pairs the change won.
        wins: usize,
        /// Pairs compared.
        pairs: usize,
        /// Signed median change as a share of the parent's.
        change: f64,
    },
    /// One side has no values.
    Missing,
}

impl Verdict {
    /// Whether this verdict blocks the change.
    pub fn blocks(&self) -> bool {
        matches!(self, Verdict::Regressed(_) | Verdict::GainNotMet { .. })
    }
}

/// One workload's verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// `(metric, verdict)` in `BENCHMARK.json` order.
    pub verdicts: Vec<(String, Verdict)>,
    /// Failed attempts summed over the parent's runs.
    pub parent_failed: u64,
    /// Failed attempts summed over the change's runs.
    pub change_failed: u64,
}

impl Row {
    /// Whether anything in the row blocks the change.
    pub fn blocks(&self) -> bool {
        self.change_failed > self.parent_failed || self.verdicts.iter().any(|(_, v)| v.blocks())
    }
}

fn values(runs: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.value(metric))
        .collect()
}

/// Judges every (workload, metric) pair; `claim` names the one pair the
/// change claims to improve.
pub fn compare(
    specs: &[MetricSpec],
    parent: &[Record],
    change: &[Record],
    claim: Option<(&str, &str)>,
) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    workloads
        .into_iter()
        .map(|w| {
            let failed = |runs: &[Record]| {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .map(|r| r.failed)
                    .sum()
            };
            Row {
                workload: w.to_string(),
                verdicts: specs
                    .iter()
                    .map(|s| {
                        let (p, c) = (values(parent, w, &s.name), values(change, w, &s.name));
                        let claimed = claim == Some((w, s.name.as_str()));
                        (s.name.clone(), judge(s, &p, &c, claimed))
                    })
                    .collect(),
                parent_failed: failed(parent),
                change_failed: failed(change),
            }
        })
        .collect()
}

/// Judges one pair from the parent's and the change's values, in run order.
pub fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64], claimed: bool) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Missing;
    }
    let better = |c: f64, p: f64| {
        if spec.higher_is_better {
            c > p
        } else {
            c < p
        }
    };
    let (mp, mc) = (median(parent), median(change));
    let gain = if spec.higher_is_better {
        (mc - mp) / mp.abs()
    } else {
        (mp - mc) / mp.abs()
    };
    if claimed {
        let pairs = parent.len().min(change.len());
        let wins = parent
            .iter()
            .zip(change)
            .filter(|(&p, &c)| better(c, p))
            .count();
        let [q1, _, q3] = quartiles(parent);
        let met =
            pairs >= 10 && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > q3 - q1;
        return if met {
            Verdict::GainMet {
                wins,
                pairs,
                change: gain,
            }
        } else {
            Verdict::GainNotMet {
                wins,
                pairs,
                change: gain,
            }
        };
    }
    let tolerance = spec.tolerance(mp);
    let iqr = |v: &[f64]| {
        let [q1, _, q3] = quartiles(v);
        q3 - q1
    };
    let spread = iqr(parent).max(iqr(change));
    if spread > tolerance {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        return if all_better {
            Verdict::Better(gain)
        } else {
            Verdict::Unresolved {
                spread: spread / mp.abs(),
            }
        };
    }
    if -gain * mp.abs() > tolerance {
        Verdict::Regressed(gain)
    } else {
        Verdict::Ok(gain)
    }
}

/// Formats one line per workload.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        let _ = write!(out, "{:<22}", row.workload);
        for (name, v) in &row.verdicts {
            let cell = match v {
                Verdict::Ok(g) => format!("ok {:+.1}%", 100.0 * g),
                Verdict::Regressed(g) => format!("REGRESSED {:+.1}%", 100.0 * g),
                Verdict::Unresolved { spread } => {
                    format!("unresolved (spread {:.1}%)", 100.0 * spread)
                }
                Verdict::Better(g) => format!("better {:+.1}%", 100.0 * g),
                Verdict::GainMet {
                    wins,
                    pairs,
                    change,
                } => format!("GAIN {wins}/{pairs} {:+.1}%", 100.0 * change),
                Verdict::GainNotMet {
                    wins,
                    pairs,
                    change,
                } => format!("claim not met {wins}/{pairs} {:+.1}%", 100.0 * change),
                Verdict::Missing => "missing".into(),
            };
            let _ = write!(out, " | {name}: {cell}");
        }
        let _ = writeln!(
            out,
            " | failed: {} -> {}",
            row.parent_failed, row.change_failed
        );
    }
    out
}
