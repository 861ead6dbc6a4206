//! The search engine: enumerate-then-filter over the knob space.
//!
//! The shape follows the rule-synthesis loop of the `ruler` exemplar:
//! *enumerate* candidate configurations, *filter* them cheaply, and only
//! *validate* (fully measure) the survivors. Concretely:
//!
//! 1. **Coordinate descent with early pruning.** Starting from the current
//!    defaults, each knob dimension is swept in turn while the others stay
//!    fixed. Every candidate is scored on a cheap **proxy** workload; a
//!    candidate that does not beat the incumbent is pruned immediately and
//!    never reaches the expensive phase. Sweeps repeat until a full pass
//!    improves nothing (or the sweep budget runs out).
//! 2. **Full measurement of survivors.** The best few configurations by
//!    proxy score (plus the untouched baseline) are re-measured on the
//!    real workload — an in-process service request replay — and the
//!    winner is decided on those numbers alone, so a proxy mis-ranking can
//!    cost coverage but never pick a regression over the measured baseline.
//!
//! The engine itself is pure orchestration: measurement is injected as
//! closures (`Option<f64>`: lower is better, `None` means "configuration
//! not measurable — prune"), so unit tests can steer it with synthetic
//! cost functions. Every trial is recorded in the returned
//! [`SearchOutcome`] and counted through the `tune.*` telemetry metrics.

use chambolle_telemetry::{names, Telemetry};

use crate::knobs::Tunables;

/// Candidate values per knob dimension. Empty dimensions are skipped.
///
/// The watermark percentages are not searched: the replay that scores a
/// candidate runs no degradation policy, so it cannot observe the one
/// decision they make, when a degrading service sheds fidelity.
#[derive(Debug, Clone, Default)]
pub struct SearchSpace {
    /// Candidate micro-batch coalescing windows.
    pub batch_windows: Vec<usize>,
}

/// One candidate-producing mutation of the incumbent configuration.
type Setter = Box<dyn Fn(&Tunables) -> Tunables>;

impl SearchSpace {
    /// The service-knob grid (the batch coalescing window), searched
    /// against in-process request replays.
    pub fn service(smoke: bool) -> SearchSpace {
        SearchSpace {
            batch_windows: if smoke {
                vec![1, 4, 8]
            } else {
                vec![1, 2, 4, 8, 16, 32]
            },
        }
    }

    /// Materializes the non-empty dimensions as named candidate setters.
    fn dimensions(&self) -> Vec<(&'static str, Vec<Setter>)> {
        if self.batch_windows.is_empty() {
            return Vec::new();
        }
        let setters = self
            .batch_windows
            .iter()
            .map(|&batch_window| -> Setter { Box::new(move |t| Tunables { batch_window, ..*t }) })
            .collect();
        vec![("batch_window", setters)]
    }
}

/// Search budget and filter shape.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Maximum coordinate-descent sweeps over all dimensions.
    pub sweeps: usize,
    /// How many best-by-proxy survivors get a full measurement.
    pub keep_top: usize,
}

impl Default for SearchOptions {
    /// Two sweeps, three survivors.
    fn default() -> Self {
        SearchOptions {
            sweeps: 2,
            keep_top: 3,
        }
    }
}

/// Which phase of the enumerate-then-filter loop a trial ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialPhase {
    /// Cheap proxy measurement during coordinate descent.
    Proxy,
    /// Full measurement of a surviving configuration.
    Full,
}

impl TrialPhase {
    /// Stable identifier (`proxy`/`full`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TrialPhase::Proxy => "proxy",
            TrialPhase::Full => "full",
        }
    }
}

/// One measured (or pruned) configuration.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Phase the trial ran in.
    pub phase: TrialPhase,
    /// Knob dimension the candidate varied (`"baseline"`/`"survivor"` for
    /// the anchor measurements).
    pub dimension: &'static str,
    /// The candidate configuration.
    pub tunables: Tunables,
    /// Measured score in milliseconds (lower is better); `None` when the
    /// configuration was invalid or the measurement declined it.
    pub score_ms: Option<f64>,
    /// Whether the candidate became the incumbent when it ran.
    pub accepted: bool,
}

/// The result of one search: the winner, the anchors it is judged against,
/// and the complete trial log.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The winning configuration (by full score; the baseline itself if
    /// nothing beat it).
    pub best: Tunables,
    /// Proxy score of the starting configuration, ms.
    pub baseline_proxy_ms: f64,
    /// Proxy score of the best configuration found by descent, ms.
    pub best_proxy_ms: f64,
    /// Full score of the starting configuration, ms.
    pub baseline_full_ms: f64,
    /// Full score of the winning configuration, ms.
    pub best_full_ms: f64,
    /// Every trial, in execution order.
    pub trials: Vec<Trial>,
    /// Candidates pruned before full measurement (invalid or not better on
    /// the proxy).
    pub pruned: usize,
    /// Knob dimensions actually searched.
    pub dimensions_searched: usize,
}

impl SearchOutcome {
    /// Baseline-over-best on the full measurement: >1 means the search
    /// found a faster schedule.
    pub fn speedup(&self) -> f64 {
        if self.best_full_ms > 0.0 {
            self.baseline_full_ms / self.best_full_ms
        } else {
            1.0
        }
    }
}

/// Runs the enumerate-then-filter search described in the module docs.
///
/// `proxy` and `full` map a configuration to a score in milliseconds
/// (lower is better); returning `None` prunes the candidate. Returns
/// `None` only when the *baseline* itself cannot be measured — there is
/// nothing meaningful to search from then.
pub fn coordinate_descent(
    space: &SearchSpace,
    baseline: Tunables,
    opts: &SearchOptions,
    telemetry: &Telemetry,
    proxy: &mut dyn FnMut(&Tunables) -> Option<f64>,
    full: &mut dyn FnMut(&Tunables) -> Option<f64>,
) -> Option<SearchOutcome> {
    let dimensions = space.dimensions();
    let mut trials = Vec::new();
    let mut pruned = 0usize;

    let measure = |phase: TrialPhase,
                   dimension: &'static str,
                   t: &Tunables,
                   f: &mut dyn FnMut(&Tunables) -> Option<f64>,
                   trials: &mut Vec<Trial>|
     -> Option<f64> {
        let score = if t.validate().is_ok() { f(t) } else { None };
        telemetry.counter_add(names::TUNE_TRIALS, 1);
        if let Some(ms) = score {
            telemetry.observe(names::TUNE_TRIAL_MS, ms);
        }
        trials.push(Trial {
            phase,
            dimension,
            tunables: *t,
            score_ms: score,
            accepted: false,
        });
        score
    };

    let baseline_proxy_ms = measure(TrialPhase::Proxy, "baseline", &baseline, proxy, &mut trials)?;
    trials.last_mut().expect("baseline trial recorded").accepted = true;

    // Phase 1: coordinate descent on the proxy, collecting survivors.
    let mut incumbent = baseline;
    let mut incumbent_ms = baseline_proxy_ms;
    let mut survivors: Vec<(Tunables, f64)> = vec![(baseline, baseline_proxy_ms)];
    for _sweep in 0..opts.sweeps.max(1) {
        let mut improved = false;
        for (name, setters) in &dimensions {
            for setter in setters {
                let candidate = setter(&incumbent);
                if candidate == incumbent {
                    continue;
                }
                let Some(ms) = measure(TrialPhase::Proxy, name, &candidate, proxy, &mut trials)
                else {
                    pruned += 1;
                    continue;
                };
                if !survivors.iter().any(|(t, _)| *t == candidate) {
                    survivors.push((candidate, ms));
                }
                if ms < incumbent_ms {
                    incumbent = candidate;
                    incumbent_ms = ms;
                    improved = true;
                    trials.last_mut().expect("trial recorded").accepted = true;
                } else {
                    pruned += 1;
                }
            }
        }
        if !improved {
            break;
        }
    }

    // Phase 2: full measurement of the baseline plus the best survivors.
    survivors.sort_by(|a, b| a.1.total_cmp(&b.1));
    survivors.truncate(opts.keep_top.max(1));
    let baseline_full_ms = measure(TrialPhase::Full, "baseline", &baseline, full, &mut trials)?;
    let mut best = baseline;
    let mut best_full_ms = baseline_full_ms;
    for (candidate, _) in &survivors {
        if *candidate == baseline {
            continue;
        }
        let Some(ms) = measure(TrialPhase::Full, "survivor", candidate, full, &mut trials) else {
            pruned += 1;
            continue;
        };
        if ms < best_full_ms {
            best = *candidate;
            best_full_ms = ms;
            trials.last_mut().expect("trial recorded").accepted = true;
        }
    }

    telemetry.counter_add(names::TUNE_TRIALS_PRUNED, pruned as u64);
    Some(SearchOutcome {
        best,
        baseline_proxy_ms,
        best_proxy_ms: incumbent_ms,
        baseline_full_ms,
        best_full_ms,
        trials,
        pruned,
        dimensions_searched: dimensions.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic synthetic cost surface with a unique optimum, so
    /// the descent's convergence is checkable without real measurements.
    fn synthetic_cost(t: &Tunables) -> Option<f64> {
        t.validate().ok()?;
        Some((t.batch_window as f64 - 4.0).abs() * 2.0 + 100.0)
    }

    #[test]
    fn descent_finds_the_synthetic_optimum() {
        let space = SearchSpace {
            batch_windows: vec![1, 2, 4, 8, 16],
        };
        let tele = Telemetry::null();
        let outcome = coordinate_descent(
            &space,
            Tunables::default(),
            &SearchOptions::default(),
            &tele,
            &mut synthetic_cost,
            &mut synthetic_cost,
        )
        .unwrap();
        assert_eq!(outcome.best.batch_window, 4);
        assert!(outcome.speedup() > 1.0);
        assert!(outcome.pruned > 0, "descent must prune losing candidates");
        let snap = tele.snapshot();
        assert_eq!(
            snap.counter(names::TUNE_TRIALS),
            Some(outcome.trials.len() as u64)
        );
        assert!(snap.counter(names::TUNE_TRIALS_PRUNED).is_some());
    }

    #[test]
    fn unmeasurable_baseline_aborts_the_search() {
        let tele = Telemetry::disabled();
        let outcome = coordinate_descent(
            &SearchSpace::service(true),
            Tunables::default(),
            &SearchOptions::default(),
            &tele,
            &mut |_| None,
            &mut |_| None,
        );
        assert!(outcome.is_none());
    }

    #[test]
    fn winner_is_decided_on_full_scores_not_proxy_scores() {
        // The proxy loves unbatched dispatch; the full measurement knows
        // better. The winner must come from the full phase.
        let space = SearchSpace {
            batch_windows: vec![8, 1],
        };
        let mut proxy = |t: &Tunables| Some(if t.batch_window == 1 { 1.0 } else { 2.0 });
        let mut full = |t: &Tunables| Some(if t.batch_window == 1 { 9.0 } else { 3.0 });
        let outcome = coordinate_descent(
            &space,
            Tunables::default(),
            &SearchOptions::default(),
            &Telemetry::disabled(),
            &mut proxy,
            &mut full,
        )
        .unwrap();
        assert_eq!(outcome.best.batch_window, 8);
        assert!((outcome.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn service_space_searches_only_service_dimensions() {
        let cost = |t: &Tunables| Some(t.batch_window as f64 + 0.1);
        let outcome = coordinate_descent(
            &SearchSpace::service(true),
            Tunables::default(),
            &SearchOptions::default(),
            &Telemetry::disabled(),
            &mut cost.clone(),
            &mut cost.clone(),
        )
        .unwrap();
        assert_eq!(outcome.dimensions_searched, 1, "the batch window alone");
        assert_eq!(outcome.best.batch_window, 1);
        // The watermarks are written at their defaults, never searched.
        let defaults = Tunables::default();
        assert_eq!(outcome.best.high_watermark_pct, defaults.high_watermark_pct);
        assert_eq!(outcome.best.low_watermark_pct, defaults.low_watermark_pct);
    }
}
