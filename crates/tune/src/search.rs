//! The search engine: enumerate-then-filter over the knob space.
//!
//! The shape follows the rule-synthesis loop of the `ruler` exemplar
//! (ROADMAP item 3): *enumerate* candidate configurations, *filter* them
//! cheaply, and only *validate* (fully measure) the survivors. Concretely:
//!
//! 1. **Coordinate descent with early pruning.** Starting from the current
//!    defaults, each knob dimension is swept in turn while the others stay
//!    fixed. Every candidate is scored on a cheap **proxy** workload; a
//!    candidate that does not beat the incumbent is pruned immediately and
//!    never reaches the expensive phase. Sweeps repeat until a full pass
//!    improves nothing (or the sweep budget runs out).
//! 2. **Full measurement of survivors.** The best few configurations by
//!    proxy score (plus the untouched baseline) are re-measured on the
//!    real workloads — the `bench` denoise/TV-L1 runs, or in-process
//!    service request replays for the service knobs — and the winner is decided on
//!    those numbers alone, so a proxy mis-ranking can cost coverage but
//!    never pick a regression over the measured baseline.
//!
//! The engine itself is pure orchestration: measurement is injected as
//! closures (`Option<f64>`: lower is better, `None` means "configuration
//! not measurable — prune"), so the same driver tunes solver schedules,
//! imaging band heuristics and service queues, and unit tests can steer it
//! with synthetic cost functions. Every trial is recorded in the returned
//! [`SearchOutcome`] and counted through the `tune.*` telemetry metrics.

use chambolle_telemetry::{names, Telemetry};

use crate::knobs::{BackendChoice, NumericsChoice, Tunables};

/// Candidate values per knob dimension. Empty dimensions are skipped, so
/// one space type serves solver-only, service-only and combined searches.
#[derive(Debug, Clone, Default)]
pub struct SearchSpace {
    /// Candidate solver tile widths.
    pub tile_widths: Vec<usize>,
    /// Candidate solver tile heights.
    pub tile_heights: Vec<usize>,
    /// Candidate decomposition depths K.
    pub merge_factors: Vec<u32>,
    /// Candidate extra-halo widths.
    pub halo_margins: Vec<usize>,
    /// Candidate worker-pool widths.
    pub threads: Vec<usize>,
    /// Candidate imaging band-row divisors.
    pub band_rows_divisors: Vec<usize>,
    /// Candidate kernel backends.
    pub backends: Vec<BackendChoice>,
    /// Candidate numerics tiers (the search measures Fast-tier schedules;
    /// see the `tune` binary for how a Fast winner is persisted).
    pub numerics: Vec<NumericsChoice>,
    /// Candidate micro-batch coalescing windows.
    pub batch_windows: Vec<usize>,
    /// Candidate admission watermark pairs `(high_pct, low_pct)`.
    pub watermarks: Vec<(u8, u8)>,
}

/// One candidate-producing mutation of the incumbent configuration.
type Setter = Box<dyn Fn(&Tunables) -> Tunables>;

impl SearchSpace {
    /// A coarse grid sized for CI: seconds of wall time, still covering
    /// every solver dimension the acceptance contract requires (tile
    /// geometry, K, halo, threads, band divisor, backend).
    pub fn smoke(max_threads: usize) -> SearchSpace {
        SearchSpace {
            tile_widths: vec![48, 92, 128],
            tile_heights: vec![40, 88, 120],
            merge_factors: vec![1, 2, 4],
            halo_margins: vec![0, 2],
            threads: thread_grid(max_threads, 3),
            band_rows_divisors: vec![1, 4],
            backends: vec![BackendChoice::Auto, BackendChoice::Scalar],
            numerics: vec![NumericsChoice::Auto, NumericsChoice::Fast],
            batch_windows: vec![],
            watermarks: vec![],
        }
    }

    /// The full solver grid for real tuning runs.
    pub fn full(max_threads: usize) -> SearchSpace {
        SearchSpace {
            tile_widths: vec![32, 48, 64, 92, 128, 192],
            tile_heights: vec![24, 40, 64, 88, 120, 176],
            merge_factors: vec![1, 2, 3, 4, 6, 8],
            halo_margins: vec![0, 1, 2, 4],
            threads: thread_grid(max_threads, 6),
            band_rows_divisors: vec![1, 2, 4, 8, 16],
            backends: vec![
                BackendChoice::Auto,
                BackendChoice::Scalar,
                BackendChoice::Sse2,
                BackendChoice::Avx2,
                BackendChoice::Avx512,
            ],
            numerics: vec![
                NumericsChoice::Auto,
                NumericsChoice::Exact,
                NumericsChoice::Fast,
            ],
            batch_windows: vec![],
            watermarks: vec![],
        }
    }

    /// The service-knob grid (batch coalescing window + watermarks),
    /// searched against in-process request replays.
    pub fn service(smoke: bool) -> SearchSpace {
        SearchSpace {
            batch_windows: if smoke {
                vec![1, 4, 8]
            } else {
                vec![1, 2, 4, 8, 16, 32]
            },
            watermarks: if smoke {
                vec![(75, 25), (90, 50)]
            } else {
                vec![(50, 10), (75, 25), (90, 50), (95, 75)]
            },
            ..SearchSpace::default()
        }
    }

    /// The number of non-empty knob dimensions this space searches.
    pub fn dimension_count(&self) -> usize {
        self.dimensions().len()
    }

    /// Materializes the non-empty dimensions as named candidate setters.
    fn dimensions(&self) -> Vec<(&'static str, Vec<Setter>)> {
        fn dim<T: Copy + 'static>(
            name: &'static str,
            values: &[T],
            set: fn(&mut Tunables, T),
        ) -> Option<(&'static str, Vec<Setter>)> {
            if values.is_empty() {
                return None;
            }
            let setters = values
                .iter()
                .map(|&v| -> Setter {
                    Box::new(move |t| {
                        let mut t = *t;
                        set(&mut t, v);
                        t
                    })
                })
                .collect();
            Some((name, setters))
        }
        [
            dim("tile_width", &self.tile_widths, |t, v| t.tile_width = v),
            dim("tile_height", &self.tile_heights, |t, v| t.tile_height = v),
            dim("merge_factor", &self.merge_factors, |t, v| {
                t.merge_factor = v;
            }),
            dim("halo_margin", &self.halo_margins, |t, v| t.halo_margin = v),
            dim("threads", &self.threads, |t, v| t.threads = v),
            dim("band_rows_divisor", &self.band_rows_divisors, |t, v| {
                t.band_rows_divisor = v;
            }),
            dim("backend", &self.backends, |t, v| t.backend = v),
            dim("numerics", &self.numerics, |t, v| t.numerics = v),
            dim("batch_window", &self.batch_windows, |t, v| {
                t.batch_window = v;
            }),
            dim("watermarks", &self.watermarks, |t, (hi, lo)| {
                t.high_watermark_pct = hi;
                t.low_watermark_pct = lo;
            }),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// A small geometric thread grid `1, 2, 4, …` capped at `max` with at most
/// `len` entries, always containing `max` itself.
fn thread_grid(max: usize, len: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut grid = Vec::new();
    let mut n = 1;
    while n < max && grid.len() + 1 < len {
        grid.push(n);
        n *= 2;
    }
    grid.push(max);
    grid
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
        let backend_cost = match t.backend {
            BackendChoice::Avx512 => 0.0,
            BackendChoice::Avx2 => 1.0,
            BackendChoice::Sse2 => 4.0,
            BackendChoice::Auto => 6.0,
            BackendChoice::Scalar => 10.0,
        };
        Some(
            (t.tile_width as f64 - 128.0).abs()
                + (t.tile_height as f64 - 120.0).abs()
                + f64::from(t.merge_factor.abs_diff(4)) * 3.0
                + (t.threads as f64 - 4.0).abs() * 2.0
                + (t.band_rows_divisor as f64 - 1.0).abs()
                + t.halo_margin as f64
                + backend_cost
                + 100.0,
        )
    }

    #[test]
    fn descent_finds_the_synthetic_optimum() {
        let space = SearchSpace {
            threads: vec![1, 2, 4],
            ..SearchSpace::smoke(4)
        };
        assert!(space.dimension_count() >= 5, "acceptance: >= 5 dimensions");
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
        assert_eq!(outcome.best.tile_width, 128);
        assert_eq!(outcome.best.tile_height, 120);
        assert_eq!(outcome.best.merge_factor, 4);
        assert_eq!(outcome.best.threads, 4);
        assert_eq!(outcome.best.band_rows_divisor, 1);
        assert_eq!(outcome.best.backend, BackendChoice::Auto); // smoke space has no avx2
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
            &SearchSpace::smoke(2),
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
        // The proxy loves scalar; the full measurement knows better. The
        // winner must come from the full phase.
        let space = SearchSpace {
            backends: vec![BackendChoice::Auto, BackendChoice::Scalar],
            ..SearchSpace::default()
        };
        let mut proxy = |t: &Tunables| {
            Some(if t.backend == BackendChoice::Scalar {
                1.0
            } else {
                2.0
            })
        };
        let mut full = |t: &Tunables| {
            Some(if t.backend == BackendChoice::Scalar {
                9.0
            } else {
                3.0
            })
        };
        let outcome = coordinate_descent(
            &space,
            Tunables::default(),
            &SearchOptions::default(),
            &Telemetry::disabled(),
            &mut proxy,
            &mut full,
        )
        .unwrap();
        assert_eq!(outcome.best.backend, BackendChoice::Auto);
        assert!((outcome.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn service_space_searches_only_service_dimensions() {
        let space = SearchSpace::service(true);
        assert_eq!(space.dimension_count(), 2);
        let cost = |t: &Tunables| Some(t.batch_window as f64 + 0.1);
        let outcome = coordinate_descent(
            &space,
            Tunables::default(),
            &SearchOptions::default(),
            &Telemetry::disabled(),
            &mut cost.clone(),
            &mut cost.clone(),
        )
        .unwrap();
        assert_eq!(outcome.best.batch_window, 1);
        // Solver knobs never moved.
        assert_eq!(outcome.best.tile_width, Tunables::default().tile_width);
    }

    #[test]
    fn thread_grid_contains_max_and_is_bounded() {
        assert_eq!(thread_grid(1, 4), vec![1]);
        assert_eq!(thread_grid(8, 4), vec![1, 2, 4, 8]);
        assert_eq!(thread_grid(6, 3), vec![1, 2, 6]);
        assert_eq!(thread_grid(0, 3), vec![1]);
    }
}
