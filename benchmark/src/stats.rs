//! Order statistics shared by the workloads, the layer probes and
//! `compare`.

/// The samples sorted ascending (NaNs last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(samples, n=4)` computes them (its default
/// "exclusive" method), so spreads reported here match the acceptance
/// arithmetic. Needs at least two samples; fewer give `NaN`s.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return [f64::NAN; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// A tail percentile chosen so that enough samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The selected order statistic.
    pub value: f64,
    /// The percentile it represents, in `[0, 1]`.
    pub quantile: f64,
    /// Samples strictly beyond it in sort order.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The nearest-rank `q` percentile, lowered when needed so that at least
/// `min_beyond` samples lie beyond it: the highest percentile up to `q`
/// that a run of this length can still resolve. A run too short to leave
/// `min_beyond` samples above its median reports the median.
pub fn tail_percentile(samples: &[f64], q: f64, min_beyond: usize) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            quantile: q,
            beyond: 0,
            samples: 0,
        };
    }
    let nearest_rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = nearest_rank
        .min((n - 1).saturating_sub(min_beyond))
        .max((n - 1) / 2);
    Tail {
        value: v[idx],
        quantile: (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        samples: n,
    }
}
