//! The metric registry: counters, gauges, and fixed-bucket histograms.
//!
//! Names are flat dotted strings from the registry in [`crate::names`];
//! the registry stores them in a `BTreeMap` so snapshots and reports come
//! out in a deterministic order.

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Default histogram bucket upper bounds — a 1/2/5 decade ladder that suits
/// both microsecond span durations and cycle counts.
pub const DEFAULT_BUCKETS: [f64; 16] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 1e5, 1e6, 1e7,
];

/// A fixed-bucket histogram.
///
/// Bucket `i` counts observations `v` with `bounds[i-1] < v <= bounds[i]`
/// (the first bucket has no lower edge); one overflow bucket counts
/// everything above the last bound. Quantiles resolve to the upper bound of
/// the bucket containing the requested rank, so a value observed exactly at
/// a bucket edge is reported as that edge.
///
/// # Examples
///
/// ```
/// use chambolle_telemetry::metrics::Histogram;
///
/// let mut h = Histogram::new(&[10.0, 100.0]);
/// for v in [1.0, 5.0, 10.0, 60.0] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.5), 10.0); // rank 2 of 4 falls in the (_, 10] bucket
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A histogram over [`DEFAULT_BUCKETS`].
    pub fn with_default_buckets() -> Self {
        Histogram::new(&DEFAULT_BUCKETS)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Observations that exceeded the last bucket bound (the saturating
    /// `+Inf` bucket).
    pub fn overflow(&self) -> u64 {
        self.counts[self.bounds.len()]
    }

    /// Mean observation (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The quantile `q ∈ [0, 1]`, resolved to the upper bound of the bucket
    /// holding rank `⌈q·count⌉` (at least 1). Observations in the overflow
    /// bucket resolve to the largest observation. Returns `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges another histogram's observations into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "bucket layouts must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serializes the summary plus the raw buckets.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("count".into(), self.count.into()),
            ("sum".into(), self.sum.into()),
            ("min".into(), self.min().into()),
            ("max".into(), self.max().into()),
            ("mean".into(), self.mean().into()),
            ("p50".into(), self.p50().into()),
            ("p90".into(), self.p90().into()),
            ("p99".into(), self.p99().into()),
            ("overflow".into(), self.overflow().into()),
            (
                "bounds".into(),
                JsonValue::Array(self.bounds.iter().map(|&b| b.into()).collect()),
            ),
            (
                "counts".into(),
                JsonValue::Array(self.counts.iter().map(|&c| c.into()).collect()),
            ),
        ])
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-written measurement.
    Gauge(f64),
    /// Distribution of observations.
    Histogram(Histogram),
}

impl MetricValue {
    /// The counter payload, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge payload, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram payload, if this is a histogram.
    pub fn as_histogram(&self) -> Option<&Histogram> {
        match self {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// A registry of named metrics with deterministic (sorted) iteration order.
///
/// # Examples
///
/// ```
/// use chambolle_telemetry::metrics::Metrics;
///
/// let mut m = Metrics::new();
/// m.counter_add("solver.iterations", 100);
/// m.gauge_set("tiling.redundancy_ratio", 0.11);
/// m.observe("span.window", 42.0);
/// assert_eq!(m.counter("solver.iterations"), Some(100));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: BTreeMap<String, MetricValue>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds to a counter, creating it at zero if absent. A name already
    /// registered with a different kind is left untouched (the mismatch is a
    /// programming error; it trips a debug assertion).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            _ => debug_assert!(false, "metric {name:?} is not a counter"),
        }
    }

    /// Sets a gauge, creating it if absent.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(MetricValue::Gauge(0.0))
        {
            MetricValue::Gauge(v) => *v = value,
            _ => debug_assert!(false, "metric {name:?} is not a gauge"),
        }
    }

    /// Records a histogram observation (default buckets on first use).
    pub fn observe(&mut self, name: &str, value: f64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(Histogram::with_default_buckets()))
        {
            MetricValue::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "metric {name:?} is not a histogram"),
        }
    }

    /// Looks up a metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// A counter's value, if registered as one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(MetricValue::as_counter)
    }

    /// A gauge's value, if registered as one.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(MetricValue::as_gauge)
    }

    /// Iterates metrics in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value, histograms merge.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in &other.entries {
            match value {
                MetricValue::Counter(v) => self.counter_add(name, *v),
                MetricValue::Gauge(v) => self.gauge_set(name, *v),
                MetricValue::Histogram(h) => match self
                    .entries
                    .entry(name.clone())
                    .or_insert_with(|| MetricValue::Histogram(Histogram::new(&h.bounds)))
                {
                    MetricValue::Histogram(mine) => mine.merge(h),
                    _ => debug_assert!(false, "metric {name:?} is not a histogram"),
                },
            }
        }
    }

    /// Serializes every metric into one JSON object keyed by name.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        MetricValue::Counter(c) => JsonValue::Object(vec![
                            ("type".into(), "counter".into()),
                            ("value".into(), (*c).into()),
                        ]),
                        MetricValue::Gauge(g) => JsonValue::Object(vec![
                            ("type".into(), "gauge".into()),
                            ("value".into(), (*g).into()),
                        ]),
                        MetricValue::Histogram(h) => JsonValue::Object(vec![
                            ("type".into(), "histogram".into()),
                            ("value".into(), h.to_json()),
                        ]),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_at_bucket_edges() {
        // Bounds 10 / 20 / 30; observations placed exactly on the edges.
        let mut h = Histogram::new(&[10.0, 20.0, 30.0]);
        for v in [10.0, 10.0, 20.0, 20.0, 20.0, 30.0, 30.0, 30.0, 30.0, 30.0] {
            h.observe(v);
        }
        // Ranks: bucket (..10] holds 2, (10..20] holds 3, (20..30] holds 5.
        assert_eq!(h.quantile(0.0), 10.0); // rank clamps to 1
        assert_eq!(h.quantile(0.2), 10.0); // rank 2: last in the first bucket
        assert_eq!(h.quantile(0.21), 20.0); // rank 3: first of the second
        assert_eq!(h.p50(), 20.0); // rank 5: last of the second
        assert_eq!(h.quantile(0.51), 30.0); // rank 6: first of the third
        assert_eq!(h.p90(), 30.0);
        assert_eq!(h.p99(), 30.0);
        assert_eq!(h.quantile(1.0), 30.0);
    }

    #[test]
    fn edge_value_lands_in_lower_bucket() {
        // An observation exactly equal to a bound belongs to that bound's
        // bucket, so the quantile never over-reports it into the next one.
        let mut h = Histogram::new(&[5.0, 50.0]);
        h.observe(5.0);
        assert_eq!(h.p50(), 5.0);
        assert_eq!(h.p99(), 5.0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        h.observe(123.0);
        h.observe(456.0);
        assert_eq!(h.quantile(0.01), 1.0);
        assert_eq!(h.p99(), 456.0, "overflow resolves to the observed max");
        assert_eq!(h.max(), 456.0);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.overflow(), 2, "both out-of-range values counted");
    }

    #[test]
    fn edge_values_never_split_across_buckets() {
        // Regression: a value exactly equal to an upper bound must land in
        // that bound's bucket every time, independent of observation order.
        let mut a = Histogram::new(&[10.0, 20.0]);
        let mut b = Histogram::new(&[10.0, 20.0]);
        for _ in 0..100 {
            a.observe(10.0);
        }
        for _ in 0..100 {
            b.observe(10.0);
        }
        assert_eq!(a, b, "identical inputs give identical bucket layouts");
        assert_eq!(a.quantile(0.0), 10.0);
        assert_eq!(a.quantile(1.0), 10.0);
        assert_eq!(a.overflow(), 0);
    }

    #[test]
    fn overflow_is_reported_in_json() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(999.0);
        h.observe(1e9);
        let j = h.to_json();
        assert_eq!(j.get("overflow").unwrap().as_f64(), Some(2.0));
        // The counts array carries the +Inf bucket as its final entry.
        let counts = j.get("counts").unwrap().as_array().unwrap();
        assert_eq!(counts.len(), 3, "bounds + 1 saturating overflow bucket");
        assert_eq!(counts[2].as_f64(), Some(2.0));
        let empty = Histogram::new(&[1.0]);
        assert_eq!(empty.to_json().get("overflow").unwrap().as_f64(), Some(0.0));
        assert_eq!(empty.overflow(), 0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let mut h = Histogram::with_default_buckets();
        for v in [1.0, 3.0, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 12.0);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(&[10.0]);
        let mut b = Histogram::new(&[10.0]);
        a.observe(1.0);
        b.observe(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 100.0);
    }

    #[test]
    fn registry_basics() {
        let mut m = Metrics::new();
        m.counter_add("c", 2);
        m.counter_add("c", 3);
        m.gauge_set("g", 1.5);
        m.gauge_set("g", 2.5);
        m.observe("h", 7.0);
        assert_eq!(m.counter("c"), Some(5));
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.get("h").unwrap().as_histogram().unwrap().count(), 1);
        assert_eq!(m.len(), 3);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["c", "g", "h"], "sorted iteration order");
    }

    #[test]
    fn registry_merge() {
        let mut a = Metrics::new();
        a.counter_add("c", 1);
        a.observe("h", 1.0);
        let mut b = Metrics::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 9.0);
        b.observe("h", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.get("h").unwrap().as_histogram().unwrap().count(), 2);
    }

    #[test]
    fn to_json_shape() {
        let mut m = Metrics::new();
        m.counter_add("c", 4);
        m.observe("h", 3.0);
        let j = m.to_json();
        assert_eq!(j.get_path("c.type").unwrap().as_str(), Some("counter"));
        assert_eq!(j.get_path("c.value").unwrap().as_f64(), Some(4.0));
        assert_eq!(j.get_path("h.value.count").unwrap().as_f64(), Some(1.0));
    }
}
