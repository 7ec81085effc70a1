//! Typed metrics: counters, gauge time series and histograms.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice — the one definition:
/// `capsacc-serve` re-exports it and its latency aggregates call it, so
/// bench tables and telemetry dumps agree digit for digit. Returns 0 on
/// an empty slice.
///
/// # Panics
///
/// Panics unless `0 < pct <= 100`.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(pct > 0.0 && pct <= 100.0, "percentile out of range");
    if sorted.is_empty() {
        return 0;
    }
    // lint:allow(cast-audit, nearest-rank is defined on the f64 ceil; rank <= len so the cast back to an index is lossless)
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary statistics of one histogram, computed at export time.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Nearest-rank 50th percentile.
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
}

/// A registry of named metrics. Keys are stored in a `BTreeMap`, so
/// every export iterates in a stable, sorted order regardless of
/// recording order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Vec<(u64, f64)>>,
    histograms: BTreeMap<String, Vec<u64>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `v` to the named counter (created at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry_or_insert(name) += v;
    }

    /// Appends a `(cycle, value)` sample to the named gauge series.
    pub fn gauge_sample(&mut self, name: &str, cycle: u64, v: f64) {
        self.gauges.entry_or_insert(name).push((cycle, v));
    }

    /// Records one observation into the named histogram.
    pub fn hist_record(&mut self, name: &str, v: u64) {
        self.histograms.entry_or_insert(name).push(v);
    }

    /// Counter value, zero if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge samples in recording order (empty if never touched).
    pub fn gauge(&self, name: &str) -> &[(u64, f64)] {
        self.gauges.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summary of the named histogram (all-zero if never touched).
    pub fn histogram(&self, name: &str) -> HistogramSummary {
        self.histograms
            .get(name)
            .map(|v| summarize(v))
            .unwrap_or_default()
    }

    /// All counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in sorted-name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &[(u64, f64)])> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// All histogram summaries in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, HistogramSummary)> {
        self.histograms
            .iter()
            .map(|(k, v)| (k.as_str(), summarize(v)))
    }
}

fn summarize(values: &[u64]) -> HistogramSummary {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    HistogramSummary {
        count: u64::try_from(sorted.len()).expect("histogram count fits u64"),
        p50: percentile(&sorted, 50.0),
        p95: percentile(&sorted, 95.0),
        p99: percentile(&sorted, 99.0),
        max: sorted.last().copied().unwrap_or(0),
    }
}

/// `entry(name.to_string()).or_default()` without allocating when the
/// key already exists.
trait EntryOrInsert<V: Default> {
    fn entry_or_insert(&mut self, name: &str) -> &mut V;
}

impl<V: Default> EntryOrInsert<V> for BTreeMap<String, V> {
    fn entry_or_insert(&mut self, name: &str) -> &mut V {
        if !self.contains_key(name) {
            self.insert(name.to_string(), V::default());
        }
        self.get_mut(name).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_serve_convention() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
    }

    #[test]
    fn histogram_summary() {
        let mut m = MetricsRegistry::new();
        for v in [5u64, 1, 9, 3, 7] {
            m.hist_record("h", v);
        }
        let s = m.histogram("h");
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 5);
        assert_eq!(s.max, 9);
        assert_eq!(m.histogram("missing"), HistogramSummary::default());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b", 2);
        m.counter_add("a", 1);
        m.counter_add("b", 3);
        m.gauge_sample("g", 10, 0.5);
        assert_eq!(m.counter("b"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), &[(10, 0.5)]);
        let names: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b"]); // sorted export order
    }
}
