//! A unified metrics registry: the single machine-readable surface behind
//! `SimStats`, `ResilienceStats`, and `CacheStats`, which grew as
//! disjoint ad-hoc snapshots. Producers write named counters, gauges, and
//! histograms; [`TelemetryRegistry::snapshot`] flattens everything into a
//! serializable [`MetricsSnapshot`] (the payload of `mpx metrics` and the
//! `--json` CLI flags).

use crate::hist::QuantileHist;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(QuantileHist),
}

/// Named-metric registry. Cheap to share behind an `Arc`; every method
/// takes `&self`.
#[derive(Default)]
pub struct TelemetryRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> TelemetryRegistry {
        TelemetryRegistry::default()
    }

    /// Sets a counter to an absolute value (the common case here:
    /// mirroring an already-aggregated stats snapshot).
    pub fn set_counter(&self, name: impl Into<String>, value: u64) {
        self.metrics
            .lock()
            .insert(name.into(), Metric::Counter(value));
    }

    /// Adds to a counter (creates it at zero first).
    pub fn inc_counter(&self, name: impl Into<String>, delta: u64) {
        let mut m = self.metrics.lock();
        match m.entry(name.into()).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => *other = Metric::Counter(delta),
        }
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: impl Into<String>, value: f64) {
        self.metrics
            .lock()
            .insert(name.into(), Metric::Gauge(value));
    }

    /// Adds one observation to a quantile histogram (creates it when
    /// absent). Histograms are log-bucketed ([`QuantileHist`]): ~5%
    /// relative-error quantiles at fixed memory, regardless of how many
    /// observations a long-running process feeds in.
    pub fn observe(&self, name: impl Into<String>, value: f64) {
        let mut m = self.metrics.lock();
        let h = match m
            .entry(name.into())
            .or_insert_with(|| Metric::Histogram(QuantileHist::new()))
        {
            Metric::Histogram(h) => h,
            other => {
                *other = Metric::Histogram(QuantileHist::new());
                match other {
                    Metric::Histogram(h) => h,
                    _ => unreachable!(),
                }
            }
        };
        h.observe(value);
    }

    /// Publishes a snapshot of an externally maintained histogram under
    /// `name`, replacing any previous value — the histogram analogue of
    /// [`TelemetryRegistry::set_counter`], used by `fill_registry`-style
    /// mirrors whose source histograms live on hot paths.
    pub fn set_hist(&self, name: impl Into<String>, hist: &QuantileHist) {
        self.metrics
            .lock()
            .insert(name.into(), Metric::Histogram(hist.clone()));
    }

    /// Flattens the registry into a serializable snapshot with entries
    /// sorted by name. Counters and gauges become one entry each; a
    /// histogram expands into `name.count` / `name.sum` / `name.mean` /
    /// `name.min` / `name.max` plus the quantile rows `name.p50` /
    /// `name.p90` / `name.p99` / `name.p999`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock();
        let mut entries = Vec::with_capacity(m.len());
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(v) => entries.push(MetricEntry {
                    name: name.clone(),
                    kind: "counter".into(),
                    value: *v as f64,
                }),
                Metric::Gauge(v) => entries.push(MetricEntry {
                    name: name.clone(),
                    kind: "gauge".into(),
                    value: *v,
                }),
                Metric::Histogram(h) => {
                    for (suffix, v) in [
                        ("count", h.count() as f64),
                        ("sum", h.sum()),
                        ("mean", h.mean()),
                        ("min", h.min()),
                        ("max", h.max()),
                        ("p50", h.quantile(0.5)),
                        ("p90", h.quantile(0.9)),
                        ("p99", h.quantile(0.99)),
                        ("p999", h.quantile(0.999)),
                    ] {
                        entries.push(MetricEntry {
                            name: format!("{name}.{suffix}"),
                            kind: "histogram".into(),
                            value: v,
                        });
                    }
                }
            }
        }
        // Deterministic row order: histogram expansion would otherwise
        // interleave suffixes out of lexicographic order, making
        // snapshot diffs (and the OpenMetrics text) unstable.
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { entries }
    }

    /// A point-in-time clone of every metric, for the OpenMetrics
    /// exporter (which needs raw bucket data, not the flattened rows).
    pub(crate) fn export(&self) -> Vec<(String, Metric)> {
        self.metrics
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// One flattened metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Dotted metric name, e.g. `sim.flows_completed`.
    pub name: String,
    /// `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// The value (counters widen to f64).
    pub value: f64,
}

/// A flat, serializable view of a [`TelemetryRegistry`] — the schema
/// shared by `mpx metrics`, `mpx trace --metrics-out`, and the `--json`
/// flags on `plan`/`resilient`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Looks a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_flatten() {
        let reg = TelemetryRegistry::new();
        reg.set_counter("sim.flows_completed", 42);
        reg.inc_counter("ucx.replans", 1);
        reg.inc_counter("ucx.replans", 2);
        reg.set_gauge("sim.now_secs", 1.25);
        reg.observe("residual.abs_pct", 4.0);
        reg.observe("residual.abs_pct", 8.0);
        let snap = reg.snapshot();
        assert_eq!(snap.get("sim.flows_completed"), Some(42.0));
        assert_eq!(snap.get("ucx.replans"), Some(3.0));
        assert_eq!(snap.get("sim.now_secs"), Some(1.25));
        assert_eq!(snap.get("residual.abs_pct.count"), Some(2.0));
        assert_eq!(snap.get("residual.abs_pct.mean"), Some(6.0));
        assert_eq!(snap.get("residual.abs_pct.min"), Some(4.0));
        assert_eq!(snap.get("residual.abs_pct.max"), Some(8.0));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn snapshot_entries_sorted_by_name() {
        let reg = TelemetryRegistry::new();
        reg.set_counter("z.last", 1);
        reg.set_counter("a.first", 1);
        // Histogram expansion must not break lexicographic order (its
        // suffix rows interleave with neighbouring keys).
        reg.observe("m.latency", 1.0);
        reg.set_counter("m.latency.aaa", 7);
        reg.set_counter("m.latency.zzz", 8);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn histograms_surface_quantiles() {
        let reg = TelemetryRegistry::new();
        for i in 1..=1000 {
            reg.observe("xfer.latency", i as f64 * 1e-6);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.get("xfer.latency.count"), Some(1000.0));
        for (q, expect) in [
            ("p50", 500e-6),
            ("p90", 900e-6),
            ("p99", 990e-6),
            ("p999", 999e-6),
        ] {
            let got = snap.get(&format!("xfer.latency.{q}")).expect(q);
            assert!(
                (got - expect).abs() <= 0.05 * expect,
                "{q}: got {got}, want ~{expect}"
            );
        }
    }

    #[test]
    fn set_hist_publishes_external_histograms() {
        let reg = TelemetryRegistry::new();
        let h = crate::hist::QuantileHist::new();
        h.observe(2.0);
        h.observe(4.0);
        reg.set_hist("ucx.plan.cost_secs", &h);
        let snap = reg.snapshot();
        assert_eq!(snap.get("ucx.plan.cost_secs.count"), Some(2.0));
        assert_eq!(snap.get("ucx.plan.cost_secs.sum"), Some(6.0));
        // Replacement, not accumulation.
        reg.set_hist("ucx.plan.cost_secs", &h);
        assert_eq!(reg.snapshot().get("ucx.plan.cost_secs.count"), Some(2.0));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = TelemetryRegistry::new();
        reg.set_counter("c", 7);
        reg.set_gauge("g", 0.5);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
