//! OpenMetrics / Prometheus text exposition of a [`TelemetryRegistry`].
//!
//! Naming convention: dotted registry names are mangled to the
//! Prometheus charset (`.` and any other invalid character become `_`;
//! a leading digit gains a `_` prefix). Counters are suffixed `_total`
//! as the format requires; quantile histograms expose their log buckets
//! as a cumulative `_bucket{le="..."}` series (sparse — only buckets
//! with observations — plus the mandatory `+Inf`), with `_sum` and
//! `_count`. The exposition ends with the `# EOF` terminator.

use crate::registry::{Metric, TelemetryRegistry};

/// Mangles a dotted metric name into the Prometheus name charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats a sample value: integral values print without an exponent or
/// trailing zeros, everything else uses Rust's shortest round-trip form.
fn num(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the registry in the OpenMetrics text format (Prometheus
/// exposition compatible), metric families sorted by name, terminated
/// by `# EOF`.
pub fn render_openmetrics(reg: &TelemetryRegistry) -> String {
    let mut metrics = reg.export();
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (raw, metric) in &metrics {
        let name = mangle(raw);
        match metric {
            Metric::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n"));
                out.push_str(&format!("{name}_total {v}\n"));
            }
            Metric::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{name} {}\n", num(*v)));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                for (le, cum) in h.cumulative_buckets() {
                    out.push_str(&format!("{name}_bucket{{le=\"{le:e}\"}} {cum}\n"));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                out.push_str(&format!("{name}_sum {}\n", num(h.sum())));
                out.push_str(&format!("{name}_count {}\n", h.count()));
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangles_names_into_prometheus_charset() {
        assert_eq!(mangle("sim.flows_completed"), "sim_flows_completed");
        assert_eq!(mangle("tenant.bulk-7.shed"), "tenant_bulk_7_shed");
        assert_eq!(mangle("9lives"), "_9lives");
        assert_eq!(mangle(""), "_");
    }

    #[test]
    fn counters_gauges_histograms_render() {
        let reg = TelemetryRegistry::new();
        reg.set_counter("sim.flows_completed", 42);
        reg.set_gauge("sim.now_secs", 1.0);
        reg.observe("ucx.transfer.latency_secs", 1e-3);
        reg.observe("ucx.transfer.latency_secs", 2e-3);
        let text = render_openmetrics(&reg);
        assert!(text.contains("# TYPE sim_flows_completed counter\n"));
        assert!(text.contains("sim_flows_completed_total 42\n"));
        assert!(text.contains("# TYPE sim_now_secs gauge\n"));
        assert!(text.contains("sim_now_secs 1\n"));
        assert!(text.contains("# TYPE ucx_transfer_latency_secs histogram\n"));
        assert!(text.contains("ucx_transfer_latency_secs_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("ucx_transfer_latency_secs_count 2\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn every_line_matches_the_exposition_grammar() {
        let reg = TelemetryRegistry::new();
        reg.set_counter("a.counter", 7);
        reg.set_gauge("b.gauge", -0.25);
        for i in 0..100 {
            reg.observe("c.hist", i as f64 * 1e-5);
        }
        let text = render_openmetrics(&reg);
        let name = r"[a-zA-Z_][a-zA-Z0-9_]*";
        for line in text.lines() {
            let is_type = line.starts_with("# TYPE ")
                && (line.ends_with(" counter")
                    || line.ends_with(" gauge")
                    || line.ends_with(" histogram"));
            let is_eof = line == "# EOF";
            let is_sample = {
                // <name>[{le="..."}] <number>
                let mut parts = line.splitn(2, ' ');
                let (id, val) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                let name_ok = {
                    let bare = id.split('{').next().unwrap_or("");
                    !bare.is_empty()
                        && bare.chars().next().unwrap().is_ascii_alphabetic()
                        && bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                        && (!id.contains('{') || (id.contains("{le=\"") && id.ends_with("\"}")))
                };
                name_ok && !val.is_empty() && val.parse::<f64>().is_ok()
            };
            assert!(
                is_type || is_eof || is_sample,
                "bad line: {line:?} ({name})"
            );
        }
        // Cumulative buckets are monotone and end at the count.
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("c_hist_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bucket_counts.last().unwrap(), 100);
    }
}
