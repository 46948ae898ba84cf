//! The anomaly engine: declarative triggers over the stack's existing
//! failure signals, each firing a self-contained **black-box dump** —
//! flight-recorder ring snapshot + metrics snapshot + trigger cause +
//! residual report — rate-limited per trigger class.
//!
//! Producers stay dumb: the UCX context and the parallel scenario runner
//! call [`AnomalyEngine::signal`] at the places they already detect
//! trouble (a breaker transition, a `TransferError::Stuck`, a deadline
//! miss, a partition rebalance, a drift invalidation). The engine decides whether the signal crosses a
//! trigger threshold (burst classes accumulate over a sliding
//! virtual-time window), applies the per-class rate limit, and on
//! firing freezes everything an incident review needs into a
//! [`BlackBoxDump`] — retained in memory and, when a dump directory is
//! configured, written as JSON (`mpx report` renders these).

use crate::registry::MetricsSnapshot;
use crate::residual::ResidualReport;
use crate::ring::FlightRecorder;
use crate::span::Event;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The trigger classes the stack feeds. The burst class
/// ([`TriggerClass::DeadlineMissBurst`]) fires only when enough signals
/// land inside a sliding window; the rest fire on every
/// (rate-limit-permitting) signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TriggerClass {
    /// A path circuit breaker tripped Closed → Open.
    BreakerTrip,
    /// A breaker re-tripped out of HalfOpen (the probe failed).
    BreakerRetrip,
    /// A transfer returned `TransferError::Stuck`.
    StuckTransfer,
    /// Recovery deadline misses clustered inside the burst window.
    DeadlineMissBurst,
    /// A residual-drift cache invalidation (model no longer tracks the
    /// fabric).
    ResidualDrift,
}

impl TriggerClass {
    /// Every class, in severity-agnostic declaration order.
    pub const ALL: [TriggerClass; 5] = [
        TriggerClass::BreakerTrip,
        TriggerClass::BreakerRetrip,
        TriggerClass::StuckTransfer,
        TriggerClass::DeadlineMissBurst,
        TriggerClass::ResidualDrift,
    ];

    /// Stable label — the `trigger` field of a dump and the string CI
    /// greps for.
    pub fn label(self) -> &'static str {
        match self {
            TriggerClass::BreakerTrip => "breaker.trip",
            TriggerClass::BreakerRetrip => "breaker.retrip",
            TriggerClass::StuckTransfer => "transfer.stuck",
            TriggerClass::DeadlineMissBurst => "deadline.miss-burst",
            TriggerClass::ResidualDrift => "residual.drift",
        }
    }

    fn index(self) -> usize {
        TriggerClass::ALL
            .iter()
            .position(|c| *c == self)
            .expect("class in ALL")
    }
}

/// Trigger thresholds, rate limits, and dump sizing. Times are virtual
/// seconds — the same clock every recorded event carries.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// Minimum virtual time between two dumps of the same class;
    /// signals inside the window are counted as suppressed.
    pub min_interval_secs: f64,
    /// Deadline misses needed within `deadline_window_secs` to fire.
    pub deadline_burst: u32,
    /// Sliding window for the deadline-miss burst.
    pub deadline_window_secs: f64,
    /// How much trailing ring history a dump embeds, virtual seconds.
    pub ring_window_secs: f64,
    /// Hard cap on events embedded per dump (newest kept).
    pub max_dump_events: usize,
    /// When set, every dump is also written as
    /// `<dir>/dump-<seq>-<class>.json`.
    pub dump_dir: Option<PathBuf>,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            min_interval_secs: 1.0,
            deadline_burst: 3,
            deadline_window_secs: 0.5,
            ring_window_secs: 5.0,
            max_dump_events: 4096,
            dump_dir: None,
        }
    }
}

/// A self-contained incident record: everything needed to understand
/// one anomaly without the process that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlackBoxDump {
    /// Dump sequence number within this engine (0-based).
    pub seq: u64,
    /// Trigger class label (see [`TriggerClass::label`]).
    pub trigger: String,
    /// Virtual time the trigger fired.
    pub at: f64,
    /// Communication pair involved, when the signal carried one.
    pub pair: Option<String>,
    /// Path index involved, when the signal carried one.
    pub path: Option<usize>,
    /// The producer's cause string (e.g. the breaker's `why`).
    pub cause: String,
    /// Ring overwrite count at dump time (how much history was lost).
    pub overwritten: u64,
    /// Flight-recorder snapshot: the last `ring_window_secs` of events.
    pub events: Vec<Event>,
    /// Metrics registry snapshot at dump time.
    pub metrics: MetricsSnapshot,
    /// Residual (predicted-vs-measured) report at dump time.
    pub residuals: ResidualReport,
}

impl BlackBoxDump {
    /// Renders the dump as a human-readable incident timeline — what
    /// tripped, on which pair/path, what the model predicted vs.
    /// measured, and the events leading up to it.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== black-box dump #{}: {} @ {:.6}s ==\n",
            self.seq, self.trigger, self.at
        ));
        match (&self.pair, self.path) {
            (Some(p), Some(i)) => out.push_str(&format!("pair:  {p} (path {i})\n")),
            (Some(p), None) => out.push_str(&format!("pair:  {p}\n")),
            _ => {}
        }
        out.push_str(&format!("cause: {}\n", self.cause));
        if self.overwritten > 0 {
            out.push_str(&format!(
                "note:  ring overwrote {} older events before this dump\n",
                self.overwritten
            ));
        }
        out.push_str(&format!("\ntimeline ({} events):\n", self.events.len()));
        for ev in &self.events {
            let (shape, dur) = match ev {
                Event::Span(s) => ("span", format!(" dur={:.1}us", (s.end - s.start) * 1e6)),
                Event::Instant(_) => ("inst", String::new()),
            };
            let detail = match ev {
                Event::Span(s) => &s.detail,
                Event::Instant(i) => &i.detail,
            };
            out.push_str(&format!(
                "  [{:>12.6}s] {shape} {:<13} {:<20} {}{}{}\n",
                ev.at(),
                ev.phase().label(),
                ev.track(),
                ev.name(),
                if detail.is_empty() { "" } else { " — " },
                if detail.is_empty() {
                    String::new()
                } else {
                    format!("{detail}{dur}")
                },
            ));
        }
        out.push_str(&format!(
            "\nmetrics ({} rows):\n",
            self.metrics.entries.len()
        ));
        for e in &self.metrics.entries {
            out.push_str(&format!("  {:<44} {}\n", e.name, e.value));
        }
        if !self.residuals.rows.is_empty() {
            out.push_str("\npredicted vs measured (residual table):\n");
            out.push_str(&self.residuals.render());
        }
        out
    }
}

/// Per-class trigger bookkeeping.
#[derive(Default)]
struct ClassState {
    last_fire: Option<f64>,
    /// Signal timestamps inside the sliding window (burst classes).
    window: Vec<f64>,
    fired: u64,
    suppressed: u64,
}

/// Snapshot of one class's counters (see [`AnomalyEngine::class_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerStats {
    /// The class.
    pub class: TriggerClass,
    /// Dumps fired.
    pub fired: u64,
    /// Signals swallowed by the rate limit.
    pub suppressed: u64,
}

type SnapshotFn<T> = Box<dyn Fn() -> T + Send + Sync>;

/// The always-on anomaly engine. Shared behind an `Arc` by every
/// producer that can detect trouble.
pub struct AnomalyEngine {
    cfg: AnomalyConfig,
    recorder: FlightRecorder,
    metrics_source: Mutex<Option<SnapshotFn<MetricsSnapshot>>>,
    residual_source: Mutex<Option<SnapshotFn<ResidualReport>>>,
    state: Mutex<Vec<ClassState>>,
    dumps: Mutex<Vec<BlackBoxDump>>,
    write_failures: AtomicU64,
}

impl AnomalyEngine {
    /// An engine snapshotting `recorder` on every dump.
    pub fn new(recorder: FlightRecorder, cfg: AnomalyConfig) -> AnomalyEngine {
        AnomalyEngine {
            cfg,
            recorder,
            metrics_source: Mutex::new(None),
            residual_source: Mutex::new(None),
            state: Mutex::new(
                TriggerClass::ALL
                    .iter()
                    .map(|_| ClassState::default())
                    .collect(),
            ),
            dumps: Mutex::new(Vec::new()),
            write_failures: AtomicU64::new(0),
        }
    }

    /// Installs the callback that freezes a metrics snapshot into each
    /// dump (typically a closure running the stack's `fill_registry`
    /// mirrors against a private registry).
    pub fn set_metrics_source(&self, f: impl Fn() -> MetricsSnapshot + Send + Sync + 'static) {
        *self.metrics_source.lock() = Some(Box::new(f));
    }

    /// Installs the callback that freezes the residual report into each
    /// dump.
    pub fn set_residual_source(&self, f: impl Fn() -> ResidualReport + Send + Sync + 'static) {
        *self.residual_source.lock() = Some(Box::new(f));
    }

    /// The flight recorder this engine snapshots.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Feeds one signal. `at` is virtual seconds; `pair`/`path`
    /// identify the blamed endpoint when the producer knows it; `cause`
    /// is the producer's own diagnostic string. Returns the dump
    /// sequence number when the signal fired a dump.
    pub fn signal(
        &self,
        class: TriggerClass,
        at: f64,
        pair: Option<&str>,
        path: Option<usize>,
        cause: &str,
    ) -> Option<u64> {
        let fire = {
            let mut state = self.state.lock();
            let st = &mut state[class.index()];
            let crossed = match class {
                TriggerClass::DeadlineMissBurst => burst_crossed(
                    st,
                    at,
                    self.cfg.deadline_burst,
                    self.cfg.deadline_window_secs,
                ),
                _ => true,
            };
            if !crossed {
                return None;
            }
            // Rate limit per class, in virtual time.
            if let Some(last) = st.last_fire {
                if at - last < self.cfg.min_interval_secs {
                    st.suppressed += 1;
                    return None;
                }
            }
            st.last_fire = Some(at);
            st.fired += 1;
            true
        };
        debug_assert!(fire);
        Some(self.fire(class, at, pair, path, cause))
    }

    fn fire(
        &self,
        class: TriggerClass,
        at: f64,
        pair: Option<&str>,
        path: Option<usize>,
        cause: &str,
    ) -> u64 {
        let mut events = self.recorder.snapshot_last(self.cfg.ring_window_secs);
        if events.len() > self.cfg.max_dump_events {
            let drop = events.len() - self.cfg.max_dump_events;
            events.drain(..drop);
        }
        let metrics = match &*self.metrics_source.lock() {
            Some(f) => f(),
            None => MetricsSnapshot {
                entries: Vec::new(),
            },
        };
        let residuals = match &*self.residual_source.lock() {
            Some(f) => f(),
            None => ResidualReport { rows: Vec::new() },
        };
        let mut dumps = self.dumps.lock();
        let seq = dumps.len() as u64;
        let dump = BlackBoxDump {
            seq,
            trigger: class.label().to_string(),
            at,
            pair: pair.map(str::to_string),
            path,
            cause: cause.to_string(),
            overwritten: self.recorder.overwritten(),
            events,
            metrics,
            residuals,
        };
        if let Some(dir) = &self.cfg.dump_dir {
            let file = dir.join(format!(
                "dump-{seq:04}-{}.json",
                class.label().replace('.', "_")
            ));
            let ok = std::fs::create_dir_all(dir).is_ok()
                && serde_json::to_string_pretty(&dump)
                    .ok()
                    .and_then(|json| std::fs::write(&file, json).ok())
                    .is_some();
            if !ok {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        dumps.push(dump);
        seq
    }

    /// Every dump fired so far, in firing order.
    pub fn dumps(&self) -> Vec<BlackBoxDump> {
        self.dumps.lock().clone()
    }

    /// Total dumps fired.
    pub fn fired(&self) -> u64 {
        self.dumps.lock().len() as u64
    }

    /// Per-class fired/suppressed counters.
    pub fn class_stats(&self) -> Vec<TriggerStats> {
        let state = self.state.lock();
        TriggerClass::ALL
            .iter()
            .map(|&class| {
                let st = &state[class.index()];
                TriggerStats {
                    class,
                    fired: st.fired,
                    suppressed: st.suppressed,
                }
            })
            .collect()
    }

    /// Dump files that failed to write (permission/disk trouble never
    /// propagates into the instrumented workload).
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }
}

/// Sliding-window burst detection: records the signal, evicts entries
/// older than `window`, and reports whether the threshold is met (the
/// window is cleared on a crossing so one burst fires once).
fn burst_crossed(st: &mut ClassState, at: f64, threshold: u32, window: f64) -> bool {
    st.window.push(at);
    st.window.retain(|&t| at - t <= window);
    if st.window.len() >= threshold as usize {
        st.window.clear();
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;
    use crate::TelemetryRegistry;

    fn engine(cfg: AnomalyConfig) -> AnomalyEngine {
        AnomalyEngine::new(FlightRecorder::new(128), cfg)
    }

    #[test]
    fn immediate_classes_fire_and_rate_limit() {
        let eng = engine(AnomalyConfig::default());
        assert_eq!(
            eng.signal(
                TriggerClass::BreakerTrip,
                1.0,
                Some("gpu0->gpu1"),
                Some(2),
                "kill"
            ),
            Some(0)
        );
        // Inside the 1s rate-limit window: suppressed.
        assert_eq!(
            eng.signal(
                TriggerClass::BreakerTrip,
                1.5,
                Some("gpu0->gpu1"),
                Some(2),
                "kill"
            ),
            None
        );
        // A different class has its own limiter.
        assert_eq!(
            eng.signal(TriggerClass::StuckTransfer, 1.5, None, None, "stuck"),
            Some(1)
        );
        // Past the window: fires again.
        assert_eq!(
            eng.signal(TriggerClass::BreakerTrip, 2.1, None, None, "kill"),
            Some(2)
        );
        let stats = eng.class_stats();
        let trip = stats
            .iter()
            .find(|s| s.class == TriggerClass::BreakerTrip)
            .unwrap();
        assert_eq!((trip.fired, trip.suppressed), (2, 1));
        assert_eq!(eng.fired(), 3);
    }

    #[test]
    fn burst_classes_need_a_cluster() {
        let cfg = AnomalyConfig {
            deadline_burst: 3,
            deadline_window_secs: 0.5,
            ..AnomalyConfig::default()
        };
        let eng = engine(cfg);
        let sig = |at| eng.signal(TriggerClass::DeadlineMissBurst, at, None, None, "miss");
        assert_eq!(sig(0.0), None);
        assert_eq!(sig(0.2), None);
        // Third miss inside the window: fires.
        assert_eq!(sig(0.4), Some(0));
        // Window cleared; sparse misses never re-fire.
        assert_eq!(sig(3.0), None);
        assert_eq!(sig(4.0), None);
        assert_eq!(sig(5.0), None);
        assert_eq!(eng.fired(), 1);
    }

    #[test]
    fn dump_embeds_ring_metrics_and_residuals() {
        let eng = engine(AnomalyConfig::default());
        let rec = eng.flight_recorder().recorder();
        rec.instant(Phase::Health, "pair:a->b", "breaker.trip", 0.9, "path=1");
        rec.instant(Phase::Fault, "fabric", "kill", 0.95, "link 3");

        let reg = TelemetryRegistry::new();
        reg.set_counter("health.trips", 1);
        eng.set_metrics_source(move || reg.snapshot());
        let residuals = std::sync::Arc::new(crate::ResidualTracker::new());
        residuals.record("a->b", 1 << 20, 1.0e-3, 1.2e-3);
        let rsrc = residuals.clone();
        eng.set_residual_source(move || rsrc.report());

        eng.signal(
            TriggerClass::BreakerTrip,
            1.0,
            Some("a->b"),
            Some(1),
            "why=kill",
        );
        let dumps = eng.dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.trigger, "breaker.trip");
        assert_eq!(d.pair.as_deref(), Some("a->b"));
        assert_eq!(d.path, Some(1));
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.metrics.get("health.trips"), Some(1.0));
        assert_eq!(d.residuals.rows.len(), 1);
        // Timeline renders every section.
        let text = d.render_timeline();
        assert!(text.contains("breaker.trip"));
        assert!(text.contains("pair:  a->b (path 1)"));
        assert!(text.contains("health.trips"));
        assert!(text.contains("a->b"));
        // And the dump round-trips through JSON (the on-disk format).
        let json = serde_json::to_string(d).unwrap();
        let back: BlackBoxDump = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, d);
    }

    #[test]
    fn dumps_write_to_the_configured_directory() {
        let dir = std::env::temp_dir().join(format!("mpx-anomaly-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = AnomalyConfig {
            dump_dir: Some(dir.clone()),
            ..AnomalyConfig::default()
        };
        let eng = engine(cfg);
        eng.signal(TriggerClass::ResidualDrift, 0.5, None, None, "err=0.97");
        assert_eq!(eng.write_failures(), 0);
        let file = dir.join("dump-0000-residual_drift.json");
        let text = std::fs::read_to_string(&file).expect("dump written");
        let back: BlackBoxDump = serde_json::from_str(&text).expect("dump parses");
        assert_eq!(back.trigger, "residual.drift");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_window_bounds_dump_size() {
        let cfg = AnomalyConfig {
            ring_window_secs: 1.0,
            max_dump_events: 3,
            ..AnomalyConfig::default()
        };
        let eng = engine(cfg);
        let rec = eng.flight_recorder().recorder();
        for i in 0..20 {
            rec.instant(Phase::Health, "health", format!("e{i}"), i as f64 * 0.1, "");
        }
        eng.signal(TriggerClass::ResidualDrift, 1.9, None, None, "x");
        let d = &eng.dumps()[0];
        // Window keeps ts >= 0.9 (11 events), cap keeps the newest 3.
        assert_eq!(d.events.len(), 3);
        assert_eq!(d.events[0].name(), "e17");
    }
}
