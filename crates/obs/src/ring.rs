//! The always-on flight recorder: a [`Recorder`] in ring mode plus the
//! snapshot API anomaly dumps and incident reports consume.
//!
//! A [`FlightRecorder`] wraps a fixed-capacity-per-thread [`Recorder`]
//! (see [`Recorder::with_capacity`]), so it installs anywhere a plain
//! recorder does — `Engine::set_recorder`, `UcxContext` —
//! while guaranteeing bounded memory no matter how long the process
//! runs: once a thread's ring fills, the oldest event is overwritten
//! and counted. [`FlightRecorder::snapshot`] clones the rings without
//! stopping recording; [`FlightRecorder::snapshot_last`] trims that to
//! the trailing window of virtual time — "the last N seconds before
//! the anomaly".

use crate::span::{Event, Recorder};

/// Default per-thread ring capacity: generous enough to hold several
/// seconds of the busiest instrumented workloads, small enough
/// (~hundreds of KB per thread) to leave always-on.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// An always-on, bounded-memory telemetry recorder.
#[derive(Clone)]
pub struct FlightRecorder {
    rec: Recorder,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RING_CAPACITY)
    }
}

impl FlightRecorder {
    /// A flight recorder keeping the newest `capacity_per_thread`
    /// events per recording thread.
    ///
    /// # Panics
    /// Panics on a zero capacity.
    pub fn new(capacity_per_thread: usize) -> FlightRecorder {
        FlightRecorder {
            rec: Recorder::with_capacity(capacity_per_thread),
        }
    }

    /// The underlying recorder handle — install this into engines and
    /// contexts exactly like a drain-style recorder.
    pub fn recorder(&self) -> Recorder {
        self.rec.clone()
    }

    /// Events lost to ring overwrites so far.
    pub fn overwritten(&self) -> u64 {
        self.rec.overwritten()
    }

    /// Total events recorded (overwritten ones included).
    pub fn events_recorded(&self) -> u64 {
        self.rec.events_recorded()
    }

    /// The surviving ring contents in canonical `(ts, phase, name)`
    /// order, without stopping or consuming anything.
    pub fn snapshot(&self) -> Vec<Event> {
        self.rec.snapshot()
    }

    /// The surviving events from the trailing `window_secs` of virtual
    /// time (measured back from the newest buffered timestamp), without
    /// stopping or consuming anything.
    pub fn snapshot_last(&self, window_secs: f64) -> Vec<Event> {
        let events = self.rec.snapshot();
        let Some(latest) = events.last().map(|e| e.at()) else {
            return events;
        };
        let cutoff = latest - window_secs.max(0.0);
        events.into_iter().filter(|e| e.at() >= cutoff).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    #[test]
    fn installs_like_a_plain_recorder_and_bounds_memory() {
        let fr = FlightRecorder::new(16);
        let rec = fr.recorder();
        for i in 0..100 {
            rec.instant(Phase::Plan, "t", format!("p{i}"), i as f64, "");
        }
        assert_eq!(fr.events_recorded(), 100);
        assert_eq!(fr.overwritten(), 84);
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(snap.first().unwrap().name(), "p84");
        assert_eq!(snap.last().unwrap().name(), "p99");
        // Snapshots do not consume: the ring still holds everything.
        assert_eq!(fr.snapshot().len(), 16);
    }

    #[test]
    fn snapshot_last_trims_to_the_trailing_window() {
        let fr = FlightRecorder::new(64);
        let rec = fr.recorder();
        for i in 0..10 {
            rec.instant(Phase::Transfer, "t", format!("e{i}"), i as f64, "");
        }
        let last3 = fr.snapshot_last(3.0);
        let names: Vec<&str> = last3.iter().map(|e| e.name()).collect();
        // Window is inclusive of the cutoff: ts in [6.0, 9.0].
        assert_eq!(names, ["e6", "e7", "e8", "e9"]);
        assert!(fr.snapshot_last(f64::INFINITY).len() == 10);
        assert!(FlightRecorder::default().snapshot_last(1.0).is_empty());
    }
}
