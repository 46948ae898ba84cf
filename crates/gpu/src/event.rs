//! GPU events: cross-stream synchronization points.
//!
//! The multi-path pipeline's chunk protocol is "copy → **record event** on
//! the first-leg stream → **wait event** on the second-leg stream → copy"
//! (paper Section 3.4). Events fire once per cycle: created unrecorded,
//! completed by a `Record` op, after which waits pass immediately. The
//! *interpreted* pipeline makes one per sync point — its state, nothing
//! for its name, which is a [`Label`] over the chunk's numbers — and never
//! touches it again; replay [`crate::Instance`]s instead keep their event
//! set alive across launches and rearm it with [`GpuEvent::reset`] —
//! matching CUDA, where events are reusable and graph replay recycles
//! them rather than allocating fresh ones per launch.

use crate::stream::Stream;
use mpx_sim::Label;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

struct EventState {
    complete: bool,
    waiters: Vec<Stream>,
}

/// A one-shot synchronization point between streams.
#[derive(Clone)]
pub struct GpuEvent {
    name: Label,
    state: Arc<Mutex<EventState>>,
}

impl GpuEvent {
    /// Creates an unrecorded event.
    pub fn new(name: impl Into<Label>) -> GpuEvent {
        GpuEvent {
            name: name.into(),
            state: Arc::new(Mutex::new(EventState {
                complete: false,
                waiters: Vec::new(),
            })),
        }
    }

    /// Debug name.
    pub fn name(&self) -> &Label {
        &self.name
    }

    /// True once the recorded point has completed.
    pub fn is_complete(&self) -> bool {
        self.state.lock().complete
    }

    /// Marks the event complete and moves the streams parked on it onto
    /// `released`, in parking order; both vectors keep their capacity, so
    /// a recycled event and a long-lived stream stop allocating. (Called
    /// by the stream executor when a `Record` op retires.)
    pub(crate) fn complete(&self, released: &mut Vec<Stream>) {
        let mut st = self.state.lock();
        st.complete = true;
        released.append(&mut st.waiters);
    }

    /// If already complete returns `true`; otherwise parks `stream` and
    /// returns `false`. Atomic w.r.t. [`GpuEvent::complete`]. The event
    /// lock is a leaf: callers may hold a stream lock, never the reverse.
    pub(crate) fn park_unless_complete(&self, stream: &Stream) -> bool {
        let mut st = self.state.lock();
        if !st.complete {
            st.waiters.push(stream.clone());
        }
        st.complete
    }

    /// Rearms a completed (or never-recorded) event so the next `Record`
    /// completes it again — the recycling a replay [`crate::Instance`]
    /// performs instead of allocating a fresh event per sync point per
    /// launch.
    ///
    /// # Panics
    /// Panics if a stream is still parked on the event: resetting under a
    /// live waiter would strand that stream forever, so it is a caller
    /// bug (an instance must be quiescent before relaunch).
    pub fn reset(&self) {
        let mut st = self.state.lock();
        assert!(
            st.waiters.is_empty(),
            "reset of event '{}' with {} stream(s) still parked on it",
            self.name,
            st.waiters.len()
        );
        st.complete = false;
    }
}

impl fmt::Debug for GpuEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuEvent")
            .field("name", &self.name)
            .field("complete", &self.is_complete())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Stream;
    use mpx_sim::Engine;
    use mpx_topo::presets;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(Arc::new(presets::synthetic_default()))
    }

    #[test]
    fn reset_rearms_a_completed_event() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let ev = GpuEvent::new("recycled");
        // Cycle 1: record completes the event.
        let p = Stream::new(eng.clone(), gpus[0], "p1");
        p.record(&ev);
        eng.run_until_idle();
        assert!(ev.is_complete());
        // Rearm: a fresh waiter must park again instead of passing.
        ev.reset();
        assert!(!ev.is_complete());
        let w = Stream::new(eng.clone(), gpus[1], "w");
        let done = mpx_sim::Waker::new("cycle2");
        w.wait_event(&ev);
        w.signal(&done);
        eng.run_until_idle();
        assert!(
            !done.is_signaled(),
            "waiter passed a reset (unrecorded) event"
        );
        // Cycle 2: a second record releases it.
        let p2 = Stream::new(eng.clone(), gpus[0], "p2");
        p2.record(&ev);
        eng.run_until_idle();
        assert!(done.is_signaled());
    }

    #[test]
    #[should_panic(expected = "still parked")]
    fn reset_with_parked_waiter_panics() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let ev = GpuEvent::new("live");
        let w = Stream::new(eng.clone(), gpus[0], "w");
        w.wait_event(&ev);
        eng.run_until_idle();
        ev.reset();
    }
}
