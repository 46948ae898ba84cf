//! GPU events: cross-stream synchronization points.
//!
//! The multi-path pipeline's chunk protocol is "copy → **record event** on
//! the first-leg stream → **wait event** on the second-leg stream → copy"
//! (paper Section 3.4). An event is created unrecorded and completed by a
//! `Record` op, after which waits pass immediately; [`GpuEvent::reset`]
//! rearms it, as CUDA reuses events. It is a front end over an engine flag
//! ([`mpx_sim::Lanes`]) of the engine whose stream first uses it.

use mpx_sim::{Engine, FlagId, Handle, Label, Lanes};
use std::fmt;
use std::sync::{Arc, OnceLock};

struct EventInner {
    name: Label,
    /// The engine flag, once a stream used the event.
    flag: OnceLock<(Engine, FlagId)>,
}

impl Drop for EventInner {
    fn drop(&mut self) {
        if let Some((engine, flag)) = self.flag.get() {
            engine.release(Handle::Flag(*flag));
        }
    }
}

/// A one-shot synchronization point between streams. Cloning shares it.
#[derive(Clone)]
pub struct GpuEvent {
    inner: Arc<EventInner>,
}

impl GpuEvent {
    /// Creates an unrecorded event.
    pub fn new(name: impl Into<Label>) -> GpuEvent {
        GpuEvent {
            inner: Arc::new(EventInner {
                name: name.into(),
                flag: OnceLock::new(),
            }),
        }
    }

    /// Debug name.
    pub fn name(&self) -> &Label {
        &self.inner.name
    }

    /// True once the recorded point has completed.
    pub fn is_complete(&self) -> bool {
        let flag = self.inner.flag.get();
        flag.is_some_and(|(engine, flag)| engine.with_lanes(|l| l.is_complete(*flag)))
    }

    /// The event's flag among `lanes`, `engine`'s, bound on first use.
    pub(crate) fn flag(&self, engine: &Engine, lanes: &mut Lanes<'_>) -> FlagId {
        let bind = || (engine.clone(), lanes.flag(true));
        self.inner.flag.get_or_init(bind).1
    }

    /// Rearms a completed (or never-recorded) event so the next `Record`
    /// completes it again.
    ///
    /// # Panics
    /// Panics if a stream is still parked on the event: resetting under a
    /// live waiter would strand that stream forever, so it is a caller
    /// bug.
    pub fn reset(&self) {
        let Some((engine, flag)) = self.inner.flag.get() else {
            return;
        };
        let parked = engine.with_lanes(|l| l.rearm(*flag));
        assert!(
            parked == 0,
            "reset of event '{}' with {parked} stream(s) still parked on it",
            self.inner.name
        );
    }
}

impl fmt::Debug for GpuEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuEvent")
            .field("name", &self.inner.name)
            .field("complete", &self.is_complete())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Stream;
    use mpx_sim::Waker;
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
        // A wait on the completed event passes at once.
        let (w, passed) = (Stream::new(eng.clone(), gpus[1], "w"), Waker::new("cycle1"));
        w.wait_event(&ev);
        w.signal(&passed);
        eng.run_until_idle();
        assert!(passed.is_signaled());
        // Rearm: the waiter must park again instead of passing.
        ev.reset();
        assert!(!ev.is_complete());
        let done = Waker::new("cycle2");
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
}
