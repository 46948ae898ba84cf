//! The recording core: phases, span/instant records, and the [`Recorder`].
//!
//! A [`Recorder`] is a cheap clonable handle shared by every layer of the
//! stack (engine, UCX context, MPI ranks). Each recording thread appends
//! to its own buffer — registered with the recorder on first use — so the
//! hot path takes one uncontended lock and pushes one record; nothing is
//! serialized until [`Recorder::drain`]. Timestamps are **virtual-time
//! seconds** from the simulation clock, so spans line up exactly with the
//! engine's flow trace.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle phase a telemetry event belongs to. Phases become the `cat`
/// field of the exported Chrome trace, so a Perfetto query can filter one
/// stage of the plan → probe → transfer pipeline. The derived ordering
/// follows pipeline (declaration) order and is part of the canonical
/// event sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Planner invocation (Algorithm 1 / Eq. 24 share solve).
    Plan,
    /// Capacity probe ahead of a dynamic plan.
    Probe,
    /// A whole multi-path transfer, issue to last-byte.
    Transfer,
    /// One chunk leg (or direct-path flow) inside a transfer.
    ChunkLeg,
    /// Recovery activity: deadline timeouts and re-plans.
    Recovery,
    /// A collective operation on one rank.
    Collective,
    /// A fault-injection event firing.
    Fault,
    /// Static tuner activity.
    Tune,
    /// Compiling a plan into a replayable transfer graph.
    GraphCapture,
    /// Launching a compiled transfer graph (replay fast path).
    GraphReplay,
    /// Path-health supervision: breaker trips, resets, half-open probes.
    Health,
    /// Hedged-transfer activity: hedge launches, wins, and losses.
    Hedge,
    /// Parallel simulation partitioning: per-partition lanes and
    /// rebalance (partition-merge) instants.
    Partition,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 13] = [
        Phase::Plan,
        Phase::Probe,
        Phase::Transfer,
        Phase::ChunkLeg,
        Phase::Recovery,
        Phase::Collective,
        Phase::Fault,
        Phase::Tune,
        Phase::GraphCapture,
        Phase::GraphReplay,
        Phase::Health,
        Phase::Hedge,
        Phase::Partition,
    ];

    /// Stable lower-case label (the trace `cat` field).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Probe => "probe",
            Phase::Transfer => "transfer",
            Phase::ChunkLeg => "chunk-leg",
            Phase::Recovery => "recovery",
            Phase::Collective => "collective",
            Phase::Fault => "fault",
            Phase::Tune => "tune",
            Phase::GraphCapture => "graph.capture",
            Phase::GraphReplay => "graph.replay",
            Phase::Health => "health",
            Phase::Hedge => "hedge",
            Phase::Partition => "partition",
        }
    }
}

/// A duration event: something that started and finished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Human-readable event name (e.g. the flow label).
    pub name: String,
    /// Track (Perfetto row) the span renders on, e.g. `link:gpu0->gpu1`
    /// or `rank0`.
    pub track: String,
    /// Pipeline phase.
    pub phase: Phase,
    /// Start, virtual-time seconds.
    pub start: f64,
    /// End, virtual-time seconds (`end >= start`).
    pub end: f64,
    /// Free-form detail string carried into the trace `args`.
    pub detail: String,
}

/// A point-in-time event (fault fired, re-plan decided, cache
/// invalidated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstantRecord {
    /// Event name.
    pub name: String,
    /// Track the marker renders on.
    pub track: String,
    /// Pipeline phase.
    pub phase: Phase,
    /// When, virtual-time seconds.
    pub at: f64,
    /// Free-form detail string.
    pub detail: String,
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Duration event.
    Span(SpanRecord),
    /// Point event.
    Instant(InstantRecord),
}

impl Event {
    /// The event's timestamp (span start, instant time).
    pub fn at(&self) -> f64 {
        match self {
            Event::Span(s) => s.start,
            Event::Instant(i) => i.at,
        }
    }

    /// The track the event renders on.
    pub fn track(&self) -> &str {
        match self {
            Event::Span(s) => &s.track,
            Event::Instant(i) => &i.track,
        }
    }

    /// The event's name.
    pub fn name(&self) -> &str {
        match self {
            Event::Span(s) => &s.name,
            Event::Instant(i) => &i.name,
        }
    }

    /// The event's phase.
    pub fn phase(&self) -> Phase {
        match self {
            Event::Span(s) => s.phase,
            Event::Instant(i) => i.phase,
        }
    }
}

/// Process-unique recorder ids, so a thread-local buffer cached for one
/// recorder is never mistaken for another's.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's event buffer. In unbounded mode `head` stays 0 and
/// `events` grows; in ring mode (a recorder built with
/// [`Recorder::with_capacity`]) `events` is capped and `head` is the
/// oldest slot — the next one overwritten.
struct RingBuf {
    /// Each event beside its place in the recorder's issue order.
    events: Vec<(u64, Event)>,
    head: usize,
}

/// One thread's event buffer, shared with the owning recorder.
type SharedBuffer = Arc<Mutex<RingBuf>>;

thread_local! {
    /// Per-thread buffer cache: `(recorder id, buffer)` pairs. A thread
    /// typically talks to one recorder per run, so linear search wins.
    static LOCAL_BUFFERS: RefCell<Vec<(u64, SharedBuffer)>> =
        const { RefCell::new(Vec::new()) };
}

struct RecorderInner {
    id: u64,
    /// Per-thread ring capacity; `None` = unbounded (drain-style use).
    capacity: Option<usize>,
    /// All per-thread buffers ever registered; drained in order.
    buffers: Mutex<Vec<SharedBuffer>>,
    recorded: AtomicU64,
    /// Events lost to ring overwrites (always 0 in unbounded mode).
    overwritten: AtomicU64,
}

/// Shared telemetry sink. Clone freely; clones record into the same
/// buffers. Recording appends to the calling thread's own buffer (an
/// uncontended lock outside of drains), so instrumented hot paths stay
/// cheap; a disabled stack simply carries no recorder
/// (`Option<Recorder>` checked once per operation).
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, empty, unbounded recorder.
    pub fn new() -> Recorder {
        Recorder::build(None)
    }

    /// A ring-mode recorder: each recording thread keeps at most
    /// `capacity_per_thread` events, overwriting the oldest once full
    /// (counted in [`Recorder::overwritten`]). This is the always-on
    /// flight-recorder mode — memory is bounded no matter how long the
    /// process runs.
    ///
    /// # Panics
    /// Panics on a zero capacity.
    pub fn with_capacity(capacity_per_thread: usize) -> Recorder {
        assert!(capacity_per_thread > 0, "ring capacity must be positive");
        Recorder::build(Some(capacity_per_thread))
    }

    fn build(capacity: Option<usize>) -> Recorder {
        Recorder {
            inner: Arc::new(RecorderInner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                capacity,
                buffers: Mutex::new(Vec::new()),
                recorded: AtomicU64::new(0),
                overwritten: AtomicU64::new(0),
            }),
        }
    }

    /// Records a duration event.
    pub fn span(
        &self,
        phase: Phase,
        track: impl Into<String>,
        name: impl Into<String>,
        start: f64,
        end: f64,
        detail: impl Into<String>,
    ) {
        self.push(Event::Span(SpanRecord {
            name: name.into(),
            track: track.into(),
            phase,
            start,
            end: end.max(start),
            detail: detail.into(),
        }));
    }

    /// Records a point event.
    pub fn instant(
        &self,
        phase: Phase,
        track: impl Into<String>,
        name: impl Into<String>,
        at: f64,
        detail: impl Into<String>,
    ) {
        self.push(Event::Instant(InstantRecord {
            name: name.into(),
            track: track.into(),
            phase,
            at,
            detail: detail.into(),
        }));
    }

    /// Total events recorded so far (all threads), overwritten ones
    /// included.
    pub fn events_recorded(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Events lost to ring overwrites (0 for unbounded recorders). A
    /// nonzero value means [`Recorder::drain`]/[`Recorder::snapshot`]
    /// see only the newest `capacity_per_thread` events per thread.
    pub fn overwritten(&self) -> u64 {
        self.inner.overwritten.load(Ordering::Relaxed)
    }

    /// The ring capacity per thread (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Collects every buffered event in canonical order — sorted by
    /// `(timestamp, phase, name)`, ties in the order they were recorded,
    /// whichever thread recorded them — leaving the buffers empty. Safe to
    /// call while other threads keep recording (their new events land in
    /// the next drain).
    pub fn drain(&self) -> Vec<Event> {
        self.collect(|b| {
            b.head = 0;
            std::mem::take(&mut b.events)
        })
    }

    /// Clones every buffered event in canonical order *without*
    /// draining: recording continues uninterrupted and the same events
    /// remain visible to later snapshots or a final drain. This is how
    /// an anomaly dump captures the flight-recorder ring mid-run.
    pub fn snapshot(&self) -> Vec<Event> {
        self.collect(|b| b.events.clone())
    }

    /// What `read` takes from every buffer, in the canonical order:
    /// `(timestamp, phase, name)` — equal timestamps broken by phase
    /// (pipeline order) then name — and events equal on all three in the
    /// order they were recorded. The order is total, so it depends neither on
    /// buffer (thread) registration order nor on where a ring wrapped.
    fn collect(&self, read: impl Fn(&mut RingBuf) -> Vec<(u64, Event)>) -> Vec<Event> {
        let mut out = Vec::new();
        for buf in self.inner.buffers.lock().iter() {
            out.extend(read(&mut buf.lock()));
        }
        out.sort_by(|(i, a), (j, b)| {
            a.at()
                .partial_cmp(&b.at())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.phase().cmp(&b.phase()))
                .then_with(|| a.name().cmp(b.name()))
                .then(i.cmp(j))
        });
        out.into_iter().map(|(_, ev)| ev).collect()
    }

    fn push(&self, ev: Event) {
        let ev = (self.inner.recorded.fetch_add(1, Ordering::Relaxed), ev);
        LOCAL_BUFFERS.with(|cache| {
            let mut cache = cache.borrow_mut();
            let buf = match cache.iter().position(|(id, _)| *id == self.inner.id) {
                Some(i) => &cache[i].1,
                None => {
                    let buf = Arc::new(Mutex::new(RingBuf {
                        events: Vec::new(),
                        head: 0,
                    }));
                    self.inner.buffers.lock().push(buf.clone());
                    cache.push((self.inner.id, buf));
                    &cache.last().expect("just pushed").1
                }
            };
            let mut b = buf.lock();
            match self.inner.capacity {
                Some(cap) if b.events.len() >= cap => {
                    let head = b.head;
                    b.events[head] = ev;
                    b.head = (head + 1) % cap;
                    self.inner.overwritten.fetch_add(1, Ordering::Relaxed);
                }
                _ => b.events.push(ev),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_drains_in_time_order() {
        let r = Recorder::new();
        r.instant(Phase::Fault, "fabric", "kill", 2.0, "");
        r.span(Phase::Transfer, "xfer", "put", 0.5, 1.5, "64M");
        r.span(Phase::Plan, "planner", "plan", 0.0, 0.0, "");
        assert_eq!(r.events_recorded(), 3);
        let evs = r.drain();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].phase(), Phase::Plan);
        assert_eq!(evs[1].phase(), Phase::Transfer);
        assert_eq!(evs[2].phase(), Phase::Fault);
        // Drained: a second drain is empty.
        assert!(r.drain().is_empty());
        // The counter keeps the lifetime total.
        assert_eq!(r.events_recorded(), 3);
    }

    #[test]
    fn span_end_clamped_to_start() {
        let r = Recorder::new();
        r.span(Phase::Probe, "t", "backwards", 5.0, 4.0, "");
        let evs = r.drain();
        match &evs[0] {
            Event::Span(s) => assert_eq!(s.end, 5.0),
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn multi_thread_recording_lands_in_one_drain() {
        let r = Recorder::new();
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    r.span(
                        Phase::ChunkLeg,
                        format!("track{t}"),
                        format!("ev{i}"),
                        i as f64,
                        i as f64 + 0.5,
                        "",
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let evs = r.drain();
        assert_eq!(evs.len(), 400);
        assert_eq!(r.events_recorded(), 400);
        // Sorted by timestamp.
        for w in evs.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }

    #[test]
    fn distinct_recorders_do_not_cross_talk() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.instant(Phase::Plan, "t", "a-only", 0.0, "");
        b.instant(Phase::Plan, "t", "b-only", 0.0, "");
        let ea = a.drain();
        let eb = b.drain();
        assert_eq!(ea.len(), 1);
        assert_eq!(eb.len(), 1);
        match (&ea[0], &eb[0]) {
            (Event::Instant(x), Event::Instant(y)) => {
                assert_eq!(x.name, "a-only");
                assert_eq!(y.name, "b-only");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equal_timestamps_drain_in_phase_then_name_order() {
        // Same-timestamp events recorded from different threads must
        // drain in one deterministic order: (ts, phase, name).
        let r = Recorder::new();
        let mut handles = Vec::new();
        for (phase, name) in [
            (Phase::Fault, "z-fault"),
            (Phase::Plan, "b-plan"),
            (Phase::Plan, "a-plan"),
            (Phase::Transfer, "m-xfer"),
        ] {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                r.instant(phase, "t", name, 1.0, "");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let names: Vec<String> = r.drain().iter().map(|e| e.name().to_string()).collect();
        assert_eq!(names, ["a-plan", "b-plan", "m-xfer", "z-fault"]);
    }

    /// Records tied on `(ts, phase, name)` drain in the order they were
    /// recorded, not in the order their threads registered buffers.
    #[test]
    fn tied_records_drain_in_issue_order() {
        let (r, turn) = (Recorder::new(), Arc::new(std::sync::Barrier::new(2)));
        let (rb, tb) = (r.clone(), turn.clone());
        let b = std::thread::spawn(move || {
            rb.instant(Phase::Plan, "b", "register", 0.0, "");
            tb.wait(); // B's buffer is registered,
            tb.wait(); // and A has recorded its tie.
            rb.instant(Phase::Health, "b", "tie", 1.0, "");
        });
        turn.wait();
        r.instant(Phase::Health, "a", "tie", 1.0, "");
        turn.wait();
        b.join().unwrap();
        let tracks: Vec<String> = r.drain().iter().map(|e| e.track().to_string()).collect();
        assert_eq!(tracks, ["b", "a", "b"]);
    }

    #[test]
    fn ring_mode_overwrites_oldest_and_counts() {
        let r = Recorder::with_capacity(4);
        for i in 0..10 {
            r.instant(Phase::Plan, "t", format!("ev{i}"), i as f64, "");
        }
        assert_eq!(r.events_recorded(), 10);
        assert_eq!(r.overwritten(), 6);
        assert_eq!(r.capacity(), Some(4));
        let names: Vec<String> = r.drain().iter().map(|e| e.name().to_string()).collect();
        // Only the newest 4 survive, oldest-first.
        assert_eq!(names, ["ev6", "ev7", "ev8", "ev9"]);
    }

    #[test]
    fn snapshot_does_not_consume() {
        let r = Recorder::with_capacity(8);
        r.instant(Phase::Health, "t", "trip", 1.0, "");
        r.instant(Phase::Health, "t", "reset", 2.0, "");
        let snap1 = r.snapshot();
        assert_eq!(snap1.len(), 2);
        // Recording continues and earlier events stay visible.
        r.instant(Phase::Hedge, "t", "win", 3.0, "");
        let snap2 = r.snapshot();
        assert_eq!(snap2.len(), 3);
        assert_eq!(snap2[0].name(), "trip");
        // A drain still sees everything once.
        assert_eq!(r.drain().len(), 3);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn unbounded_recorder_never_overwrites() {
        let r = Recorder::new();
        for i in 0..1000 {
            r.instant(Phase::Plan, "t", "e", i as f64, "");
        }
        assert_eq!(r.overwritten(), 0);
        assert_eq!(r.capacity(), None);
        assert_eq!(r.drain().len(), 1000);
    }

    #[test]
    fn event_serde_round_trip() {
        let r = Recorder::new();
        r.span(Phase::Transfer, "xfer", "put", 0.5, 1.5, "64M");
        r.instant(Phase::Fault, "fabric", "kill", 2.0, "link 3");
        let evs = r.drain();
        let json = serde_json::to_string(&evs).unwrap();
        let back: Vec<Event> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, evs);
    }

    #[test]
    fn phase_labels_are_stable() {
        let labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            [
                "plan",
                "probe",
                "transfer",
                "chunk-leg",
                "recovery",
                "collective",
                "fault",
                "tune",
                "graph.capture",
                "graph.replay",
                "health",
                "hedge",
                "partition"
            ]
        );
    }
}
