//! The discrete-event engine: virtual time, fluid flows with max-min fair
//! bandwidth sharing, and a blocked-thread quorum protocol that lets
//! simulated ranks be written as ordinary blocking Rust threads.
//!
//! # Execution model
//!
//! Simulated actors are OS threads registered via
//! [`Engine::register_thread`]. Every blocking operation funnels into
//! [`SimThread::wait`] on a [`Waker`]. Virtual time only advances when
//! *all* registered threads are blocked: the last thread to block becomes
//! the coordinator, pops the earliest event, advances `now`, and handles
//! it. Handling an event may fire wakers, making threads runnable again;
//! the clock then stays frozen until they all block once more. This gives
//! deterministic-enough virtual time while keeping rank code straight-line.
//!
//! # Flows
//!
//! A transfer is a *flow*: a byte count draining over a route of directed
//! links at the max-min fair rate (see [`crate::fairness`]). Rates are
//! recomputed whenever the set of active flows changes.
//!
//! # Event queues
//!
//! Live flows sit in a free-list slab, addressed by slot internally;
//! [`FlowId`] is the sequential outward-facing id and the canonical sort
//! key. Timers and activations wait in a binary heap. Every draining flow
//! carries its completion key `(time, seq)`; an *indexed* heap holds at
//! most one entry per flow, re-keyed in place, so no superseded entry is
//! ever left behind. Where all flows of a component cross one link and
//! nothing else, only the earliest-keyed of them is in the heap — the
//! others cannot be next — and everywhere else each draining flow is. The
//! next event is the smaller `(time, seq)` of the two heap tops; pushes
//! and re-keys draw `seq` from one counter, queued or not.
//!
//! # Callbacks
//!
//! Completion handlers ([`OnComplete::Call`]) run *inside* the engine
//! lock and receive a [`Ctx`] with non-blocking operations only. They
//! must never touch the public blocking API — doing so would deadlock.

use crate::fairness::{fold_links, FairShareScratch, FlowDemand, Links};
use crate::label::Label;
use crate::time::SimTime;
use crate::waker::Waker;
use mpx_obs::{Phase, Recorder};
use mpx_topo::units::Secs;
use mpx_topo::{LinkId, Topology};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, Index, IndexMut};
use std::sync::Arc;

/// Deterministic latency noise: every flow's startup latency is scaled
/// by a factor drawn from `[1 − spread, 1 + spread]` using a seeded RNG.
/// Models OS/driver timing variation; the same seed reproduces the same
/// run exactly. This is the "latency and bandwidth variations" the
/// paper's Observation 2 says larger window sizes smooth over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// RNG seed.
    pub seed: u64,
    /// Relative spread (e.g. 0.3 → ±30% on startup latencies).
    pub spread: f64,
}

/// Identifier of a flow within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A callback run by the event loop. Runs under the engine lock; use only
/// the [`Ctx`] argument, never the blocking `Engine`/`SimThread` API.
pub type EventFn = Box<dyn FnOnce(&mut Ctx<'_>) + Send>;

/// A completion target that is already shared: what a flow per op would
/// otherwise box a closure for. The target keeps whatever the completion
/// needs in its own state; the engine only hands it back its handle.
pub trait FlowSink: Send + Sync {
    /// Runs in the event loop, under the engine lock, like an
    /// [`EventFn`]: use only `ctx`, never the blocking API.
    fn flow_done(self: Arc<Self>, ctx: &mut Ctx<'_>);
}

/// What to do when a flow or timer completes.
pub enum OnComplete {
    /// Do nothing.
    Nothing,
    /// Fire a waker (unblocking a simulated thread).
    Signal(Waker),
    /// Run a callback in the event loop.
    Call(EventFn),
    /// Notify a shared sink in the event loop; allocates nothing.
    Sink(Arc<dyn FlowSink>),
}

impl std::fmt::Debug for OnComplete {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnComplete::Nothing => write!(f, "Nothing"),
            OnComplete::Signal(w) => write!(f, "Signal({})", w.name()),
            OnComplete::Call(_) => write!(f, "Call(..)"),
            OnComplete::Sink(_) => write!(f, "Sink(..)"),
        }
    }
}

/// The directed links a flow occupies, in traversal order; repeated links
/// count double for contention. Reads as a `[LinkId]`.
///
/// One type, two forms. A `Vec<LinkId>` converts for free and is folded
/// into its fair-share demand when its flow starts: inline for one link,
/// one allocation per flow for more — right for a route used once.
/// [`Route::shared`] folds once, up
/// front; its clones, and every flow started from one, share both lists by
/// reference count — right for a route that a stream program or a compiled
/// graph sends flow after flow over.
#[derive(Debug, Clone)]
pub struct Route(RouteRepr);

#[derive(Debug, Clone)]
enum RouteRepr {
    Owned(Vec<LinkId>),
    Shared(Arc<[LinkId]>, Arc<[(usize, f64)]>),
}

impl Route {
    /// A route that clones, and starts flows, without allocating.
    pub fn shared(links: &[LinkId]) -> Route {
        let folded = fold_links(links.iter().map(|l| l.index()));
        Route(RouteRepr::Shared(links.into(), folded.into()))
    }

    /// The route's links merged into `(link index, multiplicity)`: the
    /// shared list, or a fresh fold of an owned route (inline for one
    /// link, else one allocation).
    fn folded(&self) -> Links {
        match &self.0 {
            RouteRepr::Owned(links) if links.len() == 1 => Links::One([(links[0].index(), 1.0)]),
            RouteRepr::Owned(links) => Links::Owned(fold_links(links.iter().map(|l| l.index()))),
            RouteRepr::Shared(_, folded) => Links::Shared(folded.clone()),
        }
    }
}

impl From<Vec<LinkId>> for Route {
    fn from(links: Vec<LinkId>) -> Route {
        Route(RouteRepr::Owned(links))
    }
}

impl From<Route> for Vec<LinkId> {
    fn from(route: Route) -> Vec<LinkId> {
        match route.0 {
            RouteRepr::Owned(links) => links,
            RouteRepr::Shared(links, _) => links.to_vec(),
        }
    }
}

impl Deref for Route {
    type Target = [LinkId];
    fn deref(&self) -> &[LinkId] {
        match &self.0 {
            RouteRepr::Owned(links) => links,
            RouteRepr::Shared(links, _) => links,
        }
    }
}

/// Description of a transfer to inject into the fabric.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Directed links the flow occupies, in traversal order. Repeated
    /// links count double for contention.
    pub route: Route,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Extra startup delay charged before the flow becomes active, *in
    /// addition to* the sum of link latencies (used for software launch
    /// overheads).
    pub extra_latency: Secs,
    /// QoS weight for fair sharing: a weight-2 flow receives twice the
    /// rate of a weight-1 flow wherever they contend. Default 1.
    pub weight: f64,
    /// Multiplier applied to the flow's *total* startup latency (link
    /// latencies plus `extra_latency`) at issue time. Default 1. The
    /// partitioned scenario runner uses this to apply jitter factors it
    /// pre-drew in global issue order, so the same factors reach a flow
    /// no matter which partition simulates it (see [`crate::parallel`]).
    pub latency_factor: f64,
    /// Label recorded in the trace (e.g. `p1.c3.leg2`), rendered only if
    /// a trace, a recorder or a panic reads it. `None` reads as the empty
    /// label.
    pub label: Option<Label>,
}

impl FlowSpec {
    /// A flow over `route` carrying `bytes`, no extra latency, no label.
    pub fn new(route: impl Into<Route>, bytes: usize) -> FlowSpec {
        FlowSpec {
            route: route.into(),
            bytes,
            extra_latency: 0.0,
            weight: 1.0,
            latency_factor: 1.0,
            label: None,
        }
    }

    /// Sets the QoS weight (must be positive).
    pub fn with_weight(mut self, weight: f64) -> FlowSpec {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "invalid weight {weight}"
        );
        self.weight = weight;
        self
    }

    /// Sets the trace label.
    pub fn labeled(mut self, label: impl Into<Label>) -> FlowSpec {
        self.label = Some(label.into());
        self
    }

    /// Adds software startup latency.
    pub fn with_extra_latency(mut self, l: Secs) -> FlowSpec {
        self.extra_latency += l;
        self
    }
}

/// One completed-flow record (tracing must be enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Flow id.
    pub flow: FlowId,
    /// Trace label from the [`FlowSpec`].
    pub label: String,
    /// Route taken.
    pub route: Vec<LinkId>,
    /// Bytes carried.
    pub bytes: usize,
    /// When the flow was issued.
    pub issued: SimTime,
    /// When data started moving (after latency).
    pub activated: SimTime,
    /// When the last byte arrived.
    pub completed: SimTime,
}

/// Per-link counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Total bytes that crossed the link.
    pub bytes: f64,
    /// Number of flows that used the link.
    pub flows: u64,
}

/// Snapshot of engine counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Virtual time of the snapshot.
    pub now: SimTime,
    /// Per-link counters, indexed like `Topology::links`.
    pub links: Vec<LinkStats>,
    /// Flows issued so far.
    pub flows_issued: u64,
    /// Flows completed so far.
    pub flows_completed: u64,
    /// Events processed so far.
    pub events_processed: u64,
    /// Keys drawn: timer and activation pushes plus one per completion
    /// re-key, whether or not the re-keyed flow holds a queue entry (in a
    /// single-link component only the earliest does). The gap to
    /// `events_processed` is completion reschedule churn from rate
    /// changes, never queue occupancy.
    pub events_scheduled: u64,
    /// Fault events fired by an installed fault plan (see
    /// [`crate::fault`]).
    pub faults_fired: u64,
    /// Cumulative count of flows that entered the stalled state because a
    /// link on their route went down.
    pub flows_stalled: u64,
    /// Links currently down (capacity forced to zero).
    pub links_down: u64,
    /// Connected-component partitions the workload decomposed into.
    /// Always filled by the scenario runner (see [`crate::parallel`]) in
    /// *both* serial and parallel mode — the decomposition is a property
    /// of the workload, not of the execution strategy — so the two modes
    /// report identical values. Zero for raw [`Engine`] runs.
    pub partitions: u64,
    /// Partition merges forced by flows whose routes bridged two
    /// already-occupied partitions (rebalance events).
    pub rebalances: u64,
    /// Admitted events (flow issues or faults) whose owning partition at
    /// execution time differed from their partition at admission time —
    /// i.e. events re-routed across a component boundary by a later
    /// rebalance.
    pub cross_component_events: u64,
}

impl StatsSnapshot {
    /// Mirrors the engine counters into a telemetry registry under the
    /// `sim.` namespace — one of the three stats surfaces unified by the
    /// [`mpx_obs::MetricsSnapshot`] schema.
    pub fn fill_registry(&self, reg: &mpx_obs::TelemetryRegistry) {
        reg.set_gauge("sim.now_secs", self.now.as_secs());
        reg.set_counter("sim.flows_issued", self.flows_issued);
        reg.set_counter("sim.flows_completed", self.flows_completed);
        reg.set_counter("sim.events_processed", self.events_processed);
        reg.set_counter("sim.events_scheduled", self.events_scheduled);
        reg.set_counter("sim.faults_fired", self.faults_fired);
        reg.set_counter("sim.flows_stalled", self.flows_stalled);
        reg.set_counter("sim.links_down", self.links_down);
        reg.set_counter("sim.partitions", self.partitions);
        reg.set_counter("sim.rebalances", self.rebalances);
        reg.set_counter("sim.cross_component_events", self.cross_component_events);
        let total_bytes: f64 = self.links.iter().map(|l| l.bytes).sum();
        reg.set_gauge("sim.link_bytes_total", total_bytes);
    }
}

/// A live flow's slab entry: what component discovery, completion and the
/// trace read. The state every re-share reads and writes is its [`Hot`]
/// record, at the same slot.
struct FlowState {
    id: FlowId,
    /// Kept for the trace record only; `demand` is what the engine reads.
    route: Route,
    demand: FlowDemand,
    /// Visit stamp for connected-component discovery (`State::comp_epoch`).
    comp_mark: u64,
    done: OnComplete,
    bytes: usize,
    issued: SimTime,
    activated: SimTime,
    label: Option<Label>,
}

/// A flow's draining state, in a dense table beside the slab
/// (`State::hot`, indexed by slot): a re-share walks a list of these
/// instead of the far larger slab entries.
#[derive(Clone, Copy)]
struct Hot {
    remaining: f64,
    rate: f64,
    last_update: SimTime,
    /// Completion `(at, seq)`, drawn when `rate` last changed; means
    /// nothing while `rate` is zero.
    key: (SimTime, u64),
    /// True while a down link on the route holds the flow at rate zero.
    stalled: bool,
}

impl Hot {
    /// Advances the flow to `now` at its current rate; returns the bytes
    /// it moved.
    fn drain(&mut self, now: SimTime) -> f64 {
        let dt = now.secs_since(self.last_update);
        self.last_update = now;
        if dt > 0.0 && self.rate > 0.0 {
            let drained = (self.rate * dt).min(self.remaining);
            self.remaining -= drained;
            drained
        } else {
            0.0
        }
    }

    /// Adopts `rate`. A changed rate draws the flow's new completion key
    /// from `seq`; an unchanged one keeps the key, which is still exact.
    fn set_rate(&mut self, rate: f64, now: SimTime, seq: &mut u64) -> bool {
        if rate == self.rate {
            return false;
        }
        self.rate = rate;
        let eta = if self.remaining <= 0.0 {
            0.0
        } else {
            self.remaining / rate
        };
        self.key = (now.after(eta), *seq);
        *seq += 1;
        true
    }
}

/// A flow's entry in the list of a link it crosses.
#[derive(Clone, Copy)]
struct Member {
    id: FlowId,
    slot: u32,
    /// The flow crosses other links too.
    multi: bool,
    weight: f64,
    /// How many times the route crosses this link.
    mult: f64,
}

enum Event {
    Timer(OnComplete),
    /// Activation of the flow in this slab slot.
    FlowActivate(u32),
}

struct QueuedEvent {
    at: SimTime,
    seq: u64,
    ev: Event,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Free-list slab: a value keeps its `u32` slot until removed, and freed
/// slots are reused before the table grows, so capacity tracks the peak
/// number of live values, not the number ever inserted.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn remove(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize].take().expect("free slot");
        self.free.push(slot);
        value
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, slot: u32) -> &T {
        self.slots[slot as usize].as_ref().expect("free slot")
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, slot: u32) -> &mut T {
        self.slots[slot as usize].as_mut().expect("free slot")
    }
}

/// A flow's queued completion; `key` is `(at, seq)`.
#[derive(Clone, Copy)]
struct Completion {
    key: (SimTime, u64),
    slot: u32,
}

const NOT_QUEUED: u32 = u32::MAX;

/// Indexed binary min-heap of flow completions, ordered by `(at, seq)`:
/// at most one entry per slab slot, moved in place when its key changes.
/// `pos` is the back-pointer table, slot → heap index. Like the slab it
/// is indexed by, it grows to the peak number of live flows and no
/// further.
#[derive(Default)]
struct CompletionQueue {
    heap: Vec<Completion>,
    pos: Vec<u32>,
}

impl CompletionQueue {
    fn peek(&self) -> Option<&Completion> {
        self.heap.first()
    }

    fn is_queued(&self, slot: u32) -> bool {
        self.pos
            .get(slot as usize)
            .is_some_and(|&i| i != NOT_QUEUED)
    }

    /// Queues `slot` at `key`, replacing its entry if it has one.
    fn set(&mut self, slot: u32, key: (SimTime, u64)) {
        if slot as usize >= self.pos.len() {
            self.pos.resize(slot as usize + 1, NOT_QUEUED);
        }
        let entry = Completion { key, slot };
        let i = match self.pos[slot as usize] {
            NOT_QUEUED => {
                self.heap.push(entry);
                self.heap.len() - 1
            }
            i => {
                self.heap[i as usize] = entry;
                i as usize
            }
        };
        self.sift(i);
    }

    /// Drops `slot`'s entry, if any.
    fn remove(&mut self, slot: u32) {
        let i = match self.pos.get(slot as usize) {
            Some(&i) if i != NOT_QUEUED => i as usize,
            _ => return,
        };
        self.pos[slot as usize] = NOT_QUEUED;
        let last = self.heap.pop().expect("queued slot in an empty heap");
        if i < self.heap.len() {
            self.heap[i] = last;
            self.sift(i);
        }
    }

    /// Restores heap order for the entry at index `i`, whichever way it
    /// has to move, and records the final position of everything moved.
    fn sift(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1].key < self.heap[child].key {
                child += 1;
            }
            if entry.key <= self.heap[child].key {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: Completion) {
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
    }
}

struct State {
    now: SimTime,
    /// Schedule operations so far; the tie-break for equal times, drawn
    /// by timer/activation pushes and completion re-keys alike.
    seq: u64,
    /// Current link capacities (bytes/s); starts from the topology and
    /// may be degraded at runtime.
    capacities: Vec<f64>,
    /// Timers and flow activations.
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    /// Draining flows by completion key: all of them, except that a
    /// component whose flows cross one link and nothing else queues only
    /// its earliest.
    completions: CompletionQueue,
    flows: Slab<FlowState>,
    /// Every slab slot's [`Hot`] record, live or free: grows with the slab.
    hot: Vec<Hot>,
    next_flow: u64,
    registered: usize,
    blocked: usize,
    poisoned: bool,
    link_stats: Vec<LinkStats>,
    flows_issued: u64,
    flows_completed: u64,
    events_processed: u64,
    trace: Option<Vec<TraceRecord>>,
    jitter: Option<(JitterModel, StdRng)>,
    /// Active flows per link (by link index), sorted by flow id — the
    /// canonical float order; maintained on activation and completion,
    /// and the adjacency for component discovery.
    link_flows: Vec<Vec<Member>>,
    /// Persistent allocator scratch: recomputation allocates nothing in
    /// steady state.
    fair: FairShareScratch,
    /// Component scratch: links found (doubles as the BFS worklist).
    comp_links: Vec<usize>,
    /// Component scratch: member flows with their slots, sorted by id
    /// for canonical float order.
    comp_flows: Vec<(FlowId, u32)>,
    /// Link visit stamps for component discovery.
    link_mark: Vec<u64>,
    comp_epoch: u64,
    /// Output buffer for the allocator.
    rates_scratch: Vec<f64>,
    /// Component members that are *not* stalled — the allocator's actual
    /// input (stalled flows must never reach it: their down links carry a
    /// zero capacity the fair-share code rejects).
    comp_live: Vec<u32>,
    /// Per-link down flags (capacity forced to zero).
    down: Vec<bool>,
    /// Capacity stashed when a link went down, restored on recovery.
    saved_capacity: Vec<f64>,
    /// Per-link latency multipliers (latency-spike faults).
    latency_scale: Vec<f64>,
    /// Fast guard: true iff any link is down (keeps the no-fault hot
    /// path free of per-flow down-link scans).
    any_down: bool,
    faults_fired: u64,
    flows_stalled: u64,
    /// Telemetry sink; when present, every completed flow becomes a span
    /// on its lane track and on each link it crossed (see `mpx-obs`).
    recorder: Option<Recorder>,
    /// Pre-rendered `link:src->dst` track names, indexed by link id —
    /// cloning one is cheaper than re-formatting it per recorded span,
    /// which keeps the always-on flight recorder off the hot path's back.
    /// Rendered by [`Engine::set_recorder`]: only a recorder reads them.
    link_tracks: Vec<String>,
    /// Sends every recomputation down the general path, for the test that
    /// holds the single-link one to it bit for bit.
    #[cfg(test)]
    force_general: bool,
}

struct Shared {
    topo: Arc<Topology>,
    state: Mutex<State>,
    cv: Condvar,
    #[cfg(test)]
    broadcasts: std::sync::atomic::AtomicU64,
}

impl Shared {
    /// Wakes every parked thread. Only three things let one make progress,
    /// and they are the only callers: a waker fired while its owner waited,
    /// a [`SimThread`] dropped (the quorum may now be complete), the engine
    /// poisoned. A queued event is not one: whoever blocks last drains it.
    fn wake_parked(&self) {
        #[cfg(test)]
        self.broadcasts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.cv.notify_all();
    }
}

/// The simulation engine. Clone freely; clones share the simulation.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
}

/// Non-blocking operations available to event callbacks.
pub struct Ctx<'a> {
    st: &'a mut State,
    topo: &'a Topology,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.st.now
    }

    /// The topology the engine simulates.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Schedules `done` to run after `delay` seconds of virtual time.
    pub fn schedule_in(&mut self, delay: Secs, done: OnComplete) {
        let at = self.st.now.after(delay);
        push_event(self.st, at, Event::Timer(done));
    }

    /// Schedules `done` at absolute virtual time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, done: OnComplete) {
        let at = at.max(self.st.now);
        push_event(self.st, at, Event::Timer(done));
    }

    /// Fires a waker immediately.
    pub fn signal(&mut self, w: &Waker) {
        fire_waker(self.st, w);
    }

    /// Injects a flow; `done` runs/fires when the last byte lands.
    pub fn start_flow(&mut self, spec: FlowSpec, done: OnComplete) -> FlowId {
        start_flow_locked(self.st, self.topo, spec, done)
    }

    /// Takes a link down: capacity drops to zero and every flow crossing
    /// it stalls until [`Ctx::restore_link`].
    pub fn set_link_down(&mut self, link: LinkId) {
        set_link_down_locked(self.st, link);
    }

    /// Brings a down link back at its stashed capacity; stalled flows
    /// that no longer cross any down link resume.
    pub fn restore_link(&mut self, link: LinkId) {
        restore_link_locked(self.st, link);
    }

    /// Multiplies a link's current capacity by `factor` (bandwidth
    /// degradation faults).
    pub fn scale_link_capacity(&mut self, link: LinkId, factor: f64) {
        scale_link_capacity_locked(self.st, link, factor);
    }

    /// Sets a link's latency multiplier, applied to flows issued from now
    /// on (latency-spike faults). `1.0` restores nominal latency.
    pub fn set_link_latency_scale(&mut self, link: LinkId, scale: f64) {
        set_latency_scale_locked(self.st, link, scale);
    }

    /// True unless the link is currently down.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        !self.st.down[link.index()]
    }

    /// Bumps the fault counter surfaced in [`StatsSnapshot::faults_fired`].
    pub fn note_fault(&mut self) {
        self.st.faults_fired += 1;
    }

    /// The telemetry recorder installed on the engine, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.st.recorder.as_ref()
    }

    /// Records a fault instant on the affected link's track (no-op
    /// without a recorder).
    pub fn record_fault_instant(&mut self, kind: &str, link: LinkId) {
        if let Some(rec) = self.st.recorder.as_ref() {
            let track = match self.st.link_tracks.get(link.index()) {
                Some(track) => track.clone(),
                None => "fabric".to_string(),
            };
            rec.instant(
                Phase::Fault,
                track,
                format!("fault:{kind} {link}"),
                self.st.now.as_secs(),
                kind.to_string(),
            );
        }
    }
}

impl Engine {
    /// Creates an engine over `topo` with tracing disabled.
    pub fn new(topo: Arc<Topology>) -> Engine {
        Engine::with_tracing(topo, false)
    }

    /// Creates an engine, optionally recording a [`TraceRecord`] per flow.
    pub fn with_tracing(topo: Arc<Topology>, trace: bool) -> Engine {
        let nlinks = topo.link_count();
        let capacities: Vec<f64> = topo.links.iter().map(|l| l.bandwidth).collect();
        Engine {
            shared: Arc::new(Shared {
                topo,
                state: Mutex::new(State {
                    now: SimTime::ZERO,
                    seq: 0,
                    capacities,
                    queue: BinaryHeap::new(),
                    completions: CompletionQueue::default(),
                    flows: Slab {
                        slots: Vec::new(),
                        free: Vec::new(),
                    },
                    hot: Vec::new(),
                    next_flow: 0,
                    registered: 0,
                    blocked: 0,
                    poisoned: false,
                    link_stats: vec![LinkStats::default(); nlinks],
                    flows_issued: 0,
                    flows_completed: 0,
                    events_processed: 0,
                    trace: trace.then(Vec::new),
                    jitter: None,
                    link_flows: vec![Vec::new(); nlinks],
                    fair: FairShareScratch::default(),
                    comp_links: Vec::new(),
                    comp_flows: Vec::new(),
                    link_mark: vec![0; nlinks],
                    comp_epoch: 0,
                    rates_scratch: Vec::new(),
                    comp_live: Vec::new(),
                    down: vec![false; nlinks],
                    saved_capacity: vec![0.0; nlinks],
                    latency_scale: vec![1.0; nlinks],
                    any_down: false,
                    faults_fired: 0,
                    flows_stalled: 0,
                    recorder: None,
                    link_tracks: Vec::new(),
                    #[cfg(test)]
                    force_general: false,
                }),
                cv: Condvar::new(),
                #[cfg(test)]
                broadcasts: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.shared.topo
    }

    /// Installs a telemetry recorder: from now on every completed flow is
    /// recorded as a span on its lane track *and* on each link of its
    /// route, and fault events mark instants (see `mpx-obs`). Install
    /// before building runtimes on top of the engine — they cache the
    /// recorder handle at construction.
    pub fn set_recorder(&self, recorder: Recorder) {
        let mut st = self.shared.state.lock();
        if st.link_tracks.is_empty() {
            st.link_tracks = (self.shared.topo.links.iter())
                .map(|l| format!("link:{}->{}", l.src, l.dst))
                .collect();
        }
        st.recorder = Some(recorder);
    }

    /// The installed telemetry recorder, if any (cheap clone of a shared
    /// handle).
    pub fn recorder(&self) -> Option<Recorder> {
        self.shared.state.lock().recorder.clone()
    }

    /// Changes a link's capacity at the current virtual time (hardware
    /// degradation, cable fault, QoS throttling). In-flight flows are
    /// re-shared immediately; the topology description itself is
    /// untouched, so models consulting it will mis-predict until they
    /// recalibrate — which is the experiment this API exists for.
    ///
    /// # Panics
    /// Panics on non-positive capacities or unknown links.
    pub fn set_link_capacity(&self, link: mpx_topo::LinkId, bytes_per_sec: f64) {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "invalid capacity {bytes_per_sec}"
        );
        let mut st = self.shared.state.lock();
        assert!(link.index() < st.capacities.len(), "unknown link {link}");
        if st.down[link.index()] {
            // The link is down: remember the new capacity for when it
            // comes back, but keep it dead for now.
            st.saved_capacity[link.index()] = bytes_per_sec;
            return;
        }
        st.capacities[link.index()] = bytes_per_sec;
        // Only flows sharing a link (transitively) with the changed one
        // can see a different fair share.
        recompute_link(&mut st, link.index());
    }

    /// Takes a link down (capacity → 0). Flows crossing it stall at rate
    /// zero — they neither progress nor complete — until
    /// [`Engine::restore_link`]. Idempotent.
    pub fn set_link_down(&self, link: LinkId) {
        let mut st = self.shared.state.lock();
        set_link_down_locked(&mut st, link);
    }

    /// Brings a down link back at the capacity it had when it failed.
    /// Stalled flows whose routes are fully up resume and re-share.
    /// Idempotent (no-op on an up link).
    pub fn restore_link(&self, link: LinkId) {
        let mut st = self.shared.state.lock();
        restore_link_locked(&mut st, link);
    }

    /// True unless the link is currently down.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        !self.shared.state.lock().down[link.index()]
    }

    /// True iff *any* link is currently down — the same fast guard the
    /// flow recomputation uses, exposed so transports can skip per-path
    /// link scans entirely on a healthy fabric.
    pub fn any_link_down(&self) -> bool {
        self.shared.state.lock().any_down
    }

    /// Sets a link's latency multiplier (applied to flows issued from now
    /// on). `1.0` restores nominal latency.
    pub fn set_link_latency_scale(&self, link: LinkId, scale: f64) {
        let mut st = self.shared.state.lock();
        set_latency_scale_locked(&mut st, link, scale);
    }

    /// The current (possibly degraded) capacity of a link.
    pub fn link_capacity(&self, link: mpx_topo::LinkId) -> f64 {
        self.shared.state.lock().capacities[link.index()]
    }

    /// Runs `f` against every link's current capacity, without copying.
    /// Keep `f` short: it runs under the engine lock.
    pub fn with_capacities<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        f(&self.shared.state.lock().capacities)
    }

    /// Enables deterministic latency jitter for flows issued from now on.
    pub fn set_jitter(&self, model: JitterModel) {
        assert!(
            (0.0..1.0).contains(&model.spread),
            "spread must be in [0, 1)"
        );
        let mut st = self.shared.state.lock();
        st.jitter = Some((model, StdRng::seed_from_u64(model.seed)));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Registers a simulated actor. Keep the guard alive for as long as
    /// the actor participates.
    ///
    /// **All actors of a phase must be registered before any of them
    /// starts blocking** — otherwise an early actor can form a quorum by
    /// itself and run virtual time ahead of latecomers. The standard
    /// pattern is to register every actor in the parent thread and move
    /// each [`SimThread`] guard into its worker:
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use mpx_sim::Engine;
    /// # use mpx_topo::presets;
    /// let eng = Engine::new(Arc::new(presets::beluga()));
    /// let actors: Vec<_> = (0..2).map(|i| eng.register_thread(format!("rank{i}"))).collect();
    /// let handles: Vec<_> = actors
    ///     .into_iter()
    ///     .map(|t| std::thread::spawn(move || t.sleep(1e-6)))
    ///     .collect();
    /// for h in handles { h.join().unwrap(); }
    /// ```
    pub fn register_thread(&self, name: impl Into<String>) -> SimThread {
        let name = name.into();
        let mut st = self.shared.state.lock();
        st.registered += 1;
        SimThread {
            engine: self.clone(),
            sleep_name: format!("{name}.sleep").into(),
            transfer_name: format!("{name}.transfer").into(),
            name,
        }
    }

    /// Schedules `done` after `delay` seconds (non-blocking; callable from
    /// any thread).
    pub fn schedule_in(&self, delay: Secs, done: OnComplete) {
        let mut st = self.shared.state.lock();
        let at = st.now.after(delay);
        push_event(&mut st, at, Event::Timer(done));
    }

    /// Schedules `done` at absolute virtual time `at` (clamped to now;
    /// non-blocking; callable from any thread).
    pub fn schedule_at(&self, at: SimTime, done: OnComplete) {
        let mut st = self.shared.state.lock();
        let at = at.max(st.now);
        push_event(&mut st, at, Event::Timer(done));
    }

    /// Fires a waker immediately (non-blocking; callable from any
    /// thread).
    pub fn signal_waker(&self, w: &Waker) {
        let mut st = self.shared.state.lock();
        let blocked_before = st.blocked;
        fire_waker(&mut st, w);
        if st.blocked < blocked_before {
            self.shared.wake_parked();
        }
    }

    /// Injects a flow (non-blocking). `done` fires when it completes.
    pub fn start_flow(&self, spec: FlowSpec, done: OnComplete) -> FlowId {
        let mut st = self.shared.state.lock();
        start_flow_locked(&mut st, &self.shared.topo, spec, done)
    }

    /// Drains the event queue without any registered threads — the
    /// deterministic single-threaded driver used by unit tests and
    /// callback-structured workloads.
    ///
    /// # Panics
    /// Panics if simulated threads are registered (they own the clock).
    pub fn run_until_idle(&self) {
        let mut st = self.shared.state.lock();
        assert_eq!(
            st.registered, 0,
            "run_until_idle with registered threads would corrupt the quorum"
        );
        while process_next_event(&mut st, &self.shared.topo) {}
    }

    /// Drains events until virtual time would pass `deadline` (events at
    /// or before the deadline are processed; later ones stay queued).
    /// Like [`Engine::run_until_idle`], only valid without registered
    /// threads. Returns the number of events processed.
    pub fn run_until(&self, deadline: SimTime) -> u64 {
        let mut st = self.shared.state.lock();
        assert_eq!(
            st.registered, 0,
            "run_until with registered threads would corrupt the quorum"
        );
        let before = st.events_processed;
        loop {
            match next_event_key(&st) {
                Some((at, _, _)) if at <= deadline => {
                    if !process_next_event(&mut st, &self.shared.topo) {
                        break;
                    }
                }
                _ => break,
            }
        }
        if st.now < deadline {
            st.now = deadline;
        }
        st.events_processed - before
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let st = self.shared.state.lock();
        StatsSnapshot {
            now: st.now,
            links: st.link_stats.clone(),
            flows_issued: st.flows_issued,
            flows_completed: st.flows_completed,
            events_processed: st.events_processed,
            events_scheduled: st.seq,
            faults_fired: st.faults_fired,
            flows_stalled: st.flows_stalled,
            links_down: st.down.iter().filter(|&&d| d).count() as u64,
            ..StatsSnapshot::default()
        }
    }

    /// Takes the accumulated trace. Returns an empty `Vec` when tracing
    /// was never enabled (see [`Engine::with_tracing`]) — callers need
    /// no enablement check before draining.
    pub fn take_trace(&self) -> Vec<TraceRecord> {
        let mut st = self.shared.state.lock();
        match st.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Number of flows currently in flight.
    pub fn active_flows(&self) -> usize {
        self.shared.state.lock().flows.len()
    }

    fn block_on(&self, waker: &Waker, who: &str) {
        let sh = &self.shared;
        let mut st = sh.state.lock();
        if st.poisoned {
            panic!("simulation engine poisoned (earlier deadlock)");
        }
        if waker.begin_wait() {
            return; // already signaled
        }
        st.blocked += 1;
        loop {
            if waker.try_consume() {
                return; // `blocked` was decremented by the firing site
            }
            if st.poisoned {
                panic!(
                    "simulation engine poisoned (earlier deadlock); `{who}` waited on `{}`",
                    waker.name()
                );
            }
            if st.blocked == st.registered {
                // The runner handles events back to back and broadcasts
                // only after one that released somebody else: its own waker
                // does not count, it sees that at the top of the loop.
                let blocked_before = st.blocked;
                if !process_next_event(&mut st, &sh.topo) {
                    st.poisoned = true;
                    sh.wake_parked();
                    panic!(
                        "simulated deadlock at {}: {} blocked thread(s), empty event queue; \
                         thread `{who}` waiting on `{}`",
                        st.now,
                        st.blocked,
                        waker.name()
                    );
                }
                if blocked_before - st.blocked > usize::from(waker.is_signaled()) {
                    sh.wake_parked();
                }
                continue;
            }
            sh.cv.wait(&mut st);
        }
    }
}

/// A registered simulated thread. Dropping deregisters it.
pub struct SimThread {
    engine: Engine,
    name: String,
    /// Waker names of `sleep` and `transfer`, rendered once per thread.
    sleep_name: Label,
    transfer_name: Label,
}

impl SimThread {
    /// The engine this thread participates in.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Thread name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Blocks until `waker` fires.
    pub fn wait(&self, waker: &Waker) {
        self.engine.block_on(waker, &self.name);
    }

    /// Blocks until `waker` fires or virtual time reaches `deadline`.
    /// Returns `true` if the waker fired, `false` on timeout.
    ///
    /// The timeout is an ordinary engine event, so a wait with a deadline
    /// can never trip the deadlock detector: there is always at least one
    /// event queued while the thread blocks. A waker that has already fired
    /// is consumed without scheduling one, whatever the deadline.
    pub fn wait_until(&self, waker: &Waker, deadline: SimTime) -> bool {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Already fired: no timeout to race, so none to allocate and queue.
        if waker.is_signaled() {
            self.wait(waker);
            return true;
        }
        let cancelled = Arc::new(AtomicBool::new(false));
        let timed_out = Arc::new(AtomicBool::new(false));
        let w = waker.clone();
        let c = cancelled.clone();
        let t = timed_out.clone();
        self.engine.schedule_at(
            deadline,
            OnComplete::Call(Box::new(move |ctx| {
                // The waiter may have been woken (and the wait cancelled)
                // before this event fires; in that case it is a dud.
                if !c.load(Ordering::Acquire) {
                    t.store(true, Ordering::Release);
                    ctx.signal(&w);
                }
            })),
        );
        self.wait(waker);
        if timed_out.load(Ordering::Acquire) {
            false
        } else {
            // Won the race: defuse the still-queued timeout event so it
            // cannot misfire the (reusable) waker later.
            cancelled.store(true, Ordering::Release);
            true
        }
    }

    /// Sleeps for `d` seconds of virtual time.
    pub fn sleep(&self, d: Secs) {
        let w = Waker::new(self.sleep_name.clone());
        self.engine.schedule_in(d, OnComplete::Signal(w.clone()));
        self.wait(&w);
    }

    /// Starts a flow and blocks until it completes.
    pub fn transfer(&self, spec: FlowSpec) {
        let w = Waker::new(self.transfer_name.clone());
        self.engine.start_flow(spec, OnComplete::Signal(w.clone()));
        self.wait(&w);
    }
}

impl Drop for SimThread {
    fn drop(&mut self) {
        let mut st = self.engine.shared.state.lock();
        st.registered -= 1;
        // Quorum may now be complete for the remaining threads.
        self.engine.shared.wake_parked();
    }
}

// ---------------------------------------------------------------------
// Lock-held internals. Every function below expects the engine mutex.
// ---------------------------------------------------------------------

/// Collapses a flow label to its Perfetto lane: the chunk field is
/// dropped (`xfer0.p1.c3.leg2` → `xfer0.p1.leg2`) so a chunked path
/// renders one row per leg, mirroring `stats::trace_to_chrome_json`.
fn lane_of(label: &str) -> String {
    // Chunk-free labels (plain flows, probes) are their own lane.
    if !label.contains('.') {
        return label.to_string();
    }
    let mut parts: Vec<&str> = label.split('.').collect();
    parts.retain(|p| {
        !(p.starts_with('c') && p.len() > 1 && p[1..].bytes().all(|b| b.is_ascii_digit()))
    });
    parts.join(".")
}

fn push_event(st: &mut State, at: SimTime, ev: Event) {
    let seq = st.seq;
    st.seq += 1;
    st.queue.push(Reverse(QueuedEvent { at, seq, ev }));
}

/// `(at, seq, is a completion)` of the earliest queued event.
fn next_event_key(st: &State) -> Option<(SimTime, u64, bool)> {
    let timer = st.queue.peek().map(|Reverse(qe)| (qe.at, qe.seq, false));
    let done = st.completions.peek().map(|c| (c.key.0, c.key.1, true));
    match (timer, done) {
        (Some(t), Some(d)) => Some(t.min(d)),
        (t, d) => t.or(d),
    }
}

fn fire_waker(st: &mut State, w: &Waker) {
    if w.fire() {
        debug_assert!(st.blocked > 0);
        st.blocked -= 1;
    }
}

fn set_link_down_locked(st: &mut State, link: LinkId) {
    let l = link.index();
    assert!(l < st.capacities.len(), "unknown link {link}");
    if st.down[l] {
        return;
    }
    st.saved_capacity[l] = st.capacities[l];
    st.capacities[l] = 0.0;
    st.down[l] = true;
    st.any_down = true;
    recompute_link(st, l);
}

fn restore_link_locked(st: &mut State, link: LinkId) {
    let l = link.index();
    assert!(l < st.capacities.len(), "unknown link {link}");
    if !st.down[l] {
        return;
    }
    st.capacities[l] = st.saved_capacity[l];
    st.down[l] = false;
    st.any_down = st.down.iter().any(|&d| d);
    // Stalled flows are still registered on the link; the recomputation
    // rediscovers them and hands them a fresh fair share.
    recompute_link(st, l);
}

fn scale_link_capacity_locked(st: &mut State, link: LinkId, factor: f64) {
    assert!(
        factor > 0.0 && factor.is_finite(),
        "invalid degradation factor {factor}"
    );
    let l = link.index();
    assert!(l < st.capacities.len(), "unknown link {link}");
    if st.down[l] {
        st.saved_capacity[l] *= factor;
        return;
    }
    st.capacities[l] *= factor;
    recompute_link(st, l);
}

fn set_latency_scale_locked(st: &mut State, link: LinkId, scale: f64) {
    assert!(
        scale > 0.0 && scale.is_finite(),
        "invalid latency scale {scale}"
    );
    let l = link.index();
    assert!(l < st.latency_scale.len(), "unknown link {link}");
    st.latency_scale[l] = scale;
}

fn run_on_complete(st: &mut State, topo: &Topology, done: OnComplete) {
    match done {
        OnComplete::Nothing => {}
        OnComplete::Signal(w) => fire_waker(st, &w),
        OnComplete::Call(f) => f(&mut Ctx { st, topo }),
        OnComplete::Sink(sink) => sink.flow_done(&mut Ctx { st, topo }),
    }
}

fn start_flow_locked(st: &mut State, topo: &Topology, spec: FlowSpec, done: OnComplete) -> FlowId {
    let label = &spec.label;
    assert!(!spec.route.is_empty(), "flow {label:?} has an empty route");
    let mut latency = spec.extra_latency;
    for &lid in spec.route.iter() {
        latency += topo
            .link(lid)
            .unwrap_or_else(|e| panic!("flow {label:?}: {e}"))
            .latency
            * st.latency_scale[lid.index()];
    }
    latency *= spec.latency_factor;
    if let Some((model, rng)) = st.jitter.as_mut() {
        let factor = 1.0 + rng.gen_range(-model.spread..=model.spread);
        latency *= factor;
    }
    let id = FlowId(st.next_flow);
    st.next_flow += 1;
    st.flows_issued += 1;
    let demand = FlowDemand::new(spec.route.folded(), spec.weight);
    for &(l, _) in demand.links.iter() {
        st.link_stats[l].flows += 1;
    }
    let now = st.now;
    let slot = st.flows.insert(FlowState {
        id,
        route: spec.route,
        demand,
        comp_mark: 0,
        done,
        bytes: spec.bytes,
        issued: now,
        activated: SimTime::NEVER,
        label: spec.label,
    });
    let hot = Hot {
        remaining: spec.bytes as f64,
        rate: 0.0,
        last_update: now,
        key: (SimTime::NEVER, 0),
        stalled: false,
    };
    st.hot.resize(st.flows.slots.len(), hot);
    st.hot[slot as usize] = hot;
    let at = now.after(latency);
    push_event(st, at, Event::FlowActivate(slot));
    id
}

/// Recomputes fair-share rates for the connected component of active
/// flows reachable — via shared links — from the `seeds` link indices.
///
/// Flows on links disjoint from the component are untouched: their rates
/// and queued completion events stay valid, and their byte accounting
/// keeps accruing linearly at the unchanged rate. Within the component,
/// progress is drained to `st.now` first, then rates are recomputed with
/// the persistent [`FairShareScratch`] (no allocation in steady state).
/// Only flows whose rate *actually changed* have their completion
/// re-keyed; a flow whose fair share came out identical keeps its key, so
/// steady traffic does not churn the queue. Every live member leaves
/// queued, whatever [`recompute_single_link`] had left out before.
fn recompute_component(st: &mut State, seeds: impl IntoIterator<Item = usize>) {
    st.comp_epoch += 1;
    let epoch = st.comp_epoch;
    st.comp_links.clear();
    st.comp_flows.clear();
    for l in seeds {
        if st.link_mark[l] != epoch {
            st.link_mark[l] = epoch;
            st.comp_links.push(l);
        }
    }
    // Breadth-first walk of the flow–link bipartite graph; `comp_links`
    // doubles as the worklist.
    let mut cursor = 0;
    while cursor < st.comp_links.len() {
        let l = st.comp_links[cursor];
        cursor += 1;
        for i in 0..st.link_flows[l].len() {
            let slot = st.link_flows[l][i].slot;
            let fs = &mut st.flows[slot];
            if fs.comp_mark == epoch {
                continue;
            }
            fs.comp_mark = epoch;
            st.comp_flows.push((fs.id, slot));
            for &(l2, _) in fs.demand.links.iter() {
                if st.link_mark[l2] != epoch {
                    st.link_mark[l2] = epoch;
                    st.comp_links.push(l2);
                }
            }
        }
    }
    if st.comp_flows.is_empty() {
        return;
    }
    // Canonical flow order (by id, never by slot), so float accumulation
    // is reproducible no matter how the component was discovered or
    // which slots its flows happened to land in.
    st.comp_flows.sort_unstable();

    let now = st.now;
    // 1. Drain elapsed progress for component members, and partition out
    // stalled flows. A flow crossing any down link is parked at rate zero
    // (its queued completion is withdrawn) and excluded from the
    // allocator, which must only ever see live links with positive
    // capacity.
    st.comp_live.clear();
    for i in 0..st.comp_flows.len() {
        let slot = st.comp_flows[i].1;
        let (h, links) = (&mut st.hot[slot as usize], &st.flows[slot].demand.links);
        let drained = h.drain(now);
        if drained > 0.0 {
            for &(l, m) in links.iter() {
                st.link_stats[l].bytes += drained * m;
            }
        }
        if st.any_down && links.iter().any(|&(l, _)| st.down[l]) {
            if !h.stalled {
                h.stalled = true;
                st.flows_stalled += 1;
            }
            if h.rate != 0.0 {
                h.rate = 0.0;
                st.completions.remove(slot);
            }
        } else {
            h.stalled = false;
            st.comp_live.push(slot);
        }
    }
    // 2. Fair-share rates for the live members, straight out of the
    // persistent scratch — no capacity clone, no demand clones.
    let (flows, comp_live) = (&st.flows, &st.comp_live);
    st.fair.compute_with(
        &st.capacities,
        comp_live.len(),
        |i| &flows[comp_live[i]].demand,
        &mut st.rates_scratch,
    );
    // 3. Apply; re-key only where the rate moved.
    for i in 0..st.comp_live.len() {
        let slot = st.comp_live[i];
        let h = &mut st.hot[slot as usize];
        if h.set_rate(st.rates_scratch[i], now, &mut st.seq) || !st.completions.is_queued(slot) {
            st.completions.set(slot, h.key);
        }
    }
}

/// Re-shares after a change confined to link `l`: a flow joined or left
/// it, or its capacity moved.
fn recompute_link(st: &mut State, l: usize) {
    #[cfg(test)]
    if st.force_general {
        return recompute_component(st, [l]);
    }
    if st.any_down || !recompute_single_link(st, l) {
        recompute_component(st, [l]);
    }
}

/// [`recompute_component`] for the component that is just link `l`'s own
/// list — no member crosses another link, no link is down. Max-min is then
/// `capacity / Σ weight·mult`, and this performs the general path's float
/// operations and `seq` draws for this shape, in its order, without the
/// walk, the sort or the allocator. Only the member with the earliest key
/// can be the next event, so only it is left queued. Returns `false`,
/// having changed nothing, if a member crosses another link.
fn recompute_single_link(st: &mut State, l: usize) -> bool {
    let mut load = 0.0;
    for m in &st.link_flows[l] {
        if m.multi {
            return false;
        }
        assert!(
            m.weight > 0.0 && m.weight.is_finite(),
            "invalid weight on {:?}",
            m.id
        );
        load += m.weight * m.mult;
    }
    if st.link_flows[l].is_empty() {
        return true;
    }
    let c = st.capacities[l];
    assert!(c > 0.0 && c.is_finite(), "link {l} capacity {c} invalid");
    let share = c / load;
    let now = st.now;
    let mut bytes = st.link_stats[l].bytes;
    let mut first = ((SimTime::NEVER, u64::MAX), 0);
    for m in &st.link_flows[l] {
        let h = &mut st.hot[m.slot as usize];
        let drained = h.drain(now);
        if drained > 0.0 {
            bytes += drained * m.mult;
        }
        h.stalled = false;
        h.set_rate(share * m.weight, now, &mut st.seq);
        first = first.min((h.key, m.slot));
        st.completions.remove(m.slot);
    }
    st.link_stats[l].bytes = bytes;
    st.completions.set(first.1, first.0);
    true
}

fn complete_flow(st: &mut State, topo: &Topology, slot: u32) {
    let mut fs = st.flows.remove(slot);
    let (id, remaining) = (fs.id, st.hot[slot as usize].remaining);
    // Leave the fabric. Zero-byte flows complete without ever having
    // registered on their links.
    for &(l, _) in fs.demand.links.iter() {
        if let Ok(i) = st.link_flows[l].binary_search_by_key(&id, |m| m.id) {
            st.link_flows[l].remove(i);
        }
    }
    // Account the final drain exactly: whatever was left is delivered now.
    for &(l, m) in fs.demand.links.iter() {
        st.link_stats[l].bytes += remaining * m;
    }
    st.flows_completed += 1;
    if let Some(rec) = st.recorder.as_ref() {
        let mut label = fs.label.as_ref().map(Label::to_string).unwrap_or_default();
        if label.is_empty() {
            label = format!("flow{}", id.0);
        }
        // Probe flows carry a `probe` label prefix; everything else on
        // the fabric is a chunk leg (or direct-path flow) of a transfer.
        let phase = if label.starts_with("probe") {
            Phase::Probe
        } else {
            Phase::ChunkLeg
        };
        let start = if fs.activated == SimTime::NEVER {
            fs.issued
        } else {
            fs.activated
        };
        let (start, end) = (start.as_secs(), st.now.as_secs());
        let detail = format!("{} bytes", fs.bytes);
        rec.span(phase, lane_of(&label), label.clone(), start, end, &detail);
        for &(l, _) in fs.demand.links.iter() {
            rec.span(
                phase,
                st.link_tracks[l].clone(),
                label.clone(),
                start,
                end,
                &detail,
            );
        }
    }
    if let Some(trace) = st.trace.as_mut() {
        trace.push(TraceRecord {
            flow: id,
            label: fs.label.as_ref().map(Label::to_string).unwrap_or_default(),
            route: fs.route.into(),
            bytes: fs.bytes,
            issued: fs.issued,
            activated: fs.activated,
            completed: st.now,
        });
    }
    let done = std::mem::replace(&mut fs.done, OnComplete::Nothing);
    run_on_complete(st, topo, done);
    // The departed flow's links may now span several components; seed
    // with all of them so each gets re-shared.
    match fs.demand.links[..] {
        [(l, _)] => recompute_link(st, l),
        ref links => recompute_component(st, links.iter().map(|&(l, _)| l)),
    }
}

/// Handles the earliest event of the two queues. Returns `false` when
/// both are empty.
fn process_next_event(st: &mut State, topo: &Topology) -> bool {
    let Some((at, _, is_completion)) = next_event_key(st) else {
        return false;
    };
    debug_assert!(at >= st.now, "event in the past: {} < {}", at, st.now);
    st.now = at.max(st.now);
    st.events_processed += 1;
    if is_completion {
        let slot = st.completions.peek().expect("peeked above").slot;
        st.completions.remove(slot);
        complete_flow(st, topo, slot);
        return true;
    }
    let Reverse(qe) = st.queue.pop().expect("peeked above");
    match qe.ev {
        Event::Timer(done) => run_on_complete(st, topo, done),
        Event::FlowActivate(slot) => {
            st.flows[slot].activated = st.now;
            st.hot[slot as usize].last_update = st.now;
            if st.hot[slot as usize].remaining <= 0.0 {
                complete_flow(st, topo, slot);
            } else {
                // Join the fabric. One seed link suffices: component
                // discovery reaches the rest of the route through the
                // flow itself.
                let fs = &st.flows[slot];
                let (id, weight) = (fs.id, fs.demand.weight);
                let (seed, multi) = (fs.demand.links[0].0, fs.demand.links.len() > 1);
                for &(l, mult) in fs.demand.links.iter() {
                    let list = &mut st.link_flows[l];
                    let at = list.partition_point(|m| m.id < id);
                    list.insert(
                        at,
                        Member {
                            id,
                            slot,
                            multi,
                            weight,
                            mult,
                        },
                    );
                }
                recompute_link(st, seed);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::presets;
    use mpx_topo::units::gb_per_s;

    fn engine() -> Engine {
        Engine::new(Arc::new(presets::synthetic_default()))
    }

    fn direct_route(eng: &Engine) -> Vec<LinkId> {
        let t = eng.topology();
        let gpus = t.gpus();
        vec![t.link_between(gpus[0], gpus[1]).unwrap().id]
    }

    #[test]
    fn single_flow_runs_at_link_rate() {
        let eng = engine();
        let route = direct_route(&eng);
        // 50 GB over a 50 GB/s link with 2 µs latency.
        eng.start_flow(FlowSpec::new(route, 50_000_000_000), OnComplete::Nothing);
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - 1.000002).abs() < 1e-8, "t = {t}");
    }

    #[test]
    fn two_flows_on_one_link_halve_rate() {
        let eng = engine();
        let route = direct_route(&eng);
        for _ in 0..2 {
            eng.start_flow(
                FlowSpec::new(route.clone(), 25_000_000_000),
                OnComplete::Nothing,
            );
        }
        eng.run_until_idle();
        // 2 × 25 GB on 50 GB/s shared fairly: both finish at ~1 s.
        let t = eng.now().as_secs();
        assert!((t - 1.000002).abs() < 1e-7, "t = {t}");
    }

    #[test]
    fn staggered_flow_speeds_up_after_first_completes() {
        let eng = engine();
        let route = direct_route(&eng);
        // Flow A: 25 GB. Flow B: 50 GB. Shared until A finishes at t≈1s
        // (25 GB at 25 GB/s each), then B runs at full 50 GB/s for its
        // remaining 25 GB → ~1.5 s total.
        eng.start_flow(
            FlowSpec::new(route.clone(), 25_000_000_000),
            OnComplete::Nothing,
        );
        eng.start_flow(FlowSpec::new(route, 50_000_000_000), OnComplete::Nothing);
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - 1.500002).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn zero_byte_flow_completes_after_latency_only() {
        let eng = engine();
        let route = direct_route(&eng);
        let w = Waker::new("done");
        eng.start_flow(FlowSpec::new(route, 0), OnComplete::Signal(w.clone()));
        eng.run_until_idle();
        assert!(w.is_signaled());
        assert!((eng.now().as_secs() - 2e-6).abs() < 1e-9);
    }

    #[test]
    fn extra_latency_delays_activation() {
        let eng = engine();
        let route = direct_route(&eng);
        eng.start_flow(
            FlowSpec::new(route, 0).with_extra_latency(10e-6),
            OnComplete::Nothing,
        );
        eng.run_until_idle();
        assert!((eng.now().as_secs() - 12e-6).abs() < 1e-9);
    }

    #[test]
    fn timer_callback_chains() {
        let eng = engine();
        let w = Waker::new("chain");
        let wc = w.clone();
        eng.schedule_in(
            1e-3,
            OnComplete::Call(Box::new(move |ctx| {
                ctx.schedule_in(1e-3, OnComplete::Signal(wc));
            })),
        );
        eng.run_until_idle();
        assert!(w.is_signaled());
        assert!((eng.now().as_secs() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn flow_completion_callback_can_start_next_flow() {
        // Two sequential 25 GB transfers via callback chaining: 2 s total
        // (plus two latencies).
        let eng = engine();
        let route = direct_route(&eng);
        let r2 = route.clone();
        eng.start_flow(
            FlowSpec::new(route, 25_000_000_000),
            OnComplete::Call(Box::new(move |ctx| {
                ctx.start_flow(FlowSpec::new(r2, 25_000_000_000), OnComplete::Nothing);
            })),
        );
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - (1.0 + 2.0 * 2e-6)).abs() < 1e-7, "t = {t}");
    }

    #[test]
    fn stats_count_bytes_and_flows() {
        let eng = engine();
        let route = direct_route(&eng);
        eng.start_flow(FlowSpec::new(route.clone(), 1_000_000), OnComplete::Nothing);
        eng.run_until_idle();
        let stats = eng.stats();
        assert_eq!(stats.flows_issued, 1);
        assert_eq!(stats.flows_completed, 1);
        let l = route[0].index();
        assert!((stats.links[l].bytes - 1_000_000.0).abs() < 1.0);
        assert_eq!(stats.links[l].flows, 1);
    }

    #[test]
    fn trace_records_flow_lifecycle() {
        let eng = Engine::with_tracing(Arc::new(presets::synthetic_default()), true);
        let route = direct_route(&eng);
        eng.start_flow(
            FlowSpec::new(route, 1_000_000).labeled("probe"),
            OnComplete::Nothing,
        );
        eng.run_until_idle();
        let trace = eng.take_trace();
        assert_eq!(trace.len(), 1);
        let r = &trace[0];
        assert_eq!(r.label, "probe");
        assert_eq!(r.bytes, 1_000_000);
        assert!(r.issued <= r.activated && r.activated <= r.completed);
    }

    #[test]
    fn take_trace_without_tracing_returns_empty() {
        // Regression: draining a never-enabled trace must not panic and
        // must yield an empty Vec, even after flows completed.
        let eng = engine();
        let route = direct_route(&eng);
        eng.start_flow(FlowSpec::new(route, 1 << 20), OnComplete::Nothing);
        eng.run_until_idle();
        assert!(eng.take_trace().is_empty());
    }

    #[test]
    fn recorder_captures_flow_spans_on_lane_and_link_tracks() {
        let eng = engine();
        let rec = mpx_obs::Recorder::new();
        eng.set_recorder(rec.clone());
        assert!(eng.recorder().is_some());
        let route = direct_route(&eng);
        eng.start_flow(
            FlowSpec::new(route.clone(), 1 << 20).labeled("xfer0.p0.c1.leg1"),
            OnComplete::Nothing,
        );
        eng.start_flow(
            FlowSpec::new(route, 1 << 10).labeled("probe0"),
            OnComplete::Nothing,
        );
        eng.run_until_idle();
        let events = rec.drain();
        // Each flow spans its lane track and its one link track.
        assert_eq!(events.len(), 4, "{events:?}");
        let tracks: Vec<&str> = events.iter().map(|e| e.track()).collect();
        assert!(tracks.contains(&"xfer0.p0.leg1"), "{tracks:?}");
        assert!(tracks.iter().any(|t| t.starts_with("link:dev")));
        assert!(events.iter().any(|e| e.phase() == Phase::Probe));
        assert!(events.iter().any(|e| e.phase() == Phase::ChunkLeg));
    }

    #[test]
    fn threaded_sleep_advances_clock() {
        let eng = engine();
        let e2 = eng.clone();
        let h = std::thread::spawn(move || {
            let t = e2.register_thread("sleeper");
            t.sleep(5e-3);
            t.now().as_secs()
        });
        let woke_at = h.join().unwrap();
        assert!((woke_at - 5e-3).abs() < 1e-9);
    }

    #[test]
    fn two_threads_interleave_in_virtual_time() {
        let eng = engine();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Register *all* actors before spawning any of them (see
        // `register_thread` docs — early actors must not form a quorum
        // alone).
        let actors: Vec<_> = [("a", 2e-3), ("b", 1e-3)]
            .into_iter()
            .map(|(name, delay)| (eng.register_thread(name), name, delay))
            .collect();
        let mut handles = Vec::new();
        for (t, name, delay) in actors {
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                t.sleep(delay);
                order.lock().push((name, t.now().as_nanos()));
                // Second phase: a sleeps 1 ms more, b 3 ms more.
                let second = if name == "a" { 1e-3 } else { 3e-3 };
                t.sleep(second);
                order.lock().push((name, t.now().as_nanos()));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock();
        let times: Vec<_> = order.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(
            times, sorted,
            "wakeups must be in virtual-time order: {order:?}"
        );
        assert_eq!(order[0].0, "b"); // b wakes first (1 ms)
        assert_eq!(order.last().unwrap().0, "b"); // b finishes last (4 ms)
    }

    #[test]
    fn threaded_transfer_blocks_until_completion() {
        let eng = engine();
        let route = direct_route(&eng);
        let e2 = eng.clone();
        let h = std::thread::spawn(move || {
            let t = e2.register_thread("mover");
            t.transfer(FlowSpec::new(route, 50_000_000_000));
            t.now().as_secs()
        });
        let t = h.join().unwrap();
        assert!((t - 1.000002).abs() < 1e-8);
    }

    #[test]
    fn concurrent_thread_transfers_share_bandwidth() {
        let eng = engine();
        let topo = eng.topology().clone();
        let gpus = topo.gpus();
        let route = vec![topo.link_between(gpus[0], gpus[1]).unwrap().id];
        let actors: Vec<_> = (0..2)
            .map(|i| eng.register_thread(format!("rank{i}")))
            .collect();
        let mut handles = Vec::new();
        for t in actors {
            let route = route.clone();
            handles.push(std::thread::spawn(move || {
                t.transfer(FlowSpec::new(route, 25_000_000_000));
                t.now().as_secs()
            }));
        }
        for h in handles {
            let t = h.join().unwrap();
            assert!((t - 1.000002).abs() < 1e-6, "t = {t}");
        }
    }

    fn broadcasts(eng: &Engine) -> u64 {
        eng.shared
            .broadcasts
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn queue_pushes_and_the_runners_own_events_wake_nobody() {
        // Thread-free engine: nobody can be parked, nothing may broadcast.
        let eng = engine();
        eng.start_flow(
            FlowSpec::new(direct_route(&eng), 1 << 20),
            OnComplete::Nothing,
        );
        eng.schedule_in(1e-6, OnComplete::Nothing);
        eng.schedule_at(SimTime(5), OnComplete::Nothing);
        eng.signal_waker(&Waker::new("nobody-waits"));
        eng.run_until_idle();
        assert_eq!(broadcasts(&eng), 0);

        // One thread sleeps 10 000 times while three are parked on wakers
        // it fires at the end. The sleeper is the runner for (all but at
        // most the first of) its own timer events, and its own waker
        // firing releases nobody else: at most one hand-over broadcast
        // while the others are still arriving, three for the final
        // signals, four for the dropped `SimThread`s.
        let eng = engine();
        let sleeper = eng.register_thread("sleeper");
        let parked: Vec<_> = (0..3)
            .map(|i| {
                let t = eng.register_thread(format!("parked{i}"));
                let w = Waker::new(format!("parked{i}.release"));
                let w2 = w.clone();
                (w, std::thread::spawn(move || t.wait(&w2)))
            })
            .collect();
        let h = std::thread::spawn(move || {
            for _ in 0..10_000 {
                sleeper.sleep(1e-6);
            }
            sleeper
        });
        let sleeper = h.join().unwrap();
        assert!(broadcasts(&eng) <= 1, "{} broadcasts", broadcasts(&eng));
        for (w, _) in &parked {
            eng.signal_waker(w);
        }
        drop(sleeper);
        for (_, h) in parked {
            h.join().unwrap();
        }
        assert_eq!(eng.now(), SimTime(10_000_000));
        assert!(broadcasts(&eng) <= 8, "{} broadcasts", broadcasts(&eng));
    }

    /// A `waitall` over requests that complete in posting order: waited
    /// newest-first, the thread parks once, on the last waker, and takes
    /// the other fifteen already fired — one timeout event, not sixteen.
    #[test]
    fn waiting_newest_first_parks_once_for_sixteen_wakers() {
        let eng = engine();
        let waiter = eng.register_thread("waiter");
        let bystander = eng.register_thread("bystander");
        let wakers: Vec<Waker> = (0..16).map(|i| Waker::new(format!("req{i}"))).collect();
        for (i, w) in wakers.iter().enumerate() {
            eng.schedule_at(
                SimTime(1_000 * (i as u64 + 1)),
                OnComplete::Signal(w.clone()),
            );
        }
        let counted = eng.clone();
        let h = std::thread::spawn(move || {
            for w in wakers.iter().rev() {
                assert!(waiter.wait_until(w, SimTime::from_secs(1.0)));
            }
            // Counted before `waiter` drops (a drop always broadcasts).
            (broadcasts(&counted), counted.now(), waiter)
        });
        let b = std::thread::spawn(move || bystander.sleep(1e-3));
        let (woken, done_at, waiter) = h.join().unwrap();
        // One to release the waiter if the bystander ran the clock, at most
        // one hand-over while the two were arriving.
        assert!(woken <= 2, "{woken} broadcasts");
        assert_eq!(done_at, SimTime(16_000));
        drop(waiter);
        b.join().unwrap();
        // 16 timers, the bystander's sleep, and the one timeout of the one
        // wait that had to park.
        assert_eq!(eng.stats().events_scheduled, 18);
    }

    #[test]
    fn wait_until_on_a_fired_waker_schedules_nothing() {
        let eng = engine();
        let t = eng.register_thread("t");
        t.sleep(1e-3);
        let w = Waker::new("fired");
        eng.signal_waker(&w);
        let before = eng.stats().events_scheduled;
        // Even with the deadline already in the past.
        assert!(t.wait_until(&w, SimTime(5)));
        assert!(!w.is_signaled(), "the signal is consumed");
        assert_eq!(eng.stats().events_scheduled, before);
        // A pending waker still gets its timeout event, and times out.
        let deadline = t.now().after(1e-6);
        assert!(!t.wait_until(&w, deadline));
        assert_eq!(t.now(), deadline);
        assert_eq!(eng.stats().events_scheduled, before + 1);
    }

    #[test]
    #[should_panic(expected = "simulated deadlock")]
    fn deadlock_is_detected() {
        let eng = engine();
        let t = eng.register_thread("stuck");
        let w = Waker::new("never-fired");
        t.wait(&w);
    }

    #[test]
    #[should_panic(expected = "registered threads")]
    fn run_until_idle_rejects_registered_threads() {
        let eng = engine();
        let _t = eng.register_thread("active");
        eng.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "empty route")]
    fn empty_route_rejected() {
        let eng = engine();
        eng.start_flow(
            FlowSpec::new(Vec::<LinkId>::new(), 100),
            OnComplete::Nothing,
        );
    }

    #[test]
    fn host_staged_flows_contend_on_dram() {
        // Two flows down and up through the host DRAM self-loop; the DRAM
        // link sees both, PCIe links one each.
        let topo = Arc::new(presets::beluga());
        let eng = Engine::new(topo.clone());
        let gpus = topo.gpus();
        let hm = topo.host_memories()[0];
        let down = vec![
            topo.link_between(gpus[0], hm).unwrap().id,
            topo.link_between(hm, hm).unwrap().id,
        ];
        let up = vec![
            topo.link_between(hm, hm).unwrap().id,
            topo.link_between(hm, gpus[1]).unwrap().id,
        ];
        let n = 12_000_000_000usize; // 12 GB ≈ 1 s at PCIe rate
        eng.start_flow(FlowSpec::new(down, n), OnComplete::Nothing);
        eng.start_flow(FlowSpec::new(up, n), OnComplete::Nothing);
        eng.run_until_idle();
        // DRAM (38 GB/s) is not the bottleneck for two 12 GB/s PCIe flows,
        // so both finish in ~1 s.
        let t = eng.now().as_secs();
        assert!((t - 1.0).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn rate_changes_invalidate_stale_completions() {
        // Start a long flow, then add a competitor halfway; the long
        // flow's original completion estimate must be discarded.
        let eng = engine();
        let route = direct_route(&eng);
        eng.start_flow(
            FlowSpec::new(route.clone(), 50_000_000_000),
            OnComplete::Nothing,
        );
        let r2 = route.clone();
        eng.schedule_in(
            0.5,
            OnComplete::Call(Box::new(move |ctx| {
                ctx.start_flow(FlowSpec::new(r2, 10_000_000_000), OnComplete::Nothing);
            })),
        );
        eng.run_until_idle();
        // First 0.5 s: flow A moves 25 GB. Then both share 25/25 GB/s;
        // B (10 GB) finishes at t=0.9, A has 15 GB left, done at 1.2 s.
        let t = eng.now().as_secs();
        assert!((t - 1.200002).abs() < 1e-5, "t = {t}");
    }

    #[test]
    fn events_at_same_time_fire_in_fifo_order() {
        let eng = engine();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            eng.schedule_in(
                1e-3,
                OnComplete::Call(Box::new(move |_| log.lock().push(i))),
            );
        }
        eng.run_until_idle();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn beluga_multi_path_aggregate_rate() {
        // Sanity for the headline speedup shape: four flows on disjoint
        // forward routes (direct, two staged first-legs, PCIe) must not
        // slow each other down.
        let topo = Arc::new(presets::beluga());
        let eng = Engine::new(topo.clone());
        let g = topo.gpus();
        let hm = topo.host_memories()[0];
        let routes = [
            vec![topo.link_between(g[0], g[1]).unwrap().id],
            vec![topo.link_between(g[0], g[2]).unwrap().id],
            vec![topo.link_between(g[0], g[3]).unwrap().id],
            vec![
                topo.link_between(g[0], hm).unwrap().id,
                topo.link_between(hm, hm).unwrap().id,
            ],
        ];
        let sizes = [
            gb_per_s(48.0) as usize,
            gb_per_s(48.0) as usize,
            gb_per_s(48.0) as usize,
            gb_per_s(12.0) as usize,
        ];
        for (r, n) in routes.iter().zip(sizes) {
            eng.start_flow(FlowSpec::new(r.clone(), n), OnComplete::Nothing);
        }
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - 1.0).abs() < 1e-4, "t = {t}");
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use mpx_topo::presets;
    use std::sync::Arc;

    fn jittered_run(seed: u64) -> u64 {
        let topo = Arc::new(presets::synthetic_default());
        let eng = Engine::new(topo.clone());
        eng.set_jitter(JitterModel { seed, spread: 0.3 });
        let gpus = topo.gpus();
        let link = topo.link_between(gpus[0], gpus[1]).unwrap().id;
        for _ in 0..8 {
            eng.start_flow(FlowSpec::new(vec![link], 1 << 20), OnComplete::Nothing);
        }
        eng.run_until_idle();
        eng.now().as_nanos()
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        assert_eq!(jittered_run(7), jittered_run(7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(jittered_run(7), jittered_run(8));
    }

    #[test]
    fn jitter_perturbs_latency_within_spread() {
        let topo = Arc::new(presets::synthetic_default());
        let gpus = topo.gpus();
        let link = topo.link_between(gpus[0], gpus[1]).unwrap().id;
        // Zero-byte flow: completion time == (jittered) latency.
        for seed in 0..20u64 {
            let eng = Engine::new(topo.clone());
            eng.set_jitter(JitterModel { seed, spread: 0.3 });
            eng.start_flow(FlowSpec::new(vec![link], 0), OnComplete::Nothing);
            eng.run_until_idle();
            let t = eng.now().as_secs();
            assert!(
                (1.4e-6..=2.6e-6).contains(&t),
                "seed {seed}: latency {t} outside ±30% of 2us"
            );
        }
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn invalid_spread_rejected() {
        let eng = Engine::new(Arc::new(presets::synthetic_default()));
        eng.set_jitter(JitterModel {
            seed: 0,
            spread: 1.5,
        });
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let topo = Arc::new(presets::synthetic_default());
        let eng = Engine::new(topo.clone());
        let gpus = topo.gpus();
        let link = topo.link_between(gpus[0], gpus[1]).unwrap().id;
        // 50 GB at 50 GB/s: completes at ~1 s.
        eng.start_flow(
            FlowSpec::new(vec![link], 50_000_000_000),
            OnComplete::Nothing,
        );
        let processed = eng.run_until(SimTime::from_secs(0.5));
        assert_eq!(eng.now(), SimTime::from_secs(0.5));
        assert!(processed >= 1, "activation fired");
        assert_eq!(eng.active_flows(), 1, "flow still in flight");
        eng.run_until_idle();
        assert!((eng.now().as_secs() - 1.000002).abs() < 1e-8);
    }

    #[test]
    fn run_until_is_composable_with_new_work() {
        let topo = Arc::new(presets::synthetic_default());
        let eng = Engine::new(topo.clone());
        eng.run_until(SimTime::from_secs(1.0));
        assert_eq!(eng.now(), SimTime::from_secs(1.0));
        // New work scheduled after a drained deadline still runs.
        eng.schedule_in(1e-3, OnComplete::Nothing);
        eng.run_until_idle();
        assert!((eng.now().as_secs() - 1.001).abs() < 1e-9);
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;
    use mpx_topo::presets;
    use std::sync::Arc;

    #[test]
    fn weighted_flows_finish_in_weight_order() {
        // Two equal-size flows on one link, weights 3:1 — the heavy one
        // finishes first and the light one then speeds up.
        let topo = Arc::new(presets::synthetic_default());
        let eng = Engine::with_tracing(topo.clone(), true);
        let gpus = topo.gpus();
        let link = topo.link_between(gpus[0], gpus[1]).unwrap().id;
        let n = 12_000_000_000usize; // 12 GB over a 50 GB/s link
        eng.start_flow(
            FlowSpec::new(vec![link], n)
                .with_weight(3.0)
                .labeled("prio"),
            OnComplete::Nothing,
        );
        eng.start_flow(
            FlowSpec::new(vec![link], n).labeled("bulk"),
            OnComplete::Nothing,
        );
        eng.run_until_idle();
        let trace = eng.take_trace();
        let at = |label: &str| {
            trace
                .iter()
                .find(|r| r.label == label)
                .unwrap()
                .completed
                .as_secs()
        };
        // Priority flow: 12 GB at 37.5 GB/s = 0.32 s. Bulk: 12 GB with
        // 0.32·12.5 = 4 GB done, remaining 8 GB at full 50 GB/s → 0.48 s.
        assert!((at("prio") - 0.32).abs() < 1e-3, "prio at {}", at("prio"));
        assert!((at("bulk") - 0.48).abs() < 1e-3, "bulk at {}", at("bulk"));
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_rejected() {
        let topo = Arc::new(presets::synthetic_default());
        let gpus = topo.gpus();
        let link = topo.link_between(gpus[0], gpus[1]).unwrap().id;
        let eng = Engine::new(topo);
        eng.start_flow(
            FlowSpec::new(vec![link], 1).with_weight(-1.0),
            OnComplete::Nothing,
        );
    }
}

#[cfg(test)]
mod queue_tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultKind, FaultPlan};
    use mpx_topo::presets;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    impl CompletionQueue {
        /// Heap order holds and `pos` and `heap` point at each other.
        fn assert_consistent(&self) {
            for (i, e) in self.heap.iter().enumerate() {
                assert_eq!(self.pos[e.slot as usize], i as u32, "slot {}", e.slot);
                assert!(i == 0 || self.heap[(i - 1) / 2].key <= e.key);
            }
            let queued = self.pos.iter().filter(|&&p| p != NOT_QUEUED).count();
            assert_eq!(queued, self.heap.len());
        }
    }

    /// The engine's cross-references agree. The hot table covers every
    /// slab slot, and every queued entry carries its flow's key from it.
    /// Each link's list is sorted by id and describes the flows in the slab.
    /// A flow is stalled, by its hot record, only at rate zero on a down
    /// link. A joined, non-stalled flow is queued — or its one link carries
    /// only single-link flows and an earlier-keyed one of them is; nothing
    /// else is queued. Returns how many draining flows were left out of the
    /// queue.
    fn assert_consistent(st: &State) -> usize {
        st.completions.assert_consistent();
        assert_eq!(st.hot.len(), st.flows.slots.len());
        for e in &st.completions.heap {
            assert_eq!(e.key, st.hot[e.slot as usize].key, "slot {}", e.slot);
        }
        let mut listed = vec![0; st.flows.slots.len()];
        for (l, list) in st.link_flows.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0].id < w[1].id), "link {l}");
            for m in list {
                let fs = &st.flows[m.slot];
                assert_eq!(fs.id, m.id);
                assert!(fs.demand.links.contains(&(l, m.mult)), "link {l}");
                assert_eq!(m.weight, fs.demand.weight);
                assert_eq!(m.multi, fs.demand.links.len() > 1);
                listed[m.slot as usize] += 1;
            }
        }
        let mut unqueued = 0;
        for (slot, fs) in st.flows.slots.iter().enumerate() {
            let queued = st.completions.is_queued(slot as u32);
            let Some(fs) = fs else {
                assert!(!queued && listed[slot] == 0, "free slot {slot}");
                continue;
            };
            let (joined, h) = (listed[slot] > 0, &st.hot[slot]);
            assert!(!joined || listed[slot] == fs.demand.links.len());
            let on_down_link = fs.demand.links.iter().any(|&(l, _)| st.down[l]);
            assert!(!h.stalled || (h.rate == 0.0 && on_down_link), "slot {slot}");
            if !joined || h.stalled {
                assert!(!queued, "slot {slot}");
            } else if !queued {
                let [(l, _)] = fs.demand.links[..] else {
                    panic!("multi-link flow in slot {slot} is not queued");
                };
                assert!(st.link_flows[l].iter().all(|m| !m.multi), "link {l}");
                let covered = st.link_flows[l].iter().any(|m| {
                    st.completions.is_queued(m.slot) && st.hot[m.slot as usize].key < h.key
                });
                assert!(covered, "slot {slot} could be next and is not queued");
                unqueued += 1;
            }
        }
        unqueued
    }

    const LIVE: u64 = 64;
    const ISSUED: u64 = 100_000;

    /// A short flow on one of four links whose completion issues the
    /// next, until `ISSUED` have been started; checks on every completion
    /// that nothing has grown past the `LIVE` flows ever in flight.
    fn chained(n: u64, links: Arc<Vec<LinkId>>) -> (FlowSpec, OnComplete) {
        let spec = FlowSpec::new(
            vec![links[n as usize % links.len()]],
            4096 + n as usize % 512,
        );
        let done = OnComplete::Call(Box::new(move |ctx| {
            assert!(ctx.st.flows.slots.len() <= LIVE as usize);
            assert!(ctx.st.hot.len() <= LIVE as usize);
            assert!(ctx.st.completions.heap.len() <= LIVE as usize);
            assert!(ctx.st.completions.pos.len() <= LIVE as usize);
            if n + LIVE < ISSUED {
                let (spec, done) = chained(n + LIVE, links);
                ctx.start_flow(spec, done);
            }
        }));
        (spec, done)
    }

    #[test]
    fn slots_and_queue_are_bounded_by_peak_live_flows() {
        let topo = Arc::new(presets::beluga());
        let g = topo.gpus();
        let links = Arc::new(
            (1..4)
                .map(|i| topo.link_between(g[0], g[i]).unwrap().id)
                .chain([topo.link_between(g[1], g[2]).unwrap().id])
                .collect::<Vec<_>>(),
        );
        let eng = Engine::new(topo);
        for n in 0..LIVE {
            let (spec, done) = chained(n, links.clone());
            eng.start_flow(spec, done);
        }
        eng.run_until_idle();
        let st = eng.shared.state.lock();
        assert_eq!(st.flows_completed, ISSUED);
        assert_eq!(st.next_flow, ISSUED);
        assert_eq!(st.flows.len(), 0);
        assert_eq!(st.flows.slots.len(), LIVE as usize);
        assert!(st.completions.heap.is_empty());
        assert_consistent(&st);
    }

    #[test]
    fn queue_invariant_holds_through_a_fault_storm() {
        let topo = Arc::new(presets::cluster(2, 4));
        let g = topo.gpus();
        let hm = topo.host_memories();
        let link = |a, b| topo.link_between(a, b).unwrap().id;
        let eng = Engine::new(topo.clone());
        for k in 0..160usize {
            let node = k % 2;
            let (a, b) = (g[node * 4 + k % 4], g[node * 4 + (k + 1 + k / 8 % 3) % 4]);
            let route = if k % 3 == 0 {
                vec![
                    link(a, hm[node]),
                    link(hm[node], hm[node]),
                    link(hm[node], b),
                ]
            } else {
                vec![link(a, b)]
            };
            let spec = FlowSpec::new(route, (64 << 10) + 4096 * (k % 16))
                .with_extra_latency((k / 40) as f64 * 30e-6);
            eng.start_flow(spec, OnComplete::Nothing);
        }
        // A seeded storm plus one flap pinned under the first wave, so
        // flows stall, lose their queued completion, and get it back.
        let storm = FaultPlan::random_soak(&topo, 3, 150e-6, 24, &[]).with(
            5e-6,
            link(g[0], g[1]),
            FaultKind::Flap { duration: 40e-6 },
        );
        FaultInjector::install(&eng, &storm);
        let mut st = eng.shared.state.lock();
        let (mut peak_stalled, mut peak_unqueued) = (0, 0);
        while process_next_event(&mut st, &topo) {
            peak_unqueued = peak_unqueued.max(assert_consistent(&st));
            let live = st.flows.slots.iter().zip(&st.hot);
            let stalled = live.filter(|(f, h)| f.is_some() && h.stalled).count();
            peak_stalled = peak_stalled.max(stalled);
        }
        assert!(peak_stalled > 0 && st.flows_stalled > 0);
        // Both recomputations ran: single-link components left members
        // out of the queue, and the storm sent them down the general path.
        assert!(peak_unqueued > 0);
        assert!(st.flows_completed > 0);
        // Whatever is left sits on a killed link: stalled, nothing queued.
        let mut live = st.flows.slots.iter().zip(&st.hot);
        assert!(live.all(|(f, h)| f.is_none() || h.stalled));
        assert!(st.completions.heap.is_empty());
    }

    /// One step of a random program on three NVLinks; times in µs.
    #[derive(Debug, Clone)]
    enum Step {
        Flow {
            at: u32,
            route: Vec<usize>,
            kib: usize,
            weight: f64,
        },
        Scale {
            at: u32,
            link: usize,
            factor: f64,
        },
        Down {
            at: u32,
            link: usize,
            lasts: u32,
        },
    }

    /// Eight flows (two of them over several links, some twice) to each
    /// capacity scale and each down/restore pair.
    fn arb_program() -> impl Strategy<Value = Vec<Step>> {
        let step = (
            0u32..10,
            0u32..300,
            0usize..3,
            proptest::collection::vec(0usize..3, 1..3),
            64usize..2048,
            1u32..40,
            0.3f64..1.5,
            1u32..60,
        )
            .prop_map(
                |(kind, at, link, more, kib, weight, factor, lasts)| match kind {
                    0..=7 => Step::Flow {
                        at: at * 2 / 3,
                        route: std::iter::once(link)
                            .chain(more.into_iter().filter(|_| kind >= 6))
                            .collect(),
                        kib,
                        weight: f64::from(weight) * 0.1,
                    },
                    8 => Step::Scale { at, link, factor },
                    _ => Step::Down { at, link, lasts },
                },
            );
        proptest::collection::vec(step, 1..48)
    }

    /// Runs `program`, checking the queue invariant after every event.
    fn run_program(program: &[Step], force_general: bool) -> (Vec<TraceRecord>, StatsSnapshot) {
        let topo = Arc::new(presets::beluga());
        let g = topo.gpus();
        let links: Vec<LinkId> = (0..3)
            .map(|i| topo.link_between(g[i], g[i + 1]).unwrap().id)
            .collect();
        let eng = Engine::with_tracing(topo.clone(), true);
        eng.shared.state.lock().force_general = force_general;
        let at = |us: u32| f64::from(us) * 1e-6;
        for step in program.iter().cloned() {
            match step {
                Step::Flow {
                    at: t,
                    route,
                    kib,
                    weight,
                } => {
                    let route: Vec<_> = route.into_iter().map(|l| links[l]).collect();
                    let spec = FlowSpec::new(route, kib << 10).with_weight(weight);
                    eng.schedule_in(
                        at(t),
                        OnComplete::Call(Box::new(move |ctx| {
                            ctx.start_flow(spec, OnComplete::Nothing);
                        })),
                    );
                }
                Step::Scale {
                    at: t,
                    link,
                    factor,
                } => {
                    let link = links[link];
                    eng.schedule_in(
                        at(t),
                        OnComplete::Call(Box::new(move |ctx| {
                            ctx.scale_link_capacity(link, factor)
                        })),
                    );
                }
                Step::Down { at: t, link, lasts } => {
                    let link = links[link];
                    eng.schedule_in(
                        at(t),
                        OnComplete::Call(Box::new(move |ctx| ctx.set_link_down(link))),
                    );
                    eng.schedule_in(
                        at(t + lasts),
                        OnComplete::Call(Box::new(move |ctx| ctx.restore_link(link))),
                    );
                }
            }
        }
        let mut st = eng.shared.state.lock();
        while process_next_event(&mut st, &topo) {
            let unqueued = assert_consistent(&st);
            assert!(!force_general || unqueued == 0);
        }
        assert_eq!(st.flows.len(), 0, "every link came back");
        drop(st);
        (eng.take_trace(), eng.stats())
    }

    #[derive(Debug, Clone)]
    enum Op {
        Set(u32, u64),
        Remove(u32),
        Pop,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u32..24, 0u64..40).prop_map(|(slot, at)| Op::Set(slot, at)),
                (0u32..24, 0u64..40).prop_map(|(slot, at)| Op::Set(slot, at)),
                (0u32..24).prop_map(Op::Remove),
                Just(Op::Pop),
            ],
            1..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The single-link recomputation is the general one, bit for bit:
        /// same completions in the same order at the same times, same
        /// keys drawn, same bytes on every link.
        #[test]
        fn single_link_path_equals_the_general_path(program in arb_program()) {
            let (trace, stats) = run_program(&program, false);
            let (general_trace, general) = run_program(&program, true);
            prop_assert_eq!(trace, general_trace);
            prop_assert_eq!(stats.events_processed, general.events_processed);
            prop_assert_eq!(stats.events_scheduled, general.events_scheduled);
            prop_assert_eq!(stats.flows_stalled, general.flows_stalled);
            for (a, b) in stats.links.iter().zip(&general.links) {
                prop_assert_eq!(a.bytes.to_bits(), b.bytes.to_bits());
            }
        }

        /// Random re-key / remove / pop against a sorted-map model: the
        /// top is always the model's minimum and the back-pointers never
        /// drift.
        #[test]
        fn completion_queue_matches_a_sorted_model(ops in arb_ops()) {
            let mut q = CompletionQueue::default();
            let mut model: BTreeMap<u32, (SimTime, u64)> = BTreeMap::new();
            for (seq, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Set(slot, at) => {
                        q.set(slot, (SimTime(at), seq as u64));
                        model.insert(slot, (SimTime(at), seq as u64));
                    }
                    Op::Remove(slot) => {
                        q.remove(slot);
                        model.remove(&slot);
                    }
                    Op::Pop => {
                        if let Some(top) = q.peek().copied() {
                            q.remove(top.slot);
                            model.remove(&top.slot);
                        }
                    }
                }
                q.assert_consistent();
                let want = model.iter().map(|(&slot, &key)| (key, slot)).min();
                prop_assert_eq!(q.peek().map(|c| (c.key, c.slot)), want);
                prop_assert_eq!(q.heap.len(), model.len());
            }
        }
    }
}
