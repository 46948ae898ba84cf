//! Compiled transfer graphs: capture a stream/event program once, replay
//! it at near-zero issue cost (CUDA-Graphs style).
//!
//! The interpreted pipeline re-derives its chunk schedule and allocates
//! streams, events, staging rings, labels, and closures on *every*
//! transfer. For a training-loop workload that repeats the same
//! (pair, size) transfer each iteration, that per-PUT orchestration
//! dominates the small-message regime (the source paper's Obs. 4; the
//! follow-up CUDA-Graphs paper eliminates it by capture → instantiate →
//! replay). A [`TransferGraph`] is the instantiated form: the full op
//! DAG — copy legs, staging hops, event records/waits — precompiled with
//! *placeholder* buffer references, plus the streams, events, and staging
//! ring it executes on, all owned by the graph and recycled across
//! replays. [`TransferGraph::launch`] only patches the source/destination
//! buffer pointers and offsets, rearms the events
//! ([`GpuEvent::reset`]), and submits one [`Program`] per stream.
//!
//! Replay also strips the per-op software overheads the interpreted
//! pipeline charges (per-copy launch cost, event-sync ε, rendezvous,
//! sequential path initiation): a replayed graph pays one configurable
//! `first_extra` on each path's first copy — the single graph-launch
//! cost plus whatever the caller still owes (e.g. an IPC handle open for
//! a new destination buffer) — and nothing else. That is the
//! launch-overhead model of the follow-up paper.

use crate::buffer::Buffer;
use crate::event::GpuEvent;
use crate::runtime::GpuRuntime;
use crate::stream::{Program, Stream};
use mpx_sim::{Label, Route, Template, Waker};
use mpx_topo::units::Secs;
use mpx_topo::DeviceId;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique graph ids, used only to keep trace labels and waker
/// names distinguishable across graphs.
static GRAPH_IDS: AtomicU64 = AtomicU64::new(0);

/// A replay's per-path done-waker: graph id, replay count, path index.
static PATH_DONE: Template = Template("g{}.r{}.p{}", &[24, 32, 8]);

/// A buffer placeholder inside a compiled graph: patched to a concrete
/// buffer (plus caller offset) at every [`TransferGraph::launch`].
/// Staging slots resolve to the graph's own persistent ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphBuf {
    /// The transfer's source buffer (offsets are message-relative).
    Src,
    /// The transfer's destination buffer (offsets are message-relative).
    Dst,
    /// Staging buffer `i` of the graph's own (offsets are absolute): the
    /// ring of one staged path, its slots told apart by offset.
    Staging(usize),
}

/// One precompiled copy op: everything the interpreted pipeline computes
/// per chunk, frozen at capture time.
struct CopyNode {
    stream: usize,
    src: GraphBuf,
    src_off: usize,
    dst: GraphBuf,
    dst_off: usize,
    len: usize,
    /// Shared with every materialized replay op and the flow it starts
    /// (refcount bumps per replay instead of heap copies — the point of
    /// compiling).
    route: Route,
    /// Fixed software overhead baked at capture (normally 0 for replay).
    extra: Secs,
    /// First op of its path: additionally charged the per-replay
    /// `first_extra` (graph launch + residual one-time costs).
    first: bool,
    label: Label,
}

enum Node {
    Copy(CopyNode),
    Record { stream: usize, event: usize },
    Wait { stream: usize, event: usize },
}

/// Where one path's program ends, and which message range it owned — the
/// graph-side analogue of the interpreted pipeline's `PathSlot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphPathEnd {
    /// Stream index (into the graph's stream set) whose drain completes
    /// the path.
    pub stream: usize,
    /// Index into the candidate path set the plan was computed from.
    pub path_index: usize,
    /// Start of this path's range within the message.
    pub offset: usize,
    /// Bytes assigned to this path.
    pub bytes: usize,
}

/// Why a [`TransferGraph::launch`] was refused. Callers fall back to the
/// interpreted pipeline (or another pooled instance) — a refusal is
/// never fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphLaunchError {
    /// The graph is still executing a previous replay; a graph instance
    /// cannot overlap itself (its staging ring and events are single-
    /// occupancy).
    Busy,
    /// The offered buffers don't match what the graph was captured for
    /// (device, length, or synthetic/real storage class).
    Mismatch(&'static str),
}

impl fmt::Display for GraphLaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphLaunchError::Busy => write!(f, "graph busy: previous replay still in flight"),
            GraphLaunchError::Mismatch(what) => write!(f, "graph/buffer mismatch: {what}"),
        }
    }
}

impl std::error::Error for GraphLaunchError {}

/// Builds a [`TransferGraph`] by replaying the capture-side API the
/// interpreted pipeline would have issued: declare streams, events, and
/// staging slots, then record copies/records/waits in program order and
/// close each path with [`GraphBuilder::end_path`].
pub struct GraphBuilder {
    rt: GpuRuntime,
    id: u64,
    src_device: DeviceId,
    dst_device: DeviceId,
    n: usize,
    src_synthetic: bool,
    streams: Vec<Stream>,
    events: Vec<GpuEvent>,
    staging: Vec<Buffer>,
    nodes: Vec<Node>,
    ends: Vec<GraphPathEnd>,
}

impl GraphBuilder {
    /// Starts a capture of an `n`-byte `src_device → dst_device`
    /// transfer. `src_synthetic` fixes the storage class the graph is
    /// valid for (staging slots must match the payload's class, exactly
    /// as the interpreted pipeline chooses per transfer).
    pub fn new(
        rt: &GpuRuntime,
        src_device: DeviceId,
        dst_device: DeviceId,
        n: usize,
        src_synthetic: bool,
    ) -> GraphBuilder {
        GraphBuilder {
            rt: rt.clone(),
            id: GRAPH_IDS.fetch_add(1, Ordering::Relaxed),
            src_device,
            dst_device,
            n,
            src_synthetic,
            streams: Vec::new(),
            events: Vec::new(),
            staging: Vec::new(),
            nodes: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// The graph's process-unique id (appears in labels).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Declares a persistent stream on `device`; returns its index.
    pub fn stream(&mut self, device: DeviceId) -> usize {
        self.streams.push(self.rt.stream(device));
        self.streams.len() - 1
    }

    /// Declares a persistent, replay-recycled event; returns its index.
    pub fn event(&mut self) -> usize {
        self.events.push(
            self.rt
                .event(format!("g{}.e{}", self.id, self.events.len())),
        );
        self.events.len() - 1
    }

    /// Allocates a persistent staging buffer of `len` bytes on `device`
    /// (real storage iff the payload is real); returns its
    /// [`GraphBuf::Staging`] index.
    pub fn staging(&mut self, device: DeviceId, len: usize) -> GraphBuf {
        let buf = if self.src_synthetic {
            self.rt.alloc(device, len)
        } else {
            self.rt.alloc_zeroed(device, len)
        };
        self.staging.push(buf);
        GraphBuf::Staging(self.staging.len() - 1)
    }

    /// Records a copy op. `Src`/`Dst` offsets are message-relative (the
    /// launch-time buffer offsets are added on replay); staging offsets
    /// are absolute. `first` marks each path's first copy, which carries
    /// the per-replay `first_extra` on top of the baked `extra`.
    #[allow(clippy::too_many_arguments)]
    pub fn copy(
        &mut self,
        stream: usize,
        src: GraphBuf,
        src_off: usize,
        dst: GraphBuf,
        dst_off: usize,
        len: usize,
        route: impl Into<Route>,
        extra: Secs,
        first: bool,
        label: String,
    ) {
        self.nodes.push(Node::Copy(CopyNode {
            stream,
            src,
            src_off,
            dst,
            dst_off,
            len,
            route: Route::shared(&route.into()),
            extra,
            first,
            label: label.into(),
        }));
    }

    /// Records an event record on `stream`.
    pub fn record(&mut self, stream: usize, event: usize) {
        self.nodes.push(Node::Record { stream, event });
    }

    /// Records an event wait on `stream`.
    pub fn wait(&mut self, stream: usize, event: usize) {
        self.nodes.push(Node::Wait { stream, event });
    }

    /// Closes a path: its program drained once `stream` retires every op
    /// recorded so far; it owned `bytes` bytes of the message starting
    /// at `offset`.
    pub fn end_path(&mut self, stream: usize, path_index: usize, offset: usize, bytes: usize) {
        self.ends.push(GraphPathEnd {
            stream,
            path_index,
            offset,
            bytes,
        });
    }

    /// Freezes the capture into a replayable [`TransferGraph`].
    ///
    /// # Panics
    /// Panics if no path was closed, an op references an undeclared
    /// stream/event/staging slot, or an event is never recorded (its
    /// waiters would hang) or never waited on (every replay would rearm
    /// and record it for nobody) — capture bugs, not runtime conditions.
    pub fn finish(self) -> TransferGraph {
        assert!(!self.ends.is_empty(), "graph captured without any path");
        // Per event: [recorded, waited on]. Per stream: its op count
        // (program + end signal/tail), so a replay allocates each program
        // exactly once.
        let mut uses = vec![[false; 2]; self.events.len()];
        let mut program_len = vec![0usize; self.streams.len()];
        for node in &self.nodes {
            let stream = match node {
                Node::Copy(c) => {
                    if let GraphBuf::Staging(i) = c.src {
                        assert!(i < self.staging.len(), "undeclared staging slot {i}");
                    }
                    if let GraphBuf::Staging(i) = c.dst {
                        assert!(i < self.staging.len(), "undeclared staging slot {i}");
                    }
                    c.stream
                }
                Node::Record { stream, event } | Node::Wait { stream, event } => {
                    assert!(*event < self.events.len(), "undeclared event {event}");
                    uses[*event][usize::from(matches!(node, Node::Wait { .. }))] = true;
                    *stream
                }
            };
            assert!(stream < self.streams.len(), "undeclared stream {stream}");
            program_len[stream] += 1;
        }
        let idle = uses.iter().position(|u| *u != [true; 2]);
        assert_eq!(idle, None, "event never recorded, or never waited on");
        for end in &self.ends {
            assert!(end.stream < self.streams.len(), "undeclared end stream");
            program_len[end.stream] += 2;
        }
        TransferGraph {
            id: self.id,
            src_device: self.src_device,
            dst_device: self.dst_device,
            n: self.n,
            src_synthetic: self.src_synthetic,
            streams: self.streams,
            events: self.events,
            staging: self.staging,
            nodes: self.nodes,
            ends: self.ends,
            program_len,
            in_flight: Arc::new(AtomicBool::new(false)),
            replays: AtomicU64::new(0),
        }
    }
}

/// A precompiled, replayable transfer program: the DAG of stream ops the
/// interpreted pipeline would issue for one `(pair, size)` transfer,
/// plus the streams, events, and staging ring it runs on — captured once
/// and relaunched with only buffer-pointer patching. See the module docs
/// for the replay cost model.
pub struct TransferGraph {
    id: u64,
    src_device: DeviceId,
    dst_device: DeviceId,
    n: usize,
    src_synthetic: bool,
    streams: Vec<Stream>,
    events: Vec<GpuEvent>,
    staging: Vec<Buffer>,
    nodes: Vec<Node>,
    ends: Vec<GraphPathEnd>,
    /// Exact op count of each stream's materialized program (computed at
    /// capture), so replay allocates each program once.
    program_len: Vec<usize>,
    /// A graph instance cannot overlap itself (single-occupancy staging
    /// ring and events); behind `Arc` so the completion tail — which
    /// outlives the launch call — can clear it.
    in_flight: Arc<AtomicBool>,
    replays: AtomicU64,
}

impl TransferGraph {
    /// Process-unique graph id (appears in labels and waker names).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Message size the graph was compiled for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Storage class the graph was compiled for (`true` = synthetic
    /// payload, synthetic staging).
    pub fn src_synthetic(&self) -> bool {
        self.src_synthetic
    }

    /// Times this graph has been launched.
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// True while a replay is executing.
    pub fn is_in_flight(&self) -> bool {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Per-path message ranges (parallel to the wakers `launch` returns).
    pub fn ends(&self) -> &[GraphPathEnd] {
        &self.ends
    }

    /// Events the graph rearms per replay, each recorded and waited on.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Bytes held by the graph's persistent staging rings.
    pub fn staging_bytes(&self) -> usize {
        self.staging.iter().map(|b| b.len()).sum()
    }

    /// Relaunches the captured program against concrete buffers: rearm
    /// every event, patch `Src`/`Dst` placeholders to
    /// `src[src_off..]`/`dst[dst_off..]`, and submit each stream's
    /// program. Returns one fresh done-waker per path
    /// (parallel to [`TransferGraph::ends`]).
    ///
    /// `first_extra` is charged once per path on its first copy — the
    /// caller-computed per-replay launch cost. `notify` wakers fire when
    /// the *whole* message has landed; `on_complete` (if any) runs in the
    /// engine context at the same instant, before the graph is marked
    /// idle again.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        first_extra: Secs,
        notify: &[Waker],
        on_complete: Option<mpx_sim::EventFn>,
    ) -> Result<Vec<Waker>, GraphLaunchError> {
        if self
            .in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(GraphLaunchError::Busy);
        }
        if let Err(e) = self.validate(src, src_off, dst, dst_off) {
            self.in_flight.store(false, Ordering::Release);
            return Err(e);
        }
        let replay = self.replays.fetch_add(1, Ordering::Relaxed);
        for ev in &self.events {
            ev.reset();
        }

        // Whole-message tail, shared by every path's end: the last one
        // signals the notify wakers, runs the completion hook, and only
        // then re-opens the graph for the next replay.
        let remaining = Arc::new(std::sync::atomic::AtomicUsize::new(self.ends.len()));
        let notify: Arc<Vec<Waker>> = Arc::new(notify.to_vec());
        let hook = Arc::new(Mutex::new(on_complete));
        let make_tail = || {
            let remaining = remaining.clone();
            let notify = notify.clone();
            let hook = hook.clone();
            let in_flight = self.in_flight.clone();
            move |ctx: &mut mpx_sim::Ctx<'_>| {
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    for w in notify.iter() {
                        ctx.signal(w);
                    }
                    if let Some(f) = hook.lock().take() {
                        f(ctx);
                    }
                    in_flight.store(false, Ordering::Release);
                }
            }
        };

        // Materialize the program per stream, then append each path's
        // done-signal and tail. Within-stream order is program order;
        // cross-stream order is irrelevant (events serialize it).
        let mut programs: Vec<Program> = (self.program_len.iter())
            .map(|&len| Program::with_capacity(len))
            .collect();
        let resolve = |buf: GraphBuf, off: usize| match buf {
            GraphBuf::Src => (src, src_off + off),
            GraphBuf::Dst => (dst, dst_off + off),
            GraphBuf::Staging(i) => (&self.staging[i], off),
        };
        for node in &self.nodes {
            match node {
                Node::Copy(c) => {
                    let (s, s_off) = resolve(c.src, c.src_off);
                    let (d, d_off) = resolve(c.dst, c.dst_off);
                    let extra = c.extra + if c.first { first_extra } else { 0.0 };
                    let (route, label) = (c.route.clone(), c.label.clone());
                    programs[c.stream].copy(s, s_off, d, d_off, c.len, route, extra, label);
                }
                Node::Record { stream, event } => programs[*stream].record(&self.events[*event]),
                Node::Wait { stream, event } => programs[*stream].wait_event(&self.events[*event]),
            }
        }
        let mut wakers = Vec::with_capacity(self.ends.len());
        for end in &self.ends {
            let done = Waker::new(PATH_DONE.label(&[self.id, replay, end.path_index as u64]));
            programs[end.stream].signal(&done);
            programs[end.stream].callback(Box::new(make_tail()));
            wakers.push(done);
        }
        for (stream, program) in self.streams.iter().zip(programs) {
            stream.submit(program);
        }
        Ok(wakers)
    }

    fn validate(
        &self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
    ) -> Result<(), GraphLaunchError> {
        if src.device() != self.src_device {
            return Err(GraphLaunchError::Mismatch("source device"));
        }
        if dst.device() != self.dst_device {
            return Err(GraphLaunchError::Mismatch("destination device"));
        }
        if src.len() < src_off + self.n {
            return Err(GraphLaunchError::Mismatch("source buffer too small"));
        }
        if dst.len() < dst_off + self.n {
            return Err(GraphLaunchError::Mismatch("destination buffer too small"));
        }
        // A synthetic-staged graph would silently drop real payload
        // bytes (and vice versa waste real staging): the storage class
        // is part of the graph's identity, like in the interpreter.
        if src.is_synthetic() != self.src_synthetic {
            return Err(GraphLaunchError::Mismatch("payload storage class"));
        }
        Ok(())
    }
}

impl fmt::Debug for TransferGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransferGraph")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("pair", &(self.src_device, self.dst_device))
            .field("streams", &self.streams.len())
            .field("events", &self.events.len())
            .field("ops", &self.nodes.len())
            .field("paths", &self.ends.len())
            .field("replays", &self.replays())
            .field("in_flight", &self.is_in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_sim::Engine;
    use mpx_topo::{presets, LinkId};

    fn runtime() -> GpuRuntime {
        GpuRuntime::new(Engine::new(Arc::new(presets::beluga())))
    }

    fn route(rt: &GpuRuntime, a: DeviceId, b: DeviceId) -> Vec<LinkId> {
        rt.direct_route(a, b).unwrap()
    }

    #[test]
    fn a_replay_waker_is_named_as_the_format_it_replaced() {
        for i in 0..300u64 {
            let (g, replay, p) = (i * 55_931 % (1 << 24), i * 14_316_557 % (1 << 32), i % 256);
            assert_eq!(
                PATH_DONE.label(&[g, replay, p]).to_string(),
                format!("g{g}.r{replay}.p{p}")
            );
        }
        let wide = PATH_DONE.label(&[(1 << 24) + 1, (1 << 32) + 2, 256 + 3]);
        assert_eq!(wide.to_string(), "g1.r2.p3", "wider values wrap");
    }

    /// A two-chunk staged program exercising the full capture surface:
    /// ring slot reuse, sync events, and a direct path alongside.
    fn staged_graph(rt: &GpuRuntime, n: usize, synthetic: bool) -> TransferGraph {
        let gpus = rt.engine().topology().gpus();
        let (a, via, b) = (gpus[0], gpus[2], gpus[1]);
        let half = n / 2;
        let mut g = GraphBuilder::new(rt, a, b, n, synthetic);
        // Path 0: direct copy of the first half.
        let s0 = g.stream(a);
        g.copy(
            s0,
            GraphBuf::Src,
            0,
            GraphBuf::Dst,
            0,
            half,
            route(rt, a, b),
            0.0,
            true,
            "t.p0".into(),
        );
        g.end_path(s0, 0, 0, half);
        // Path 1: two chunks staged through `via` on one reused slot.
        let s1 = g.stream(a);
        let s2 = g.stream(via);
        let chunk = n - half;
        let c0 = chunk / 2;
        let c1 = chunk - c0;
        let slot = g.staging(via, c0.max(c1));
        let sync0 = g.event();
        let sync1 = g.event();
        let freed = g.event();
        g.copy(
            s1,
            GraphBuf::Src,
            half,
            slot,
            0,
            c0,
            route(rt, a, via),
            0.0,
            true,
            "t.p1.c0.leg1".into(),
        );
        g.record(s1, sync0);
        g.wait(s2, sync0);
        g.copy(
            s2,
            slot,
            0,
            GraphBuf::Dst,
            half,
            c0,
            route(rt, via, b),
            0.0,
            false,
            "t.p1.c0.leg2".into(),
        );
        g.record(s2, freed);
        g.wait(s1, freed);
        g.copy(
            s1,
            GraphBuf::Src,
            half + c0,
            slot,
            0,
            c1,
            route(rt, a, via),
            0.0,
            false,
            "t.p1.c1.leg1".into(),
        );
        g.record(s1, sync1);
        g.wait(s2, sync1);
        g.copy(
            s2,
            slot,
            0,
            GraphBuf::Dst,
            half + c0,
            c1,
            route(rt, via, b),
            0.0,
            false,
            "t.p1.c1.leg2".into(),
        );
        g.end_path(s2, 1, half, chunk);
        g.finish()
    }

    #[test]
    fn replay_moves_data_repeatedly_with_recycled_events() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let n = 1 << 16;
        let g = staged_graph(&rt, n, false);
        for round in 0..3u64 {
            let data: Vec<u8> = (0..n).map(|i| ((i + round as usize) % 251) as u8).collect();
            let src = rt.alloc_bytes(gpus[0], data.clone());
            let dst = rt.alloc_zeroed(gpus[1], n);
            let wakers = g.launch(&src, 0, &dst, 0, 0.0, &[], None).unwrap();
            assert_eq!(wakers.len(), 2);
            rt.engine().run_until_idle();
            assert!(wakers.iter().all(|w| w.is_signaled()));
            assert!(!g.is_in_flight());
            assert_eq!(dst.to_vec().unwrap(), data, "replay {round} corrupted data");
        }
        assert_eq!(g.replays(), 3);
    }

    #[test]
    fn launch_offsets_patch_into_larger_buffers() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let n = 1 << 14;
        let g = staged_graph(&rt, n, false);
        let pad = 4096;
        let mut bytes = vec![0u8; n + 2 * pad];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let src = rt.alloc_bytes(gpus[0], bytes.clone());
        let dst = rt.alloc_zeroed(gpus[1], n + 2 * pad);
        g.launch(&src, pad, &dst, pad, 0.0, &[], None).unwrap();
        rt.engine().run_until_idle();
        let out = dst.to_vec().unwrap();
        assert_eq!(&out[pad..pad + n], &bytes[pad..pad + n]);
        assert!(out[..pad].iter().all(|&b| b == 0), "wrote before dst_off");
        assert!(out[pad + n..].iter().all(|&b| b == 0), "wrote past range");
    }

    #[test]
    fn overlapping_launch_is_refused_not_corrupted() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let n = 1 << 16;
        let g = staged_graph(&rt, n, true);
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        g.launch(&src, 0, &dst, 0, 0.0, &[], None).unwrap();
        assert!(g.is_in_flight());
        assert_eq!(
            g.launch(&src, 0, &dst, 0, 0.0, &[], None).unwrap_err(),
            GraphLaunchError::Busy
        );
        rt.engine().run_until_idle();
        // Drained: relaunch is accepted again.
        g.launch(&src, 0, &dst, 0, 0.0, &[], None).unwrap();
        rt.engine().run_until_idle();
        assert_eq!(g.replays(), 2);
    }

    #[test]
    fn mismatched_buffers_are_refused_and_graph_stays_usable() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let n = 1 << 16;
        let g = staged_graph(&rt, n, true);
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        // Wrong storage class.
        let real = rt.alloc_zeroed(gpus[0], n);
        assert!(matches!(
            g.launch(&real, 0, &dst, 0, 0.0, &[], None),
            Err(GraphLaunchError::Mismatch(_))
        ));
        // Wrong device.
        let wrong = rt.alloc(gpus[3], n);
        assert!(matches!(
            g.launch(&wrong, 0, &dst, 0, 0.0, &[], None),
            Err(GraphLaunchError::Mismatch(_))
        ));
        // Too small for the offset.
        assert!(matches!(
            g.launch(&src, 1, &dst, 0, 0.0, &[], None),
            Err(GraphLaunchError::Mismatch(_))
        ));
        // A refused launch must not leave the graph marked busy.
        assert!(!g.is_in_flight());
        g.launch(&src, 0, &dst, 0, 0.0, &[], None).unwrap();
        rt.engine().run_until_idle();
        assert_eq!(g.replays(), 1);
    }

    #[test]
    fn notify_and_completion_hook_fire_once_per_launch() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let n = 1 << 16;
        let g = staged_graph(&rt, n, true);
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for i in 0..2 {
            let whole = Waker::new(format!("whole{i}"));
            let fired = fired.clone();
            g.launch(
                &src,
                0,
                &dst,
                0,
                0.0,
                std::slice::from_ref(&whole),
                Some(Box::new(move |_| {
                    fired.fetch_add(1, Ordering::Relaxed);
                })),
            )
            .unwrap();
            rt.engine().run_until_idle();
            assert!(whole.is_signaled());
        }
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn first_extra_is_charged_per_path_not_per_chunk() {
        // Two launches of the same graph with different first_extra: the
        // completion-time delta equals the extra (both paths run
        // concurrently, so one serial extra each shifts the makespan by
        // exactly the extra).
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let n = 1 << 20;
        let g = staged_graph(&rt, n, true);
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        g.launch(&src, 0, &dst, 0, 0.0, &[], None).unwrap();
        rt.engine().run_until_idle();
        let base = rt.engine().now().as_secs();
        let t0 = rt.engine().now();
        let extra = 5e-5;
        g.launch(&src, 0, &dst, 0, extra, &[], None).unwrap();
        rt.engine().run_until_idle();
        let with_extra = rt.engine().now().secs_since(t0);
        assert!(
            (with_extra - base - extra).abs() < 1e-8,
            "expected shift of {extra}, got {}",
            with_extra - base
        );
    }
}
