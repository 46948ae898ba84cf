//! Transfer schedules with placeholder resources, the one launch that
//! materialises them, and the replay instances they launch on
//! (CUDA-Graphs style: capture → instantiate → replay).
//!
//! A [`Schedule`] is a transfer's op DAG — copies, event records and
//! waits, grouped per stream in program order — holding no buffer, stream,
//! event or ring: events are indices, rings a device and a length, routes
//! folded. A copy is a tag that the launch asks to describe it as a
//! [`GraphCopy`]: [`GraphBuf`] placeholders at offsets, a length, a route,
//! a cost and a name. [`Schedule::launch`] is the only code that turns a
//! schedule into work: an engine flag per event and lane per stream
//! ([`mpx_sim::Lanes`]), no [`crate::Stream`] or [`crate::GpuEvent`], each
//! path's last lane ended with its done-waker, one more lane for a tail.
//! The rings are the caller's: made per transfer, or an [`Instance`]'s,
//! recycled across launches.
//!
//! `mpx-ucx` lowers every PUT's plan into a schedule and launches it
//! interpreted or on an instance. [`GraphBuilder`] captures a schedule by
//! hand, and [`TransferGraph`] is one instance of it whose launch charges
//! `first_extra` on each path's first copy and nothing else — the
//! launch-overhead model of the follow-up CUDA-Graphs paper.

use crate::buffer::Buffer;
use crate::runtime::GpuRuntime;
use crate::stream::copy_op;
use mpx_sim::{Ctx, Engine, EventFn, Handle, Label, LaneOp, Route, Template, Waker};
use mpx_topo::units::Secs;
use mpx_topo::DeviceId;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique instance ids, used only to keep trace labels and waker
/// names distinguishable across instances.
static GRAPH_IDS: AtomicU64 = AtomicU64::new(0);

/// An instance launch's per-path done-waker: instance id, launch count,
/// path index.
static PATH_DONE: Template = Template("g{}.r{}.p{}", &[24, 32, 8]);

/// A buffer placeholder inside a schedule, patched to a concrete buffer
/// (plus the caller's offset) at every launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphBuf {
    /// The transfer's source buffer (offsets are message-relative).
    Src,
    /// The transfer's destination buffer (offsets are message-relative).
    Dst,
    /// Staging ring `i` (offsets are absolute): the ring of one staged
    /// path, its slots told apart by offset.
    Staging(usize),
}

/// One op of a stream's program: a copy, which the launch asks its tag to
/// describe, or an event record or wait.
pub enum GraphOp<T> {
    /// A copy.
    Copy(T),
    /// Records event `i`.
    Record(usize),
    /// Waits on event `i`.
    Wait(usize),
}

/// A copy as a launch issues it: `len` bytes from `src` to `dst` (each a
/// placeholder at an offset) over the schedule's route `route`, paying
/// `extra`, named `label`.
#[derive(Clone)]
pub struct GraphCopy {
    /// Source placeholder and offset.
    pub src: (GraphBuf, usize),
    /// Destination placeholder and offset.
    pub dst: (GraphBuf, usize),
    /// Bytes copied.
    pub len: usize,
    /// Route, folded: every launched op and the flow it starts share it by
    /// reference count.
    pub route: Route,
    /// Software cost charged on top of the copy.
    pub extra: Secs,
    /// Trace label.
    pub label: Label,
}

/// One stream's program: its ops (a range of [`Schedule::ops`], in
/// program order) and, for a stream that ends a path, the path's index —
/// its program then ends with the path's done-signal.
pub struct GraphStream {
    /// Its ops.
    pub ops: Range<usize>,
    /// The path it ends, if any.
    pub ends: Option<usize>,
}

/// A transfer's op DAG with every resource a placeholder; see the module
/// docs.
pub struct Schedule<T> {
    /// Bytes of the message.
    pub n: usize,
    /// In submission order.
    pub streams: Vec<GraphStream>,
    /// Every stream's ops, stream after stream.
    pub ops: Vec<GraphOp<T>>,
    /// Each staging ring's device and length.
    pub rings: Vec<(DeviceId, usize)>,
    /// Events recorded and waited on.
    pub events: usize,
}

impl<T> Schedule<T> {
    /// The one launch, on `engine`: every copy as `copy(tag)` describes
    /// it, its `Src` / `Dst` placeholders patched to `src` / `dst` (each at
    /// its offset) and rings to `rings`; each path's last lane ends with its
    /// `done(path)` waker. Lanes start in stream order, each as soon as its
    /// ops are in. A `tail` — wakers and a callback — gets a lane of its
    /// own that waits for every path's end, then signals the wakers and
    /// runs the callback, once the whole message has landed. Returns the
    /// done-wakers in path-end order. `copy` and `done` run under the
    /// engine lock and must not call the engine.
    ///
    /// # Panics
    /// Panics if either buffer is smaller than its offset plus the message.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &self,
        engine: &Engine,
        (src, src_off): (&Buffer, usize),
        (dst, dst_off): (&Buffer, usize),
        rings: &[Buffer],
        copy: impl Fn(&T) -> GraphCopy,
        done: impl Fn(usize) -> Waker,
        tail: Option<(&[Waker], EventFn)>,
    ) -> Vec<Waker> {
        self.check((src, src_off), (dst, dst_off));
        let resolve = |(buf, off): (GraphBuf, usize)| match buf {
            GraphBuf::Src => (src, src_off + off),
            GraphBuf::Dst => (dst, dst_off + off),
            GraphBuf::Staging(i) => (&rings[i], off),
        };
        let paths = self.streams.iter().flat_map(|s| s.ends).count();
        let mut wakers = Vec::with_capacity(paths);
        engine.with_lanes(|lanes| {
            // A flag per event, then one per path end if a tail waits on
            // them; held until every lane is in, so that a record run early
            // cannot recycle a flag a later lane still waits on.
            let ends = if tail.is_some() { paths } else { 0 };
            let flags: Vec<_> = (0..self.events + ends).map(|_| lanes.flag(true)).collect();
            let (events, ends) = flags.split_at(self.events);
            let mut end = ends.iter();
            for s in &self.streams {
                let signals = usize::from(s.ends.is_some()) * (1 + usize::from(tail.is_some()));
                let lane = lanes.lane(false, s.ops.len() + signals);
                for op in &self.ops[s.ops.clone()] {
                    let op = match op {
                        GraphOp::Copy(tag) => {
                            let c = copy(tag);
                            let ((from, from_off), (to, to_off)) = (resolve(c.src), resolve(c.dst));
                            copy_op(from, from_off, to, to_off, c.len, c.route, c.extra, c.label)
                        }
                        GraphOp::Record(e) => LaneOp::Record(events[*e]),
                        GraphOp::Wait(e) => LaneOp::Wait(events[*e]),
                    };
                    lanes.push(lane, op);
                }
                if let Some(path) = s.ends {
                    let waker = done(path);
                    lanes.push(lane, LaneOp::Signal(waker.clone()));
                    if let Some(&flag) = end.next() {
                        lanes.push(lane, LaneOp::Record(flag));
                    }
                    wakers.push(waker);
                }
                lanes.kick(lane);
            }
            if let Some((notify, last)) = tail {
                let lane = lanes.lane(false, ends.len() + notify.len() + 1);
                let waits = ends.iter().map(|&flag| LaneOp::Wait(flag));
                let signals = notify.iter().map(|w| LaneOp::Signal(w.clone()));
                for op in waits.chain(signals).chain([LaneOp::Call(last)]) {
                    lanes.push(lane, op);
                }
                lanes.kick(lane);
            }
            for &flag in &flags {
                lanes.release(Handle::Flag(flag));
            }
        });
        wakers
    }

    /// Panics unless `src` and `dst` each hold the message at its offset.
    fn check(&self, src: (&Buffer, usize), dst: (&Buffer, usize)) {
        for ((buf, off), which) in [(src, "source"), (dst, "destination")] {
            let fits = buf.len() >= off + self.n;
            assert!(fits, "{which} buffer smaller than message");
        }
    }
}

/// A staging ring of `len` bytes on `device`, of the payload's storage
/// class. Real storage comes recycled and unzeroed: leg 2 of a chunk
/// forwards exactly the bytes its leg 1 just wrote.
pub fn staging_ring(rt: &GpuRuntime, device: DeviceId, len: usize, synthetic: bool) -> Buffer {
    if synthetic {
        rt.alloc(device, len)
    } else {
        rt.alloc_staging(device, len)
    }
}

/// The staging rings one launch of a schedule runs on, recycled across
/// launches. An instance cannot overlap itself (its rings are
/// single-occupancy): a launch claims it and the launch's tail releases it.
pub struct Instance {
    id: u64,
    engine: Engine,
    rings: Vec<Buffer>,
    /// Claimed by an `AcqRel` swap, released by the tail's `Release`
    /// store: a launch sees everything the previous one's tail saw.
    busy: Arc<AtomicBool>,
    launches: AtomicU64,
}

impl Instance {
    /// A new, idle instance of `schedule` for payloads of `synthetic`'s
    /// storage class, with a fresh process-unique id.
    pub fn new<T>(rt: &GpuRuntime, schedule: &Schedule<T>, synthetic: bool) -> Instance {
        Instance {
            id: GRAPH_IDS.fetch_add(1, Ordering::Relaxed),
            engine: rt.engine().clone(),
            rings: (schedule.rings.iter())
                .map(|&(device, len)| staging_ring(rt, device, len, synthetic))
                .collect(),
            busy: Arc::new(AtomicBool::new(false)),
            launches: AtomicU64::new(0),
        }
    }

    /// The instance's process-unique id (appears in labels).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Launches `schedule`, the one this instance was made from, on it —
    /// or returns `None`, launching nothing, while a launch still holds it.
    /// Claims it, then [`Schedule::launch`]es over its rings, with
    /// done-wakers named over (id, launch count, path) and a tail that
    /// signals `notify`, runs the closure `last()` made and releases it.
    ///
    /// # Panics
    /// Panics, leaving the instance idle, if either buffer is smaller than
    /// its offset plus the message.
    pub fn try_launch<T, L: FnOnce(&mut Ctx<'_>) + Send + 'static>(
        &self,
        schedule: &Schedule<T>,
        src: (&Buffer, usize),
        dst: (&Buffer, usize),
        copy: impl Fn(&T) -> GraphCopy,
        notify: &[Waker],
        last: impl FnOnce() -> L,
    ) -> Option<Vec<Waker>> {
        schedule.check(src, dst);
        if self.busy.swap(true, Ordering::AcqRel) {
            return None;
        }
        let launch = self.launches.fetch_add(1, Ordering::Relaxed);
        let (busy, last) = (self.busy.clone(), last());
        let tail: EventFn = Box::new(move |ctx| {
            last(ctx);
            busy.store(false, Ordering::Release);
        });
        Some(schedule.launch(
            &self.engine,
            src,
            dst,
            &self.rings,
            copy,
            |path| Waker::new(PATH_DONE.label(&[self.id, launch, path as u64])),
            Some((notify, tail)),
        ))
    }
}

/// Why a [`TransferGraph::launch`] was refused; the graph stays usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphLaunchError {
    /// The graph is still executing a previous replay.
    Busy,
}

/// A hand-captured copy, and whether it is its path's first (and pays the
/// launch's `first_extra` on top of its own).
type Captured = (GraphCopy, bool);

/// Captures a [`Schedule`] by hand: declare streams, events, and staging
/// slots, then record copies/records/waits in program order and close each
/// path with [`GraphBuilder::end_path`].
pub struct GraphBuilder {
    rt: GpuRuntime,
    src_device: DeviceId,
    dst_device: DeviceId,
    src_synthetic: bool,
    n: usize,
    /// Per declared stream: its ops and the path it ends.
    streams: Vec<(Vec<GraphOp<Captured>>, Option<usize>)>,
    rings: Vec<(DeviceId, usize)>,
    events: usize,
}

impl GraphBuilder {
    /// Starts a capture of an `n`-byte `src_device → dst_device`
    /// transfer. `src_synthetic` fixes the storage class the graph is
    /// valid for (its staging rings match the payload's class).
    pub fn new(
        rt: &GpuRuntime,
        src_device: DeviceId,
        dst_device: DeviceId,
        n: usize,
        src_synthetic: bool,
    ) -> GraphBuilder {
        GraphBuilder {
            rt: rt.clone(),
            src_device,
            dst_device,
            src_synthetic,
            n,
            streams: Vec::new(),
            rings: Vec::new(),
            events: 0,
        }
    }

    /// Declares a stream on `_device` (a lane has no device: it names
    /// the capture for its reader); returns its index.
    pub fn stream(&mut self, _device: DeviceId) -> usize {
        self.streams.push((Vec::new(), None));
        self.streams.len() - 1
    }

    /// Declares an event; returns its index.
    pub fn event(&mut self) -> usize {
        self.events += 1;
        self.events - 1
    }

    /// Declares a staging ring of `len` bytes on `device`; returns its
    /// [`GraphBuf::Staging`] placeholder.
    pub fn staging(&mut self, device: DeviceId, len: usize) -> GraphBuf {
        self.rings.push((device, len));
        GraphBuf::Staging(self.rings.len() - 1)
    }

    /// Records a copy op on `stream`. `Src`/`Dst` offsets are
    /// message-relative (the launch-time buffer offsets are added on
    /// replay); staging offsets are absolute. `first` marks each path's
    /// first copy, which carries the per-replay `first_extra` on top of
    /// the fixed `extra`.
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
        label: Label,
    ) {
        let (src, dst, route) = ((src, src_off), (dst, dst_off), Route::shared(&route.into()));
        let copy = GraphCopy {
            src,
            dst,
            len,
            route,
            extra,
            label,
        };
        self.op(stream, GraphOp::Copy((copy, first)));
    }

    /// Records an event record on `stream`.
    pub fn record(&mut self, stream: usize, event: usize) {
        self.op(stream, GraphOp::Record(event));
    }

    /// Records an event wait on `stream`.
    pub fn wait(&mut self, stream: usize, event: usize) {
        self.op(stream, GraphOp::Wait(event));
    }

    fn op(&mut self, stream: usize, op: GraphOp<Captured>) {
        let s = self.streams.get_mut(stream);
        s.expect("undeclared stream").0.push(op);
    }

    /// Closes path `path_index`: its program drained once `stream` retires
    /// every op recorded on it; the path owned `_bytes` bytes of the
    /// message from `_offset` (the caller's to track).
    pub fn end_path(&mut self, stream: usize, path_index: usize, _offset: usize, _bytes: usize) {
        let s = self.streams.get_mut(stream);
        let ends = &mut s.expect("undeclared end stream").1;
        assert!(ends.replace(path_index).is_none(), "a stream ends one path");
    }

    /// Instantiates the capture into a replayable [`TransferGraph`].
    ///
    /// # Panics
    /// Panics if no path was closed, an op references an undeclared
    /// event/staging slot, or an event is never recorded (its waiters
    /// would hang) or never waited on (every replay would rearm and record
    /// it for nobody) — capture bugs, not runtime conditions.
    pub fn finish(self) -> TransferGraph {
        assert!(
            self.streams.iter().any(|s| s.1.is_some()),
            "graph captured without any path"
        );
        let mut schedule = Schedule {
            n: self.n,
            streams: Vec::with_capacity(self.streams.len()),
            ops: Vec::new(),
            rings: self.rings,
            events: self.events,
        };
        for (ops, ends) in self.streams {
            let start = schedule.ops.len();
            schedule.ops.extend(ops);
            let ops = start..schedule.ops.len();
            schedule.streams.push(GraphStream { ops, ends });
        }
        let s = &schedule;
        // Per event: [recorded, waited on].
        let mut uses = vec![[false; 2]; s.events];
        for op in &s.ops {
            match op {
                GraphOp::Copy((c, _)) => {
                    for buf in [c.src.0, c.dst.0] {
                        if let GraphBuf::Staging(i) = buf {
                            assert!(i < s.rings.len(), "undeclared staging slot {i}");
                        }
                    }
                }
                GraphOp::Record(e) | GraphOp::Wait(e) => {
                    uses[*e][usize::from(matches!(op, GraphOp::Wait(_)))] = true;
                }
            }
        }
        let idle = uses.iter().position(|u| *u != [true; 2]);
        assert_eq!(idle, None, "event never recorded, or never waited on");
        let instance = Instance::new(&self.rt, s, self.src_synthetic);
        TransferGraph {
            src_device: self.src_device,
            dst_device: self.dst_device,
            src_synthetic: self.src_synthetic,
            schedule,
            instance,
        }
    }
}

/// A hand-captured schedule and the one instance it replays on —
/// relaunched with only buffer-pointer patching. See the module docs for
/// the replay cost model.
pub struct TransferGraph {
    src_device: DeviceId,
    dst_device: DeviceId,
    src_synthetic: bool,
    schedule: Schedule<Captured>,
    instance: Instance,
}

impl TransferGraph {
    /// Times this graph has been launched.
    pub fn replays(&self) -> u64 {
        self.instance.launches.load(Ordering::Relaxed)
    }

    /// Relaunches the captured program against concrete buffers: patch
    /// `Src`/`Dst` placeholders to
    /// `src[src_off..]`/`dst[dst_off..]`, and submit each stream's
    /// program. Returns one fresh done-waker per path, in stream order.
    ///
    /// `first_extra` is charged once per path on its first copy — the
    /// caller-computed per-replay launch cost. `notify` wakers fire when
    /// the *whole* message has landed; `on_complete` (if any) runs in the
    /// engine context at the same instant, before the graph is marked
    /// idle again.
    ///
    /// # Panics
    /// Panics if the buffers are not what the graph was captured for: on
    /// its devices, of its payload storage class (a synthetic ring would
    /// silently drop real bytes), and large enough.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        first_extra: Secs,
        notify: &[Waker],
        on_complete: Option<EventFn>,
    ) -> Result<Vec<Waker>, GraphLaunchError> {
        let pair = (src.device(), dst.device());
        assert_eq!(
            pair,
            (self.src_device, self.dst_device),
            "graph/buffer devices"
        );
        assert_eq!(
            src.is_synthetic(),
            self.src_synthetic,
            "payload storage class"
        );
        let last = || move |ctx: &mut Ctx<'_>| on_complete.into_iter().for_each(|f| f(ctx));
        let copy = |(c, first): &Captured| GraphCopy {
            extra: c.extra + if *first { first_extra } else { 0.0 },
            ..c.clone()
        };
        let (src, dst) = ((src, src_off), (dst, dst_off));
        let launched = self
            .instance
            .try_launch(&self.schedule, src, dst, copy, notify, last);
        launched.ok_or(GraphLaunchError::Busy)
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
        // Path 1: two chunks staged through `via` on one reused slot; the
        // second chunk's first leg waits until the first has left it.
        let (s1, s2) = (g.stream(a), g.stream(via));
        let chunk = n - half;
        let (c0, c1) = (chunk / 2, chunk - chunk / 2);
        let slot = g.staging(via, c0.max(c1));
        let freed = g.event();
        for (c, off, len) in [(0, half, c0), (1, half + c0, c1)] {
            if c == 1 {
                g.wait(s1, freed);
            }
            let (to_via, from_via) = (route(rt, a, via), route(rt, via, b));
            let leg1 = format!("t.p1.c{c}.leg1").into();
            g.copy(
                s1,
                GraphBuf::Src,
                off,
                slot,
                0,
                len,
                to_via,
                0.0,
                c == 0,
                leg1,
            );
            let sync = g.event();
            g.record(s1, sync);
            g.wait(s2, sync);
            let leg2 = format!("t.p1.c{c}.leg2").into();
            g.copy(
                s2,
                slot,
                0,
                GraphBuf::Dst,
                off,
                len,
                from_via,
                0.0,
                false,
                leg2,
            );
            if c == 0 {
                g.record(s2, freed);
            }
        }
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

    /// A launch on buffers the graph was not captured for is a caller bug:
    /// a synthetic ring would silently drop real bytes.
    #[test]
    #[should_panic(expected = "payload storage class")]
    fn a_launch_on_another_storage_class_panics() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let g = staged_graph(&rt, 1 << 16, true);
        let (real, dst) = (
            rt.alloc_zeroed(gpus[0], 1 << 16),
            rt.alloc(gpus[1], 1 << 16),
        );
        let _ = g.launch(&real, 0, &dst, 0, 0.0, &[], None);
    }

    #[test]
    #[should_panic(expected = "graph/buffer devices")]
    fn a_launch_from_another_device_panics() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let g = staged_graph(&rt, 1 << 16, true);
        let (wrong, dst) = (rt.alloc(gpus[3], 1 << 16), rt.alloc(gpus[1], 1 << 16));
        let _ = g.launch(&wrong, 0, &dst, 0, 0.0, &[], None);
    }

    /// An undersized buffer is refused before the graph is claimed: the
    /// next launch on buffers that fit runs.
    #[test]
    fn an_undersized_buffer_panics_and_leaves_the_graph_idle() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let n = 1 << 16;
        let g = staged_graph(&rt, n, true);
        let (src, dst) = (rt.alloc(gpus[0], n), rt.alloc(gpus[1], n));
        let short = rt.alloc(gpus[1], n - 1);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.launch(&src, 0, &short, 0, 0.0, &[], None)
        }));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(message, "destination buffer smaller than message");
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
