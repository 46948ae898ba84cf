//! Streams: ordered asynchronous work queues, CUDA-style.
//!
//! A stream executes its operations strictly in order. Enqueueing never
//! blocks; completion is observed via events, wakers, or
//! [`Stream::synchronize`]. A stream is a front end over an engine lane
//! ([`mpx_sim::Lanes`]): the event loop retires a copy or kernel, applies
//! its effect and starts the next op, and a stream has no lock of its own.
//! Work arrives as a [`Program`] by one [`Stream::submit`], or op by op
//! ([`Stream::copy`], ...): one engine lock cycle each.

use crate::buffer::Buffer;
use crate::event::GpuEvent;
use mpx_sim::{Effect, Engine, FlowSpec, Handle, Label, LaneId, LaneOp, Lanes, Route, Template};
use mpx_sim::{EventFn, Waker};
use mpx_topo::units::Secs;
use mpx_topo::DeviceId;
use std::fmt;
use std::sync::Arc;

/// A runtime-made stream (device index, counter) and its `synchronize` waker.
pub(crate) static STREAM: Template = Template("dev{}.s{}", &[16, 48]);
static STREAM_SYNC: Template = Template("dev{}.s{}.sync", &[16, 48]);

/// A kernel's completion effect (e.g. the reduction arithmetic). Runs when
/// the kernel retires; must not block.
pub type KernelEffect = Effect;

/// A copy of `len` bytes from `src[src_off..]` to `dst[dst_off..]` as a
/// lane op: its flow and, when both sides carry real bytes, the payload
/// move its retirement applies.
///
/// # Panics
/// Panics if either range of a non-empty copy is out of bounds, synthetic
/// sides included, so timing-only runs catch addressing bugs too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn copy_op(
    src: &Buffer,
    src_off: usize,
    dst: &Buffer,
    dst_off: usize,
    len: usize,
    route: impl Into<Route>,
    extra_latency: Secs,
    label: impl Into<Label>,
) -> LaneOp {
    if len > 0 {
        src.check_range("read", src_off, len);
        dst.check_range("write", dst_off, len);
    }
    let spec = FlowSpec::new(route, len)
        .with_extra_latency(extra_latency)
        .labeled(label);
    let moves = len > 0 && !src.is_synthetic() && !dst.is_synthetic();
    let payload = moves.then(|| {
        let (src, dst) = (src.clone(), dst.clone());
        Box::new(move || Buffer::transfer(&src, src_off, &dst, dst_off, len)) as Effect
    });
    LaneOp::Flow(spec, payload)
}

/// An op bound for a stream: a lane op, or an event's record or wait,
/// whose flag is bound when the op is submitted.
enum Op {
    Lane(LaneOp),
    Record(GpuEvent),
    Wait(GpuEvent),
}

impl Op {
    fn into_lane(self, engine: &Engine, lanes: &mut Lanes<'_>) -> LaneOp {
        match self {
            Op::Lane(op) => op,
            Op::Record(ev) => LaneOp::Record(ev.flag(engine, lanes)),
            Op::Wait(ev) => LaneOp::Wait(ev.flag(engine, lanes)),
        }
    }
}

/// An op sequence bound for one stream, built with no lock held and
/// handed over whole by [`Stream::submit`]. Its methods take what the
/// stream's per-op methods of the same names take.
#[derive(Default)]
pub struct Program(Vec<Op>);

impl Program {
    /// An empty program with room for `ops` ops.
    pub fn with_capacity(ops: usize) -> Program {
        Program(Vec::with_capacity(ops))
    }

    /// Appends a copy; see [`Stream::copy`].
    #[allow(clippy::too_many_arguments)]
    pub fn copy(
        &mut self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        len: usize,
        route: impl Into<Route>,
        extra_latency: Secs,
        label: impl Into<Label>,
    ) {
        let op = copy_op(src, src_off, dst, dst_off, len, route, extra_latency, label);
        self.0.push(Op::Lane(op));
    }

    /// Appends an event record; see [`Stream::record`].
    pub fn record(&mut self, ev: &GpuEvent) {
        self.0.push(Op::Record(ev.clone()));
    }

    /// Appends an event wait; see [`Stream::wait_event`].
    pub fn wait_event(&mut self, ev: &GpuEvent) {
        self.0.push(Op::Wait(ev.clone()));
    }

    /// Appends a waker signal; see [`Stream::signal`].
    pub fn signal(&mut self, w: &Waker) {
        self.0.push(Op::Lane(LaneOp::Signal(w.clone())));
    }

    /// Appends a callback; see [`Stream::callback`].
    pub fn callback(&mut self, f: EventFn) {
        self.0.push(Op::Lane(LaneOp::Call(f)));
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("ops", &self.0.len())
            .finish()
    }
}

struct StreamInner {
    name: Label,
    device: DeviceId,
    engine: Engine,
    lane: LaneId,
}

impl Drop for StreamInner {
    fn drop(&mut self) {
        self.engine.release(Handle::Lane(self.lane));
    }
}

/// An ordered asynchronous work queue bound to a device. Cloning shares
/// the queue.
#[derive(Clone)]
pub struct Stream {
    inner: Arc<StreamInner>,
}

impl Stream {
    /// Creates an idle stream on `device`.
    pub fn new(engine: Engine, device: DeviceId, name: impl Into<Label>) -> Stream {
        let lane = engine.with_lanes(|l| l.lane(true, 0));
        Stream {
            inner: Arc::new(StreamInner {
                name: name.into(),
                device,
                engine,
                lane,
            }),
        }
    }

    /// Stream name (diagnostics).
    pub fn name(&self) -> &Label {
        &self.inner.name
    }

    /// The device this stream executes on.
    pub fn device(&self) -> DeviceId {
        self.inner.device
    }

    /// Number of ops waiting or in flight.
    pub fn pending_ops(&self) -> usize {
        let (queued, busy, _) = self.state();
        queued + usize::from(busy)
    }

    /// `(ops queued, an op in flight, parked)`.
    fn state(&self) -> (usize, bool, bool) {
        (self.inner.engine).with_lanes(|l| l.state(self.inner.lane))
    }

    /// Enqueues an asynchronous copy of `len` bytes over `route`,
    /// from `src[src_off..]` to `dst[dst_off..]`. `extra_latency` models
    /// the launch overhead; `label` appears in traces. A `Vec<LinkId>`
    /// route is taken as it is; pass a [`Route::shared`] clone when many
    /// copies use the one route.
    ///
    /// # Panics
    /// Panics if either range is out of bounds.
    #[allow(clippy::too_many_arguments)]
    pub fn copy(
        &self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        len: usize,
        route: impl Into<Route>,
        extra_latency: Secs,
        label: impl Into<Label>,
    ) {
        let op = copy_op(src, src_off, dst, dst_off, len, route, extra_latency, label);
        self.submit_ops([Op::Lane(op)]);
    }

    /// Enqueues an event record: the event completes when every earlier op
    /// on this stream has retired.
    pub fn record(&self, ev: &GpuEvent) {
        self.submit_ops([Op::Record(ev.clone())]);
    }

    /// Enqueues an event wait: later ops on this stream hold until the
    /// event completes.
    pub fn wait_event(&self, ev: &GpuEvent) {
        self.submit_ops([Op::Wait(ev.clone())]);
    }

    /// Enqueues a compute kernel costing `cost` seconds; `effect` runs at
    /// retirement (e.g. reduction arithmetic on real buffers). The label
    /// names the kernel for the caller only.
    pub fn kernel(&self, cost: Secs, effect: Option<KernelEffect>, _label: impl Into<String>) {
        self.submit_ops([Op::Lane(LaneOp::Delay(cost, effect))]);
    }

    /// Enqueues a waker signal: fires when every earlier op has retired.
    pub fn signal(&self, w: &Waker) {
        self.submit_ops([Op::Lane(LaneOp::Signal(w.clone()))]);
    }

    /// Enqueues a callback run in the event loop once every earlier op has
    /// retired. The callback receives the engine context and must neither
    /// block nor call a stream: it runs under the engine lock.
    pub fn callback(&self, f: EventFn) {
        self.submit_ops([Op::Lane(LaneOp::Call(f))]);
    }

    /// Blocks the calling simulated thread until every op enqueued so far
    /// has retired.
    pub fn synchronize(&self, thread: &mpx_sim::SimThread) {
        thread.wait(&self.sync_waker());
    }

    /// [`Stream::synchronize`] for a task: completes once every op
    /// enqueued before the call has retired.
    pub async fn synchronize_async(&self) {
        mpx_sim::task::wait(&self.sync_waker()).await;
    }

    /// Enqueues the signal a synchronize waits on.
    fn sync_waker(&self) -> Waker {
        // A stream the runtime numbered; any other lends its own name.
        let w = Waker::new(match self.inner.name {
            Label::Numbered(t, n) if std::ptr::eq(t, &STREAM) => Label::Numbered(&STREAM_SYNC, n),
            ref name => name.clone(),
        });
        self.signal(&w);
        w
    }

    /// Hands `program` over under one lock cycle and, if the stream was
    /// idle, runs it up to its first blocking op. A stream still holding
    /// ops (busy or parked) appends to them.
    pub fn submit(&self, program: Program) {
        self.submit_ops(program.0);
    }

    fn submit_ops(&self, ops: impl IntoIterator<Item = Op>) {
        let (engine, lane) = (&self.inner.engine, self.inner.lane);
        engine.with_lanes(|l| {
            for op in ops {
                let op = op.into_lane(engine, l);
                l.push(lane, op);
            }
            l.kick(lane);
        });
    }
}

impl fmt::Debug for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (queued, busy, parked) = self.state();
        f.debug_struct("Stream")
            .field("name", &self.inner.name)
            .field("device", &self.inner.device)
            .field("queued", &queued)
            .field("busy", &busy)
            .field("parked", &parked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::{presets, LinkId};
    use parking_lot::Mutex as PlMutex;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(Arc::new(presets::synthetic_default()))
    }

    fn route(eng: &Engine, a: usize, b: usize) -> Vec<LinkId> {
        let topo = eng.topology();
        let gpus = topo.gpus();
        vec![topo.link_between(gpus[a], gpus[b]).unwrap().id]
    }

    /// Fan-out and fan-in: one record releases every stream parked on its
    /// event, and a stream parked on several events passes once the last
    /// of them is recorded, whatever their order.
    #[test]
    fn events_fan_out_and_fan_in() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let (gate, done) = (GpuEvent::new("fan-out"), Waker::new("all-done"));
        let consumer = Stream::new(eng.clone(), gpus[3], "consumer");
        let log = Arc::new(PlMutex::new(Vec::new()));
        for i in 0..3 {
            let s = Stream::new(eng.clone(), gpus[i], format!("w{i}"));
            s.wait_event(&gate);
            // Later streams copy less: their events complete first.
            let n = (3 - i) << 16;
            let (src, dst) = (Buffer::synthetic(gpus[i], n), Buffer::synthetic(gpus[3], n));
            s.copy(&src, 0, &dst, 0, n, route(&eng, i, 3), 0.0, "w");
            let log = log.clone();
            s.callback(Box::new(move |_| log.lock().push(i)));
            let ev = GpuEvent::new(format!("p{i}"));
            s.record(&ev);
            consumer.wait_event(&ev);
        }
        consumer.signal(&done);
        eng.run_until_idle();
        assert!(
            log.lock().is_empty(),
            "no waiter may pass an unrecorded event"
        );
        Stream::new(eng.clone(), gpus[0], "producer").record(&gate);
        eng.run_until_idle();
        assert_eq!(*log.lock(), vec![2, 1, 0]);
        assert!(done.is_signaled());
    }

    #[test]
    fn empty_stream_synchronize_returns_immediately() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let s = Stream::new(eng.clone(), gpus[0], "idle");
        let t = eng.register_thread("host");
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            s2.synchronize(&t);
            t.now().as_nanos()
        });
        assert_eq!(h.join().unwrap(), 0, "nothing queued: no time passes");
    }

    #[test]
    fn stream_names_render_as_the_format_they_replaced() {
        for i in 0..300u64 {
            let (dev, n) = (i * 211 % 65_536, i * 938_249_922_369 % (1 << 48));
            let name = format!("{}.s{n}", DeviceId(dev as u32));
            assert_eq!(STREAM.label(&[dev, n]).to_string(), name);
            assert_eq!(
                STREAM_SYNC.label(&[dev, n]).to_string(),
                format!("{name}.sync")
            );
        }
    }

    #[test]
    fn debug_formats_mention_state() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let s = Stream::new(eng.clone(), gpus[0], "dbg");
        let text = format!("{s:?}");
        assert!(text.contains("dbg") && text.contains("queued"));
    }
}
