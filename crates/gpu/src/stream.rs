//! Streams: ordered asynchronous work queues, CUDA-style.
//!
//! A stream executes its operations strictly in order. Enqueueing never
//! blocks; completion is observed via events, wakers, or
//! [`Stream::synchronize`]. Work reaches a stream as a [`Program`] — an op
//! sequence built with no lock held and handed over by one
//! [`Stream::submit`]; the per-op calls ([`Stream::copy`],
//! [`Stream::record`], ...) are its one-op case, a lock cycle each. The
//! executor is driven in two ways that must coexist without deadlock:
//!
//! * rank threads submit ops and kick an idle stream;
//! * engine callbacks retire the in-flight op and carry on (engine lock
//!   held, stream lock taken inside).
//!
//! Both run the one loop, [`Stream::run`], which holds the stream lock
//! across the pop and every op that completes on the spot. The lock order
//! is engine → stream → event, so the loop gives the stream lock up around
//! the two things that would invert it — a call that takes the engine lock
//! (the rank-thread side of [`Issuer`]) and running another stream that a
//! `Record` released — and marks the stream `busy` for exactly that
//! window, which keeps everybody else from popping meanwhile.

use crate::buffer::Buffer;
use crate::event::GpuEvent;
use mpx_sim::{Ctx, Engine, FlowSink, FlowSpec, Label, OnComplete, Route, Template, Waker};
use mpx_topo::units::Secs;
use mpx_topo::DeviceId;
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Either the public (locking) engine API or an in-callback context.
enum Issuer<'a, 'b> {
    /// Issue through the engine's public API (from a rank thread).
    Api(&'a Engine),
    /// Issue through an event-loop context (from a completion callback).
    Call(&'a mut Ctx<'b>),
}

impl Issuer<'_, '_> {
    /// Gives `st` up if issuing takes the engine lock, which must never be
    /// taken under a stream lock; the event loop already holds it.
    fn release<'g>(&self, st: StreamGuard<'g>) -> Option<StreamGuard<'g>> {
        match self {
            Issuer::Api(_) => None,
            Issuer::Call(_) => Some(st),
        }
    }

    fn start_flow(&mut self, spec: FlowSpec, done: OnComplete) {
        match self {
            Issuer::Api(e) => {
                e.start_flow(spec, done);
            }
            Issuer::Call(ctx) => {
                ctx.start_flow(spec, done);
            }
        }
    }

    fn schedule_in(&mut self, delay: Secs, done: OnComplete) {
        match self {
            Issuer::Api(e) => e.schedule_in(delay, done),
            Issuer::Call(ctx) => ctx.schedule_in(delay, done),
        }
    }
}

/// A runtime-made stream (device index, counter) and its `synchronize` waker.
pub(crate) static STREAM: Template = Template("dev{}.s{}", &[16, 48]);
static STREAM_SYNC: Template = Template("dev{}.s{}.sync", &[16, 48]);

/// A kernel's completion effect (e.g. the reduction arithmetic). Runs when
/// the kernel retires; must not block.
pub type KernelEffect = Box<dyn FnOnce() + Send>;

/// The payload move of a copy: applied when its flow completes.
struct Payload {
    src: Buffer,
    src_off: usize,
    dst: Buffer,
    dst_off: usize,
    len: usize,
}

enum Op {
    Copy {
        payload: Payload,
        /// Shared, not owned: a compiled graph re-enqueues the same
        /// route/label on every replay, and the flow takes both as they
        /// are, so neither costs a heap copy anywhere on the way.
        route: Route,
        extra_latency: Secs,
        label: Label,
    },
    Record(GpuEvent),
    WaitEvent(GpuEvent),
    Kernel {
        cost: Secs,
        effect: Option<KernelEffect>,
        label: String,
    },
    Signal(Waker),
    Callback(mpx_sim::EventFn),
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Copy { payload, label, .. } => write!(f, "Copy({label}, {}B)", payload.len),
            Op::Record(e) => write!(f, "Record({})", e.name()),
            Op::WaitEvent(e) => write!(f, "WaitEvent({})", e.name()),
            Op::Kernel { label, .. } => write!(f, "Kernel({label})"),
            Op::Signal(w) => write!(f, "Signal({})", w.name()),
            Op::Callback(_) => write!(f, "Callback"),
        }
    }
}

/// An op sequence bound for one stream, built with no lock held and
/// handed over whole by [`Stream::submit`]. Its methods take what the
/// stream's per-op methods of the same names take.
#[derive(Debug, Default)]
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
        self.0.push(Op::Copy {
            payload: Payload {
                src: src.clone(),
                src_off,
                dst: dst.clone(),
                dst_off,
                len,
            },
            route: route.into(),
            extra_latency,
            label: label.into(),
        });
    }

    /// Appends an event record; see [`Stream::record`].
    pub fn record(&mut self, ev: &GpuEvent) {
        self.0.push(Op::Record(ev.clone()));
    }

    /// Appends an event wait; see [`Stream::wait_event`].
    pub fn wait_event(&mut self, ev: &GpuEvent) {
        self.0.push(Op::WaitEvent(ev.clone()));
    }

    /// Appends a waker signal; see [`Stream::signal`].
    pub fn signal(&mut self, w: &Waker) {
        self.0.push(Op::Signal(w.clone()));
    }

    /// Appends a callback; see [`Stream::callback`].
    pub fn callback(&mut self, f: mpx_sim::EventFn) {
        self.0.push(Op::Callback(f));
    }
}

struct StreamState {
    queue: VecDeque<Op>,
    /// An op is executing outside the lock: a copy or kernel in flight, or
    /// one of the windows [`Stream::unlocked`] opens.
    busy: bool,
    /// Parked on an unrecorded event.
    parked: bool,
    /// The in-flight copy's payload move, taken back at retirement.
    in_flight: Option<Payload>,
    /// Scratch for the streams a `Record` releases, kept for its capacity.
    released: Vec<Stream>,
}

type StreamGuard<'a> = MutexGuard<'a, StreamState>;

struct StreamInner {
    name: Label,
    device: DeviceId,
    engine: Engine,
    state: Mutex<StreamState>,
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
        Stream {
            inner: Arc::new(StreamInner {
                name: name.into(),
                device,
                engine,
                state: Mutex::new(StreamState {
                    queue: VecDeque::new(),
                    busy: false,
                    parked: false,
                    in_flight: None,
                    released: Vec::new(),
                }),
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
        let st = self.inner.state.lock();
        st.queue.len() + usize::from(st.busy)
    }

    /// Enqueues an asynchronous copy of `len` bytes over `route`,
    /// from `src[src_off..]` to `dst[dst_off..]`. `extra_latency` models
    /// the launch overhead; `label` appears in traces. A `Vec<LinkId>`
    /// route is taken as it is; pass a [`Route::shared`] clone when many
    /// copies use the one route.
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
        self.enqueue(Op::Copy {
            payload: Payload {
                src: src.clone(),
                src_off,
                dst: dst.clone(),
                dst_off,
                len,
            },
            route: route.into(),
            extra_latency,
            label: label.into(),
        });
    }

    /// Enqueues an event record: the event completes when every earlier op
    /// on this stream has retired.
    pub fn record(&self, ev: &GpuEvent) {
        self.enqueue(Op::Record(ev.clone()));
    }

    /// Enqueues an event wait: later ops on this stream hold until the
    /// event completes.
    pub fn wait_event(&self, ev: &GpuEvent) {
        self.enqueue(Op::WaitEvent(ev.clone()));
    }

    /// Enqueues a compute kernel costing `cost` seconds; `effect` runs at
    /// retirement (e.g. reduction arithmetic on real buffers).
    pub fn kernel(&self, cost: Secs, effect: Option<KernelEffect>, label: impl Into<String>) {
        self.enqueue(Op::Kernel {
            cost,
            effect,
            label: label.into(),
        });
    }

    /// Enqueues a waker signal: fires when every earlier op has retired.
    pub fn signal(&self, w: &Waker) {
        self.enqueue(Op::Signal(w.clone()));
    }

    /// Enqueues a callback run in the event loop once every earlier op has
    /// retired. The callback receives the engine context and must not
    /// block.
    pub fn callback(&self, f: mpx_sim::EventFn) {
        self.enqueue(Op::Callback(f));
    }

    /// Blocks the calling simulated thread until every op enqueued so far
    /// has retired.
    pub fn synchronize(&self, thread: &mpx_sim::SimThread) {
        // A stream the runtime numbered; any other lends its own name.
        let w = Waker::new(match self.inner.name {
            Label::Numbered(t, n) if std::ptr::eq(t, &STREAM) => Label::Numbered(&STREAM_SYNC, n),
            ref name => name.clone(),
        });
        self.signal(&w);
        thread.wait(&w);
    }

    fn enqueue(&self, op: Op) {
        let mut st = self.inner.state.lock();
        st.queue.push_back(op);
        self.kick(st);
    }

    /// Hands `program` over under one lock cycle and kicks the stream if
    /// it was idle. An empty queue adopts the program's buffer as it is; a
    /// stream still holding ops (busy or parked) appends to them.
    pub fn submit(&self, program: Program) {
        let mut st = self.inner.state.lock();
        if st.queue.is_empty() {
            st.queue = program.0.into();
        } else {
            st.queue.extend(program.0);
        }
        self.kick(st);
    }

    fn kick<'a>(&'a self, st: StreamGuard<'a>) {
        if !st.busy && !st.parked {
            self.run(st, &mut Issuer::Api(&self.inner.engine));
        }
    }

    /// Runs ops until the stream blocks (async op in flight, parked on an
    /// event, or queue empty). The one executor: submit sites, completion
    /// callbacks and releasing `Record`s all enter here, with the lock of
    /// a stream that is neither busy nor parked.
    fn run<'a>(&'a self, mut st: StreamGuard<'a>, issuer: &mut Issuer<'_, '_>) {
        while let Some(op) = st.queue.pop_front() {
            match op {
                Op::Copy {
                    payload,
                    route,
                    extra_latency,
                    label,
                } => {
                    let spec = FlowSpec::new(route, payload.len)
                        .with_extra_latency(extra_latency)
                        .labeled(label);
                    st.in_flight = Some(payload);
                    st.busy = true;
                    let _held = issuer.release(st);
                    issuer.start_flow(spec, OnComplete::Sink(self.inner.clone()));
                    return;
                }
                Op::Kernel {
                    cost,
                    effect,
                    label: _,
                } => {
                    st.busy = true;
                    let _held = issuer.release(st);
                    let this = self.clone();
                    issuer.schedule_in(
                        cost,
                        OnComplete::Call(Box::new(move |ctx| {
                            if let Some(f) = effect {
                                f();
                            }
                            this.retire(ctx);
                        })),
                    );
                    return;
                }
                Op::Record(ev) => {
                    let mut released = std::mem::take(&mut st.released);
                    ev.complete(&mut released);
                    if !released.is_empty() {
                        st = self.unlocked(st, || {
                            for s in released.drain(..) {
                                let mut theirs = s.inner.state.lock();
                                theirs.parked = false;
                                s.run(theirs, issuer);
                            }
                        });
                    }
                    st.released = released;
                }
                Op::WaitEvent(ev) => {
                    if !ev.park_unless_complete(self) {
                        st.parked = true;
                        return;
                    }
                }
                Op::Signal(w) => match issuer {
                    Issuer::Api(e) => st = self.unlocked(st, || e.signal_waker(&w)),
                    Issuer::Call(ctx) => ctx.signal(&w),
                },
                // Unlocked in the event loop too: the callback is foreign
                // code and may look at this stream.
                Op::Callback(f) => {
                    st = self.unlocked(st, || match issuer {
                        // From a rank thread: defer to the event loop at
                        // the current virtual time.
                        Issuer::Api(e) => e.schedule_in(0.0, OnComplete::Call(f)),
                        Issuer::Call(ctx) => f(ctx),
                    })
                }
            }
        }
    }

    /// Runs `f` with the stream lock released and the stream marked busy,
    /// so that no other thread pops an op meanwhile; returns the lock.
    fn unlocked<'a>(&'a self, mut st: StreamGuard<'a>, f: impl FnOnce()) -> StreamGuard<'a> {
        st.busy = true;
        drop(st);
        f();
        let mut st = self.inner.state.lock();
        st.busy = false;
        st
    }

    /// Retires the in-flight async op (engine callback context) and
    /// carries on.
    fn retire(&self, ctx: &mut Ctx<'_>) {
        let mut st = self.inner.state.lock();
        st.busy = false;
        self.run(st, &mut Issuer::Call(ctx));
    }
}

impl FlowSink for StreamInner {
    /// The in-flight copy's flow completed: move its bytes — outside the
    /// stream lock, the stream still busy — then retire it.
    fn flow_done(self: Arc<Self>, ctx: &mut Ctx<'_>) {
        let in_flight = self.state.lock().in_flight.take();
        let p = in_flight.expect("a flow completed with no copy in flight");
        Buffer::transfer(&p.src, p.src_off, &p.dst, p.dst_off, p.len);
        Stream { inner: self }.retire(ctx);
    }
}

impl fmt::Debug for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Stream")
            .field("name", &self.inner.name)
            .field("device", &self.inner.device)
            .field("queued", &st.queue.len())
            .field("busy", &st.busy)
            .field("parked", &st.parked)
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

    #[test]
    fn one_event_releases_many_streams() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let ev = GpuEvent::new("fan-out");
        let log = Arc::new(PlMutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for i in 0..3 {
            let s = Stream::new(eng.clone(), gpus[1], format!("w{i}"));
            s.wait_event(&ev);
            let log = log.clone();
            s.callback(Box::new(move |_| log.lock().push(i)));
            waiters.push(s);
        }
        eng.run_until_idle();
        assert!(
            log.lock().is_empty(),
            "no waiter may pass an unrecorded event"
        );
        let producer = Stream::new(eng.clone(), gpus[0], "producer");
        let src = Buffer::synthetic(gpus[0], 1 << 20);
        let dst = Buffer::synthetic(gpus[1], 1 << 20);
        producer.copy(&src, 0, &dst, 0, 1 << 20, route(&eng, 0, 1), 0.0, "work");
        producer.record(&ev);
        eng.run_until_idle();
        let mut got = log.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn stream_waits_on_many_events() {
        // Fan-in: a consumer stream waits on three producers' events.
        let eng = engine();
        let gpus = eng.topology().gpus();
        let consumer = Stream::new(eng.clone(), gpus[3], "consumer");
        let done = Waker::new("all-done");
        let mut events = Vec::new();
        for i in 0..3 {
            let ev = GpuEvent::new(format!("p{i}"));
            consumer.wait_event(&ev);
            events.push(ev);
        }
        consumer.signal(&done);
        // Record the events in reverse order on separate streams.
        for (i, ev) in events.iter().enumerate().rev() {
            let s = Stream::new(eng.clone(), gpus[i], format!("prod{i}"));
            let src = Buffer::synthetic(gpus[i], 1 << 16);
            let dst = Buffer::synthetic(gpus[3], 1 << 16);
            s.copy(&src, 0, &dst, 0, 1 << 16, route(&eng, i, 3), 0.0, "w");
            s.record(ev);
        }
        eng.run_until_idle();
        assert!(done.is_signaled());
    }

    #[test]
    fn callbacks_preserve_stream_order() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let s = Stream::new(eng.clone(), gpus[0], "ordered");
        let log = Arc::new(PlMutex::new(Vec::new()));
        for i in 0..4 {
            let src = Buffer::synthetic(gpus[0], 1 << 12);
            let dst = Buffer::synthetic(gpus[1], 1 << 12);
            s.copy(
                &src,
                0,
                &dst,
                0,
                1 << 12,
                route(&eng, 0, 1),
                0.0,
                format!("c{i}"),
            );
            let log = log.clone();
            s.callback(Box::new(move |_| log.lock().push(i)));
        }
        eng.run_until_idle();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn kernel_without_effect_still_charges_time() {
        let eng = engine();
        let gpus = eng.topology().gpus();
        let s = Stream::new(eng.clone(), gpus[0], "k");
        s.kernel(5e-6, None, "noop");
        eng.run_until_idle();
        assert!((eng.now().as_secs() - 5e-6).abs() < 1e-12);
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
