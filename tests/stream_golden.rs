//! Golden retirement order of the stream executor.
//!
//! One seeded program over four streams — copies contending on shared
//! links, the pipeline's record/wait chunk chain run deeper than
//! `RING_DEPTH`, a gate event waited on before anybody records it and
//! releasing three streams at once, signals, callbacks and one kernel —
//! issued in three phases, the later two after virtual time has moved. A
//! logging callback behind every op notes `(op index, nanosecond)`; the
//! digest is over that log in retirement order plus the engine's event
//! counters, so it holds the executor to one exact order of flow starts
//! and `seq` draws, not merely to per-stream FIFO (which
//! `crates/gpu/tests/stream_props.rs` checks).
//!
//! The program runs twice: from the test thread between `run_until`
//! steps, and from two `SimThread`s that take turns by sleeping. The two
//! constants were recorded on the commit before the executor was
//! rewritten to hold the stream lock across an op (one `run` loop,
//! closure-free copy retirement); an executor-internals change must not
//! move them. A failure mode here is a stream-lock inversion, which
//! hangs, so both tests run under a wall-clock watchdog.
//!
//! Beside them, `Stream::submit` is held to the per-op calls: one op
//! sequence, issued op by op and as one `Program`, must leave the same
//! flow trace, retirement log and stream states behind, whether it finds
//! the stream idle, busy or parked.

mod common;

use common::watchdog;
use multipath_gpu::gpu::{self, GpuEvent, Stream};
use multipath_gpu::prelude::*;
use multipath_gpu::sim::{EventFn, TraceRecord};
use multipath_gpu::ucx::RING_DEPTH;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

const THREAD_FREE: u64 = 0x6e79_f400_7cd6_c4dc;
const TWO_THREADS: u64 = 0x9ab2_0215_e953_af10;

/// Phase boundaries: odd values, so no flow lands on one to the
/// nanosecond.
const PHASE_1_AT: f64 = 41.237e-6;
const PHASE_2_AT: f64 = 118.611e-6;
const STREAMS: usize = 4;
const GATE: usize = 0;

#[derive(Clone, Copy)]
enum Step {
    Copy { route: usize, bytes: usize },
    Record(usize),
    Wait(usize),
    Kernel(f64),
    Signal,
    Marker,
}

/// The program: per phase, `(stream, step)` in issue order; events are
/// numbered, `GATE` first.
struct Program {
    phases: [Vec<(usize, Step)>; 3],
    events: usize,
}

fn program() -> Program {
    let mut rng = StdRng::seed_from_u64(0x57e4_a601);
    let mut events = GATE + 1;
    let mut fresh = || {
        events += 1;
        events - 1
    };
    let mut kib = |lo: usize, hi: usize| rng.gen_range(lo..hi) << 10;

    // Phase 0. Streams 0 and 2 run the pipeline's chunk chain (leg 1 →
    // record → wait → leg 2 → record freed; leg 1 of chunk c waits for the
    // slot chunk c − RING_DEPTH freed), stream 1 contends with leg 1 on
    // the same link and never waits, and streams 3, 2 and 0 each wait on
    // the gate somewhere along the way: its record releases all three.
    let mut p0 = vec![(3, Step::Wait(GATE))];
    let mut freed = Vec::new();
    for c in 0..RING_DEPTH + 3 {
        if c >= RING_DEPTH {
            p0.push((0, Step::Wait(freed[c - RING_DEPTH])));
        }
        if c == RING_DEPTH + 2 {
            p0.push((0, Step::Wait(GATE)));
        }
        let bytes = kib(64, 384);
        let (ready, slot) = (fresh(), fresh());
        p0.push((0, Step::Copy { route: 0, bytes }));
        p0.push((0, Step::Record(ready)));
        p0.push((2, Step::Wait(ready)));
        if c == RING_DEPTH + 1 {
            p0.push((2, Step::Wait(GATE)));
        }
        p0.push((2, Step::Copy { route: 1, bytes }));
        p0.push((2, Step::Record(slot)));
        freed.push(slot);
        let bytes = kib(32, 256);
        p0.push((1, Step::Copy { route: 0, bytes }));
        p0.push((
            1,
            if c % 3 == 1 {
                Step::Signal
            } else {
                Step::Marker
            },
        ));
    }
    p0.push((
        0,
        Step::Copy {
            route: 2,
            bytes: kib(64, 128),
        },
    ));
    p0.push((
        3,
        Step::Copy {
            route: 1,
            bytes: kib(64, 128),
        },
    ));
    p0.push((3, Step::Signal));

    // Phases 1 and 2: random ops on random streams. A wait names an event
    // whose record was issued earlier, so the program cannot deadlock.
    // Phase 1 opens with the kernel and the gate's record on stream 1.
    let mut recorded: Vec<usize> = (1..events).collect();
    let mut random_ops = |count: usize, recorded: &mut Vec<usize>| {
        let mut ops = Vec::new();
        for _ in 0..count {
            let s = rng.gen_range(0..STREAMS);
            let step = match rng.gen_range(0..10u32) {
                0..=3 => Step::Copy {
                    route: rng.gen_range(0..4usize),
                    bytes: rng.gen_range(16..512usize) << 10,
                },
                4 | 5 => {
                    events += 1;
                    recorded.push(events - 1);
                    Step::Record(events - 1)
                }
                6 | 7 => Step::Wait(recorded[rng.gen_range(0..recorded.len())]),
                8 => Step::Signal,
                _ => Step::Marker,
            };
            ops.push((s, step));
        }
        ops
    };
    let mut p1 = vec![(1, Step::Kernel(7e-6)), (1, Step::Record(GATE))];
    recorded.push(GATE);
    p1.extend(random_ops(40, &mut recorded));
    let p2 = random_ops(40, &mut recorded);
    Program {
        phases: [p0, p1, p2],
        events,
    }
}

/// The streams, events and routes a program runs on, and the retirement
/// log its callbacks write.
struct Rig {
    rt: GpuRuntime,
    streams: Vec<Stream>,
    events: Vec<GpuEvent>,
    routes: [Vec<LinkId>; 4],
    log: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl Rig {
    fn new(events: usize) -> Rig {
        let topo = Arc::new(presets::beluga());
        let rt = GpuRuntime::new(Engine::new(topo.clone()));
        let g = topo.gpus();
        let link = |a: usize, b: usize| topo.link_between(g[a], g[b]).unwrap().id;
        Rig {
            streams: [0, 0, 2, 1].iter().map(|&d| rt.stream(g[d])).collect(),
            events: (0..events).map(|e| rt.event(format!("e{e}"))).collect(),
            routes: [
                vec![link(0, 2)],
                vec![link(2, 1)],
                vec![link(0, 1)],
                vec![link(0, 2), link(2, 1)],
            ],
            log: Arc::default(),
            rt,
        }
    }

    /// Enqueues op `index` and the callback that logs its retirement.
    fn issue(&self, index: u64, stream: usize, step: Step) {
        let s = &self.streams[stream];
        let g = self.rt.engine().topology().gpus();
        match step {
            Step::Copy { route, bytes } => {
                let (src, dst) = (
                    Buffer::synthetic(g[0], bytes),
                    Buffer::synthetic(g[1], bytes),
                );
                let label = format!("op{index}");
                s.copy(
                    &src,
                    0,
                    &dst,
                    0,
                    bytes,
                    self.routes[route].clone(),
                    1e-6,
                    label,
                );
            }
            Step::Record(e) => s.record(&self.events[e]),
            Step::Wait(e) => s.wait_event(&self.events[e]),
            Step::Kernel(cost) => s.kernel(cost, None, "k"),
            Step::Signal => s.signal(&Waker::new(format!("op{index}"))),
            Step::Marker => {}
        }
        let log = self.log.clone();
        s.callback(Box::new(move |ctx| {
            log.lock().unwrap().push((index, ctx.now().as_nanos()));
        }));
    }

    fn issue_phase(&self, prog: &Program, phase: usize) {
        let first: usize = prog.phases[..phase].iter().map(Vec::len).sum();
        for (i, &(stream, step)) in prog.phases[phase].iter().enumerate() {
            self.issue((first + i) as u64, stream, step);
        }
    }

    /// FNV-1a over the retirement log and the engine's counters.
    fn digest(&self, prog: &Program) -> u64 {
        let log = self.log.lock().unwrap();
        let ops: usize = prog.phases.iter().map(Vec::len).sum();
        assert_eq!(log.len(), ops, "an op never retired");
        let stats = self.rt.engine().stats();
        assert_eq!(stats.flows_issued, stats.flows_completed);
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        let words = log.iter().flat_map(|&(i, at)| [i, at]).chain([
            stats.now.as_nanos(),
            stats.flows_completed,
            stats.events_processed,
            stats.events_scheduled,
        ]);
        for w in words {
            for b in w.to_le_bytes() {
                d = (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        d
    }
}

#[test]
fn thread_free_program_retires_in_the_recorded_order() {
    let got = watchdog(|| {
        let prog = program();
        let rig = Rig::new(prog.events);
        let eng = rig.rt.engine();
        rig.issue_phase(&prog, 0);
        eng.run_until(SimTime::from_secs(PHASE_1_AT));
        assert!(
            rig.streams.iter().all(|s| s.pending_ops() > 0),
            "phase 1 must find every stream mid-program"
        );
        rig.issue_phase(&prog, 1);
        eng.run_until(SimTime::from_secs(PHASE_2_AT));
        rig.issue_phase(&prog, 2);
        eng.run_until_idle();
        rig.digest(&prog)
    });
    assert_eq!(got, THREAD_FREE, "digest {got:#018x}");
}

#[test]
fn two_thread_program_retires_in_the_recorded_order_every_time() {
    for run in 0..20 {
        let got = watchdog(|| {
            let prog = Arc::new(program());
            let rig = Arc::new(Rig::new(prog.events));
            let eng = rig.rt.engine();
            // Both registered before either can block; `b` starts its
            // first sleep only once phase 0 is issued, so every `seq` the
            // phase draws is fixed.
            let (a, b) = (eng.register_thread("a"), eng.register_thread("b"));
            let (tx, rx) = mpsc::channel();
            let (rig_b, prog_b) = (rig.clone(), prog.clone());
            let hb = thread::spawn(move || {
                rx.recv().unwrap();
                b.sleep(PHASE_1_AT);
                rig_b.issue_phase(&prog_b, 1);
            });
            rig.issue_phase(&prog, 0);
            tx.send(()).unwrap();
            a.sleep(PHASE_2_AT);
            rig.issue_phase(&prog, 2);
            for s in &rig.streams {
                s.synchronize(&a);
            }
            hb.join().unwrap();
            drop(a);
            rig.digest(&prog)
        });
        assert_eq!(got, TWO_THREADS, "run {run}: digest {got:#018x}");
    }
}

/// What the sequence under test finds on its stream.
#[derive(Clone, Copy, Debug)]
enum Prior {
    Idle,
    /// A copy in flight and a callback queued behind it: `submit` appends.
    Busy,
    /// Parked on an unrecorded event, nothing queued: `submit` adopts the
    /// program's buffer but must not run it.
    Parked,
}

/// Everything a run leaves behind: completed flows, the `(mark, ns)` log
/// of its callbacks, and the stream's `Debug` state before the sequence,
/// right after it was issued, mid-run and drained.
type Trail = (Vec<TraceRecord>, Vec<(u64, u64)>, Vec<String>);

/// Issues one fixed sequence on a stream in state `prior` — op by op, or as
/// one `Program` with an empty one submitted before and after it — while a
/// second stream records the events it parks on and parks on one it
/// records.
fn run_sequence(prior: Prior, as_program: bool) -> Trail {
    let topo = Arc::new(presets::beluga());
    let rt = GpuRuntime::new(Engine::with_tracing(topo.clone(), true));
    let eng = rt.engine();
    let g = topo.gpus();
    let route = |a: usize, b: usize| vec![topo.link_between(g[a], g[b]).unwrap().id];
    let buf = |d: usize, kib: usize| Buffer::synthetic(g[d], kib << 10);
    let (s, other) = (rt.stream(g[0]), rt.stream(g[2]));
    let (gate, mid, out) = (rt.event("gate"), rt.event("mid"), rt.event("out"));
    let done = Waker::new("done");
    let log = Arc::new(Mutex::new(Vec::new()));
    let mark = |i: u64| -> EventFn {
        let log = log.clone();
        Box::new(move |ctx| log.lock().unwrap().push((i, ctx.now().as_nanos())))
    };

    match prior {
        Prior::Idle => {}
        Prior::Busy => {
            s.copy(
                &buf(0, 300),
                0,
                &buf(1, 300),
                0,
                300 << 10,
                route(0, 1),
                1e-6,
                "prior",
            );
            s.callback(mark(0));
        }
        Prior::Parked => s.wait_event(&gate),
    }
    other.copy(
        &buf(2, 200),
        0,
        &buf(1, 200),
        0,
        200 << 10,
        route(2, 1),
        1e-6,
        "o1",
    );
    other.record(&gate);
    other.wait_event(&out);
    other.copy(
        &buf(2, 150),
        0,
        &buf(1, 150),
        0,
        150 << 10,
        route(2, 1),
        1e-6,
        "o2",
    );
    other.record(&mid);
    other.callback(mark(9));
    let mut states = vec![format!("{s:?}")];

    macro_rules! sequence {
        ($to:expr) => {{
            $to.copy(
                &buf(0, 256),
                0,
                &buf(2, 256),
                0,
                256 << 10,
                route(0, 2),
                1e-6,
                "a",
            );
            $to.record(&out);
            $to.signal(&done);
            $to.callback(mark(1));
            $to.wait_event(&mid);
            $to.copy(
                &buf(0, 96),
                0,
                &buf(1, 96),
                0,
                96 << 10,
                route(0, 1),
                1e-6,
                "b",
            );
            $to.callback(mark(2));
        }};
    }
    if as_program {
        s.submit(gpu::Program::default());
        assert_eq!(format!("{s:?}"), states[0], "an empty program is a no-op");
        let mut program = gpu::Program::with_capacity(7);
        sequence!(program);
        s.submit(program);
        s.submit(gpu::Program::default());
    } else {
        sequence!(s);
    }
    states.push(format!("{s:?}"));
    eng.run_until(SimTime::from_secs(9e-6));
    states.push(format!("{s:?}"));
    eng.run_until_idle();
    states.push(format!("{s:?}"));
    assert!(done.is_signaled() && s.pending_ops() + other.pending_ops() == 0);
    let log = log.lock().unwrap().clone();
    (eng.take_trace(), log, states)
}

#[test]
fn a_program_is_indistinguishable_from_its_ops() {
    for prior in [Prior::Idle, Prior::Busy, Prior::Parked] {
        let (by_op, by_program) =
            watchdog(move || (run_sequence(prior, false), run_sequence(prior, true)));
        let marks = 3 + u64::from(matches!(prior, Prior::Busy));
        assert_eq!(
            by_op.1.len() as u64,
            marks,
            "{prior:?}: a callback never ran"
        );
        assert_eq!(
            by_op.0.len(),
            by_op.1.len() + 1,
            "{prior:?}: a copy never retired"
        );
        assert_eq!(by_op, by_program, "{prior:?}");
    }
}
