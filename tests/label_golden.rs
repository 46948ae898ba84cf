//! Golden names: what a trace, a recorder and a panic read off a PUT.
//!
//! The names a PUT gives its flows, wakers and events are data until
//! somebody reads them; these tests are the readers. One interpreted
//! 32 MiB four-path PUT and one captured + replayed PUT run
//! callback-structured on a tracing engine with a recorder installed; the
//! sorted flow labels of the trace and the Perfetto lanes the recorder
//! derived from them must equal the lists below, which were printed by
//! this file on the commit before names became lazy (every one of them a
//! `format!` at issue time there). The two panics name what they waited
//! on.

use multipath_gpu::prelude::*;
use multipath_gpu::sim::task;
use multipath_gpu::ucx::execute_plan;
use std::sync::Arc;

const MIB: usize = 1 << 20;

const INTERPRETED_LABELS: &[&str] = &[
    "xfer0.p0.direct",
    "xfer0.p1.c0.leg1",
    "xfer0.p1.c0.leg2",
    "xfer0.p1.c1.leg1",
    "xfer0.p1.c1.leg2",
    "xfer0.p1.c2.leg1",
    "xfer0.p1.c2.leg2",
    "xfer0.p1.c3.leg1",
    "xfer0.p1.c3.leg2",
    "xfer0.p1.c4.leg1",
    "xfer0.p1.c4.leg2",
    "xfer0.p2.c0.leg1",
    "xfer0.p2.c0.leg2",
    "xfer0.p2.c1.leg1",
    "xfer0.p2.c1.leg2",
    "xfer0.p2.c2.leg1",
    "xfer0.p2.c2.leg2",
    "xfer0.p2.c3.leg1",
    "xfer0.p2.c3.leg2",
    "xfer0.p2.c4.leg1",
    "xfer0.p2.c4.leg2",
    "xfer0.p3.c0.leg1",
    "xfer0.p3.c0.leg2",
    "xfer0.p3.c1.leg1",
    "xfer0.p3.c1.leg2",
    "xfer0.p3.c2.leg1",
    "xfer0.p3.c2.leg2",
    "xfer0.p3.c3.leg1",
    "xfer0.p3.c3.leg2",
];
const INTERPRETED_LANES: &[&str] = &[
    "xfer0.p0.direct",
    "xfer0.p1.leg1",
    "xfer0.p1.leg2",
    "xfer0.p2.leg1",
    "xfer0.p2.leg2",
    "xfer0.p3.leg1",
    "xfer0.p3.leg2",
];
const REPLAYED_LABELS: &[&str] = &[
    "g0.p0.direct",
    "g0.p1.c0.leg1",
    "g0.p1.c0.leg2",
    "g0.p1.c1.leg1",
    "g0.p1.c1.leg2",
    "g0.p1.c2.leg1",
    "g0.p1.c2.leg2",
    "g0.p1.c3.leg1",
    "g0.p1.c3.leg2",
    "g0.p1.c4.leg1",
    "g0.p1.c4.leg2",
    "g0.p2.c0.leg1",
    "g0.p2.c0.leg2",
    "g0.p2.c1.leg1",
    "g0.p2.c1.leg2",
    "g0.p2.c2.leg1",
    "g0.p2.c2.leg2",
    "g0.p2.c3.leg1",
    "g0.p2.c3.leg2",
    "g0.p2.c4.leg1",
    "g0.p2.c4.leg2",
    "g0.p3.c0.leg1",
    "g0.p3.c0.leg2",
    "g0.p3.c1.leg1",
    "g0.p3.c1.leg2",
    "g0.p3.c2.leg1",
    "g0.p3.c2.leg2",
    "g0.p3.c3.leg1",
    "g0.p3.c3.leg2",
];
const REPLAYED_LANES: &[&str] = &[
    "g0.p0.direct",
    "g0.p1.leg1",
    "g0.p1.leg2",
    "g0.p2.leg1",
    "g0.p2.leg2",
    "g0.p3.leg1",
    "g0.p3.leg2",
];

/// Sorted flow labels of the trace so far, and the sorted, deduplicated
/// lanes (the chunk-leg tracks that are not `link:` tracks) of the spans
/// recorded so far; both are drained.
fn names(eng: &Engine, rec: &Recorder) -> (Vec<String>, Vec<String>) {
    let mut labels: Vec<String> = eng.take_trace().into_iter().map(|r| r.label).collect();
    labels.sort();
    let mut lanes: Vec<String> = rec
        .drain()
        .iter()
        .filter(|e| e.phase() == Phase::ChunkLeg && !e.track().starts_with("link:"))
        .map(|e| e.track().to_string())
        .collect();
    lanes.sort();
    lanes.dedup();
    (labels, lanes)
}

#[test]
fn flow_labels_and_lanes_render_as_recorded() {
    let eng = Engine::with_tracing(Arc::new(presets::beluga()), true);
    let rec = Recorder::new();
    eng.set_recorder(rec.clone());
    let ctx = UcxContext::new(GpuRuntime::new(eng.clone()), UcxConfig::default());
    let gpus = eng.topology().gpus();
    let n = 32 * MIB;
    let (src, dst) = (
        ctx.runtime().alloc(gpus[0], n),
        ctx.runtime().alloc(gpus[1], n),
    );

    let h = ctx.put_async(&src, &dst, n).unwrap();
    assert_eq!(h.path_count(), 4);
    eng.run_until_idle();
    assert!(h.is_complete());
    let (labels, lanes) = names(&eng, &rec);
    assert_eq!(labels, INTERPRETED_LABELS);
    assert_eq!(lanes, INTERPRETED_LANES);

    // The first call captures the graph and launches it, the second
    // replays it: the same names both times.
    for launch in 1..=2 {
        let h = ctx.put_replayed(&src, &dst, n).unwrap();
        eng.run_until_idle();
        assert!(h.is_complete());
        let stats = ctx.graph_stats();
        assert_eq!((stats.captures, stats.replays), (1, launch));
        let (labels, lanes) = names(&eng, &rec);
        assert_eq!(labels, REPLAYED_LABELS, "launch {launch}");
        assert_eq!(lanes, REPLAYED_LANES, "launch {launch}");
    }
}

/// Path 1's first link is down, so its flows stall and its done-waker
/// never fires: the rank that waits on the handle deadlocks on it.
#[test]
#[should_panic(expected = "`rank0` waiting on `xfer0.p1`")]
fn a_deadlock_names_the_path_waker_it_waited_on() {
    let eng = Engine::new(Arc::new(presets::beluga()));
    let ctx = UcxContext::new(GpuRuntime::new(eng.clone()), UcxConfig::default());
    let gpus = eng.topology().gpus();
    let n = 32 * MIB;
    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let paths = ctx
        .paths_for(gpus[0], gpus[1], ctx.config().selection)
        .unwrap();
    assert!(plan.paths[1].share_bytes > 0);
    eng.set_link_down(paths[1].legs[0].route[0]);
    let (src, dst) = (
        ctx.runtime().alloc(gpus[0], n),
        ctx.runtime().alloc(gpus[1], n),
    );
    let h = execute_plan(ctx.runtime(), &plan, &paths, &src, &dst, 0);
    task::run(&eng, [("rank0".into(), h.wait(&eng, None))]);
}

#[test]
#[should_panic(expected = "reset of event 'xfer0.p1.c0' with 1 stream(s) still parked on it")]
fn resetting_an_event_under_a_parked_stream_names_the_event() {
    let eng = Engine::new(Arc::new(presets::beluga()));
    let rt = GpuRuntime::new(eng.clone());
    let ev = rt.event("xfer0.p1.c0");
    rt.stream(eng.topology().gpus()[0]).wait_event(&ev);
    eng.run_until_idle();
    ev.reset();
}
