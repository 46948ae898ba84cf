//! Per-layer metrics taken by calling one layer's public functions
//! directly, outside any workload. Every traced run takes them, so a
//! layer's own cost can be read next to the spans of the workload that
//! uses it. Each number is a median over repeated short batches.

use crate::metrics::Report;
use crate::simref::beluga_context;
use crate::util;
use mpx_gpu::{Buffer, GpuRuntime, GraphBuf, GraphBuilder};
use mpx_model::Planner;
use mpx_mpi::{waitall, World};
use mpx_obs::{FlightRecorder, Phase, QuantileHist};
use mpx_omb::{allreduce_on, alltoall_on, AllreduceAlgo, AlltoallAlgo, CollectiveConfig};
use mpx_sim::{max_min_rates_fast, Engine, FlowDemand, FlowSpec, OnComplete};
use mpx_topo::units::MIB;
use mpx_topo::{enumerate_paths_auto, presets, DeviceId, PathSelection, Topology};
use mpx_ucx::{TuningMode, UcxConfig, UcxContext};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SEL: PathSelection = PathSelection::THREE_GPUS_WITH_HOST;

/// Median over `reps` of the seconds `f` takes per unit, where one call
/// of `f` performs `units` of them.
fn per_unit(reps: usize, units: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            util::secs_since(t) / units as f64
        })
        .collect();
    util::median(&times)
}

/// The 12 ordered GPU pairs × 8 sizes of `plan_hit`: 96 plans, more
/// than the 64-slot thread-local cache, fewer than the exact table.
pub fn hit_keys(topo: &Topology) -> Vec<(DeviceId, DeviceId, usize)> {
    let gpus = topo.gpus();
    let mut keys = Vec::new();
    for &a in &gpus {
        for &b in gpus.iter().filter(|&&b| b != a) {
            for i in 0..8 {
                keys.push((a, b, (2 * MIB) << i));
            }
        }
    }
    keys
}

/// The `k`-th size of an all-distinct, 4-byte aligned walk over
/// [4 MiB, 256 MiB) starting at `base`.
pub fn walk_size(base: usize, k: usize) -> usize {
    let span = 252 * MIB / 4;
    4 * MIB + 4 * ((base + k * 37_987) % span)
}

pub fn direct_calls(rep: &mut Report) {
    let topo = Arc::new(presets::beluga());
    let gpus = topo.gpus();
    let keys = hit_keys(&topo);

    // --- topo ---
    let build = per_unit(21, 2, || {
        black_box(presets::beluga());
        black_box(presets::narval());
    });
    rep.set("topo.preset_build_us", build * 1e6, 21);
    let enumerate = per_unit(21, 12, || {
        for &a in &gpus {
            for &b in gpus.iter().filter(|&&b| b != a) {
                black_box(enumerate_paths_auto(&topo, a, b, SEL).expect("paths"));
            }
        }
    });
    rep.set("topo.enumerate_paths_us", enumerate * 1e6, 21);

    // --- core ---
    let planner = Planner::new(topo.clone());
    let paths = enumerate_paths_auto(&topo, gpus[0], gpus[1], SEL).expect("paths");
    let cold = per_unit(11, 512, || {
        for k in 0..512 {
            black_box(planner.compute(walk_size(0, k), &paths).expect("plan"));
        }
    });
    rep.set("core.plan_cold_ns", cold * 1e9, 11);
    for &(a, b, n) in &keys {
        planner.plan(a, b, n, SEL).expect("warm plan");
    }
    let cached = per_unit(11, keys.len() * 64, || {
        for _ in 0..64 {
            for &(a, b, n) in &keys {
                black_box(planner.plan(a, b, n, SEL).expect("plan"));
            }
        }
    });
    rep.set("core.plan_cached_ns", cached * 1e9, 11);

    // --- ucx ---
    let ctx = beluga_context(UcxConfig::default());
    for &(a, b, n) in &keys {
        ctx.plan_for(a, b, n).expect("warm plan_for");
    }
    let plan_for = per_unit(11, keys.len() * 64, || {
        for _ in 0..64 {
            for &(a, b, n) in &keys {
                black_box(ctx.plan_for(a, b, n).expect("plan_for"));
            }
        }
    });
    rep.set("ucx.plan_for_ns", plan_for * 1e9, 11);
    rep.set("ucx.plan_for_overhead_ns", (plan_for - cached) * 1e9, 11);
    rep.set("core.plan_miss_2t_per_s", plan_miss_two_threads(), 1);
    let tuned = beluga_context(UcxConfig {
        mode: TuningMode::Static,
        ..UcxConfig::default()
    });
    let tune = per_unit(3, 1, || {
        black_box(tuned.tune_static(gpus[0], gpus[1], 32 * MIB).expect("tune"));
    });
    rep.set("ucx.tune_static_ms", tune * 1e3, 3);

    // --- gpu ---
    rep.set(
        "gpu.stream_enqueue_ns",
        stream_enqueue(&ctx, gpus[0], gpus[1]) * 1e9,
        101,
    );
    rep.set(
        "gpu.graph_launch_us",
        graph_launch(ctx.runtime(), &topo) * 1e6,
        101,
    );
    let rt = ctx.runtime();
    let alloc = per_unit(7, 32, || {
        black_box(rt.alloc_zeroed(gpus[0], 32 * MIB));
    });
    rep.set("gpu.alloc_us_per_mib", alloc * 1e6, 7);
    let (a, b) = (
        rt.alloc_zeroed(gpus[0], 32 * MIB),
        rt.alloc_zeroed(gpus[1], 32 * MIB),
    );
    let copy = per_unit(7, 32 * MIB, || Buffer::transfer(&a, 0, &b, 0, 32 * MIB));
    rep.set("gpu.copy_gbps", 1.0 / copy / 1e9, 7);

    // --- sim ---
    let eng = Engine::new(topo.clone());
    let links: Vec<_> = (1..4)
        .map(|j| topo.link_between(gpus[0], gpus[j]).expect("link").id)
        .collect();
    let mut start = Vec::new();
    let mut per_event = Vec::new();
    for _ in 0..201 {
        let e0 = eng.stats().events_processed;
        let t = Instant::now();
        for (i, &l) in links.iter().enumerate() {
            eng.start_flow(FlowSpec::new(vec![l], MIB + 4096 * i), OnComplete::Nothing);
        }
        start.push(util::secs_since(t) / links.len() as f64);
        let t = Instant::now();
        eng.run_until_idle();
        per_event.push(util::secs_since(t) / (eng.stats().events_processed - e0) as f64);
    }
    rep.set("sim.start_flow_ns", util::median(&start) * 1e9, start.len());
    rep.set(
        "sim.ns_per_event_small",
        util::median(&per_event) * 1e9,
        per_event.len(),
    );
    let flows: Vec<FlowDemand> = (0..64).map(|_| FlowDemand::from_route(&[0])).collect();
    let share = per_unit(11, 256, || {
        for _ in 0..256 {
            black_box(max_min_rates_fast(&[48e9], &flows));
        }
    });
    rep.set("sim.fairshare_ns_64", share * 1e9, 11);

    // --- mpi (host time of rank threads parked on the virtual clock) ---
    let world = World::new(topo.clone(), UcxConfig::default());
    let n = 64 * MIB;
    const ROUNDS: usize = 8;
    let sendrecv = per_unit(5, ROUNDS, || {
        world.run(2, move |r| {
            let buf = r.alloc(n);
            for tag in 0..ROUNDS as u64 {
                let req = if r.rank == 0 {
                    r.isend(&buf, n, 1, tag)
                } else {
                    r.irecv(&buf, n, Some(0), Some(tag))
                };
                waitall(r.thread(), &[req]);
            }
        });
    });
    rep.set("mpi.sendrecv_host_us", sendrecv * 1e6, 5);
    let coll = CollectiveConfig {
        ranks: 4,
        iterations: 2,
        warmup: 1,
    };
    let allreduce = per_unit(5, 3, || {
        black_box(allreduce_on(&world, n, AllreduceAlgo::Rabenseifner, coll));
    });
    rep.set("mpi.allreduce_host_ms", allreduce * 1e3, 5);
    let alltoall = per_unit(5, 3, || {
        black_box(alltoall_on(&world, n / 4, AlltoallAlgo::Bruck, coll));
    });
    rep.set("mpi.alltoall_host_ms", alltoall * 1e3, 5);

    // --- obs ---
    let hist = QuantileHist::new();
    let observe = per_unit(11, 100_000, || {
        for i in 0..100_000 {
            hist.observe(black_box(1e-7 * (1 + i % 97) as f64));
        }
    });
    rep.set("obs.hist_observe_ns", observe * 1e9, 11);
    let ring = FlightRecorder::default().recorder();
    let instant = per_unit(11, 10_000, || {
        for i in 0..10_000 {
            ring.instant(Phase::Plan, "pair:0->1", "plan", i as f64, "probe");
        }
    });
    rep.set("obs.instant_ns", instant * 1e9, 11);
    rep.set("obs.recorder_on_overhead_pct", recorder_overhead(), 5);
}

/// The `plan_miss` loop on two threads sharing one context: a reading
/// of shard and lock contention, too noisy on two cores to gate on.
fn plan_miss_two_threads() -> f64 {
    const PER_THREAD: usize = 40_000;
    let ctx = beluga_context(UcxConfig::default());
    let gpus = ctx.runtime().engine().topology().gpus();
    ctx.plan_for(gpus[0], gpus[1], walk_size(0, 0))
        .expect("warm");
    ctx.plan_for(gpus[2], gpus[3], walk_size(0, 0))
        .expect("warm");
    let t = Instant::now();
    std::thread::scope(|s| {
        for th in 0..2 {
            let ctx = ctx.clone();
            let (a, b) = (gpus[2 * th], gpus[2 * th + 1]);
            s.spawn(move || {
                for k in 1..=PER_THREAD {
                    black_box(
                        ctx.plan_for(a, b, walk_size(th * 104_729, k))
                            .expect("plan"),
                    );
                }
            });
        }
    });
    2.0 * PER_THREAD as f64 / util::secs_since(t)
}

/// Seconds per stream operation when the operations one interpreted
/// 32 MiB PUT issues are enqueued on bare streams.
fn stream_enqueue(ctx: &UcxContext, src: DeviceId, dst: DeviceId) -> f64 {
    let rt = ctx.runtime();
    let n = 32 * MIB;
    let plan = ctx.plan_for(src, dst, n).expect("plan");
    let paths = ctx.paths_for(src, dst, SEL).expect("paths");
    let (a, b) = (rt.alloc(src, n), rt.alloc(dst, n));
    let mut samples = Vec::new();
    for _ in 0..101 {
        let mut ops = 0usize;
        let t = Instant::now();
        for (pp, path) in plan.paths.iter().zip(paths.iter()) {
            if pp.share_bytes == 0 {
                continue;
            }
            let s1 = rt.stream(src);
            if path.legs.len() == 1 {
                s1.copy(
                    &a,
                    0,
                    &b,
                    0,
                    pp.share_bytes,
                    path.legs[0].route.clone(),
                    0.0,
                    "d",
                );
                ops += 1;
                continue;
            }
            let via = path.kind.staging_device().expect("staged path");
            let s2 = rt.stream(via);
            let k = pp.chunks.max(1) as usize;
            let len = pp.share_bytes / k;
            let slot = rt.alloc(via, len);
            for c in 0..k {
                s1.copy(
                    &a,
                    c * len,
                    &slot,
                    0,
                    len,
                    path.legs[0].route.clone(),
                    0.0,
                    "l1",
                );
                let ev = rt.event("e");
                s1.record(&ev);
                s2.wait_event(&ev);
                s2.copy(
                    &slot,
                    0,
                    &b,
                    c * len,
                    len,
                    path.legs[1].route.clone(),
                    0.0,
                    "l2",
                );
                let freed = rt.event("f");
                s2.record(&freed);
                ops += 5;
            }
        }
        samples.push(util::secs_since(t) / ops as f64);
        rt.engine().run_until_idle();
    }
    util::median(&samples)
}

/// Seconds per `TransferGraph::launch` of a graph shaped like a small
/// multi-path PUT: one direct copy and one staged path of four chunks.
fn graph_launch(rt: &GpuRuntime, topo: &Topology) -> f64 {
    let gpus = topo.gpus();
    let (src, via, dst) = (gpus[0], gpus[2], gpus[1]);
    let route = |a, b| vec![topo.link_between(a, b).expect("link").id];
    let n = 8 * MIB;
    let chunk = MIB;
    let mut g = GraphBuilder::new(rt, src, dst, n, true);
    let direct = g.stream(src);
    g.copy(
        direct,
        GraphBuf::Src,
        0,
        GraphBuf::Dst,
        0,
        4 * MIB,
        route(src, dst),
        0.0,
        true,
        "d".into(),
    );
    g.end_path(direct, 0, 0, 4 * MIB);
    let (s1, s2) = (g.stream(src), g.stream(via));
    let slot = g.staging(via, chunk);
    for c in 0..4 {
        let off = 4 * MIB + c * chunk;
        g.copy(
            s1,
            GraphBuf::Src,
            off,
            slot,
            0,
            chunk,
            route(src, via),
            0.0,
            c == 0,
            "l1".into(),
        );
        let ev = g.event();
        g.record(s1, ev);
        g.wait(s2, ev);
        g.copy(
            s2,
            slot,
            0,
            GraphBuf::Dst,
            off,
            chunk,
            route(via, dst),
            0.0,
            false,
            "l2".into(),
        );
    }
    g.end_path(s2, 1, 4 * MIB, 4 * MIB);
    let graph = g.finish();
    let (a, b) = (rt.alloc(src, n), rt.alloc(dst, n));
    let mut samples = Vec::new();
    for _ in 0..101 {
        let t = Instant::now();
        let wakers = graph.launch(&a, 0, &b, 0, 0.0, &[], None).expect("launch");
        samples.push(util::secs_since(t));
        rt.engine().run_until_idle();
        assert!(
            wakers.iter().all(|w| w.is_signaled()),
            "graph did not drain"
        );
    }
    util::median(&samples)
}

/// Cost of an always-on flight recorder on the engine, as a share of an
/// interpreted-PUT loop's wall time. The two arms alternate so a slow
/// stretch of the machine falls on both.
fn recorder_overhead() -> f64 {
    let arm = |recorder: bool| {
        let topo = Arc::new(presets::beluga());
        let eng = Engine::new(topo);
        if recorder {
            eng.set_recorder(FlightRecorder::default().recorder());
        }
        let ctx = UcxContext::new(GpuRuntime::new(eng), UcxConfig::default());
        let gpus = ctx.runtime().engine().topology().gpus();
        let n = 8 * MIB;
        let (a, b) = (
            ctx.runtime().alloc(gpus[0], n),
            ctx.runtime().alloc(gpus[1], n),
        );
        let put = || {
            black_box(ctx.put_async(&a, &b, n).expect("put"));
            ctx.runtime().engine().run_until_idle();
        };
        for _ in 0..64 {
            put();
        }
        let t = Instant::now();
        for _ in 0..2000 {
            put();
        }
        util::secs_since(t)
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        off.push(arm(false));
        on.push(arm(true));
    }
    let (off, on) = (util::median(&off), util::median(&on));
    100.0 * (on - off) / off
}
