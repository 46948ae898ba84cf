//! Reproducibility of the simulation substrate.
//!
//! Every run is exactly deterministic. Callback-structured runs order
//! event ties by insertion sequence; rank runs poll their rank tasks in
//! rank order on one thread, so two ranks acting at one virtual instant
//! reach the matching table in the same order every time. The tests below
//! therefore compare results bit for bit, and the engine's event counts
//! with them.

use mpx_omb::osu_bw_on;
use multipath_gpu::prelude::*;
use std::sync::Arc;

fn run_callback_transfer() -> (u64, u64) {
    let topo = Arc::new(presets::beluga());
    let rt = GpuRuntime::new(Engine::new(topo));
    let ctx = UcxContext::new(rt, UcxConfig::default());
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 48 << 20;
    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    ctx.put_async(&src, &dst, n).unwrap();
    ctx.runtime().engine().run_until_idle();
    let stats = ctx.runtime().engine().stats();
    (stats.now.as_nanos(), stats.events_processed)
}

#[test]
fn callback_driven_runs_are_bit_identical() {
    let first = run_callback_transfer();
    for _ in 0..3 {
        assert_eq!(run_callback_transfer(), first);
    }
}

/// A result's bits and the work the engine did for it.
fn fingerprint(results: &[f64], engine: &Engine) -> (Vec<u64>, u64, u64) {
    let s = engine.stats();
    (
        results.iter().map(|v| v.to_bits()).collect(),
        s.events_processed,
        s.events_scheduled,
    )
}

fn run_threaded_bw() -> (Vec<u64>, u64, u64) {
    let world = World::new(Arc::new(presets::beluga()), UcxConfig::default());
    let bw = osu_bw_on(&world, 16 << 20, P2pConfig::with_window(4));
    fingerprint(&[bw], world.engine())
}

#[test]
fn threaded_runs_agree_in_virtual_time() {
    let first = run_threaded_bw();
    for i in 0..3 {
        assert_eq!(run_threaded_bw(), first, "run {i}");
    }
}

#[test]
fn collective_results_stable_across_runs() {
    let run = || {
        let world = World::new(Arc::new(presets::narval()), UcxConfig::default());
        let done = world.run_tasks(4, |r| async move {
            let buf = r.alloc(8 << 20);
            mpx_mpi::allreduce_rabenseifner(&r, &buf, 8 << 20, ReduceOp::Sum).await;
            r.now().as_secs()
        });
        fingerprint(&done, world.engine())
    };
    let first = run();
    for i in 0..3 {
        assert_eq!(run(), first, "run {i}");
    }
}

/// Same seed + same fault plan ⇒ bit-identical event traces and final
/// stats. Faults are ordinary engine events, so a faulted run is exactly
/// as reproducible as a clean one.
#[test]
fn fault_injected_runs_are_bit_identical() {
    use mpx_sim::{FaultInjector, FaultPlan, FlowSpec, OnComplete};

    let run = || {
        let topo = Arc::new(presets::beluga());
        let eng = Engine::with_tracing(topo.clone(), true);
        let plan = FaultPlan::random(&topo, 0xfab, 2.0, 12);
        FaultInjector::install(&eng, &plan);
        let gpus = topo.gpus();
        for (i, (a, b)) in [(0, 1), (1, 2), (2, 3), (3, 0)].iter().enumerate() {
            let link = topo.link_between(gpus[*a], gpus[*b]).unwrap().id;
            eng.start_flow(
                FlowSpec::new(vec![link], (i + 1) * (16 << 20)),
                OnComplete::Nothing,
            );
        }
        eng.run_until(SimTime::from_secs(3.0));
        (eng.take_trace(), eng.stats())
    };
    let (trace_a, stats_a) = run();
    let (trace_b, stats_b) = run();
    assert_eq!(trace_a, trace_b, "event traces must be bit-identical");
    assert_eq!(stats_a, stats_b, "final stats must be bit-identical");
    assert!(stats_a.faults_fired > 0, "the plan must actually fire");
}

/// Different seeds produce different fault schedules (the generator is
/// actually seeded, not constant).
#[test]
fn fault_plans_differ_across_seeds() {
    use mpx_sim::FaultPlan;
    let topo = presets::beluga();
    assert_ne!(
        FaultPlan::random(&topo, 1, 2.0, 8),
        FaultPlan::random(&topo, 2, 2.0, 8)
    );
}

/// The simulator's flow accounting conserves bytes: per-link counters
/// equal exactly what the transfer plan routed over each link.
#[test]
fn link_byte_accounting_conserves_message() {
    let topo = Arc::new(presets::beluga());
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let ctx = UcxContext::new(rt, UcxConfig::default());
    let gpus = topo.gpus();
    let n = 32 << 20;
    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    ctx.put_async(&src, &dst, n).unwrap();
    ctx.runtime().engine().run_until_idle();
    let stats = ctx.runtime().engine().stats();

    // The direct link must carry exactly the direct share.
    let direct_link = topo.link_between(gpus[0], gpus[1]).unwrap().id;
    let direct_share = plan.paths[0].share_bytes as f64;
    let carried = stats.links[direct_link.index()].bytes;
    assert!(
        (carried - direct_share).abs() < 1.0,
        "direct link carried {carried}, plan said {direct_share}"
    );

    // Total bytes over all links ≥ n (staged bytes cross two links), and
    // every staged byte is accounted exactly twice per leg count.
    let expected_total: f64 = plan
        .paths
        .iter()
        .zip(
            ctx.paths_for(gpus[0], gpus[1], ctx.config().selection)
                .unwrap()
                .iter(),
        )
        .map(|(pp, path)| {
            let hops: usize = path.legs.iter().map(|l| l.route.len()).sum();
            (pp.share_bytes * hops.max(1)) as f64
        })
        .sum();
    let total: f64 = stats.links.iter().map(|l| l.bytes).sum();
    assert!(
        (total - expected_total).abs() < 1.0,
        "links carried {total}, expected {expected_total}"
    );
}
