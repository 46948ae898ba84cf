//! What a flow's life allocates, counted.
//!
//! A chunk leg that retires must not touch the heap: routes and labels are
//! shared with the op that carried them, the copy's buffers wait in the
//! stream, the fair-share demand of a shared route is folded once; and an
//! issue must not format a flow label. This binary installs a counting global
//! allocator (per thread, so the tests can run side by side) and holds the
//! drain of a PUT to an exact number and its issue to a ceiling. The payload
//! plane and the flight recorder are held the same way: the defects their
//! timing gates once watched for were each an allocation.

use multipath_gpu::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

const MIB: usize = 1 << 20;

thread_local! {
    /// Const-initialised and without a destructor, so reading it inside
    /// the allocator can neither allocate nor run after teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` counts what it grows by).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread, and the
/// bytes they ask for.
fn heap_use_in(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

fn allocations_in(f: impl FnOnce()) -> u64 {
    heap_use_in(f).0
}

fn beluga_context() -> UcxContext {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    UcxContext::new(rt, UcxConfig::default())
}

/// Heap use of the issue and of the drain of one whole-buffer PUT, after
/// three warm-up PUTs have grown every recycled table to its working size.
fn warm_put(ctx: &UcxContext, src: &Buffer, dst: &Buffer, replayed: bool) -> [(u64, u64); 2] {
    let eng = ctx.runtime().engine();
    let put = || {
        let h = if replayed {
            ctx.put_replayed(src, dst, src.len())
        } else {
            ctx.put_async(src, dst, src.len())
        };
        h.expect("PUT on a healthy fabric")
    };
    for _ in 0..3 {
        put();
        eng.run_until_idle();
    }
    let mut h = None;
    let issue = heap_use_in(|| h = Some(put()));
    let drain = heap_use_in(|| eng.run_until_idle());
    assert!(h.unwrap().is_complete());
    [issue, drain]
}

/// Allocations in the issue and in the drain of one timing-only PUT of
/// each size: `(MiB, issue, drain)`.
fn put_allocations(replayed: bool) -> Vec<(usize, u64, u64)> {
    let ctx = beluga_context();
    let gpus = ctx.runtime().engine().topology().gpus();
    [2, 8, 32, 128]
        .into_iter()
        .map(|mib| {
            let n = mib * MIB;
            let (src, dst) = (
                ctx.runtime().alloc(gpus[0], n),
                ctx.runtime().alloc(gpus[1], n),
            );
            let [(issue, _), (drain, _)] = warm_put(&ctx, &src, &dst, replayed);
            (mib, issue, drain)
        })
        .collect()
}

#[test]
fn a_replayed_put_drains_without_allocating() {
    for (mib, _, count) in put_allocations(true) {
        assert_eq!(count, 0, "{mib} MiB replayed PUT: {count} allocations");
    }
}

/// The interpreted pipeline makes its events per PUT, so the first stream
/// to park on one grows that event's waiter list; nothing else may.
#[test]
fn an_interpreted_put_drain_allocates_only_first_waiters() {
    for (mib, _, count) in put_allocations(false) {
        assert!(count <= 4, "{mib} MiB put_async: {count} allocations");
    }
}

/// An issue formats no name at all and builds only what its transfer
/// needs: a stream and one exact-capacity program per leg, one staging ring
/// per staged path, a `READY` event per chunk and a `FREED` event only
/// where a later chunk waits on it, wakers, the handle, and no completion
/// tail when nobody listens. That reads 50 / 38 / 65 / 96; an op enqueued
/// at a time, `RING_DEPTH` staging buffers per path and a `FREED` event
/// per chunk read 61 / 52 / 103 / 140. A replay allocates its programs,
/// wakers and tails, whatever the size (23 / 19 / 23 / 23).
#[test]
fn a_put_issue_allocates_within_its_ceiling() {
    let interpreted = put_allocations(false);
    for ((mib, issue, _), cap) in interpreted.into_iter().zip([55, 43, 70, 102]) {
        assert!(issue <= cap, "{mib} MiB put_async: {issue} > {cap}");
    }
    for (mib, issue, _) in put_allocations(true) {
        assert!(issue <= 23, "{mib} MiB put_replayed: {issue} > 23");
    }
}

/// Allocations a warm engine makes to start its next flow over an owned
/// `route`; building the spec and draining the flow must make none.
fn owned_route_start_allocations(route: Vec<LinkId>) -> u64 {
    let eng = Engine::new(Arc::new(presets::beluga()));
    // Grow the slab, the queues and the links' member lists first.
    for _ in 0..4 {
        eng.start_flow(FlowSpec::new(route.clone(), MIB), OnComplete::Nothing);
    }
    eng.run_until_idle();

    let mut spec = None;
    let built = allocations_in(|| spec = Some(FlowSpec::new(route, MIB)));
    assert_eq!(built, 0, "FlowSpec::new must take the Vec as it is");
    let started = allocations_in(|| {
        eng.start_flow(spec.take().unwrap(), OnComplete::Nothing);
    });
    assert_eq!(allocations_in(|| eng.run_until_idle()), 0);
    started
}

#[test]
fn a_one_link_owned_route_starts_its_flow_without_allocating() {
    let topo = presets::beluga();
    let g = topo.gpus();
    let link = topo.link_between(g[0], g[1]).unwrap().id;
    let started = owned_route_start_allocations(vec![link]);
    assert_eq!(started, 0, "a one-link demand is folded inline");
}

#[test]
fn a_multi_link_owned_route_costs_one_allocation_when_its_flow_starts() {
    let topo = presets::beluga();
    let (g, hm) = (topo.gpus(), topo.host_memories()[0]);
    let staged = [(g[0], hm), (hm, hm)].map(|(a, b)| topo.link_between(a, b).unwrap().id);
    let started = owned_route_start_allocations(staged.to_vec());
    assert_eq!(started, 1, "an owned route folds into one demand");
}

/// Directed links between every pair of beluga's GPUs.
fn gpu_pair_links(topo: &Topology) -> Vec<LinkId> {
    let gpus = topo.gpus();
    (gpus.iter().enumerate())
        .flat_map(|(i, &a)| gpus[i + 1..].iter().map(move |&b| (a, b)))
        .filter_map(|(a, b)| topo.link_between(a, b).ok().map(|l| l.id))
        .collect()
}

/// A scenario run copies each spec once and boxes each issue timer; the
/// engine starts a one-link flow without allocating, and the issue order,
/// ids, jitter factors and partition plan are a few vectors per run. That
/// reads 2.04 per flow; folding each route into a demand on start and copying
/// every route for the partitioner read 4.04.
#[test]
fn a_scenario_run_allocates_about_two_per_one_link_flow() {
    const FLOWS: usize = 4096;
    let topo = Arc::new(presets::beluga());
    let links = gpu_pair_links(&topo);
    let jitter = JitterModel {
        seed: 7,
        spread: 0.1,
    };
    let mut sc = Scenario::new(topo).with_trace(false).with_jitter(jitter);
    for i in 0..FLOWS {
        let spec = FlowSpec::new(vec![links[i % links.len()]], MIB + 4096 * (i % 64));
        sc = sc.flow_at((i / 512) as f64 * 100e-6, spec);
    }
    let per_flow = allocations_in(|| drop(sc.run_serial())) as f64 / FLOWS as f64;
    assert!(
        per_flow <= 2.3,
        "run_serial: {per_flow:.2} allocations per flow"
    );
}

/// Real bytes add one thing to an issue: taking the staging rings. The
/// runtime hands them back recycled, so a warm issue asks the heap for
/// less than one slot (≈ 10 KB); a ring allocated and zeroed per PUT asks
/// for `RING_DEPTH` slots per staged path (and cost an issue +100 us).
#[test]
fn a_warm_payload_put_issue_allocates_no_staging_slot() {
    let ctx = beluga_context();
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 32 * MIB;
    let data: Vec<u8> = (0..n).map(|i| (i * 131 % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data);
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    let [(_, issue_bytes), _] = warm_put(&ctx, &src, &dst, false);

    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let slot = (plan.paths.iter())
        .filter(|p| p.share_bytes > 0 && p.kind.staging_device().is_some())
        .map(|p| p.share_bytes / p.chunks.max(1) as usize)
        .min()
        .expect("a 32 MiB beluga PUT stages part of the message");
    assert!(
        issue_bytes < slot as u64,
        "issue asked for {issue_bytes} B, a staging slot is {slot} B"
    );
    let landed = src.with_data(|s| dst.with_data(|d| *s == *d));
    assert_eq!(landed, Some(Some(true)), "the PUT moved real bytes");
}

/// The data effect of a simulated copy is one `memcpy` between the two
/// allocations, under both locks: no temporary.
#[test]
fn a_buffer_transfer_allocates_nothing() {
    let gpus = presets::beluga().gpus();
    let n = 32 * MIB;
    let (a, b) = (
        Buffer::from_bytes(gpus[0], vec![7; n]),
        Buffer::zeroed(gpus[1], n),
    );
    assert_eq!(allocations_in(|| Buffer::transfer(&a, 0, &b, 0, n)), 0);
    assert_eq!(
        allocations_in(|| Buffer::transfer(&b, 0, &b, n / 2, n / 2)),
        0
    );
    assert!(b.with_data(|d| d.iter().all(|&x| x == 7)).unwrap());
}

/// What the always-on flight recorder costs a completed flow, counted where
/// the engine pays it: the flow's rendered name, its lane, its detail, and
/// per link of its route a track name and a copy of the other two. Off, a
/// warm drain allocates nothing; on, a one-link flow costs
/// `RECORDED_FLOW_ALLOCATIONS` (ROADMAP item 6 lowers this number).
#[test]
fn ring_recording_a_flow_allocates_within_its_ceiling() {
    const FLOWS: usize = 512;
    const RECORDED_FLOW_ALLOCATIONS: u64 = 9;
    let topo = Arc::new(presets::beluga());
    let links = gpu_pair_links(&topo);
    let eng = Engine::new(topo);
    // Flows spread over every GPU-pair link, sizes staggered so each
    // completion recomputes a link that still has live flows.
    let drain = || {
        for i in 0..FLOWS {
            let spec = FlowSpec::new(vec![links[i % links.len()]], MIB + 4096 * i);
            eng.start_flow(spec, OnComplete::Nothing);
        }
        allocations_in(|| eng.run_until_idle())
    };
    drain();
    assert_eq!(drain(), 0, "recorder off");

    let flight = FlightRecorder::default();
    eng.set_recorder(flight.recorder());
    // Always on means a full ring: from then on it only overwrites.
    while flight.overwritten() == 0 {
        drain();
    }
    let on = drain();
    assert!(
        on <= FLOWS as u64 * RECORDED_FLOW_ALLOCATIONS,
        "recorder on: {on} allocations for {FLOWS} flows"
    );
}
