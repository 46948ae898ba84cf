//! What a flow's life allocates, counted.
//!
//! A chunk leg that retires must not touch the heap: routes and labels are
//! shared with the op that carried them, the copy's buffers wait in the
//! stream, the fair-share demand of a shared route is folded once; and an
//! issue must not format a flow label. This binary installs a counting global
//! allocator (per thread, so the tests can run side by side) and holds the
//! drain of a PUT to an exact number and its issue to a ceiling.

use multipath_gpu::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

const MIB: usize = 1 << 20;

thread_local! {
    /// Const-initialised and without a destructor, so reading it inside
    /// the allocator can neither allocate nor run after teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn beluga_context() -> UcxContext {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    UcxContext::new(rt, UcxConfig::default())
}

/// Allocations in the issue and in the drain of one PUT of each size,
/// after three warm-up PUTs per size have grown every recycled table to
/// its working size: `(MiB, issue, drain)`.
fn put_allocations(replayed: bool) -> Vec<(usize, u64, u64)> {
    let ctx = beluga_context();
    let eng = ctx.runtime().engine().clone();
    let gpus = eng.topology().gpus();
    let put = |src: &Buffer, dst: &Buffer, n: usize| {
        let h = if replayed {
            ctx.put_replayed(src, dst, n)
        } else {
            ctx.put_async(src, dst, n)
        };
        h.expect("PUT on a healthy fabric")
    };
    [2, 8, 32, 128]
        .into_iter()
        .map(|mib| {
            let n = mib * MIB;
            let (src, dst) = (
                ctx.runtime().alloc(gpus[0], n),
                ctx.runtime().alloc(gpus[1], n),
            );
            for _ in 0..3 {
                put(&src, &dst, n);
                eng.run_until_idle();
            }
            let mut h = None;
            let issue = allocations_in(|| h = Some(put(&src, &dst, n)));
            let drain = allocations_in(|| eng.run_until_idle());
            assert!(h.unwrap().is_complete());
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

/// An issue formats no name at all: flow labels, wakers, streams and the
/// two events per staged chunk are all `Label`s. What is left is structure
/// — streams and their queues, events, wakers, the handle — and reads
/// 61 / 52 / 103 / 140; the parent commit, with the event names eager (two
/// allocations each), made 73 / 68 / 159 / 256. Handing each stream its
/// ops as one pre-sized program would read 61 / 50 / 92 / 122 (parked:
/// EXPERIMENTS.md "Per-stream programs"). A replay allocates its
/// programs, wakers and tails, whatever the size.
#[test]
fn a_put_issue_allocates_within_its_ceiling() {
    let interpreted = put_allocations(false);
    for ((mib, issue, _), cap) in interpreted.into_iter().zip([65, 55, 108, 145]) {
        assert!(issue <= cap, "{mib} MiB put_async: {issue} > {cap}");
    }
    for (mib, issue, _) in put_allocations(true) {
        assert!(issue <= 23, "{mib} MiB put_replayed: {issue} > 23");
    }
}

#[test]
fn an_owned_route_costs_one_allocation_when_its_flow_starts() {
    let topo = Arc::new(presets::beluga());
    let eng = Engine::new(topo.clone());
    let g = topo.gpus();
    let link = topo.link_between(g[0], g[1]).unwrap().id;
    // Grow the slab, the queues and the link's member list first.
    for _ in 0..4 {
        eng.start_flow(FlowSpec::new(vec![link], MIB), OnComplete::Nothing);
    }
    eng.run_until_idle();

    let route = vec![link];
    let mut spec = None;
    let built = allocations_in(|| spec = Some(FlowSpec::new(route, MIB)));
    assert_eq!(built, 0, "FlowSpec::new must take the Vec as it is");
    let started = allocations_in(|| {
        eng.start_flow(spec.take().unwrap(), OnComplete::Nothing);
    });
    assert_eq!(started, 1, "an owned route folds into one demand");
    assert_eq!(allocations_in(|| eng.run_until_idle()), 0);
}
