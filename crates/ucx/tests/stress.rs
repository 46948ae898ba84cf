//! Multi-thread stress of the sharded planning hot path.
//!
//! Eight rank threads hammer one [`UcxContext`] with plan requests while
//! drift observations concurrently invalidate pairs out from under them.
//! The suite asserts the three properties the sharded-cache redesign
//! must preserve: no deadlock (the tests terminate), no lost
//! invalidation (every `record_observation` that reported a purge is
//! visible in [`UcxContext::cache_stats`]), and deterministic data (a
//! transfer issued through the churned context is still bit-identical).

use mpx_gpu::GpuRuntime;
use mpx_sim::{task, Engine, Label};
use mpx_topo::presets;
use mpx_topo::units::MIB;
use mpx_topo::DeviceId;
use mpx_ucx::{ParamSource, TransferPolicy, TuningMode, UcxConfig, UcxContext};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const ITERS: usize = 400;

fn stress_context() -> UcxContext {
    let topo = Arc::new(presets::beluga());
    UcxContext::new(
        GpuRuntime::new(Engine::new(topo)),
        UcxConfig {
            mode: TuningMode::Dynamic,
            params: ParamSource::Probed,
            ..UcxConfig::default()
        },
    )
}

/// Like [`stress_context`], with the compiled-graph replay fast path on
/// — the configuration the graph-eviction stress exercises. The
/// deliberately fabricated 10× drift reports below would trip the
/// health layer's replay gate (three strikes per pair) and skew the
/// exact replay/capture accounting this suite asserts, so drift-based
/// gating is parked out of reach; replay health under real faults is
/// covered by the chaos soak harness.
fn graph_stress_context() -> UcxContext {
    let topo = Arc::new(presets::beluga());
    UcxContext::new(
        GpuRuntime::new(Engine::new(topo)),
        UcxConfig {
            mode: TuningMode::Dynamic,
            params: ParamSource::Probed,
            graph_replay: true,
            health: mpx_ucx::HealthConfig {
                drift_strikes: u32::MAX,
                ..mpx_ucx::HealthConfig::default()
            },
            ..UcxConfig::default()
        },
    )
}

fn ordered_pairs(ctx: &UcxContext) -> Vec<(DeviceId, DeviceId)> {
    let gpus = ctx.runtime().engine().topology().gpus();
    (0..gpus.len())
        .flat_map(|i| {
            (0..gpus.len())
                .filter(move |&j| j != i)
                .map(move |j| (i, j))
        })
        .map(|(i, j)| (gpus[i], gpus[j]))
        .collect()
}

/// An irregular but deterministic 4-byte-aligned size walk from 1 MiB to
/// 61 MiB, so every thread mixes memo hits and misses.
fn size_at(thread: usize, i: usize) -> usize {
    let span = 60 * MIB / 4;
    MIB + 4 * ((i * 37987 + thread * 104729) % span)
}

/// Eight rank threads plan concurrently on one context while every
/// thread periodically reports a wildly drifted bandwidth, forcing its
/// pair's plans and probed parameters to be purged mid-flight. The test
/// completing at all proves the per-shard locking is deadlock-free; the
/// final counter check proves no invalidation was lost.
#[test]
fn concurrent_planning_survives_drift_invalidations() {
    let ctx = stress_context();
    let pairs = ordered_pairs(&ctx);
    assert!(pairs.len() >= THREADS);
    let purges = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for (t, &(src, dst)) in pairs.iter().enumerate().take(THREADS) {
            let ctx = ctx.clone();
            let purges = &purges;
            scope.spawn(move || {
                for i in 0..ITERS {
                    let n = size_at(t, i);
                    let plan = ctx.plan_for(src, dst, n).expect("plan under churn");
                    assert_eq!(
                        plan.paths.iter().map(|p| p.share_bytes).sum::<usize>(),
                        n,
                        "plan dropped bytes under concurrent invalidation"
                    );
                    if i % 50 == 49
                        && ctx.record_observation(src, dst, n, plan.predicted_bandwidth * 10.0)
                    {
                        purges.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let stats = ctx.cache_stats();
    let purged = purges.load(Ordering::Relaxed);
    assert!(purged > 0, "drift observations never triggered a purge");
    assert_eq!(
        stats.invalidations, purged,
        "lost invalidation: {purged} purges reported, {} recorded",
        stats.invalidations
    );
    // Every plan request resolves to exactly one of hit / miss
    // (`class_hits` always reads 0). record_observation issues one
    // internal plan request per call to fetch the prediction it compares
    // against.
    let observations = (THREADS * (ITERS / 50)) as u64;
    assert_eq!(
        stats.hits + stats.misses + stats.class_hits,
        (THREADS * ITERS) as u64 + observations,
        "every plan request must resolve to exactly one counter outcome"
    );
}

/// Plans computed under invalidation churn must still move bytes
/// bit-identically: after the storm, a fresh transfer through the same
/// context (whose tables now hold a mix of surviving and repopulated
/// plans) is verified against the source pattern.
#[test]
fn data_stays_deterministic_after_cache_churn() {
    let ctx = stress_context();
    let pairs = ordered_pairs(&ctx);

    std::thread::scope(|scope| {
        for (t, &(src, dst)) in pairs.iter().enumerate().take(THREADS) {
            let ctx = ctx.clone();
            scope.spawn(move || {
                for i in 0..100 {
                    let n = size_at(t, i);
                    let plan = ctx.plan_for(src, dst, n).expect("plan");
                    if i % 25 == 24 {
                        ctx.record_observation(src, dst, n, plan.predicted_bandwidth * 10.0);
                    }
                }
            });
        }
    });

    for &(a, b) in &pairs[..2] {
        let n = 8 * MIB + 12345;
        let data: Vec<u8> = (0..n).map(|i| (i * 131 % 251) as u8).collect();
        let src = ctx.runtime().alloc_bytes(a, data.clone());
        let dst = ctx.runtime().alloc_zeroed(b, n);
        let h = ctx.put_async(&src, &dst, n).expect("put");
        ctx.runtime().engine().run_until_idle();
        assert!(h.is_complete());
        assert_eq!(
            dst.to_vec().expect("readback"),
            data,
            "transfer corrupted after cache churn"
        );
    }
}

/// Drift invalidation must evict *compiled graphs*, not just plans,
/// under eight concurrent ranks: eight rank tasks replay their own
/// (pair, size) through plain transfers while periodically reporting a
/// 10× drifted bandwidth. With per-rank pairs and sequential puts the
/// counters are exactly determined: every put replays a graph, every
/// purge forces exactly one re-capture, and nothing ever falls back to
/// the interpreter — a stale graph surviving an eviction would surface
/// as a missing capture (and wrong bytes if the schedule drifted).
#[test]
fn graph_eviction_is_not_lost_under_concurrent_replay() {
    const GRAPH_ITERS: usize = 60;
    let ctx = graph_stress_context();
    let pairs = ordered_pairs(&ctx);
    let purges = AtomicU64::new(0);

    let ranks = (0..THREADS).map(|t| {
        let (src_dev, dst_dev) = pairs[t];
        let (ctx, purges) = (&ctx, &purges);
        let rank = async move {
            // Fixed per-rank size (4-aligned, 2 to 23 MiB across ranks)
            // and persistent buffers, so each rank replays one compiled
            // graph repeatedly.
            let n = (2 * MIB + t * 3 * MIB + 4 * t) & !3;
            let data: Vec<u8> = (0..n).map(|i| ((i * 17 + t) % 251) as u8).collect();
            let src = ctx.runtime().alloc_bytes(src_dev, data.clone());
            let dst = ctx.runtime().alloc_zeroed(dst_dev, n);
            for i in 0..GRAPH_ITERS {
                (ctx.transfer(&src, &dst, n, &TransferPolicy::PLAIN).await).expect("replayed put");
                assert_eq!(
                    dst.to_vec().expect("readback"),
                    data,
                    "rank {t} iter {i}: replayed bytes corrupted"
                );
                // Purge points sit mid-run (never on the final
                // iteration), so every eviction is followed by at
                // least one put that must re-capture.
                if i % 20 == 9 {
                    let plan = ctx.plan_for(src_dev, dst_dev, n).expect("plan");
                    if ctx.record_observation(src_dev, dst_dev, n, plan.predicted_bandwidth * 10.0)
                    {
                        purges.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        };
        (Label::from(format!("rank{t}")), rank)
    });
    task::run(ctx.runtime().engine(), ranks);

    let purged = purges.load(Ordering::Relaxed);
    assert!(purged > 0, "drift observations never purged anything");
    let g = ctx.graph_stats();
    assert_eq!(
        g.replays,
        (THREADS * GRAPH_ITERS) as u64,
        "every put must have replayed a compiled graph: {g:?}"
    );
    assert_eq!(
        g.captures,
        THREADS as u64 + purged,
        "each purge must evict the pair's graph and force one re-capture: {g:?}"
    );
    assert_eq!(g.fallbacks, 0, "no interpreted fallback expected: {g:?}");
    assert_eq!(
        g.invalidations, purged,
        "graph-cache invalidations must match reported purges: {g:?}"
    );
}

/// Stats snapshots are served from atomics and must keep flowing while
/// rank threads hold the planning locks hot. A reader thread takes a
/// large fixed number of snapshots concurrently with the planners and
/// must observe monotonically non-decreasing counters throughout.
#[test]
fn stats_reads_do_not_block_planning() {
    let ctx = stress_context();
    let pairs = ordered_pairs(&ctx);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let reader_ctx = ctx.clone();
        let reader = scope.spawn(|| {
            let ctx = reader_ctx;
            let mut last = 0u64;
            let mut snapshots = 0u64;
            while !done.load(Ordering::Relaxed) {
                let s = ctx.cache_stats();
                let total = s.hits + s.misses + s.class_hits;
                assert!(total >= last, "counters went backwards");
                last = total;
                snapshots += 1;
            }
            snapshots
        });

        let planners: Vec<_> = (0..THREADS)
            .map(|t| {
                let ctx = ctx.clone();
                let (src, dst) = pairs[t];
                scope.spawn(move || {
                    for i in 0..ITERS {
                        ctx.plan_for(src, dst, size_at(t, i)).expect("plan");
                    }
                })
            })
            .collect();
        // The reader keeps snapshotting for the planners' entire
        // lifetime; it is released only after they all joined, so every
        // snapshot raced live planning.
        for h in planners {
            h.join().expect("planner panicked");
        }
        done.store(true, Ordering::Relaxed);
        let snapshots = reader.join().expect("stats reader panicked");
        assert!(snapshots > 0, "stats reader never ran");
    });
}
