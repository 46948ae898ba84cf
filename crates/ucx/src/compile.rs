//! Lowering a [`TransferPlan`] into a compiled [`TransferGraph`], and the
//! context's pool of compiled graphs.
//!
//! [`compile_plan`] lowers from the same chunk walk as
//! [`crate::pipeline::execute_plan_at_obs`]
//! ([`crate::pipeline::StagedWalk`]: per-path shares, the `share/k` chunk
//! split, one staging buffer per staged path with the ring's slots at
//! offsets in it, a `READY` event per chunk and a `FREED` one only where a
//! later chunk waits for the slot) into a [`GraphBuilder`] capture instead of
//! live stream ops. The resulting graph moves bytes bit-identically to
//! the interpreter (same copies, same offsets, same ordering
//! constraints); what changes is the *software* cost model: per-op
//! launch/ε/rendezvous/initiation overheads are stripped, and each
//! path's first copy carries only the per-replay `first_extra` the
//! context computes at launch (one graph-launch cost plus the current
//! IPC handle-open cost). That is the capture → instantiate → replay
//! split of the follow-up CUDA-Graphs paper.
//!
//! [`GraphCache`] pools compiled graphs per `(pair, graph key)`, sharded
//! by pair exactly like the PR-3 plan caches, where the graph key is the
//! exact byte count below [`SizeClassConfig::exact_below`] and the PR-3
//! size class above it. A pool holds several instances because one graph
//! cannot overlap itself (windowed workloads replay the same key
//! concurrently); lookups that find every instance busy capture another,
//! up to [`MAX_GRAPHS_PER_KEY`], then fall back to the interpreter. The
//! same drift signals that purge plans and probed parameters
//! ([`crate::UcxContext::record_observation`], `recalibrate`) evict the
//! pair's compiled graphs, so a stale graph can never outlive the plan
//! it was compiled from.

use crate::pipeline::StagedWalk;
use mpx_gpu::{GpuRuntime, GraphBuf, GraphBuilder, TransferGraph};
use mpx_model::{PairKey, ShardedMap, SizeClassConfig, TransferPlan};
use mpx_topo::path::TransferPath;
use mpx_topo::DeviceId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Compiled-graph instances kept per `(pair, graph key)`. Bounds both
/// memory (each instance owns a staging ring) and capture churn under
/// deep transfer windows; beyond it the interpreter takes over.
pub const MAX_GRAPHS_PER_KEY: usize = 16;

/// Bit marking a graph-cache key as a size class rather than an exact
/// byte count (sizes never reach 2^63).
pub const CLASS_TAG: u64 = 1 << 63;

/// The graph-cache key for an `n`-byte transfer: exact bytes below the
/// quantization threshold, the PR-3 size class above it — identical to
/// the plan cache's keying rule, so a plan and its compiled graph always
/// live and die together.
pub fn graph_key(sc: &SizeClassConfig, n: usize) -> u64 {
    if sc.enabled && n >= sc.exact_below {
        CLASS_TAG | u64::from(sc.class_of(n))
    } else {
        n as u64
    }
}

/// Lowers `plan` over `paths` into a replayable graph: the interpreted
/// pipeline's structure op for op, from the one chunk walk; see the module
/// docs for what is deliberately *not* carried over (per-op software
/// overheads).
///
/// # Panics
/// Panics on plan/path disagreement, like the interpreter.
pub(crate) fn compile_plan(
    rt: &GpuRuntime,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src_device: DeviceId,
    dst_device: DeviceId,
    src_synthetic: bool,
) -> TransferGraph {
    assert_eq!(plan.paths.len(), paths.len(), "plan/path set mismatch");
    let mut g = GraphBuilder::new(rt, src_device, dst_device, plan.n, src_synthetic);
    let gid = g.id();
    let mut offset = 0usize;
    for (pi, (pp, path)) in plan.paths.iter().zip(paths).enumerate() {
        if pp.share_bytes == 0 {
            continue;
        }
        assert_eq!(pp.kind, path.kind, "plan/path kind mismatch at {pi}");
        let share = pp.share_bytes;
        match path.legs.len() {
            1 => {
                let s = g.stream(src_device);
                g.copy(
                    s,
                    GraphBuf::Src,
                    offset,
                    GraphBuf::Dst,
                    offset,
                    share,
                    path.legs[0].route.clone(),
                    0.0,
                    true,
                    format!("g{gid}.p{pi}.direct"),
                );
                g.end_path(s, pi, offset, share);
            }
            _ => {
                let via = path.kind.staging_device().expect("staged path");
                let s1 = g.stream(src_device);
                let s2 = g.stream(via);
                let walk = StagedWalk::new(offset, share, pp.chunks);
                let ring = g.staging(via, walk.ring_len);
                let mut freed = Vec::with_capacity(walk.freed_events);
                for ch in walk.chunks() {
                    if let Some(earlier) = ch.waits_freed {
                        g.wait(s1, freed[earlier]);
                    }
                    let c = ch.index;
                    g.copy(
                        s1,
                        GraphBuf::Src,
                        ch.off,
                        ring,
                        ch.slot_off,
                        ch.len,
                        path.legs[0].route.clone(),
                        0.0,
                        c == 0,
                        format!("g{gid}.p{pi}.c{c}.leg1"),
                    );
                    let ready = g.event();
                    g.record(s1, ready);
                    g.wait(s2, ready);
                    g.copy(
                        s2,
                        ring,
                        ch.slot_off,
                        GraphBuf::Dst,
                        ch.off,
                        ch.len,
                        path.legs[1].route.clone(),
                        0.0,
                        false,
                        format!("g{gid}.p{pi}.c{c}.leg2"),
                    );
                    if ch.records_freed {
                        freed.push(g.event());
                        g.record(s2, freed[c]);
                    }
                }
                g.end_path(s2, pi, offset, share);
            }
        }
        offset += share;
    }
    assert_eq!(offset, plan.n, "plan shares do not cover the message");
    g.finish()
}

/// The compiled instances of one `(pair, graph key)`: all captured for
/// the same byte count and payload storage class.
pub(crate) struct GraphPool {
    pub(crate) n: usize,
    pub(crate) src_synthetic: bool,
    pub(crate) graphs: Mutex<Vec<Arc<TransferGraph>>>,
}

/// Counters of the graph-replay fast path (see
/// [`crate::UcxContext::graph_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Plans compiled into graphs (pool misses and busy-pool growth).
    pub captures: u64,
    /// Transfers executed by graph replay (the first launch after a
    /// capture counts too).
    pub replays: u64,
    /// Replay-eligible transfers that ran interpreted anyway (pool at
    /// capacity with every instance busy, or a shape mismatch).
    pub fallbacks: u64,
    /// Drift/recalibration events that evicted compiled graphs.
    pub invalidations: u64,
}

/// Pool of compiled graphs, sharded by pair like every other planning
/// cache, evicted by the same drift signals.
pub(crate) struct GraphCache {
    pools: ShardedMap<(PairKey, u64), Arc<GraphPool>>,
    pub(crate) captures: AtomicU64,
    pub(crate) replays: AtomicU64,
    pub(crate) fallbacks: AtomicU64,
    invalidations: AtomicU64,
}

impl GraphCache {
    pub(crate) fn new() -> GraphCache {
        GraphCache {
            pools: ShardedMap::new(),
            captures: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The pool for `(pair, key)`, created (or replaced, when the cached
    /// pool was captured for a different byte count or storage class —
    /// e.g. a size class revisited at a new realized size) on demand.
    pub(crate) fn pool(
        &self,
        pair: &PairKey,
        key: u64,
        n: usize,
        src_synthetic: bool,
    ) -> Arc<GraphPool> {
        let full_key = (*pair, key);
        if let Some(p) = self.pools.get(pair, &full_key) {
            if p.n == n && p.src_synthetic == src_synthetic {
                return p;
            }
        }
        let fresh = Arc::new(GraphPool {
            n,
            src_synthetic,
            graphs: Mutex::new(Vec::new()),
        });
        self.pools.insert(pair, full_key, fresh.clone());
        fresh
    }

    /// Drops every compiled graph of `pair` — one shard, same locking
    /// discipline as the plan caches' `invalidate_pair`.
    pub(crate) fn invalidate_pair(&self, pair: &PairKey) {
        self.pools.retain_in_shard(pair, |k| k.0 != *pair);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops everything (recalibration).
    pub(crate) fn clear(&self) {
        self.pools.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> GraphStats {
        GraphStats {
            captures: self.captures.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RING_DEPTH;
    use mpx_model::Planner;
    use mpx_sim::Engine;
    use mpx_topo::path::{enumerate_paths, PathSelection};
    use mpx_topo::presets;
    use mpx_topo::units::MIB;

    #[test]
    fn compiled_graph_matches_interpreter_bit_for_bit() {
        let topo = Arc::new(presets::beluga());
        let rt = GpuRuntime::new(Engine::new(topo.clone()));
        let planner = Planner::new(topo.clone());
        let gpus = topo.gpus();
        let sel = PathSelection::THREE_GPUS_WITH_HOST;
        let n = 8 * MIB + 13;
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let data: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();

        // Interpreted reference.
        let src = rt.alloc_bytes(gpus[0], data.clone());
        let dst_i = rt.alloc_zeroed(gpus[1], n);
        crate::pipeline::execute_plan(&rt, &plan, &paths, &src, &dst_i, 0);
        rt.engine().run_until_idle();

        // Compiled, replayed twice into separate destinations.
        let g = compile_plan(&rt, &plan, &paths, gpus[0], gpus[1], false);
        for _ in 0..2 {
            let dst_g = rt.alloc_zeroed(gpus[1], n);
            let w = g.launch(&src, 0, &dst_g, 0, 0.0, &[], None).unwrap();
            rt.engine().run_until_idle();
            assert!(w.iter().all(|x| x.is_signaled()));
            assert_eq!(
                dst_g.to_vec().unwrap(),
                dst_i.to_vec().unwrap(),
                "replayed bytes differ from interpreted bytes"
            );
            assert_eq!(dst_g.to_vec().unwrap(), data);
        }
        assert_eq!(g.replays(), 2);
    }

    /// What a graph owns is what an interpreted issue would build: one ring
    /// of at most `RING_DEPTH` chunk-sized slots per staged path, a `READY`
    /// event per chunk and a `FREED` one only where a later chunk waits on
    /// it (`finish` refuses an event nobody waits on).
    #[test]
    fn a_compiled_graph_owns_the_interpreters_rings_and_events() {
        let topo = Arc::new(presets::beluga());
        let rt = GpuRuntime::new(Engine::new(topo.clone()));
        let gpus = topo.gpus();
        let sel = PathSelection::THREE_GPUS_WITH_HOST;
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
        let plan = (Planner::new(topo.clone()).plan(gpus[0], gpus[1], 128 * MIB, sel)).unwrap();
        let g = compile_plan(&rt, &plan, &paths, gpus[0], gpus[1], true);
        let staged = || plan.active_paths().filter(|p| !p.kind.is_direct());
        let ring_bound: usize = staged()
            .map(|p| RING_DEPTH * (p.share_bytes / p.chunks as usize + 1))
            .sum();
        assert!(g.staging_bytes() > 0 && g.staging_bytes() <= ring_bound);
        let events: usize = staged()
            .map(|p| p.chunks as usize + (p.chunks as usize).saturating_sub(RING_DEPTH))
            .sum();
        assert_eq!((g.event_count(), events), (46, 46));
    }

    #[test]
    fn graph_key_is_exact_below_threshold_and_classed_above() {
        let sc = SizeClassConfig::ENABLED;
        let below = sc.exact_below - 4;
        assert_eq!(graph_key(&sc, below), below as u64);
        let at = sc.exact_below;
        assert_eq!(graph_key(&sc, at), CLASS_TAG | u64::from(sc.class_of(at)));
        // Same class ⇒ same key; different exact sizes below ⇒ different.
        assert_eq!(graph_key(&sc, 16 * MIB), graph_key(&sc, 16 * MIB + 4096));
        assert_ne!(graph_key(&sc, below), graph_key(&sc, below - 4));
        // Disabled quantization: always exact.
        let off = SizeClassConfig::default();
        assert_eq!(graph_key(&off, 16 * MIB), (16 * MIB) as u64);
    }

    #[test]
    fn pool_is_replaced_when_shape_changes() {
        let cache = GraphCache::new();
        let pair: PairKey = (DeviceId(0), DeviceId(1), 2, true);
        let a = cache.pool(&pair, 42, 1024, true);
        let b = cache.pool(&pair, 42, 1024, true);
        assert!(Arc::ptr_eq(&a, &b), "same shape must share the pool");
        let c = cache.pool(&pair, 42, 2048, true);
        assert!(!Arc::ptr_eq(&a, &c), "size change must replace the pool");
        let d = cache.pool(&pair, 42, 2048, false);
        assert!(
            !Arc::ptr_eq(&c, &d),
            "storage-class change must replace the pool"
        );
    }
}
