//! OSU-style collective latency tests: `osu_allreduce` and
//! `osu_alltoall` over all GPUs of the node (paper Section 5.3).

use mpx_gpu::ReduceOp;
use mpx_mpi::{
    allgather_recursive_doubling, allgather_ring, allreduce_rabenseifner, allreduce_ring,
    alltoall_bruck, alltoall_pairwise, bcast_binomial, World,
};
use mpx_topo::Topology;
use mpx_ucx::UcxConfig;
use std::sync::Arc;

/// Which allreduce algorithm to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Recursive K-nomial scatter-reduce + allgather (UCP's large-message
    /// choice; the paper's configuration).
    Rabenseifner,
    /// Ring (ablation baseline).
    Ring,
}

/// Which alltoall algorithm to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlltoallAlgo {
    /// Bruck (UCP's choice; the paper's configuration).
    Bruck,
    /// Pairwise exchange (ablation baseline).
    Pairwise,
}

/// Collective measurement parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Number of ranks (defaults to every GPU on the node).
    pub ranks: usize,
    /// Timed iterations.
    pub iterations: usize,
    /// Untimed warmup iterations.
    pub warmup: usize,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            ranks: 4,
            iterations: 3,
            warmup: 1,
        }
    }
}

/// Mean MPI_Allreduce latency (seconds) for an `n`-byte per-rank buffer.
pub fn osu_allreduce(
    topo: &Arc<Topology>,
    ucx: UcxConfig,
    n: usize,
    algo: AllreduceAlgo,
    cfg: CollectiveConfig,
) -> f64 {
    allreduce_on(&World::new(topo.clone(), ucx), n, algo, cfg)
}

/// [`osu_allreduce`] on an existing world.
pub fn allreduce_on(world: &World, n: usize, algo: AllreduceAlgo, cfg: CollectiveConfig) -> f64 {
    assert!(n > 0 && cfg.iterations > 0);
    assert_eq!(n % (4 * cfg.ranks), 0, "n must be a multiple of 4*ranks");
    let results = world.run_tasks(cfg.ranks, |r| async move {
        let buf = r.alloc(n);
        let mut t0 = r.now();
        for it in 0..cfg.warmup + cfg.iterations {
            if it == cfg.warmup {
                r.barrier().await;
                t0 = r.now();
            }
            match algo {
                AllreduceAlgo::Rabenseifner => {
                    allreduce_rabenseifner(&r, &buf, n, ReduceOp::Sum).await
                }
                AllreduceAlgo::Ring => allreduce_ring(&r, &buf, n, ReduceOp::Sum).await,
            }
        }
        r.now().secs_since(t0) / cfg.iterations as f64
    });
    results.into_iter().fold(0.0, f64::max)
}

/// Mean MPI_Alltoall latency (seconds). `n` is the per-destination block
/// size (each rank sends `n` bytes to every other rank, OSU convention).
pub fn osu_alltoall(
    topo: &Arc<Topology>,
    ucx: UcxConfig,
    n: usize,
    algo: AlltoallAlgo,
    cfg: CollectiveConfig,
) -> f64 {
    alltoall_on(&World::new(topo.clone(), ucx), n, algo, cfg)
}

/// [`osu_alltoall`] on an existing world.
pub fn alltoall_on(world: &World, n: usize, algo: AlltoallAlgo, cfg: CollectiveConfig) -> f64 {
    assert!(n > 0 && cfg.iterations > 0);
    let results = world.run_tasks(cfg.ranks, |r| async move {
        let send = r.alloc(cfg.ranks * n);
        let recv = r.alloc(cfg.ranks * n);
        let mut t0 = r.now();
        for it in 0..cfg.warmup + cfg.iterations {
            if it == cfg.warmup {
                r.barrier().await;
                t0 = r.now();
            }
            match algo {
                AlltoallAlgo::Bruck => alltoall_bruck(&r, &send, &recv, n).await,
                AlltoallAlgo::Pairwise => alltoall_pairwise(&r, &send, &recv, n).await,
            }
        }
        r.now().secs_since(t0) / cfg.iterations as f64
    });
    results.into_iter().fold(0.0, f64::max)
}

/// Which allgather algorithm to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgo {
    /// Recursive doubling (power-of-two worlds).
    RecursiveDoubling,
    /// Ring (any world size).
    Ring,
}

/// Mean MPI_Bcast latency (seconds) for an `n`-byte buffer from rank 0.
pub fn osu_bcast(topo: &Arc<Topology>, ucx: UcxConfig, n: usize, cfg: CollectiveConfig) -> f64 {
    bcast_on(&World::new(topo.clone(), ucx), n, cfg)
}

/// [`osu_bcast`] on an existing world.
pub fn bcast_on(world: &World, n: usize, cfg: CollectiveConfig) -> f64 {
    assert!(n > 0 && cfg.iterations > 0);
    let results = world.run_tasks(cfg.ranks, |r| async move {
        let buf = r.alloc(n);
        let mut t0 = r.now();
        for it in 0..cfg.warmup + cfg.iterations {
            if it == cfg.warmup {
                r.barrier().await;
                t0 = r.now();
            }
            bcast_binomial(&r, &buf, n, 0).await;
        }
        r.now().secs_since(t0) / cfg.iterations as f64
    });
    results.into_iter().fold(0.0, f64::max)
}

/// Mean MPI_Allgather latency (seconds); `n` is the per-rank block size.
pub fn osu_allgather(
    topo: &Arc<Topology>,
    ucx: UcxConfig,
    n: usize,
    algo: AllgatherAlgo,
    cfg: CollectiveConfig,
) -> f64 {
    assert!(n > 0 && cfg.iterations > 0);
    let world = World::new(topo.clone(), ucx);
    let results = world.run_tasks(cfg.ranks, |r| async move {
        let buf = r.alloc(cfg.ranks * n);
        let mut t0 = r.now();
        for it in 0..cfg.warmup + cfg.iterations {
            if it == cfg.warmup {
                r.barrier().await;
                t0 = r.now();
            }
            match algo {
                AllgatherAlgo::RecursiveDoubling => allgather_recursive_doubling(&r, &buf, n).await,
                AllgatherAlgo::Ring => allgather_ring(&r, &buf, n).await,
            }
        }
        r.now().secs_since(t0) / cfg.iterations as f64
    });
    results.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;
    use mpx_ucx::TuningMode;

    fn cfg(mode: TuningMode) -> UcxConfig {
        UcxConfig {
            mode,
            // Collectives exclude the host path (paper Section 5.3: host
            // staging degrades under bidirectional contention).
            selection: mpx_topo::PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        }
    }

    #[test]
    fn allreduce_latency_positive_and_scales() {
        let topo = Arc::new(presets::beluga());
        let small = osu_allreduce(
            &topo,
            cfg(TuningMode::SinglePath),
            4 * MIB,
            AllreduceAlgo::Rabenseifner,
            CollectiveConfig::default(),
        );
        let large = osu_allreduce(
            &topo,
            cfg(TuningMode::SinglePath),
            64 * MIB,
            AllreduceAlgo::Rabenseifner,
            CollectiveConfig::default(),
        );
        assert!(small > 0.0);
        assert!(large > 4.0 * small, "64M {large} vs 4M {small}");
    }

    #[test]
    fn multi_path_speeds_up_allreduce() {
        let topo = Arc::new(presets::beluga());
        let n = 64 * MIB;
        let single = osu_allreduce(
            &topo,
            cfg(TuningMode::SinglePath),
            n,
            AllreduceAlgo::Rabenseifner,
            CollectiveConfig::default(),
        );
        let multi = osu_allreduce(
            &topo,
            cfg(TuningMode::Dynamic),
            n,
            AllreduceAlgo::Rabenseifner,
            CollectiveConfig::default(),
        );
        let speedup = single / multi;
        assert!(
            (1.05..2.0).contains(&speedup),
            "allreduce speedup {speedup}"
        );
    }

    #[test]
    fn multi_path_speeds_up_alltoall_more_than_allreduce() {
        // Observation 3: Alltoall gains more because it has no compute.
        let topo = Arc::new(presets::beluga());
        let n = 16 * MIB;
        let coll = CollectiveConfig::default();
        let ar_single = osu_allreduce(
            &topo,
            cfg(TuningMode::SinglePath),
            4 * n,
            AllreduceAlgo::Rabenseifner,
            coll,
        );
        let ar_multi = osu_allreduce(
            &topo,
            cfg(TuningMode::Dynamic),
            4 * n,
            AllreduceAlgo::Rabenseifner,
            coll,
        );
        let a2a_single = osu_alltoall(
            &topo,
            cfg(TuningMode::SinglePath),
            n,
            AlltoallAlgo::Bruck,
            coll,
        );
        let a2a_multi = osu_alltoall(
            &topo,
            cfg(TuningMode::Dynamic),
            n,
            AlltoallAlgo::Bruck,
            coll,
        );
        let ar_speedup = ar_single / ar_multi;
        let a2a_speedup = a2a_single / a2a_multi;
        assert!(
            a2a_speedup > ar_speedup,
            "alltoall {a2a_speedup} should gain more than allreduce {ar_speedup}"
        );
    }

    #[test]
    fn bcast_multipath_speedup() {
        let topo = Arc::new(presets::beluga());
        let n = 64 * MIB;
        let coll = CollectiveConfig::default();
        let single = osu_bcast(&topo, cfg(TuningMode::SinglePath), n, coll);
        let multi = osu_bcast(&topo, cfg(TuningMode::Dynamic), n, coll);
        let speedup = single / multi;
        assert!(
            speedup > 1.2,
            "bcast speedup {speedup} (single {single}, multi {multi})"
        );
    }

    #[test]
    fn allgather_algorithms_scale_with_size() {
        let topo = Arc::new(presets::beluga());
        let coll = CollectiveConfig::default();
        let small = osu_allgather(
            &topo,
            cfg(TuningMode::SinglePath),
            MIB,
            AllgatherAlgo::RecursiveDoubling,
            coll,
        );
        let large = osu_allgather(
            &topo,
            cfg(TuningMode::SinglePath),
            16 * MIB,
            AllgatherAlgo::RecursiveDoubling,
            coll,
        );
        assert!(large > 4.0 * small, "16M {large} vs 1M {small}");
        let ring = osu_allgather(
            &topo,
            cfg(TuningMode::SinglePath),
            16 * MIB,
            AllgatherAlgo::Ring,
            coll,
        );
        assert!(ring > 0.0);
    }

    #[test]
    fn pairwise_and_bruck_both_complete() {
        let topo = Arc::new(presets::beluga());
        let n = 4 * MIB;
        let coll = CollectiveConfig::default();
        let bruck = osu_alltoall(
            &topo,
            cfg(TuningMode::Dynamic),
            n,
            AlltoallAlgo::Bruck,
            coll,
        );
        let pairwise = osu_alltoall(
            &topo,
            cfg(TuningMode::Dynamic),
            n,
            AlltoallAlgo::Pairwise,
            coll,
        );
        assert!(bruck > 0.0 && pairwise > 0.0);
    }
}
