//! UCC-style algorithm selection: pick the collective algorithm from the
//! message size and world size, the way UCC's CL/TL scoring does (paper
//! Section 5.3 pins the large-message choices this table reproduces:
//! K-nomial scatter-reduce + allgather for Allreduce, Bruck for
//! Alltoall).

use crate::collective::{
    allreduce_rabenseifner, allreduce_ring, alltoall_bruck, alltoall_pairwise, bcast_binomial,
    bcast_scatter_allgather,
};
use crate::world::Rank;
use mpx_gpu::{Buffer, ReduceOp};
use mpx_obs::Phase;

/// Runs `f` as a `collective` span on this rank's telemetry track
/// (`rank{i}`) when a recorder is attached; otherwise just runs it.
fn with_span<R>(r: &Rank, name: &str, detail: String, f: impl FnOnce() -> R) -> R {
    match r.context().recorder().cloned() {
        None => f(),
        Some(rec) => {
            let t0 = r.now().as_secs();
            let out = f();
            rec.span(
                Phase::Collective,
                format!("rank{}", r.rank),
                name,
                t0,
                r.now().as_secs(),
                detail,
            );
            out
        }
    }
}

/// Allreduce algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceChoice {
    /// Recursive halving/doubling (K-nomial radix 2).
    Rabenseifner,
    /// Ring (bandwidth-optimal, higher latency; also the fallback for
    /// non-power-of-two worlds).
    Ring,
}

/// Alltoall algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlltoallChoice {
    /// Bruck: ⌈log₂ p⌉ rounds, extra pack traffic — wins for small
    /// blocks where per-message latency dominates.
    Bruck,
    /// Pairwise exchange: p−1 rounds, minimal volume — wins for large
    /// blocks.
    Pairwise,
}

/// Block-size threshold between Bruck and pairwise alltoall. Bruck moves
/// each block ~log₂(p)/2 extra times, so once a block is large enough
/// that bandwidth dominates latency, pairwise wins. 256 KiB matches the
/// crossovers the `ablations` binary measures (ablation 4).
pub const ALLTOALL_BRUCK_MAX_BLOCK: usize = 256 << 10;

/// Selects the allreduce algorithm for an `n`-byte buffer on `ranks`
/// ranks.
pub fn select_allreduce(ranks: usize, _n: usize) -> AllreduceChoice {
    if ranks.is_power_of_two() {
        // UCP's large-message default (the paper's configuration).
        AllreduceChoice::Rabenseifner
    } else {
        AllreduceChoice::Ring
    }
}

/// Selects the alltoall algorithm for `block`-byte per-destination
/// blocks on `ranks` ranks.
pub fn select_alltoall(ranks: usize, block: usize) -> AlltoallChoice {
    if ranks <= 2 || block <= ALLTOALL_BRUCK_MAX_BLOCK {
        AlltoallChoice::Bruck
    } else {
        AlltoallChoice::Pairwise
    }
}

/// Broadcast algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastChoice {
    /// Binomial tree: ⌈log₂ p⌉ rounds each moving the whole buffer —
    /// latency-optimal, wins for small messages.
    Binomial,
    /// Van de Geijn scatter + ring allgather: every byte crosses the
    /// wire ~2(p−1)/p times total — bandwidth-optimal, wins for large
    /// messages.
    ScatterAllgather,
}

/// Size threshold between the binomial and van de Geijn broadcasts. The
/// binomial tree ships `log₂(p)·n` total; scatter-allgather ships
/// `~2n` — the crossover sits where per-message latency stops mattering.
pub const BCAST_BINOMIAL_MAX: usize = 1 << 20;

/// Selects the broadcast algorithm for an `n`-byte buffer on `ranks`
/// ranks.
pub fn select_bcast(ranks: usize, n: usize) -> BcastChoice {
    if ranks <= 2 || n <= BCAST_BINOMIAL_MAX || !n.is_multiple_of(ranks) {
        BcastChoice::Binomial
    } else {
        BcastChoice::ScatterAllgather
    }
}

/// MPI_Bcast with automatic algorithm selection.
pub fn bcast(r: &Rank, buf: &Buffer, n: usize, root: usize) {
    let choice = select_bcast(r.size, n);
    with_span(
        r,
        "bcast",
        format!("{choice:?} n={n} root={root}"),
        || match choice {
            BcastChoice::Binomial => bcast_binomial(r, buf, n, root),
            BcastChoice::ScatterAllgather => bcast_scatter_allgather(r, buf, n, root),
        },
    )
}

/// MPI_Allreduce with automatic algorithm selection.
pub fn allreduce(r: &Rank, buf: &Buffer, n: usize, op: ReduceOp) {
    let choice = select_allreduce(r.size, n);
    with_span(
        r,
        "allreduce",
        format!("{choice:?} n={n}"),
        || match choice {
            AllreduceChoice::Rabenseifner => allreduce_rabenseifner(r, buf, n, op),
            AllreduceChoice::Ring => allreduce_ring(r, buf, n, op),
        },
    )
}

/// MPI_Alltoall with automatic algorithm selection.
pub fn alltoall(r: &Rank, send: &Buffer, recv: &Buffer, block: usize) {
    let choice = select_alltoall(r.size, block);
    with_span(
        r,
        "alltoall",
        format!("{choice:?} block={block}"),
        || match choice {
            AlltoallChoice::Bruck => alltoall_bruck(r, send, recv, block),
            AlltoallChoice::Pairwise => alltoall_pairwise(r, send, recv, block),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use mpx_gpu::reduce::{bytes_f32, f32_bytes};
    use mpx_topo::presets;
    use mpx_ucx::UcxConfig;
    use std::sync::Arc;

    #[test]
    fn allreduce_selection_honours_world_shape() {
        assert_eq!(select_allreduce(4, 1 << 20), AllreduceChoice::Rabenseifner);
        assert_eq!(select_allreduce(2, 1 << 10), AllreduceChoice::Rabenseifner);
        assert_eq!(select_allreduce(3, 1 << 20), AllreduceChoice::Ring);
    }

    #[test]
    fn alltoall_selection_crosses_over_on_block_size() {
        assert_eq!(select_alltoall(4, 64 << 10), AlltoallChoice::Bruck);
        assert_eq!(select_alltoall(4, 4 << 20), AlltoallChoice::Pairwise);
        // Two ranks: Bruck degenerates to one exchange; always fine.
        assert_eq!(select_alltoall(2, 64 << 20), AlltoallChoice::Bruck);
    }

    #[test]
    fn bcast_selection_by_size() {
        assert_eq!(select_bcast(4, 64 << 10), BcastChoice::Binomial);
        assert_eq!(select_bcast(4, 64 << 20), BcastChoice::ScatterAllgather);
        assert_eq!(select_bcast(2, 64 << 20), BcastChoice::Binomial);
        // Non-divisible sizes fall back to binomial (vdG needs n % p == 0).
        assert_eq!(select_bcast(4, (64 << 20) + 3), BcastChoice::Binomial);
    }

    #[test]
    fn auto_bcast_correct_in_both_regimes() {
        for n in [64 << 10, 16 << 20] {
            let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
            let out = w.run(4, move |r| {
                let buf = if r.rank == 1 {
                    r.alloc_bytes((0..n).map(|i| (i % 249) as u8).collect())
                } else {
                    r.alloc_zeroed(n)
                };
                bcast(&r, &buf, n, 1);
                buf.to_vec().unwrap()
            });
            let want: Vec<u8> = (0..n).map(|i| (i % 249) as u8).collect();
            for (rank, got) in out.iter().enumerate() {
                assert_eq!(got, &want, "n={n} rank {rank}");
            }
        }
    }

    #[test]
    fn vdg_beats_binomial_for_large_messages() {
        let time_bcast = |n: usize, choice: BcastChoice| {
            let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
            let times = w.run(4, move |r| {
                let buf = r.alloc(n);
                r.barrier();
                let t0 = r.now();
                match choice {
                    BcastChoice::Binomial => crate::collective::bcast_binomial(&r, &buf, n, 0),
                    BcastChoice::ScatterAllgather => {
                        crate::collective::bcast_scatter_allgather(&r, &buf, n, 0)
                    }
                }
                r.now().secs_since(t0)
            });
            times.into_iter().fold(0.0f64, f64::max)
        };
        let n = 64 << 20;
        let binomial = time_bcast(n, BcastChoice::Binomial);
        let vdg = time_bcast(n, BcastChoice::ScatterAllgather);
        assert!(
            vdg < binomial * 0.75,
            "vdG {vdg} should clearly beat binomial {binomial} at 64 MB"
        );
    }

    #[test]
    fn auto_allreduce_works_for_non_power_of_two() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let out = w.run(3, |r| {
            let buf = r.alloc_bytes(f32_bytes(&[(r.rank + 1) as f32; 12]));
            allreduce(&r, &buf, 48, ReduceOp::Sum);
            bytes_f32(&buf.to_vec().unwrap())
        });
        for got in &out {
            assert!(got.iter().all(|&v| v == 6.0), "{got:?}");
        }
    }

    #[test]
    fn collectives_record_spans_on_rank_tracks() {
        use mpx_gpu::GpuRuntime;
        use mpx_sim::Engine;

        let eng = Engine::new(Arc::new(presets::beluga()));
        let rec = mpx_obs::Recorder::new();
        eng.set_recorder(rec.clone());
        let w = World::over(GpuRuntime::new(eng), UcxConfig::default());
        let n = 1 << 20;
        w.run(4, move |r| {
            let buf = r.alloc(n);
            allreduce(&r, &buf, n, ReduceOp::Sum);
        });
        let events = rec.drain();
        let collective_tracks: Vec<&str> = events
            .iter()
            .filter(|e| e.phase() == mpx_obs::Phase::Collective)
            .map(|e| e.track())
            .collect();
        for i in 0..4 {
            let track = format!("rank{i}");
            assert!(
                collective_tracks.contains(&track.as_str()),
                "no collective span on {track}: {collective_tracks:?}"
            );
        }
    }

    #[test]
    fn auto_alltoall_matches_fixed_algorithms() {
        let run = |block: usize| {
            let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
            w.run(4, move |r| {
                let sdata: Vec<u8> = (0..4)
                    .flat_map(|d| vec![(r.rank * 4 + d + 1) as u8; block])
                    .collect();
                let send = r.alloc_bytes(sdata);
                let recv = r.alloc_zeroed(4 * block);
                alltoall(&r, &send, &recv, block);
                recv.to_vec().unwrap()
            })
        };
        // Small block (Bruck regime) and large block (pairwise regime)
        // must both deliver correct placement.
        for block in [16 << 10, 1 << 20] {
            let out = run(block);
            for (rank, got) in out.iter().enumerate() {
                let want: Vec<u8> = (0..4)
                    .flat_map(|src| vec![(src * 4 + rank + 1) as u8; block])
                    .collect();
                assert_eq!(got, &want, "rank {rank}, block {block}");
            }
        }
    }
}
