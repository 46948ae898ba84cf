//! Allreduce: recursive-halving scatter-reduce followed by a
//! recursive-doubling allgather — the "recursive K-nomial scatter-reduce
//! followed by K-nomial allgather" UCP uses for large messages (paper
//! Section 5.3), at radix 2. A ring variant is provided as an ablation
//! baseline.
//!
//! Every receive lands in a temporary buffer and is combined with a
//! reduction kernel on the rank's GPU, so the compute overhead the paper's
//! Observation 3 attributes to MPI_Allreduce is charged faithfully.

use crate::collective::allgather::allgather_recursive_doubling;
use crate::world::Rank;
use mpx_gpu::{Buffer, ReduceOp};

const TAG: u64 = 1 << 52;

/// In-place allreduce over `buf[..n]` (power-of-two world sizes).
///
/// `n` must be divisible by `4·size` so f32 block boundaries stay
/// aligned.
pub async fn allreduce_rabenseifner(r: &Rank, buf: &Buffer, n: usize, op: ReduceOp) {
    let p = r.size;
    assert!(
        p.is_power_of_two(),
        "scatter-reduce allreduce needs 2^k ranks"
    );
    if p == 1 {
        return;
    }
    assert_eq!(n % (4 * p), 0, "n must be a multiple of 4*size");
    let tmp = scratch_like(r, buf, n / 2);

    // Phase 1: recursive halving scatter-reduce. After the loop each rank
    // owns the fully reduced block `[rank*block, (rank+1)*block)`.
    let mut lo = 0usize;
    let mut hi = n;
    let mut mask = p / 2;
    let mut round = 0u64;
    while mask >= 1 {
        let partner = r.rank ^ mask;
        let mid = lo + (hi - lo) / 2;
        // The half containing my final block stays; the other half goes to
        // the partner (who keeps that side).
        let keep_low = r.rank & mask == 0;
        let (keep, send) = if keep_low {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        let len = keep.1 - keep.0;
        r.sendrecv(
            buf,
            send.0,
            send.1 - send.0,
            partner,
            &tmp,
            0,
            len,
            partner,
            TAG + round,
        )
        .await;
        r.reduce_local(op, &tmp, 0, buf, keep.0, len).await;
        lo = keep.0;
        hi = keep.1;
        mask >>= 1;
        round += 1;
    }
    debug_assert_eq!(hi - lo, n / p);
    debug_assert_eq!(lo, r.rank * (n / p));

    // Phase 2: recursive-doubling allgather of the reduced blocks.
    allgather_recursive_doubling(r, buf, n / p).await;
}

/// Ring allreduce (reduce-scatter ring + allgather ring) — the classic
/// bandwidth-optimal alternative; works for any world size. Ablation
/// baseline for the K-nomial algorithm above.
pub async fn allreduce_ring(r: &Rank, buf: &Buffer, n: usize, op: ReduceOp) {
    let p = r.size;
    if p == 1 {
        return;
    }
    assert_eq!(n % (4 * p), 0, "n must be a multiple of 4*size");
    let block = n / p;
    let tmp = scratch_like(r, buf, block);
    let right = (r.rank + 1) % p;
    let left = (r.rank + p - 1) % p;

    // Reduce-scatter ring: after p-1 steps, rank owns block (rank+1) % p
    // fully reduced.
    for s in 0..p - 1 {
        let send_block = (r.rank + p - s) % p;
        let recv_block = (r.rank + p - s - 1) % p;
        r.sendrecv(
            buf,
            send_block * block,
            block,
            right,
            &tmp,
            0,
            block,
            left,
            TAG + (1 << 10) + s as u64,
        )
        .await;
        r.reduce_local(op, &tmp, 0, buf, recv_block * block, block)
            .await;
    }
    // Allgather ring over the reduced blocks.
    for s in 0..p - 1 {
        let send_block = (r.rank + 1 + p - s) % p;
        let recv_block = (r.rank + p - s) % p;
        r.sendrecv(
            buf,
            send_block * block,
            block,
            right,
            buf,
            recv_block * block,
            block,
            left,
            TAG + (1 << 11) + s as u64,
        )
        .await;
    }
}

fn scratch_like(r: &Rank, like: &Buffer, n: usize) -> Buffer {
    r.scratch(n, !like.is_synthetic(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::AllreduceChoice;
    use crate::world::World;
    use mpx_gpu::reduce::{bytes_f32, f32_bytes};
    use mpx_topo::presets;
    use mpx_ucx::UcxConfig;
    use std::sync::Arc;

    fn run_allreduce(algo: AllreduceChoice, ranks: usize, elems: usize) -> Vec<Vec<f32>> {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        w.run_tasks(ranks, |r| async move {
            let vals: Vec<f32> = (0..elems)
                .map(|i| (r.rank + 1) as f32 * (i + 1) as f32)
                .collect();
            let buf = r.alloc_bytes(f32_bytes(&vals));
            match algo {
                AllreduceChoice::Rabenseifner => {
                    allreduce_rabenseifner(&r, &buf, elems * 4, ReduceOp::Sum).await
                }
                AllreduceChoice::Ring => allreduce_ring(&r, &buf, elems * 4, ReduceOp::Sum).await,
            }
            bytes_f32(&buf.to_vec().unwrap())
        })
    }

    fn expected_sum(ranks: usize, elems: usize) -> Vec<f32> {
        let factor: f32 = (1..=ranks).map(|x| x as f32).sum();
        (0..elems).map(|i| factor * (i + 1) as f32).collect()
    }

    #[test]
    fn rabenseifner_sums_across_four_ranks() {
        let out = run_allreduce(AllreduceChoice::Rabenseifner, 4, 256);
        let want = expected_sum(4, 256);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &want, "rank {i} result wrong");
        }
    }

    #[test]
    fn rabenseifner_two_ranks() {
        let out = run_allreduce(AllreduceChoice::Rabenseifner, 2, 64);
        let want = expected_sum(2, 64);
        for got in &out {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn ring_matches_rabenseifner() {
        let a = run_allreduce(AllreduceChoice::Ring, 4, 128);
        let b = run_allreduce(AllreduceChoice::Rabenseifner, 4, 128);
        assert_eq!(a, b);
    }

    #[test]
    fn max_reduction() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let out = w.run_tasks(4, |r| async move {
            let vals = vec![
                r.rank as f32,
                10.0 - r.rank as f32,
                -(r.rank as f32),
                r.rank as f32 * 2.0,
            ];
            let buf = r.alloc_bytes(f32_bytes(&vals));
            allreduce_rabenseifner(&r, &buf, 16, ReduceOp::Max).await;
            bytes_f32(&buf.to_vec().unwrap())
        });
        for got in &out {
            assert_eq!(got, &vec![3.0, 10.0, 0.0, 6.0]);
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let out = run_allreduce(AllreduceChoice::Rabenseifner, 1, 16);
        assert_eq!(out[0], expected_sum(1, 16));
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn non_power_of_two_rejected() {
        run_allreduce(AllreduceChoice::Rabenseifner, 3, 12);
    }
}
