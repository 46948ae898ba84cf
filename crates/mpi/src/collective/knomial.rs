//! Radix-`k` K-nomial collectives — the general form of the paper's
//! "recursive K-nomial scatter-reduce followed by K-nomial allgather"
//! (Section 5.3). Radix 2 reproduces `allreduce_rabenseifner`; higher
//! radixes trade fewer rounds for more concurrent partners per round,
//! which loads more paths at once — an interesting regime for multi-path
//! transport (ablation: radix 2 vs 4).
//!
//! Requires `size == k^m`. Within every round, the buffer's active
//! region is split into `k` sub-blocks; each rank keeps the sub-block
//! indexed by its own digit (base-`k`, digit `m−1−round`) and exchanges
//! the other `k−1` sub-blocks with its digit-group peers, reducing what
//! it receives. The allgather phase runs the same exchanges in reverse.

use crate::world::Rank;
use mpx_gpu::{Buffer, ReduceOp};

const TAG: u64 = 1 << 59;

/// Returns `m` with `k^m == p`, or `None`.
fn log_base(p: usize, k: usize) -> Option<u32> {
    if k < 2 {
        return None;
    }
    let mut v = 1usize;
    let mut m = 0u32;
    while v < p {
        v = v.checked_mul(k)?;
        m += 1;
    }
    (v == p).then_some(m)
}

/// In-place radix-`k` K-nomial allreduce over `buf[..n]`.
///
/// # Panics
/// Panics unless `size == k^m` and `n` is divisible by `4·size`.
pub async fn allreduce_knomial(r: &Rank, buf: &Buffer, n: usize, op: ReduceOp, k: usize) {
    let p = r.size;
    if p == 1 {
        return;
    }
    let m = log_base(p, k).unwrap_or_else(|| panic!("world size {p} is not a power of radix {k}"));
    assert_eq!(n % (4 * p), 0, "n must be a multiple of 4*size");

    // Scratch: one receive slot per peer (k−1 of them), each up to n/k.
    let peers_max = k - 1;
    let tmps: Vec<Buffer> = (0..peers_max)
        .map(|slot| r.scratch(n / k, !buf.is_synthetic(), 16 + slot))
        .collect();

    // --- Phase 1: K-nomial scatter-reduce --------------------------------
    // Track the active region; digits from most significant down.
    let mut lo = 0usize;
    let mut len = n;
    let mut group = p; // size of the current digit group
    for round in 0..m {
        let sub = len / k;
        let digit_stride = group / k;
        let my_digit = (r.rank / digit_stride) % k;
        // Peers: same position within the digit group, other digits.
        let base = r.rank - my_digit * digit_stride;
        let keep_lo = lo + my_digit * sub;

        // Post receives for my sub-block from every peer, send each peer
        // its sub-block.
        let mut reqs = Vec::with_capacity(2 * (k - 1));
        let mut slot = 0;
        for d in 0..k {
            if d == my_digit {
                continue;
            }
            let peer = base + d * digit_stride;
            reqs.push(r.irecv_at(
                &tmps[slot],
                0,
                sub,
                Some(peer),
                Some(TAG + (round as u64) * 64 + d as u64),
            ));
            reqs.push(r.isend_at(
                buf,
                lo + d * sub,
                sub,
                peer,
                TAG + (round as u64) * 64 + my_digit as u64,
            ));
            slot += 1;
        }
        r.waitall(&reqs).await;
        for t in tmps.iter().take(k - 1) {
            r.reduce_local(op, t, 0, buf, keep_lo, sub).await;
        }
        lo = keep_lo;
        len = sub;
        group = digit_stride;
    }
    debug_assert_eq!(len, n / p);
    debug_assert_eq!(lo, r.rank * (n / p));

    // --- Phase 2: K-nomial allgather (reverse digit order) ---------------
    let mut group = k; // digit group grows back
    let mut len = n / p;
    let mut lo = r.rank * (n / p);
    for round in 0..m {
        let digit_stride = group / k;
        let my_digit = (r.rank / digit_stride) % k;
        let base = r.rank - my_digit * digit_stride;
        let region_lo = lo - my_digit * len; // parent region start

        let mut reqs = Vec::with_capacity(2 * (k - 1));
        for d in 0..k {
            if d == my_digit {
                continue;
            }
            let peer = base + d * digit_stride;
            // Receive the peer's block straight into its final place.
            reqs.push(r.irecv_at(
                buf,
                region_lo + d * len,
                len,
                Some(peer),
                Some(TAG + (1 << 10) + (round as u64) * 64 + d as u64),
            ));
            reqs.push(r.isend_at(
                buf,
                lo,
                len,
                peer,
                TAG + (1 << 10) + (round as u64) * 64 + my_digit as u64,
            ));
        }
        r.waitall(&reqs).await;
        lo = region_lo;
        len *= k;
        group *= k;
    }
    debug_assert_eq!(len, n);
    debug_assert_eq!(lo, 0);
}

/// Van de Geijn large-message broadcast: scatter from the root (binomial
/// over blocks) then ring allgather — bandwidth-optimal for big buffers
/// and another multi-path beneficiary.
pub async fn bcast_scatter_allgather(r: &Rank, buf: &Buffer, n: usize, root: usize) {
    let p = r.size;
    if p == 1 {
        return;
    }
    assert_eq!(n % p, 0, "n must be a multiple of size");
    let block = n / p;
    // Scatter: root sends block i to rank i (linear; the binomial variant
    // changes latency, not volume).
    crate::collective::scatter_linear_inplace(r, buf, block, root).await;
    // Allgather ring completes the broadcast.
    crate::collective::allgather_ring(r, buf, block).await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use mpx_gpu::reduce::{bytes_f32, f32_bytes};
    use mpx_topo::presets;
    use mpx_ucx::UcxConfig;
    use std::sync::Arc;

    fn run_knomial(ranks: usize, elems: usize, k: usize) -> Vec<Vec<f32>> {
        let topo: mpx_topo::Topology = if ranks > 4 {
            presets::dgx1()
        } else {
            presets::beluga()
        };
        let w = World::new(Arc::new(topo), UcxConfig::default());
        w.run_tasks(ranks, |r| async move {
            let vals: Vec<f32> = (0..elems)
                .map(|i| (r.rank + 1) as f32 * (i + 1) as f32)
                .collect();
            let buf = r.alloc_bytes(f32_bytes(&vals));
            allreduce_knomial(&r, &buf, elems * 4, ReduceOp::Sum, k).await;
            bytes_f32(&buf.to_vec().unwrap())
        })
    }

    fn expected_sum(ranks: usize, elems: usize) -> Vec<f32> {
        let factor: f32 = (1..=ranks).map(|x| x as f32).sum();
        (0..elems).map(|i| factor * (i + 1) as f32).collect()
    }

    #[test]
    fn log_base_math() {
        assert_eq!(log_base(8, 2), Some(3));
        assert_eq!(log_base(4, 4), Some(1));
        assert_eq!(log_base(16, 4), Some(2));
        assert_eq!(log_base(6, 2), None);
        assert_eq!(log_base(4, 1), None);
    }

    #[test]
    fn radix2_matches_rabenseifner_results() {
        let a = run_knomial(4, 64, 2);
        let want = expected_sum(4, 64);
        for got in &a {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn radix4_single_round_on_four_ranks() {
        let out = run_knomial(4, 128, 4);
        let want = expected_sum(4, 128);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &want, "rank {i}");
        }
    }

    #[test]
    fn radix2_on_eight_ranks() {
        let out = run_knomial(8, 64, 2);
        let want = expected_sum(8, 64);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &want, "rank {i}");
        }
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn mismatched_radix_rejected() {
        run_knomial(4, 16, 3);
    }

    #[test]
    fn vdg_bcast_reaches_everyone() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let n = 1 << 20;
        let out = w.run_tasks(4, |r| async move {
            let buf = if r.rank == 2 {
                r.alloc_bytes((0..n).map(|i| (i % 251) as u8).collect())
            } else {
                r.alloc_zeroed(n)
            };
            bcast_scatter_allgather(&r, &buf, n, 2).await;
            buf.to_vec().unwrap()
        });
        let want: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &want, "rank {i}");
        }
    }
}
