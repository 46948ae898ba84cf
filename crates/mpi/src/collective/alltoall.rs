//! Alltoall: the Bruck algorithm (what UCP uses under MPI_Alltoall per
//! paper Section 5.3) plus a pairwise-exchange baseline.
//!
//! Bruck runs in ⌈log₂ p⌉ communication rounds. Each round packs the
//! blocks whose (rotated) index has bit `j` set into a contiguous staging
//! buffer — a GPU pack kernel, charged through the kernel cost model —
//! and ships them `2^j` ranks away. Two local rotations bracket the
//! rounds.

use crate::world::Rank;
use mpx_gpu::Buffer;

const TAG: u64 = 1 << 54;

/// Pairwise-exchange alltoall: `p − 1` rounds of sendrecv, plus the local
/// self-block copy. Simple, correct for any `p`; the large-message
/// baseline.
///
/// `send`/`recv` each hold `size` blocks of `block` bytes; block `i` of
/// `send` goes to rank `i`.
pub async fn alltoall_pairwise(r: &Rank, send: &Buffer, recv: &Buffer, block: usize) {
    let p = r.size;
    assert!(send.len() >= p * block && recv.len() >= p * block);
    // Self block: a local device copy.
    r.local_copy(send, r.rank * block, recv, r.rank * block, block)
        .await;
    for s in 1..p {
        let to = (r.rank + s) % p;
        let from = (r.rank + p - s) % p;
        r.sendrecv(
            send,
            to * block,
            block,
            to,
            recv,
            from * block,
            block,
            from,
            TAG + s as u64,
        )
        .await;
    }
}

/// Bruck alltoall (radix 2) for any world size.
pub async fn alltoall_bruck(r: &Rank, send: &Buffer, recv: &Buffer, block: usize) {
    let p = r.size;
    assert!(send.len() >= p * block && recv.len() >= p * block);
    if p == 1 {
        r.local_copy(send, 0, recv, 0, block).await;
        return;
    }

    // Logical coordinates: index i holds the block destined to rank
    // (rank + i) mod p, i.e. originally send[(rank + i) mod p]. In round
    // j every block whose index has bit j set ships to rank + 2^j and is
    // received from rank − 2^j at the *same* index, so a block starting
    // at index i accumulates exactly i hops — it arrives at its
    // destination during the round of its highest set bit.
    //
    // Both classical rotations are fused into the pack/unpack index
    // computation (as production implementations do): a block is packed
    // straight from `send` on its first hop (lowest set bit), unpacked
    // straight into `recv` on its last hop (highest set bit), and only
    // multi-hop blocks ever touch the intermediate `work` buffer.
    let work = scratch(r, send, p * block, 0);
    // Own block (index 0) never ships.
    r.local_copy(send, r.rank * block, recv, r.rank * block, block)
        .await;

    let pack_max = p.div_ceil(2);
    let staging_out = scratch(r, send, pack_max * block, 1);
    let staging_in = scratch(r, send, pack_max * block, 2);
    let mut j = 0u32;
    while (1usize << j) < p {
        let dist = 1usize << j;
        let to = (r.rank + dist) % p;
        let from = (r.rank + p - dist) % p;
        let idx: Vec<usize> = (0..p).filter(|i| i & dist != 0).collect();
        for (slot, &i) in idx.iter().enumerate() {
            let first_hop = i & (dist - 1) == 0; // bit j is i's lowest set bit
            if first_hop {
                let src_block = (r.rank + i) % p;
                r.local_copy(send, src_block * block, &staging_out, slot * block, block)
                    .await;
            } else {
                r.local_copy(&work, i * block, &staging_out, slot * block, block)
                    .await;
            }
        }
        let bytes = idx.len() * block;
        r.sendrecv(
            &staging_out,
            0,
            bytes,
            to,
            &staging_in,
            0,
            bytes,
            from,
            TAG + (1 << 8) + j as u64,
        )
        .await;
        for (slot, &i) in idx.iter().enumerate() {
            let last_hop = i >> (j + 1) == 0; // no set bits above j
            if last_hop {
                // The block came i hops from rank − i: its final slot.
                let origin = (r.rank + p - i) % p;
                r.local_copy(&staging_in, slot * block, recv, origin * block, block)
                    .await;
            } else {
                r.local_copy(&staging_in, slot * block, &work, i * block, block)
                    .await;
            }
        }
        j += 1;
    }
}

fn scratch(r: &Rank, like: &Buffer, n: usize, slot: usize) -> Buffer {
    r.scratch(n, !like.is_synthetic(), slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::AlltoallChoice;
    use crate::world::World;
    use mpx_topo::presets;
    use mpx_ucx::UcxConfig;
    use std::sync::Arc;

    /// Block content: one byte identifying (source, destination).
    fn block_byte(src: usize, dst: usize) -> u8 {
        (src * 16 + dst + 1) as u8
    }

    fn run_alltoall(algo: AlltoallChoice, ranks: usize, block: usize) -> Vec<Vec<u8>> {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        w.run_tasks(ranks, |r| async move {
            let sdata: Vec<u8> = (0..ranks)
                .flat_map(|dst| vec![block_byte(r.rank, dst); block])
                .collect();
            let send = r.alloc_bytes(sdata);
            let recv = r.alloc_zeroed(ranks * block);
            match algo {
                AlltoallChoice::Bruck => alltoall_bruck(&r, &send, &recv, block).await,
                AlltoallChoice::Pairwise => alltoall_pairwise(&r, &send, &recv, block).await,
            }
            recv.to_vec().unwrap()
        })
    }

    fn expected(rank: usize, ranks: usize, block: usize) -> Vec<u8> {
        (0..ranks)
            .flat_map(|src| vec![block_byte(src, rank); block])
            .collect()
    }

    #[test]
    fn pairwise_exchanges_all_blocks() {
        let out = run_alltoall(AlltoallChoice::Pairwise, 4, 4 << 10);
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got, &expected(rank, 4, 4 << 10), "rank {rank}");
        }
    }

    #[test]
    fn bruck_matches_pairwise_power_of_two() {
        let a = run_alltoall(AlltoallChoice::Bruck, 4, 4 << 10);
        for (rank, got) in a.iter().enumerate() {
            assert_eq!(got, &expected(rank, 4, 4 << 10), "rank {rank}");
        }
    }

    #[test]
    fn bruck_handles_non_power_of_two() {
        let out = run_alltoall(AlltoallChoice::Bruck, 3, 1 << 10);
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got, &expected(rank, 3, 1 << 10), "rank {rank}");
        }
    }

    #[test]
    fn bruck_two_ranks() {
        let out = run_alltoall(AlltoallChoice::Bruck, 2, 8 << 10);
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got, &expected(rank, 2, 8 << 10), "rank {rank}");
        }
    }

    #[test]
    fn single_rank_alltoall_is_local_copy() {
        let out = run_alltoall(AlltoallChoice::Bruck, 1, 1 << 10);
        assert_eq!(out[0], expected(0, 1, 1 << 10));
    }
}
