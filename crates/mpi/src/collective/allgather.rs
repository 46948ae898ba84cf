//! Allgather algorithms: recursive doubling (the K-nomial allgather phase
//! of UCP's large-message allreduce) and a ring baseline.

use crate::world::Rank;

/// Recursive-doubling allgather over a power-of-two world.
///
/// `buf` holds `size` blocks of `block` bytes; on entry block `rank` is
/// this rank's contribution, on exit all blocks are filled.
///
/// # Panics
/// Panics if the world size is not a power of two (use
/// [`allgather_ring`] there).
pub async fn allgather_recursive_doubling(r: &Rank, buf: &mpx_gpu::Buffer, block: usize) {
    let p = r.size;
    assert!(p.is_power_of_two(), "recursive doubling needs 2^k ranks");
    assert!(buf.len() >= p * block, "buffer smaller than size*block");
    const TAG: u64 = 1 << 50;
    // After step s, each rank holds the 2^(s+1)-block group containing it.
    let mut group = 1usize; // blocks currently held, starting at own block
    let mut mask = 1usize;
    let mut round = 0u64;
    while mask < p {
        let partner = r.rank ^ mask;
        // The group of blocks I hold starts at my group-aligned base.
        let my_base = (r.rank / group) * group;
        let partner_base = (partner / group) * group;
        r.sendrecv(
            buf,
            my_base * block,
            group * block,
            partner,
            buf,
            partner_base * block,
            group * block,
            partner,
            TAG + round,
        )
        .await;
        group *= 2;
        mask <<= 1;
        round += 1;
    }
}

/// Ring allgather: `size − 1` steps, each forwarding one block to the
/// right neighbour. Works for any world size.
pub async fn allgather_ring(r: &Rank, buf: &mpx_gpu::Buffer, block: usize) {
    let p = r.size;
    assert!(buf.len() >= p * block, "buffer smaller than size*block");
    const TAG: u64 = (1 << 50) + (1 << 20);
    let right = (r.rank + 1) % p;
    let left = (r.rank + p - 1) % p;
    for s in 0..p.saturating_sub(1) {
        // In step s I forward the block that originated at rank - s and
        // receive the block that originated at rank - s - 1.
        let send_block = (r.rank + p - s) % p;
        let recv_block = (r.rank + p - s - 1) % p;
        r.sendrecv(
            buf,
            send_block * block,
            block,
            right,
            buf,
            recv_block * block,
            block,
            left,
            TAG + s as u64,
        )
        .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use mpx_topo::presets;
    use mpx_ucx::UcxConfig;
    use std::sync::Arc;

    fn pattern(rank: usize, block: usize) -> Vec<u8> {
        vec![(rank + 1) as u8 * 10; block]
    }

    fn expected(p: usize, block: usize) -> Vec<u8> {
        (0..p).flat_map(|r| pattern(r, block)).collect()
    }

    fn run_allgather(ring: bool) -> Vec<Vec<u8>> {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let block = 64 << 10;
        w.run_tasks(4, |r| async move {
            let buf = r.alloc_zeroed(4 * block);
            buf.write(r.rank * block, &pattern(r.rank, block));
            if ring {
                allgather_ring(&r, &buf, block).await;
            } else {
                allgather_recursive_doubling(&r, &buf, block).await;
            }
            buf.to_vec().unwrap()
        })
    }

    #[test]
    fn recursive_doubling_gathers_all_blocks() {
        let out = run_allgather(false);
        let want = expected(4, 64 << 10);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &want, "rank {i} result wrong");
        }
    }

    #[test]
    fn ring_gathers_all_blocks() {
        let out = run_allgather(true);
        let want = expected(4, 64 << 10);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &want, "rank {i} result wrong");
        }
    }

    #[test]
    fn ring_works_for_non_power_of_two() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let block = 16 << 10;
        let out = w.run_tasks(3, |r| async move {
            let buf = r.alloc_zeroed(3 * block);
            buf.write(r.rank * block, &pattern(r.rank, block));
            allgather_ring(&r, &buf, block).await;
            buf.to_vec().unwrap()
        });
        let want = expected(3, block);
        for got in &out {
            assert_eq!(got, &want);
        }
    }
}
