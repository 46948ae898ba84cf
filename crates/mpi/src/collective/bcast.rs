//! Rooted collectives: binomial-tree broadcast, scatter, and gather.
//!
//! Not part of the paper's evaluation, but part of any credible MPI
//! surface — and additional multi-path beneficiaries, since every edge
//! of the binomial tree is a P2P transfer through the transport under
//! test.

use crate::world::Rank;
use mpx_gpu::Buffer;

const TAG: u64 = 1 << 56;

/// Binomial-tree broadcast of `buf[..n]` from `root` (any world size).
pub async fn bcast_binomial(r: &Rank, buf: &Buffer, n: usize, root: usize) {
    let p = r.size;
    if p == 1 {
        return;
    }
    assert!(root < p, "root {root} out of range");
    // Work in a rotated rank space where the root is 0.
    let vrank = (r.rank + p - root) % p;
    // Receive once from the parent…
    if vrank != 0 {
        let parent_v = vrank & (vrank - 1); // clear lowest set bit
        let parent = (parent_v + root) % p;
        r.recv(buf, n, Some(parent), Some(TAG + vrank as u64)).await;
    }
    // …then forward to children: vrank | 2^k for 2^k above vrank's
    // lowest set bit (descending order maximizes pipeline overlap).
    let lowest = if vrank == 0 {
        usize::BITS
    } else {
        vrank.trailing_zeros()
    };
    let mut k = (usize::BITS - 1 - p.leading_zeros()) as i64;
    while k >= 0 {
        let bit = 1usize << k;
        if (k as u32) < lowest && vrank | bit != vrank {
            let child_v = vrank | bit;
            if child_v < p {
                let child = (child_v + root) % p;
                r.send(buf, n, child, TAG + child_v as u64).await;
            }
        }
        k -= 1;
    }
}

/// Linear scatter: the root sends block `i` of `sendbuf` to rank `i`'s
/// `recvbuf`. Root's own block is a local device copy.
pub async fn scatter_linear(
    r: &Rank,
    sendbuf: &Buffer,
    recvbuf: &Buffer,
    block: usize,
    root: usize,
) {
    let p = r.size;
    assert!(root < p, "root {root} out of range");
    if r.rank == root {
        assert!(sendbuf.len() >= p * block, "scatter sendbuf too small");
        let mut reqs = Vec::with_capacity(p - 1);
        for dst in 0..p {
            if dst == root {
                r.local_copy(sendbuf, root * block, recvbuf, 0, block).await;
            } else {
                reqs.push(r.isend_at(
                    sendbuf,
                    dst * block,
                    block,
                    dst,
                    TAG + (1 << 8) + dst as u64,
                ));
            }
        }
        r.waitall(&reqs).await;
    } else {
        r.recv(
            recvbuf,
            block,
            Some(root),
            Some(TAG + (1 << 8) + r.rank as u64),
        )
        .await;
    }
}

/// In-place linear scatter over a full-size buffer: the root owns all
/// `size` blocks of `buf`; afterwards rank `i` holds block `i` at offset
/// `i·block` of its own same-size buffer (the first phase of the van de
/// Geijn broadcast).
pub async fn scatter_linear_inplace(r: &Rank, buf: &Buffer, block: usize, root: usize) {
    let p = r.size;
    assert!(root < p, "root {root} out of range");
    assert!(buf.len() >= p * block, "buffer smaller than size*block");
    const STAG: u64 = (1 << 56) + (1 << 10);
    if r.rank == root {
        let mut reqs = Vec::with_capacity(p - 1);
        for dst in 0..p {
            if dst != root {
                reqs.push(r.isend_at(buf, dst * block, block, dst, STAG + dst as u64));
            }
        }
        r.waitall(&reqs).await;
    } else {
        r.irecv_at(
            buf,
            r.rank * block,
            block,
            Some(root),
            Some(STAG + r.rank as u64),
        )
        .wait()
        .await;
    }
}

/// Linear gather: rank `i`'s `sendbuf` lands in block `i` of the root's
/// `recvbuf`.
pub async fn gather_linear(
    r: &Rank,
    sendbuf: &Buffer,
    recvbuf: &Buffer,
    block: usize,
    root: usize,
) {
    let p = r.size;
    assert!(root < p, "root {root} out of range");
    if r.rank == root {
        assert!(recvbuf.len() >= p * block, "gather recvbuf too small");
        let mut reqs = Vec::with_capacity(p - 1);
        for src in 0..p {
            if src == root {
                r.local_copy(sendbuf, 0, recvbuf, root * block, block).await;
            } else {
                reqs.push(r.irecv_at(
                    recvbuf,
                    src * block,
                    block,
                    Some(src),
                    Some(TAG + (1 << 9) + src as u64),
                ));
            }
        }
        r.waitall(&reqs).await;
    } else {
        r.send(sendbuf, block, root, TAG + (1 << 9) + r.rank as u64)
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

    fn world() -> World {
        World::new(Arc::new(presets::beluga()), UcxConfig::default())
    }

    #[test]
    fn bcast_reaches_every_rank_from_every_root() {
        for root in 0..4 {
            let w = world();
            let out = w.run_tasks(4, |r| async move {
                let n = 256 << 10;
                let buf = if r.rank == root {
                    r.alloc_bytes(vec![0xC3; n])
                } else {
                    r.alloc_zeroed(n)
                };
                bcast_binomial(&r, &buf, n, root).await;
                buf.to_vec().unwrap()
            });
            for (rank, data) in out.iter().enumerate() {
                assert!(
                    data.iter().all(|&b| b == 0xC3),
                    "root {root}, rank {rank} incomplete"
                );
            }
        }
    }

    #[test]
    fn bcast_three_ranks_non_power_of_two() {
        let w = world();
        let out = w.run_tasks(3, |r| async move {
            let n = 4096;
            let buf = if r.rank == 1 {
                r.alloc_bytes(vec![7; n])
            } else {
                r.alloc_zeroed(n)
            };
            bcast_binomial(&r, &buf, n, 1).await;
            buf.to_vec().unwrap()
        });
        for data in &out {
            assert!(data.iter().all(|&b| b == 7));
        }
    }

    #[test]
    fn scatter_distributes_blocks() {
        let w = world();
        let block = 64 << 10;
        let out = w.run_tasks(4, |r| async move {
            let send = if r.rank == 0 {
                let data: Vec<u8> = (0..4).flat_map(|i| vec![(i + 1) as u8; block]).collect();
                r.alloc_bytes(data)
            } else {
                r.alloc(0)
            };
            let recv = r.alloc_zeroed(block);
            scatter_linear(&r, &send, &recv, block, 0).await;
            recv.to_vec().unwrap()
        });
        for (rank, data) in out.iter().enumerate() {
            assert!(
                data.iter().all(|&b| b == (rank + 1) as u8),
                "rank {rank} got wrong block"
            );
        }
    }

    #[test]
    fn gather_collects_blocks() {
        let w = world();
        let block = 64 << 10;
        let out = w.run_tasks(4, |r| async move {
            let send = r.alloc_bytes(vec![(r.rank + 10) as u8; block]);
            let recv = if r.rank == 2 {
                r.alloc_zeroed(4 * block)
            } else {
                r.alloc(0)
            };
            gather_linear(&r, &send, &recv, block, 2).await;
            recv.to_vec()
        });
        let root_data = out[2].as_ref().unwrap();
        for rank in 0..4 {
            assert!(
                root_data[rank * block..(rank + 1) * block]
                    .iter()
                    .all(|&b| b == (rank + 10) as u8),
                "block {rank} wrong at root"
            );
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        let w = world();
        let block = 16 << 10;
        let out = w.run_tasks(4, |r| async move {
            let original: Vec<u8> = (0..4 * block).map(|i| (i % 255) as u8).collect();
            let send = if r.rank == 0 {
                r.alloc_bytes(original.clone())
            } else {
                r.alloc(0)
            };
            let mine = r.alloc_zeroed(block);
            scatter_linear(&r, &send, &mine, block, 0).await;
            let back = if r.rank == 0 {
                r.alloc_zeroed(4 * block)
            } else {
                r.alloc(0)
            };
            gather_linear(&r, &mine, &back, block, 0).await;
            if r.rank == 0 {
                assert_eq!(back.to_vec().unwrap(), original);
            }
        });
        drop(out);
    }
}
