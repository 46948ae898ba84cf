//! Stress: a randomized message storm across all ranks — many
//! concurrent multi-path transfers with mixed sizes, tags and wildcard
//! receives, all carrying real payloads that must arrive intact.

use multipath_gpu::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Deterministic message matrix: every ordered rank pair (i, j) gets
/// `per_pair` messages with pseudo-random sizes and a content pattern
/// derived from (i, j, k).
fn message_size(rng: &mut StdRng) -> usize {
    // Mix tiny, medium and multi-megabyte messages.
    match rng.gen_range(0..3) {
        0 => rng.gen_range(1..4096),
        1 => rng.gen_range(4096..(256 << 10)),
        _ => rng.gen_range((1 << 20)..(4 << 20)),
    }
}

fn pattern_byte(src: usize, dst: usize, k: usize, i: usize) -> u8 {
    ((src * 31 + dst * 17 + k * 7 + i) % 251) as u8
}

#[test]
fn randomized_message_storm_arrives_intact() {
    let ranks = 4usize;
    let per_pair = 3usize;

    // Pre-generate the size matrix deterministically so every rank
    // agrees on it.
    let mut rng = StdRng::seed_from_u64(42);
    let mut sizes = vec![vec![vec![0usize; per_pair]; ranks]; ranks];
    for (src, row) in sizes.iter_mut().enumerate() {
        for (dst, cell) in row.iter_mut().enumerate() {
            if src == dst {
                continue;
            }
            for slot in cell.iter_mut() {
                *slot = message_size(&mut rng);
            }
        }
    }
    let sizes = Arc::new(sizes);

    let world = World::new(Arc::new(presets::beluga()), UcxConfig::default());
    let sizes2 = &sizes;
    let results = world.run_tasks(ranks, |r| async move {
        // Post all receives (half of them wildcard-source to stress the
        // matching), then all sends, then wait everything.
        let mut reqs = Vec::new();
        let mut recv_bufs = Vec::new();
        for src in 0..ranks {
            if src == r.rank {
                continue;
            }
            for k in 0..per_pair {
                let n = sizes2[src][r.rank][k];
                let buf = r.alloc_zeroed(n);
                let tag = ((src * ranks + r.rank) * per_pair + k) as u64;
                let from = if k % 2 == 0 { Some(src) } else { None };
                reqs.push(r.irecv(&buf, n, from, Some(tag)));
                recv_bufs.push((src, k, buf));
            }
        }
        for dst in 0..ranks {
            if dst == r.rank {
                continue;
            }
            for k in 0..per_pair {
                let n = sizes2[r.rank][dst][k];
                let data: Vec<u8> = (0..n).map(|i| pattern_byte(r.rank, dst, k, i)).collect();
                let buf = r.alloc_bytes(data);
                let tag = ((r.rank * ranks + dst) * per_pair + k) as u64;
                reqs.push(r.isend(&buf, n, dst, tag));
            }
        }
        r.waitall(&reqs).await;
        // Verify every received payload.
        for (src, k, buf) in recv_bufs {
            let data = buf.to_vec().unwrap();
            for (i, &b) in data.iter().enumerate() {
                assert_eq!(
                    b,
                    pattern_byte(src, r.rank, k, i),
                    "rank {} msg from {src} slot {k} corrupt at byte {i}",
                    r.rank
                );
            }
        }
        r.now().as_nanos()
    });
    assert_eq!(results.len(), ranks);
    assert_eq!(world.pending_messages(), (0, 0), "no leaked matches");
}

#[test]
fn storm_is_virtually_deterministic() {
    // The same storm twice: virtual completion times agree to the
    // nanosecond (rank tasks move in rank order).
    let run = || {
        let world = World::new(Arc::new(presets::narval()), UcxConfig::default());
        world.run_tasks(4, |r| async move {
            let n = 1 << 20;
            let peer = (r.rank + 1) % 4;
            let from = (r.rank + 3) % 4;
            for it in 0..5u64 {
                let sbuf = r.alloc(n);
                let rbuf = r.alloc(n);
                r.sendrecv(&sbuf, 0, n, peer, &rbuf, 0, n, from, it).await;
            }
            r.now().as_nanos()
        })
    };
    assert_eq!(run(), run());
}
