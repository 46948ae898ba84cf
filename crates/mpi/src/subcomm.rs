//! Sub-communicators (MPI_Comm_split): partition a world's ranks into
//! independent groups with their own rank numbering and isolated tag
//! space. The enabling primitive for the "multiple jobs share one node"
//! scenario the paper's Section 3 discusses — two tenants each running
//! their own collectives over the same fabric.

use crate::world::Rank;

impl Rank {
    /// Splits by `color`: every world rank calling with the same color
    /// lands in the same group. All world ranks must call `split`
    /// (collectively, as in MPI) with `colors[world_rank]` consistent
    /// across callers — the color table is passed explicitly so no
    /// communication round is needed.
    ///
    /// Returns this rank's view of its group: a [`Rank`] whose `rank` and
    /// `size` are local to the group and whose tags are salted with the
    /// color, so groups cannot intercept each other's messages. Traffic
    /// still flows through the world's matching engine, and every
    /// collective runs on the view unchanged.
    ///
    /// # Panics
    /// Panics if the table is inconsistent with the world size.
    pub fn split(&self, colors: &[u32]) -> Rank {
        assert_eq!(colors.len(), self.size, "one color per world rank");
        let my_color = colors[self.rank];
        let members: Vec<usize> = (0..self.size).filter(|&r| colors[r] == my_color).collect();
        Rank {
            rank: members
                .iter()
                .position(|&r| r == self.rank)
                .expect("own group"),
            size: members.len(),
            device: self.device,
            thread: None,
            ctx: self.ctx.clone(),
            matching: self.matching.clone(),
            scratch: Default::default(),
            group: Some(members.iter().map(|&r| self.world_rank(r)).collect()),
            salt: ((my_color as u64) + 1) << 44,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::collective::allreduce_ring;
    use crate::world::World;
    use mpx_gpu::reduce::{bytes_f32, f32_bytes};
    use mpx_gpu::ReduceOp;
    use mpx_topo::presets;
    use mpx_ucx::UcxConfig;
    use std::sync::Arc;

    #[test]
    fn split_assigns_local_ranks() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let out = w.run_tasks(4, |r| async move {
            let colors = [0u32, 1, 0, 1];
            let sub = r.split(&colors);
            (r.rank, sub.rank, sub.size)
        });
        assert_eq!(out, vec![(0, 0, 2), (1, 0, 2), (2, 1, 2), (3, 1, 2)]);
    }

    #[test]
    fn groups_exchange_independently() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let out = w.run_tasks(4, |r| async move {
            let colors = [0u32, 1, 0, 1];
            let sub = r.split(&colors);
            let peer = 1 - sub.rank;
            // Both groups use THE SAME tag; the salt keeps them apart.
            let sbuf = r.alloc_bytes(vec![(r.rank * 10 + 1) as u8; 8]);
            let rbuf = r.alloc_zeroed(8);
            sub.sendrecv(&sbuf, 0, 8, peer, &rbuf, 0, 8, peer, 7).await;
            rbuf.to_vec().unwrap()[0]
        });
        // Group 0 = {0, 2}: world rank 0 hears from 2 (21), rank 2 from 0 (1).
        // Group 1 = {1, 3}: world rank 1 hears from 3 (31), rank 3 from 1 (11).
        assert_eq!(out, vec![21, 31, 1, 11]);
    }

    #[test]
    fn two_groups_run_allreduce_concurrently() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let elems = 64usize;
        let out = w.run_tasks(4, |r| async move {
            let colors = [0u32, 0, 1, 1];
            let sub = r.split(&colors);
            let vals = vec![(sub.rank + 1) as f32; elems];
            let buf = r.alloc_bytes(f32_bytes(&vals));
            allreduce_ring(&sub, &buf, elems * 4, ReduceOp::Sum).await;
            bytes_f32(&buf.to_vec().unwrap())
        });
        // Each 2-rank group sums 1 + 2 = 3 in every element.
        for (rank, got) in out.iter().enumerate() {
            assert!(
                got.iter().all(|&v| v == 3.0),
                "rank {rank}: {:?}",
                &got[..2]
            );
        }
    }

    #[test]
    fn tenant_groups_contend_but_complete() {
        // The shared-node scenario: two tenants, each allreducing its own
        // gradients over its own GPU pair, simultaneously.
        let w = World::new(
            Arc::new(presets::beluga()),
            UcxConfig {
                selection: mpx_topo::PathSelection::THREE_GPUS,
                ..UcxConfig::default()
            },
        );
        let n = 8 << 20;
        let times = w.run_tasks(4, |r| async move {
            let colors = [0u32, 0, 1, 1];
            let sub = r.split(&colors);
            let buf = r.alloc(n);
            r.barrier().await;
            let t0 = r.now();
            for _ in 0..3 {
                allreduce_ring(&sub, &buf, n, ReduceOp::Sum).await;
            }
            r.now().secs_since(t0) / 3.0
        });
        // Both tenants make progress in comparable time (fair fabric).
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.25, "tenant imbalance: {times:?}");
    }

    // The assert fires inside a rank task; World::run_tasks rethrows as
    // "rank N panicked".
    #[test]
    #[should_panic(expected = "panicked")]
    fn wrong_color_table_rejected() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        w.run_tasks(2, |r| async move {
            let _ = r.split(&[0u32; 5]);
        });
    }
}
