//! Inter-node multi-rail transfers: the paper's future-work extension,
//! exercised end to end — two Beluga-style nodes joined by InfiniBand
//! rails, with the same model/transport/MPI stack on top.

use multipath_gpu::prelude::*;
use std::sync::Arc;

fn across(topo: &Topology) -> (mpx_topo::DeviceId, mpx_topo::DeviceId) {
    let gpus = topo.gpus();
    (gpus[0], gpus[4]) // node 0 → node 1
}

#[test]
fn model_splits_across_rails() {
    let topo = Arc::new(presets::two_node_beluga(2));
    let (src, dst) = across(&topo);
    let planner = Planner::new(topo.clone());
    let plan = planner
        .plan(src, dst, 256 << 20, PathSelection::TWO_GPUS)
        .unwrap();
    assert_eq!(plan.active_path_count(), 2, "both rails carry load");
    // Symmetric rails: near-even split.
    let (a, b) = (plan.paths[0].theta, plan.paths[1].theta);
    assert!((a - b).abs() < 0.05, "rail shares {a} vs {b}");
    // Rails are single-leg: never chunked by the staging pipeline.
    assert!(plan.paths.iter().all(|p| p.chunks == 1));
}

#[test]
fn two_rails_double_internode_bandwidth() {
    let topo = Arc::new(presets::two_node_beluga(2));
    let (src, dst) = across(&topo);
    let n = 128 << 20;
    let measure = |sel: PathSelection| {
        let rt = GpuRuntime::new(Engine::new(topo.clone()));
        let ctx = UcxContext::new(
            rt,
            UcxConfig {
                selection: sel,
                ..UcxConfig::default()
            },
        );
        let s = ctx.runtime().alloc(src, n);
        let d = ctx.runtime().alloc(dst, n);
        ctx.put_async(&s, &d, n).unwrap();
        ctx.runtime().engine().run_until_idle();
        n as f64 / ctx.runtime().engine().now().as_secs()
    };
    let one = measure(PathSelection::DIRECT_ONLY); // 1 rail
    let two = measure(PathSelection::TWO_GPUS); // 2 rails
    assert!(
        one > 0.9 * 12e9 && one <= 12.1e9,
        "single rail is PCIe-bound: {:.1} GB/s",
        one / 1e9
    );
    let ratio = two / one;
    assert!(
        (1.8..=2.05).contains(&ratio),
        "two rails should ~double bandwidth: {ratio:.2}x"
    );
}

#[test]
fn internode_message_integrity() {
    let topo = Arc::new(presets::two_node_beluga(2));
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let ctx = UcxContext::new(rt, UcxConfig::default());
    let (src_dev, dst_dev) = across(&topo);
    let n = (3 << 20) + 101;
    let data: Vec<u8> = (0..n).map(|i| (i * 11 % 255) as u8).collect();
    let src = ctx.runtime().alloc_bytes(src_dev, data.clone());
    let dst = ctx.runtime().alloc_zeroed(dst_dev, n);
    ctx.put_async(&src, &dst, n).unwrap();
    ctx.runtime().engine().run_until_idle();
    assert_eq!(dst.to_vec().unwrap(), data);
}

#[test]
fn mpi_ranks_span_nodes() {
    // 8 ranks over two nodes: intra-node pairs ride NVLink multi-path,
    // inter-node pairs ride rails — transparently through the same API.
    let topo = Arc::new(presets::two_node_beluga(2));
    let world = World::new(topo, UcxConfig::default());
    let n = 4 << 20;
    let results = world.run_tasks(8, |r| async move {
        let peer = (r.rank + 4) % 8; // cross-node partner
        let sbuf = r.alloc_bytes(vec![r.rank as u8 + 1; n]);
        let rbuf = r.alloc_zeroed(n);
        r.sendrecv(&sbuf, 0, n, peer, &rbuf, 0, n, peer, 7).await;
        rbuf.to_vec().unwrap()[0]
    });
    for (rank, got) in results.iter().enumerate() {
        let want = ((rank + 4) % 8) as u8 + 1;
        assert_eq!(*got, want, "rank {rank}");
    }
}

#[test]
fn cross_node_allreduce_correct() {
    let topo = Arc::new(presets::two_node_beluga(1));
    let world = World::new(topo, UcxConfig::default());
    let elems = 256;
    let results = world.run_tasks(8, |r| async move {
        let vals = vec![(r.rank + 1) as f32; elems];
        let buf = r.alloc_bytes(mpx_gpu::reduce::f32_bytes(&vals));
        mpx_mpi::allreduce_rabenseifner(&r, &buf, elems * 4, ReduceOp::Sum).await;
        mpx_gpu::reduce::bytes_f32(&buf.to_vec().unwrap())
    });
    let want = (1..=8).sum::<i32>() as f32;
    for (rank, got) in results.iter().enumerate() {
        assert!(
            got.iter().all(|&v| v == want),
            "rank {rank}: {:?}",
            &got[..2]
        );
    }
}

#[test]
fn rail_affinity_prefers_local_numa_nic() {
    let topo = presets::two_node_beluga(2);
    let gpus = topo.gpus();
    let rails = mpx_topo::enumerate_rails(&topo, gpus[0], gpus[5], 2).unwrap();
    // First rail's source NIC must be on GPU 0's node.
    if let mpx_topo::PathKind::Rail { src_nic, .. } = rails[0].kind {
        assert!(topo.same_node(gpus[0], src_nic).unwrap());
    } else {
        panic!("expected a rail path");
    }
}
