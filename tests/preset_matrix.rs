//! Smoke matrix: the core benchmark protocols must run clean on every
//! shipped topology preset — this is what catches a preset edit that
//! breaks an assumption elsewhere in the stack.

use mpx_omb::{osu_allreduce, AllreduceAlgo, CollectiveConfig};
use multipath_gpu::prelude::*;
use std::sync::Arc;

fn presets_under_test() -> Vec<Arc<Topology>> {
    vec![
        Arc::new(presets::beluga()),
        Arc::new(presets::narval()),
        Arc::new(presets::dgx1()),
        Arc::new(presets::two_node_beluga(2)),
    ]
}

#[test]
fn every_preset_validates_clean() {
    for topo in presets_under_test() {
        let issues = mpx_topo::validate(&topo);
        assert!(issues.is_empty(), "{}: {issues:?}", topo.name);
    }
}

#[test]
fn bw_and_latency_run_on_every_preset() {
    for topo in presets_under_test() {
        let bw = osu_bw(&topo, UcxConfig::default(), 8 << 20, P2pConfig::default());
        assert!(
            bw > 5e9,
            "{}: implausible bandwidth {:.1} GB/s",
            topo.name,
            bw / 1e9
        );
        let lat = osu_latency(&topo, UcxConfig::default(), 4096, 3);
        assert!(
            lat > 1e-6 && lat < 1e-3,
            "{}: implausible latency {:.1} us",
            topo.name,
            lat * 1e6
        );
    }
}

#[test]
fn four_rank_allreduce_runs_on_every_preset() {
    for topo in presets_under_test() {
        let t = osu_allreduce(
            &topo,
            UcxConfig {
                selection: PathSelection::THREE_GPUS,
                ..UcxConfig::default()
            },
            4 << 20,
            AllreduceAlgo::Rabenseifner,
            CollectiveConfig {
                ranks: 4,
                iterations: 1,
                warmup: 1,
            },
        );
        assert!(t > 0.0, "{}", topo.name);
    }
}

#[test]
fn eight_rank_collectives_on_eight_gpu_presets() {
    for topo in [
        Arc::new(presets::dgx1()),
        Arc::new(presets::two_node_beluga(2)),
    ] {
        let world = World::new(topo.clone(), UcxConfig::default());
        let elems = 64usize;
        let out = world.run_tasks(8, |r| async move {
            let buf = r.alloc_bytes(mpx_gpu::reduce::f32_bytes(&vec![1.0f32; elems]));
            mpx_mpi::allreduce_rabenseifner(&r, &buf, elems * 4, ReduceOp::Sum).await;
            mpx_gpu::reduce::bytes_f32(&buf.to_vec().unwrap())[0]
        });
        for (rank, v) in out.iter().enumerate() {
            assert_eq!(*v, 8.0, "{} rank {rank}", topo.name);
        }
    }
}

#[test]
fn every_preset_plans_every_gpu_pair() {
    for topo in presets_under_test() {
        let planner = Planner::new(topo.clone());
        let gpus = topo.gpus();
        for &a in &gpus {
            for &b in &gpus {
                if a == b {
                    continue;
                }
                let plan = planner
                    .plan(a, b, 16 << 20, PathSelection::THREE_GPUS)
                    .unwrap_or_else(|e| panic!("{}: {a}->{b}: {e}", topo.name));
                let total: usize = plan.paths.iter().map(|p| p.share_bytes).sum();
                assert_eq!(total, 16 << 20, "{}: {a}->{b}", topo.name);
            }
        }
    }
}
