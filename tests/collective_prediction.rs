//! The collective-prediction extension vs the simulated collectives:
//! does the per-step joint-planned model track what the full MPI stack
//! actually does?

use mpx_model::{predict_allreduce_knomial, predict_alltoall_bruck};
use mpx_omb::{osu_allreduce, osu_alltoall, AllreduceAlgo, AlltoallAlgo, CollectiveConfig};
use multipath_gpu::prelude::*;
use std::sync::Arc;

const MIB: usize = 1 << 20;

fn cfg(sel: PathSelection) -> UcxConfig {
    UcxConfig {
        selection: sel,
        ..UcxConfig::default()
    }
}

fn coll() -> CollectiveConfig {
    CollectiveConfig {
        ranks: 4,
        iterations: 2,
        warmup: 1,
    }
}

#[test]
fn allreduce_prediction_tracks_simulation() {
    let topo = Arc::new(presets::beluga());
    let planner = Planner::new(topo.clone());
    let gpus = topo.gpus();
    let kernel = mpx_gpu::KernelCostModel::default_gpu();
    let reduce_cost = move |b: usize| kernel.cost(b);
    for n in [16 * MIB, 64 * MIB] {
        for sel in [PathSelection::DIRECT_ONLY, PathSelection::THREE_GPUS] {
            let predicted = predict_allreduce_knomial(&planner, &gpus, n, sel, &reduce_cost)
                .unwrap()
                .total;
            let measured = osu_allreduce(
                &topo,
                UcxConfig {
                    mode: if sel == PathSelection::DIRECT_ONLY {
                        TuningMode::SinglePath
                    } else {
                        TuningMode::Dynamic
                    },
                    ..cfg(sel)
                },
                n,
                AllreduceAlgo::Rabenseifner,
                coll(),
            );
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.10,
                "allreduce n={n} {}: predicted {:.0} us vs measured {:.0} us ({:.0}%)",
                sel.label(),
                predicted * 1e6,
                measured * 1e6,
                rel * 100.0
            );
        }
    }
}

#[test]
fn alltoall_prediction_tracks_simulation() {
    let topo = Arc::new(presets::beluga());
    let planner = Planner::new(topo.clone());
    let gpus = topo.gpus();
    let kernel = mpx_gpu::KernelCostModel::default_gpu();
    let copy_cost = move |b: usize| kernel.cost_copy(b);
    let block = 8 * MIB;
    let sel = PathSelection::THREE_GPUS;
    let predicted = predict_alltoall_bruck(&planner, &gpus, block, sel, &copy_cost)
        .unwrap()
        .total;
    let measured = osu_alltoall(
        &topo,
        UcxConfig {
            mode: TuningMode::Dynamic,
            ..cfg(sel)
        },
        block,
        AlltoallAlgo::Bruck,
        coll(),
    );
    let rel = (predicted - measured).abs() / measured;
    assert!(
        rel < 0.20,
        "alltoall: predicted {:.0} us vs measured {:.0} us ({:.0}%)",
        predicted * 1e6,
        measured * 1e6,
        rel * 100.0
    );
}

#[test]
fn predicted_collective_speedup_matches_fig7_direction() {
    // The prediction reproduces Fig. 7's core finding: multi-path
    // accelerates the collective, by a factor in the measured band.
    let topo = Arc::new(presets::beluga());
    let planner = Planner::new(topo.clone());
    let gpus = topo.gpus();
    let kernel = mpx_gpu::KernelCostModel::default_gpu();
    let reduce_cost = move |b: usize| kernel.cost(b);
    let n = 64 * MIB;
    let single =
        predict_allreduce_knomial(&planner, &gpus, n, PathSelection::DIRECT_ONLY, &reduce_cost)
            .unwrap();
    let multi =
        predict_allreduce_knomial(&planner, &gpus, n, PathSelection::THREE_GPUS, &reduce_cost)
            .unwrap();
    let predicted_speedup = single.total / multi.total;
    let measured_single = osu_allreduce(
        &topo,
        UcxConfig {
            mode: TuningMode::SinglePath,
            ..cfg(PathSelection::THREE_GPUS)
        },
        n,
        AllreduceAlgo::Rabenseifner,
        coll(),
    );
    let measured_multi = osu_allreduce(
        &topo,
        UcxConfig {
            mode: TuningMode::Dynamic,
            ..cfg(PathSelection::THREE_GPUS)
        },
        n,
        AllreduceAlgo::Rabenseifner,
        coll(),
    );
    let measured_speedup = measured_single / measured_multi;
    assert!(
        (predicted_speedup - measured_speedup).abs() / measured_speedup < 0.10,
        "speedup: predicted {predicted_speedup:.2} vs measured {measured_speedup:.2}"
    );
}

/// Radix-4 prediction vs the radix-4 simulated K-nomial: the prediction
/// must capture the ablation's headline — radix 4 beats radix 2 under
/// single-path transport because it loads three links per round
/// algorithmically.
#[test]
fn radix4_prediction_tracks_simulation() {
    use mpx_model::predict_allreduce_knomial_radix;

    let topo = Arc::new(presets::beluga());
    let planner = Planner::new(topo.clone());
    let gpus = topo.gpus();
    let kernel = mpx_gpu::KernelCostModel::default_gpu();
    let reduce_cost = move |b: usize| kernel.cost(b);
    let n = 64 * MIB;

    let pred2 = predict_allreduce_knomial_radix(
        &planner,
        &gpus,
        n,
        PathSelection::DIRECT_ONLY,
        &reduce_cost,
        2,
    )
    .unwrap()
    .total;
    let pred4 = predict_allreduce_knomial_radix(
        &planner,
        &gpus,
        n,
        PathSelection::DIRECT_ONLY,
        &reduce_cost,
        4,
    )
    .unwrap()
    .total;
    assert!(
        pred4 < pred2 * 0.6,
        "radix-4 prediction {pred4} should clearly beat radix-2 {pred2}"
    );

    // And it should track the simulated radix-4 run.
    let world = World::new(
        topo.clone(),
        UcxConfig {
            mode: TuningMode::SinglePath,
            selection: PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        },
    );
    let times = world.run_tasks(4, |r| async move {
        let buf = r.alloc(n);
        r.barrier().await;
        let t0 = r.now();
        for _ in 0..2 {
            mpx_mpi::allreduce_knomial(&r, &buf, n, ReduceOp::Sum, 4).await;
        }
        r.now().secs_since(t0) / 2.0
    });
    let measured = times.into_iter().fold(0.0, f64::max);
    let rel = (pred4 - measured).abs() / measured;
    assert!(
        rel < 0.15,
        "radix-4: predicted {:.0} us vs measured {:.0} us ({:.0}%)",
        pred4 * 1e6,
        measured * 1e6,
        rel * 100.0
    );
}
