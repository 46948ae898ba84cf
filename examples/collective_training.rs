//! A data-parallel training step on 4 simulated GPUs: compute, then
//! allreduce the gradients — the workload class whose communication the
//! paper accelerates. Compares the default single-path stack with
//! model-driven multi-path transport.
//!
//! ```text
//! cargo run --example collective_training
//! ```

use multipath_gpu::prelude::*;
use std::sync::Arc;

/// One training step: `compute_ms` of simulated kernel time followed by
/// an allreduce of `grad_bytes` of gradients. Returns the mean step time.
fn train(topo: &Arc<Topology>, mode: TuningMode, grad_bytes: usize, steps: usize) -> f64 {
    let cfg = UcxConfig {
        mode,
        // Collectives run without host staging (paper Section 5.3).
        selection: PathSelection::THREE_GPUS,
        ..UcxConfig::default()
    };
    let world = World::new(topo.clone(), cfg);
    let times = world.run_tasks(4, |rank| async move {
        let grads = rank.alloc(grad_bytes);
        rank.barrier().await;
        let t0 = rank.now();
        for _ in 0..steps {
            // Backward pass: ~2 ms of compute.
            rank.compute(2e-3).await;
            // Gradient allreduce (K-nomial scatter-reduce + allgather).
            mpx_mpi::allreduce_rabenseifner(&rank, &grads, grad_bytes, ReduceOp::Sum).await;
        }
        rank.now().secs_since(t0) / steps as f64
    });
    times.into_iter().fold(0.0, f64::max)
}

fn main() {
    let grad_bytes = 128 << 20; // a 32M-parameter f32 model
    let steps = 3;
    println!(
        "data-parallel step: 2 ms compute + {} MB gradient allreduce on 4 GPUs\n",
        grad_bytes >> 20
    );
    for (name, topo) in [
        ("beluga", Arc::new(presets::beluga())),
        ("narval", Arc::new(presets::narval())),
    ] {
        let single = train(&topo, TuningMode::SinglePath, grad_bytes, steps);
        let multi = train(&topo, TuningMode::Dynamic, grad_bytes, steps);
        println!(
            "{name:>7}: single-path {:.2} ms/step, multi-path {:.2} ms/step  ->  {:.2}x step speedup",
            single * 1e3,
            multi * 1e3,
            single / multi
        );
    }
}
