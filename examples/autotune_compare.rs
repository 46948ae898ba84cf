//! The paper's core argument, head to head: exhaustive static tuning
//! evaluates dozens of candidate configurations by measurement; the
//! model picks one analytically. This example counts the work each
//! spends — candidates considered, and how many of them the tuner's
//! bound and memo still left to simulate — and compares the bandwidth
//! each achieves.
//!
//! ```text
//! cargo run --example autotune_compare
//! ```

use mpx_topo::path::enumerate_paths;
use mpx_ucx::{measure_plan, tune_exhaustive};
use multipath_gpu::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let topo = Arc::new(presets::beluga());
    let gpus = topo.gpus();
    let sel = PathSelection::THREE_GPUS_WITH_HOST;
    let cfg = PlannerConfig::default();

    println!(
        "{:>8} | {:>22} {:>16} | {:>22} {:>12} | {:>6}",
        "size", "exhaustive (GB/s)", "simulated/evals", "model (GB/s)", "wall", "gap"
    );
    for n in [4 << 20, 16 << 20, 64 << 20, 256 << 20] {
        // Static: exhaustive grid search over share splits.
        let t0 = Instant::now();
        let tuned = tune_exhaustive(&topo, gpus[0], gpus[1], n, sel, &cfg, 8).unwrap();
        let tune_wall = t0.elapsed();

        // Dynamic: one closed-form evaluation.
        let t1 = Instant::now();
        let planner = Planner::new(topo.clone());
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let plan_wall = t1.elapsed();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
        let model_bw = measure_plan(&topo, &plan, &paths, gpus[0], gpus[1]);

        let gap = (tuned.bandwidth - model_bw) / tuned.bandwidth * 100.0;
        println!(
            "{:>8} | {:>18.2} GB/s {:>4}/{:<3} cfg ({:>6.0?}) | {:>18.2} GB/s {:>12.0?} | {:>5.1}%",
            mpx_topo::units::format_bytes(n),
            tuned.bandwidth / 1e9,
            tuned.simulated,
            tuned.evaluated,
            tune_wall,
            model_bw / 1e9,
            plan_wall,
            gap
        );
    }
    println!("\n`gap` = how far the model's single analytic choice trails the");
    println!("exhaustively measured optimum (the paper reports <6% for n > 4MB).");
}
