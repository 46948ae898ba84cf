//! Quickstart: ask the model for the optimal multi-path split of one
//! GPU-to-GPU transfer, execute it on the simulated fabric, and compare
//! prediction with measurement.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use multipath_gpu::prelude::*;
use std::sync::Arc;

fn main() {
    // A Beluga node: 4×V100, 2 NVLink-V2 sub-links per pair, PCIe Gen3.
    let topo = Arc::new(presets::beluga());
    println!("{}", topo.describe());

    // Step 1+2 (paper Fig. 2a): load the model over this topology.
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let ctx = UcxContext::new(rt, UcxConfig::default());
    let gpus = topo.gpus();
    let n = 64 << 20; // 64 MiB

    // Step 3+4: the optimal configuration for a 64 MiB transfer.
    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    println!("plan for {} bytes:", plan.n);
    for p in plan.active_paths() {
        println!(
            "  path {} ({}): theta = {:.3}, {} bytes in {} chunk(s)",
            p.index, p.kind, p.theta, p.share_bytes, p.chunks
        );
    }
    println!(
        "model prediction: {:.2} GB/s ({:.0} us)",
        plan.predicted_bandwidth / 1e9,
        plan.predicted_time * 1e6
    );

    // Step 5: hand the plan to the pipeline engine and run it.
    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    let t0 = ctx.runtime().engine().now();
    ctx.put(&PutRequest::new(&src, &dst, n)).unwrap();
    ctx.runtime().engine().run_until_idle();
    let measured = ctx.runtime().engine().now().secs_since(t0);
    println!(
        "simulated:        {:.2} GB/s ({:.0} us)",
        n as f64 / measured / 1e9,
        measured * 1e6
    );

    // The single-path baseline for contrast.
    let direct = topo.link_between(gpus[0], gpus[1]).unwrap();
    let direct_time = direct.transfer_time(n);
    println!(
        "direct-path-only: {:.2} GB/s  ->  multi-path speedup {:.2}x",
        n as f64 / direct_time / 1e9,
        direct_time / measured
    );
}
