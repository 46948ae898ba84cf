//! Modelling *your* machine: build a custom topology with the builder,
//! lint it, export it to JSON, and ask the model how transfers should be
//! split on it.
//!
//! The imaginary box here: three GPUs on a PCIe switch with one NVLink
//! bridge between GPU 0 and GPU 1 (a common workstation layout).
//!
//! ```text
//! cargo run --example custom_topology
//! ```

use mpx_topo::units::{gb_per_s, micros};
use mpx_topo::{GpuModel, LinkKind, NumaNode};
use multipath_gpu::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Describe the machine.
    let mut b = TopologyBuilder::new("workstation");
    let numa = NumaNode(0);
    let g0 = b.gpu(GpuModel::Generic, numa);
    let g1 = b.gpu(GpuModel::Generic, numa);
    let g2 = b.gpu(GpuModel::Generic, numa);
    let hm = b.host_memory(numa);
    // One NVLink bridge between g0 and g1.
    b.duplex_link(g0, g1, LinkKind::NvLinkV2, gb_per_s(48.0), micros(1.8), 2)
        .unwrap();
    // Everything hangs off the PCIe switch (peer-to-peer capable).
    for (a, c) in [(g0, g2), (g1, g2)] {
        b.duplex_link(a, c, LinkKind::Pcie, gb_per_s(12.0), micros(3.0), 1)
            .unwrap();
    }
    for g in [g0, g1, g2] {
        b.duplex_link(g, hm, LinkKind::Pcie, gb_per_s(12.0), micros(4.0), 1)
            .unwrap();
    }
    b.shared_link(hm, hm, LinkKind::HostDram, gb_per_s(30.0), micros(0.1), 1)
        .unwrap();
    let topo = Arc::new(b.build());

    // 2. Lint it.
    let issues = mpx_topo::validate(&topo);
    if issues.is_empty() {
        println!("validation: clean\n");
    } else {
        for i in &issues {
            println!("validation: {i}");
        }
        println!();
    }

    // 3. What does the model do with it?
    let planner = Planner::new(topo.clone());
    for (src, dst, label) in [(g0, g1, "NVLink pair"), (g0, g2, "PCIe-peer pair")] {
        let plan = planner
            .plan(src, dst, 64 << 20, PathSelection::THREE_GPUS_WITH_HOST)
            .unwrap();
        println!("{label} ({src} -> {dst}):");
        print!("{}", plan.describe());
        println!();
    }

    // 4. Check the plan against the simulated machine.
    let ctx = UcxContext::new(
        GpuRuntime::new(Engine::new(topo.clone())),
        UcxConfig::default(),
    );
    let n = 64 << 20;
    let src = ctx.runtime().alloc(g0, n);
    let dst = ctx.runtime().alloc(g1, n);
    ctx.put(&PutRequest::new(&src, &dst, n)).unwrap();
    ctx.runtime().engine().run_until_idle();
    println!(
        "simulated g0 -> g1: {:.2} GB/s",
        n as f64 / ctx.runtime().engine().now().as_secs() / 1e9
    );

    // 5. Export for reuse with the CLI (`mpx plan --topo-file ...`).
    let json = serde_json::to_string_pretty(topo.as_ref()).unwrap();
    println!(
        "\nJSON export: {} bytes (try `mpx plan --topo-file ws.json`)",
        json.len()
    );
}
