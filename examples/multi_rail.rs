//! Inter-node multi-rail transfers: two Beluga-class nodes joined by
//! InfiniBand rails. The paper's model applies verbatim — rails are
//! heterogeneous parallel paths, so Eq. (8) splits a message across them
//! exactly as it splits across NVLink detours inside one node (the
//! "multi-node communication" future work of Section 6).
//!
//! ```text
//! cargo run --example multi_rail
//! ```

use multipath_gpu::prelude::*;
use std::sync::Arc;

fn measure(topo: &Arc<Topology>, rails: usize, n: usize) -> f64 {
    let sel = PathSelection {
        max_gpu_staged: rails - 1,
        host_staged: false,
    };
    let ctx = UcxContext::new(
        GpuRuntime::new(Engine::new(topo.clone())),
        UcxConfig {
            selection: sel,
            ..UcxConfig::default()
        },
    );
    let gpus = topo.gpus();
    let (src, dst) = (gpus[0], gpus[4]); // node 0 -> node 1
    let s = ctx.runtime().alloc(src, n);
    let d = ctx.runtime().alloc(dst, n);
    // Warm, then measure.
    ctx.put(&PutRequest::new(&s, &d, n)).unwrap();
    ctx.runtime().engine().run_until_idle();
    let t0 = ctx.runtime().engine().now();
    ctx.put(&PutRequest::new(&s, &d, n)).unwrap();
    ctx.runtime().engine().run_until_idle();
    n as f64 / ctx.runtime().engine().now().secs_since(t0)
}

fn main() {
    let n = 256 << 20;
    println!(
        "inter-node transfer gpu0(node0) -> gpu0(node1), {} MB\n",
        n >> 20
    );
    for total_rails in [1usize, 2, 4] {
        let topo = Arc::new(presets::two_node_beluga(total_rails));
        // Show the model's rail split first.
        let planner = Planner::new(topo.clone());
        let gpus = topo.gpus();
        let plan = planner
            .plan(
                gpus[0],
                gpus[4],
                n,
                PathSelection {
                    max_gpu_staged: total_rails - 1,
                    host_staged: false,
                },
            )
            .unwrap();
        let shares: Vec<String> = plan
            .active_paths()
            .map(|p| format!("{:.0}%", p.theta * 100.0))
            .collect();
        let bw = measure(&topo, total_rails, n);
        println!(
            "{total_rails} rail(s): {:>6.2} GB/s   (model split: {})",
            bw / 1e9,
            shares.join(" / ")
        );
    }
    println!("\nEach rail is PCIe-bound at ~12 GB/s; rails aggregate linearly,");
    println!("and the same Eq. (8) that splits NVLink paths splits the rails.");
}
