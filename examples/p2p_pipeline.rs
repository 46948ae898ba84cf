//! Renders a Fig. 2(b)-style schedule of one multi-path transfer: every
//! chunk's copy on every path, with issue/activation/completion times,
//! pulled from the simulator's flow trace.
//!
//! ```text
//! cargo run --example p2p_pipeline              # text lanes
//! cargo run --example p2p_pipeline -- trace.json  # + Chrome trace export
//! ```

use multipath_gpu::prelude::*;
use std::sync::Arc;

fn main() {
    let topo = Arc::new(presets::beluga());
    // Tracing on: every flow leaves a TraceRecord.
    let engine = Engine::with_tracing(topo.clone(), true);
    let rt = GpuRuntime::new(engine);
    let ctx = UcxContext::new(rt, UcxConfig::default());
    let gpus = topo.gpus();

    let n = 16 << 20;
    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    // Warmup transfer: absorbs the one-time IPC handle open (~80 µs) so
    // the traced schedule shows steady-state behaviour.
    ctx.put(&PutRequest::new(&src, &dst, n)).unwrap();
    ctx.runtime().engine().run_until_idle();
    let _ = ctx.runtime().engine().take_trace();
    let t_base = ctx.runtime().engine().now();
    ctx.put(&PutRequest::new(&src, &dst, n)).unwrap();
    ctx.runtime().engine().run_until_idle();

    let mut trace = ctx.runtime().engine().take_trace();
    for r in &mut trace {
        r.issued = r.issued - t_base;
        r.activated = r.activated - t_base;
        r.completed = r.completed - t_base;
    }
    trace.sort_by_key(|r| (r.activated, r.completed));

    println!("multi-path schedule of a 16 MiB transfer gpu0 -> gpu1\n");
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>12}",
        "flow", "bytes", "issued(us)", "start(us)", "end(us)"
    );
    let end = trace.iter().map(|r| r.completed).max().unwrap();
    for r in &trace {
        println!(
            "{:<24} {:>10} {:>12.1} {:>12.1} {:>12.1}",
            r.label,
            r.bytes,
            r.issued.as_secs() * 1e6,
            r.activated.as_secs() * 1e6,
            r.completed.as_secs() * 1e6
        );
    }
    println!(
        "\ntotal: {:.1} us  ->  {:.2} GB/s aggregate",
        end.as_secs() * 1e6,
        n as f64 / end.as_secs() / 1e9
    );

    // ASCII lane view, one row per path/leg.
    println!(
        "\nlane view (each column ~ {:.0} us):",
        end.as_secs() * 1e6 / 60.0
    );
    let mut lanes: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for r in &trace {
        let lane_key = r.label.split(".c").next().unwrap_or(&r.label).to_string()
            + if r.label.contains("leg2") {
                ".leg2"
            } else {
                ".leg1"
            };
        let span = (r.activated.as_secs(), r.completed.as_secs());
        match lanes.iter_mut().find(|(k, _)| *k == lane_key) {
            Some((_, spans)) => spans.push(span),
            None => lanes.push((lane_key, vec![span])),
        }
    }
    for (key, spans) in &lanes {
        let mut row = vec![' '; 60];
        for (a, b) in spans {
            let i0 = (a / end.as_secs() * 59.0) as usize;
            let i1 = (b / end.as_secs() * 59.0) as usize;
            for c in row.iter_mut().take(i1 + 1).skip(i0) {
                *c = '#';
            }
        }
        println!("{:<22} |{}|", key, row.iter().collect::<String>());
    }

    // Optional: export the schedule for chrome://tracing / Perfetto.
    if let Some(path) = std::env::args().nth(1) {
        let json = mpx_sim::trace_to_chrome_json(&trace);
        std::fs::write(&path, json).expect("write trace");
        println!(
            "
wrote Chrome trace to {path} (load in chrome://tracing)"
        );
    }
}
