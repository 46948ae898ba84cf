//! Headline numbers (paper Abstract + Section 5):
//!
//! * mean model-prediction error vs the observed optimum for messages
//!   larger than 4 MB — the paper reports <6% for BW, ~8% for BIBW;
//! * maximum P2P speedup of multi-path over the direct path (paper: up
//!   to 2.9×) and maximum collective speedup (paper: up to 1.4×);
//! * Algorithm-1 runtime overhead relative to the transfer it configures
//!   (paper: <0.1% for large messages): the median of 21 batches of 1 000
//!   misses on a warm planner whose memo turns over every 512 plans,
//!   beside one cold batch.

use mpx_bench::{emit_json, paper_sizes};
use mpx_model::Planner;
use mpx_omb::{
    collective_panel, mean_relative_error, p2p_panel, CollectiveConfig, CollectiveKind, P2pKind,
};
use mpx_topo::{presets, PathSelection};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct HeadlineRow {
    cluster: String,
    selection: String,
    bw_error_pct: f64,
    bibw_error_pct: f64,
    max_p2p_speedup: f64,
}

fn main() {
    let sizes = paper_sizes();
    let mut rows = Vec::new();
    let mut worst_bw_error: f64 = 0.0;
    let mut best_p2p: f64 = 0.0;

    for (cluster, topo) in [
        ("beluga", Arc::new(presets::beluga())),
        ("narval", Arc::new(presets::narval())),
    ] {
        for (sel_label, sel) in PathSelection::paper_grid() {
            let bw = p2p_panel(&topo, P2pKind::Bw, sel, 1, &sizes, 6);
            let bibw = p2p_panel(&topo, P2pKind::Bibw, sel, 1, &sizes, 6);
            let observed = |panel: &[mpx_omb::Series]| {
                let mut o = panel[1].clone();
                for (p, d) in o.points.iter_mut().zip(&panel[2].points) {
                    p.value = p.value.max(d.value);
                }
                o
            };
            let bw_err = mean_relative_error(&observed(&bw), &bw[3], 4 << 20);
            let bibw_err = mean_relative_error(&observed(&bibw), &bibw[3], 4 << 20);
            let speedup = bw[2]
                .points
                .iter()
                .zip(&bw[0].points)
                .map(|(d, b)| d.value / b.value)
                .fold(0.0f64, f64::max);
            worst_bw_error = worst_bw_error.max(bw_err);
            best_p2p = best_p2p.max(speedup);
            println!(
                "{cluster:>7} {sel_label:>14}: BW err {:>5.1}%  BIBW err {:>5.1}%  max P2P speedup {:.2}x",
                bw_err * 100.0,
                bibw_err * 100.0,
                speedup
            );
            rows.push(HeadlineRow {
                cluster: cluster.into(),
                selection: sel_label.into(),
                bw_error_pct: bw_err * 100.0,
                bibw_error_pct: bibw_err * 100.0,
                max_p2p_speedup: speedup,
            });
        }
    }

    // Collective headline (3_GPUs, both clusters, both collectives).
    let coll_cfg = CollectiveConfig {
        ranks: 4,
        iterations: 2,
        warmup: 1,
    };
    let mut best_coll: f64 = 0.0;
    for (cluster, topo) in [
        ("beluga", Arc::new(presets::beluga())),
        ("narval", Arc::new(presets::narval())),
    ] {
        for (label, kind) in [
            ("alltoall", CollectiveKind::Alltoall),
            ("allreduce", CollectiveKind::Allreduce),
        ] {
            let panel = collective_panel(&topo, kind, PathSelection::THREE_GPUS, &sizes, coll_cfg);
            let best = panel[1]
                .points
                .iter()
                .map(|p| p.value)
                .fold(0.0f64, f64::max);
            best_coll = best_coll.max(best);
            println!("{cluster:>7} {label:>10}: max dynamic speedup {best:.2}x");
        }
    }

    // Algorithm-1 overhead: wall-clock cost of an uncached plan vs the
    // virtual duration of the transfer it configures. Every size is
    // distinct, so every plan is a miss: the production miss path (pair
    // memo lookup + the Eq. 24 share solve) without planner construction.
    // One batch on a fresh planner is the cold reading; the reported cost
    // is the median batch on the warm planner that follows, whose misses
    // mostly solve into plans recycled from the memo's turnover.
    let topo = Arc::new(presets::beluga());
    let gpus = topo.gpus();
    let n = 64 << 20;
    let planner = Planner::new(topo.clone());
    let reps = 1000;
    let mut next = 0;
    let mut batch = || {
        let t0 = Instant::now();
        for _ in 0..reps {
            let sel = PathSelection::THREE_GPUS_WITH_HOST;
            let _ = planner.plan(gpus[0], gpus[1], n + next * 4, sel).unwrap();
            next += 1;
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let cold_cost = batch();
    let mut warm: Vec<f64> = (0..21).map(|_| batch()).collect();
    warm.sort_by(f64::total_cmp);
    let plan_cost = warm[warm.len() / 2];
    let plan = planner
        .plan(gpus[0], gpus[1], n, PathSelection::THREE_GPUS_WITH_HOST)
        .unwrap();
    let overhead_pct = plan_cost / plan.predicted_time * 100.0;

    println!("\n---- headline summary ----");
    println!(
        "worst mean BW prediction error (n>4MB): {:.1}%  (paper: <6%)",
        worst_bw_error * 100.0
    );
    println!("max P2P speedup over direct path:       {best_p2p:.2}x (paper: up to 2.9x)");
    println!("max collective speedup:                 {best_coll:.2}x (paper: up to 1.4x)");
    println!(
        "Algorithm-1 cost per uncached plan:     {:.2} us = {:.4}% of a 64MB transfer (paper: <0.1%; miss with memo turnover; cold {:.2} us)",
        plan_cost * 1e6,
        overhead_pct,
        cold_cost * 1e6
    );

    #[derive(Serialize)]
    struct Summary {
        rows: Vec<HeadlineRow>,
        worst_bw_error_pct: f64,
        max_p2p_speedup: f64,
        max_collective_speedup: f64,
        algorithm1_cost_us: f64,
        algorithm1_overhead_pct: f64,
        algorithm1_cold_us: f64,
    }
    emit_json(
        "table_error",
        &Summary {
            rows,
            worst_bw_error_pct: worst_bw_error * 100.0,
            max_p2p_speedup: best_p2p,
            max_collective_speedup: best_coll,
            algorithm1_cost_us: plan_cost * 1e6,
            algorithm1_overhead_pct: overhead_pct,
            algorithm1_cold_us: cold_cost * 1e6,
        },
    );
}
