//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. φ-linearized chunk counts (Eq. 19) vs the exact √-optimal (Eq. 14/15);
//! 2. pipelined vs un-pipelined staged execution;
//! 3. contention-blind (per-transfer Algorithm 1) vs contention-aware
//!    joint planning on loaded patterns (the paper's future work);
//! 4. collective algorithm choices (K-nomial vs ring allreduce, Bruck vs
//!    pairwise alltoall) under single- and multi-path transport;
//! 5. OMB window-size sweep.

use mpx_bench::emit_json;
use mpx_model::{chunk_count, optimal_chunks_exact, time_pipelined, PipelineMode, PlannerConfig};
use mpx_omb::{
    osu_allreduce, osu_alltoall, osu_bw, ring_pairs, run_pattern, AllreduceAlgo, AlltoallAlgo,
    CollectiveConfig, P2pConfig, PatternPlanning,
};
use mpx_topo::params::extract_all;
use mpx_topo::path::{enumerate_paths, PathSelection};
use mpx_topo::presets;
use mpx_topo::units::MIB;
use mpx_ucx::{TuningMode, UcxConfig};
use serde_json::json;
use std::sync::Arc;

fn main() {
    let mut out = Vec::new();
    let topo = Arc::new(presets::beluga());
    let gpus = topo.gpus();

    // ---- 1. φ-linear vs exact chunk counts -----------------------------
    println!("== ablation 1: chunk-count law (staged path, theta = 0.3) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "size", "k_exact", "k_linear", "T(k_ex) us", "T(k_lin) us", "loss"
    );
    let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::TWO_GPUS).unwrap();
    let params = extract_all(&topo, &paths).unwrap();
    let staged = &params[1];
    for n in [2 * MIB, 8 * MIB, 32 * MIB, 128 * MIB, 512 * MIB] {
        let theta = 0.3;
        let k_exact = optimal_chunks_exact(staged, theta, n as f64)
            .round()
            .max(1.0) as u32;
        let k_linear = chunk_count(staged, theta, n as f64, 1 << 20);
        let t_exact = time_pipelined(staged, theta, n as f64, k_exact);
        let t_linear = time_pipelined(staged, theta, n as f64, k_linear);
        let loss = (t_linear - t_exact) / t_exact * 100.0;
        println!(
            "{:>10} {:>10} {:>10} {:>12.1} {:>12.1} {:>7.2}%",
            mpx_topo::units::format_bytes(n),
            k_exact,
            k_linear,
            t_exact * 1e6,
            t_linear * 1e6,
            loss
        );
        out.push(json!({"ablation": "chunk_law", "n": n, "k_exact": k_exact,
                        "k_linear": k_linear, "loss_pct": loss}));
    }

    // ---- 2. pipelined vs un-pipelined -----------------------------------
    println!("\n== ablation 2: pipelining (3_GPUs, dynamic) ==");
    println!(
        "{:>10} {:>14} {:>14} {:>8}",
        "size", "piped GB/s", "unpiped GB/s", "gain"
    );
    for n in [8 * MIB, 64 * MIB, 256 * MIB] {
        let bw_of = |mode: PipelineMode| {
            let cfg = UcxConfig {
                mode: TuningMode::Dynamic,
                selection: PathSelection::THREE_GPUS,
                planner: PlannerConfig {
                    mode,
                    ..PlannerConfig::default()
                },
                ..UcxConfig::default()
            };
            osu_bw(&topo, cfg, n, P2pConfig::default())
        };
        let piped = bw_of(PipelineMode::Pipelined);
        let unpiped = bw_of(PipelineMode::Unpipelined);
        println!(
            "{:>10} {:>14.2} {:>14.2} {:>7.2}x",
            mpx_topo::units::format_bytes(n),
            piped / 1e9,
            unpiped / 1e9,
            piped / unpiped
        );
        out.push(json!({"ablation": "pipelining", "n": n,
                        "piped": piped, "unpiped": unpiped}));
    }

    // ---- 3. contention-blind vs joint planning -------------------------
    println!("\n== ablation 3: loaded-pattern planning (4-GPU ring) ==");
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "size", "single GB/s", "blind GB/s", "joint GB/s"
    );
    for n in [16 * MIB, 64 * MIB, 256 * MIB] {
        let pairs = ring_pairs(4);
        let sel = PathSelection::THREE_GPUS;
        let single = run_pattern(&topo, &pairs, n, sel, PatternPlanning::SinglePath);
        let blind = run_pattern(&topo, &pairs, n, sel, PatternPlanning::Blind);
        let joint = run_pattern(&topo, &pairs, n, sel, PatternPlanning::Joint);
        println!(
            "{:>10} {:>14.2} {:>14.2} {:>14.2}",
            mpx_topo::units::format_bytes(n),
            single.aggregate_bandwidth / 1e9,
            blind.aggregate_bandwidth / 1e9,
            joint.aggregate_bandwidth / 1e9
        );
        out.push(json!({"ablation": "contention", "n": n,
                        "single": single.aggregate_bandwidth,
                        "blind": blind.aggregate_bandwidth,
                        "joint": joint.aggregate_bandwidth}));
    }

    // ---- 4. collective algorithms ---------------------------------------
    println!("\n== ablation 4: collective algorithms (64 MB per rank) ==");
    let coll = CollectiveConfig {
        ranks: 4,
        iterations: 2,
        warmup: 1,
    };
    let n = 64 * MIB;
    for mode in [TuningMode::SinglePath, TuningMode::Dynamic] {
        let cfg = UcxConfig {
            mode,
            selection: PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        };
        let knomial = osu_allreduce(&topo, cfg, n, AllreduceAlgo::Rabenseifner, coll);
        let ring = osu_allreduce(&topo, cfg, n, AllreduceAlgo::Ring, coll);
        let bruck = osu_alltoall(&topo, cfg, n / 4, AlltoallAlgo::Bruck, coll);
        let pairwise = osu_alltoall(&topo, cfg, n / 4, AlltoallAlgo::Pairwise, coll);
        println!(
            "{mode:?}: allreduce knomial {:.2} ms / ring {:.2} ms; alltoall bruck {:.2} ms / pairwise {:.2} ms",
            knomial * 1e3,
            ring * 1e3,
            bruck * 1e3,
            pairwise * 1e3
        );
        out.push(
            json!({"ablation": "collective_algos", "mode": format!("{mode:?}"),
                        "allreduce_knomial": knomial, "allreduce_ring": ring,
                        "alltoall_bruck": bruck, "alltoall_pairwise": pairwise}),
        );
    }

    // ---- 5. window sweep -------------------------------------------------
    println!("\n== ablation 5: window sweep (dynamic, 8 MB) ==");
    print!("window:");
    for w in [1usize, 2, 4, 8, 16, 32] {
        let cfg = UcxConfig {
            mode: TuningMode::Dynamic,
            selection: PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        };
        let bw = osu_bw(&topo, cfg, 8 * MIB, P2pConfig::with_window(w));
        print!("  {w}:{:.1}GB/s", bw / 1e9);
        out.push(json!({"ablation": "window", "window": w, "bandwidth": bw}));
    }
    println!();

    // ---- 5b. K-nomial radix (4 GPUs: radix 2 = two rounds of pairs,
    // radix 4 = one round with three concurrent partners) -----------------
    println!("\n== ablation 5b: K-nomial radix (allreduce, 4 ranks) ==");
    {
        use mpx_mpi::{allreduce_knomial, World};
        let run = |radix: usize, mode: TuningMode, n: usize| {
            let world = World::new(
                topo.clone(),
                UcxConfig {
                    mode,
                    selection: PathSelection::THREE_GPUS,
                    ..UcxConfig::default()
                },
            );
            let times = world.run_tasks(4, |r| async move {
                let buf = r.alloc(n);
                r.barrier().await;
                let t0 = r.now();
                for _ in 0..2 {
                    allreduce_knomial(&r, &buf, n, mpx_gpu::ReduceOp::Sum, radix).await;
                }
                r.now().secs_since(t0) / 2.0
            });
            times.into_iter().fold(0.0, f64::max)
        };
        for n in [16 * MIB, 64 * MIB] {
            let r2s = run(2, TuningMode::SinglePath, n);
            let r2d = run(2, TuningMode::Dynamic, n);
            let r4s = run(4, TuningMode::SinglePath, n);
            let r4d = run(4, TuningMode::Dynamic, n);
            println!(
                "{:>6}: radix2 {:.2}/{:.2} ms (x{:.2}) | radix4 {:.2}/{:.2} ms (x{:.2})",
                mpx_topo::units::format_bytes(n),
                r2s * 1e3,
                r2d * 1e3,
                r2s / r2d,
                r4s * 1e3,
                r4d * 1e3,
                r4s / r4d,
            );
            out.push(json!({"ablation": "knomial_radix", "n": n,
                            "radix2_single": r2s, "radix2_dynamic": r2d,
                            "radix4_single": r4s, "radix4_dynamic": r4d}));
        }
    }

    // ---- 6. calibration sensitivity --------------------------------------
    println!("\n== ablation 6: calibration-error regret (Beluga 3_GPUs, 64 MB) ==");
    let paths3 = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::THREE_GPUS).unwrap();
    let true_params = extract_all(&topo, &paths3).unwrap();
    let to_laws = |params: &[mpx_topo::PathParams]| -> Vec<mpx_model::OmegaDelta> {
        params
            .iter()
            .map(|p| mpx_model::OmegaDelta {
                omega: p.omega_unpipelined(),
                delta: p.delta_unpipelined(),
            })
            .collect()
    };
    let true_laws = to_laws(&true_params);
    print!("second-leg beta error:");
    for delta in [-0.5, -0.25, -0.1, 0.1, 0.25, 0.5] {
        let perturbed =
            mpx_model::perturb(&true_params, mpx_model::Perturb::SecondLegBandwidth, delta);
        let r = mpx_model::regret(&true_laws, &to_laws(&perturbed), (64 * MIB) as f64);
        print!("  {:+.0}%:{:.2}%", delta * 100.0, r * 100.0);
        out.push(json!({"ablation": "sensitivity", "delta": delta, "regret": r}));
    }
    println!();

    // ---- 7. DGX-1 staged-only pair (no direct link) ----------------------
    println!("\n== ablation 7: DGX-1 unlinked pair gpu0 -> gpu5 (staged-only) ==");
    {
        use mpx_gpu::GpuRuntime;
        use mpx_sim::Engine;
        use mpx_ucx::{UcxConfig, UcxContext};
        let dgx = Arc::new(presets::dgx1());
        let gpus = dgx.gpus();
        let n = 128 * MIB;
        print!("paths:");
        for staged in [1usize, 2, 3] {
            let sel = PathSelection {
                max_gpu_staged: staged,
                host_staged: false,
            };
            let ctx = UcxContext::new(
                GpuRuntime::new(Engine::new(dgx.clone())),
                UcxConfig {
                    selection: sel,
                    ..UcxConfig::default()
                },
            );
            let src = ctx.runtime().alloc(gpus[0], n);
            let dst = ctx.runtime().alloc(gpus[5], n);
            ctx.put_async(&src, &dst, n).unwrap();
            ctx.runtime().engine().run_until_idle();
            let t0 = ctx.runtime().engine().now();
            ctx.put_async(&src, &dst, n).unwrap();
            ctx.runtime().engine().run_until_idle();
            let bw = n as f64 / ctx.runtime().engine().now().secs_since(t0);
            print!("  {staged}:{:.1}GB/s", bw / 1e9);
            out.push(json!({"ablation": "dgx_unlinked", "staged_paths": staged, "bandwidth": bw}));
        }
        println!("  (pair has no direct NVLink; every byte is staged)");
    }

    emit_json("ablations", &out);
}
