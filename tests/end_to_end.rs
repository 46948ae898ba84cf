//! Cross-crate integration: the full MPI → UCX → GPU runtime → simulator
//! stack, on both evaluated clusters.

use multipath_gpu::prelude::*;
use std::sync::Arc;

fn ucx(mode: TuningMode) -> UcxConfig {
    UcxConfig {
        mode,
        ..UcxConfig::default()
    }
}

/// A multi-megabyte message split across four paths, chunked, pipelined,
/// staged through two GPUs and host memory, must reassemble exactly —
/// on both cluster presets and with awkward sizes.
#[test]
fn multi_path_message_integrity_through_mpi() {
    for topo in [presets::beluga(), presets::narval()] {
        let name = topo.name.clone();
        let world = World::new(Arc::new(topo), ucx(TuningMode::Dynamic));
        let n = (6 << 20) + 4093; // odd size: exercises alignment leftovers
        let results = world.run_tasks(2, |r| async move {
            if r.rank == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i * 7 % 253) as u8).collect();
                let buf = r.alloc_bytes(data);
                r.send(&buf, n, 1, 42).await;
                None
            } else {
                let buf = r.alloc_zeroed(n);
                r.recv(&buf, n, Some(0), Some(42)).await;
                buf.to_vec()
            }
        });
        let got = results[1].as_ref().expect("receiver returns data");
        let want: Vec<u8> = (0..n).map(|i| (i * 7 % 253) as u8).collect();
        assert_eq!(got, &want, "corruption on {name}");
    }
}

/// Headline P2P speedups stay in the paper's band on both clusters.
#[test]
fn p2p_speedup_bands() {
    let n = 128 << 20;
    for (name, topo, band) in [
        ("beluga", Arc::new(presets::beluga()), (2.3, 3.4)),
        ("narval", Arc::new(presets::narval()), (1.8, 3.2)),
    ] {
        let single = osu_bw(&topo, ucx(TuningMode::SinglePath), n, P2pConfig::default());
        let multi = osu_bw(&topo, ucx(TuningMode::Dynamic), n, P2pConfig::default());
        let speedup = multi / single;
        assert!(
            speedup >= band.0 && speedup <= band.1,
            "{name}: speedup {speedup:.2} outside [{}, {}]",
            band.0,
            band.1
        );
    }
}

/// Model predictions track the simulated dynamic configuration closely
/// for large messages, on every path selection and both clusters.
#[test]
fn prediction_tracks_simulation_for_large_messages() {
    let n = 64 << 20;
    for topo in [Arc::new(presets::beluga()), Arc::new(presets::narval())] {
        for (label, sel) in PathSelection::paper_grid() {
            let cfg = UcxConfig {
                mode: TuningMode::Dynamic,
                selection: sel,
                ..UcxConfig::default()
            };
            let measured = osu_bw(&topo, cfg, n, P2pConfig::default());
            let planner = Planner::new(topo.clone());
            let gpus = topo.gpus();
            let predicted = planner
                .plan(gpus[0], gpus[1], n, sel)
                .unwrap()
                .predicted_bandwidth;
            let rel = (predicted - measured).abs() / measured;
            // The paper reports <6% on hardware; we allow 12% headroom on
            // the host-staged Narval config (its Obs-3 pathology).
            let bound = if sel.host_staged { 0.20 } else { 0.12 };
            assert!(
                rel < bound,
                "{} {label}: predicted {:.1} vs measured {:.1} GB/s ({:.0}%)",
                topo.name,
                predicted / 1e9,
                measured / 1e9,
                rel * 100.0
            );
        }
    }
}

/// An allreduce produces identical, correct results on every rank while
/// running over the multi-path transport.
#[test]
fn allreduce_correct_over_multipath() {
    let world = World::new(Arc::new(presets::narval()), ucx(TuningMode::Dynamic));
    let elems = 1024;
    let results = world.run_tasks(4, |r| async move {
        let vals: Vec<f32> = (0..elems).map(|i| (r.rank * elems + i) as f32).collect();
        let buf = r.alloc_bytes(mpx_gpu::reduce::f32_bytes(&vals));
        mpx_mpi::allreduce_rabenseifner(&r, &buf, elems * 4, ReduceOp::Sum).await;
        mpx_gpu::reduce::bytes_f32(&buf.to_vec().unwrap())
    });
    let want: Vec<f32> = (0..elems)
        .map(|i| (0..4).map(|r| (r * elems + i) as f32).sum())
        .collect();
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(got, &want, "rank {rank} diverged");
    }
}

/// Alltoall over multi-path transport delivers every block to the right
/// place, with Bruck and pairwise agreeing.
#[test]
fn alltoall_algorithms_agree_over_multipath() {
    let run = |bruck: bool| {
        let world = World::new(Arc::new(presets::beluga()), ucx(TuningMode::Dynamic));
        let block = 64 << 10;
        world.run_tasks(4, |r| async move {
            let sdata: Vec<u8> = (0..4)
                .flat_map(|dst| vec![(r.rank * 4 + dst + 1) as u8; block])
                .collect();
            let send = r.alloc_bytes(sdata);
            let recv = r.alloc_zeroed(4 * block);
            if bruck {
                mpx_mpi::alltoall_bruck(&r, &send, &recv, block).await;
            } else {
                mpx_mpi::alltoall_pairwise(&r, &send, &recv, block).await;
            }
            recv.to_vec().unwrap()
        })
    };
    assert_eq!(run(true), run(false));
}

/// The three tuning modes form the expected performance ladder for a
/// large transfer: single-path < static(coarse) <= dynamic, and all
/// complete without leaking matching state.
#[test]
fn tuning_mode_ladder() {
    let topo = Arc::new(presets::beluga());
    let n = 64 << 20;
    let single = osu_bw(&topo, ucx(TuningMode::SinglePath), n, P2pConfig::default());

    let static_cfg = ucx(TuningMode::Static);
    let world = World::new(topo.clone(), static_cfg);
    let gpus = topo.gpus();
    world.context().tune_static(gpus[0], gpus[1], n).unwrap();
    let statically = mpx_omb::osu_bw_on(&world, n, P2pConfig::default());

    let dynamic = osu_bw(&topo, ucx(TuningMode::Dynamic), n, P2pConfig::default());

    assert!(
        statically > 1.8 * single,
        "static {statically} vs single {single}"
    );
    assert!(
        dynamic > 1.8 * single,
        "dynamic {dynamic} vs single {single}"
    );
    assert_eq!(world.pending_messages(), (0, 0));
}

/// DGX-1 partial mesh: a pair with no direct NVLink (0↔5) still
/// communicates — through staged paths only — and the data is intact.
#[test]
fn dgx1_unlinked_pair_transfers_via_staging() {
    let topo = Arc::new(presets::dgx1());
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let ctx = UcxContext::new(rt, UcxConfig::default());
    let g = topo.gpus();
    let n = (2 << 20) + 17;
    let data: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(g[0], data.clone());
    let dst = ctx.runtime().alloc_zeroed(g[5], n);
    let plan = ctx.plan_for(g[0], g[5], n).unwrap();
    assert!(
        plan.paths.iter().all(|p| !p.kind.is_direct()),
        "0-5 has no direct link"
    );
    let h = ctx.put_async(&src, &dst, n).unwrap();
    ctx.runtime().engine().run_until_idle();
    assert!(h.is_complete());
    assert_eq!(dst.to_vec().unwrap(), data);
}

/// DGX-1 heterogeneity: a single-brick pair (0↔1, 24 GB/s direct) gains
/// relatively more from multi-path than a double-brick pair (0↔3,
/// 48 GB/s direct), because the staged detours contribute the same
/// ~24 GB/s bottleneck either way.
#[test]
fn dgx1_weak_pairs_gain_more_from_multipath() {
    let topo = Arc::new(presets::dgx1());
    let g = topo.gpus();
    let planner = Planner::new(topo.clone());
    let speedup = |a, b| {
        let n = 256 << 20;
        let multi = planner
            .plan(a, b, n, PathSelection::THREE_GPUS)
            .unwrap()
            .predicted_bandwidth;
        let direct = topo.link_between(a, b).unwrap().bandwidth;
        multi / direct
    };
    let weak = speedup(g[0], g[1]); // 24 GB/s direct
    let strong = speedup(g[0], g[3]); // 48 GB/s direct
    assert!(
        weak > strong,
        "single-brick pair should gain more: {weak:.2}x vs {strong:.2}x"
    );
    assert!(
        weak > 2.3,
        "0-1 aggregates three ~24 GB/s paths: {weak:.2}x"
    );
}

/// PCIe-only box: GPUs with no NVLink at all still talk through host
/// staging, end to end through the MPI stack.
#[test]
fn pcie_only_box_communicates_through_host() {
    let topo = Arc::new(presets::pcie_only(2));
    let world = World::new(topo, ucx(TuningMode::Dynamic));
    let n = 1 << 20;
    let results = world.run_tasks(2, |r| async move {
        if r.rank == 0 {
            let buf = r.alloc_bytes(vec![0xAB; n]);
            r.send(&buf, n, 1, 1).await;
            None
        } else {
            let buf = r.alloc_zeroed(n);
            r.recv(&buf, n, Some(0), Some(1)).await;
            buf.to_vec()
        }
    });
    assert_eq!(results[1].as_ref().unwrap(), &vec![0xAB; n]);
}

/// Concurrent transfers between disjoint pairs share the fabric without
/// interfering on direct links (full-duplex, disjoint routes).
#[test]
fn disjoint_pairs_do_not_interfere_single_path() {
    let topo = Arc::new(presets::beluga());
    let world = World::new(topo, ucx(TuningMode::SinglePath));
    let n = 32 << 20;
    let times = world.run_tasks(4, |r| async move {
        let peer = r.rank ^ 1; // pairs (0,1) and (2,3)
        let buf = r.alloc(n);
        r.barrier().await;
        let t0 = r.now();
        if r.rank % 2 == 0 {
            r.send(&buf, n, peer, 0).await;
        } else {
            r.recv(&buf, n, Some(peer), Some(0)).await;
        }
        r.now().secs_since(t0)
    });
    // Both pairs finish in single-transfer time (32M / 48 GB/s ≈ 0.70 ms).
    let solo = 32.0 * 1024.0 * 1024.0 / 48e9;
    for (i, t) in times.iter().enumerate() {
        assert!(
            *t < solo * 1.35,
            "rank {i} took {t}, expected ~{solo} (no interference)"
        );
    }
}
