//! Figure-panel runners: produce exactly the series the paper's
//! evaluation figures plot.
//!
//! * [`p2p_panel`] — one panel of Figure 5 (BW) or Figure 6 (BIBW): the
//!   `Direct Path` baseline, the exhaustively-tuned `Static`
//!   distribution, the model-driven `Dynamic` distribution, and the
//!   model's `Predicted` bandwidth, swept over message sizes.
//! * [`collective_panel`] — one panel of Figure 7: `Static` and
//!   `Dynamic` latency speedups of MPI_Alltoall / MPI_Allreduce over the
//!   single-path baseline.
//! * [`degraded_fabric_panel`] — beyond the paper: achieved bandwidth of
//!   a resilient transfer when the direct link degrades mid-run, with
//!   and without recalibrating the model against the degraded fabric.

use crate::bw::{osu_bibw_on, osu_bw_on, P2pConfig};
use crate::collective_bench::{
    allreduce_on, alltoall_on, AllreduceAlgo, AlltoallAlgo, CollectiveConfig,
};
use crate::report::Series;
use mpx_gpu::GpuRuntime;
use mpx_mpi::World;
use mpx_sim::{Engine, FaultInjector, FaultKind, FaultPlan, SimTime};
use mpx_topo::path::PathSelection;
use mpx_topo::units::Bandwidth;
use mpx_topo::Topology;
use mpx_ucx::{RecoveryConfig, TransferError, TuningMode, UcxConfig, UcxContext};
use std::sync::Arc;

/// Unidirectional or bidirectional P2P panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P2pKind {
    /// OMB `osu_bw`.
    Bw,
    /// OMB `osu_bibw`.
    Bibw,
}

/// Which collective a Figure-7 panel measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// MPI_Alltoall (Bruck).
    Alltoall,
    /// MPI_Allreduce (K-nomial scatter-reduce + allgather).
    Allreduce,
}

fn ucx(mode: TuningMode, sel: PathSelection) -> UcxConfig {
    UcxConfig {
        mode,
        selection: sel,
        ..UcxConfig::default()
    }
}

/// Runs one P2P panel. Returns the four series in the paper's legend
/// order: `Direct Path`, `Static`, `Dynamic`, `Predicted`.
pub fn p2p_panel(
    topo: &Arc<Topology>,
    kind: P2pKind,
    sel: PathSelection,
    window: usize,
    sizes: &[usize],
    static_grid: u32,
) -> Vec<Series> {
    let cfg = P2pConfig::with_window(window);
    let measure = |world: &World, n: usize| match kind {
        P2pKind::Bw => osu_bw_on(world, n, cfg),
        P2pKind::Bibw => osu_bibw_on(world, n, cfg),
    };

    let mut direct = Series::new("Direct Path");
    let mut stat = Series::new("Static");
    let mut dynamic = Series::new("Dynamic");
    let mut predicted = Series::new("Predicted");

    // Direct baseline.
    let w_direct = World::new(topo.clone(), ucx(TuningMode::SinglePath, sel));
    for &n in sizes {
        direct.push(n, measure(&w_direct, n));
    }

    // Static: exhaustively tune each size, then measure from the table.
    let mut static_cfg = ucx(TuningMode::Static, sel);
    static_cfg.static_grid = static_grid;
    let w_static = World::new(topo.clone(), static_cfg);
    let gpus = topo.gpus();
    for &n in sizes {
        w_static
            .context()
            .tune_static(gpus[0], gpus[1], n)
            .expect("static tuning");
        stat.push(n, measure(&w_static, n));
    }

    // Dynamic: model-driven at runtime.
    let w_dynamic = World::new(topo.clone(), ucx(TuningMode::Dynamic, sel));
    for &n in sizes {
        dynamic.push(n, measure(&w_dynamic, n));
    }

    // Predicted: the model's *windowed* bandwidth (fixed costs amortize
    // over the window, Observation 2), ×2 for BIBW — the model is
    // direction-agnostic, which is exactly why the paper sees larger
    // BIBW errors under host-side contention.
    let planner = w_dynamic.context().planner();
    for &n in sizes {
        let plan = planner.plan(gpus[0], gpus[1], n, sel).expect("plan");
        let factor = match kind {
            P2pKind::Bw => 1.0,
            P2pKind::Bibw => 2.0,
        };
        predicted.push(n, plan.predicted_windowed_bandwidth(window) * factor);
    }

    vec![direct, stat, dynamic, predicted]
}

/// Runs the compiled-graph replay panel: windowed OMB bandwidth of the
/// interpreted chunk pipeline vs the capture/replay fast path, swept
/// over message sizes. Both series run the same model-driven `Dynamic`
/// tuning; the only difference is `UcxConfig::graph_replay`, so the gap
/// is purely per-PUT issue cost (chunk launches, rendezvous handshakes,
/// staging-ring setup) that replay amortizes into one capture. That
/// fixed cost is a constant per message, so the gap is widest at small
/// `n` and closes as transfer time swamps launch time — the window-16
/// companion to the paper's Observation 2 on fixed-cost amortization.
///
/// Returns `[Interpreted, Replayed]`. The warmup iteration of the OMB
/// protocol absorbs the one-time graph captures, exactly as it absorbs
/// IPC handle opens, so the timed window measures steady-state replay.
pub fn replay_panel(
    topo: &Arc<Topology>,
    sel: PathSelection,
    window: usize,
    sizes: &[usize],
) -> Vec<Series> {
    let cfg = P2pConfig::with_window(window);
    [("Interpreted", false), ("Replayed", true)]
        .into_iter()
        .map(|(label, replay)| {
            let ucx_cfg = UcxConfig {
                graph_replay: replay,
                ..ucx(TuningMode::Dynamic, sel)
            };
            let world = World::new(topo.clone(), ucx_cfg);
            let mut series = Series::new(label);
            for &n in sizes {
                series.push(n, osu_bw_on(&world, n, cfg));
            }
            series
        })
        .collect()
}

/// Runs one collective panel: latency **speedups** of `Static` and
/// `Dynamic` over the single-path baseline, per per-rank message size.
pub fn collective_panel(
    topo: &Arc<Topology>,
    kind: CollectiveKind,
    sel: PathSelection,
    sizes: &[usize],
    coll: CollectiveConfig,
) -> Vec<Series> {
    let gpus = topo.gpus();
    // Fixed share policy tuned once per panel at the reference size, as the
    // offline-tuned engine of [35] would be deployed. Every Static world
    // starts from what the search leaves behind: the table entry and the
    // shares.
    let tuned_ref = *sizes.last().expect("non-empty sizes");
    let tuned = World::new(topo.clone(), ucx(TuningMode::Static, sel))
        .context()
        .tune_static(gpus[0], gpus[1], tuned_ref)
        .expect("static tuning");
    let shares: Vec<f64> = tuned
        .plan
        .paths
        .iter()
        .map(|p| p.share_bytes as f64 / tuned_ref as f64)
        .collect();
    let measure = |mode: TuningMode, n: usize| {
        let world = World::new(topo.clone(), ucx(mode, sel));
        if mode == TuningMode::Static {
            let ctx = world.context();
            ctx.install_static_plan(gpus[0], gpus[1], tuned_ref, tuned.plan.clone());
            ctx.install_static_shares(shares.clone());
        }
        run_collective(&world, kind, n, coll)
    };

    let mut stat = Series::new("Static");
    let mut dynamic = Series::new("Dynamic");
    for &n in sizes {
        let base = measure(TuningMode::SinglePath, n);
        let s = measure(TuningMode::Static, n);
        let d = measure(TuningMode::Dynamic, n);
        stat.push(n, base / s);
        dynamic.push(n, base / d);
    }
    vec![stat, dynamic]
}

/// One resilient transfer of `n` bytes GPU 0 → GPU 1 on a fresh fabric.
/// `degrade` scales the direct link's bandwidth via an injected fault at
/// t = 0; `recalibrate` lets the fault land *before* planning, so the
/// model probes the degraded fabric instead of planning from stale
/// healthy-fabric parameters.
fn run_degraded(
    topo: &Arc<Topology>,
    sel: PathSelection,
    n: usize,
    degrade: Option<f64>,
    recalibrate: bool,
) -> Bandwidth {
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let ctx = UcxContext::new(
        rt,
        UcxConfig {
            selection: sel,
            ..UcxConfig::default()
        },
    );
    let gpus = topo.gpus();
    let link = topo.link_between(gpus[0], gpus[1]).expect("direct link").id;
    if let Some(factor) = degrade {
        let plan = FaultPlan::empty().with(0.0, link, FaultKind::Degrade { factor });
        FaultInjector::install(ctx.runtime().engine(), &plan);
        if recalibrate {
            // Fire the fault now (callback mode, before any thread
            // registers); the first plan then probes degraded capacities.
            ctx.runtime().engine().run_until(SimTime::from_secs(1e-9));
        }
    }
    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    let thread = ctx.runtime().engine().register_thread("degraded-driver");
    let ctx2 = ctx.clone();
    let worker = std::thread::spawn(move || {
        let t0 = thread.now();
        ctx2.put_resilient(&thread, &src, &dst, n, &RecoveryConfig::default())
            .expect("resilient put");
        n as f64 / thread.now().secs_since(t0)
    });
    worker.join().expect("driver thread")
}

/// The degraded-fabric panel: achieved bandwidth over message sizes for
/// three regimes — `Healthy` fabric, `Stale Plan` (direct link degraded
/// to `degrade_factor` at t = 0 but planned with healthy parameters),
/// and `Recalibrated` (same fault, parameters re-probed after it).
/// All three run through the resilient PUT path, so deadline/retry
/// machinery is exercised even when it never has to fire.
pub fn degraded_fabric_panel(
    topo: &Arc<Topology>,
    sel: PathSelection,
    sizes: &[usize],
    degrade_factor: f64,
) -> Vec<Series> {
    let mut healthy = Series::new("Healthy");
    let mut stale = Series::new("Stale Plan");
    let mut recal = Series::new("Recalibrated");
    for &n in sizes {
        healthy.push(n, run_degraded(topo, sel, n, None, false));
        stale.push(n, run_degraded(topo, sel, n, Some(degrade_factor), false));
        recal.push(n, run_degraded(topo, sel, n, Some(degrade_factor), true));
    }
    vec![healthy, stale, recal]
}

/// One plain (non-resilient) PUT of `n` bytes GPU 0 → GPU 1 on a fresh
/// fabric, with an optional fault plan installed before launch. Returns
/// the achieved bandwidth — or the transport's typed error when the
/// fabric strands the transfer, so benchmark drivers can report a
/// degraded-fabric run as a result instead of dying mid-suite (plain
/// `put` used to panic on a stuck pipeline).
pub fn put_once(
    topo: &Arc<Topology>,
    ucx_cfg: UcxConfig,
    n: usize,
    faults: Option<&FaultPlan>,
) -> Result<Bandwidth, TransferError> {
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let ctx = UcxContext::new(rt, ucx_cfg);
    if let Some(plan) = faults {
        FaultInjector::install(ctx.runtime().engine(), plan);
    }
    let gpus = topo.gpus();
    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    let thread = ctx.runtime().engine().register_thread("put-once-driver");
    let worker = std::thread::spawn(move || {
        let t0 = thread.now();
        ctx.put(&thread, &src, &dst, n)?;
        Ok(n as f64 / thread.now().secs_since(t0))
    });
    worker.join().expect("driver thread")
}

fn run_collective(world: &World, kind: CollectiveKind, n: usize, coll: CollectiveConfig) -> f64 {
    // `n` is the per-rank message size (the paper's Fig. 7 x-axis).
    match kind {
        CollectiveKind::Allreduce => {
            // Align to 4·ranks for f32 block boundaries.
            let n = n - n % (4 * coll.ranks).max(4);
            allreduce_on(
                world,
                n.max(4 * coll.ranks),
                AllreduceAlgo::Rabenseifner,
                coll,
            )
        }
        CollectiveKind::Alltoall => {
            // Per-rank total of `n` bytes spread over `ranks` blocks.
            let block = (n / coll.ranks).max(4);
            alltoall_on(world, block, AlltoallAlgo::Bruck, coll)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;

    #[test]
    fn p2p_panel_has_paper_series_shape() {
        let topo = Arc::new(presets::beluga());
        let sizes = [4 * MIB, 32 * MIB];
        let panel = p2p_panel(&topo, P2pKind::Bw, PathSelection::TWO_GPUS, 1, &sizes, 4);
        assert_eq!(panel.len(), 4);
        assert_eq!(panel[0].label, "Direct Path");
        assert_eq!(panel[3].label, "Predicted");
        for s in &panel {
            assert_eq!(s.points.len(), sizes.len(), "{}", s.label);
        }
        // Ordering at the large size: dynamic > direct; predicted within
        // a sane band of dynamic.
        let n = 32 * MIB;
        let direct = panel[0].at(n).unwrap();
        let dynamic = panel[2].at(n).unwrap();
        let predicted = panel[3].at(n).unwrap();
        assert!(dynamic > 1.5 * direct);
        assert!((predicted - dynamic).abs() / dynamic < 0.15);
    }

    #[test]
    fn replay_panel_closes_launch_gap_at_small_n() {
        let topo = Arc::new(presets::beluga());
        let sizes = [16 * 1024, 64 * 1024, MIB, 32 * MIB];
        let panel = replay_panel(&topo, PathSelection::THREE_GPUS, 16, &sizes);
        assert_eq!(panel.len(), 2);
        assert_eq!(panel[0].label, "Interpreted");
        assert_eq!(panel[1].label, "Replayed");
        for s in &panel {
            assert_eq!(s.points.len(), sizes.len(), "{}", s.label);
            for p in &s.points {
                assert!(p.value > 0.0, "{} at {}", s.label, p.bytes);
            }
        }
        let gain = |n: usize| panel[1].at(n).unwrap() / panel[0].at(n).unwrap();
        // Replay pays off most where per-message launch overhead
        // dominates (gap widest at the smallest size), shrinks
        // monotonically up the sweep, and never regresses: the two
        // pipelines converge once transfer time swamps launch time.
        assert!(
            gain(16 * 1024) > 1.3,
            "replay gain at 16 KiB must be large: {:.3}x",
            gain(16 * 1024)
        );
        for w in sizes.windows(2) {
            assert!(
                gain(w[0]) > gain(w[1]) - 0.005,
                "gap must close as n grows: {:.3}x at {} B vs {:.3}x at {} B",
                gain(w[0]),
                w[0],
                gain(w[1]),
                w[1]
            );
        }
        for &n in &sizes {
            assert!(
                gain(n) > 0.99,
                "replay must never regress: {:.3}x at {n} B",
                gain(n)
            );
        }
    }

    #[test]
    fn degraded_panel_orders_regimes() {
        let topo = Arc::new(presets::beluga());
        let sizes = [32 * MIB];
        let panel = degraded_fabric_panel(&topo, PathSelection::THREE_GPUS, &sizes, 0.35);
        assert_eq!(panel.len(), 3);
        let healthy = panel[0].at(32 * MIB).unwrap();
        let stale = panel[1].at(32 * MIB).unwrap();
        let recal = panel[2].at(32 * MIB).unwrap();
        assert!(
            healthy > stale,
            "healthy {healthy} must beat stale-plan degraded {stale}"
        );
        assert!(
            recal >= 0.98 * stale,
            "recalibrated {recal} must not trail stale plan {stale}"
        );
        assert!(recal < healthy, "degraded fabric cannot reach healthy bw");
    }

    #[test]
    fn put_once_measures_a_healthy_fabric() {
        let topo = Arc::new(presets::beluga());
        let bw = put_once(&topo, UcxConfig::default(), 32 * MIB, None)
            .expect("healthy fabric must not strand a put");
        assert!(bw > 0.0);
    }

    /// A mid-transfer kill with no surviving path surfaces as the typed
    /// stuck error, naming the stranded bytes — not a panic.
    #[test]
    fn put_once_surfaces_a_stuck_fabric_as_an_error() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let link = topo.link_between(gpus[0], gpus[1]).expect("direct").id;
        let cfg = UcxConfig {
            selection: PathSelection::DIRECT_ONLY,
            mode: TuningMode::SinglePath,
            ..UcxConfig::default()
        };
        // Kill well inside any plausible transfer time of 32 MiB over a
        // single NVLink, so the pipeline is stranded mid-flight.
        let faults = FaultPlan::empty().with(2e-5, link, FaultKind::Kill);
        let err = put_once(&topo, cfg, 32 * MIB, Some(&faults))
            .expect_err("severed direct-only fabric must strand the put");
        match err {
            TransferError::Stuck { bytes, elapsed } => {
                assert!(bytes > 0, "stuck error must name the stranded bytes");
                assert!(elapsed > 0.0);
            }
            other => panic!("expected Stuck, got {other}"),
        }
    }

    #[test]
    fn collective_panel_shows_speedup() {
        let topo = Arc::new(presets::beluga());
        let sizes = [16 * MIB];
        let panel = collective_panel(
            &topo,
            CollectiveKind::Alltoall,
            PathSelection::THREE_GPUS,
            &sizes,
            CollectiveConfig {
                iterations: 2,
                warmup: 1,
                ranks: 4,
            },
        );
        assert_eq!(panel.len(), 2);
        let dynamic = panel[1].at(16 * MIB).unwrap();
        assert!(
            dynamic > 1.05 && dynamic < 2.0,
            "alltoall dynamic speedup {dynamic}"
        );
    }
}
