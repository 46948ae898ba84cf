//! End-to-end graceful degradation: transfers planned over a multi-path
//! fabric survive injected link faults by re-planning residual bytes
//! over the surviving paths, and the breakers that remember the faults
//! close again once the fabric heals.

use mpx_obs::Event;
use mpx_sim::{plan_horizon, task};
use mpx_ucx::TuningMode;
use multipath_gpu::prelude::*;
use std::future::Future;
use std::sync::Arc;

/// Runs one transfer to completion as a task on the context's engine.
fn drive<F: Future>(ctx: &UcxContext, put: F) -> F::Output {
    let mut out = task::run(ctx.runtime().engine(), [("driver".into(), put)]);
    out.pop().expect("one task, one output")
}

fn ctx_three_paths() -> UcxContext {
    let topo = Arc::new(presets::beluga());
    let rt = GpuRuntime::new(Engine::new(topo));
    UcxContext::new(
        rt,
        UcxConfig {
            selection: PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        },
    )
}

/// The acceptance scenario: a transfer planned over 3 paths completes
/// with correct byte counts when one path's link is killed mid-transfer,
/// finishing via re-plan on the 2 survivors, with `faults_fired`,
/// `retries` and `replans` visible in the stats.
#[test]
fn kill_one_of_three_paths_recovers_via_replan() {
    let ctx = ctx_three_paths();
    let topo = ctx.runtime().engine().topology().clone();
    let gpus = topo.gpus();
    let n = 64 << 20;

    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    assert_eq!(plan.active_path_count(), 3, "scenario needs 3 live paths");
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    // Kill the staged path's second leg (g2 → g1): used by no other
    // candidate, so exactly one path dies.
    let victim = paths[1].legs[1].route[0];
    let kill_at = plan.predicted_time * 0.5;
    let fault = FaultPlan::empty().with(kill_at, victim, FaultKind::Kill);
    FaultInjector::install(ctx.runtime().engine(), &fault);

    let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    let put = ctx.transfer(&src, &dst, n, &TransferPolicy::RESILIENT);
    let report = drive(&ctx, put).expect("transfer must survive a single path failure");

    assert!(report.retries >= 1, "deadline miss must trigger a retry");
    assert!(report.replans >= 1, "residual bytes must be re-planned");
    assert_eq!(report.final_paths, 2, "re-plan must run on the survivors");
    assert!(report.recovered_bytes > 0);

    let stats = ctx.runtime().engine().stats();
    assert_eq!(stats.faults_fired, 1);
    assert!(stats.flows_stalled >= 1, "killed path's flows must stall");
    assert_eq!(stats.links_down, 1);
    let res = ctx.resilience_stats();
    assert!(res.retries >= 1 && res.replans >= 1 && res.timeouts >= 1);

    assert_eq!(dst.to_vec().unwrap(), data, "recovered bytes corrupted");
}

/// Degradation down to a single surviving path still completes.
#[test]
fn degrades_to_single_path() {
    let ctx = ctx_three_paths();
    let topo = ctx.runtime().engine().topology().clone();
    let gpus = topo.gpus();
    let n = 32 << 20;

    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    // Kill both staged paths' forwarding legs; only the direct path
    // survives.
    let kill_at = plan.predicted_time * 0.4;
    let fault = FaultPlan::empty()
        .with(kill_at, paths[1].legs[1].route[0], FaultKind::Kill)
        .with(kill_at, paths[2].legs[1].route[0], FaultKind::Kill);
    FaultInjector::install(ctx.runtime().engine(), &fault);

    let data: Vec<u8> = (0..n).map(|i| (i * 7 % 253) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    let put = ctx.transfer(&src, &dst, n, &TransferPolicy::RESILIENT);
    let report = drive(&ctx, put).expect("direct path alone must finish the job");

    assert_eq!(report.final_paths, 1, "only the direct path survives");
    assert_eq!(dst.to_vec().unwrap(), data);
}

/// A transient flap delays the transfer but needs no re-plan when the
/// slack window already covers the outage.
#[test]
fn flap_within_slack_needs_no_retry() {
    let ctx = ctx_three_paths();
    let topo = ctx.runtime().engine().topology().clone();
    let gpus = topo.gpus();
    let n = 32 << 20;

    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    // Short flap: down for 20% of the predicted time, well inside the
    // 4× slack budget.
    let fault = FaultPlan::empty().with(
        plan.predicted_time * 0.3,
        paths[1].legs[1].route[0],
        FaultKind::Flap {
            duration: plan.predicted_time * 0.2,
        },
    );
    assert!(plan_horizon(&fault) > SimTime::ZERO);
    FaultInjector::install(ctx.runtime().engine(), &fault);

    let data: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    let put = ctx.transfer(&src, &dst, n, &TransferPolicy::RESILIENT);
    let report = drive(&ctx, put).expect("flap must not kill the transfer");

    assert_eq!(report.retries, 0, "outage inside slack: no retry needed");
    assert_eq!(dst.to_vec().unwrap(), data);
    assert_eq!(ctx.runtime().engine().stats().links_down, 0);
}

/// The hedge row of the fault matrix: a mid-transfer kill on one of the
/// primary's three paths stalls it past the hedge trigger; the residual
/// races on the healthy paths and wins, the destination is bit-exact,
/// and the telemetry stream carries both the `breaker.trip` for the
/// dead path and the decisive `hedge.win` instant.
#[test]
fn mid_transfer_kill_completes_via_hedge() {
    let topo = Arc::new(presets::beluga());
    let engine = Engine::new(topo);
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    let ctx = UcxContext::new(
        GpuRuntime::new(engine),
        UcxConfig {
            selection: PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        },
    );
    let topo = ctx.runtime().engine().topology().clone();
    let gpus = topo.gpus();
    let n = 64 << 20;

    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    assert_eq!(plan.active_path_count(), 3, "scenario needs 3 live paths");
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    // Same victim as the re-plan scenario: the staged path's forwarding
    // leg, so exactly one of the primary's paths dies mid-flight.
    let victim = paths[1].legs[1].route[0];
    let fault = FaultPlan::empty().with(plan.predicted_time * 0.5, victim, FaultKind::Kill);
    FaultInjector::install(ctx.runtime().engine(), &fault);

    let data: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    let put = ctx.transfer(&src, &dst, n, &TransferPolicy::HEDGED);
    let report = drive(&ctx, put).expect("hedge must finish what the primary cannot");

    assert!(report.retries >= 1, "kill must push past the hedge trigger");
    assert!(report.hedge_won, "the dead primary path cannot catch up");
    // One margin sample: how far past the plan it launched the message landed.
    let margin = ctx.hedge_win_hist();
    assert_eq!(margin.count(), 1);
    assert_eq!(margin.max(), report.elapsed - plan.predicted_time);
    assert!(report.recovered_bytes > 0);
    assert_eq!(dst.to_vec().unwrap(), data, "hedged bytes corrupted");

    let health = ctx.health_stats();
    assert!(health.trips >= 1, "dead path must trip its breaker");
    assert_eq!(health.hedges, report.retries);
    assert_eq!(health.hedge_wins, 1);

    let events = rec.drain();
    let instant_named = |name: &str| {
        events.iter().any(|e| match e {
            Event::Instant(i) => i.name.starts_with(name),
            _ => false,
        })
    };
    assert!(
        instant_named("breaker.trip"),
        "breaker trip must be recorded"
    );
    assert!(instant_named("hedge.win"), "hedge win must be recorded");
    assert!(
        events.iter().any(|e| e.phase() == Phase::Hedge),
        "hedge phase events must land on the trace"
    );
}

/// When every path dies and stays dead, the retry budget bounds the
/// failure: the resilient transfer errors out instead of hanging.
#[test]
fn total_fabric_loss_errors_out() {
    let topo = Arc::new(presets::beluga());
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let ctx = UcxContext::new(
        rt,
        UcxConfig {
            selection: PathSelection::DIRECT_ONLY,
            mode: TuningMode::SinglePath,
            ..UcxConfig::default()
        },
    );
    let gpus = topo.gpus();
    let n = 32 << 20;
    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let direct = topo.link_between(gpus[0], gpus[1]).unwrap().id;
    let fault = FaultPlan::empty().with(plan.predicted_time * 0.5, direct, FaultKind::Kill);
    FaultInjector::install(ctx.runtime().engine(), &fault);

    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    let policy = TransferPolicy {
        retries: 2,
        ..TransferPolicy::RESILIENT
    };
    let put = ctx.transfer(&src, &dst, n, &policy);
    let err = drive(&ctx, put).expect_err("no surviving path: must error, not hang");
    match err {
        TransferError::Topology(_) => {}
        other => panic!("expected NoUsablePath topology error, got {other:?}"),
    }
}

/// One PUT of `n` bytes GPU 0 → GPU 1 on a fresh fabric under `policy`,
/// with `faults` installed first; `settle` fires them before planning, so
/// the first probe sees the faulted fabric. Returns the achieved
/// bandwidth, or the transport's typed error.
fn put_once(
    cfg: UcxConfig,
    n: usize,
    faults: Option<&FaultPlan>,
    settle: bool,
    policy: &TransferPolicy,
) -> Result<f64, TransferError> {
    let topo = Arc::new(presets::beluga());
    let ctx = UcxContext::new(GpuRuntime::new(Engine::new(topo.clone())), cfg);
    if let Some(plan) = faults {
        FaultInjector::install(ctx.runtime().engine(), plan);
        if settle {
            ctx.runtime().engine().run_until(SimTime::from_secs(1e-9));
        }
    }
    let gpus = topo.gpus();
    let src = ctx.runtime().alloc(gpus[0], n);
    let dst = ctx.runtime().alloc(gpus[1], n);
    let report = drive(&ctx, ctx.transfer(&src, &dst, n, policy))?;
    Ok(n as f64 / report.elapsed)
}

#[test]
fn a_plain_put_measures_a_healthy_fabric() {
    let bw = put_once(
        UcxConfig::default(),
        32 << 20,
        None,
        false,
        &TransferPolicy::PLAIN,
    )
    .expect("healthy fabric must not strand a put");
    assert!(bw > 0.0);
}

/// A plain transfer resolves its plan once: attempt 0 launches the plan
/// the transfer took its deadline from, interpreted or replayed, as a `put`
/// launches the one it resolves. Each resolution is one plan-cost sample
/// and one plan-table lookup, and so is a clean resilient or hedged
/// transfer: the drift check that follows a resilient one reads the plan
/// it launched, not the table.
#[test]
fn a_plain_transfer_resolves_its_plan_once() {
    for graph_replay in [false, true] {
        let topo = Arc::new(presets::beluga());
        let cfg = UcxConfig {
            graph_replay,
            ..UcxConfig::default()
        };
        let ctx = UcxContext::new(GpuRuntime::new(Engine::new(topo.clone())), cfg);
        let (gpus, n) = (topo.gpus(), 16 << 20);
        let src = ctx.runtime().alloc(gpus[0], n);
        let dst = ctx.runtime().alloc(gpus[1], n);
        for (name, policy) in [
            ("plain", TransferPolicy::PLAIN),
            ("resilient", TransferPolicy::RESILIENT),
            ("hedged", TransferPolicy::HEDGED),
        ] {
            let lookups = || ctx.cache_stats().hits + ctx.cache_stats().misses;
            let (before, looked_up) = (ctx.plan_cost_hist().count(), lookups());
            let report = drive(&ctx, ctx.transfer(&src, &dst, n, &policy)).expect("healthy fabric");
            assert_eq!(report.retries, 0, "{name}: a clean transfer");
            let plans = ctx.plan_cost_hist().count() - before;
            assert_eq!(
                plans, 1,
                "graph_replay={graph_replay}: a {name} transfer plans once"
            );
            assert_eq!(
                lookups() - looked_up,
                1,
                "graph_replay={graph_replay}: a {name} transfer looks its plan up once"
            );
        }
        let before = ctx.plan_cost_hist().count();
        let put = ctx.put(&PutRequest::new(&src, &dst, n)).expect("put");
        ctx.runtime().engine().run_until_idle();
        assert!(put.is_complete());
        assert_eq!(ctx.plan_cost_hist().count() - before, 1, "a put plans once");
    }
}

/// A mid-transfer kill with no surviving path surfaces as the typed
/// stuck error, naming the stranded bytes — not a panic.
#[test]
fn a_plain_put_surfaces_a_stuck_fabric_as_an_error() {
    let topo = presets::beluga();
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
    let err = put_once(cfg, 32 << 20, Some(&faults), false, &TransferPolicy::PLAIN)
        .expect_err("severed direct-only fabric must strand the put");
    match err {
        TransferError::Stuck { bytes, elapsed, .. } => {
            assert!(bytes > 0, "stuck error must name the stranded bytes");
            assert!(elapsed > 0.0);
        }
        other => panic!("expected Stuck, got {other}"),
    }
}

/// The degraded-fabric regimes (EXPERIMENTS "Fig. 10"): a resilient PUT
/// on a `Healthy` fabric beats one whose direct link degraded to 35 % at
/// t = 0 under a plan probed on the healthy fabric (`Stale Plan`), and
/// probing the degraded fabric first (`Recalibrated`) never trails the
/// stale plan nor reaches the healthy fabric.
#[test]
fn a_degraded_fabric_orders_healthy_stale_and_recalibrated() {
    let topo = presets::beluga();
    let gpus = topo.gpus();
    let link = topo.link_between(gpus[0], gpus[1]).expect("direct").id;
    let degrade = FaultPlan::empty().with(0.0, link, FaultKind::Degrade { factor: 0.35 });
    let cfg = UcxConfig {
        selection: PathSelection::THREE_GPUS,
        ..UcxConfig::default()
    };
    let run = |faults, settle| {
        let policy = &TransferPolicy::RESILIENT;
        put_once(cfg, 32 << 20, faults, settle, policy).expect("resilient put")
    };
    let healthy = run(None, false);
    let stale = run(Some(&degrade), false);
    let recal = run(Some(&degrade), true);
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

/// A resilient PUT that lands inside its deadline still feeds its
/// observed bandwidth back: a direct link degraded to 35 % after the plan
/// was probed leaves the transfer clean but far off its prediction, so
/// the pair's stale plan is dropped and the next PUT re-probes.
#[test]
fn a_clean_resilient_put_on_a_drifted_fabric_drops_its_stale_plan() {
    let ctx = ctx_three_paths();
    let eng = ctx.runtime().engine().clone();
    let gpus = eng.topology().gpus();
    let n = 32 << 20;
    ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let link = eng.topology().link_between(gpus[0], gpus[1]).unwrap().id;
    let degrade = FaultPlan::empty().with(0.0, link, FaultKind::Degrade { factor: 0.35 });
    FaultInjector::install(&eng, &degrade);
    let (src, dst) = (
        ctx.runtime().alloc(gpus[0], n),
        ctx.runtime().alloc(gpus[1], n),
    );
    let put = ctx.transfer(&src, &dst, n, &TransferPolicy::RESILIENT);
    let report = drive(&ctx, put).expect("a degraded link still moves bytes");
    assert_eq!(report.retries, 0, "35 % stays inside the 4x deadline");
    assert_eq!(eng.stats().faults_fired, 1);
    assert_eq!(ctx.resilience_stats().cache_invalidations, 1);
}

/// Slow is not dead: when every candidate slows down again after each
/// re-probe, the misses trip every breaker, yet a replacing round keeps
/// re-planning over the paths whose links are up instead of giving up
/// with no usable path.
#[test]
fn a_replacing_round_keeps_slow_paths_whose_breakers_tripped() {
    let ctx = ctx_three_paths();
    let eng = ctx.runtime().engine().clone();
    let gpus = eng.topology().gpus();
    let n = 64 << 20;
    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    let mut links: Vec<_> = (paths.iter())
        .flat_map(|p| p.legs.iter().flat_map(|leg| leg.route.iter().copied()))
        .collect();
    links.sort();
    links.dedup();
    // Every link slows 5x at once (attempt 0 misses its deadline), then
    // 20x more just after round 1 re-probed them (round 1 misses too).
    let round1 = TransferPolicy::RESILIENT
        .deadline
        .budget(plan.predicted_time)
        * 1.01;
    let mut faults = FaultPlan::empty();
    for &l in &links {
        faults = faults.with(0.0, l, FaultKind::Degrade { factor: 0.2 });
        faults = faults.with(round1, l, FaultKind::Degrade { factor: 0.05 });
    }
    FaultInjector::install(&eng, &faults);
    let data: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    let put = ctx.transfer(&src, &dst, n, &TransferPolicy::RESILIENT);
    let report = drive(&ctx, put).expect("every path is slow but up");
    assert!(report.retries >= 2, "{report:?}");
    assert_eq!(report.final_paths, 3, "{report:?}");
    let s = ctx.health_stats();
    assert!(s.trips >= 1, "the misses must trip breakers: {s:?}");
    assert_eq!(dst.to_vec().unwrap(), data);
}
