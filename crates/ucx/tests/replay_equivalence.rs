//! Data-equivalence guarantees of replay.
//!
//! Four contracts from DESIGN §4e, verified end to end:
//!
//! 1. A replayed transfer is bit-identical to the interpreted pipeline's
//!    output for the same plan — replay changes CPU cost, never bytes.
//! 2. Drift invalidation and a plan of another shape (a static install)
//!    make the next put lower and replay again, never a stale schedule.
//! 3. A busy instance spawns another: no same-key replay runs interpreted.
//! 4. The fault-matrix fallback rule: a resilient transfer stays fully
//!    interpreted even with `graph_replay` on, recovered bytes are
//!    intact, and replay resumes cleanly once the fabric is healthy.

use mpx_gpu::{Buffer, GpuRuntime};
use mpx_sim::{task, Engine, FaultInjector, FaultKind, FaultPlan};
use mpx_topo::presets;
use mpx_topo::units::MIB;
use mpx_topo::PathSelection;
use mpx_ucx::{manual_plan, TransferError, TransferPolicy, TransferReport};
use mpx_ucx::{TuningMode, UcxConfig, UcxContext};
use std::sync::Arc;

/// One resilient transfer, run to completion as a task.
fn resilient(
    ctx: &UcxContext,
    src: &Buffer,
    dst: &Buffer,
    n: usize,
) -> Result<TransferReport, TransferError> {
    let put = ctx.transfer(src, dst, n, &TransferPolicy::RESILIENT);
    let mut out = task::run(ctx.runtime().engine(), [("driver".into(), put)]);
    out.pop().expect("one task, one output")
}

fn ctx_with(selection: PathSelection, graph_replay: bool) -> UcxContext {
    let topo = Arc::new(presets::beluga());
    UcxContext::new(
        GpuRuntime::new(Engine::new(topo)),
        UcxConfig {
            selection,
            graph_replay,
            ..UcxConfig::default()
        },
    )
}

/// Interpreted and replayed executions of the same plan land identical
/// bytes — on the 3-path + host-staged selection, the richest graph
/// shape (direct copy plus two chunked staging rings).
#[test]
fn replayed_transfers_match_interpreted_bit_for_bit() {
    let sel = PathSelection::THREE_GPUS_WITH_HOST;
    let interp = ctx_with(sel, false);
    let replay = ctx_with(sel, true);
    let n = 24 * MIB + 20;
    let data: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();

    let gpus = interp.runtime().engine().topology().gpus();
    let src_i = interp.runtime().alloc_bytes(gpus[0], data.clone());
    let dst_i = interp.runtime().alloc_zeroed(gpus[1], n);
    let h = interp
        .put_async(&src_i, &dst_i, n)
        .expect("interpreted put");
    interp.runtime().engine().run_until_idle();
    assert!(h.is_complete());
    let reference = dst_i.to_vec().unwrap();
    assert_eq!(reference, data);
    assert_eq!(interp.graph_stats().replays, 0, "graph path must be off");

    let gpus = replay.runtime().engine().topology().gpus();
    let src_r = replay.runtime().alloc_bytes(gpus[0], data.clone());
    for round in 0..3 {
        let dst_r = replay.runtime().alloc_zeroed(gpus[1], n);
        let h = replay
            .put_replayed(&src_r, &dst_r, n)
            .expect("replayed put");
        replay.runtime().engine().run_until_idle();
        assert!(h.is_complete());
        assert_eq!(
            dst_r.to_vec().unwrap(),
            reference,
            "round {round}: replayed bytes diverge from interpreted bytes"
        );
    }
    let g = replay.graph_stats();
    assert_eq!((g.captures, g.replays, g.fallbacks), (1, 3, 0), "{g:?}");
}

/// After a drift invalidation the evicted graph must never replay
/// again: the next put re-captures. `recalibrate` does the same for
/// every pair at once.
#[test]
fn invalidation_forces_recapture_not_stale_replay() {
    let ctx = ctx_with(PathSelection::THREE_GPUS, true);
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 16 * MIB;
    let data: Vec<u8> = (0..n).map(|i| (i * 7 % 253) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);

    let put = |expect: &str| {
        let h = ctx.put_replayed(&src, &dst, n).expect(expect);
        ctx.runtime().engine().run_until_idle();
        assert!(h.is_complete());
        assert_eq!(dst.to_vec().unwrap(), data, "{expect}: bytes corrupted");
    };

    put("capture");
    put("first replay");
    let g = ctx.graph_stats();
    assert_eq!((g.captures, g.replays), (1, 2), "{g:?}");

    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    assert!(
        ctx.record_observation(gpus[0], gpus[1], n, plan.predicted_bandwidth * 10.0),
        "10x drift must purge the pair"
    );
    assert_eq!(ctx.graph_stats().invalidations, 1);

    put("post-invalidate put");
    let g = ctx.graph_stats();
    assert_eq!(
        (g.captures, g.replays),
        (2, 3),
        "put after invalidate must re-capture, not replay stale: {g:?}"
    );

    ctx.recalibrate();
    put("post-recalibrate put");
    let g = ctx.graph_stats();
    assert_eq!(
        g.captures, 3,
        "recalibrate must clear the whole graph cache: {g:?}"
    );
    assert_eq!(g.fallbacks, 0, "{g:?}");
}

/// A static install that re-tunes a replayed key to the direct path is
/// what the next replay runs: one path, taking what the interpreted launch
/// takes less the rendezvous a replay does not pay. (Replaying the old
/// four-path schedule read 0.278 ms against the 0.709 ms interpreted.)
#[test]
fn a_static_install_retunes_the_next_replay() {
    let n = 32 * MIB;
    // The second PUT's path count and simulated time, after a first PUT of
    // the tuned plan and an install of the direct-only one.
    let second_put = |graph_replay: bool| {
        let topo = Arc::new(presets::beluga());
        let ctx = UcxContext::new(
            GpuRuntime::new(Engine::new(topo)),
            UcxConfig {
                mode: TuningMode::Static,
                graph_replay,
                ..UcxConfig::default()
            },
        );
        let eng = ctx.runtime().engine();
        let gpus = eng.topology().gpus();
        let (src, dst) = (
            ctx.runtime().alloc(gpus[0], n),
            ctx.runtime().alloc(gpus[1], n),
        );
        let put = || {
            let t0 = eng.now();
            let h = ctx.put_async(&src, &dst, n).expect("put");
            eng.run_until_idle();
            assert!(h.is_complete());
            (h.path_count(), eng.now().secs_since(t0))
        };
        assert_eq!(put().0, 4, "the model's plan spans four paths");
        let paths = ctx.paths_for(gpus[0], gpus[1], ctx.config().selection);
        let paths = paths.unwrap();
        let mut shares = vec![0.0; paths.len()];
        shares[0] = 1.0;
        let cfg = &ctx.config().planner;
        let direct = manual_plan(eng.topology(), &paths, n, &shares, cfg).unwrap();
        ctx.install_static_plan(gpus[0], gpus[1], n, Arc::new(direct));
        let second = put();
        assert_eq!(ctx.graph_stats().replays, if graph_replay { 2 } else { 0 });
        second
    };
    let (paths, replayed) = second_put(true);
    let (_, interpreted) = second_put(false);
    assert_eq!(paths, 1, "the replay must run the installed direct plan");
    let rendezvous = presets::beluga().overheads.rendezvous;
    assert!(
        (interpreted - replayed - rendezvous).abs() < 2e-9,
        "replayed {replayed} s, interpreted {interpreted} s"
    );
}

/// Deeper than any fixed pool: 24 same-key replays in flight each get an
/// instance of their own, and every destination lands exact.
#[test]
fn a_deep_window_of_one_key_spawns_instances_not_fallbacks() {
    let ctx = ctx_with(PathSelection::THREE_GPUS, true);
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 4 * MIB + 12;
    let data: Vec<u8> = (0..n).map(|i| (i * 19 % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dsts: Vec<_> = (0..24)
        .map(|_| ctx.runtime().alloc_zeroed(gpus[1], n))
        .collect();
    let handles: Vec<_> = (dsts.iter())
        .map(|dst| ctx.put_replayed(&src, dst, n).expect("replayed put"))
        .collect();
    assert!(handles[0].path_count() > 1, "a multi-path key");
    ctx.runtime().engine().run_until_idle();
    for (i, (h, dst)) in handles.iter().zip(&dsts).enumerate() {
        assert!(h.is_complete(), "replay {i} stuck");
        assert_eq!(dst.to_vec().unwrap(), data, "replay {i} corrupted bytes");
    }
    let g = ctx.graph_stats();
    assert_eq!((g.replays, g.fallbacks, g.captures), (24, 0, 24), "{g:?}");
}

/// The fault matrix's fallback rule end to end: warm the graph cache,
/// kill a path mid resilient transfer (which is interpreted by design —
/// its re-plans would invalidate any captured schedule), verify the
/// recovered bytes, then flap a link and confirm replay resumes with
/// intact data once the outage passes.
#[test]
fn fault_matrix_fallback_keeps_data_equivalence() {
    let ctx = ctx_with(PathSelection::THREE_GPUS, true);
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 16 * MIB;

    // Warm: compile + replay while the fabric is healthy.
    let warm: Vec<u8> = (0..n).map(|i| (i * 11 % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], warm.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    for _ in 0..2 {
        let h = ctx.put_replayed(&src, &dst, n).expect("warm put");
        ctx.runtime().engine().run_until_idle();
        assert!(h.is_complete());
    }
    assert_eq!(dst.to_vec().unwrap(), warm);
    let warm_stats = ctx.graph_stats();
    assert_eq!((warm_stats.captures, warm_stats.replays), (1, 2));

    // Kill the staged path's forwarding leg mid-transfer; recovery must
    // run interpreted and still land every byte.
    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    let fault = FaultPlan::empty().with(
        plan.predicted_time * 0.5,
        paths[1].legs[1].route[0],
        FaultKind::Kill,
    );
    FaultInjector::install(ctx.runtime().engine(), &fault);

    let killed: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
    src.write(0, &killed);
    let report =
        resilient(&ctx, &src, &dst, n).expect("recovery must survive a single path failure");
    assert!(report.replans >= 1, "kill must force a re-plan");
    assert_eq!(
        dst.to_vec().unwrap(),
        killed,
        "recovered bytes diverge from source"
    );
    assert_eq!(
        ctx.graph_stats().replays,
        warm_stats.replays,
        "a resilient transfer must stay fully interpreted (no graph replay)"
    );
}

/// After a *transient* outage the fabric restores itself, and the
/// replay fast path must resume with intact data: warm → flap →
/// interpreted recovery → replay again. (A permanent kill cannot be
/// re-probed — capacity 0 is unplannable — which is why resumption is
/// proven on a flap.)
#[test]
fn replay_resumes_with_intact_data_after_transient_flap() {
    let ctx = ctx_with(PathSelection::THREE_GPUS, true);
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 16 * MIB;

    let warm: Vec<u8> = (0..n).map(|i| (i * 23 % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], warm.clone());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], n);
    for _ in 0..2 {
        let h = ctx.put_replayed(&src, &dst, n).expect("warm put");
        ctx.runtime().engine().run_until_idle();
        assert!(h.is_complete());
    }
    assert_eq!(dst.to_vec().unwrap(), warm);
    let warm_stats = ctx.graph_stats();

    // Take the staged path's forwarding leg down briefly mid-transfer.
    let plan = ctx.plan_for(gpus[0], gpus[1], n).unwrap();
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    let fault = FaultPlan::empty().with(
        plan.predicted_time * 0.5,
        paths[1].legs[1].route[0],
        FaultKind::Flap {
            duration: plan.predicted_time * 2.0,
        },
    );
    FaultInjector::install(ctx.runtime().engine(), &fault);

    let flapped: Vec<u8> = (0..n).map(|i| (i * 29 % 251) as u8).collect();
    src.write(0, &flapped);
    resilient(&ctx, &src, &dst, n).expect("recovery must ride out a transient flap");
    assert_eq!(
        dst.to_vec().unwrap(),
        flapped,
        "flap recovery corrupted bytes"
    );

    // The link is back at nominal capacity; replay must pick up again
    // (re-capturing first if recovery's drift feedback evicted the
    // graph) and keep landing exact bytes.
    let after: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
    src.write(0, &after);
    for round in 0..2 {
        let h = ctx.put_replayed(&src, &dst, n).expect("post-flap put");
        ctx.runtime().engine().run_until_idle();
        assert!(h.is_complete(), "post-flap replay round {round} stuck");
        assert_eq!(
            dst.to_vec().unwrap(),
            after,
            "post-flap replayed bytes corrupted (round {round})"
        );
    }
    let g = ctx.graph_stats();
    assert!(
        g.replays >= warm_stats.replays + 2,
        "replay must resume after the flap: {g:?}"
    );
}
