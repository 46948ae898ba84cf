//! Ledger smoke: the circuit-breaker ledger `trips == resets +
//! breakers_open`, whose property suite runs only under `cargo test
//! --workspace` (`crates/ucx/tests/breaker_props.rs` drives a bare
//! supervisor), held once from the public API: here a killed link drives a
//! whole context through trip → probe → reset.

use multipath_gpu::prelude::*;
use multipath_gpu::sim::task;
use std::sync::Arc;

const MIB: usize = 1 << 20;

fn beluga_context() -> UcxContext {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    UcxContext::new(rt, UcxConfig::default())
}

#[test]
fn a_killed_link_trips_probes_and_resets_a_balanced_breaker_ledger() {
    let ctx = beluga_context();
    let eng = ctx.runtime().engine().clone();
    let gpus = eng.topology().gpus();
    let n = 32 * MIB;
    let (src, dst) = (
        ctx.runtime().alloc(gpus[0], n),
        ctx.runtime().alloc(gpus[1], n),
    );
    let paths = ctx
        .paths_for(gpus[0], gpus[1], ctx.config().selection)
        .unwrap();
    let victim = paths[1].legs[0].route[0];
    let balanced = |what: &str| {
        let s = ctx.health_stats();
        assert_eq!(s.trips, s.resets + s.breakers_open, "{what}: {s:?}");
        s
    };

    let put = || ctx.transfer(&src, &dst, n, &TransferPolicy::PLAIN);
    let rank = async {
        // The link dies on a fabric that was probed and planned healthy.
        put().await.unwrap();
        assert_eq!(balanced("healthy").trips, 0);

        // A dead link trips its path's breaker; the PUT lands on the rest.
        eng.set_link_down(victim);
        put().await.unwrap();
        let s = balanced("tripped");
        assert_eq!((s.trips, s.probes, s.resets, s.breakers_open), (1, 0, 0, 1));

        // Inside the open window the path stays excluded: nothing moves.
        put().await.unwrap();
        let s = balanced("open");
        assert_eq!((s.trips, s.probes, s.resets), (1, 0, 0));

        // Past the window, on a healed link, the next PUT probes the path and
        // `half_open_trials` clean completions close the breaker.
        eng.restore_link(victim);
        task::sleep(&eng, "rank0".into(), ctx.config().health.open_window).await;
        for _ in 0..ctx.config().health.half_open_trials {
            put().await.unwrap();
            balanced("half-open");
        }
        let s = balanced("reset");
        assert_eq!((s.trips, s.probes, s.resets, s.breakers_open), (1, 1, 1, 0));
        assert_eq!(s.retrips, 0);
    };
    task::run(&eng, [("rank0".into(), rank)]);
}
