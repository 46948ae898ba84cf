//! Ledger smokes: the two balance sheets whose property suites run only
//! under `cargo test --workspace`, each held once from the public API.
//!
//! * the circuit-breaker ledger `trips == resets + breakers_open`
//!   (`crates/ucx/tests/breaker_props.rs` drives a bare supervisor; here a
//!   killed link drives a whole context through trip → probe → reset);
//! * the broker's `submitted == admitted + shed`, `admitted == completed +
//!   failed` (`crates/broker/tests/broker_e2e.rs`), over a small burst that
//!   mixes weighted and best-effort tenants with requests shed at the door.

mod common;

use common::watchdog;
use multipath_gpu::prelude::*;
use std::sync::{Arc, Barrier};

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
    let rank = eng.register_thread("rank0");
    let balanced = |what: &str| {
        let s = ctx.health_stats();
        assert_eq!(s.trips, s.resets + s.breakers_open, "{what}: {s:?}");
        s
    };

    // The link dies on a fabric that was probed and planned healthy.
    ctx.put(&rank, &src, &dst, n).unwrap();
    assert_eq!(balanced("healthy").trips, 0);

    // A dead link trips its path's breaker; the PUT lands on the rest.
    eng.set_link_down(victim);
    ctx.put(&rank, &src, &dst, n).unwrap();
    let s = balanced("tripped");
    assert_eq!((s.trips, s.probes, s.resets, s.breakers_open), (1, 0, 0, 1));

    // Inside the open window the path stays excluded: nothing moves.
    ctx.put(&rank, &src, &dst, n).unwrap();
    let s = balanced("open");
    assert_eq!((s.trips, s.probes, s.resets), (1, 0, 0));

    // Past the window, on a healed link, the next PUT probes the path and
    // `half_open_trials` clean completions close the breaker.
    eng.restore_link(victim);
    rank.sleep(ctx.config().health.open_window);
    for _ in 0..ctx.config().health.half_open_trials {
        ctx.put(&rank, &src, &dst, n).unwrap();
        balanced("half-open");
    }
    let s = balanced("reset");
    assert_eq!((s.trips, s.probes, s.resets, s.breakers_open), (1, 1, 1, 0));
    assert_eq!(s.retrips, 0);
}

/// Six admitted requests from three tenants and two shed at the door, all
/// submitted before the scheduler's first look, then drained.
fn mixed_class_burst() -> BrokerStats {
    let ctx = beluga_context();
    let eng = ctx.runtime().engine().clone();
    let gpus = eng.topology().gpus();
    let tenants = vec![
        TenantSpec::new("gold", 3.0),
        TenantSpec::new("silver", 1.0),
        TenantSpec::new("scavenger", 0.0),
    ];
    let broker = Broker::new(ctx, BrokerConfig::default(), tenants);
    broker.set_producers(1);
    let (sched, client) = (
        eng.register_thread("broker-sched"),
        eng.register_thread("client"),
    );
    let gate = Arc::new(Barrier::new(2));
    std::thread::scope(|s| {
        let (b, g) = (broker.clone(), gate.clone());
        s.spawn(move || {
            g.wait();
            b.run(sched);
        });
        let (b, g) = (broker.clone(), gate.clone());
        s.spawn(move || {
            let loose = Some(1e6);
            let mut tickets = Vec::new();
            for (i, tenant) in ["gold", "silver", "scavenger", "gold", "silver", "gold"]
                .into_iter()
                .enumerate()
            {
                let (dst, bytes) = (gpus[1 + i % 2], (64 << 10) << (i % 3));
                tickets.push(
                    b.submit_with_deadline(tenant, gpus[0], dst, bytes, loose)
                        .unwrap(),
                );
            }
            let unknown = b.submit("nobody", gpus[0], gpus[1], MIB).unwrap_err();
            assert!(matches!(unknown, Rejected::UnknownTenant { .. }));
            let late = b
                .submit_with_deadline("gold", gpus[0], gpus[1], 64 * MIB, Some(1e-9))
                .unwrap_err();
            assert!(matches!(late, Rejected::DeadlineInfeasible { .. }));
            b.producer_done();
            g.wait();
            for t in tickets {
                assert!(matches!(t.wait(&client), Outcome::Completed { .. }));
            }
            drop(client);
        });
    });
    broker.stats()
}

/// Under the watchdog: a lost wake-up between the two rank threads hangs.
#[test]
fn a_mixed_class_burst_leaves_the_broker_books_balanced() {
    let s = watchdog(mixed_class_burst);
    assert_eq!((s.submitted, s.admitted, s.shed_total()), (8, 6, 2));
    assert_eq!((s.completed, s.failed), (6, 0));
    assert!(s.accounting_ok() && s.drained_ok(), "{s:?}");
    let by_tenant: Vec<(u64, u64)> = s.tenants.iter().map(|t| (t.submitted, t.shed)).collect();
    assert_eq!(by_tenant, [(4, 1), (2, 0), (1, 0)], "{s:?}");
    for t in &s.tenants {
        assert_eq!(t.completed_bytes, t.admitted_bytes, "{t:?}");
    }
}
