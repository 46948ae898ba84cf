//! One smoke per engine invariant family whose full suite runs only under
//! `cargo test --workspace`: the partitioned engine against the serial
//! oracle (`crates/sim/tests/parallel_equiv.rs`) and the fast max-min
//! allocator against the linear-scan oracle
//! (`crates/sim/tests/fairness_equiv.rs`). Fixed seeds, so a failure here
//! reproduces as is.

use multipath_gpu::prelude::*;
use multipath_gpu::sim::{max_min_rates, max_min_rates_fast, FlowDemand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// 2 048 flows on a `cluster(8, 4)` — direct flows in 16-flow contending
/// blocks (single-link components) beside host-staged ones that tie a
/// node's PCIe links and DRAM channel into one component — under a seeded
/// fault storm plus a flap pinned under the first wave.
fn faulted_cluster() -> Scenario {
    let topo = Arc::new(presets::cluster(8, 4));
    let gpus = topo.gpus();
    let hms = topo.host_memories();
    let link = |a, b| topo.link_between(a, b).unwrap().id;
    let storm = FaultPlan::random_soak(&topo, 5, 1.5e-3, 40, &[]).with(
        10e-6,
        link(gpus[0], gpus[1]),
        FaultKind::Flap { duration: 150e-6 },
    );
    let mut sc = Scenario::new(topo.clone())
        .with_jitter(JitterModel {
            seed: 0xc0de,
            spread: 0.2,
        })
        .with_faults(storm);
    for node in 0..8 {
        let g = &gpus[node * 4..node * 4 + 4];
        let hm = hms[node];
        for k in 0..256usize {
            let (a, b) = (g[(k / 16) % 4], g[(k / 16 + 1 + k / 64 % 3) % 4]);
            let route = if k % 5 == 0 {
                vec![link(a, hm), link(hm, hm), link(hm, b)]
            } else {
                vec![link(a, b)]
            };
            let spec = FlowSpec::new(route, (128 << 10) + 4096 * (k % 16) + node)
                .with_weight(1.0 + 0.1 * (k % 3) as f64);
            sc = sc.flow_at((k / 64) as f64 * 250e-6, spec);
        }
    }
    sc
}

#[test]
fn partitioned_runs_equal_the_serial_run_on_a_faulted_cluster() {
    let sc = faulted_cluster();
    let serial = sc.run_serial();
    assert_eq!(serial.stats.flows_issued, 2048);
    assert!(serial.stats.partitions > 8, "{:?}", serial.stats.partitions);
    assert!(serial.stats.faults_fired > 0 && serial.stats.flows_stalled > 0);
    assert!(serial.stats.flows_completed > 1024);
    for workers in [1, 2, 3] {
        let par = sc.run_parallel(workers);
        assert_eq!(equivalence_diff(&serial, &par), None, "workers={workers}");
    }
}

#[test]
fn fast_allocator_agrees_with_the_oracle_on_200_seeded_cases() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let nlinks = rng.gen_range(1..10usize);
        let caps: Vec<f64> = (0..nlinks).map(|_| rng.gen_range(0.5..400.0)).collect();
        // Routes may be empty (an unconstrained flow) and may repeat a
        // link (multiplicity).
        let flows: Vec<FlowDemand> = (0..rng.gen_range(1..20usize))
            .map(|_| {
                let route: Vec<usize> = (0..rng.gen_range(0..5usize))
                    .map(|_| rng.gen_range(0..nlinks))
                    .collect();
                FlowDemand::from_route_weighted(&route, rng.gen_range(0.5..4.0))
            })
            .collect();
        let oracle = max_min_rates(&caps, &flows);
        let fast = max_min_rates_fast(&caps, &flows);
        assert_eq!(oracle.len(), fast.len());
        for (i, (&a, &b)) in oracle.iter().zip(&fast).enumerate() {
            let close = if a.is_infinite() || b.is_infinite() {
                a == b
            } else {
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
            };
            assert!(close, "seed {seed} flow {i}: oracle {a}, fast {b}");
        }
    }
}
