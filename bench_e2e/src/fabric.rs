//! `fabric`: someone simulating a big fabric. 25 000 flows in 64-flow
//! contending blocks over a 32-node cluster, run through the serial
//! engine and through the partitioned one on two workers; every
//! parallel report must equal the serial one.

use crate::metrics::Report;
use crate::trace::Tracer;
use crate::util;
use crate::{layers, RunCfg};
use mpx_sim::{equivalence_diff, FlowSpec, JitterModel, Scenario, ScenarioReport};
use mpx_topo::{presets, LinkId, Topology};
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 32;
/// Links per 4-GPU node: 6 GPU pairs × 2 + 4 PCIe × 2 + 1 DRAM.
const NODE_LINKS: usize = 21;
/// Directed GPU-pair links per node; the flows use these and no others.
const GPU_PAIR_LINKS: usize = 12;
const FLOWS: usize = 25_000;
const WORKERS: usize = 2;
/// Parallel runs per serial run in the timed loop.
const PAR_PER_SERIAL: usize = 2;

/// The cluster scenario of `bench_sim`: per node, blocks of 64 flows
/// share one GPU-pair link, so every completion recomputes a ~64-flow
/// component; waves land on all 12 GPU-pair links at once.
/// `jitter_seed` picks the latency jitter.
fn scenario(jitter_seed: u64) -> Scenario {
    let topo = Arc::new(presets::cluster(NODES, 4));
    let mut sc = Scenario::new(topo)
        .with_trace(false)
        .with_jitter(JitterModel {
            seed: jitter_seed,
            spread: 0.1,
        });
    let per_node = FLOWS / NODES;
    for node in 0..NODES {
        for k in 0..per_node {
            let off = (k / 64 + node) % GPU_PAIR_LINKS;
            let wave = k / (GPU_PAIR_LINKS * 64);
            let bytes = (256 << 10) + 4096 * (k % 64) + node;
            let route = vec![LinkId((node * NODE_LINKS + off) as u32)];
            sc = sc.flow_at(wave as f64 * 400e-6, FlowSpec::new(route, bytes));
        }
    }
    sc
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, util::secs_since(t))
}

fn check_equal(serial: &ScenarioReport, par: &ScenarioReport, rep: &mut Report) {
    let diff = equivalence_diff(serial, par);
    rep.check(diff.is_none(), || {
        format!("parallel run diverged: {}", diff.unwrap_or_default())
    });
}

/// The jitter seed of the reference pass (`bench_sim`'s), whatever
/// `--seed` is, so the simulated metrics do not depend on it.
const REFERENCE_JITTER: u64 = 0x5eed;

/// Simulated metrics from one traced serial/parallel pair, compared
/// down to every flow's completion time.
fn reference_pass(topo: &Topology, rep: &mut Report) {
    let sc = scenario(REFERENCE_JITTER);
    let traced = sc.with_trace(true);
    let serial = traced.run_serial();
    check_equal(&serial, &traced.run_parallel(WORKERS), rep);
    let stats = &serial.stats;
    rep.check(stats.flows_completed == traced.flow_count() as u64, || {
        format!(
            "{} of {} flows completed",
            stats.flows_completed,
            traced.flow_count()
        )
    });
    let makespan = stats.now.as_secs();
    // Seconds each link would need for its bytes alone, at capacity.
    let busy: Vec<f64> = topo
        .links
        .iter()
        .zip(&stats.links)
        .map(|(l, s)| s.bytes / l.bandwidth)
        .collect();
    let bytes: f64 = stats.links.iter().map(|s| s.bytes).sum();
    let bound = busy.iter().copied().fold(0.0, f64::max);
    rep.set("sim_gbps", bytes / makespan / 1e9, traced.flow_count());
    // Every flow crosses one link, so a work-conserving engine finishes
    // when the busiest link does: the gap to that bound is latency.
    rep.set(
        "model_err_pct",
        100.0 * (makespan - bound).abs() / makespan,
        1,
    );
    // Against moving the same bytes one link at a time.
    rep.set("speedup_max", busy.iter().sum::<f64>() / makespan, 1);
    rep.set("sim.events", stats.events_processed as f64, 1);
    rep.set("sim.events_scheduled", stats.events_scheduled as f64, 1);
    rep.set("sim.partitions", stats.partitions as f64, 1);
}

pub fn run(cfg: &RunCfg) -> (Report, Option<Tracer>) {
    let mut rep = Report::new("fabric");
    let (setups, sc) = util::repeat_setup(|| scenario(cfg.seed));
    rep.set("setup_s", util::quiet_median(&setups), setups.len());
    let topo = sc.topology().clone();
    reference_pass(&topo, &mut rep);
    let events = rep.get("sim.events").0;

    // Alternate the two engines so a slow stretch of the machine falls
    // on both.
    let seconds = if cfg.traced {
        cfg.seconds * 0.3
    } else {
        cfg.seconds
    };
    let (mut serial_s, mut par_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while serial_s.len() < 4 || util::secs_since(start) < seconds {
        let (serial, wall) = timed(|| sc.run_serial());
        serial_s.push(wall);
        // The jitter moves completion times, never the number of events.
        rep.check(serial.stats.events_processed as f64 == events, || {
            format!(
                "{} events, reference {events}",
                serial.stats.events_processed
            )
        });
        for _ in 0..PAR_PER_SERIAL {
            let (par, wall) = timed(|| sc.run_parallel(WORKERS));
            par_s.push(wall);
            check_equal(&serial, &par, &mut rep);
        }
    }
    // Here one call is one batch, so the median over the quiet quarter
    // of the parallel runs is `call_us_p50`.
    let serial_med = util::quiet_mean(&serial_s);
    let par_med = util::quiet_median(&par_s);
    rep.set("ops_per_s", events / serial_med, serial_s.len());
    rep.set("call_us_p50", par_med * 1e6, par_s.len());
    if !cfg.traced {
        return (rep, None);
    }

    let mut tr = Tracer::new();
    let mut traced_serial = Vec::new();
    for op in 0..2 {
        tr.begin("fabric.rep", op);
        let plan = tr.span("sim.partition", op, || sc.partition_plan());
        // Every flow crosses one link, so each used link is a partition.
        rep.check(plan.partitions == (NODES * GPU_PAIR_LINKS) as u64, || {
            format!("{} partitions for {NODES} nodes", plan.partitions)
        });
        let (serial, wall) = timed(|| tr.span("sim.run_serial", op, || sc.run_serial()));
        traced_serial.push(wall);
        let par = tr.span("sim.run_parallel", op, || sc.run_parallel(WORKERS));
        check_equal(&serial, &par, &mut rep);
        tr.end();
    }
    let (traced, plain) = (util::median(&traced_serial), util::median(&serial_s));
    rep.set(
        "bench.trace_overhead_pct",
        100.0 * (traced - plain) / plain,
        2,
    );
    rep.set(
        "sim.partition_ms",
        util::median(&tr.durations("sim.partition")) / 1e6,
        2,
    );
    rep.set("sim.par_events_per_s", events / par_med, par_s.len());
    layers::direct_calls(&mut rep);
    let per_event = serial_med / events * 1e9;
    rep.set("sim.ns_per_event_25k", per_event, serial_s.len());
    rep.set(
        "sim.superlinearity",
        per_event / rep.get("sim.ns_per_event_small").0,
        1,
    );
    (rep, Some(tr))
}
