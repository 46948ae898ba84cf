//! Golden bit-identity of the fluid engine.
//!
//! Four fixed scenarios, each reduced to one FNV-1a digest over every
//! completed flow's `(id, issued, activated, completed)` in completion
//! order plus the [`StatsSnapshot`] counters (`events_processed`,
//! `events_scheduled`, per-link bytes as `f64::to_bits`). The constants
//! were recorded on the commit *before* the engine's event handling was
//! rewritten (slot-indexed flows, in-place completion queue); any change
//! to event order, tie-breaks, schedule counts or float accumulation
//! order moves a digest. A legitimate model change re-records them — an
//! engine-internals change must not. The fourth scenario walks one link
//! through every way its component can be re-shared (single-link, joined
//! by a two-link flow, stalled, re-scaled); its constant was recorded on
//! the commit before single-link components got a recomputation of their
//! own.
//!
//! [`StatsSnapshot`]: multipath_gpu::sim::StatsSnapshot

use multipath_gpu::prelude::*;
use multipath_gpu::sim::{FlowId, StatsSnapshot, TraceRecord};
use std::sync::Arc;

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(trace: &[TraceRecord], stats: &StatsSnapshot) -> u64 {
    let mut d = Digest::new();
    for r in trace {
        d.word(r.flow.0);
        d.word(r.issued.as_nanos());
        d.word(r.activated.as_nanos());
        d.word(r.completed.as_nanos());
    }
    d.word(stats.now.as_nanos());
    d.word(stats.flows_issued);
    d.word(stats.flows_completed);
    d.word(stats.events_processed);
    d.word(stats.events_scheduled);
    d.word(stats.flows_stalled);
    for l in &stats.links {
        d.word(l.bytes.to_bits());
        d.word(l.flows);
    }
    d.0
}

/// 64 equal flows contending on one NVLink, startup latencies jittered:
/// every activation and every completion re-shares all live flows.
fn one_link_with_jitter() -> (Vec<TraceRecord>, StatsSnapshot) {
    let topo = Arc::new(presets::beluga());
    let eng = Engine::with_tracing(topo.clone(), true);
    eng.set_jitter(JitterModel {
        seed: 0x5eed,
        spread: 0.3,
    });
    let g = topo.gpus();
    let link = topo.link_between(g[0], g[1]).unwrap().id;
    for _ in 0..64 {
        eng.start_flow(FlowSpec::new(vec![link], 1 << 20), OnComplete::Nothing);
    }
    eng.run_until_idle();
    (eng.take_trace(), eng.stats())
}

/// Beluga host-staged legs sharing PCIe and the DRAM channel with direct
/// NVLink flows: mixed weights, a route crossing DRAM twice, staggered
/// issue times, and completions that chain follow-up flows.
fn staged_paths_mixed_weights() -> (Vec<TraceRecord>, StatsSnapshot) {
    let topo = Arc::new(presets::beluga());
    let eng = Engine::with_tracing(topo.clone(), true);
    let g = topo.gpus();
    let hm = topo.host_memories()[0];
    let link = |a, b| topo.link_between(a, b).unwrap().id;
    let dram = link(hm, hm);
    let routes = [
        vec![link(g[0], hm), dram],
        vec![dram, link(hm, g[1])],
        vec![link(g[2], hm), dram, dram, link(hm, g[3])],
        vec![link(g[0], g[1])],
        vec![link(g[0], g[2]), link(g[2], g[1])],
        vec![link(g[1], hm), dram, link(hm, g[0])],
    ];
    let weights = [1.0, 2.0, 0.5, 3.0, 1.0, 1.5];
    for i in 0..48usize {
        let k = i % routes.len();
        let spec = FlowSpec::new(routes[k].clone(), (3 << 20) + 40_961 * i)
            .with_weight(weights[k])
            .with_extra_latency(1e-6 * (i % 5) as f64)
            .labeled(format!("g{i}"));
        let follow = FlowSpec::new(routes[(k + 1) % routes.len()].clone(), (1 << 20) + 977 * i)
            .with_weight(weights[(k + 2) % weights.len()]);
        let done = OnComplete::Call(Box::new(move |ctx| {
            ctx.start_flow(follow, OnComplete::Nothing);
        }));
        eng.schedule_in(
            37e-6 * (i / 6) as f64,
            OnComplete::Call(Box::new(move |ctx| {
                ctx.start_flow(spec, done);
            })),
        );
    }
    eng.run_until_idle();
    (eng.take_trace(), eng.stats())
}

/// A `cluster(6, 4)` under a `random_soak` fault storm: direct and
/// host-staged flows in 16-flow contending blocks while links degrade,
/// flap and die. One extra flap is pinned on node 0's first NVLink
/// (returned) while its first block is in flight, so stall → restore →
/// resume is exercised by construction, not by the seed's luck.
fn cluster_fault_storm() -> (Scenario, LinkId) {
    let topo = Arc::new(presets::cluster(6, 4));
    let gpus = topo.gpus();
    let hms = topo.host_memories();
    let link = |a, b| topo.link_between(a, b).unwrap().id;
    let flapped = link(gpus[0], gpus[1]);
    let storm = FaultPlan::random_soak(&topo, 11, 2e-3, 48, &[]).with(
        FLAP_AT,
        flapped,
        FaultKind::Flap { duration: FLAP_FOR },
    );
    let mut sc = Scenario::new(topo.clone())
        .with_jitter(JitterModel {
            seed: 0xfa17,
            spread: 0.1,
        })
        .with_faults(storm);
    for node in 0..6 {
        let g = &gpus[node * 4..node * 4 + 4];
        let hm = hms[node];
        for k in 0..240usize {
            let (a, b) = (g[(k / 16) % 4], g[(k / 16 + 1 + k / 64) % 4]);
            let route = if a == b {
                vec![link(a, hm), link(hm, hm)]
            } else if k % 3 == 0 {
                vec![link(a, hm), link(hm, hm), link(hm, b)]
            } else {
                vec![link(a, b)]
            };
            let bytes = (256 << 10) + 4096 * (k % 16) + node;
            let at = (k / 48) as f64 * 300e-6;
            sc = sc.flow_at(
                at,
                FlowSpec::new(route, bytes).with_weight(1.0 + (k % 2) as f64),
            );
        }
    }
    (sc, flapped)
}

const JOIN_AT: f64 = 0.4e-3;
const LINK_FLAP_AT: f64 = 1.5e-3;
const LINK_FLAP_FOR: f64 = 0.2e-3;
const SCALE_AT: f64 = 2.0e-3;

/// 32 weighted flows on one NVLink. A two-link staged flow joins the link
/// at `JOIN_AT` and leaves; a flap takes the link down while only
/// single-link flows remain; its capacity is scaled between two later
/// completions. The link's component is single-link, general, single-link,
/// stalled, single-link again. Returns the staged flow's id with the run.
fn one_link_through_every_regime() -> (FlowId, Vec<TraceRecord>, StatsSnapshot) {
    let topo = Arc::new(presets::beluga());
    let eng = Engine::with_tracing(topo.clone(), true);
    let g = topo.gpus();
    let link = |a, b| topo.link_between(a, b).unwrap().id;
    let shared = link(g[0], g[1]);
    for i in 0..32usize {
        let spec = FlowSpec::new(vec![shared], (192 << 10) * (i + 1) + 4_099 * i)
            .with_weight(1.0 + 0.1 * (i % 7) as f64)
            .with_extra_latency(1e-6 * (i % 3) as f64);
        eng.start_flow(spec, OnComplete::Nothing);
    }
    let staged = FlowSpec::new(vec![link(g[2], g[0]), shared], 1 << 20).with_weight(2.0);
    eng.schedule_in(
        JOIN_AT,
        OnComplete::Call(Box::new(move |ctx| {
            ctx.start_flow(staged, OnComplete::Nothing);
        })),
    );
    let faults = FaultPlan::empty()
        .with(
            LINK_FLAP_AT,
            shared,
            FaultKind::Flap {
                duration: LINK_FLAP_FOR,
            },
        )
        .with(SCALE_AT, shared, FaultKind::Degrade { factor: 0.6 });
    FaultInjector::install(&eng, &faults);
    eng.run_until_idle();
    (FlowId(32), eng.take_trace(), eng.stats())
}

const FLAP_AT: f64 = 20e-6;
const FLAP_FOR: f64 = 200e-6;

const ONE_LINK_WITH_JITTER: u64 = 16_574_888_321_889_940_612;
const STAGED_PATHS_MIXED_WEIGHTS: u64 = 1_482_018_609_376_296_757;
const CLUSTER_FAULT_STORM: u64 = 16_606_544_688_250_354_250;
const ONE_LINK_THROUGH_EVERY_REGIME: u64 = 7_654_190_600_444_986_117;

#[test]
fn one_link_with_jitter_matches_golden() {
    let (trace, stats) = one_link_with_jitter();
    assert_eq!(trace.len(), 64);
    assert_eq!(
        digest(&trace, &stats),
        ONE_LINK_WITH_JITTER,
        "events {} scheduled {}",
        stats.events_processed,
        stats.events_scheduled
    );
}

#[test]
fn staged_paths_mixed_weights_match_golden() {
    let (trace, stats) = staged_paths_mixed_weights();
    assert_eq!(trace.len(), 96);
    assert_eq!(
        digest(&trace, &stats),
        STAGED_PATHS_MIXED_WEIGHTS,
        "events {} scheduled {}",
        stats.events_processed,
        stats.events_scheduled
    );
}

#[test]
fn one_link_through_every_regime_matches_golden() {
    let (staged, trace, stats) = one_link_through_every_regime();
    assert_eq!(trace.len(), 33);
    let done = |t: f64| {
        let t = SimTime::from_secs(t);
        trace.iter().filter(|r| r.completed <= t).count()
    };
    // The scenario is what its name says: single-link flows complete
    // before the staged flow joins, beside it, and after it has left;
    // the flap stalls everything still there; the scale lands between
    // two completions.
    let staged = trace.iter().find(|r| r.flow == staged).unwrap();
    assert_eq!(staged.route.len(), 2);
    assert!(done(JOIN_AT) > 0);
    assert!(done(staged.completed.as_secs()) > done(staged.activated.as_secs()) + 1);
    assert!(done(LINK_FLAP_AT) > done(staged.completed.as_secs()));
    assert_eq!(stats.flows_stalled, 33 - done(LINK_FLAP_AT) as u64);
    assert_eq!(done(LINK_FLAP_AT + LINK_FLAP_FOR), done(LINK_FLAP_AT));
    assert!(done(SCALE_AT) > done(LINK_FLAP_AT));
    assert!(done(SCALE_AT) < 32);
    assert_eq!(
        digest(&trace, &stats),
        ONE_LINK_THROUGH_EVERY_REGIME,
        "events {} scheduled {}",
        stats.events_processed,
        stats.events_scheduled
    );
}

#[test]
fn cluster_fault_storm_matches_golden() {
    let (sc, flapped) = cluster_fault_storm();
    let serial = sc.run_serial();
    // Stall → restore → resume really happened: the flows in flight on
    // the flapped link at time zero finished, and only after it healed.
    assert!(serial.stats.flows_stalled > 0, "{:?}", serial.stats);
    let resumed: Vec<_> = serial
        .trace
        .iter()
        .filter(|r| r.route == [flapped] && r.issued == SimTime::ZERO)
        .collect();
    assert!(!resumed.is_empty());
    let healed = SimTime::from_secs(FLAP_AT + FLAP_FOR);
    assert!(resumed.iter().all(|r| r.completed >= healed), "{resumed:?}");
    assert_eq!(
        digest(&serial.trace, &serial.stats),
        CLUSTER_FAULT_STORM,
        "events {} scheduled {} stalled {} completed {}",
        serial.stats.events_processed,
        serial.stats.events_scheduled,
        serial.stats.flows_stalled,
        serial.stats.flows_completed
    );
    // Each partition's private engine must reproduce the same bits.
    let par = sc.run_parallel(2);
    assert_eq!(equivalence_diff(&serial, &par), None);
}

/// The one deliberate difference from the recorded parent: it cleared a
/// flow's stalled flag only while some *other* link was still down, so a
/// flow that stalled again after its fabric had fully healed was counted
/// by the serial engine (a link elsewhere was dead) and missed by that
/// flow's private partition engine (nothing else to be dead). Both now
/// count every entry into the stalled state.
#[test]
fn restall_after_a_full_heal_is_counted_in_both_modes() {
    let topo = Arc::new(presets::cluster(2, 4));
    let g = topo.gpus();
    let link = |a, b| topo.link_between(a, b).unwrap().id;
    let (dead, flapped) = (link(g[0], g[1]), link(g[4], g[5]));
    let flap = FaultKind::Flap { duration: 10e-6 };
    let sc = Scenario::new(topo.clone())
        .flow(FlowSpec::new(vec![dead], 1 << 20))
        .flow(FlowSpec::new(vec![flapped], 64 << 20))
        .with_faults(
            FaultPlan::empty()
                .with(5e-6, dead, FaultKind::Kill)
                .with(10e-6, flapped, flap)
                .with(50e-6, flapped, flap),
        );
    let serial = sc.run_serial();
    assert_eq!(serial.stats.flows_stalled, 3);
    assert_eq!(equivalence_diff(&serial, &sc.run_parallel(2)), None);
}
