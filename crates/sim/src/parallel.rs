//! Parallel, component-partitioned scenario execution with bit-identical
//! determinism.
//!
//! A [`Scenario`] is a workload declared up front: flows with issue
//! times, an optional [`FaultPlan`], optional seeded jitter. It can run
//! two ways:
//!
//! * [`Scenario::run_serial`] — one engine, one event queue: the oracle.
//! * [`Scenario::run_parallel`] — the workload is decomposed by
//!   [`crate::partition::partition_scenario`] into link-disjoint
//!   partitions, each simulated on its *own* engine with its own event
//!   queue and virtual clock, drained by a pool of worker threads.
//!
//! The parallel result is **bit-identical** to the serial one — same
//! completion times (integer nanoseconds), same per-link byte counters
//! (same f64 bits), same stats — because every source of divergence is
//! pinned:
//!
//! * **Flow identity.** Global flow ids are assigned by issue order
//!   `(time, declaration index)` before execution. Each partition issues
//!   its flows in declaration order, so its engine-local ids are
//!   order-isomorphic to the global ids; the engine's canonical
//!   sorted-by-id float accumulation therefore visits flows in the same
//!   relative order either way.
//! * **Event interleaving.** Within a partition, queue tie-breaks
//!   (insertion sequence) replay the serial engine's relative order,
//!   because the serial engine only ever interleaves *other* partitions'
//!   events between them — and those, by link-disjointness, cannot
//!   observe or perturb this partition's state.
//! * **Jitter.** Latency jitter is pre-drawn from the seeded RNG in
//!   global issue order and attached to each spec as a
//!   [`FlowSpec::latency_factor`], so a flow receives the same factor no
//!   matter which engine issues it.
//! * **Merge order.** Completions are merged by virtual time with a
//!   seeded tie-break (`splitmix64(seed ^ flow)`), applied identically
//!   to the serial trace, so even simultaneous completions in different
//!   partitions have one canonical order.
//!
//! [`equivalence_diff`] checks all of it, down to f64 bit patterns; the
//! `parallel_equiv` proptest drives it over random fault storms at
//! 1/2/4/8 workers.

use crate::engine::{Engine, FlowSpec, OnComplete, StatsSnapshot, TraceRecord};
use crate::engine::{JitterModel, LinkStats};
use crate::fault::{FaultInjector, FaultPlan};
use crate::partition::{partition_scenario, PartitionPlan};
use crate::time::SimTime;
use mpx_obs::{AnomalyEngine, Phase, Recorder, TriggerClass};
use mpx_topo::units::Secs;
use mpx_topo::Topology;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A workload declared up front: flows with issue times plus faults.
/// Build with the fluent methods, then [`Scenario::run_serial`] or
/// [`Scenario::run_parallel`].
#[derive(Clone)]
pub struct Scenario {
    topo: Arc<Topology>,
    flows: Vec<(Secs, FlowSpec)>,
    faults: FaultPlan,
    jitter: Option<JitterModel>,
    tie_seed: u64,
    trace: bool,
    recorder: Option<Recorder>,
    anomalies: Option<Arc<AnomalyEngine>>,
}

impl Scenario {
    /// An empty scenario over `topo`, tracing enabled.
    pub fn new(topo: Arc<Topology>) -> Scenario {
        Scenario {
            topo,
            flows: Vec::new(),
            faults: FaultPlan::empty(),
            jitter: None,
            tie_seed: 0,
            trace: true,
            recorder: None,
            anomalies: None,
        }
    }

    /// The scenario's topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Declares a flow issued at virtual time zero.
    pub fn flow(self, spec: FlowSpec) -> Scenario {
        self.flow_at(0.0, spec)
    }

    /// Declares a flow issued at virtual time `at` seconds.
    pub fn flow_at(mut self, at: Secs, spec: FlowSpec) -> Scenario {
        assert!(at >= 0.0 && at.is_finite(), "invalid issue time {at}");
        assert!(!spec.route.is_empty(), "scenario flow has an empty route");
        self.flows.push((at, spec));
        self
    }

    /// Installs a fault plan (validated against the topology at run
    /// time, exactly like [`FaultInjector::install`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Scenario {
        self.faults = plan;
        self
    }

    /// Enables deterministic latency jitter. Factors are pre-drawn in
    /// global issue order, so serial and parallel runs see identical
    /// perturbations.
    pub fn with_jitter(mut self, model: JitterModel) -> Scenario {
        assert!(
            (0.0..1.0).contains(&model.spread),
            "spread must be in [0, 1)"
        );
        self.jitter = Some(model);
        self
    }

    /// Seeds the completion-merge tie-break (default 0).
    pub fn with_tie_seed(mut self, seed: u64) -> Scenario {
        self.tie_seed = seed;
        self
    }

    /// Enables/disables per-flow trace records (default on). Disable
    /// for throughput benchmarking; both modes must use the same
    /// setting for a fair comparison.
    pub fn with_trace(mut self, trace: bool) -> Scenario {
        self.trace = trace;
        self
    }

    /// Installs a telemetry recorder: flow spans come from the
    /// simulating engine(s); parallel runs additionally emit
    /// [`Phase::Partition`] spans (one per partition lane) and
    /// `partition.rebalance` instants.
    pub fn with_recorder(mut self, rec: Recorder) -> Scenario {
        self.recorder = Some(rec);
        self
    }

    /// Installs an anomaly sink: each partition merge a parallel run
    /// performs signals [`TriggerClass::RebalanceStorm`] at the merge's
    /// virtual time, so storms of bridging flows (a workload whose
    /// decomposition keeps collapsing) produce a black-box dump.
    pub fn with_anomalies(mut self, sink: Arc<AnomalyEngine>) -> Scenario {
        self.anomalies = Some(sink);
        self
    }

    /// Number of declared flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Decomposes the declared workload without running it.
    pub fn partition_plan(&self) -> PartitionPlan {
        let routes: Vec<(SimTime, Vec<mpx_topo::LinkId>)> = self
            .flows
            .iter()
            .map(|(at, s)| (SimTime::from_secs(*at), s.route.to_vec()))
            .collect();
        partition_scenario(self.topo.link_count(), &routes, &self.faults)
    }

    /// Global flow ids by issue order: `ids[decl] = rank of (time, decl)`.
    fn global_ids(&self) -> Vec<u64> {
        let mut order: Vec<usize> = (0..self.flows.len()).collect();
        order.sort_by_key(|&i| (SimTime::from_secs(self.flows[i].0), i));
        let mut ids = vec![0u64; self.flows.len()];
        for (rank, &decl) in order.iter().enumerate() {
            ids[decl] = rank as u64;
        }
        ids
    }

    /// Each declared flow's jitter factor, drawn in global-id order.
    fn jitter_factors(&self, ids: &[u64]) -> Vec<f64> {
        let mut factors = vec![1.0f64; self.flows.len()];
        if let Some(model) = self.jitter {
            let mut rng = StdRng::seed_from_u64(model.seed);
            // Draw in global issue order — the order a serial engine
            // with an installed jitter model would consume the stream.
            let mut by_id: Vec<usize> = (0..factors.len()).collect();
            by_id.sort_by_key(|&i| ids[i]);
            for &decl in &by_id {
                factors[decl] = 1.0 + rng.gen_range(-model.spread..=model.spread);
            }
        }
        factors
    }

    /// Flow `decl` as one run issues it: `(issue time, this run's own copy
    /// of the spec with its jitter factor folded in, global id)`. The one
    /// place a run copies a spec, since the engine consumes what it is
    /// given.
    fn issue(&self, decl: usize, ids: &[u64], factors: &[f64]) -> (Secs, FlowSpec, u64) {
        let (at, spec) = &self.flows[decl];
        let mut spec = spec.clone();
        spec.latency_factor *= factors[decl];
        (*at, spec, ids[decl])
    }

    /// Runs the scenario on one engine — the determinism oracle.
    pub fn run_serial(&self) -> ScenarioReport {
        let plan = self.partition_plan();
        let ids = self.global_ids();
        let factors = self.jitter_factors(&ids);
        let eng = Engine::with_tracing(self.topo.clone(), self.trace);
        if let Some(rec) = &self.recorder {
            eng.set_recorder(rec.clone());
        }
        let issues = (0..self.flows.len()).map(|decl| self.issue(decl, &ids, &factors));
        let assigned = schedule_flows(&eng, issues);
        FaultInjector::install(&eng, &self.faults);
        eng.run_until_idle();
        // The engine must have assigned exactly the precomputed global
        // ids — this is what lets partitions reuse them.
        for &(local, global) in assigned.lock().iter() {
            assert_eq!(
                local, global,
                "serial flow id diverged from issue-order rank"
            );
        }
        let mut stats = eng.stats();
        apply_partition_counters(&mut stats, &plan);
        let mut trace = eng.take_trace();
        sort_canonical(&mut trace, self.tie_seed);
        ScenarioReport {
            stats,
            trace,
            partitions: Vec::new(),
        }
    }

    /// Runs the scenario partitioned across `workers` threads. Any
    /// `workers >= 1` produces the same (bit-identical) result; the
    /// count only bounds concurrency.
    pub fn run_parallel(&self, workers: usize) -> ScenarioReport {
        assert!(workers >= 1, "need at least one worker");
        let plan = self.partition_plan();
        let ids = self.global_ids();
        let factors = self.jitter_factors(&ids);
        // Validate the full plan once up front (sub-plans revalidate
        // cheaply); keeps error surfaces identical to serial.
        let issues = self.faults.validate(&self.topo);
        assert!(issues.is_empty(), "invalid fault plan: {issues:?}");

        struct Prepared {
            eng: Engine,
            assigned: Arc<Mutex<Vec<(u64, u64)>>>,
        }
        let prepared: Vec<Prepared> = plan
            .parts
            .iter()
            .map(|part| {
                let eng = Engine::with_tracing(self.topo.clone(), self.trace);
                if let Some(rec) = &self.recorder {
                    eng.set_recorder(rec.clone());
                }
                let issues = (part.flows.iter()).map(|&decl| self.issue(decl, &ids, &factors));
                let assigned = schedule_flows(&eng, issues);
                let sub = FaultPlan {
                    events: part.faults.iter().map(|&j| self.faults.events[j]).collect(),
                };
                FaultInjector::install(&eng, &sub);
                Prepared { eng, assigned }
            })
            .collect();

        // Worker pool: threads claim partitions off a shared cursor.
        // Partition order is largest-first (see `partition_scenario`),
        // so the long pole starts immediately; results are read back in
        // partition order afterwards, so scheduling cannot perturb the
        // merge.
        let cursor = AtomicUsize::new(0);
        let pool = workers.min(prepared.len()).max(1);
        std::thread::scope(|s| {
            for _ in 0..pool {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = prepared.get(i) else { break };
                    p.eng.run_until_idle();
                });
            }
        });

        // Deterministic merge, in partition order.
        let nlinks = self.topo.link_count();
        let mut stats = empty_stats(nlinks);
        let mut trace = Vec::new();
        let mut partitions = Vec::with_capacity(prepared.len());
        for (part, p) in plan.parts.iter().zip(&prepared) {
            let sub = p.eng.stats();
            let mut sub_trace = p.eng.take_trace();
            if !sub_trace.is_empty() {
                let local_to_global: std::collections::HashMap<u64, u64> =
                    p.assigned.lock().iter().copied().collect();
                for r in &mut sub_trace {
                    let g = *local_to_global
                        .get(&r.flow.0)
                        .expect("trace record for an unmapped flow");
                    r.flow = crate::engine::FlowId(g);
                }
                trace.append(&mut sub_trace);
            }
            partitions.push(PartitionRun {
                root: part.root,
                flows: part.flows.len(),
                events_processed: sub.events_processed,
                now: sub.now,
            });
            accumulate_stats(&mut stats, &sub);
        }
        apply_partition_counters(&mut stats, &plan);
        sort_canonical(&mut trace, self.tie_seed);

        if let Some(rec) = &self.recorder {
            for (k, pr) in partitions.iter().enumerate() {
                rec.span(
                    Phase::Partition,
                    format!("partition:{}", pr.root),
                    format!("p{k} ({} flows)", pr.flows),
                    0.0,
                    pr.now.as_secs(),
                    format!("{} events", pr.events_processed),
                );
            }
            for &(at, loser, winner) in &plan.merges {
                rec.instant(
                    Phase::Partition,
                    "partitions",
                    format!("partition.rebalance {loser}->{winner}"),
                    at.as_secs(),
                    "bridging flow merged partitions",
                );
            }
        }
        if let Some(sink) = &self.anomalies {
            for &(at, loser, winner) in &plan.merges {
                sink.signal(
                    TriggerClass::RebalanceStorm,
                    at.as_secs(),
                    None,
                    None,
                    &format!("partition.rebalance {loser}->{winner}"),
                );
            }
        }

        ScenarioReport {
            stats,
            trace,
            partitions,
        }
    }
}

/// Per-partition execution summary (parallel runs only).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRun {
    /// Partition root (a link index).
    pub root: usize,
    /// Flows the partition simulated.
    pub flows: usize,
    /// Events its private queue processed.
    pub events_processed: u64,
    /// Its final virtual clock.
    pub now: SimTime,
}

/// Result of a scenario run: merged stats (with partition counters),
/// the canonical-order trace, and — for parallel runs — per-partition
/// summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Merged counters; `partitions`/`rebalances`/`cross_component_events`
    /// are filled in both modes from the same decomposition.
    pub stats: StatsSnapshot,
    /// Completed flows in canonical order: `(completed, splitmix64(seed
    /// ^ flow), flow)`. Empty when tracing is off.
    pub trace: Vec<TraceRecord>,
    /// Per-partition summaries (empty for serial runs).
    pub partitions: Vec<PartitionRun>,
}

/// Compares two reports for bit-identical equivalence. Returns `None`
/// when equal, otherwise a human-readable description of the first
/// divergence. Floats (per-link byte counters) are compared by bit
/// pattern, not tolerance.
pub fn equivalence_diff(a: &ScenarioReport, b: &ScenarioReport) -> Option<String> {
    let sa = &a.stats;
    let sb = &b.stats;
    macro_rules! check {
        ($field:ident) => {
            if sa.$field != sb.$field {
                return Some(format!(
                    "stats.{}: {:?} vs {:?}",
                    stringify!($field),
                    sa.$field,
                    sb.$field
                ));
            }
        };
    }
    check!(now);
    check!(flows_issued);
    check!(flows_completed);
    check!(events_processed);
    check!(events_scheduled);
    check!(faults_fired);
    check!(flows_stalled);
    check!(links_down);
    check!(partitions);
    check!(rebalances);
    check!(cross_component_events);
    if sa.links.len() != sb.links.len() {
        return Some(format!(
            "link table size: {} vs {}",
            sa.links.len(),
            sb.links.len()
        ));
    }
    for (l, (la, lb)) in sa.links.iter().zip(&sb.links).enumerate() {
        if la.flows != lb.flows {
            return Some(format!("link {l} flows: {} vs {}", la.flows, lb.flows));
        }
        if la.bytes.to_bits() != lb.bytes.to_bits() {
            return Some(format!(
                "link {l} bytes differ in bits: {} vs {}",
                la.bytes, lb.bytes
            ));
        }
    }
    if a.trace.len() != b.trace.len() {
        return Some(format!(
            "trace length: {} vs {}",
            a.trace.len(),
            b.trace.len()
        ));
    }
    for (i, (ra, rb)) in a.trace.iter().zip(&b.trace).enumerate() {
        if ra != rb {
            return Some(format!("trace[{i}]: {ra:?} vs {rb:?}"));
        }
    }
    None
}

/// SplitMix64 — the seeded tie-break for merging simultaneous
/// completions from different partitions into one canonical order.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sort_canonical(trace: &mut [TraceRecord], seed: u64) {
    trace.sort_by_key(|r| (r.completed, splitmix64(seed ^ r.flow.0), r.flow.0));
}

/// Schedules `(issue time, spec, global id)` triples, in declaration
/// order, on `eng` as issue timers, recording `(engine-local id, global
/// id)` pairs as they are assigned.
fn schedule_flows(
    eng: &Engine,
    issues: impl ExactSizeIterator<Item = (Secs, FlowSpec, u64)>,
) -> Arc<Mutex<Vec<(u64, u64)>>> {
    let assigned = Arc::new(Mutex::new(Vec::with_capacity(issues.len())));
    for (at, spec, gid) in issues {
        let sink = assigned.clone();
        eng.schedule_at(
            SimTime::from_secs(at),
            OnComplete::Call(Box::new(move |ctx| {
                let local = ctx.start_flow(spec, OnComplete::Nothing);
                sink.lock().push((local.0, gid));
            })),
        );
    }
    assigned
}

fn empty_stats(nlinks: usize) -> StatsSnapshot {
    StatsSnapshot {
        now: SimTime::ZERO,
        links: vec![LinkStats::default(); nlinks],
        flows_issued: 0,
        flows_completed: 0,
        events_processed: 0,
        events_scheduled: 0,
        faults_fired: 0,
        flows_stalled: 0,
        links_down: 0,
        partitions: 0,
        rebalances: 0,
        cross_component_events: 0,
    }
}

/// Folds a partition's counters into the merged snapshot. Each link is
/// owned by exactly one partition, so per-link f64 byte totals pick up
/// exactly one non-zero contribution — adding the others' zeros cannot
/// change the bit pattern.
fn accumulate_stats(into: &mut StatsSnapshot, sub: &StatsSnapshot) {
    into.now = into.now.max(sub.now);
    for (a, b) in into.links.iter_mut().zip(&sub.links) {
        a.bytes += b.bytes;
        a.flows += b.flows;
    }
    into.flows_issued += sub.flows_issued;
    into.flows_completed += sub.flows_completed;
    into.events_processed += sub.events_processed;
    into.events_scheduled += sub.events_scheduled;
    into.faults_fired += sub.faults_fired;
    into.flows_stalled += sub.flows_stalled;
    into.links_down += sub.links_down;
}

fn apply_partition_counters(stats: &mut StatsSnapshot, plan: &PartitionPlan) {
    stats.partitions = plan.partitions;
    stats.rebalances = plan.rebalances;
    stats.cross_component_events = plan.cross_component_events;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use mpx_topo::presets;

    fn two_pair_scenario() -> Scenario {
        let topo = Arc::new(presets::synthetic_default());
        let g = topo.gpus();
        let l01 = topo.link_between(g[0], g[1]).unwrap().id;
        let l23 = topo.link_between(g[2], g[3]).unwrap().id;
        Scenario::new(topo)
            .flow(FlowSpec::new(vec![l01], 1 << 24).labeled("a"))
            .flow(FlowSpec::new(vec![l01], 1 << 22).labeled("b"))
            .flow(FlowSpec::new(vec![l23], 1 << 23).labeled("c"))
    }

    #[test]
    fn parallel_matches_serial_on_disjoint_pairs() {
        let sc = two_pair_scenario();
        let serial = sc.run_serial();
        for workers in [1, 2, 4, 8] {
            let par = sc.run_parallel(workers);
            assert_eq!(equivalence_diff(&serial, &par), None, "workers={workers}");
            assert_eq!(par.partitions.len(), 2);
        }
        assert_eq!(serial.stats.partitions, 2);
        assert_eq!(serial.stats.flows_completed, 3);
    }

    #[test]
    fn per_partition_events_sum_to_serial_total() {
        let sc = two_pair_scenario();
        let serial = sc.run_serial();
        let par = sc.run_parallel(4);
        let sum: u64 = par.partitions.iter().map(|p| p.events_processed).sum();
        assert_eq!(sum, serial.stats.events_processed);
        assert_eq!(par.stats.events_scheduled, serial.stats.events_scheduled);
    }

    #[test]
    fn jitter_is_partition_invariant() {
        let topo = Arc::new(presets::synthetic_default());
        let g = topo.gpus();
        let l01 = topo.link_between(g[0], g[1]).unwrap().id;
        let l23 = topo.link_between(g[2], g[3]).unwrap().id;
        let base = Scenario::new(topo)
            .flow(FlowSpec::new(vec![l01], 1 << 20))
            .flow(FlowSpec::new(vec![l23], 1 << 20))
            .flow_at(1e-3, FlowSpec::new(vec![l01], 1 << 21));
        let sc = base.clone().with_jitter(JitterModel {
            seed: 9,
            spread: 0.3,
        });
        let serial = sc.run_serial();
        let par = sc.run_parallel(2);
        assert_eq!(equivalence_diff(&serial, &par), None);
        // And the jitter actually did something: at least one activation
        // time differs from the unjittered run.
        let plain = base.run_serial();
        assert!(serial
            .trace
            .iter()
            .zip(&plain.trace)
            .any(|(a, b)| a.activated != b.activated));
    }

    #[test]
    fn kill_during_merge_routes_to_merged_partition() {
        // Satellite regression: partitions A (pair 0-1) and B (pair
        // 2-3) run separately; a kill hits B's link at t=0.3 while a
        // bridging flow declared at t=0.4 forces A+B to merge. The kill
        // must stall exactly B's flows (and the bridge, which crosses
        // the dead link) in both modes, bit-identically.
        let topo = Arc::new(presets::synthetic_default());
        let g = topo.gpus();
        let l01 = topo.link_between(g[0], g[1]).unwrap().id;
        let l23 = topo.link_between(g[2], g[3]).unwrap().id;
        let n = 50_000_000_000usize; // ~1 s at 50 GB/s
        let sc = Scenario::new(topo)
            .flow(FlowSpec::new(vec![l01], n).labeled("a"))
            .flow(FlowSpec::new(vec![l23], n).labeled("b"))
            .flow_at(0.4, FlowSpec::new(vec![l01, l23], n / 4).labeled("bridge"))
            .with_faults(FaultPlan::empty().with(0.3, l23, FaultKind::Kill));
        let serial = sc.run_serial();
        for workers in [1, 2, 8] {
            let par = sc.run_parallel(workers);
            assert_eq!(equivalence_diff(&serial, &par), None, "workers={workers}");
        }
        assert_eq!(serial.stats.partitions, 1, "bridge must merge A and B");
        assert_eq!(serial.stats.rebalances, 1);
        assert!(serial.stats.cross_component_events >= 2);
        // Flow `a` completes; `b` and `bridge` stall on the dead link.
        assert_eq!(serial.stats.flows_completed, 1);
        assert_eq!(serial.stats.flows_stalled, 2);
        assert_eq!(serial.trace.len(), 1);
        assert_eq!(serial.trace[0].label, "a");
    }

    #[test]
    fn canonical_order_breaks_simultaneous_ties_by_seed() {
        // Two identical flows in different partitions complete at the
        // same instant; the tie-break must be deterministic and
        // seed-dependent.
        let topo = Arc::new(presets::synthetic_default());
        let g = topo.gpus();
        let l01 = topo.link_between(g[0], g[1]).unwrap().id;
        let l23 = topo.link_between(g[2], g[3]).unwrap().id;
        let build = |seed| {
            Scenario::new(topo.clone())
                .with_tie_seed(seed)
                .flow(FlowSpec::new(vec![l01], 1 << 20).labeled("x"))
                .flow(FlowSpec::new(vec![l23], 1 << 20).labeled("y"))
        };
        for seed in [0u64, 1, 7, 1234] {
            let sc = build(seed);
            let serial = sc.run_serial();
            let par = sc.run_parallel(2);
            assert_eq!(equivalence_diff(&serial, &par), None, "seed={seed}");
            assert_eq!(
                serial.trace[0].completed, serial.trace[1].completed,
                "test premise: completions must be simultaneous"
            );
        }
        // Some seed must flip the order relative to seed 0 (splitmix64
        // over two ids is not constant across seeds).
        let base: Vec<String> = build(0)
            .run_serial()
            .trace
            .iter()
            .map(|r| r.label.clone())
            .collect();
        let flipped = (1..64u64).any(|s| {
            let t: Vec<String> = build(s)
                .run_serial()
                .trace
                .iter()
                .map(|r| r.label.clone())
                .collect();
            t != base
        });
        assert!(flipped, "tie-break ignores the seed");
    }

    #[test]
    fn empty_scenario_runs() {
        let topo = Arc::new(presets::synthetic_default());
        let sc = Scenario::new(topo);
        let serial = sc.run_serial();
        let par = sc.run_parallel(8);
        assert_eq!(equivalence_diff(&serial, &par), None);
        assert_eq!(serial.stats.partitions, 0);
    }

    #[test]
    fn recorder_gets_partition_spans_and_rebalance_instants() {
        let topo = Arc::new(presets::synthetic_default());
        let g = topo.gpus();
        let l01 = topo.link_between(g[0], g[1]).unwrap().id;
        let l23 = topo.link_between(g[2], g[3]).unwrap().id;
        let rec = Recorder::new();
        let sc = Scenario::new(topo)
            .with_recorder(rec.clone())
            .flow(FlowSpec::new(vec![l01], 1 << 20))
            .flow(FlowSpec::new(vec![l23], 1 << 20))
            .flow_at(1e-4, FlowSpec::new(vec![l01, l23], 1 << 20));
        let par = sc.run_parallel(2);
        assert_eq!(par.stats.rebalances, 1);
        let events = rec.drain();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.phase() == Phase::Partition)
            .collect();
        assert!(
            spans.iter().any(|e| e.track().starts_with("partition:")),
            "no partition lane spans: {spans:?}"
        );
        assert!(
            spans.iter().any(|e| e.name().contains("rebalance")),
            "no rebalance instant: {spans:?}"
        );
    }

    #[test]
    fn anomaly_sink_sees_rebalance_merges() {
        let topo = Arc::new(presets::synthetic_default());
        let g = topo.gpus();
        let l01 = topo.link_between(g[0], g[1]).unwrap().id;
        let l23 = topo.link_between(g[2], g[3]).unwrap().id;
        // Threshold 1 so a single merge already counts as a storm —
        // the burst arithmetic itself is covered in mpx-obs.
        let sink = Arc::new(AnomalyEngine::new(
            mpx_obs::FlightRecorder::new(256),
            mpx_obs::AnomalyConfig {
                rebalance_storm: 1,
                ..Default::default()
            },
        ));
        let sc = Scenario::new(topo)
            .with_anomalies(sink.clone())
            .flow(FlowSpec::new(vec![l01], 1 << 20))
            .flow(FlowSpec::new(vec![l23], 1 << 20))
            .flow_at(1e-4, FlowSpec::new(vec![l01, l23], 1 << 20));
        let par = sc.run_parallel(2);
        assert_eq!(par.stats.rebalances, 1);
        assert_eq!(sink.fired(), 1);
        let dumps = sink.dumps();
        assert_eq!(dumps[0].trigger, "partition.rebalance-storm");
        assert!(dumps[0].cause.contains("partition.rebalance"));
    }
}
