//! Chaos soak: seeded random fault storms over concurrent resilient,
//! plain/replayed, and hedged PUTs, asserting the supervision layer's
//! end-to-end guarantees.
//!
//! Per seed, a [`mpx_sim::FaultPlan::random_soak`] storm (degrades,
//! latency spikes, flaps, rationed kills — the drivers' direct links are
//! protected so a route always survives) rains on one engine while three
//! driver tasks (`mpx_sim::task`, run in task order, so a seed repeats to
//! the bit) push transfers through it concurrently:
//!
//! * a **resilient** driver ([`TransferPolicy::RESILIENT`]: deadlines,
//!   retries, re-plans),
//! * a **plain** driver ([`TransferPolicy::PLAIN`] with the
//!   compiled-graph replay fast path on; a stuck pipeline surfaces as
//!   [`mpx_ucx::TransferError::Stuck`] and escalates to the resilient
//!   policy),
//! * a **hedged** driver (a racing policy: stalled attempts race their
//!   residual on healthy paths).
//!
//! After every storm the harness asserts: every byte bit-exact, the run
//! bounded in virtual time (no deadlock, no unbounded recovery), the
//! breaker ledger balanced (`trips == resets + breakers_open`), and —
//! from the recorded telemetry — that no compiled-graph replay was
//! served on a pair while one of its breakers was open.
//!
//! The soak also exercises the always-on observability layer: the only
//! recorder is a bounded [`mpx_obs::FlightRecorder`] ring (the harness
//! asserts nothing was overwritten, so the replay-gate audit over its
//! snapshot stays exact), and an [`mpx_obs::AnomalyEngine`] is installed
//! as the context's sink. Every storm must fire at least one black-box
//! dump, every dump's trigger class must be one the storm can actually
//! cause, breaker dumps must carry the pair/path/cause of the fault that
//! tripped them, and a `dead_link=true` cause must only appear when the
//! storm really scheduled a kill. Set `MPX_DUMP_DIR` to also write each
//! dump as `$MPX_DUMP_DIR/seed-<seed>/dump-*.json` (the CI smoke greps
//! these).
//!
//! A separate two-regime phase measures hedged-PUT tail latency: p99
//! over 100 transfers on a healthy fabric vs the same with the direct
//! link degraded to 5% under a one-strike breaker. The acceptance bound
//! is p99(degraded) ≤ 2 × p99(healthy).
//!
//! Usage:
//!   chaos_soak           # full seed set, write results/BENCH_chaos.json
//!   chaos_soak --quick   # CI smoke: two seeds, same invariants, no
//!                        # artifact overwrite; exits nonzero on any
//!                        # violation

use mpx_gpu::GpuRuntime;
use mpx_obs::{AnomalyConfig, AnomalyEngine, Event, FlightRecorder, Phase, TelemetryRegistry};
use mpx_sim::{task, Engine, FaultInjector, FaultKind, FaultPlan, Label, SimTime};
use mpx_topo::units::MIB;
use mpx_topo::{presets, DeviceId, LinkId, PathSelection, Topology};
use mpx_ucx::{DeadlinePolicy, HealthConfig, TransferPolicy, UcxConfig, UcxContext};
use serde_json::{json, Value};
use std::sync::Arc;

/// Committed seeds: the acceptance runs exactly these.
const STANDARD_SEEDS: [u64; 4] = [11, 23, 47, 92];
const QUICK_SEEDS: [u64; 2] = [11, 23];

/// Longest plausible honest run: three drivers' transfers plus every
/// recovery window. A soak exceeding this virtual time has livelocked.
const MAX_VIRTUAL_SECS: f64 = 60.0;

/// Transfers per driver per seed.
const PUTS_PER_DRIVER: usize = 8;

/// Per-thread flight-recorder ring capacity for one soak. Sized so a
/// full storm fits without overwrites — the replay-gate audit walks the
/// ring snapshot and is only exact over complete history, which the
/// harness asserts (`overwritten == 0`).
const FLIGHT_CAPACITY: usize = 1 << 15;

/// Trigger classes a `random_soak` storm can legitimately fire through
/// this harness: breaker trips/retrips from kills and stuck puts,
/// stuck-transfer dumps from the plain driver, deadline-miss bursts from
/// the resilient retry loop, and residual drift from degraded links.
const STORM_CLASSES: [&str; 5] = [
    "breaker.trip",
    "breaker.retrip",
    "transfer.stuck",
    "deadline.miss-burst",
    "residual.drift",
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: &[u64] = if quick { &QUICK_SEEDS } else { &STANDARD_SEEDS };
    let topo = Arc::new(presets::beluga());

    let mut violations: Vec<String> = Vec::new();
    let mut seed_rows: Vec<Value> = Vec::new();
    println!(
        "{:>6} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>10}",
        "seed",
        "puts",
        "escalate",
        "trips",
        "resets",
        "open",
        "gated",
        "hedges",
        "dumps",
        "virt_ms",
        "replay_ok"
    );
    for &seed in seeds {
        seed_rows.push(soak_one(&topo, seed, &mut violations));
    }

    let tail = tail_latency_phase(&topo, &mut violations);

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("chaos_soak violation: {v}");
        }
        std::process::exit(1);
    }
    println!("chaos_soak: ok ({} seeds, zero violations)", seeds.len());
    if !quick {
        let report = json!({
            "seeds": seed_rows,
            "tail_latency": tail
        });
        mpx_bench::emit_json("BENCH_chaos", &report);
    }
}

/// Data pattern for one (driver, iteration) — distinct across drivers so
/// cross-driver corruption cannot cancel out.
fn pattern(driver: usize, iter: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| ((i * (13 + 2 * driver) + iter * 101) % 251) as u8)
        .collect()
}

/// Message size walk per driver: 4-byte aligned, 4–24 MiB, irregular so
/// planning and graph keying churn.
fn size_at(driver: usize, iter: usize) -> usize {
    4 * MIB + 4 * (((iter * 37987 + driver * 104729) * 1021) % (20 * MIB / 4))
}

#[derive(Default)]
struct DriverOutcome {
    escalations: u64,
    hedge_rounds: u64,
}

/// One seeded storm over one engine with three concurrent drivers.
/// Appends human-readable violation strings; panics (itself a reportable
/// failure) only on corrupted bytes.
fn soak_one(topo: &Arc<Topology>, seed: u64, violations: &mut Vec<String>) -> Value {
    let engine = Engine::new(topo.clone());
    // Always-on telemetry: the bounded ring is the ONLY recorder in the
    // soak. The anomaly engine snapshots it into every black-box dump,
    // and the replay-gate audit walks the same snapshot (sound because
    // the harness asserts zero overwrites below).
    let flight = FlightRecorder::new(FLIGHT_CAPACITY);
    engine.set_recorder(flight.recorder());
    let ctx = UcxContext::new(
        GpuRuntime::new(engine),
        UcxConfig {
            selection: PathSelection::THREE_GPUS_WITH_HOST,
            graph_replay: true,
            ..UcxConfig::default()
        },
    );
    let anomalies = Arc::new(AnomalyEngine::new(
        flight.clone(),
        AnomalyConfig {
            dump_dir: std::env::var_os("MPX_DUMP_DIR")
                .map(|d| std::path::PathBuf::from(d).join(format!("seed-{seed}"))),
            ..AnomalyConfig::default()
        },
    ));
    {
        // Freeze the live registry and residual report into each dump so
        // it is readable without the process that produced it.
        let metrics_ctx = ctx.clone();
        anomalies.set_metrics_source(move || {
            let reg = TelemetryRegistry::new();
            metrics_ctx.fill_registry(&reg);
            reg.snapshot()
        });
        let residual_ctx = ctx.clone();
        anomalies.set_residual_source(move || residual_ctx.residual_report());
    }
    ctx.set_anomaly_sink(anomalies.clone());
    let gpus = topo.gpus();
    // One pair per driver, disjoint endpoints where the 4-GPU node
    // allows, so per-pair health state is single-writer.
    let pairs: [(DeviceId, DeviceId); 3] =
        [(gpus[0], gpus[1]), (gpus[2], gpus[3]), (gpus[1], gpus[3])];
    // Protect each driver pair's direct link from kills and flaps: a
    // usable route always survives, so recovery stays bounded by
    // construction and anything unbounded is a harness bug. The
    // (gpus[3], gpus[0]) link stays protected so each committed seed
    // keeps the storm it has always drawn.
    let protect: Vec<LinkId> = pairs
        .iter()
        .chain(std::iter::once(&(gpus[3], gpus[0])))
        .filter_map(|&(a, b)| topo.link_between(a, b).ok().map(|l| l.id))
        .collect();
    let storm = FaultPlan::random_soak(topo, seed, 0.01, 24, &protect);
    FaultInjector::install(ctx.runtime().engine(), &storm);

    let hedged = TransferPolicy {
        deadline: DeadlinePolicy::new(TransferPolicy::HEDGED.deadline.slack, 1e-5),
        retries: 4,
        race: true,
    };
    let drivers = (0..3).map(|driver| {
        let (ctx, (src_dev, dst_dev)) = (&ctx, pairs[driver]);
        let body = async move {
            let mut out = DriverOutcome::default();
            for iter in 0..PUTS_PER_DRIVER {
                let n = size_at(driver, iter);
                let data = pattern(driver, iter, n);
                let src = ctx.runtime().alloc_bytes(src_dev, data.clone());
                let dst = ctx.runtime().alloc_zeroed(dst_dev, n);
                let policy = match driver {
                    // Resilient driver: deadline/retry/re-plan loop.
                    0 => TransferPolicy::RESILIENT,
                    // Plain driver: replay fast path; a stuck pipeline
                    // escalates instead of panicking.
                    1 => TransferPolicy::PLAIN,
                    // Hedged driver: race stalled residuals.
                    _ => hedged,
                };
                match ctx.transfer(&src, &dst, n, &policy).await {
                    Ok(r) => out.hedge_rounds += if policy.race { r.retries } else { 0 },
                    Err(e) => {
                        assert!(driver > 0, "resilient put must survive the storm: {e}");
                        out.escalations += 1;
                        ctx.transfer(&src, &dst, n, &TransferPolicy::RESILIENT)
                            .await
                            .expect("escalated put must survive");
                    }
                }
                assert_eq!(
                    dst.to_vec().expect("readback"),
                    data,
                    "seed {seed} driver {driver} iter {iter}: bytes corrupted"
                );
            }
            out
        };
        (Label::from(format!("chaos{driver}")), body)
    });
    let outcomes = task::run(ctx.runtime().engine(), drivers);
    let escalations: u64 = outcomes.iter().map(|o| o.escalations).sum();
    let hedge_rounds: u64 = outcomes.iter().map(|o| o.hedge_rounds).sum();

    let virtual_secs = ctx.runtime().engine().stats().now.as_secs();
    if virtual_secs > MAX_VIRTUAL_SECS {
        violations.push(format!(
            "seed {seed}: soak took {virtual_secs:.3}s virtual (> {MAX_VIRTUAL_SECS}s): unbounded recovery"
        ));
    }
    let h = ctx.health_stats();
    if h.trips != h.resets + h.breakers_open {
        violations.push(format!("seed {seed}: breaker ledger unbalanced: {h:?}"));
    }
    // The gate audit below is only exact over complete history: the
    // ring must not have wrapped. (If this ever fires, FLIGHT_CAPACITY
    // is undersized for the storm, not the transport misbehaving.)
    if flight.overwritten() > 0 {
        violations.push(format!(
            "seed {seed}: flight recorder overwrote {} events; raise FLIGHT_CAPACITY",
            flight.overwritten()
        ));
    }
    let gate_violations = replay_gate_violations(&flight.snapshot());
    if gate_violations > 0 {
        violations.push(format!(
            "seed {seed}: {gate_violations} graph replays served on breaker-open pairs"
        ));
    }

    // Black-box dump audit: the storm must leave a usable incident
    // trail, and every dump must be attributable to an injected fault.
    let dumps = anomalies.dumps();
    let storm_kills = storm
        .events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Kill))
        .count();
    if dumps.is_empty() {
        violations.push(format!(
            "seed {seed}: storm fired no black-box dump ({} trips, {} escalations)",
            h.trips, escalations
        ));
    }
    let pair_labels: Vec<String> = pairs.iter().map(|&(a, b)| format!("{a}->{b}")).collect();
    for d in &dumps {
        if !STORM_CLASSES.contains(&d.trigger.as_str()) {
            violations.push(format!(
                "seed {seed}: dump #{} has trigger {:?} no storm fault can cause",
                d.seq, d.trigger
            ));
        }
        if d.cause.contains("dead_link=true") && storm_kills == 0 {
            violations.push(format!(
                "seed {seed}: dump #{} blames a dead link but the storm scheduled no kill",
                d.seq
            ));
        }
        if d.trigger.starts_with("breaker.") {
            match (&d.pair, d.path) {
                (Some(pair), Some(_)) if pair_labels.iter().any(|p| p == pair) => {}
                _ => violations.push(format!(
                    "seed {seed}: breaker dump #{} lacks a driver pair/path (pair={:?} path={:?})",
                    d.seq, d.pair, d.path
                )),
            }
            if !d.cause.contains("why=") {
                violations.push(format!(
                    "seed {seed}: breaker dump #{} cause {:?} carries no breaker reason",
                    d.seq, d.cause
                ));
            }
        }
    }
    if h.trips > 0 && !dumps.iter().any(|d| d.trigger.starts_with("breaker.")) {
        violations.push(format!(
            "seed {seed}: {} breaker trips but no breaker dump",
            h.trips
        ));
    }
    println!(
        "{seed:>6} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9.2} {:>10}",
        3 * PUTS_PER_DRIVER as u64,
        escalations,
        h.trips,
        h.resets,
        h.breakers_open,
        h.replays_gated,
        h.hedges,
        dumps.len(),
        virtual_secs * 1e3,
        if gate_violations == 0 {
            "ok"
        } else {
            "VIOLATED"
        },
    );
    json!({
        "seed": seed,
        "puts": 3 * PUTS_PER_DRIVER as u64,
        "escalations": escalations,
        "trips": h.trips,
        "retrips": h.retrips,
        "resets": h.resets,
        "probes": h.probes,
        "breakers_open": h.breakers_open,
        "replays_gated": h.replays_gated,
        "hedges": h.hedges,
        "hedge_wins": h.hedge_wins,
        "hedge_rounds_observed": hedge_rounds,
        "virtual_secs": virtual_secs,
        "replay_gate_violations": gate_violations,
        "dumps": dumps.len(),
        "dump_classes": {
            let mut classes: Vec<&str> = dumps.iter().map(|d| d.trigger.as_str()).collect();
            classes.sort_unstable();
            classes.dedup();
            classes
        },
        "ring_events_recorded": flight.events_recorded(),
        "ring_overwritten": flight.overwritten(),
    })
}

/// Counts compiled-graph replay spans issued on a pair while one of the
/// pair's breakers was open: from each `breaker.trip`/`breaker.retrip`
/// instant until the matching `breaker.reset` (or forever if the storm
/// ends with the breaker still open), no `graph.replay` span may START
/// on that pair's track. Health instants and replay spans share the
/// `pair:src->dst` track naming and the engine's virtual clock, so the
/// comparison is exact.
fn replay_gate_violations(events: &[Event]) -> u64 {
    // (track, path) -> open intervals [start, end).
    let mut open: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();
    let mut intervals: std::collections::HashMap<String, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    let path_of = |detail: &str| -> String {
        detail
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("path="))
            .unwrap_or("?")
            .to_string()
    };
    for e in events {
        let Event::Instant(i) = e else { continue };
        if i.phase != Phase::Health {
            continue;
        }
        let key = (i.track.clone(), path_of(&i.detail));
        if i.name.starts_with("breaker.trip") || i.name.starts_with("breaker.retrip") {
            open.entry(key).or_insert(i.at);
        } else if i.name.starts_with("breaker.reset") {
            if let Some(start) = open.remove(&key) {
                intervals.entry(key.0).or_default().push((start, i.at));
            }
        }
    }
    for ((track, _), start) in open {
        intervals.entry(track).or_default().push((start, f64::MAX));
    }
    let mut bad = 0u64;
    for e in events {
        let Event::Span(s) = e else { continue };
        if s.phase != Phase::GraphReplay {
            continue;
        }
        if let Some(windows) = intervals.get(&s.track) {
            if windows.iter().any(|&(a, b)| s.start >= a && s.start < b) {
                bad += 1;
            }
        }
    }
    bad
}

/// Two-regime hedged tail latency. Healthy: 100 hedged PUTs on a clean
/// fabric. Degraded: the direct link drops to 5% *after* parameters were
/// probed (stale plan), under a one-strike breaker with a long open
/// window — the first PUT blows its trigger and hedges, the drift
/// feedback re-probes the pair, and every later PUT plans around the
/// sick path. p99 therefore measures the supervised steady state, and
/// the acceptance bound is p99(degraded) ≤ 2 × p99(healthy).
fn tail_latency_phase(topo: &Arc<Topology>, violations: &mut Vec<String>) -> Value {
    const SAMPLES: usize = 100;
    let n = 16 * MIB;
    let mut hedged = TransferPolicy::HEDGED;
    hedged.deadline.floor = 1e-5;

    let run = |degrade: bool| -> (Vec<f64>, u64) {
        let ctx = UcxContext::new(
            GpuRuntime::new(Engine::new(topo.clone())),
            UcxConfig {
                selection: PathSelection::THREE_GPUS_WITH_HOST,
                health: HealthConfig {
                    failure_threshold: 1,
                    open_window: 10.0,
                    ..HealthConfig::default()
                },
                ..UcxConfig::default()
            },
        );
        let gpus = topo.gpus();
        // Probe and plan against the healthy fabric first, so the
        // degradation lands on a *stale* plan — the regime hedging
        // exists for.
        ctx.plan_for(gpus[0], gpus[1], n).expect("warm plan");
        if degrade {
            let link = topo.link_between(gpus[0], gpus[1]).expect("direct").id;
            let fault = FaultPlan::empty().with(0.0, link, FaultKind::Degrade { factor: 0.05 });
            FaultInjector::install(ctx.runtime().engine(), &fault);
            ctx.runtime().engine().run_until(SimTime::from_secs(1e-9));
        }
        let name = if degrade {
            "tail-degraded"
        } else {
            "tail-healthy"
        };
        let c = &ctx;
        let driver = async move {
            let mut elapsed = Vec::with_capacity(SAMPLES);
            let mut hedges = 0u64;
            for iter in 0..SAMPLES {
                let data = pattern(7, iter, n);
                let src = c.runtime().alloc_bytes(gpus[0], data.clone());
                let dst = c.runtime().alloc_zeroed(gpus[1], n);
                let r = c
                    .transfer(&src, &dst, n, &hedged)
                    .await
                    .expect("tail-latency put");
                assert_eq!(
                    dst.to_vec().expect("readback"),
                    data,
                    "tail bytes corrupted"
                );
                elapsed.push(r.elapsed);
                hedges += r.retries;
            }
            (elapsed, hedges)
        };
        let mut out = task::run(ctx.runtime().engine(), [(Label::from(name), driver)]);
        out.pop().expect("one driver")
    };

    let p99 = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let idx = ((0.99 * samples.len() as f64).ceil() as usize).min(samples.len()) - 1;
        samples[idx]
    };
    let (mut healthy, _) = run(false);
    let (mut degraded, degraded_hedges) = run(true);
    let (h99, d99) = (p99(&mut healthy), p99(&mut degraded));
    let ratio = d99 / h99;
    if degraded_hedges == 0 {
        violations.push("tail latency: degraded regime never hedged".into());
    }
    if ratio > 2.0 {
        violations.push(format!(
            "tail latency: degraded p99 {:.1} us > 2x healthy p99 {:.1} us ({ratio:.2}x)",
            d99 * 1e6,
            h99 * 1e6
        ));
    }
    println!(
        "hedge tail: healthy p99 {:.1} us, degraded p99 {:.1} us ({ratio:.2}x, bound 2.00x), degraded hedges {degraded_hedges}",
        h99 * 1e6,
        d99 * 1e6,
    );
    json!({
        "samples": SAMPLES,
        "bytes": n,
        "healthy_p99_secs": h99,
        "degraded_p99_secs": d99,
        "ratio": ratio,
        "degraded_hedges": degraded_hedges,
    })
}
