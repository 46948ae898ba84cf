//! `mpx` — command-line front end.
//!
//! ```text
//! mpx topo  --topo beluga                         # describe a preset node
//! mpx export --topo narval > narval.json          # dump a preset as JSON
//! mpx export --topo dgx1 --format dot | dot -Tsvg   # render the graph
//! mpx plan  --topo-file my_node.json --size 64M   # plan on a custom node
//! mpx plan  --topo narval --size 64M [--paths 3_GPUs_w_host] [--src 0 --dst 1]
//! mpx plan  --topo beluga --size 64M --stats     # plan + plan-table counters
//! mpx bw    --topo beluga --size 64M [--window 16] [--mode single|dynamic] [--replay]
//! mpx bibw  --topo beluga --size 64M [--window 16] [--mode single|dynamic] [--replay]
//! mpx collective --op allreduce|alltoall --size 64M [--topo T] [--paths P]
//! mpx fault-plan --topo beluga --scenario degrade|flap|kill|random > faults.json
//! mpx put   --topo beluga --size 64M [--faults faults.json]   # plain PUT; stuck fabric exits 1
//! mpx resilient --topo beluga --size 64M --faults faults.json [--slack S] [--retries R]
//!                                                  # --retries 0 launches as `mpx put` does
//! mpx plan --topo beluga --size 64M --json          # machine-readable snapshot
//! mpx trace --topo beluga --size 64M [--trace-out trace.json] [--metrics-out metrics.json]
//! mpx metrics --topo beluga --size 64M              # metrics snapshot to stdout
//! mpx metrics --topo beluga --size 64M --openmetrics  # Prometheus/OpenMetrics text exposition
//! mpx report --dump dump-0000-breaker_trip.json     # render a black-box dump as a timeline
//! mpx partition --faults faults.json [--nodes N] [--workers W] [--count FLOWS]
//!                                                  # partitioned engine; divergence exits 1
//! ```

use mpx_topo::DeviceId;
use multipath_gpu::mpi::allreduce;
use multipath_gpu::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn parse_size(s: &str) -> usize {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'M') | Some(b'm') => (&s[..s.len() - 1], 1usize << 20),
        Some(b'G') | Some(b'g') => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1),
    };
    num.parse::<usize>()
        .unwrap_or_else(|_| die(&format!("bad size `{s}`")))
        * mult
}

fn topology(name: &str) -> Topology {
    match name {
        "beluga" => presets::beluga(),
        "narval" => presets::narval(),
        "dgx1" => presets::dgx1(),
        "pcie" => presets::pcie_only(4),
        "synthetic" => presets::synthetic_default(),
        "two-node" => presets::two_node_beluga(2),
        other => die(&format!(
            "unknown topology `{other}` (beluga|narval|dgx1|pcie|synthetic|two-node)"
        )),
    }
}

fn selection(name: &str) -> PathSelection {
    match name {
        "direct" => PathSelection::DIRECT_ONLY,
        "2_GPUs" => PathSelection::TWO_GPUS,
        "3_GPUs" => PathSelection::THREE_GPUS,
        "3_GPUs_w_host" => PathSelection::THREE_GPUS_WITH_HOST,
        other => die(&format!(
            "unknown path selection `{other}` (direct|2_GPUs|3_GPUs|3_GPUs_w_host)"
        )),
    }
}

/// Runs one transfer to completion as a task on the context's engine.
fn drive<F: std::future::Future>(ctx: &UcxContext, name: &str, put: F) -> F::Output {
    let mut out = multipath_gpu::sim::task::run(ctx.runtime().engine(), [(name.into(), put)]);
    out.pop().expect("one task, one output")
}

/// `r`'s value; its error ends the process.
fn or_die<T>(r: Result<T, impl std::fmt::Display>) -> T {
    r.unwrap_or_else(|e| die(&e.to_string()))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: mpx <topo|export|plan|bw|bibw|collective|fault-plan|put|resilient|trace|metrics|report|partition> [--topo T | --topo-file F] [--size N] [--window W] [--mode M] [--paths P] [--src I] [--dst J] [--op C] [--scenario S] [--faults F] [--slack X] [--retries R] [--seed N] [--count N] [--horizon T] [--nodes N] [--workers W] [--dump F] [--json] [--replay] [--openmetrics] [--trace-out F] [--metrics-out F]");
    std::process::exit(2)
}

/// The command line, parsed once; each verb reads what it needs.
struct Args {
    cmd: String,
    opts: HashMap<String, String>,
    topo: Arc<Topology>,
    n: usize,
    sel: PathSelection,
    src: DeviceId,
    dst: DeviceId,
    window: usize,
    mode: TuningMode,
}

impl Args {
    fn parse() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let Some(cmd) = args.first().cloned() else {
            die("missing command");
        };
        // Boolean flags take no value; everything else is `--key value`.
        const BOOL_FLAGS: [&str; 4] = ["stats", "json", "replay", "openmetrics"];
        let mut opts: HashMap<String, String> = HashMap::new();
        let mut it = args[1..].iter();
        while let Some(flag) = it.next() {
            let Some(key) = flag.strip_prefix("--") else {
                die(&format!("unexpected argument `{flag}`"));
            };
            if BOOL_FLAGS.contains(&key) {
                opts.insert(key.to_string(), "true".into());
                continue;
            }
            let Some(value) = it.next() else {
                die(&format!("flag --{key} needs a value"));
            };
            opts.insert(key.to_string(), value.clone());
        }
        let get = |k: &str, default: &str| opts.get(k).cloned().unwrap_or_else(|| default.into());
        let topo = Arc::new(match opts.get("topo-file") {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
                let t: Topology = serde_json::from_str(&text)
                    .unwrap_or_else(|e| die(&format!("bad topology JSON in {path}: {e}")));
                for issue in mpx_topo::validate(&t) {
                    eprintln!("warning: {issue}");
                }
                t
            }
            None => topology(&get("topo", "beluga")),
        });
        let gpus = topo.gpus();
        let num = |k: &str, default: &str| {
            (get(k, default).parse::<usize>()).unwrap_or_else(|_| die(&format!("bad --{k}")))
        };
        Args {
            n: parse_size(&get("size", "64M")),
            sel: selection(&get("paths", "3_GPUs_w_host")),
            src: gpus[num("src", "0")],
            dst: gpus[num("dst", "1")],
            window: num("window", "1"),
            mode: match get("mode", "dynamic").as_str() {
                "single" => TuningMode::SinglePath,
                "dynamic" => TuningMode::Dynamic,
                "static" => TuningMode::Static,
                other => die(&format!("unknown mode `{other}` (single|dynamic|static)")),
            },
            cmd,
            opts,
            topo,
        }
    }

    fn get(&self, k: &str, default: &str) -> String {
        self.opts.get(k).cloned().unwrap_or_else(|| default.into())
    }

    /// `--k` parsed as a `T` (`default` when absent); a bad value dies
    /// naming the flag.
    fn value<T: std::str::FromStr>(&self, k: &str, default: &str) -> T {
        (self.get(k, default).parse()).unwrap_or_else(|_| die(&format!("bad --{k}")))
    }

    /// The transport config of the chosen mode and path selection.
    fn config(&self) -> UcxConfig {
        UcxConfig {
            mode: self.mode,
            selection: self.sel,
            ..UcxConfig::default()
        }
    }
}

fn main() {
    let a = Args::parse();
    match a.cmd.as_str() {
        "export" => export(&a),
        "topo" => describe(&a),
        "plan" => plan(&a),
        "collective" => collective(&a),
        "bw" | "bibw" => bandwidth(&a),
        "fault-plan" => fault_plan(&a),
        "put" => put(&a),
        "resilient" => resilient(&a),
        "trace" | "metrics" => trace(&a),
        "report" => report(&a),
        "partition" => partition(&a),
        other => die(&format!("unknown command `{other}`")),
    }
}

fn export(a: &Args) {
    match a.get("format", "json").as_str() {
        "json" => println!(
            "{}",
            serde_json::to_string_pretty(a.topo.as_ref()).expect("topology serializes")
        ),
        "dot" => print!("{}", mpx_topo::to_dot(&a.topo)),
        other => die(&format!("unknown format `{other}` (json|dot)")),
    }
}

fn describe(a: &Args) {
    print!("{}", a.topo.describe());
    let issues = mpx_topo::validate(&a.topo);
    if issues.is_empty() {
        println!("validation: clean");
    } else {
        for i in &issues {
            println!("validation: {i}");
        }
    }
}

fn plan(a: &Args) {
    let (topo, n, sel, src, dst) = (&a.topo, a.n, a.sel, a.src, a.dst);
    let planner = Planner::new(topo.clone());
    let plan = or_die(planner.plan(src, dst, n, sel));
    if a.opts.contains_key("json") {
        let reg = TelemetryRegistry::new();
        reg.set_counter("plan.bytes", plan.n as u64);
        reg.set_counter("plan.active_paths", plan.active_path_count() as u64);
        reg.set_gauge("plan.predicted_us", plan.predicted_time * 1e6);
        reg.set_gauge(
            "plan.predicted_bandwidth_gbps",
            plan.predicted_bandwidth / 1e9,
        );
        let s = planner.stats();
        reg.set_counter("cache.hits", s.hits);
        reg.set_counter("cache.misses", s.misses);
        reg.set_counter("cache.invalidations", s.invalidations);
        println!(
            "{}",
            serde_json::to_string_pretty(&reg.snapshot()).expect("snapshot serializes")
        );
    } else {
        println!("{src} -> {dst} ({}):", sel.label());
        print!("{}", plan.describe());
        if a.opts.contains_key("stats") {
            let s = planner.stats();
            println!(
                "cache: hits={} misses={} invalidations={}",
                s.hits, s.misses, s.invalidations
            );
        }
    }
}

fn collective(a: &Args) {
    let (topo, n, sel, mode) = (&a.topo, a.n, a.sel, a.mode);
    use mpx_model::{predict_allreduce_knomial, predict_alltoall_bruck};
    use mpx_omb::{osu_allreduce, osu_alltoall, AllreduceAlgo, AlltoallAlgo, CollectiveConfig};
    let op = a.get("op", "allreduce");
    let planner = Planner::new(topo.clone());
    let gpus = topo.gpus();
    let kernel = mpx_gpu::KernelCostModel::default_gpu();
    let coll = CollectiveConfig {
        ranks: gpus.len().min(4),
        iterations: 2,
        warmup: 1,
    };
    let cfg = a.config();
    let (pred, meas) = match op.as_str() {
        "allreduce" => {
            let n = n - n % (4 * coll.ranks);
            let cost = |b| kernel.cost(b);
            let p = or_die(predict_allreduce_knomial(
                &planner,
                &gpus[..coll.ranks],
                n,
                sel,
                &cost,
            ));
            let m = osu_allreduce(topo, cfg, n, AllreduceAlgo::Rabenseifner, coll);
            (p, m)
        }
        "alltoall" => {
            let block = (n / coll.ranks).max(4);
            let cost = |b| kernel.cost_copy(b);
            let p = or_die(predict_alltoall_bruck(
                &planner,
                &gpus[..coll.ranks],
                block,
                sel,
                &cost,
            ));
            let m = osu_alltoall(topo, cfg, block, AlltoallAlgo::Bruck, coll);
            (p, m)
        }
        other => die(&format!(
            "unknown collective `{other}` (allreduce|alltoall)"
        )),
    };
    println!(
        "{op} {} mode={mode:?} paths={}: predicted {:.0} us (comm {:.0}, compute {:.0}), measured {:.0} us ({:+.1}%)",
        mpx_topo::units::format_bytes(n),
        sel.label(),
        pred.total * 1e6,
        pred.comm * 1e6,
        pred.compute * 1e6,
        meas * 1e6,
        (pred.total - meas) / meas * 100.0
    );
}

fn bandwidth(a: &Args) {
    let (topo, n, window, mode) = (&a.topo, a.n, a.window, a.mode);
    let replay = a.opts.contains_key("replay");
    let mut cfg = a.config();
    cfg.graph_replay = replay;
    let p2p = P2pConfig::with_window(window);
    let bw = if a.cmd == "bw" {
        osu_bw(topo, cfg, n, p2p)
    } else {
        osu_bibw(topo, cfg, n, p2p)
    };
    println!(
        "{} {} window={window} mode={mode:?}{}: {:.2} GB/s",
        a.cmd,
        mpx_topo::units::format_bytes(n),
        if replay { " replay=on" } else { "" },
        bw / 1e9
    );
}

fn fault_plan(a: &Args) {
    let (topo, n, sel, src, dst) = (&a.topo, a.n, a.sel, a.src, a.dst);
    let planner = Planner::new(topo.clone());
    let (plan, paths) = or_die(planner.plan_excluding(src, dst, n, sel, &[]));
    // A link a staged path forwards over, so killing it leaves
    // survivors; falls back to the direct link when the
    // selection has no staged path.
    let staged_leg = paths
        .iter()
        .find(|p| p.legs.len() >= 2)
        .map(|p| p.legs[1].route[0])
        .unwrap_or(paths[0].legs[0].route[0]);
    let t = plan.predicted_time;
    let fplan = match a.get("scenario", "kill").as_str() {
        // Throttle the direct link hard mid-transfer: the plan's
        // dominant share crawls past its deadline and the
        // recovery loop must re-balance onto the others.
        "degrade" => FaultPlan::empty().with(
            t * 0.25,
            paths[0].legs[0].route[0],
            FaultKind::Degrade { factor: 0.05 },
        ),
        // Outage far longer than the slack window: forces a
        // re-plan over the survivors, then the link returns.
        "flap" => {
            FaultPlan::empty().with(t * 0.3, staged_leg, FaultKind::Flap { duration: t * 8.0 })
        }
        "kill" => FaultPlan::empty().with(t * 0.5, staged_leg, FaultKind::Kill),
        "random" => {
            let seed = a.value::<u64>("seed", "42");
            let count = a.value::<usize>("count", "8");
            let horizon = a.value::<f64>("horizon", "1.0");
            FaultPlan::random(topo, seed, horizon, count)
        }
        other => die(&format!(
            "unknown scenario `{other}` (degrade|flap|kill|random)"
        )),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&fplan).expect("fault plan serializes")
    );
}

/// Reads and parses the fault-plan JSON at `path`; each verb validates it
/// against the topology it runs on.
fn load_fault_plan(path: &str) -> FaultPlan {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("bad fault plan JSON in {path}: {e}")))
}

/// [`load_fault_plan`] for a verb that runs on the node: every problem of
/// the plan there is printed, and the process exits 2.
fn node_fault_plan(a: &Args, path: &str) -> FaultPlan {
    let plan = load_fault_plan(path);
    let issues = plan.validate(&a.topo);
    for i in &issues {
        eprintln!("error: {i}");
    }
    if !issues.is_empty() {
        std::process::exit(2);
    }
    plan
}

/// What `put` and `resilient` share: a fresh context with `faults`
/// installed, and one `transfer` of seeded bytes under `policy`, driven as
/// task `name`. Returns the context, and the report with whether the bytes
/// landed intact.
fn drive_put(
    a: &Args,
    faults: Option<&FaultPlan>,
    policy: &TransferPolicy,
    name: &str,
) -> (UcxContext, Result<(TransferReport, bool), TransferError>) {
    let ctx = UcxContext::new(GpuRuntime::new(Engine::new(a.topo.clone())), a.config());
    if let Some(p) = faults {
        FaultInjector::install(ctx.runtime().engine(), p);
    }
    let data: Vec<u8> = (0..a.n).map(|i| (i % 251) as u8).collect();
    let srcb = ctx.runtime().alloc_bytes(a.src, data.clone());
    let dstb = ctx.runtime().alloc_zeroed(a.dst, a.n);
    let result = drive(&ctx, name, ctx.transfer(&srcb, &dstb, a.n, policy));
    let intact = dstb.to_vec().map(|v| v == data).unwrap_or(false);
    (ctx, result.map(|report| (report, intact)))
}

/// The plain PUT: no retries and no hedging, but a stranded pipeline
/// surfaces as the typed stuck error and exit 1, never a panic.
fn put(a: &Args) {
    let (n, sel, mode) = (a.n, a.sel, a.mode);
    let faults = a.opts.get("faults").map(|path| node_fault_plan(a, path));
    let (_, result) = drive_put(a, faults.as_ref(), &TransferPolicy::PLAIN, "mpx-put");
    let (TransferReport { elapsed, .. }, intact) = result.unwrap_or_else(|e| {
        eprintln!("error: put failed: {e}");
        std::process::exit(1)
    });
    println!(
        "put {} paths={} mode={mode:?}: {:.3} ms virtual, {:.2} GB/s | data {}",
        mpx_topo::units::format_bytes(n),
        sel.label(),
        elapsed * 1e3,
        n as f64 / elapsed / 1e9,
        if intact { "intact" } else { "CORRUPT" },
    );
    if !intact {
        std::process::exit(1);
    }
}

fn resilient(a: &Args) {
    let (n, sel, mode) = (a.n, a.sel, a.mode);
    let path =
        (a.opts.get("faults")).unwrap_or_else(|| die("resilient needs --faults <plan.json>"));
    let faults = node_fault_plan(a, path);
    let mut policy = TransferPolicy::RESILIENT;
    policy.deadline.slack = a.value::<f64>("slack", "4");
    policy.retries = a.value::<u32>("retries", "4");
    let (ctx, result) = drive_put(a, Some(&faults), &policy, "mpx-resilient");
    let stats = ctx.runtime().engine().stats();
    let res = ctx.resilience_stats();
    let (report, intact) = result.unwrap_or_else(|e| {
        eprintln!(
            "error: resilient transfer failed: {e} (faults_fired={} retries={} replans={})",
            stats.faults_fired, res.retries, res.replans
        );
        std::process::exit(1)
    });
    let cache = ctx.cache_stats();
    println!(
        "resilient {} paths={} mode={mode:?}: complete at {:.3} ms virtual | faults_fired={} flows_stalled={} links_down={} | retries={} replans={} timeouts={} recovered={} final_paths={} | cache: hits={} misses={} class_hits={} class_fallbacks={} invalidations={} | data {}",
        mpx_topo::units::format_bytes(n),
        sel.label(),
        stats.now.as_secs() * 1e3,
        stats.faults_fired,
        stats.flows_stalled,
        stats.links_down,
        report.retries,
        report.replans,
        res.timeouts,
        mpx_topo::units::format_bytes(report.recovered_bytes as usize),
        report.final_paths,
        cache.hits,
        cache.misses,
        cache.class_hits,
        cache.class_fallbacks,
        cache.invalidations,
        if intact { "intact" } else { "CORRUPT" },
    );
    if a.opts.contains_key("json") {
        let reg = TelemetryRegistry::new();
        stats.fill_registry(&reg);
        ctx.fill_registry(&reg);
        reg.set_counter("resilient.retries", report.retries);
        reg.set_counter("resilient.replans", report.replans);
        reg.set_counter("resilient.recovered_bytes", report.recovered_bytes);
        reg.set_counter("resilient.final_paths", report.final_paths as u64);
        println!(
            "{}",
            serde_json::to_string_pretty(&reg.snapshot()).expect("snapshot serializes")
        );
    }
    if !intact {
        std::process::exit(1);
    }
}

fn trace(a: &Args) {
    // Instrumented workload: install a recorder on the engine,
    // run a resilient PUT through a synthesized mid-transfer
    // degradation (so recovery and fault telemetry fires), then
    // a small allreduce over the same engine (rank tracks).
    let (topo, n, sel, src, dst, mode) = (&a.topo, a.n, a.sel, a.src, a.dst, a.mode);
    let eng = Engine::new(topo.clone());
    let rec = Recorder::new();
    eng.set_recorder(rec.clone());
    let rt = GpuRuntime::new(eng);
    let mut cfg = a.config();
    cfg.graph_replay = true;
    let ctx = UcxContext::new(rt, cfg);
    // One statically tuned entry so the tune phase appears.
    or_die(ctx.tune_static(src, dst, n));
    let plan = or_die(ctx.plan_for(src, dst, n));
    let paths = or_die(ctx.paths_for(src, dst, sel));
    // Two same-size PUTs through the compiled-graph fast path
    // while the fabric is still healthy: the first captures
    // (graph.capture instant), the second replays
    // (graph.replay span), so both phases land in the trace.
    let gdata: Vec<u8> = (0..n).map(|i| (i * 3 % 251) as u8).collect();
    let gsrc = ctx.runtime().alloc_bytes(src, gdata.clone());
    let gdst = ctx.runtime().alloc_zeroed(dst, n);
    for _ in 0..2 {
        let h = or_die(ctx.put(&PutRequest::new(&gsrc, &gdst, n)));
        ctx.runtime().engine().run_until_idle();
        if !h.is_complete() {
            die("graph workload stalled");
        }
    }
    if gdst.to_vec().map(|v| v != gdata).unwrap_or(true) {
        die("graph workload corrupted data");
    }
    // The fault-plan `degrade` scenario: throttle the direct
    // link hard mid-transfer so the recovery loop must
    // re-balance onto the other paths.
    let fplan = FaultPlan::empty().with(
        plan.predicted_time * 0.25,
        paths[0].legs[0].route[0],
        FaultKind::Degrade { factor: 0.05 },
    );
    FaultInjector::install(ctx.runtime().engine(), &fplan);
    let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
    let srcb = ctx.runtime().alloc_bytes(src, data.clone());
    let dstb = ctx.runtime().alloc_zeroed(dst, n);
    let put = ctx.transfer(&srcb, &dstb, n, &TransferPolicy::RESILIENT);
    let report = drive(&ctx, "mpx-trace", put)
        .unwrap_or_else(|e| die(&format!("trace workload failed: {e}")));
    if dstb.to_vec().map(|v| v != data).unwrap_or(true) {
        die("trace workload corrupted data");
    }
    // Health/hedge segment: kill the staged path's forwarding
    // leg mid-transfer and drive a hedged PUT through it. The
    // stall trips the dead path's breaker (health instants) and
    // the residual races to completion on the survivors (hedge
    // instants); every later transfer plans around the breaker.
    let hplan = or_die(ctx.plan_for(src, dst, n));
    // Fault times are relative to the engine's current virtual
    // time at install.
    let kplan = FaultPlan::empty().with(
        hplan.predicted_time * 0.5,
        paths[1].legs[1].route[0],
        FaultKind::Kill,
    );
    FaultInjector::install(ctx.runtime().engine(), &kplan);
    let hdata: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
    let hsrc = ctx.runtime().alloc_bytes(src, hdata.clone());
    let hdst = ctx.runtime().alloc_zeroed(dst, n);
    let put = ctx.transfer(&hsrc, &hdst, n, &TransferPolicy::HEDGED);
    let hreport = drive(&ctx, "mpx-hedge", put)
        .unwrap_or_else(|e| die(&format!("hedged trace workload failed: {e}")));
    if hdst.to_vec().map(|v| v != hdata).unwrap_or(true) {
        die("hedged trace workload corrupted data");
    }
    // Partition segment: a small component-partitioned scenario
    // over a two-node cluster sharing the recorder — per-
    // partition lanes plus a rebalance instant from a bridging
    // flow — so the partition phase lands in the trace.
    {
        let cluster = Arc::new(presets::cluster(2, 4));
        let sc = Scenario::new(cluster)
            .with_recorder(rec.clone())
            .flow(FlowSpec::new(vec![LinkId(0)], 1 << 20))
            .flow(FlowSpec::new(vec![LinkId(21)], 1 << 20))
            .flow_at(1e-4, FlowSpec::new(vec![LinkId(0), LinkId(21)], 1 << 20));
        let serial = sc.run_serial();
        let par = sc.run_parallel(2);
        if let Some(diff) = equivalence_diff(&serial, &par) {
            die(&format!("partition trace segment diverged: {diff}"));
        }
    }
    let w = World::over(ctx.runtime().clone(), cfg);
    let ranks = topo.gpus().len().min(4);
    let cn = 1usize << 20;
    w.run_tasks(ranks, |r| async move {
        let buf = r.alloc(cn);
        allreduce(&r, &buf, cn, ReduceOp::Sum).await;
    });

    // One snapshot unifying engine and transport counters.
    let reg = TelemetryRegistry::new();
    ctx.runtime().engine().stats().fill_registry(&reg);
    ctx.fill_registry(&reg);
    let snapshot = reg.snapshot();
    let metrics_json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    if a.cmd == "metrics" {
        if a.opts.contains_key("openmetrics") {
            print!("{}", render_openmetrics(&reg));
        } else {
            println!("{metrics_json}");
        }
        return;
    }

    let events = rec.drain();
    let trace = export_chrome_trace(&events);
    // Self-check: the emitted trace must be valid JSON.
    serde_json::from_str::<serde_json::Value>(&trace)
        .unwrap_or_else(|e| die(&format!("generated trace is not valid JSON: {e}")));
    let trace_out = a.get("trace-out", "trace.json");
    let metrics_out = a.get("metrics-out", "metrics.json");
    std::fs::write(&trace_out, &trace)
        .unwrap_or_else(|e| die(&format!("cannot write {trace_out}: {e}")));
    std::fs::write(&metrics_out, &metrics_json)
        .unwrap_or_else(|e| die(&format!("cannot write {metrics_out}: {e}")));
    let phases: Vec<&str> = phases_present(&events)
        .into_iter()
        .map(|p| p.label())
        .collect();
    println!(
        "trace {} mode={mode:?}: {} events ({}) -> {trace_out} | {} metrics -> {metrics_out} | retries={} replans={} hedges={} hedge_won={}",
        mpx_topo::units::format_bytes(n),
        events.len(),
        phases.join(","),
        snapshot.entries.len(),
        report.retries,
        report.replans,
        hreport.retries,
        hreport.hedge_won,
    );
    print!("{}", ctx.residual_report().render());
}

/// Renders a black-box dump written by the anomaly engine as a
/// human-readable incident timeline.
fn report(a: &Args) {
    let path = (a.opts.get("dump")).unwrap_or_else(|| die("mpx report needs --dump <file.json>"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let dump: BlackBoxDump = serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("bad black-box dump in {path}: {e}")));
    print!("{}", dump.render_timeline());
}

/// Component-partitioned scenario runner: build a cluster workload
/// (optionally under a fault plan), execute serial and parallel, and verify
/// bit-identical output. Exits 1 on any divergence, so CI can drive fault
/// plans through the parallel engine.
fn partition(a: &Args) {
    let n = a.n;
    let nodes = a.value::<usize>("nodes", "6");
    let workers = a.value::<usize>("workers", "8");
    let flows = a.value::<usize>("count", "96");
    let seed = a.value::<u64>("seed", "42");
    let fplan = (a.opts.get("faults")).map_or_else(FaultPlan::empty, |p| load_fault_plan(p));
    const NODE_LINKS: usize = 21; // links per 4-GPU cluster node
    let cluster = Arc::new(presets::cluster(nodes.max(2), 4));
    if let Some(issue) = fplan.validate(&cluster).into_iter().next() {
        die(&format!("fault plan does not fit the cluster: {issue}"));
    }
    let mut sc = Scenario::new(cluster)
        .with_tie_seed(seed)
        .with_jitter(JitterModel { seed, spread: 0.1 })
        .with_faults(fplan);
    for k in 0..flows {
        let node = k % nodes;
        let off = (k / nodes) % 12; // GPU-pair links per node
        let route = vec![LinkId((node * NODE_LINKS + off) as u32)];
        let at = (k / (nodes * 12)) as f64 * 1e-4;
        sc = sc.flow_at(at, FlowSpec::new(route, n / flows.max(1) + k));
    }
    // One bridging flow per adjacent node pair, issued late so
    // the merges land while faults are in flight.
    for node in 0..nodes - 1 {
        let route = vec![
            LinkId((node * NODE_LINKS) as u32),
            LinkId(((node + 1) * NODE_LINKS) as u32),
        ];
        sc = sc.flow_at(5e-4, FlowSpec::new(route, 1 << 20));
    }
    let serial = sc.run_serial();
    let par = sc.run_parallel(workers);
    if let Some(diff) = equivalence_diff(&serial, &par) {
        eprintln!("FAIL: parallel output diverged from serial: {diff}");
        std::process::exit(1);
    }
    let s = &serial.stats;
    if a.opts.contains_key("json") {
        let row = serde_json::json!({
                "workers": workers,
                "flows_issued": s.flows_issued,
                "flows_completed": s.flows_completed,
                "flows_stalled": s.flows_stalled,
                "faults_fired": s.faults_fired,
                "events_processed": s.events_processed,
                "partitions": s.partitions,
                "rebalances": s.rebalances,
                "cross_component_events": s.cross_component_events,
                "virtual_secs": s.now.as_secs(),
                "bit_identical": true,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&row).expect("partition row serializes")
        );
    } else {
        println!(
            "partition: {} flows over {} partitions ({} rebalances, {} cross-component) \
             serial-vs-parallel@{workers} bit-identical | completed={} stalled={} \
             faults={} events={} virt={:.3}ms",
            s.flows_issued,
            s.partitions,
            s.rebalances,
            s.cross_component_events,
            s.flows_completed,
            s.flows_stalled,
            s.faults_fired,
            s.events_processed,
            s.now.as_secs() * 1e3,
        );
    }
}
