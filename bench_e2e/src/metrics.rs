//! The metric names the benchmark prints, in one place. `BENCHMARK.json`
//! lists the same names; `README.md` says what each one means on each
//! workload.

use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Simulated or counted: the same seed must give the same bits.
    pub exact: bool,
    /// `--check` tolerance between two runs, as a share of the value
    /// (host metrics only; 0 for metrics that are too short-lived or too
    /// noisy to compare and are printed for diagnosis only).
    pub tolerance: f64,
}

const fn host(name: &'static str, unit: &'static str, tolerance: f64) -> Def {
    Def {
        name,
        unit,
        exact: false,
        tolerance,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: true,
        tolerance: 0.0,
    }
}

/// End-to-end metrics: every workload reports every one.
pub const E2E: &[Def] = &[
    host("setup_s", "s", 0.25),
    host("ops_per_s", "1/s", 0.25),
    host("call_us_p50", "us", 0.25),
    host("peak_rss_mb", "MiB", 0.25),
    exact("sim_gbps", "GB/s"),
    exact("model_err_pct", "%"),
    exact("speedup_max", "x"),
];

/// Per-layer metrics, `<layer>.<metric>`. A workload that does not
/// exercise a layer reports 0 for the metrics taken from its own spans
/// and counters; the metrics taken by calling a layer directly
/// (`layers.rs`) are measured in every traced run.
pub const LAYER: &[Def] = &[
    host("topo.preset_build_us", "us", 0.0),
    host("topo.enumerate_paths_us", "us", 0.0),
    host("core.plan_cold_ns", "ns", 0.0),
    host("core.plan_cached_ns", "ns", 0.0),
    host("core.cache_hit_frac", "fraction", 0.0),
    host("core.class_hit_frac", "fraction", 0.0),
    host("core.plan_miss_2t_per_s", "1/s", 0.0),
    host("ucx.plan_for_ns", "ns", 0.0),
    host("ucx.plan_for_overhead_ns", "ns", 0.0),
    host("ucx.paths_for_ns", "ns", 0.0),
    host("ucx.execute_plan_us", "us", 0.0),
    host("ucx.replay_issue_us", "us", 0.0),
    host("ucx.graph_replay_frac", "fraction", 0.0),
    exact("ucx.graph_captures", "count"),
    exact("ucx.graph_fallbacks", "count"),
    host("ucx.put_issue_us_p99", "us", 0.0),
    host("ucx.put_issue_us_p999", "us", 0.0),
    host("ucx.put_issue_samples", "count", 0.0),
    host("ucx.invalidations", "count", 0.0),
    host("ucx.tune_static_ms", "ms", 0.0),
    host("gpu.stream_enqueue_ns", "ns", 0.0),
    host("gpu.graph_launch_us", "us", 0.0),
    host("gpu.alloc_us_per_mib", "us", 0.0),
    host("gpu.copy_gbps", "GB/s", 0.0),
    host("sim.drain_us_p50", "us", 0.0),
    exact("sim.events_per_put", "count"),
    host("sim.ns_per_event_small", "ns", 0.0),
    host("sim.ns_per_event_25k", "ns", 0.0),
    host("sim.superlinearity", "x", 0.0),
    exact("sim.events", "count"),
    exact("sim.events_scheduled", "count"),
    host("sim.start_flow_ns", "ns", 0.0),
    host("sim.fairshare_ns_64", "ns", 0.0),
    host("sim.partition_ms", "ms", 0.0),
    exact("sim.partitions", "count"),
    host("sim.par_events_per_s", "1/s", 0.0),
    host("mpi.sendrecv_host_us", "us", 0.0),
    host("mpi.allreduce_host_ms", "ms", 0.0),
    host("mpi.alltoall_host_ms", "ms", 0.0),
    host("omb.fig5_wall_s", "s", 0.0),
    host("omb.fig6_wall_s", "s", 0.0),
    host("omb.fig7_wall_s", "s", 0.0),
    host("omb.static_tune_share", "fraction", 0.0),
    exact("omb.p2p_speedup_max", "x"),
    exact("omb.coll_speedup_max", "x"),
    host("obs.hist_observe_ns", "ns", 0.0),
    host("obs.instant_ns", "ns", 0.0),
    host("obs.recorder_on_overhead_pct", "%", 0.0),
    host("bench.trace_overhead_pct", "%", 0.0),
];

pub fn def(name: &str) -> &'static Def {
    E2E.iter()
        .chain(LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Records `name = value`, taken from `n` samples.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(def(name).name, (value, n as u64));
    }

    /// `(value, samples)`; a metric the run did not set reads `(0, 0)`.
    pub fn get(&self, name: &str) -> (f64, u64) {
        self.values.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Counts one attempted operation and, unless `ok`, one failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}
