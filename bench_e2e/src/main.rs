//! `bench_e2e`: the end-to-end and per-layer benchmark every later
//! performance claim about this repository is measured with. See
//! `README.md` beside this package for what each workload and metric
//! means; `BENCHMARK.json` at the repository root lists the same names.
//!
//! ```text
//! bench_e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!           [--trace-out <file>]     chrome-trace JSON of the traced run
//! bench_e2e --check [--seed ..] [--seconds ..]   determinism self-test
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end set with `--trace 0`, the per-layer set
//! with `--trace 1`). The exit code is non-zero if any operation failed.

mod check;
mod fabric;
mod layers;
mod metrics;
mod plan;
mod put;
mod simref;
mod sweep;
mod trace;
mod util;

use metrics::{Def, Report, E2E, LAYER};
use std::fmt::Write as _;
use trace::Tracer;

/// What a workload needs to know about this run.
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Traced run: a shorter untraced loop, the same loop with spans,
    /// and the direct per-layer calls.
    pub traced: bool,
}

pub const WORKLOADS: [&str; 7] = [
    "paper_sweep",
    "put_interp",
    "put_replay",
    "put_payload",
    "plan_hit",
    "plan_miss",
    "fabric",
];

pub fn run_workload(name: &str, cfg: &RunCfg) -> (Report, Option<Tracer>) {
    let (mut rep, tr) = match name {
        "paper_sweep" => sweep::run(cfg),
        "put_interp" => put::run(put::Mode::Interp, cfg),
        "put_replay" => put::run(put::Mode::Replay, cfg),
        "put_payload" => put::run(put::Mode::Payload, cfg),
        "plan_hit" => plan::run(plan::Mode::Hit, cfg),
        "plan_miss" => plan::run(plan::Mode::Miss, cfg),
        "fabric" => fabric::run(cfg),
        other => usage(&format!("unknown workload {other}")),
    };
    rep.set("peak_rss_mb", util::peak_rss_mib(), 1);
    (rep, tr)
}

fn usage(problem: &str) -> ! {
    eprintln!("bench_e2e: {problem}");
    eprintln!(
        "usage: bench_e2e [--workload <{}>] [--seed <u64>] [--seconds <s>] \
         [--trace <0|1>] [--trace-out <file>] [--check]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    trace_out: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        cfg: RunCfg {
            seed: 1,
            seconds: 10.0,
            traced: false,
        },
        trace_out: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value} for {flag}")) };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.cfg.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.cfg.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 60.0) {
                    bad();
                }
            }
            "--trace" => {
                args.cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            usage(&format!("unknown workload {w}"));
        }
    }
    args
}

/// The commit of the checkout, if it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.chars().take(12).collect()
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One line per metric, then the machine-readable object.
fn print_report(rep: &Report, defs: &[Def], cfg: &RunCfg) {
    println!(
        "# workload={} seed={} seconds={} traced={} attempted={} failed={}",
        rep.workload, cfg.seed, cfg.seconds, cfg.traced, rep.attempted, rep.failed
    );
    let mut json = String::new();
    for d in defs {
        let (value, n) = rep.get(d.name);
        println!("{} {} {} {value} n={n}", rep.workload, d.name, d.unit);
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    for f in &rep.failures {
        eprintln!("FAILED {}: {f}", rep.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed
    );
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# bench_e2e commit={} nproc={nproc} rustc=\"{}\"",
        commit(),
        rustc_version()
    );
    if args.check {
        std::process::exit(check::run(&args.cfg));
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut failed = 0;
    for name in names {
        let (rep, tr) = run_workload(name, &args.cfg);
        failed += rep.failed;
        if let Some(tr) = tr {
            for (span, (n, total, own)) in tr.summary() {
                println!("# span {span} n={n} total_s={total:.6} self_s={own:.6}");
            }
            // With several workloads the file holds the last one's spans.
            if let Some(path) = &args.trace_out {
                std::fs::write(path, tr.chrome_json())
                    .unwrap_or_else(|e| usage(&format!("writing {path}: {e}")));
            }
        }
        print_report(&rep, if args.cfg.traced { LAYER } else { E2E }, &args.cfg);
    }
    std::process::exit(i32::from(failed > 0));
}
