//! `--check`: the benchmark testing itself. Every workload runs twice
//! with one seed and once with another, untraced and traced. Simulated
//! metrics and counts must repeat bit for bit under one seed; host
//! metrics must agree within their tolerance; and the counts that must
//! not depend on the seed's ordering must match across seeds.

use crate::metrics::{Def, Report, E2E, LAYER};
use crate::{run_workload, RunCfg, WORKLOADS};

/// `setup_s` may also differ by this many seconds: it is tens of
/// milliseconds on most workloads, where 25 % is a scheduler tick.
const SETUP_SLACK_S: f64 = 0.05;

/// Counts that depend on the inputs' sizes but not on their order or on
/// the jitter the seed picks.
const SEED_FREE: [&str; 5] = [
    "sim.events",
    "sim.events_scheduled",
    "sim.partitions",
    "ucx.graph_captures",
    "ucx.graph_fallbacks",
];

fn compare(d: &Def, a: &Report, b: &Report, problems: &mut Vec<String>) {
    let (x, y) = (a.get(d.name).0, b.get(d.name).0);
    if x == 0.0 && y == 0.0 {
        // A layer this workload does not exercise.
        return;
    }
    let spread = if x == y {
        0.0
    } else {
        (x - y).abs() / x.abs().max(y.abs())
    };
    let verdict = if d.exact {
        if x.to_bits() == y.to_bits() {
            "identical"
        } else {
            problems.push(format!(
                "{} {}: {x} vs {y} differ in bits",
                a.workload, d.name
            ));
            "DIFFERS"
        }
    } else if d.tolerance == 0.0 || d.name == "peak_rss_mb" {
        // Diagnostic metrics, and a peak that only grows in one process.
        "-"
    } else if spread <= d.tolerance || (d.name == "setup_s" && (x - y).abs() <= SETUP_SLACK_S) {
        "within"
    } else {
        problems.push(format!(
            "{} {}: {x} vs {y} is {:.1} % apart (tolerance {:.0} %)",
            a.workload,
            d.name,
            spread * 100.0,
            d.tolerance * 100.0
        ));
        "APART"
    };
    println!(
        "{:<12} {:<28} {x:>16.6} {y:>16.6} {:>8.2} % {verdict}",
        a.workload,
        d.name,
        spread * 100.0
    );
}

pub fn run(cfg: &RunCfg) -> i32 {
    let mut problems = Vec::new();
    println!(
        "{:<12} {:<28} {:>16} {:>16} {:>10} verdict",
        "workload", "metric", "run 1", "run 2", "spread"
    );
    for name in WORKLOADS {
        for traced in [false, true] {
            let at = |seed| RunCfg {
                seed,
                seconds: cfg.seconds,
                traced,
            };
            let (a, _) = run_workload(name, &at(cfg.seed));
            let (b, _) = run_workload(name, &at(cfg.seed));
            let (other, _) = run_workload(name, &at(cfg.seed ^ 0x5eed));
            for rep in [&a, &b, &other] {
                if rep.failed > 0 {
                    problems.push(format!(
                        "{name}: {} of {} operations failed",
                        rep.failed, rep.attempted
                    ));
                }
            }
            for d in if traced { LAYER } else { E2E } {
                compare(d, &a, &b, &mut problems);
                if SEED_FREE.contains(&d.name) && a.get(d.name).0 != other.get(d.name).0 {
                    problems.push(format!(
                        "{name} {}: {} with seed {} but {} with another",
                        d.name,
                        a.get(d.name).0,
                        cfg.seed,
                        other.get(d.name).0
                    ));
                }
            }
        }
    }
    for p in &problems {
        eprintln!("CHECK FAILED {p}");
    }
    println!(
        "check: {}",
        if problems.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    i32::from(!problems.is_empty())
}
