//! # mpx-bench — experiment harness
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig4_theta` | Fig. 4: θ (message-fraction) distribution across paths vs message size |
//! | `fig5_bw` | Fig. 5: unidirectional BW panels (Beluga/Narval × path sets × window 1/16) |
//! | `fig6_bibw` | Fig. 6: bidirectional BW panels |
//! | `fig7_collectives` | Fig. 7: Alltoall/Allreduce latency speedups (+ model prediction) |
//! | `fig_replay` | extension: interpreted vs compiled-graph replay BW (window 16) |
//! | `fig8_internode` | extension: inter-node multi-rail bandwidth |
//! | `fig9_contention` | extension: loaded patterns under blind vs joint planning |
//! | `table_error` | headline numbers: mean prediction error, max speedups, Algorithm-1 overhead |
//! | `ablations` | chunk law, pipelining, contention, collectives, radix, windows, sensitivity, DGX |
//!
//! Every binary prints aligned text tables and writes machine-readable
//! JSON into `results/` next to the workspace root. Host-time
//! performance is judged elsewhere, by `bench_e2e/` (see `BENCHMARK.json`),
//! the one ruler; `chaos_soak` here soaks the recovery paths.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mpx_omb::Series;
use std::fs;
use std::path::PathBuf;

/// Where experiment JSON lands (workspace-root `results/`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MPX_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes `value` as JSON under `results/<name>.json`.
pub fn emit_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    fs::write(&path, json).expect("write results");
    println!("[wrote {}]", path.display());
}

/// Pretty-prints one figure panel: sizes as rows, series as columns.
/// `unit` converts raw values for display (e.g. `1e9` for GB/s).
pub fn print_panel(title: &str, panel: &[Series], unit: f64, unit_name: &str) {
    println!("\n== {title} ({unit_name}) ==");
    print!("{:>10}", "size");
    for s in panel {
        print!("{:>14}", s.label);
    }
    println!();
    let sizes: Vec<usize> = panel
        .first()
        .map(|s| s.points.iter().map(|p| p.bytes).collect())
        .unwrap_or_default();
    for n in sizes {
        print!("{:>10}", mpx_topo::units::format_bytes(n));
        for s in panel {
            match s.at(n) {
                Some(v) => print!("{:>14.2}", v / unit),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
}

/// Quick/full switch: figure binaries run a reduced sweep unless
/// `--full` is passed (or `MPX_FULL=1`).
pub fn full_run() -> bool {
    std::env::args().any(|a| a == "--full") || std::env::var("MPX_FULL").is_ok_and(|v| v == "1")
}

/// The paper's message sweep (2 MB – 512 MB), truncated to 2–64 MB for
/// quick runs.
pub fn paper_sizes() -> Vec<usize> {
    use mpx_topo::units::MIB;
    let max = if full_run() { 512 * MIB } else { 64 * MIB };
    mpx_omb::size_ladder(2 * MIB, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_start_at_2mib() {
        assert_eq!(paper_sizes()[0], 2 << 20);
        assert!(paper_sizes().len() >= 6);
    }

    #[test]
    fn results_dir_exists_after_call() {
        assert!(results_dir().is_dir());
    }
}
