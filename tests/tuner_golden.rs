//! Golden bit-identity of the exhaustive static tuner.
//!
//! Six fixed `(preset, selection, size)` inputs, each pinned to the
//! winning plan's per-path `(share bytes, chunks)`, the measured
//! bandwidth as `f64::to_bits` and the number of candidates evaluated.
//! The constants were recorded on the commit *before* the tuner began
//! reusing one simulator per worker; how candidates are measured may
//! change, what they measure may not. A legitimate model or search
//! change re-records them.
//!
//! `simulated` — how many of the evaluated candidates the
//! branch-and-bound search had to run — was recorded when the search
//! began pruning; it is pinned so that lost pruning fails a test and not
//! only a benchmark. The test below it holds the pruning to the
//! simulator from public items only: the bound is sound for every grid
//! candidate of the paper's sweep inputs, and no candidate beats the
//! winner the pruned search returns.

use multipath_gpu::prelude::*;
use multipath_gpu::topo::path::enumerate_paths_auto;
use multipath_gpu::topo::units::MIB;
use multipath_gpu::ucx::{manual_plan, measure_plan, share_grid, tune_exhaustive};
use std::sync::Arc;

struct Golden {
    preset: fn() -> Topology,
    sel: PathSelection,
    n: usize,
    /// `(share_bytes, chunks)` per path of the winning plan.
    paths: &'static [(usize, u32)],
    bandwidth_bits: u64,
    evaluated: usize,
    simulated: usize,
}

const GOLDEN: &[Golden] = &[
    Golden {
        preset: presets::beluga,
        sel: PathSelection::THREE_GPUS_WITH_HOST,
        n: 2 * MIB,
        paths: &[(1179648, 1), (458752, 1), (409600, 1), (49152, 1)],
        bandwidth_bits: 0x422c_0040_d457_06c8,
        evaluated: 389,
        simulated: 258,
    },
    Golden {
        preset: presets::beluga,
        sel: PathSelection::THREE_GPUS,
        n: 16 * MIB,
        paths: &[(7340032, 1), (4718592, 3), (4718592, 3)],
        bandwidth_bits: 0x4237_a2a1_b62b_980f,
        evaluated: 87,
        simulated: 44,
    },
    Golden {
        preset: presets::beluga,
        sel: PathSelection::TWO_GPUS,
        n: 128 * MIB,
        paths: &[(72351744, 1), (61865984, 12)],
        bandwidth_bits: 0x4234_9762_4fac_9fc4,
        evaluated: 30,
        simulated: 10,
    },
    Golden {
        preset: presets::narval,
        sel: PathSelection::THREE_GPUS_WITH_HOST,
        n: 16 * MIB,
        paths: &[(7733248, 1), (4325376, 2), (4194304, 2), (524288, 2)],
        bandwidth_bits: 0x4245_7599_96b8_42f1,
        evaluated: 269,
        simulated: 97,
    },
    Golden {
        preset: presets::narval,
        sel: PathSelection::THREE_GPUS,
        n: 128 * MIB,
        paths: &[(52428800, 1), (40894464, 7), (40894464, 7)],
        bandwidth_bits: 0x424c_1882_db35_d2ce,
        evaluated: 113,
        simulated: 43,
    },
    Golden {
        preset: presets::narval,
        sel: PathSelection::TWO_GPUS,
        n: 2 * MIB,
        paths: &[(1540096, 1), (557056, 1)],
        bandwidth_bits: 0x4232_b3fc_e6c0_0464,
        evaluated: 22,
        simulated: 20,
    },
];

#[test]
fn tune_exhaustive_matches_the_recorded_winners() {
    for (i, g) in GOLDEN.iter().enumerate() {
        let topo = Arc::new((g.preset)());
        let gpus = topo.gpus();
        let cfg = PlannerConfig::default();
        let r = tune_exhaustive(&topo, gpus[0], gpus[1], g.n, g.sel, &cfg, 8).unwrap();
        let paths: Vec<(usize, u32)> = r
            .plan
            .paths
            .iter()
            .map(|p| (p.share_bytes, p.chunks))
            .collect();
        println!(
            "input {i}: paths: &{paths:?}, bandwidth_bits: {:#x}, evaluated: {}, simulated: {}",
            r.bandwidth.to_bits(),
            r.evaluated,
            r.simulated
        );
        assert_eq!(paths, g.paths, "input {i}: winning plan moved");
        assert_eq!(
            r.bandwidth.to_bits(),
            g.bandwidth_bits,
            "input {i}: bandwidth moved ({} B/s)",
            r.bandwidth
        );
        assert_eq!(r.evaluated, g.evaluated, "input {i}: search length moved");
        assert_eq!(r.simulated, g.simulated, "input {i}: pruning moved");
    }
}

/// On every grid-8 candidate of the 18 inputs the paper sweep tunes (both
/// presets x `paper_grid` x 2 / 16 / 128 MiB), measured on a fresh
/// simulator: **soundness** of the bound the search prunes with — no
/// split measures more than `n / max(share / narrowest link)` — and
/// **optimality** of what the pruned search returns — no candidate,
/// simulated or skipped, beats it.
#[test]
fn the_bound_is_sound_and_the_winner_optimal_on_the_sweep_inputs() {
    let cfg = PlannerConfig::default();
    for preset in [presets::beluga, presets::narval] {
        let topo = Arc::new(preset());
        let gpus = topo.gpus();
        for (label, sel) in PathSelection::paper_grid() {
            let paths = enumerate_paths_auto(&topo, gpus[0], gpus[1], sel).unwrap();
            for n in [2 * MIB, 16 * MIB, 128 * MIB] {
                let tuned = tune_exhaustive(&topo, gpus[0], gpus[1], n, sel, &cfg, 8).unwrap();
                for shares in share_grid(paths.len(), 8) {
                    let plan = manual_plan(&topo, &paths, n, &shares, &cfg).unwrap();
                    let slowest = plan
                        .paths
                        .iter()
                        .map(|p| p.share_bytes as f64 / p.params.bottleneck_bandwidth())
                        .fold(0.0, f64::max);
                    let bound = n as f64 / slowest;
                    let measured = measure_plan(&topo, &plan, &paths, gpus[0], gpus[1]);
                    let at = format!("{} {label} n={n} shares={shares:?}", topo.name);
                    assert!(measured <= bound, "{at}: {measured} above bound {bound}");
                    assert!(
                        measured <= tuned.bandwidth,
                        "{at}: {measured} beats the tuned {}",
                        tuned.bandwidth
                    );
                }
            }
        }
    }
}
