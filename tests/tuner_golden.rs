//! Golden bit-identity of the exhaustive static tuner.
//!
//! Six fixed `(preset, selection, size)` inputs, each pinned to the
//! winning plan's per-path `(share bytes, chunks)`, the measured
//! bandwidth as `f64::to_bits` and the number of candidates evaluated.
//! The constants were recorded on the commit *before* the tuner began
//! reusing one simulator per worker; how candidates are measured may
//! change, what they measure may not. A legitimate model or search
//! change re-records them.

use multipath_gpu::prelude::*;
use multipath_gpu::topo::units::MIB;
use multipath_gpu::ucx::tune_exhaustive;
use std::sync::Arc;

struct Golden {
    preset: fn() -> Topology,
    sel: PathSelection,
    n: usize,
    /// `(share_bytes, chunks)` per path of the winning plan.
    paths: &'static [(usize, u32)],
    bandwidth_bits: u64,
    evaluated: usize,
}

const GOLDEN: &[Golden] = &[
    Golden {
        preset: presets::beluga,
        sel: PathSelection::THREE_GPUS_WITH_HOST,
        n: 2 * MIB,
        paths: &[(1179648, 1), (458752, 1), (409600, 1), (49152, 1)],
        bandwidth_bits: 0x422c_0040_d457_06c8,
        evaluated: 389,
    },
    Golden {
        preset: presets::beluga,
        sel: PathSelection::THREE_GPUS,
        n: 16 * MIB,
        paths: &[(7340032, 1), (4718592, 3), (4718592, 3)],
        bandwidth_bits: 0x4237_a2a1_b62b_980f,
        evaluated: 87,
    },
    Golden {
        preset: presets::beluga,
        sel: PathSelection::TWO_GPUS,
        n: 128 * MIB,
        paths: &[(72351744, 1), (61865984, 12)],
        bandwidth_bits: 0x4234_9762_4fac_9fc4,
        evaluated: 30,
    },
    Golden {
        preset: presets::narval,
        sel: PathSelection::THREE_GPUS_WITH_HOST,
        n: 16 * MIB,
        paths: &[(7733248, 1), (4325376, 2), (4194304, 2), (524288, 2)],
        bandwidth_bits: 0x4245_7599_96b8_42f1,
        evaluated: 269,
    },
    Golden {
        preset: presets::narval,
        sel: PathSelection::THREE_GPUS,
        n: 128 * MIB,
        paths: &[(52428800, 1), (40894464, 7), (40894464, 7)],
        bandwidth_bits: 0x424c_1882_db35_d2ce,
        evaluated: 113,
    },
    Golden {
        preset: presets::narval,
        sel: PathSelection::TWO_GPUS,
        n: 2 * MIB,
        paths: &[(1540096, 1), (557056, 1)],
        bandwidth_bits: 0x4232_b3fc_e6c0_0464,
        evaluated: 22,
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
            "input {i}: paths: &{paths:?}, bandwidth_bits: {:#x}, evaluated: {}",
            r.bandwidth.to_bits(),
            r.evaluated
        );
        assert_eq!(paths, g.paths, "input {i}: winning plan moved");
        assert_eq!(
            r.bandwidth.to_bits(),
            g.bandwidth_bits,
            "input {i}: bandwidth moved ({} B/s)",
            r.bandwidth
        );
        assert_eq!(r.evaluated, g.evaluated, "input {i}: search length moved");
    }
}
