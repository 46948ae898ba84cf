//! Static (offline, exhaustive) path-distribution tuning — the baseline
//! the paper compares its model against (Section 5: "Static Path
//! Distribution ... extracted by exhaustive search, similar to \[35\]").
//!
//! The tuner sweeps share splits over a simplex grid, executes each
//! candidate on an idle simulation of the same topology, and keeps the
//! fastest — exhaustive in result, branch-and-bound in cost: a candidate
//! the paper's Theorem 1 already rules out is not simulated. Chunk counts
//! per candidate come from the model's chunk formula (validated
//! near-optimal in `mpx-model::pipeline` tests), which keeps the grid
//! one-dimensional per path. The best measured configuration doubles as
//! the **observed optimum** against which model-prediction error is
//! reported (Figures 5/6's error metric).

use crate::pipeline::execute_plan;
use mpx_gpu::{Buffer, GpuRuntime};
use mpx_model::{
    chunk_count, quantize_shares, PipelineMode, PlannedPath, PlannerConfig, TransferPlan,
};
use mpx_sim::Engine;
use mpx_topo::params::extract_all;
use mpx_topo::path::{enumerate_paths_auto, PathSelection, TransferPath};
use mpx_topo::units::{Bandwidth, Secs};
use mpx_topo::{DeviceId, Topology, TopologyError};
use std::collections::HashMap;
use std::sync::Arc;

/// Builds a [`TransferPlan`] from explicit share fractions (summing to 1)
/// using the model's chunk-count formula. Predicted fields are filled
/// from the un-pipelined bound (they are informational for manual plans).
pub fn manual_plan(
    topo: &Topology,
    paths: &[TransferPath],
    n: usize,
    shares: &[f64],
    cfg: &PlannerConfig,
) -> Result<TransferPlan, TopologyError> {
    if paths.len() != shares.len() {
        return Err(TopologyError::ShareCountMismatch {
            paths: paths.len(),
            shares: shares.len(),
        });
    }
    let sum: f64 = shares.iter().sum();
    if (sum - 1.0).abs() >= 1e-6 {
        return Err(TopologyError::SharesNotNormalized(sum));
    }
    let params = extract_all(topo, paths)?;
    let nf = n as f64;
    let mut bytes = vec![0usize; shares.len()];
    let assigned = quantize_shares(&mut bytes, shares.iter().copied(), n, cfg.alignment);
    bytes[0] += n - assigned;

    let mut planned = Vec::with_capacity(paths.len());
    let mut worst = 0.0f64;
    for (i, ((path, p), share)) in paths.iter().zip(&params).zip(&bytes).enumerate() {
        let theta = *share as f64 / nf;
        let chunks = if *share == 0 || !p.is_staged() || cfg.mode == PipelineMode::Unpipelined {
            1
        } else {
            let by_overhead = chunk_count(p, theta, nf, cfg.max_chunks);
            let by_size = (*share / cfg.min_chunk_bytes.max(1)).max(1) as u32;
            by_overhead.min(by_size)
        };
        let predicted_time = if *share == 0 {
            0.0
        } else {
            p.time_unpipelined(*share as f64)
        };
        worst = worst.max(predicted_time);
        planned.push(PlannedPath {
            index: i,
            kind: path.kind,
            params: *p,
            theta,
            share_bytes: *share,
            chunks,
            predicted_time,
        });
    }
    Ok(TransferPlan {
        n,
        paths: planned,
        predicted_time: worst,
        predicted_bandwidth: nf / worst,
    })
}

/// All share vectors on the `parts`-dimensional simplex with granularity
/// `1/grid`, direct path first. `grid = 8` gives 165 candidates for four
/// paths.
pub fn share_grid(parts: usize, grid: u32) -> Vec<Vec<f64>> {
    assert!(parts >= 1 && grid >= 1);
    let mut out = Vec::new();
    let mut current = vec![0u32; parts];
    fn rec(out: &mut Vec<Vec<f64>>, current: &mut Vec<u32>, idx: usize, left: u32, grid: u32) {
        if idx + 1 == current.len() {
            current[idx] = left;
            out.push(current.iter().map(|&c| c as f64 / grid as f64).collect());
            return;
        }
        for c in 0..=left {
            current[idx] = c;
            rec(out, current, idx + 1, left - c, grid);
        }
    }
    rec(&mut out, &mut current, 0, grid, grid);
    out
}

/// Result of an exhaustive tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The fastest configuration found.
    pub plan: Arc<TransferPlan>,
    /// Its measured single-shot bandwidth (bytes/s).
    pub bandwidth: Bandwidth,
    /// Candidates considered: grid points plus refinement moves.
    pub evaluated: usize,
    /// How many of them were simulated; the bound or the memo of measured
    /// plans answered for the rest.
    pub simulated: usize,
}

/// Measures one candidate plan: one warmup transfer (absorbing one-time
/// IPC-handle costs, as OMB's warmup iterations do) followed by one timed
/// `src → dst` transfer on a fresh simulation of `topo`. Returns
/// bandwidth in bytes/s.
pub fn measure_plan(
    topo: &Arc<Topology>,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src_dev: DeviceId,
    dst_dev: DeviceId,
) -> Bandwidth {
    let rt = GpuRuntime::new(Engine::new(topo.clone()));
    let src = rt.alloc(src_dev, plan.n);
    let dst = rt.alloc(dst_dev, plan.n);
    execute_plan(&rt, plan, paths, &src, &dst, 0);
    rt.engine().run_until_idle();
    let t0 = rt.engine().now();
    let h = execute_plan(&rt, plan, paths, &src, &dst, 1);
    rt.engine().run_until_idle();
    debug_assert!(h.is_complete());
    plan.n as f64 / rt.engine().now().secs_since(t0)
}

/// One simulator for many candidates of the same `(src, dst, n)`: the first
/// runs twice (its first run is [`measure_plan`]'s warm-up, opening the IPC
/// handle), every later one is a single transfer on the idle engine. Time
/// is integer nanoseconds and durations are rounded up before they are
/// added, so a transfer started at `t0` on an idle fabric is a translation
/// of the one started at 0: bandwidths are bit-identical to `measure_plan`'s.
struct WarmSim {
    rt: GpuRuntime,
    src: Buffer,
    dst: Buffer,
    transfers: u64,
}

impl WarmSim {
    fn new(topo: &Arc<Topology>, src: DeviceId, dst: DeviceId, n: usize) -> WarmSim {
        let rt = GpuRuntime::new(Engine::new(topo.clone()));
        let (src, dst) = (rt.alloc(src, n), rt.alloc(dst, n));
        WarmSim {
            rt,
            src,
            dst,
            transfers: 0,
        }
    }

    fn measure(&mut self, plan: &TransferPlan, paths: &[TransferPath]) -> Bandwidth {
        if self.transfers == 0 {
            self.run(plan, paths);
        }
        plan.n as f64 / self.run(plan, paths)
    }

    /// Runs one transfer to completion and returns its simulated duration.
    fn run(&mut self, plan: &TransferPlan, paths: &[TransferPath]) -> Secs {
        let eng = self.rt.engine();
        let t0 = eng.now();
        let h = execute_plan(&self.rt, plan, paths, &self.src, &self.dst, self.transfers);
        self.transfers += 1;
        eng.run_until_idle();
        // A stuck candidate would leak its flows into the next measurement.
        assert!(
            h.is_complete() && eng.active_flows() == 0,
            "did not drain: {plan:?}"
        );
        eng.now().secs_since(t0)
    }
}

/// Relative margin of the refinement's acceptance bar, and of the bound:
/// wider than any rounding between the bound's floats and the simulator's.
const SLACK: f64 = 1.0 + 1e-9;

/// Theorem 1 as an upper bound on what `plan` can measure: no split beats
/// its most loaded path pushing its share through its narrowest link. Why
/// this simulator cannot beat it, and what would: DESIGN §4 "Static tuner".
fn bandwidth_bound(plan: &TransferPlan) -> Bandwidth {
    let slowest = plan
        .paths
        .iter()
        .map(|p| p.share_bytes as f64 / p.params.bottleneck_bandwidth())
        .fold(0.0, f64::max);
    plan.n as f64 / slowest
}

/// Exhaustive offline tuning for an `n`-byte transfer `src → dst` over
/// the paths selected by `sel`.
///
/// Two stages, as practical offline tuners do: a coarse sweep of the
/// whole share simplex at granularity `1/grid`, then local refinement —
/// repeatedly moving small fractions (down to 1/128) between path pairs
/// while it helps. The refined best stands in for the paper's "observed
/// optimal performance". Only candidates that [`bandwidth_bound`] lets
/// matter and whose realised plan is new are simulated; the result is that
/// of simulating every one in order.
pub fn tune_exhaustive(
    topo: &Arc<Topology>,
    src: DeviceId,
    dst: DeviceId,
    n: usize,
    sel: PathSelection,
    cfg: &PlannerConfig,
    grid: u32,
) -> Result<TuneResult, TopologyError> {
    let paths = enumerate_paths_auto(topo, src, dst, sel)?;
    #[cfg(test)]
    let pruned = !tests::UNPRUNED.get();
    #[cfg(not(test))]
    let pruned = true;
    let mut simulated = 0usize;
    let mut sim = WarmSim::new(topo, src, dst, n);
    // Keyed by the realised plan: distinct share vectors quantise to the
    // same one, and refinement revisits points after every restart.
    let mut memo: HashMap<Vec<(usize, u32)>, Bandwidth> = HashMap::new();
    // `plan`'s bandwidth, or `None` if the bound keeps it below `bar`.
    let mut measure = |plan: &TransferPlan, bar: Bandwidth| {
        let key: Vec<_> = plan
            .paths
            .iter()
            .map(|p| (p.share_bytes, p.chunks))
            .collect();
        if pruned {
            if let Some(&bw) = memo.get(&key) {
                return Some(bw);
            }
            if bandwidth_bound(plan) * SLACK < bar {
                return None;
            }
        }
        simulated += 1;
        let bw = sim.measure(plan, &paths);
        memo.insert(key, bw);
        Some(bw)
    };

    // Stage 1: coarse grid, best bound first (ties in grid order), until no
    // remaining bound reaches the best measured. The lowest grid index among
    // the fastest wins: the first strict maximum of a sweep in grid order.
    let mut candidates = Vec::new();
    for shares in share_grid(paths.len(), grid) {
        let plan = manual_plan(topo, &paths, n, &shares, cfg)?;
        candidates.push((shares, plan));
    }
    let mut evaluated = candidates.len();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    if pruned {
        let bounds: Vec<_> = candidates.iter().map(|c| bandwidth_bound(&c.1)).collect();
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]));
    }
    let (mut winner, mut best_bw) = (0, 0.0);
    for i in order {
        let Some(bw) = measure(&candidates[i].1, best_bw) else {
            break;
        };
        if bw > best_bw || (bw == best_bw && i < winner) {
            (winner, best_bw) = (i, bw);
        }
    }
    let (mut best_shares, mut best_plan) = candidates.swap_remove(winner);

    // Stage 2: local refinement — move `delta` between every ordered
    // path pair; restart from the finest step after any improvement
    // (64 restarts are a safety bound, never reached in practice).
    let deltas = [
        1.0 / grid as f64 / 2.0,
        1.0 / grid as f64 / 4.0,
        1.0 / 64.0,
        1.0 / 128.0,
    ];
    'refine: for _ in 0..64 {
        for &delta in &deltas {
            for i in 0..paths.len() {
                for j in 0..paths.len() {
                    if i == j || best_shares[i] < delta {
                        continue;
                    }
                    let mut candidate = best_shares.clone();
                    candidate[i] -= delta;
                    candidate[j] += delta;
                    let plan = manual_plan(topo, &paths, n, &candidate, cfg)?;
                    evaluated += 1;
                    let bar = best_bw * SLACK;
                    if let Some(bw) = measure(&plan, bar).filter(|&bw| bw > bar) {
                        (best_bw, best_plan, best_shares) = (bw, plan, candidate);
                        continue 'refine;
                    }
                }
            }
        }
        break;
    }

    Ok(TuneResult {
        plan: Arc::new(best_plan),
        bandwidth: best_bw,
        evaluated,
        simulated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::path::enumerate_paths;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;
    use std::cell::Cell;

    thread_local! {
        /// Test oracle: search without bound or memo, every candidate
        /// simulated in order (as `State::force_general` is to the engine).
        pub(super) static UNPRUNED: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn share_grid_covers_simplex() {
        let g = share_grid(3, 4);
        // C(4+2, 2) = 15 compositions.
        assert_eq!(g.len(), 15);
        for shares in &g {
            let sum: f64 = shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert!(g.contains(&vec![1.0, 0.0, 0.0]));
        assert!(g.contains(&vec![0.0, 0.0, 1.0]));
        assert!(g.contains(&vec![0.5, 0.25, 0.25]));
    }

    #[test]
    fn share_grid_single_path() {
        assert_eq!(share_grid(1, 8), vec![vec![1.0]]);
    }

    #[test]
    fn manual_plan_assigns_all_bytes() {
        let topo = presets::beluga();
        let gpus = topo.gpus();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::THREE_GPUS).unwrap();
        let plan = manual_plan(
            &topo,
            &paths,
            MIB + 5,
            &[0.5, 0.25, 0.25],
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(
            plan.paths.iter().map(|p| p.share_bytes).sum::<usize>(),
            MIB + 5
        );
    }

    #[test]
    fn manual_plan_rejects_bad_shares() {
        let topo = presets::beluga();
        let gpus = topo.gpus();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::TWO_GPUS).unwrap();
        let err = manual_plan(&topo, &paths, MIB, &[0.9, 0.3], &PlannerConfig::default())
            .expect_err("unnormalized shares must be rejected");
        assert!(err.to_string().contains("sum to 1"), "got: {err}");
        let err = manual_plan(&topo, &paths, MIB, &[1.0], &PlannerConfig::default())
            .expect_err("share count mismatch must be rejected");
        assert_eq!(
            err,
            TopologyError::ShareCountMismatch {
                paths: paths.len(),
                shares: 1
            }
        );
    }

    /// The warm simulator against its fresh-simulator oracle: every
    /// grid-8 candidate of the paper's sweeps, measured in grid order on
    /// one `WarmSim`, must read `measure_plan`'s bandwidth bit for bit.
    #[test]
    fn warm_simulator_matches_fresh_simulations_bit_for_bit() {
        let cfg = PlannerConfig::default();
        for topo in [presets::beluga(), presets::narval()] {
            let topo = Arc::new(topo);
            let gpus = topo.gpus();
            for n in [2 * MIB, 16 * MIB, 128 * MIB] {
                for (label, sel) in PathSelection::paper_grid() {
                    let paths = enumerate_paths_auto(&topo, gpus[0], gpus[1], sel).unwrap();
                    let mut sim = WarmSim::new(&topo, gpus[0], gpus[1], n);
                    for shares in share_grid(paths.len(), 8) {
                        let plan = manual_plan(&topo, &paths, n, &shares, &cfg).unwrap();
                        let warm = sim.measure(&plan, &paths);
                        let fresh = measure_plan(&topo, &plan, &paths, gpus[0], gpus[1]);
                        assert_eq!(
                            warm.to_bits(),
                            fresh.to_bits(),
                            "{} {label} n={n} shares={shares:?}: warm {warm} vs fresh {fresh}",
                            topo.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "did not drain")]
    fn warm_simulator_refuses_to_reuse_an_engine_with_live_flows() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::TWO_GPUS).unwrap();
        let plan = manual_plan(&topo, &paths, MIB, &[0.5, 0.5], &PlannerConfig::default()).unwrap();
        let mut sim = WarmSim::new(&topo, gpus[0], gpus[1], MIB);
        // The direct link is dead: the direct share stalls forever, and a
        // release build must notice too.
        let direct = paths[0].legs[0].route[0];
        sim.rt.engine().set_link_down(direct);
        sim.measure(&plan, &paths);
    }

    /// The pruned search against its oracle — the same function with the
    /// bound and the memo switched off, which simulates every candidate in
    /// order: same winner, same bits, same `evaluated`, and never more
    /// simulations.
    #[test]
    fn pruned_search_matches_the_unpruned_oracle_bit_for_bit() {
        let cfg = PlannerConfig::default();
        let mut selections = PathSelection::paper_grid();
        selections.push(("direct", PathSelection::DIRECT_ONLY));
        let realised = |r: &TuneResult| -> Vec<(usize, u32)> {
            let paths = r.plan.paths.iter();
            paths.map(|p| (p.share_bytes, p.chunks)).collect()
        };
        let (mut simulated, mut evaluated) = (0, 0);
        for topo in [presets::beluga(), presets::narval()] {
            let topo = Arc::new(topo);
            let gpus = topo.gpus();
            for (src, dst) in [(gpus[0], gpus[1]), (gpus[3], gpus[2]), (gpus[0], gpus[2])] {
                for &(label, sel) in &selections {
                    for n in [512 * 1024, 2 * MIB, 5 * MIB + 12_345, 16 * MIB, 128 * MIB] {
                        for grid in [3, 8] {
                            let tune = |unpruned: bool| {
                                UNPRUNED.set(unpruned);
                                let r = tune_exhaustive(&topo, src, dst, n, sel, &cfg, grid);
                                UNPRUNED.set(false);
                                r.unwrap()
                            };
                            let (fast, oracle) = (tune(false), tune(true));
                            let at =
                                format!("{} {src}->{dst} {label} n={n} grid={grid}", topo.name);
                            assert_eq!(realised(&fast), realised(&oracle), "{at}");
                            assert_eq!(
                                fast.bandwidth.to_bits(),
                                oracle.bandwidth.to_bits(),
                                "{at}"
                            );
                            assert_eq!(fast.evaluated, oracle.evaluated, "{at}");
                            assert_eq!(oracle.simulated, oracle.evaluated, "{at}");
                            assert!(fast.simulated <= fast.evaluated, "{at}");
                            simulated += fast.simulated;
                            evaluated += fast.evaluated;
                        }
                    }
                }
            }
        }
        // Losing the pruning must fail here, not only in a benchmark (the
        // small sizes are latency-bound and prune little: 61 % overall).
        assert!(
            4 * simulated < 3 * evaluated,
            "simulated {simulated} of {evaluated} candidates"
        );
    }

    #[test]
    fn exhaustive_tuning_beats_direct_only() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let n = 64 * MIB;
        let cfg = PlannerConfig::default();
        let result = tune_exhaustive(
            &topo,
            gpus[0],
            gpus[1],
            n,
            PathSelection::THREE_GPUS,
            &cfg,
            6,
        )
        .unwrap();
        // Candidates considered, simulated or not: the coarse stage alone
        // is C(6+2,2) = 28, refinement adds to it.
        assert!(result.evaluated >= 28);
        // Direct-only candidate bandwidth:
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::THREE_GPUS).unwrap();
        let direct = manual_plan(&topo, &paths, n, &[1.0, 0.0, 0.0], &cfg).unwrap();
        let direct_bw = measure_plan(&topo, &direct, &paths, gpus[0], gpus[1]);
        assert!(
            result.bandwidth > 2.0 * direct_bw,
            "tuned {} vs direct {}",
            result.bandwidth,
            direct_bw
        );
        // The tuned best spreads load across all three paths.
        assert_eq!(result.plan.active_path_count(), 3);
    }

    #[test]
    fn model_plan_close_to_exhaustive_optimum() {
        // The paper's headline: the model picks a configuration within a
        // few percent of the exhaustively-found optimum for large n.
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let n = 128 * MIB;
        let sel = PathSelection::THREE_GPUS;
        let cfg = PlannerConfig::default();
        let tuned = tune_exhaustive(&topo, gpus[0], gpus[1], n, sel, &cfg, 8).unwrap();
        let planner = mpx_model::Planner::new(topo.clone());
        let model_plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
        let model_bw = measure_plan(&topo, &model_plan, &paths, gpus[0], gpus[1]);
        let gap = (tuned.bandwidth - model_bw) / tuned.bandwidth;
        assert!(
            gap < 0.06,
            "model config {:.1} GB/s trails exhaustive {:.1} GB/s by {:.1}%",
            model_bw / 1e9,
            tuned.bandwidth / 1e9,
            gap * 100.0
        );
    }
}
