//! `paper_sweep`: someone regenerating the paper's figures. One pass is
//! what `fig5_bw`, `fig6_bibw` and `fig7_collectives` compute, on both
//! presets: 24 point-to-point panels and 8 collective panels, each a
//! call into `mpx_omb` that runs rank threads on the virtual clock
//! through `mpi → ucx → gpu → sim`.

use crate::metrics::Report;
use crate::trace::Tracer;
use crate::util::{self, SplitMix64};
use crate::{layers, RunCfg};
use mpx_omb::{
    collective_panel, mean_relative_error, p2p_panel, CollectiveConfig, CollectiveKind, P2pKind,
    Series,
};
use mpx_topo::units::MIB;
use mpx_topo::{presets, PathSelection, Topology};
use mpx_ucx::{TuningMode, UcxConfig};
use std::sync::Arc;
use std::time::Instant;

/// Simplex granularity of the exhaustive static tuner (`--full` figures).
const STATIC_GRID: u32 = 8;

/// The paper sweeps 2-512 MiB in powers of two. A pass must fit several
/// times into a run, and a panel's host time is mostly a fixed cost per
/// size (the exhaustive static tuner), so the pass keeps three sizes
/// eight-fold apart: below, inside and above the range where the staged
/// paths switch on.
const SIZES: [usize; 3] = [2 * MIB, 16 * MIB, 128 * MIB];

#[derive(Clone, Copy)]
enum Panel {
    P2p(P2pKind, PathSelection, usize),
    Coll(CollectiveKind, PathSelection),
}

impl Panel {
    fn span_name(self) -> &'static str {
        match self {
            Panel::P2p(P2pKind::Bw, ..) => "omb.fig5",
            Panel::P2p(P2pKind::Bibw, ..) => "omb.fig6",
            Panel::Coll(..) => "omb.fig7",
        }
    }
}

/// What the simulated side of one pass says.
#[derive(Default)]
struct Simulated {
    /// Per point-to-point panel: mean |predicted − observed| / observed
    /// at n ≥ 4 MiB, observed being the better of Static and Dynamic.
    errors: Vec<f64>,
    bytes: f64,
    sim_secs: f64,
    p2p_speedup: f64,
    coll_speedup: f64,
}

struct State {
    presets: [Arc<Topology>; 2],
    /// (index into `presets`, panel), in the seed's order.
    panels: Vec<(usize, Panel)>,
}

impl State {
    fn setup(seed: u64) -> State {
        let presets = [Arc::new(presets::beluga()), Arc::new(presets::narval())];
        let mut panels = Vec::new();
        for t in 0..presets.len() {
            for kind in [P2pKind::Bw, P2pKind::Bibw] {
                for (_, sel) in PathSelection::paper_grid() {
                    for window in [1, 16] {
                        panels.push((t, Panel::P2p(kind, sel, window)));
                    }
                }
            }
            for kind in [CollectiveKind::Alltoall, CollectiveKind::Allreduce] {
                for sel in [PathSelection::TWO_GPUS, PathSelection::THREE_GPUS] {
                    panels.push((t, Panel::Coll(kind, sel)));
                }
            }
        }
        SplitMix64::new(seed).shuffle(&mut panels);
        let st = State { presets, panels };
        // Warm-up: one panel of each family, the same two whatever the
        // seed, so thread-local caches and allocator arenas are in place
        // before the first timed pass.
        st.run_panel(
            0,
            Panel::P2p(P2pKind::Bw, PathSelection::THREE_GPUS_WITH_HOST, 1),
        );
        st.run_panel(
            0,
            Panel::Coll(CollectiveKind::Alltoall, PathSelection::THREE_GPUS),
        );
        st
    }

    fn run_panel(&self, topo: usize, panel: Panel) -> Vec<Series> {
        let topo = &self.presets[topo];
        match panel {
            Panel::P2p(kind, sel, window) => {
                p2p_panel(topo, kind, sel, window, &SIZES, STATIC_GRID)
            }
            Panel::Coll(kind, sel) => {
                let coll = CollectiveConfig {
                    ranks: 4,
                    iterations: 2,
                    warmup: 1,
                };
                collective_panel(topo, kind, sel, &SIZES, coll)
            }
        }
    }
}

fn best(series: &Series) -> f64 {
    series.points.iter().map(|p| p.value).fold(0.0, f64::max)
}

fn absorb(panel: Panel, series: &[Series], sim: &mut Simulated) {
    match panel {
        Panel::P2p(..) => {
            let (direct, stat, dynamic, predicted) =
                (&series[0], &series[1], &series[2], &series[3]);
            let mut observed = stat.clone();
            for (p, d) in observed.points.iter_mut().zip(&dynamic.points) {
                p.value = p.value.max(d.value);
            }
            sim.errors
                .push(mean_relative_error(&observed, predicted, 4 * MIB));
            for (d, base) in dynamic.points.iter().zip(&direct.points) {
                sim.p2p_speedup = sim.p2p_speedup.max(d.value / base.value);
                sim.bytes += d.bytes as f64;
                sim.sim_secs += d.bytes as f64 / d.value;
            }
        }
        Panel::Coll(..) => sim.coll_speedup = sim.coll_speedup.max(best(&series[1])),
    }
}

/// One pass; returns each panel's wall seconds and the simulated side.
/// A panel that panics (a rank deadlock, a failed tuning) fails the
/// operation instead of the run.
fn pass(
    st: &State,
    rep: &mut Report,
    mut tr: Option<&mut Tracer>,
    op: u64,
) -> (Vec<f64>, Simulated) {
    let mut sim = Simulated::default();
    let mut walls = Vec::new();
    if let Some(tr) = tr.as_deref_mut() {
        tr.begin("sweep", op);
    }
    for &(topo, panel) in &st.panels {
        if let Some(tr) = tr.as_deref_mut() {
            tr.begin(panel.span_name(), op);
        }
        let t = Instant::now();
        let series =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| st.run_panel(topo, panel)));
        walls.push(util::secs_since(t));
        if let Some(tr) = tr.as_deref_mut() {
            tr.end();
        }
        rep.check(series.is_ok(), || "a panel panicked".to_string());
        if let Ok(series) = series {
            absorb(panel, &series, &mut sim);
        }
    }
    if let Some(tr) = tr {
        tr.end();
    }
    (walls, sim)
}

/// Share of the point-to-point panels' host time spent in the exhaustive
/// static tuner: the tuning calls the panels make, repeated here on a
/// context of the same configuration and timed.
fn static_tune_share(st: &State, p2p_wall: f64) -> f64 {
    let mut tune = 0.0;
    for topo in &st.presets {
        let gpus = topo.gpus();
        for (_, sel) in PathSelection::paper_grid() {
            let ctx = mpx_mpi::World::new(
                topo.clone(),
                UcxConfig {
                    mode: TuningMode::Static,
                    selection: sel,
                    static_grid: STATIC_GRID,
                    ..UcxConfig::default()
                },
            );
            let t = Instant::now();
            for n in SIZES {
                ctx.context()
                    .tune_static(gpus[0], gpus[1], n)
                    .expect("static tuning");
            }
            // Each (preset, selection) is tuned by 4 panels: BW and
            // BIBW, windows 1 and 16.
            tune += 4.0 * util::secs_since(t);
        }
    }
    tune / p2p_wall
}

pub fn run(cfg: &RunCfg) -> (Report, Option<Tracer>) {
    let mut rep = Report::new("paper_sweep");
    let (setups, st) = util::repeat_setup(|| State::setup(cfg.seed));
    rep.set("setup_s", util::quiet_median(&setups), setups.len());

    // A pass takes seconds: four of them for a quiet quarter, two when
    // the traced run only needs a reference rate.
    let (seconds, passes) = if cfg.traced {
        (cfg.seconds * 0.3, 2)
    } else {
        (cfg.seconds, 4)
    };
    // Wall seconds of each panel, one entry per pass.
    let mut panel_walls = vec![Vec::new(); st.panels.len()];
    let mut first: Option<Simulated> = None;
    let (pass_walls, _) = util::run_batches(seconds, passes, || {
        let (walls, sim) = pass(&st, &mut rep, None, 0);
        for (all, w) in panel_walls.iter_mut().zip(walls) {
            all.push(w);
        }
        // Every pass simulates the same thing; keep the first and hold
        // the others to it.
        match &first {
            None => first = Some(sim),
            Some(f) => rep.check(
                f.sim_secs.to_bits() == sim.sim_secs.to_bits()
                    && f.p2p_speedup.to_bits() == sim.p2p_speedup.to_bits()
                    && f.coll_speedup.to_bits() == sim.coll_speedup.to_bits(),
                || "two passes of the sweep simulated different results".to_string(),
            ),
        }
        st.panels.len() as u64
    });
    let sim = first.expect("at least one pass");
    // A pass is the sum of its panels. The quiet quarter is taken per
    // panel over the passes, which drops a disturbed panel without
    // dropping the rest of its pass.
    let quiet_panels: Vec<f64> = panel_walls.iter().map(|w| util::quiet_mean(w)).collect();
    let pass_wall: f64 = quiet_panels.iter().sum();
    rep.set(
        "ops_per_s",
        st.panels.len() as f64 / pass_wall,
        pass_walls.len(),
    );
    // The panels differ 90-fold in cost by design, so the median panel is
    // whichever of two neighbours in the ranking is quicker that day
    // (it moved by 16 % between two sets of runs where the pass moved by
    // 9 %). The geometric mean weighs every panel equally instead.
    let log_mean = quiet_panels.iter().map(|w| w.ln()).sum::<f64>() / quiet_panels.len() as f64;
    rep.set(
        "call_us_p50",
        log_mean.exp() * 1e6,
        pass_walls.len() * st.panels.len(),
    );
    rep.set("sim_gbps", sim.bytes / sim.sim_secs / 1e9, sim.errors.len());
    rep.set(
        "model_err_pct",
        100.0 * sim.errors.iter().sum::<f64>() / sim.errors.len() as f64,
        sim.errors.len(),
    );
    rep.set("speedup_max", sim.p2p_speedup, sim.errors.len());
    if !cfg.traced {
        return (rep, None);
    }

    let mut tr = Tracer::new();
    let (walls, _) = pass(&st, &mut rep, Some(&mut tr), 0);
    let traced_wall: f64 = walls.iter().sum();
    let plain_wall = pass_walls.iter().sum::<f64>() / pass_walls.len() as f64;
    rep.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall - plain_wall) / plain_wall,
        1,
    );
    let total = |name: &str| tr.durations(name).iter().sum::<f64>() / 1e9;
    let (fig5, fig6, fig7) = (total("omb.fig5"), total("omb.fig6"), total("omb.fig7"));
    rep.set("omb.fig5_wall_s", fig5, 12);
    rep.set("omb.fig6_wall_s", fig6, 12);
    rep.set("omb.fig7_wall_s", fig7, 8);
    rep.set(
        "omb.static_tune_share",
        static_tune_share(&st, fig5 + fig6),
        1,
    );
    rep.set("omb.p2p_speedup_max", sim.p2p_speedup, 24);
    rep.set("omb.coll_speedup_max", sim.coll_speedup, 8);
    layers::direct_calls(&mut rep);
    (rep, Some(tr))
}
