//! Parameter extraction end-to-end: measured sweeps on the simulated
//! fabric, fitted with `mpx_model::fit_hockney`, must recover the
//! topology's ground-truth link parameters (paper Fig. 2(a) Step 1).

use mpx_model::fit_hockney;
use mpx_topo::params::LegParams;
use multipath_gpu::prelude::*;
use std::sync::Arc;

/// A single route's Hockney parameters in isolation: `α` from its links'
/// latencies plus the copy launch, `β` from one 256 MiB flow's achieved
/// rate on an idle scratch engine.
fn probe_leg_isolated(topo: &Arc<Topology>, route: Vec<LinkId>) -> LegParams {
    let mut alpha = topo.overheads.copy_launch;
    for lid in &route {
        alpha += topo.link(*lid).expect("route link").latency;
    }
    let eng = Engine::with_tracing(topo.clone(), true);
    eng.start_flow(FlowSpec::new(route, 256 << 20), OnComplete::Nothing);
    eng.run_until_idle();
    let rec = &eng.take_trace()[0];
    let beta = rec.bytes as f64 / rec.completed.secs_since(rec.activated);
    LegParams { alpha, beta }
}

/// Sweep a single link with flows of increasing size; fit Hockney; the
/// fitted (α, β) must match the link's declared parameters.
#[test]
fn hockney_fit_recovers_link_parameters_from_simulation() {
    let topo = Arc::new(presets::beluga());
    let gpus = topo.gpus();
    let link = topo.link_between(gpus[0], gpus[1]).unwrap();

    let mut samples = Vec::new();
    for n in [256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20usize] {
        let eng = Engine::new(topo.clone());
        eng.start_flow(FlowSpec::new(vec![link.id], n), OnComplete::Nothing);
        eng.run_until_idle();
        samples.push((n as f64, eng.now().as_secs()));
    }
    let fit = fit_hockney(&samples).expect("fit");
    assert!(
        (fit.beta - link.bandwidth).abs() / link.bandwidth < 1e-3,
        "beta {} vs {}",
        fit.beta,
        link.bandwidth
    );
    assert!(
        (fit.alpha - link.latency).abs() < 1e-7,
        "alpha {} vs {}",
        fit.alpha,
        link.latency
    );
}

/// OSU latency at small sizes approximates the one-way startup cost:
/// link latency plus software overheads.
#[test]
fn small_message_latency_reflects_startup_costs() {
    let topo = Arc::new(presets::beluga());
    let cfg = UcxConfig {
        mode: TuningMode::SinglePath,
        ..UcxConfig::default()
    };
    let lat = osu_latency(&topo, cfg, 1024, 8);
    let oh = &topo.overheads;
    let link = topo.link_between(topo.gpus()[0], topo.gpus()[1]).unwrap();
    let floor = link.latency + oh.copy_launch;
    let ceil = floor + oh.rendezvous + 30e-6;
    assert!(
        lat > floor && lat < ceil,
        "latency {:.2} us outside [{:.2}, {:.2}]",
        lat * 1e6,
        floor * 1e6,
        ceil * 1e6
    );
}

/// Probed leg parameters agree with datasheet values on uncontended
/// routes (the probe is a measurement, not a different model).
#[test]
fn probe_agrees_with_datasheet_on_isolated_routes() {
    let topo = Arc::new(presets::narval());
    let gpus = topo.gpus();
    for (a, b) in [(gpus[0], gpus[1]), (gpus[1], gpus[3])] {
        let link = topo.link_between(a, b).unwrap();
        let leg = probe_leg_isolated(&topo, vec![link.id]);
        // Nanosecond clock rounding bounds the probe's precision.
        assert!(
            (leg.beta - link.bandwidth).abs() / link.bandwidth < 1e-6,
            "probe {} vs datasheet {}",
            leg.beta,
            link.bandwidth
        );
    }
}

/// The full calibrate-plan-execute loop: plans computed from *fitted*
/// parameters perform as well as plans from ground-truth parameters.
#[test]
fn fitted_parameters_plan_as_well_as_ground_truth() {
    let topo = Arc::new(presets::beluga());
    let n = 64 << 20;

    // Ground truth (probed) planning — the default dynamic path.
    let probed = osu_bw(&topo, UcxConfig::default(), n, P2pConfig::default());
    // Datasheet planning.
    let datasheet = osu_bw(
        &topo,
        UcxConfig {
            params: mpx_ucx::ParamSource::Datasheet,
            ..UcxConfig::default()
        },
        n,
        P2pConfig::default(),
    );
    let rel = (probed - datasheet).abs() / probed;
    assert!(
        rel < 0.05,
        "on Beluga (no intra-path sharing) both sources should agree: \
         probed {:.1} vs datasheet {:.1} GB/s",
        probed / 1e9,
        datasheet / 1e9
    );
}

/// On Narval the probed source must *beat* the datasheet source: it sees
/// the shared-DRAM host path for what it is and assigns it less.
#[test]
fn probed_parameters_beat_datasheet_on_narval_host_path() {
    let topo = Arc::new(presets::narval());
    let n = 128 << 20;
    let sel = PathSelection::THREE_GPUS_WITH_HOST;
    let bw_of = |params| {
        osu_bw(
            &topo,
            UcxConfig {
                params,
                selection: sel,
                ..UcxConfig::default()
            },
            n,
            P2pConfig::default(),
        )
    };
    let probed = bw_of(mpx_ucx::ParamSource::Probed);
    let datasheet = bw_of(mpx_ucx::ParamSource::Datasheet);
    assert!(
        probed > datasheet,
        "probed {:.1} GB/s should beat datasheet {:.1} GB/s",
        probed / 1e9,
        datasheet / 1e9
    );
}

/// Alone, a host-staged leg runs at its narrowest link: on narval
/// min(PCIe 24, DRAM 19) = 19 GB/s.
#[test]
fn isolated_leg_probe_matches_bottleneck() {
    let topo = Arc::new(presets::narval());
    let gpus = topo.gpus();
    let hm = topo.local_host_memory(gpus[0]).unwrap();
    let route = vec![
        topo.link_between(gpus[0], hm).unwrap().id,
        topo.link_between(hm, hm).unwrap().id,
    ];
    let leg = probe_leg_isolated(&topo, route);
    assert!((leg.beta - 19e9).abs() < 1e8, "{}", leg.beta);
    assert!(leg.alpha > 0.0);
}
