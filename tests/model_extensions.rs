//! Integration coverage for the model-side extensions: sensitivity, and
//! its agreement with simulated behaviour.

use mpx_topo::params::extract_all;
use multipath_gpu::prelude::*;
use std::sync::Arc;

/// Sensitivity in vivo: plan with deliberately corrupted parameters and
/// *execute on the simulator* — the measured slowdown must not exceed
/// the analytic regret by much (the analytic number is a first-order
/// estimate; the simulator adds quantization).
#[test]
fn analytic_regret_tracks_simulated_regret() {
    use mpx_model::{perturb, Perturb};
    use mpx_topo::path::enumerate_paths;
    use mpx_ucx::{execute_plan, UcxConfig, UcxContext};

    let topo = Arc::new(presets::beluga());
    let planner = Planner::new(topo.clone());
    let gpus = topo.gpus();
    let sel = PathSelection::THREE_GPUS;
    let n = 128 << 20;
    let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
    let good_params = extract_all(&topo, &paths).unwrap();
    let bad_params = perturb(&good_params, Perturb::SecondLegBandwidth, -0.4);

    let measure = |params: Vec<mpx_topo::PathParams>| {
        let plan = planner.compute_with_params(n, &paths, params);
        let ctx = UcxContext::new(
            GpuRuntime::new(Engine::new(topo.clone())),
            UcxConfig::default(),
        );
        let rt = ctx.runtime();
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        execute_plan(rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        rt.engine().now().as_secs()
    };
    let good = measure(good_params);
    let bad = measure(bad_params);
    let simulated_regret = bad / good - 1.0;
    assert!(
        simulated_regret > 0.0,
        "mis-calibration must cost something: {simulated_regret}"
    );
    // Believing the staging legs are 40% slower than reality shifts real
    // load onto the direct link; the measured cost lands near the
    // analytic regret (~20–30%) — painful but bounded.
    assert!(
        simulated_regret < 0.35,
        "40% second-leg error should stay survivable: {simulated_regret}"
    );
}
