//! The simulated end-to-end metrics of the PUT and plan workloads: each
//! (pair, size) a workload uses is moved once through the simulator on
//! the workload's own context and once on a single-path context, and the
//! three numbers the paper reports are taken from those fixed passes.
//! Being fixed, they do not depend on how many operations the timed
//! loop fits in, and the same seed gives the same bits.

use crate::metrics::Report;
use mpx_gpu::GpuRuntime;
use mpx_sim::Engine;
use mpx_topo::units::MIB;
use mpx_topo::{presets, DeviceId};
use mpx_ucx::{TuningMode, UcxConfig, UcxContext};
use std::sync::Arc;

/// One (pair, size) after its multi-path pass.
pub struct Moved {
    pub src: DeviceId,
    pub dst: DeviceId,
    pub n: usize,
    /// Simulated seconds the multi-path PUT took.
    pub sim_secs: f64,
    /// Seconds the plan predicted.
    pub predicted: f64,
}

pub fn beluga_context(cfg: UcxConfig) -> UcxContext {
    let topo = Arc::new(presets::beluga());
    UcxContext::new(GpuRuntime::new(Engine::new(topo)), cfg)
}

/// Moves `n` synthetic bytes `src → dst` on `ctx` twice and returns the
/// simulated seconds of the second PUT (the first pays the one-time IPC
/// open of the fresh destination); counts a completion check for each.
pub fn put_warm(ctx: &UcxContext, src: DeviceId, dst: DeviceId, n: usize, rep: &mut Report) -> f64 {
    let rt = ctx.runtime();
    let (a, b) = (rt.alloc(src, n), rt.alloc(dst, n));
    let mut secs = 0.0;
    for _ in 0..2 {
        let t0 = rt.engine().now();
        let h = ctx.put_async(&a, &b, n).expect("PUT on a healthy fabric");
        rt.engine().run_until_idle();
        rep.check(h.is_complete(), || {
            format!("PUT {src}->{dst} {n}B incomplete")
        });
        secs = rt.engine().now().secs_since(t0);
    }
    secs
}

/// Sets `sim_gbps`, `model_err_pct` (n ≥ 4 MiB, the paper's floor) and
/// `speedup_max` (against a single-path context) from the moved keys.
pub fn report(moved: &[Moved], rep: &mut Report) {
    let direct = beluga_context(UcxConfig {
        mode: TuningMode::SinglePath,
        ..UcxConfig::default()
    });
    let (mut bytes, mut secs, mut err, mut err_n, mut speedup) = (0.0, 0.0, 0.0, 0usize, 0.0f64);
    for m in moved {
        let dt_direct = put_warm(&direct, m.src, m.dst, m.n, rep);
        speedup = speedup.max(dt_direct / m.sim_secs);
        bytes += m.n as f64;
        secs += m.sim_secs;
        if m.n >= 4 * MIB {
            err += (m.predicted - m.sim_secs).abs() / m.sim_secs;
            err_n += 1;
        }
    }
    rep.set("sim_gbps", bytes / secs / 1e9, moved.len());
    rep.set("model_err_pct", 100.0 * err / err_n as f64, err_n);
    rep.set("speedup_max", speedup, moved.len());
}

/// The plan-cache counters of a workload's context, as layer metrics.
pub fn report_cache(ctx: &UcxContext, rep: &mut Report) {
    let c = ctx.cache_stats();
    let lookups = (c.hits + c.misses + c.class_hits).max(1);
    let frac = |x: u64| x as f64 / lookups as f64;
    rep.set("core.cache_hit_frac", frac(c.hits), lookups as usize);
    rep.set("core.class_hit_frac", frac(c.class_hits), lookups as usize);
    rep.set("ucx.invalidations", c.invalidations as f64, 1);
}
