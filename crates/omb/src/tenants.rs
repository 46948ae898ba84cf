//! Multi-tenant benchmarks: two independent jobs (sub-communicators)
//! share one node — the governance question behind the paper's
//! Section-3 caveat that staged detours borrow *other tenants'* links.
//!
//! Tenant A runs its collective on GPUs {0, 1} while tenant B runs its
//! own on GPUs {2, 3}. With multi-path transport, A's staged paths
//! route through B's GPUs and vice versa: everyone's "spare" capacity is
//! someone else's direct link.

use mpx_gpu::ReduceOp;
use mpx_mpi::{allreduce_ring, World};
use mpx_topo::Topology;
use mpx_ucx::UcxConfig;
use std::sync::Arc;

/// Result of a two-tenant run.
#[derive(Debug, Clone, Copy)]
pub struct TenantResult {
    /// Tenant A's mean per-iteration latency (seconds).
    pub tenant_a: f64,
    /// Tenant B's mean per-iteration latency (seconds).
    pub tenant_b: f64,
}

impl TenantResult {
    /// Larger of the two tenants' latencies.
    pub fn worst(&self) -> f64 {
        self.tenant_a.max(self.tenant_b)
    }

    /// Fairness: max/min latency ratio (1.0 = perfectly fair).
    pub fn imbalance(&self) -> f64 {
        self.tenant_a.max(self.tenant_b) / self.tenant_a.min(self.tenant_b).max(1e-12)
    }
}

/// Runs two tenants' ring allreduces concurrently, `iterations` each,
/// with `active_b` controlling whether tenant B generates load at all
/// (idle-neighbour baseline).
pub fn two_tenant_allreduce(
    topo: &Arc<Topology>,
    ucx: UcxConfig,
    n: usize,
    iterations: usize,
    active_b: bool,
) -> TenantResult {
    assert!(topo.gpus().len() >= 4 && n.is_multiple_of(8) && iterations > 0);
    let world = World::new(topo.clone(), ucx);
    let times = world.run_tasks(4, |r| async move {
        let colors = [0u32, 0, 1, 1];
        let sub = r.split(&colors);
        let tenant_b = r.rank >= 2;
        let buf = r.alloc(n);
        r.barrier().await;
        let t0 = r.now();
        if !tenant_b || active_b {
            for _ in 0..iterations {
                allreduce_ring(&sub, &buf, n, ReduceOp::Sum).await;
            }
        }
        r.now().secs_since(t0) / iterations as f64
    });
    TenantResult {
        tenant_a: times[0].max(times[1]),
        tenant_b: times[2].max(times[3]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::path::PathSelection;
    use mpx_topo::presets;
    use mpx_ucx::TuningMode;

    fn cfg(mode: TuningMode) -> UcxConfig {
        UcxConfig {
            mode,
            selection: PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        }
    }

    const N: usize = 16 << 20;

    #[test]
    fn single_path_tenants_are_perfectly_isolated() {
        // Each tenant's ring uses only its own direct links: a busy
        // neighbour costs nothing.
        let topo = Arc::new(presets::beluga());
        let alone = two_tenant_allreduce(&topo, cfg(TuningMode::SinglePath), N, 2, false).tenant_a;
        let shared = two_tenant_allreduce(&topo, cfg(TuningMode::SinglePath), N, 2, true).tenant_a;
        let slowdown = shared / alone;
        assert!(
            slowdown < 1.02,
            "single-path tenant slowed {slowdown}x by its neighbour"
        );
    }

    #[test]
    fn multipath_tenants_interfere_but_stay_ahead() {
        // Multi-path detours cross tenant boundaries: a busy neighbour
        // now costs something — the noisy-neighbour effect — but each
        // tenant still beats its own single-path configuration.
        let topo = Arc::new(presets::beluga());
        let mp_alone = two_tenant_allreduce(&topo, cfg(TuningMode::Dynamic), N, 2, false).tenant_a;
        let mp_shared = two_tenant_allreduce(&topo, cfg(TuningMode::Dynamic), N, 2, true).tenant_a;
        let sp_shared =
            two_tenant_allreduce(&topo, cfg(TuningMode::SinglePath), N, 2, true).tenant_a;
        let noisy_neighbour = mp_shared / mp_alone;
        assert!(
            noisy_neighbour > 1.02,
            "multi-path tenants should interfere: {noisy_neighbour}x"
        );
        assert!(
            noisy_neighbour < 1.6,
            "interference must stay bounded: {noisy_neighbour}x"
        );
        assert!(
            mp_shared < sp_shared,
            "even contended, multi-path {mp_shared} beats single-path {sp_shared}"
        );
    }

    #[test]
    fn concurrent_tenants_are_fair() {
        let topo = Arc::new(presets::beluga());
        let r = two_tenant_allreduce(&topo, cfg(TuningMode::Dynamic), N, 2, true);
        assert!(
            r.imbalance() < 1.2,
            "symmetric tenants should see symmetric service: {r:?}"
        );
    }
}
