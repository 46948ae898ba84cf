//! Multi-tenant benchmarks: two independent jobs (sub-communicators)
//! share one node — the governance question behind the paper's
//! Section-3 caveat that staged detours borrow *other tenants'* links.
//!
//! Tenant A runs its collective on GPUs {0, 1} while tenant B runs its
//! own on GPUs {2, 3}. With multi-path transport, A's staged paths
//! route through B's GPUs and vice versa: everyone's "spare" capacity is
//! someone else's direct link.
//!
//! On top of the closed-loop collective pair sits an **open-loop
//! generator** ([`run_open_loop`]) driving the [`mpx_broker`] front-end:
//! each tenant is a Poisson arrival process with heavy-tailed (Pareto)
//! request sizes, submitting without waiting for completions — the
//! arrival rate never adapts to service, which is what makes saturation
//! and shedding observable at all. `bench_broker` builds its load
//! matrix out of these.

use mpx_broker::{Broker, Outcome};
use mpx_gpu::ReduceOp;
use mpx_mpi::{allreduce_ring, World};
use mpx_topo::units::Secs;
use mpx_topo::{DeviceId, Topology};
use mpx_ucx::UcxConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// One tenant of the open-loop generator: a Poisson arrival process
/// with Pareto-distributed request sizes against one GPU pair.
#[derive(Debug, Clone)]
pub struct OpenLoopTenant {
    /// Broker tenant name — must be registered with the broker.
    pub name: String,
    /// Mean arrivals per virtual second.
    pub rate_hz: f64,
    /// Mean request size in bytes. Sizes are heavy-tailed (Pareto,
    /// shape 1.5) around this mean, floored at 4 KiB and capped at 8×
    /// the mean, 4-byte aligned.
    pub mean_bytes: usize,
    /// Explicit per-request deadline budget in virtual seconds (`None`
    /// uses the broker's configured admission policy).
    pub deadline: Option<Secs>,
}

/// Shape parameter of the Pareto size distribution: infinite variance,
/// finite mean — the classic heavy tail.
const PARETO_SHAPE: f64 = 1.5;

/// What one open-loop tenant experienced over the run.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Tenant name.
    pub name: String,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted by the broker.
    pub admitted: u64,
    /// Requests rejected by the broker, any
    /// [`mpx_broker::Rejected`] reason.
    pub shed: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Admitted requests the broker abandoned.
    pub failed: u64,
    /// Goodput numerator: bytes of completed requests.
    pub completed_bytes: u64,
    /// Submit-to-completion sojourn of each completed request, in
    /// virtual seconds, in completion order.
    pub latencies: Vec<f64>,
}

impl OpenLoopReport {
    /// The `q`-quantile (0..=1) of completion sojourns, or `None` when
    /// nothing completed.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut v = self.latencies.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }

    /// Fraction of submissions shed.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }
}

/// Next Poisson inter-arrival gap for a process of `rate_hz`.
fn exp_gap(rng: &mut StdRng, rate_hz: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate_hz
}

/// A Pareto(shape 1.5) request size with the given mean, floored at
/// 4 KiB, capped at 8× the mean, 4-byte aligned.
fn pareto_bytes(rng: &mut StdRng, mean: usize) -> usize {
    let xm = mean as f64 * (PARETO_SHAPE - 1.0) / PARETO_SHAPE;
    let u: f64 = rng.gen_range(0.0..1.0);
    let raw = xm / (1.0 - u).powf(1.0 / PARETO_SHAPE);
    let capped = raw.min(8.0 * mean as f64).max(4096.0);
    (capped as usize) & !3
}

/// Drives `tenants` as concurrent open-loop arrival processes against
/// `broker` on GPU pair `(src, dst)` for `horizon` virtual seconds,
/// then waits out every outstanding ticket. Registers one scheduler
/// thread and one generator thread per tenant on the broker's engine —
/// the caller must not hold other registered sim threads across this
/// call. Returns one report per tenant, in input order.
pub fn run_open_loop(
    broker: &Arc<Broker>,
    src: DeviceId,
    dst: DeviceId,
    tenants: &[OpenLoopTenant],
    horizon: Secs,
    seed: u64,
) -> Vec<OpenLoopReport> {
    assert!(!tenants.is_empty() && horizon > 0.0);
    let engine = broker.context().runtime().engine().clone();
    broker.set_producers(tenants.len());
    // Quorum rule: register every actor before any of them can block.
    let sched_thread = engine.register_thread("broker-sched");
    let gen_threads: Vec<_> = tenants
        .iter()
        .map(|t| engine.register_thread(format!("gen-{}", t.name)))
        .collect();

    let mut reports = Vec::new();
    std::thread::scope(|s| {
        {
            let broker = broker.clone();
            s.spawn(move || broker.run(sched_thread));
        }
        let handles: Vec<_> = tenants
            .iter()
            .zip(gen_threads)
            .enumerate()
            .map(|(i, (spec, thread))| {
                let broker = broker.clone();
                let spec = spec.clone();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (i as u64 + 1)));
                    let mut report = OpenLoopReport {
                        name: spec.name.clone(),
                        ..OpenLoopReport::default()
                    };
                    let mut tickets = Vec::new();
                    let t0 = thread.now();
                    loop {
                        thread.sleep(exp_gap(&mut rng, spec.rate_hz));
                        if thread.now().secs_since(t0) >= horizon {
                            break;
                        }
                        let n = pareto_bytes(&mut rng, spec.mean_bytes);
                        report.submitted += 1;
                        match broker.submit_with_deadline(&spec.name, src, dst, n, spec.deadline) {
                            Ok(ticket) => {
                                report.admitted += 1;
                                tickets.push((ticket, n));
                            }
                            Err(_) => report.shed += 1,
                        }
                    }
                    // Open loop is over; let the broker drain and
                    // collect every outcome.
                    broker.producer_done();
                    for (ticket, n) in tickets {
                        match ticket.wait(&thread) {
                            Outcome::Completed { latency, .. } => {
                                report.completed += 1;
                                report.completed_bytes += n as u64;
                                report.latencies.push(latency);
                            }
                            Outcome::Failed { .. } => report.failed += 1,
                        }
                    }
                    report
                })
            })
            .collect();
        for h in handles {
            reports.push(h.join().expect("generator thread panicked"));
        }
    });
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_broker::{BrokerConfig, TenantSpec};
    use mpx_gpu::GpuRuntime;
    use mpx_sim::Engine;
    use mpx_topo::path::PathSelection;
    use mpx_topo::presets;
    use mpx_ucx::{TuningMode, UcxContext};

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

    #[test]
    fn open_loop_generator_saturates_and_drains_cleanly() {
        let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
        let ctx = UcxContext::new(rt, UcxConfig::default());
        let gpus = ctx.runtime().engine().topology().gpus();
        let broker = Broker::new(
            ctx,
            BrokerConfig::default(),
            vec![TenantSpec::new("a", 2.0), TenantSpec::new("b", 1.0)],
        );
        // Pitch the combined arrival rate at 2× the pair's modeled
        // capacity for the mean size: the broker must shed, not queue
        // without bound, and the drain must balance the books.
        let mean = 4 << 20;
        let plan = broker.context().plan_for(gpus[0], gpus[1], mean).unwrap();
        let cap_hz = plan.predicted_bandwidth / mean as f64;
        let specs: Vec<OpenLoopTenant> = ["a", "b"]
            .iter()
            .map(|name| OpenLoopTenant {
                name: (*name).to_string(),
                rate_hz: cap_hz,
                mean_bytes: mean,
                deadline: None,
            })
            .collect();
        let reports = run_open_loop(&broker, gpus[0], gpus[1], &specs, 0.02, 42);
        let s = broker.stats();
        assert!(s.accounting_ok(), "submission ledger unbalanced: {s:?}");
        assert!(s.drained_ok(), "tickets left unresolved: {s:?}");
        assert!(reports.iter().all(|r| r.submitted > 0), "{reports:?}");
        assert!(
            reports.iter().map(|r| r.completed).sum::<u64>() > 0,
            "nothing completed: {reports:?}"
        );
        assert!(
            s.shed_total() > 0,
            "2x-capacity open-loop load must shed: {s:?}"
        );
        for r in &reports {
            assert_eq!(r.admitted, r.completed + r.failed, "{r:?}");
        }
    }
}
