//! The broker proper: sharded bounded queues, model-driven admission
//! control, weighted-fair coalescing dispatch, and regime-aware load
//! shedding.
//!
//! Many tenants submit transfer requests; the broker either admits a
//! request into the bounded queue of its GPU pair (the *shard*) or
//! rejects it immediately with an explicit, typed [`Rejected`] reason —
//! a caller always learns its fate at submit time, and queues cannot
//! grow without bound. Admission is *model-driven*: the performance
//! model's predicted completion time, scaled by the tenant's current
//! fair share and by path-health exclusions, is compared against the
//! request's deadline budget; work that cannot finish in time is shed
//! at the door instead of rotting in a queue.
//!
//! A single scheduler thread dequeues by deficit round robin over the
//! tenants' max-min fair shares (see [`crate::fair`]), coalesces up to
//! [`BrokerConfig::coalesce_limit`] same-pair requests into one planned
//! multi-path flow, and dispatches it through the transport's
//! asynchronous PUT with a completion waker. Under rising queue
//! occupancy the broker degrades through explicit load regimes with
//! hysteresis (see [`crate::regime`]), shedding best-effort tenants
//! first and finally refusing all new work until the backlog drains.

use crate::fair::{weighted_shares, DeficitLedger};
use crate::regime::{LoadRegime, RegimeConfig, RegimeMachine};
use mpx_gpu::Buffer;
use mpx_obs::{Phase, QuantileHist, TelemetryRegistry, TriggerClass};
use mpx_sim::{SimThread, SimTime, Waker};
use mpx_topo::path::PathSelection;
use mpx_topo::units::Secs;
use mpx_topo::{DeviceId, TopologyError};
use mpx_ucx::{DeadlinePolicy, TransferHandle, TuningMode, UcxContext};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One tenant of the broker: a name and a fair-share weight.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant identity, used in submit calls and telemetry counters.
    pub name: String,
    /// Fair-share weight. Zero marks a *best-effort* tenant: served from
    /// leftover capacity in the Normal regime, shed outright while the
    /// broker is Shedding.
    pub weight: f64,
}

impl TenantSpec {
    /// A tenant with the given name and weight. Panics on negative or
    /// non-finite weights (zero is allowed and means best-effort).
    pub fn new(name: impl Into<String>, weight: f64) -> TenantSpec {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "tenant weight must be finite and non-negative"
        );
        TenantSpec {
            name: name.into(),
            weight,
        }
    }
}

/// Broker tunables.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Maximum queued (not yet dispatched) requests per GPU-pair shard,
    /// across all tenants. Submissions past the bound are rejected with
    /// [`Rejected::QueueFull`].
    pub queue_depth: usize,
    /// Default deadline budget for requests submitted without an
    /// explicit deadline: `budget(predicted)` of this policy bounds the
    /// model-estimated sojourn (queue wait + service) a request may
    /// face at admission.
    pub admission: DeadlinePolicy,
    /// Watchdog for dispatched flows: a flow older than
    /// `budget(predicted)` of this policy is declared failed (its
    /// tickets resolve to [`Outcome::Failed`]) so a dead link cannot
    /// wedge the broker.
    pub stuck: DeadlinePolicy,
    /// Bytes of deficit credit distributed per accrual round, split
    /// across pending tenants by fair share. Credit only accrues while
    /// no queued head is covered by existing credit, so balances stay
    /// bounded by one request plus one quantum.
    pub quantum: f64,
    /// Maximum same-pair requests coalesced into one dispatched flow.
    pub coalesce_limit: usize,
    /// Maximum concurrently dispatched flows per GPU-pair shard.
    pub max_inflight: usize,
    /// Load-regime hysteresis thresholds over queue occupancy.
    pub regimes: RegimeConfig,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            queue_depth: 64,
            admission: DeadlinePolicy::new(4.0, 1e-3),
            stuck: DeadlinePolicy::new(64.0, 0.05),
            quantum: (1 << 20) as f64,
            coalesce_limit: 4,
            max_inflight: 1,
            regimes: RegimeConfig::default(),
        }
    }
}

/// Why a submission was refused. Every rejection is explicit and
/// immediate — the broker never accepts work it does not believe it can
/// finish.
#[derive(Debug, Clone)]
pub enum Rejected {
    /// The pair's shard is at [`BrokerConfig::queue_depth`].
    QueueFull {
        /// The saturated GPU pair.
        pair: (DeviceId, DeviceId),
        /// The configured bound that was hit.
        depth: usize,
    },
    /// The model predicts the request cannot finish inside its budget.
    DeadlineInfeasible {
        /// Model-predicted service time (health-scaled), seconds.
        predicted: Secs,
        /// Estimated queue wait ahead of this request at the tenant's
        /// current fair share, seconds.
        backlog: Secs,
        /// The deadline budget the sum had to fit, seconds.
        budget: Secs,
    },
    /// The broker is in the Drain regime: no new work of any kind.
    Draining,
    /// A best-effort (zero-weight) tenant submitted while the broker is
    /// Shedding.
    Shed {
        /// The shed tenant.
        tenant: String,
    },
    /// The tenant name was never registered with the broker.
    UnknownTenant {
        /// The unrecognized name.
        tenant: String,
    },
    /// Path planning failed for the requested pair.
    Topology(TopologyError),
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { pair, depth } => {
                write!(
                    f,
                    "queue full for pair {}->{} (depth {})",
                    pair.0, pair.1, depth
                )
            }
            Rejected::DeadlineInfeasible {
                predicted,
                backlog,
                budget,
            } => write!(
                f,
                "deadline infeasible: backlog {:.3}ms + predicted {:.3}ms > budget {:.3}ms",
                backlog * 1e3,
                predicted * 1e3,
                budget * 1e3
            ),
            Rejected::Draining => write!(f, "broker is draining: no new work admitted"),
            Rejected::Shed { tenant } => {
                write!(f, "best-effort tenant '{tenant}' shed under load")
            }
            Rejected::UnknownTenant { tenant } => write!(f, "unknown tenant '{tenant}'"),
            Rejected::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl std::error::Error for Rejected {}

impl Rejected {
    /// Stable short label for telemetry (`shed <label>` instants).
    pub fn label(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue-full",
            Rejected::DeadlineInfeasible { .. } => "deadline",
            Rejected::Draining => "draining",
            Rejected::Shed { .. } => "regime",
            Rejected::UnknownTenant { .. } => "unknown-tenant",
            Rejected::Topology(_) => "topology",
        }
    }
}

/// Terminal state of an admitted request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The transfer landed.
    Completed {
        /// Submit-to-completion sojourn in virtual seconds.
        latency: Secs,
        /// Message size.
        bytes: usize,
    },
    /// The dispatched flow missed the stuck watchdog (dead path, fault
    /// storm) and was abandoned by the broker.
    Failed {
        /// Virtual seconds between submission and abandonment.
        waited: Secs,
    },
}

type TicketState = Arc<Mutex<Option<Outcome>>>;

/// A claim on an admitted request: wait on it (from a registered sim
/// thread) or poll it for the terminal [`Outcome`].
#[derive(Debug, Clone)]
pub struct Ticket {
    id: u64,
    waker: Waker,
    state: TicketState,
}

impl Ticket {
    /// Broker-unique request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The outcome, if the request has reached one.
    pub fn outcome(&self) -> Option<Outcome> {
        *self.state.lock()
    }

    /// Blocks the calling simulated thread until the request completes
    /// or fails.
    pub fn wait(&self, thread: &SimThread) -> Outcome {
        loop {
            if let Some(o) = *self.state.lock() {
                return o;
            }
            thread.wait(&self.waker);
        }
    }
}

/// An admitted request sitting in a shard queue.
struct QueuedReq {
    tenant: usize,
    n: usize,
    submitted_at: SimTime,
    state: TicketState,
    waker: Waker,
}

/// A dispatched (possibly coalesced) flow awaiting completion.
struct Inflight {
    handle: TransferHandle,
    parts: Vec<QueuedReq>,
    bytes: usize,
    dispatched_at: SimTime,
    deadline: SimTime,
    /// The model's predicted completion time for the whole flow, kept
    /// so the shard can calibrate modeled against delivered time.
    modeled: f64,
    // Buffers must outlive the flow.
    _src: Buffer,
    _dst: Buffer,
}

/// Per-GPU-pair state: one bounded queue per tenant plus the inflight
/// set.
struct Shard {
    src: DeviceId,
    dst: DeviceId,
    queues: Vec<VecDeque<QueuedReq>>,
    queued: usize,
    tenant_queued_bytes: Vec<u64>,
    tenant_inflight_bytes: Vec<u64>,
    /// Virtual-clock shaper, one entry per tenant: the sim time at
    /// which the tenant's admitted work would finish draining at its
    /// *entitled, calibrated* rate. Admission charges this clock per
    /// request, so a tenant's long-run admitted rate converges to its
    /// entitlement even though the work-conserving dispatcher may
    /// empty its real queue faster.
    virtual_finish: Vec<f64>,
    /// Wall time the shard has spent with a flow in flight, and the
    /// model's prediction for those same flows. Their ratio calibrates
    /// the shaper against what the fabric actually delivers (chunking
    /// and pipeline-fill overheads the plan-level model does not see).
    busy_secs: f64,
    modeled_busy_secs: f64,
    ledger: DeficitLedger,
    inflight: Vec<Inflight>,
    inflight_bytes: usize,
}

impl Shard {
    fn new(src: DeviceId, dst: DeviceId, tenants: usize) -> Shard {
        Shard {
            src,
            dst,
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            queued: 0,
            tenant_queued_bytes: vec![0; tenants],
            tenant_inflight_bytes: vec![0; tenants],
            virtual_finish: vec![0.0; tenants],
            busy_secs: 0.0,
            modeled_busy_secs: 0.0,
            ledger: DeficitLedger::new(tenants),
            inflight: Vec::new(),
            inflight_bytes: 0,
        }
    }

    /// How much slower the fabric actually serves this shard's flows
    /// than the plan-level model predicts (≥ 1). Starts neutral and
    /// converges as flows complete.
    fn calibration(&self) -> f64 {
        if self.modeled_busy_secs > 0.0 {
            (self.busy_secs / self.modeled_busy_secs).max(1.0)
        } else {
            1.0
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
    shed_regime: AtomicU64,
    shed_invalid: AtomicU64,
    coalesced: AtomicU64,
    dispatches: AtomicU64,
    regime_changes: AtomicU64,
    queue_peak: AtomicU64,
}

#[derive(Default)]
struct TenantCounters {
    submitted: AtomicU64,
    admitted_bytes: AtomicU64,
    completed_bytes: AtomicU64,
    shed: AtomicU64,
}

/// Per-tenant accounting snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Requests submitted by this tenant.
    pub submitted: u64,
    /// Bytes of admitted requests.
    pub admitted_bytes: u64,
    /// Bytes of completed requests (the tenant's goodput numerator).
    pub completed_bytes: u64,
    /// Requests rejected, any reason.
    pub shed: u64,
}

/// Broker accounting snapshot: every submission is exactly one of
/// admitted or shed; every admitted request eventually exactly one of
/// completed or failed.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerStats {
    /// Total submissions.
    pub submitted: u64,
    /// Requests accepted into a queue.
    pub admitted: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Admitted requests abandoned by the stuck watchdog.
    pub failed: u64,
    /// Rejections: shard at queue-depth bound.
    pub shed_queue_full: u64,
    /// Rejections: model-predicted finish exceeded the deadline budget.
    pub shed_deadline: u64,
    /// Rejections: regime gate (Draining, or best-effort while
    /// Shedding).
    pub shed_regime: u64,
    /// Rejections: unknown tenant or topology error.
    pub shed_invalid: u64,
    /// Requests that shared a dispatched flow with an earlier request
    /// (batch size minus one, summed over dispatches).
    pub coalesced: u64,
    /// Flows dispatched.
    pub dispatches: u64,
    /// Load-regime transitions observed.
    pub regime_changes: u64,
    /// Highest queued-request count seen in any one shard.
    pub queue_peak: u64,
    /// Regime at snapshot time.
    pub regime: LoadRegime,
    /// Per-tenant breakdown, in registration order.
    pub tenants: Vec<TenantStats>,
}

impl BrokerStats {
    /// Total rejections across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_regime + self.shed_invalid
    }

    /// Every submission is exactly one of admitted or shed.
    pub fn accounting_ok(&self) -> bool {
        self.submitted == self.admitted + self.shed_total()
    }

    /// After a full drain, every admitted request has a terminal
    /// outcome — and sheds never masquerade as failures.
    pub fn drained_ok(&self) -> bool {
        self.admitted == self.completed + self.failed
    }
}

type Completion = (TicketState, Waker, Outcome, usize, usize);

/// Bound on deficit-accrual rounds per batch selection: far above what
/// any real head-of-line request needs (`head / (min_share × quantum)`
/// rounds), yet finite so a pathological configuration cannot spin the
/// scheduler.
const ACCRUE_ROUNDS: usize = 4096;

/// Safety factor applied on top of the measured calibration when the
/// admission shaper charges a request: tenants are collectively shaped
/// to slightly *under* the delivered capacity, so queues drain instead
/// of hovering at the edge of the budget.
const CAPACITY_HEADROOM: f64 = 1.1;

/// The multi-tenant transfer broker. Construct with [`Broker::new`],
/// share via [`Arc`]: generator threads call [`Broker::submit`], one
/// dedicated registered sim thread runs [`Broker::run`].
pub struct Broker {
    ctx: UcxContext,
    cfg: BrokerConfig,
    tenants: Vec<TenantSpec>,
    weights: Vec<f64>,
    by_name: HashMap<String, usize>,
    shards: Mutex<HashMap<(DeviceId, DeviceId), Shard>>,
    regime: Mutex<RegimeMachine>,
    work: Waker,
    producers: AtomicUsize,
    next_id: AtomicU64,
    c: Counters,
    tc: Vec<TenantCounters>,
    /// Queue-sojourn histogram (submit → terminal outcome), always on.
    sojourn: Arc<QuantileHist>,
}

impl Broker {
    /// A broker over `ctx` serving `tenants`. Panics when the tenant
    /// list is empty, holds duplicate names, or the regime thresholds
    /// are invalid.
    pub fn new(ctx: UcxContext, cfg: BrokerConfig, tenants: Vec<TenantSpec>) -> Arc<Broker> {
        assert!(!tenants.is_empty(), "broker needs at least one tenant");
        assert!(cfg.queue_depth > 0, "queue_depth must be positive");
        assert!(cfg.coalesce_limit > 0, "coalesce_limit must be positive");
        assert!(cfg.max_inflight > 0, "max_inflight must be positive");
        let mut by_name = HashMap::new();
        for (i, t) in tenants.iter().enumerate() {
            assert!(
                by_name.insert(t.name.clone(), i).is_none(),
                "duplicate tenant name '{}'",
                t.name
            );
        }
        let weights = tenants.iter().map(|t| t.weight).collect();
        let tc = tenants.iter().map(|_| TenantCounters::default()).collect();
        Arc::new(Broker {
            ctx,
            cfg,
            weights,
            by_name,
            tenants,
            shards: Mutex::new(HashMap::new()),
            regime: Mutex::new(RegimeMachine::new(cfg.regimes)),
            work: Waker::new("broker-work"),
            producers: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            c: Counters::default(),
            tc,
            sojourn: Arc::new(QuantileHist::new()),
        })
    }

    /// The transport context the broker dispatches through.
    pub fn context(&self) -> &UcxContext {
        &self.ctx
    }

    /// The current load regime.
    pub fn regime(&self) -> LoadRegime {
        self.regime.lock().current()
    }

    /// The queue-sojourn histogram: submit-to-terminal-outcome seconds
    /// of every reaped request, watchdog kills included.
    pub fn sojourn_hist(&self) -> &Arc<QuantileHist> {
        &self.sojourn
    }

    /// Declares how many producer (generator) threads will submit work.
    /// The scheduler loop exits only once this count has been returned
    /// to zero via [`Broker::producer_done`] *and* all queues and
    /// inflight flows are empty. Call before spawning the scheduler.
    pub fn set_producers(&self, n: usize) {
        self.producers.store(n, Ordering::SeqCst);
    }

    /// Signals that one producer has finished submitting. Call before
    /// dropping the producer's `SimThread` guard, so the scheduler can
    /// observe the decrement and exit instead of deadlocking the sim.
    pub fn producer_done(&self) {
        self.producers.fetch_sub(1, Ordering::SeqCst);
        self.ctx.runtime().engine().signal_waker(&self.work);
    }

    /// Replicates the context's effective path selection (the context's
    /// own helper is crate-private).
    fn selection(&self) -> PathSelection {
        match self.ctx.config().mode {
            TuningMode::SinglePath => PathSelection::DIRECT_ONLY,
            _ => self.ctx.config().selection,
        }
    }

    fn shed(&self, tenant: Option<usize>, counter: &AtomicU64, why: &Rejected) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(ti) = tenant {
            self.tc[ti].shed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(rec) = self.ctx.recorder() {
            rec.instant(
                Phase::Broker,
                "broker",
                format!("shed {}", why.label()),
                self.ctx.runtime().engine().now().as_secs(),
                format!("{why}"),
            );
        }
    }

    /// Submits a request under the default admission budget
    /// ([`BrokerConfig::admission`] applied to the model's prediction).
    pub fn submit(
        &self,
        tenant: &str,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
    ) -> Result<Ticket, Rejected> {
        self.submit_with_deadline(tenant, src, dst, n, None)
    }

    /// Submits a request with an explicit deadline budget in virtual
    /// seconds from now (`None` uses the configured admission policy).
    /// Returns a [`Ticket`] on admission or the typed rejection.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
        deadline: Option<Secs>,
    ) -> Result<Ticket, Rejected> {
        self.c.submitted.fetch_add(1, Ordering::Relaxed);
        let ti = match self.by_name.get(tenant) {
            Some(&i) => i,
            None => {
                let why = Rejected::UnknownTenant {
                    tenant: tenant.to_string(),
                };
                self.shed(None, &self.c.shed_invalid, &why);
                return Err(why);
            }
        };
        self.tc[ti].submitted.fetch_add(1, Ordering::Relaxed);

        // Regime gate: Drain refuses everyone; Shedding refuses
        // best-effort tenants.
        let regime = self.regime.lock().current();
        match regime {
            LoadRegime::Drain => {
                let why = Rejected::Draining;
                self.shed(Some(ti), &self.c.shed_regime, &why);
                return Err(why);
            }
            LoadRegime::Shedding if self.weights[ti] == 0.0 => {
                let why = Rejected::Shed {
                    tenant: tenant.to_string(),
                };
                self.shed(Some(ti), &self.c.shed_regime, &why);
                return Err(why);
            }
            _ => {}
        }

        // Model-predicted service time, inflated when path health has
        // excluded candidates (fewer lanes carry the same bytes).
        let plan = match self.ctx.plan_for(src, dst, n) {
            Ok(p) => p,
            Err(e) => {
                let why = Rejected::Topology(e);
                self.shed(Some(ti), &self.c.shed_invalid, &why);
                return Err(why);
            }
        };
        let sel = self.selection();
        let predicted = match self.ctx.paths_for(src, dst, sel) {
            Ok(paths) => {
                let pair = (src, dst, sel.max_gpu_staged, sel.host_staged);
                let now = self.ctx.runtime().engine().now().as_secs();
                let adm = self.ctx.health().admissions(pair, paths.len(), now);
                let healthy = paths.len().saturating_sub(adm.excluded.len()).max(1);
                plan.predicted_time * paths.len() as f64 / healthy as f64
            }
            Err(e) => {
                let why = Rejected::Topology(e);
                self.shed(Some(ti), &self.c.shed_invalid, &why);
                return Err(why);
            }
        };

        let engine = self.ctx.runtime().engine();
        let mut shards = self.shards.lock();
        let nt = self.tenants.len();
        let shard = shards
            .entry((src, dst))
            .or_insert_with(|| Shard::new(src, dst, nt));

        // Bound check first: a full shard sheds regardless of deadline.
        if shard.queued >= self.cfg.queue_depth {
            let why = Rejected::QueueFull {
                pair: (src, dst),
                depth: self.cfg.queue_depth,
            };
            drop(shards);
            self.shed(Some(ti), &self.c.shed_queue_full, &why);
            return Err(why);
        }

        // Deadline admission at the tenant's *entitled* fair share —
        // computed as if every tenant were backlogged — via a
        // per-tenant virtual-clock shaper. Each admitted request
        // charges the clock `calibration × headroom × predicted /
        // share`: the time its tenant's entitlement needs to pay for
        // it, scaled by how much slower the fabric actually serves
        // this shard than the plan-level model claims (measured from
        // completed flows) plus a safety headroom. That makes the
        // shaper — not queue buildup — the binding constraint under
        // saturation, which is what keeps per-tenant goodput
        // proportional to the configured weights: once queues are deep
        // enough to matter, coalesced dispatch serves whoever is
        // queued and washes the weights out.
        //
        // The tenant's real in-system bytes (queued + in flight),
        // drained at the same calibrated rate, gate the same budget as
        // a closed-loop backstop: the window only reopens when work
        // actually completes, so no amount of residual model optimism
        // can grow the queues without bound.
        //
        // Entitled (rather than instantaneous) shares matter here: a
        // tenant submitting while the others idle must not bank a
        // burst it could not drain at its entitlement once they return
        // — the dispatcher still hands any actually-unused capacity to
        // whoever has work queued.
        let now_secs = engine.now().as_secs();
        let all = vec![true; nt];
        let shares = weighted_shares(&self.weights, &all, regime == LoadRegime::Normal);
        let share = shares[ti].max(1e-9);
        let eff_bw = (n as f64 / predicted.max(1e-12)).max(1.0);
        let rate = (eff_bw * share / (shard.calibration() * CAPACITY_HEADROOM)).max(1.0);
        let vstart = shard.virtual_finish[ti].max(now_secs);
        let in_system = shard.tenant_queued_bytes[ti] + shard.tenant_inflight_bytes[ti];
        let backlog = (vstart - now_secs).max(in_system as f64 / rate);
        let budget = deadline.unwrap_or_else(|| self.cfg.admission.budget(predicted));
        if backlog + predicted > budget {
            let why = Rejected::DeadlineInfeasible {
                predicted,
                backlog,
                budget,
            };
            drop(shards);
            self.shed(Some(ti), &self.c.shed_deadline, &why);
            return Err(why);
        }
        shard.virtual_finish[ti] = vstart + n as f64 / rate;

        // Admitted: enqueue and kick the scheduler.
        self.c.admitted.fetch_add(1, Ordering::Relaxed);
        self.tc[ti]
            .admitted_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let state: TicketState = Arc::new(Mutex::new(None));
        let waker = Waker::new(format!("broker-ticket-{id}"));
        shard.queues[ti].push_back(QueuedReq {
            tenant: ti,
            n,
            submitted_at: engine.now(),
            state: state.clone(),
            waker: waker.clone(),
        });
        shard.queued += 1;
        shard.tenant_queued_bytes[ti] += n as u64;
        self.c
            .queue_peak
            .fetch_max(shard.queued as u64, Ordering::Relaxed);
        let occ = occupancy(&shards, self.cfg.queue_depth);
        drop(shards);
        self.note_regime(occ);
        engine.signal_waker(&self.work);
        Ok(Ticket { id, waker, state })
    }

    /// Feeds an occupancy sample to the regime machine and records any
    /// transition.
    fn note_regime(&self, occ: f64) {
        let transition = self.regime.lock().observe(occ);
        if let Some((from, to)) = transition {
            self.c.regime_changes.fetch_add(1, Ordering::Relaxed);
            let now = self.ctx.runtime().engine().now().as_secs();
            if let Some(rec) = self.ctx.recorder() {
                rec.instant(
                    Phase::Broker,
                    "broker",
                    format!("regime {}", to.label()),
                    now,
                    format!("{} -> {} occupancy={occ:.3}", from.label(), to.label()),
                );
            }
            // Degrading transitions (Normal → Shedding, Shedding →
            // Drain) are anomalies worth a black box; recoveries not.
            if to.as_gauge() > from.as_gauge() {
                if let Some(sink) = self.ctx.anomaly_sink() {
                    sink.signal(
                        TriggerClass::ShedRegime,
                        now,
                        None,
                        None,
                        &format!("{} -> {} occupancy={occ:.3}", from.label(), to.label()),
                    );
                }
            }
        }
    }

    /// The scheduler loop. Run from a dedicated registered sim thread;
    /// returns once every producer has called [`Broker::producer_done`]
    /// and all queues and inflight flows are empty.
    pub fn run(&self, thread: SimThread) {
        let engine = self.ctx.runtime().engine().clone();
        loop {
            let now = thread.now();
            let mut completions: Vec<Completion> = Vec::new();
            let mut earliest: Option<SimTime> = None;
            let idle;
            {
                let mut shards = self.shards.lock();
                for shard in shards.values_mut() {
                    self.reap_shard(shard, now, &mut completions, &mut earliest);
                }
                let occ = occupancy(&shards, self.cfg.queue_depth);
                drop(shards);
                self.note_regime(occ);
                let regime = self.regime.lock().current();
                let mut shards = self.shards.lock();
                for shard in shards.values_mut() {
                    self.dispatch_shard(shard, regime, now, &mut completions, &mut earliest);
                }
                idle = shards
                    .values()
                    .all(|s| s.queued == 0 && s.inflight.is_empty());
            }
            // Resolve tickets outside the shard lock: ticket waiters may
            // immediately re-submit, which takes the same lock.
            for (state, waker, outcome, ti, n) in completions {
                match outcome {
                    Outcome::Completed { .. } => {
                        self.c.completed.fetch_add(1, Ordering::Relaxed);
                        self.tc[ti]
                            .completed_bytes
                            .fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Outcome::Failed { .. } => {
                        self.c.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                *state.lock() = Some(outcome);
                engine.signal_waker(&waker);
            }
            if idle && self.producers.load(Ordering::SeqCst) == 0 {
                return;
            }
            match earliest {
                Some(d) => {
                    let _ = thread.wait_until(&self.work, d);
                }
                None => thread.wait(&self.work),
            }
        }
    }

    /// Completes or times out inflight flows of one shard.
    fn reap_shard(
        &self,
        shard: &mut Shard,
        now: SimTime,
        completions: &mut Vec<Completion>,
        earliest: &mut Option<SimTime>,
    ) {
        let mut i = 0;
        while i < shard.inflight.len() {
            let done = shard.inflight[i].handle.is_complete();
            let expired = !done && now >= shard.inflight[i].deadline;
            if !done && !expired {
                let d = shard.inflight[i].deadline;
                *earliest = Some(earliest.map_or(d, |e| e.min(d)));
                i += 1;
                continue;
            }
            let inf = shard.inflight.swap_remove(i);
            shard.inflight_bytes -= inf.bytes;
            shard.busy_secs += now.secs_since(inf.dispatched_at);
            shard.modeled_busy_secs += inf.modeled;
            if let Some(rec) = self.ctx.recorder() {
                rec.span(
                    Phase::Broker,
                    format!("pair:{}->{}", shard.src, shard.dst),
                    format!("dispatch {}B x{}", inf.bytes, inf.parts.len()),
                    inf.dispatched_at.as_secs(),
                    now.as_secs(),
                    if done { "completed" } else { "stuck-watchdog" },
                );
            }
            for part in inf.parts {
                shard.tenant_inflight_bytes[part.tenant] -= part.n as u64;
                self.sojourn.observe(now.secs_since(part.submitted_at));
                let outcome = if done {
                    Outcome::Completed {
                        latency: now.secs_since(part.submitted_at),
                        bytes: part.n,
                    }
                } else {
                    Outcome::Failed {
                        waited: now.secs_since(part.submitted_at),
                    }
                };
                completions.push((part.state, part.waker, outcome, part.tenant, part.n));
            }
        }
    }

    /// Dispatches as many coalesced flows as the shard's inflight
    /// budget allows.
    fn dispatch_shard(
        &self,
        shard: &mut Shard,
        regime: LoadRegime,
        now: SimTime,
        completions: &mut Vec<Completion>,
        earliest: &mut Option<SimTime>,
    ) {
        let rt = self.ctx.runtime();
        while shard.inflight.len() < self.cfg.max_inflight && shard.queued > 0 {
            let best_effort = regime == LoadRegime::Normal;
            let mut batch = self.next_batch(shard, best_effort, false);
            if batch.is_empty() && shard.inflight.is_empty() {
                // Nothing dispatchable and nothing running: capacity
                // would idle. Serve best-effort work regardless of
                // regime — starving it only makes sense while weighted
                // work is consuming the capacity instead.
                batch = self.next_batch(shard, true, true);
            }
            if batch.is_empty() {
                return;
            }
            let total: usize = batch.iter().map(|r| r.n).sum();
            for r in &batch {
                shard.queued -= 1;
                shard.tenant_queued_bytes[r.tenant] -= r.n as u64;
            }
            let src = rt.alloc(shard.src, total);
            let dst = rt.alloc(shard.dst, total);
            match self
                .ctx
                .put_async_at(&src, 0, &dst, 0, total, std::slice::from_ref(&self.work))
            {
                Ok(handle) => {
                    self.c.dispatches.fetch_add(1, Ordering::Relaxed);
                    if batch.len() > 1 {
                        self.c
                            .coalesced
                            .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
                    }
                    let predicted = self
                        .ctx
                        .plan_for(shard.src, shard.dst, total)
                        .map(|p| p.predicted_time)
                        .unwrap_or(self.cfg.stuck.floor);
                    let deadline = self.cfg.stuck.deadline(now, predicted);
                    *earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
                    for r in &batch {
                        shard.tenant_inflight_bytes[r.tenant] += r.n as u64;
                    }
                    shard.inflight_bytes += total;
                    shard.inflight.push(Inflight {
                        handle,
                        parts: batch,
                        bytes: total,
                        dispatched_at: now,
                        deadline,
                        modeled: predicted,
                        _src: src,
                        _dst: dst,
                    });
                }
                Err(_) => {
                    // Paths vanished between admission and dispatch:
                    // fail the batch rather than wedge it.
                    for part in batch {
                        let outcome = Outcome::Failed {
                            waited: now.secs_since(part.submitted_at),
                        };
                        completions.push((part.state, part.waker, outcome, part.tenant, part.n));
                    }
                }
            }
        }
    }

    /// Selects the next coalesced batch by deficit round robin:
    /// existing credit is spent first, and new credit accrues (bounded)
    /// only while no queued head is covered — so deficits stay bounded
    /// by one head plus one quantum and long-run service tracks the
    /// fair shares. In `forced` mode a non-empty shard always yields
    /// progress, overriding the deficit as a last resort (e.g. every
    /// eligible share is zero).
    fn next_batch(&self, shard: &mut Shard, best_effort: bool, forced: bool) -> Vec<QueuedReq> {
        let nt = self.tenants.len();
        let pending: Vec<bool> = (0..nt).map(|i| !shard.queues[i].is_empty()).collect();
        let shares = weighted_shares(&self.weights, &pending, best_effort);
        let mut batch = Vec::new();
        for round in 0..ACCRUE_ROUNDS {
            collect_batch(shard, self.cfg.coalesce_limit, &mut batch);
            if !batch.is_empty() {
                return batch;
            }
            if shares.iter().all(|&s| s <= 0.0) && round > 0 {
                break; // no eligible tenant: credit will never arrive
            }
            shard.ledger.accrue(&shares, &pending, self.cfg.quantum);
        }
        if forced {
            // Serve the oldest head outright so capacity never idles
            // while work is queued.
            if let Some(ti) = oldest_head(shard) {
                if let Some(req) = shard.queues[ti].pop_front() {
                    batch.push(req);
                }
            }
        }
        batch
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            submitted: self.c.submitted.load(Ordering::Relaxed),
            admitted: self.c.admitted.load(Ordering::Relaxed),
            completed: self.c.completed.load(Ordering::Relaxed),
            failed: self.c.failed.load(Ordering::Relaxed),
            shed_queue_full: self.c.shed_queue_full.load(Ordering::Relaxed),
            shed_deadline: self.c.shed_deadline.load(Ordering::Relaxed),
            shed_regime: self.c.shed_regime.load(Ordering::Relaxed),
            shed_invalid: self.c.shed_invalid.load(Ordering::Relaxed),
            coalesced: self.c.coalesced.load(Ordering::Relaxed),
            dispatches: self.c.dispatches.load(Ordering::Relaxed),
            regime_changes: self.c.regime_changes.load(Ordering::Relaxed),
            queue_peak: self.c.queue_peak.load(Ordering::Relaxed),
            regime: self.regime.lock().current(),
            tenants: self
                .tenants
                .iter()
                .zip(&self.tc)
                .map(|(t, c)| TenantStats {
                    name: t.name.clone(),
                    submitted: c.submitted.load(Ordering::Relaxed),
                    admitted_bytes: c.admitted_bytes.load(Ordering::Relaxed),
                    completed_bytes: c.completed_bytes.load(Ordering::Relaxed),
                    shed: c.shed.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Publishes `broker.*` and `tenant.*` counters into `reg`.
    pub fn fill_registry(&self, reg: &TelemetryRegistry) {
        let s = self.stats();
        reg.set_counter("broker.submitted", s.submitted);
        reg.set_counter("broker.admitted", s.admitted);
        reg.set_counter("broker.completed", s.completed);
        reg.set_counter("broker.failed", s.failed);
        reg.set_counter("broker.shed.queue_full", s.shed_queue_full);
        reg.set_counter("broker.shed.deadline", s.shed_deadline);
        reg.set_counter("broker.shed.regime", s.shed_regime);
        reg.set_counter("broker.shed.invalid", s.shed_invalid);
        reg.set_counter("broker.coalesced", s.coalesced);
        reg.set_counter("broker.dispatches", s.dispatches);
        reg.set_counter("broker.regime_changes", s.regime_changes);
        reg.set_counter("broker.queue_peak", s.queue_peak);
        reg.set_gauge("broker.regime", s.regime.as_gauge());
        reg.set_hist("broker.sojourn_secs", &self.sojourn);
        for t in &s.tenants {
            reg.set_counter(format!("tenant.{}.submitted", t.name), t.submitted);
            reg.set_counter(
                format!("tenant.{}.admitted_bytes", t.name),
                t.admitted_bytes,
            );
            reg.set_counter(
                format!("tenant.{}.completed_bytes", t.name),
                t.completed_bytes,
            );
            reg.set_counter(format!("tenant.{}.shed", t.name), t.shed);
        }
    }
}

/// Worst queued/depth ratio across shards — the regime machine's input.
fn occupancy(shards: &HashMap<(DeviceId, DeviceId), Shard>, depth: usize) -> f64 {
    shards
        .values()
        .map(|s| s.queued as f64 / depth as f64)
        .fold(0.0, f64::max)
}

/// Round robin over tenant queues, spending deficit, until the batch is
/// full or a full pass makes no progress.
fn collect_batch(shard: &mut Shard, limit: usize, batch: &mut Vec<QueuedReq>) {
    let nt = shard.queues.len();
    let mut progress = true;
    while progress && batch.len() < limit {
        progress = false;
        for ti in 0..nt {
            if batch.len() >= limit {
                break;
            }
            let fits = shard.queues[ti]
                .front()
                .is_some_and(|h| shard.ledger.try_spend(ti, h.n as f64));
            if fits {
                batch.push(shard.queues[ti].pop_front().expect("head just observed"));
                progress = true;
            }
        }
    }
}

/// The tenant whose queue head has waited longest.
fn oldest_head(shard: &Shard) -> Option<usize> {
    shard
        .queues
        .iter()
        .enumerate()
        .filter_map(|(i, q)| q.front().map(|h| (i, h.submitted_at)))
        .min_by_key(|&(_, at)| at)
        .map(|(i, _)| i)
}
