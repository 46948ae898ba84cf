//! The UCX-style context: the `cuda_ipc` entry point every GPU-to-GPU
//! message goes through (paper Fig. 2(a)).
//!
//! At construction the context loads the performance model over the node
//! topology (Step 2). Each transfer consults the configured tuning mode
//! (Steps 3–4) — single-path baseline, model-driven dynamic planning, or
//! a statically tuned table — and hands the resulting configuration to
//! the pipeline engine (Step 5).

use crate::compile::{compile_plan, graph_key, GraphCache, GraphStats, MAX_GRAPHS_PER_KEY};
use crate::health::{BreakerEvent, HealthConfig, HealthStats, HealthSupervisor, PathAdmissions};
use crate::pipeline::{execute_plan_at_obs, PathSlot, TransferHandle, TransferObs};
use crate::probe::probe_live;
use crate::recover::{ResilienceCounters, ResilienceStats};
use crate::tuner::{manual_plan, tune_exhaustive, TuneResult};
use mpx_gpu::{Buffer, GpuRuntime, GraphLaunchError, TransferGraph};
use mpx_model::{PairKey, PlanCache, Planner, PlannerConfig, ShardedMap, TransferPlan};
use mpx_obs::{
    AnomalyEngine, Phase, QuantileHist, Recorder, ResidualReport, ResidualTracker,
    TelemetryRegistry, TriggerClass,
};
use mpx_sim::SimThread;
use mpx_topo::path::{enumerate_paths_auto, PathSelection, TransferPath};
use mpx_topo::units::Secs;
use mpx_topo::{DeviceId, TopologyError};
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How transfer configurations are chosen (the three systems compared in
/// Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningMode {
    /// Everything on the direct path — the baseline every figure calls
    /// "Direct Path".
    SinglePath,
    /// Model-driven runtime planning (Algorithm 1) — "Dynamic Path
    /// Distribution".
    Dynamic,
    /// Table of offline exhaustively-tuned configurations — "Static Path
    /// Distribution". Missing entries fall back to the model.
    Static,
}

/// Where the model's per-path Hockney parameters come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamSource {
    /// Read off the hardware description (each leg's narrowest link in
    /// isolation). Fast, but blind to intra-path resource sharing.
    Datasheet,
    /// Calibrated once per (pair, selection) by probing all legs of each
    /// path concurrently — the paper's "dynamically compute the model's
    /// parameters". Captures shared-DRAM/UPI effects (Observation 3).
    Probed,
}

/// Context configuration (the paper's environment variables).
#[derive(Debug, Clone, Copy)]
pub struct UcxConfig {
    /// Which candidate paths are considered.
    pub selection: PathSelection,
    /// How configurations are chosen.
    pub mode: TuningMode,
    /// Where model parameters come from in Dynamic mode.
    pub params: ParamSource,
    /// Model tunables.
    pub planner: PlannerConfig,
    /// Simplex granularity for static tuning.
    pub static_grid: u32,
    /// Relative drift between a plan's predicted bandwidth and the
    /// observed bandwidth beyond which the pair's cached parameters and
    /// plans are invalidated (re-probed on next use). The paper's cache
    /// assumes a quiescent fabric; this is the escape hatch when it
    /// isn't.
    pub drift_tolerance: f64,
    /// Compile plans into replayable transfer graphs and serve repeated
    /// `(pair, size-class)` PUTs from the graph cache (capture →
    /// instantiate → replay, after the follow-up CUDA-Graphs paper).
    /// Off by default: the interpreted pipeline reproduces the source
    /// paper's per-transfer overhead model bit for bit; replay strips
    /// the per-op software costs, which is exactly its point. Misses,
    /// busy pools, and recovery traffic fall back to the interpreter —
    /// see [`UcxContext::put_replayed`] and `DESIGN.md` §4e.
    pub graph_replay: bool,
    /// Path-health supervision tunables (circuit breakers, replay
    /// gating, hedging) — see `DESIGN.md` §4f.
    pub health: HealthConfig,
}

impl Default for UcxConfig {
    fn default() -> Self {
        UcxConfig {
            selection: PathSelection::THREE_GPUS_WITH_HOST,
            mode: TuningMode::Dynamic,
            params: ParamSource::Probed,
            planner: PlannerConfig::default(),
            static_grid: 8,
            drift_tolerance: 0.25,
            graph_replay: false,
            health: HealthConfig::default(),
        }
    }
}

/// A plain (non-resilient) PUT that could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferError {
    /// Planning/topology failure.
    Topology(TopologyError),
    /// The transfer wedged: bytes still unfinished long past the plan's
    /// prediction (three orders of magnitude of slack). The fabric is
    /// degraded — escalate to [`UcxContext::put_resilient`] or
    /// [`UcxContext::put_hedged`].
    Stuck {
        /// Bytes that never landed.
        bytes: u64,
        /// Virtual-time seconds spent waiting.
        elapsed: Secs,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::Topology(e) => write!(f, "transfer planning failed: {e}"),
            TransferError::Stuck { bytes, elapsed } => write!(
                f,
                "transfer stuck: {bytes} bytes unfinished after {elapsed:.6}s; \
                 fabric degraded? escalate to put_resilient or put_hedged"
            ),
        }
    }
}

impl std::error::Error for TransferError {}

impl From<TopologyError> for TransferError {
    fn from(e: TopologyError) -> TransferError {
        TransferError::Topology(e)
    }
}

/// Aggregated plan-cache counters across the context's caching layers
/// (the core planner's configuration cache plus the probed-plan cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served straight from cache.
    pub hits: u64,
    /// Plans computed from scratch.
    pub misses: u64,
    /// Plans realized from a cached size-class entry.
    pub class_hits: u64,
    /// Size-class candidates rejected by the ε guard (exact re-solve).
    pub class_fallbacks: u64,
    /// Drift-triggered cache invalidations.
    pub invalidations: u64,
}

/// The transport context. Cheap to clone (shared internals).
#[derive(Clone)]
pub struct UcxContext {
    inner: Arc<ContextInner>,
}

struct ContextInner {
    rt: GpuRuntime,
    planner: Planner,
    cfg: UcxConfig,
    /// Candidate-path enumeration per pair (read-mostly, sharded).
    paths: ShardedMap<PairKey, Arc<Vec<TransferPath>>>,
    /// Probed-parameter plans, driven through the planner's caching
    /// engine so dynamic planning shares its sharding/quantization logic.
    dynamic: PlanCache,
    /// Probe-calibrated per-pair Hockney parameters.
    probed: ShardedMap<PairKey, Arc<Vec<mpx_topo::params::PathParams>>>,
    static_plans: ShardedMap<(PairKey, usize), Arc<TransferPlan>>,
    /// Fixed share distribution applied when the static table has no
    /// exact entry — the env-var-style policy of the engine in [35] that
    /// collectives run under.
    static_shares: RwLock<Option<Vec<f64>>>,
    /// Compiled transfer graphs, pooled per (pair, size-class key) and
    /// evicted by the same drift signals as the plan caches.
    graphs: GraphCache,
    seq: AtomicU64,
    resilience: ResilienceCounters,
    /// Per-path circuit breakers and replay gating (DESIGN §4f).
    health: HealthSupervisor,
    /// Telemetry recorder, cached from the engine at construction.
    /// `None` keeps every instrumentation site to a single branch.
    obs: Option<Recorder>,
    /// Online predicted-vs-measured residual tracker, fed by the
    /// pipeline's whole-message completion tail.
    residual: Arc<ResidualTracker>,
    /// Anomaly sink installed by harnesses after construction; the
    /// context only *signals* — trigger thresholds, rate limits, and
    /// dump assembly all live in the engine. `None` costs one read lock
    /// per failure event (never on the data path).
    anomaly: RwLock<Option<Arc<AnomalyEngine>>>,
    /// Always-on quantile histograms (lock-free observes, bounded
    /// memory): whole-message transfer latency, planning wall cost, and
    /// the hedged tail each transfer class absorbed.
    hist_transfer: Arc<QuantileHist>,
    hist_plan: Arc<QuantileHist>,
    hist_hedge_win: Arc<QuantileHist>,
}

impl UcxContext {
    /// Creates a context over an existing runtime.
    ///
    /// The engine's telemetry recorder (if any) is cached here, so call
    /// [`mpx_sim::Engine::set_recorder`] *before* constructing contexts.
    pub fn new(rt: GpuRuntime, cfg: UcxConfig) -> UcxContext {
        let planner = Planner::with_config(rt.engine().topology().clone(), cfg.planner);
        let obs = rt.engine().recorder();
        UcxContext {
            inner: Arc::new(ContextInner {
                rt,
                planner,
                cfg,
                paths: ShardedMap::new(),
                dynamic: PlanCache::new(),
                probed: ShardedMap::new(),
                static_plans: ShardedMap::new(),
                static_shares: RwLock::new(None),
                graphs: GraphCache::new(),
                seq: AtomicU64::new(0),
                resilience: ResilienceCounters::default(),
                health: HealthSupervisor::new(cfg.health),
                obs,
                residual: Arc::new(ResidualTracker::new()),
                anomaly: RwLock::new(None),
                hist_transfer: Arc::new(QuantileHist::new()),
                hist_plan: Arc::new(QuantileHist::new()),
                hist_hedge_win: Arc::new(QuantileHist::new()),
            }),
        }
    }

    /// The GPU runtime.
    pub fn runtime(&self) -> &GpuRuntime {
        &self.inner.rt
    }

    /// The loaded performance model.
    pub fn planner(&self) -> &Planner {
        &self.inner.planner
    }

    /// Active configuration.
    pub fn config(&self) -> &UcxConfig {
        &self.inner.cfg
    }

    pub(crate) fn pair_key(&self, src: DeviceId, dst: DeviceId, sel: PathSelection) -> PairKey {
        (src, dst, sel.max_gpu_staged, sel.host_staged)
    }

    /// Cached candidate-path enumeration for a pair.
    pub fn paths_for(
        &self,
        src: DeviceId,
        dst: DeviceId,
        sel: PathSelection,
    ) -> Result<Arc<Vec<TransferPath>>, TopologyError> {
        let key = self.pair_key(src, dst, sel);
        if let Some(p) = self.inner.paths.get(&key, &key) {
            return Ok(p);
        }
        let paths = Arc::new(enumerate_paths_auto(
            self.inner.rt.engine().topology(),
            src,
            dst,
            sel,
        )?);
        self.inner.paths.insert(&key, key, paths.clone());
        Ok(paths)
    }

    /// The effective path selection under the current tuning mode.
    pub(crate) fn effective_selection(&self) -> PathSelection {
        match self.inner.cfg.mode {
            TuningMode::SinglePath => PathSelection::DIRECT_ONLY,
            _ => self.inner.cfg.selection,
        }
    }

    /// Resolves the configuration for an `n`-byte transfer (Fig. 2(a)
    /// Steps 3–4).
    ///
    /// When telemetry is attached, every resolution drops a `plan`
    /// instant on the pair's track recording the wall-clock planning
    /// cost and the chosen configuration — cache hits and misses alike,
    /// so planning-time regressions show up in the trace.
    pub fn plan_for(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
    ) -> Result<Arc<TransferPlan>, TopologyError> {
        // The plan-cost histogram is always on: one clock read and one
        // lock-free observe per resolution, recorder or not.
        let wall = std::time::Instant::now();
        let plan = self.plan_for_inner(src, dst, n)?;
        let wall_secs = wall.elapsed().as_secs_f64();
        self.inner.hist_plan.observe(wall_secs);
        if let Some(rec) = &self.inner.obs {
            rec.instant(
                Phase::Plan,
                format!("pair:{src}->{dst}"),
                format!("plan {n}B"),
                self.inner.rt.engine().now().as_secs(),
                format!(
                    "wall_us={:.1} paths={} predicted_us={:.3}",
                    wall_secs * 1e6,
                    plan.active_path_count(),
                    plan.predicted_time * 1e6
                ),
            );
        }
        Ok(plan)
    }

    fn plan_for_inner(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
    ) -> Result<Arc<TransferPlan>, TopologyError> {
        let sel = self.effective_selection();
        match self.inner.cfg.mode {
            TuningMode::SinglePath => self.inner.planner.plan(src, dst, n, sel),
            TuningMode::Dynamic => match self.inner.cfg.params {
                ParamSource::Datasheet => self.inner.planner.plan(src, dst, n, sel),
                ParamSource::Probed => self.plan_probed(src, dst, n, sel),
            },
            TuningMode::Static => {
                let pair = self.pair_key(src, dst, sel);
                let key = (pair, n);
                if let Some(p) = self.inner.static_plans.get(&pair, &key) {
                    return Ok(p);
                }
                // No exact entry: apply the fixed share policy if one is
                // installed, else fall back to the model.
                let shares = self.inner.static_shares.read().clone();
                match shares {
                    Some(shares) => {
                        let paths = self.paths_for(src, dst, sel)?;
                        let plan = Arc::new(manual_plan(
                            self.inner.rt.engine().topology(),
                            &paths,
                            n,
                            &shares,
                            &self.inner.cfg.planner,
                        )?);
                        self.inner.static_plans.insert(&pair, key, plan.clone());
                        Ok(plan)
                    }
                    None => self.inner.planner.plan(src, dst, n, sel),
                }
            }
        }
    }

    /// Dynamic planning with probe-calibrated parameters, cached in the
    /// context's own [`PlanCache`] through the planner's caching engine
    /// (sharded exact cache plus, when enabled, size-class reuse). Path
    /// enumeration and probing happen inside the solve closure, so a
    /// cache hit touches neither.
    fn plan_probed(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
        sel: PathSelection,
    ) -> Result<Arc<TransferPlan>, TopologyError> {
        let pair = self.pair_key(src, dst, sel);
        let planner = &self.inner.planner;
        planner.plan_in_cache(&self.inner.dynamic, pair, n, || {
            let paths = self.paths_for(src, dst, sel)?;
            let params = match self.inner.probed.get(&pair, &pair) {
                Some(p) => p,
                None => {
                    let eng = self.inner.rt.engine();
                    let p = Arc::new(probe_live(eng, &paths)?);
                    if let Some(rec) = &self.inner.obs {
                        rec.instant(
                            Phase::Probe,
                            format!("pair:{src}->{dst}"),
                            "probe-calibrate",
                            eng.now().as_secs(),
                            format!("paths={}", paths.len()),
                        );
                    }
                    self.inner.probed.insert(&pair, pair, p.clone());
                    p
                }
            };
            Ok(planner.compute_with_params(n, &paths, params.to_vec()))
        })
    }

    /// Runs the exhaustive offline tuner for `(src, dst, n)` and installs
    /// the result in the static table. Returns the tuning result.
    pub fn tune_static(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
    ) -> Result<TuneResult, TopologyError> {
        let sel = self.effective_selection();
        let result = tune_exhaustive(
            self.inner.rt.engine().topology(),
            src,
            dst,
            n,
            sel,
            &self.inner.cfg.planner,
            self.inner.cfg.static_grid,
        )?;
        let pair = self.pair_key(src, dst, sel);
        self.inner
            .static_plans
            .insert(&pair, (pair, n), result.plan.clone());
        if let Some(rec) = &self.inner.obs {
            rec.instant(
                Phase::Tune,
                format!("pair:{src}->{dst}"),
                format!("tune-static {n}B"),
                self.inner.rt.engine().now().as_secs(),
                format!(
                    "grid={} predicted_us={:.3}",
                    self.inner.cfg.static_grid,
                    result.plan.predicted_time * 1e6
                ),
            );
        }
        Ok(result)
    }

    /// Discards all probe-calibrated parameters and dynamically computed
    /// plans; the next transfer re-probes against the fabric's *current*
    /// link capacities. Call after the fabric changed
    /// (`Engine::set_link_capacity`) — this is the runtime adaptivity
    /// that offline static tuning cannot offer.
    pub fn recalibrate(&self) {
        self.inner.probed.clear();
        self.inner.dynamic.clear();
        // Compiled graphs bake in chunk schedules derived from the old
        // parameters; drop them wholesale with the plans.
        self.inner.graphs.clear();
    }

    /// Installs a fixed share distribution (one fraction per candidate
    /// path, direct first, summing to 1) applied to every transfer the
    /// static table has no exact entry for.
    pub fn install_static_shares(&self, shares: Vec<f64>) {
        *self.inner.static_shares.write() = Some(shares);
    }

    /// Installs an externally computed plan in the static table.
    pub fn install_static_plan(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
        plan: Arc<TransferPlan>,
    ) {
        let sel = self.effective_selection();
        let pair = self.pair_key(src, dst, sel);
        self.inner.static_plans.insert(&pair, (pair, n), plan);
    }

    /// Starts an asynchronous `n`-byte PUT of `src[..n]` into `dst[..n]`
    /// (both GPU buffers). Returns immediately. When
    /// [`UcxConfig::graph_replay`] is on, repeated transfers are served
    /// by compiled-graph replay transparently.
    pub fn put_async(
        &self,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
    ) -> Result<TransferHandle, TopologyError> {
        self.put_inner(src, 0, dst, 0, n, &[], false)
    }

    /// Like [`UcxContext::put_async`], additionally firing every waker in
    /// `notify` once the whole message has landed — the completion hook
    /// the MPI layer attaches send/receive requests to.
    pub fn put_async_notify(
        &self,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
        notify: &[mpx_sim::Waker],
    ) -> Result<TransferHandle, TopologyError> {
        self.put_inner(src, 0, dst, 0, n, notify, false)
    }

    /// The most general PUT: `n` bytes from `src[src_off..]` into
    /// `dst[dst_off..]` with whole-message completion wakers. Collectives
    /// transmit buffer slices through this.
    #[allow(clippy::too_many_arguments)]
    pub fn put_async_at(
        &self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        n: usize,
        notify: &[mpx_sim::Waker],
    ) -> Result<TransferHandle, TopologyError> {
        self.put_inner(src, src_off, dst, dst_off, n, notify, false)
    }

    /// An asynchronous PUT forced through the compiled-graph fast path
    /// regardless of [`UcxConfig::graph_replay`]: the plan is compiled on
    /// first use and replayed afterwards. Falls back to the interpreted
    /// pipeline only when the graph pool is exhausted (every pooled
    /// instance mid-replay at the [`MAX_GRAPHS_PER_KEY`] cap) or the
    /// buffers don't fit the captured shape — the transfer itself never
    /// fails for graph reasons.
    pub fn put_replayed(
        &self,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
    ) -> Result<TransferHandle, TopologyError> {
        self.put_inner(src, 0, dst, 0, n, &[], true)
    }

    /// Every PUT funnels through here: plan (cached), resolve paths,
    /// then either replay a compiled graph or interpret the plan.
    /// The graph path still goes through [`UcxContext::plan_for`], so
    /// plan-cache counters and drift detection see identical traffic
    /// whichever executor runs the bytes.
    #[allow(clippy::too_many_arguments)]
    fn put_inner(
        &self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        n: usize,
        notify: &[mpx_sim::Waker],
        force_graph: bool,
    ) -> Result<TransferHandle, TopologyError> {
        // Fast-path guard: on a healthy fabric with every breaker Closed
        // the supervision layer costs two relaxed atomic loads and one
        // lock-free engine flag — nothing else.
        let hcfg = &self.inner.cfg.health;
        let suspect = hcfg.enabled
            && (!self.inner.health.is_quiet() || self.inner.rt.engine().any_link_down());
        if suspect {
            if let Some(h) = self.put_supervised(src, src_off, dst, dst_off, n, notify)? {
                return Ok(h);
            }
            // No exclusions after all (e.g. the down link serves other
            // pairs, or every open breaker just flipped to a half-open
            // probe): fall through to the normal path.
        }
        let plan = self.plan_for(src.device(), dst.device(), n)?;
        let paths = self.paths_for(src.device(), dst.device(), self.effective_selection())?;
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        if self.inner.cfg.graph_replay || force_graph {
            // Breaker-open or drift-gated pairs never serve replays: a
            // compiled graph would put bytes straight back on the sick
            // path. `is_quiet` short-circuits the per-pair scan on a
            // healthy fabric.
            let replay_ok = !hcfg.enabled || self.inner.health.is_quiet() || {
                let pair = self.pair_key(src.device(), dst.device(), self.effective_selection());
                let now = self.inner.rt.engine().now().as_secs();
                let allowed = self.inner.health.replay_allowed(pair, now);
                if !allowed {
                    self.inner.health.note_replay_gated();
                    self.inner.graphs.invalidate_pair(&pair);
                }
                allowed
            };
            if replay_ok {
                if let Some(h) =
                    self.try_replay(&plan, &paths, src, src_off, dst, dst_off, seq, notify)
                {
                    return Ok(h);
                }
                self.inner.graphs.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(execute_plan_at_obs(
            &self.inner.rt,
            &plan,
            &paths,
            src,
            src_off,
            dst,
            dst_off,
            seq,
            notify,
            self.transfer_obs(src.device(), dst.device()),
        ))
    }

    /// The supervised planning path, taken only when a breaker is open
    /// somewhere or a link is down: trips breakers on dead routes,
    /// collects this pair's exclusions, and — when any exist — plans the
    /// transfer over the surviving candidates only (order-preserving, as
    /// `Planner::plan_excluding` guarantees). Returns `Ok(None)` when
    /// the pair has no exclusions and the normal cached path should run.
    #[allow(clippy::too_many_arguments)]
    fn put_supervised(
        &self,
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        n: usize,
        notify: &[mpx_sim::Waker],
    ) -> Result<Option<TransferHandle>, TopologyError> {
        let sel = self.effective_selection();
        let pair = self.pair_key(src.device(), dst.device(), sel);
        let eng = self.inner.rt.engine();
        let paths = self.paths_for(src.device(), dst.device(), sel)?;
        let now = eng.now().as_secs();
        let adm = self.inner.health.admissions(pair, paths.len(), now);
        self.health_record_probes(
            &format!("pair:{}->{}", src.device(), dst.device()),
            &adm,
            now,
        );
        let mut excluded = adm.excluded;
        if eng.any_link_down() {
            for (i, p) in paths.iter().enumerate() {
                if excluded.contains(&i) {
                    continue;
                }
                if p.legs
                    .iter()
                    .any(|leg| leg.route.iter().any(|&l| !eng.link_is_up(l)))
                {
                    self.health_path_failure(pair, i, p, "link-down");
                    excluded.push(i);
                }
            }
        }
        if excluded.is_empty() {
            return Ok(None);
        }
        let mut survivors: Vec<TransferPath> = Vec::new();
        let mut orig_idx: Vec<usize> = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            if !excluded.contains(&i) {
                survivors.push(p.clone());
                orig_idx.push(i);
            }
        }
        if survivors.is_empty() {
            return Err(TopologyError::NoUsablePath(src.device(), dst.device()));
        }
        // Deliberately uncached: the fabric is in flux, and a cached
        // survivor plan would outlive the exclusions that shaped it.
        let plan = self.inner.planner.compute(n, &survivors)?;
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let mut h = execute_plan_at_obs(
            &self.inner.rt,
            &plan,
            &survivors,
            src,
            src_off,
            dst,
            dst_off,
            seq,
            notify,
            self.transfer_obs(src.device(), dst.device()),
        );
        h.remap_path_indices(&orig_idx);
        Ok(Some(h))
    }

    /// The replay fast path: find (or capture) a compiled graph for the
    /// transfer's (pair, graph key) and launch it. `None` means the
    /// caller should interpret instead — pool exhausted or shape
    /// mismatch; never an error.
    #[allow(clippy::too_many_arguments)]
    fn try_replay(
        &self,
        plan: &TransferPlan,
        paths: &[TransferPath],
        src: &Buffer,
        src_off: usize,
        dst: &Buffer,
        dst_off: usize,
        seq: u64,
        notify: &[mpx_sim::Waker],
    ) -> Option<TransferHandle> {
        let pair = self.pair_key(src.device(), dst.device(), self.effective_selection());
        let gc = &self.inner.graphs;
        let key = graph_key(&self.inner.cfg.planner.size_classes, plan.n);
        let pool = gc.pool(&pair, key, plan.n, src.is_synthetic());

        // Per-replay first-copy cost: one graph launch plus whatever the
        // IPC cache still charges for this destination handle. The per-op
        // launch/ε/rendezvous/initiation costs the interpreter would add
        // were compiled away — that is the point of replay.
        let oh = self.inner.rt.engine().topology().overheads;
        let first_extra = oh.copy_launch + self.inner.rt.ipc().open_cost(src.device().0, dst.id());

        // Telemetry tail, rebuilt per launch attempt (FnOnce).
        let make_hook = || -> Option<mpx_sim::EventFn> {
            self.inner.obs.as_ref().map(|rec| {
                let rec = rec.clone();
                let track = format!("pair:{}->{}", src.device(), dst.device());
                let issue = self.inner.rt.engine().now().as_secs();
                let predicted = plan.predicted_time;
                let n = plan.n;
                Box::new(move |ctx: &mut mpx_sim::Ctx<'_>| {
                    let end = ctx.now().as_secs();
                    rec.span(
                        Phase::GraphReplay,
                        track,
                        format!("replay xfer{seq} {n}B"),
                        issue,
                        end,
                        format!(
                            "predicted_us={:.3} measured_us={:.3}",
                            predicted * 1e6,
                            (end - issue) * 1e6
                        ),
                    );
                }) as mpx_sim::EventFn
            })
        };
        let wrap = |g: &TransferGraph, wakers: Vec<mpx_sim::Waker>| {
            gc.replays.fetch_add(1, Ordering::Relaxed);
            let slots = g
                .ends()
                .iter()
                .map(|e| PathSlot {
                    path_index: e.path_index,
                    offset: e.offset,
                    bytes: e.bytes,
                })
                .collect();
            TransferHandle::from_parts(wakers, slots, plan.n)
        };

        let snapshot: Vec<Arc<TransferGraph>> = pool.graphs.lock().clone();
        for g in &snapshot {
            match g.launch(src, src_off, dst, dst_off, first_extra, notify, make_hook()) {
                Ok(w) => return Some(wrap(g, w)),
                Err(GraphLaunchError::Busy) => continue,
                Err(GraphLaunchError::Mismatch(_)) => return None,
            }
        }
        // Every pooled instance is mid-replay (deep transfer windows) or
        // the pool is empty: capture another, up to the cap.
        if snapshot.len() >= MAX_GRAPHS_PER_KEY {
            return None;
        }
        let wall = std::time::Instant::now();
        let g = Arc::new(compile_plan(
            &self.inner.rt,
            plan,
            paths,
            src.device(),
            dst.device(),
            src.is_synthetic(),
        ));
        gc.captures.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = &self.inner.obs {
            rec.instant(
                Phase::GraphCapture,
                format!("pair:{}->{}", src.device(), dst.device()),
                format!("capture g{} {}B", g.id(), plan.n),
                self.inner.rt.engine().now().as_secs(),
                format!(
                    "wall_us={:.1} pool_size={}",
                    wall.elapsed().as_secs_f64() * 1e6,
                    snapshot.len() + 1
                ),
            );
        }
        match g.launch(src, src_off, dst, dst_off, first_extra, notify, make_hook()) {
            Ok(w) => {
                pool.graphs.lock().push(g.clone());
                Some(wrap(&g, w))
            }
            // A fresh graph can only be refused on a shape race (the
            // buffers changed class under us). Interpret this one — and
            // treat the failed replay as a health signal: gate the
            // pair's replays for a window and drop its pool.
            Err(_) => {
                if self.inner.cfg.health.enabled {
                    let now = self.inner.rt.engine().now().as_secs();
                    self.inner.health.suspend_replay(pair, now);
                    self.inner.graphs.invalidate_pair(&pair);
                    if let Some(rec) = &self.inner.obs {
                        rec.instant(
                            Phase::Health,
                            format!("pair:{}->{}", src.device(), dst.device()),
                            "replay-failure",
                            now,
                            format!("graph=g{} n={}", g.id(), plan.n),
                        );
                    }
                }
                None
            }
        }
    }

    /// Counters of the degradation-aware runtime (retries, re-plans,
    /// deadline misses, drift-triggered cache invalidations).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.inner.resilience.snapshot()
    }

    /// Aggregated plan-cache counters (core planner cache + probed-plan
    /// cache) — the telemetry the CLI surfaces. `invalidations` counts
    /// drift *events* (each may purge several caches), matching
    /// [`ResilienceStats::cache_invalidations`]. Reads atomics only;
    /// never blocks concurrent planning.
    pub fn cache_stats(&self) -> CacheStats {
        let s = self
            .inner
            .planner
            .stats()
            .merged(self.inner.dynamic.stats());
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            class_hits: s.class_hits,
            class_fallbacks: s.class_fallbacks,
            invalidations: self
                .inner
                .resilience
                .cache_invalidations
                .load(Ordering::Relaxed),
        }
    }

    pub(crate) fn resilience(&self) -> &ResilienceCounters {
        &self.inner.resilience
    }

    /// Snapshot of the compiled-graph cache counters: captures, replays,
    /// interpreted fallbacks, and invalidation sweeps.
    pub fn graph_stats(&self) -> GraphStats {
        self.inner.graphs.stats()
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The telemetry recorder cached at construction, if the engine had
    /// one installed. `None` means every instrumentation site in this
    /// context is a single never-taken branch.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.obs.as_ref()
    }

    /// The online predicted-vs-measured residual tracker. Only fed when
    /// telemetry is attached (the pipeline's completion tail records one
    /// sample per whole message).
    pub fn residuals(&self) -> &Arc<ResidualTracker> {
        &self.inner.residual
    }

    /// Installs the anomaly engine this context's failure signals feed
    /// (breaker trips, stuck transfers, deadline misses, residual
    /// drift). Without a sink, signaling is a read lock and a branch.
    pub fn set_anomaly_sink(&self, sink: Arc<AnomalyEngine>) {
        *self.inner.anomaly.write() = Some(sink);
    }

    /// The installed anomaly sink, if any.
    pub fn anomaly_sink(&self) -> Option<Arc<AnomalyEngine>> {
        self.inner.anomaly.read().clone()
    }

    /// Routes one failure signal to the installed anomaly sink (no-op
    /// without one), stamped with the engine's current virtual time.
    pub(crate) fn anomaly_signal(
        &self,
        class: TriggerClass,
        pair: Option<&str>,
        path: Option<usize>,
        cause: &str,
    ) {
        let sink = self.inner.anomaly.read().clone();
        if let Some(sink) = sink {
            let now = self.inner.rt.engine().now().as_secs();
            sink.signal(class, now, pair, path, cause);
        }
    }

    /// The always-on whole-message transfer-latency histogram.
    pub fn transfer_latency_hist(&self) -> &Arc<QuantileHist> {
        &self.inner.hist_transfer
    }

    /// The always-on planning-wall-cost histogram.
    pub fn plan_cost_hist(&self) -> &Arc<QuantileHist> {
        &self.inner.hist_plan
    }

    /// The hedged-tail histogram: seconds past the plan's prediction at
    /// which winning hedged transfers finally completed.
    pub fn hedge_win_hist(&self) -> &Arc<QuantileHist> {
        &self.inner.hist_hedge_win
    }

    /// Renders the residual tracker's per-pair, per-size-class error
    /// table — the online counterpart of the paper's offline error
    /// tables.
    pub fn residual_report(&self) -> ResidualReport {
        self.inner.residual.report()
    }

    /// Publishes the context's counters into a [`TelemetryRegistry`]
    /// under `ucx.cache.*`, `ucx.resilience.*`, and `ucx.residual.*`.
    pub fn fill_registry(&self, reg: &TelemetryRegistry) {
        let c = self.cache_stats();
        reg.set_counter("ucx.cache.hits", c.hits);
        reg.set_counter("ucx.cache.misses", c.misses);
        reg.set_counter("ucx.cache.class_hits", c.class_hits);
        reg.set_counter("ucx.cache.class_fallbacks", c.class_fallbacks);
        reg.set_counter("ucx.cache.invalidations", c.invalidations);
        let r = self.resilience_stats();
        reg.set_counter("ucx.resilience.retries", r.retries);
        reg.set_counter("ucx.resilience.replans", r.replans);
        reg.set_counter("ucx.resilience.timeouts", r.timeouts);
        reg.set_counter("ucx.resilience.cache_invalidations", r.cache_invalidations);
        let g = self.graph_stats();
        reg.set_counter("ucx.graph.captures", g.captures);
        reg.set_counter("ucx.graph.replays", g.replays);
        reg.set_counter("ucx.graph.fallbacks", g.fallbacks);
        reg.set_counter("ucx.graph.invalidations", g.invalidations);
        reg.set_counter("ucx.residual.samples", self.inner.residual.count());
        reg.set_gauge(
            "ucx.residual.mean_abs_error_pct",
            self.inner.residual.mean_abs_error() * 100.0,
        );
        let h = self.inner.health.stats();
        reg.set_counter("health.trips", h.trips);
        reg.set_counter("health.retrips", h.retrips);
        reg.set_counter("health.resets", h.resets);
        reg.set_counter("health.probes", h.probes);
        reg.set_counter("health.breakers_open", h.breakers_open);
        reg.set_counter("health.replays_gated", h.replays_gated);
        reg.set_counter("health.hedges", h.hedges);
        reg.set_counter("health.hedge_wins", h.hedge_wins);
        reg.set_hist("ucx.transfer.latency_secs", &self.inner.hist_transfer);
        reg.set_hist("ucx.plan.cost_secs", &self.inner.hist_plan);
        reg.set_hist("ucx.hedge.win_margin_secs", &self.inner.hist_hedge_win);
    }

    /// Bundles the recorder and residual tracker into the per-transfer
    /// handle the pipeline's completion tail consumes.
    pub(crate) fn transfer_obs(&self, src: DeviceId, dst: DeviceId) -> Option<TransferObs> {
        self.inner.obs.as_ref().map(|rec| TransferObs {
            rec: rec.clone(),
            residual: self.inner.residual.clone(),
            hist: self.inner.hist_transfer.clone(),
            pair: format!("{src}->{dst}"),
        })
    }

    /// Feeds back an observed end-to-end bandwidth for an `n`-byte
    /// `src → dst` transfer. If it drifts from the cached plan's
    /// prediction by more than [`UcxConfig::drift_tolerance`], the pair's
    /// probed parameters and dynamic plans are dropped so the next
    /// transfer re-probes the fabric's *current* state. Returns whether
    /// an invalidation happened.
    pub fn record_observation(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
        observed_bw: f64,
    ) -> bool {
        if !(observed_bw > 0.0 && observed_bw.is_finite()) {
            return false;
        }
        let sel = self.effective_selection();
        let pair = self.pair_key(src, dst, sel);
        let predicted = match self.plan_for(src, dst, n) {
            Ok(plan) => plan.predicted_bandwidth,
            Err(_) => return false,
        };
        if !(predicted > 0.0 && predicted.is_finite()) {
            return false;
        }
        let drift = (observed_bw - predicted).abs() / predicted;
        if drift <= self.inner.cfg.drift_tolerance {
            return false;
        }
        // Purge everything derived from the stale parameters, one shard
        // per cache — concurrent planning for other pairs never blocks.
        self.inner.probed.remove(&pair, &pair);
        self.inner.dynamic.invalidate_pair(pair);
        self.inner.planner.invalidate_pair(pair);
        self.inner.graphs.invalidate_pair(&pair);
        self.inner
            .resilience
            .cache_invalidations
            .fetch_add(1, Ordering::Relaxed);
        // Sustained drift is a health signal too: enough strikes within
        // a window and the pair's graph replays are gated until the
        // fabric holds still (heals automatically after a quiet window).
        if self.inner.cfg.health.enabled {
            let now = self.inner.rt.engine().now().as_secs();
            if self.inner.health.note_drift(pair, now) {
                if let Some(rec) = &self.inner.obs {
                    rec.instant(
                        Phase::Health,
                        format!("pair:{src}->{dst}"),
                        "replay-gate",
                        now,
                        format!("drift_strikes={}", self.inner.cfg.health.drift_strikes),
                    );
                }
            }
        }
        if let Some(rec) = &self.inner.obs {
            // Make the invalidation explainable: cite the drift that
            // tripped it and what the residual tracker has seen for the
            // pair so far.
            let pair_label = format!("{src}->{dst}");
            let residual = match self.inner.residual.pair_stats(&pair_label) {
                Some(s) => format!(
                    " residual_p50_pct={:.1} residual_samples={}",
                    s.p50_abs_pct, s.count
                ),
                None => String::new(),
            };
            rec.instant(
                Phase::Recovery,
                format!("pair:{pair_label}"),
                "cache-invalidate",
                self.inner.rt.engine().now().as_secs(),
                format!(
                    "drift_pct={:.1} tolerance_pct={:.1}{residual}",
                    drift * 100.0,
                    self.inner.cfg.drift_tolerance * 100.0
                ),
            );
        }
        self.anomaly_signal(
            TriggerClass::ResidualDrift,
            Some(&format!("{src}->{dst}")),
            None,
            &format!(
                "drift_pct={:.1} tolerance_pct={:.1}",
                drift * 100.0,
                self.inner.cfg.drift_tolerance * 100.0
            ),
        );
        true
    }

    /// Blocking PUT from a simulated rank thread.
    ///
    /// Guarded: waits with a deadline three orders of magnitude beyond
    /// the plan's prediction, then returns [`TransferError::Stuck`] with
    /// the residual byte count instead of hanging the rank thread
    /// forever. A stuck PUT charges the stalled paths' circuit breakers,
    /// so even plain traffic feeds the supervision layer. Callers that
    /// want in-line recovery use [`UcxContext::put_resilient`] or
    /// [`UcxContext::put_hedged`].
    pub fn put(
        &self,
        thread: &SimThread,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
    ) -> Result<(), TransferError> {
        let plan = self.plan_for(src.device(), dst.device(), n)?;
        let pair = self.pair_key(src.device(), dst.device(), self.effective_selection());
        let t0 = thread.now();
        let h = self.put_async(src, dst, n)?;
        let deadline = crate::deadline::DeadlinePolicy::STUCK.deadline(t0, plan.predicted_time);
        match h.wait_deadline(thread, deadline) {
            Ok(()) => {
                self.health_mark_success(pair, &h);
                Ok(())
            }
            Err(_) => {
                let mut bytes = 0u64;
                let paths = self.paths_for(src.device(), dst.device(), self.effective_selection());
                for s in h.unfinished() {
                    bytes += s.bytes as u64;
                    if let Ok(paths) = &paths {
                        self.health_path_failure(
                            pair,
                            s.path_index,
                            &paths[s.path_index],
                            "stuck-put",
                        );
                    }
                }
                let elapsed = thread.now().secs_since(t0);
                self.anomaly_signal(
                    TriggerClass::StuckTransfer,
                    Some(&format!("{}->{}", src.device(), dst.device())),
                    h.unfinished().first().map(|s| s.path_index),
                    &format!("bytes={bytes} elapsed_us={:.3}", elapsed * 1e6),
                );
                Err(TransferError::Stuck { bytes, elapsed })
            }
        }
    }

    /// The path-health supervisor: breaker states, admissions, counter
    /// snapshots.
    pub fn health(&self) -> &HealthSupervisor {
        &self.inner.health
    }

    /// Snapshot of the supervision counters.
    pub fn health_stats(&self) -> HealthStats {
        self.inner.health.stats()
    }

    /// Charges one failure against `(pair, path)`. Routes over a down
    /// link trip immediately; anything else accumulates strikes. Breaker
    /// transitions become `breaker.*` instants, and a trip purges the
    /// pair's compiled-graph pool so no replay revisits the sick path.
    pub(crate) fn health_path_failure(
        &self,
        pair: PairKey,
        path_index: usize,
        path: &TransferPath,
        why: &str,
    ) {
        if !self.inner.cfg.health.enabled {
            return;
        }
        let eng = self.inner.rt.engine();
        let now = eng.now().as_secs();
        let dead = path
            .legs
            .iter()
            .any(|leg| leg.route.iter().any(|&l| !eng.link_is_up(l)));
        let ev = if dead {
            self.inner.health.trip(pair, path_index, now)
        } else {
            self.inner.health.note_failure(pair, path_index, now)
        };
        match ev {
            BreakerEvent::Tripped | BreakerEvent::Retripped => {
                self.inner.graphs.invalidate_pair(&pair);
                let pair_label = format!("{}->{}", pair.0, pair.1);
                if let Some(rec) = &self.inner.obs {
                    rec.instant(
                        Phase::Health,
                        format!("pair:{pair_label}"),
                        if ev == BreakerEvent::Tripped {
                            "breaker.trip"
                        } else {
                            "breaker.retrip"
                        },
                        now,
                        format!("path={path_index} why={why} dead_link={dead}"),
                    );
                }
                self.anomaly_signal(
                    if ev == BreakerEvent::Tripped {
                        TriggerClass::BreakerTrip
                    } else {
                        TriggerClass::BreakerRetrip
                    },
                    Some(&pair_label),
                    Some(path_index),
                    &format!("why={why} dead_link={dead}"),
                );
            }
            BreakerEvent::Reset | BreakerEvent::None => {}
        }
    }

    /// Credits every active path of a cleanly completed handle; a
    /// half-open breaker meeting its trial quota closes here (with a
    /// `breaker.reset` instant).
    pub(crate) fn health_mark_success(&self, pair: PairKey, h: &TransferHandle) {
        if !self.inner.cfg.health.enabled {
            return;
        }
        for s in h.slots() {
            if self.inner.health.note_success(pair, s.path_index) == BreakerEvent::Reset {
                if let Some(rec) = &self.inner.obs {
                    rec.instant(
                        Phase::Health,
                        format!("pair:{}->{}", pair.0, pair.1),
                        "breaker.reset",
                        self.inner.rt.engine().now().as_secs(),
                        format!("path={}", s.path_index),
                    );
                }
            }
        }
    }

    /// Records a `breaker.probe` instant for each Open → HalfOpen
    /// re-admission an admissions query just performed.
    pub(crate) fn health_record_probes(&self, track: &str, adm: &PathAdmissions, now: Secs) {
        if adm.probing.is_empty() {
            return;
        }
        if let Some(rec) = &self.inner.obs {
            for &i in &adm.probing {
                rec.instant(
                    Phase::Health,
                    track.to_string(),
                    "breaker.probe",
                    now,
                    format!("path={i} trials={}", self.inner.cfg.health.half_open_trials),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_sim::Engine;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;

    fn ctx(mode: TuningMode) -> UcxContext {
        let topo = Arc::new(presets::beluga());
        let rt = GpuRuntime::new(Engine::new(topo));
        UcxContext::new(
            rt,
            UcxConfig {
                mode,
                ..UcxConfig::default()
            },
        )
    }

    #[test]
    fn single_path_mode_plans_direct_only() {
        let c = ctx(TuningMode::SinglePath);
        let gpus = c.runtime().engine().topology().gpus();
        let plan = c.plan_for(gpus[0], gpus[1], 64 * MIB).unwrap();
        assert_eq!(plan.paths.len(), 1);
        assert_eq!(plan.paths[0].share_bytes, 64 * MIB);
    }

    #[test]
    fn dynamic_mode_uses_all_paths_for_large_n() {
        let c = ctx(TuningMode::Dynamic);
        let gpus = c.runtime().engine().topology().gpus();
        let plan = c.plan_for(gpus[0], gpus[1], 256 * MIB).unwrap();
        assert_eq!(plan.active_path_count(), 4);
    }

    #[test]
    fn static_mode_falls_back_to_model_then_uses_table() {
        let c = ctx(TuningMode::Static);
        let gpus = c.runtime().engine().topology().gpus();
        let fallback = c.plan_for(gpus[0], gpus[1], 4 * MIB).unwrap();
        assert!(fallback.active_path_count() >= 1);
        let tuned = c.tune_static(gpus[0], gpus[1], 4 * MIB).unwrap();
        let from_table = c.plan_for(gpus[0], gpus[1], 4 * MIB).unwrap();
        assert!(Arc::ptr_eq(&tuned.plan, &from_table));
    }

    #[test]
    fn put_moves_data_end_to_end() {
        let c = ctx(TuningMode::Dynamic);
        let gpus = c.runtime().engine().topology().gpus();
        let n = 2 * MIB + 9;
        let data: Vec<u8> = (0..n).map(|i| (i * 31 % 256) as u8).collect();
        let src = c.runtime().alloc_bytes(gpus[0], data.clone());
        let dst = c.runtime().alloc_zeroed(gpus[1], n);
        let h = c.put_async(&src, &dst, n).unwrap();
        c.runtime().engine().run_until_idle();
        assert!(h.is_complete());
        assert_eq!(dst.to_vec().unwrap(), data);
    }

    #[test]
    fn blocking_put_from_thread() {
        let c = ctx(TuningMode::Dynamic);
        let gpus = c.runtime().engine().topology().gpus();
        let n = 32 * MIB;
        let src = c.runtime().alloc(gpus[0], n);
        let dst = c.runtime().alloc(gpus[1], n);
        let t = c.runtime().engine().register_thread("rank0");
        let c2 = c.clone();
        let h = std::thread::spawn(move || {
            c2.put(&t, &src, &dst, n).unwrap();
            t.now().as_secs()
        });
        let elapsed = h.join().unwrap();
        assert!(elapsed > 0.0);
        // Multi-path: faster than the direct link alone would allow.
        let direct_floor = n as f64 / 48e9;
        assert!(elapsed < direct_floor, "no multi-path speedup observed");
    }

    #[test]
    fn path_cache_is_reused() {
        let c = ctx(TuningMode::Dynamic);
        let gpus = c.runtime().engine().topology().gpus();
        let a = c
            .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
            .unwrap();
        let b = c
            .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn telemetry_records_plan_transfer_and_residual() {
        let topo = Arc::new(presets::beluga());
        let eng = Engine::new(topo);
        let rec = mpx_obs::Recorder::new();
        eng.set_recorder(rec.clone());
        let rt = GpuRuntime::new(eng);
        let c = UcxContext::new(rt, UcxConfig::default());
        assert!(c.recorder().is_some());
        let gpus = c.runtime().engine().topology().gpus();
        let n = 8 * MIB;
        let src = c.runtime().alloc(gpus[0], n);
        let dst = c.runtime().alloc(gpus[1], n);
        let h = c.put_async(&src, &dst, n).unwrap();
        c.runtime().engine().run_until_idle();
        assert!(h.is_complete());
        let events = rec.drain();
        for phase in [
            mpx_obs::Phase::Plan,
            mpx_obs::Phase::Probe,
            mpx_obs::Phase::Transfer,
            mpx_obs::Phase::ChunkLeg,
        ] {
            assert!(
                events.iter().any(|e| e.phase() == phase),
                "missing {phase:?} event"
            );
        }
        // The whole-message tail fed the residual tracker exactly once.
        assert_eq!(c.residuals().count(), 1);
        assert_eq!(c.residual_report().rows.len(), 1);
        // The model should be close on a quiescent fabric.
        assert!(c.residuals().mean_abs_error() < 0.5);
    }

    #[test]
    fn without_recorder_no_residuals_are_tracked() {
        let c = ctx(TuningMode::Dynamic);
        let gpus = c.runtime().engine().topology().gpus();
        let n = 4 * MIB;
        let src = c.runtime().alloc(gpus[0], n);
        let dst = c.runtime().alloc(gpus[1], n);
        let h = c.put_async(&src, &dst, n).unwrap();
        c.runtime().engine().run_until_idle();
        assert!(h.is_complete());
        assert!(c.recorder().is_none());
        assert_eq!(c.residuals().count(), 0);
    }

    #[test]
    fn anomaly_sink_receives_breaker_trip_with_pair_and_path() {
        let c = ctx(TuningMode::Dynamic);
        let fr = mpx_obs::FlightRecorder::new(1024);
        let sink = Arc::new(AnomalyEngine::new(fr, mpx_obs::AnomalyConfig::default()));
        c.set_anomaly_sink(sink.clone());
        let gpus = c.runtime().engine().topology().gpus();
        let sel = c.effective_selection();
        let pair = c.pair_key(gpus[0], gpus[1], sel);
        let paths = c.paths_for(gpus[0], gpus[1], sel).unwrap();
        // A dead link trips the breaker immediately, which must fire
        // the sink's breaker.trip trigger with full attribution.
        let link = paths[0].legs[0].route[0];
        c.runtime().engine().set_link_down(link);
        c.health_path_failure(pair, 0, &paths[0], "test-kill");
        assert_eq!(sink.fired(), 1);
        let dumps = sink.dumps();
        assert_eq!(dumps[0].trigger, "breaker.trip");
        assert_eq!(dumps[0].pair.as_deref(), Some("dev0->dev1"));
        assert_eq!(dumps[0].path, Some(0));
        assert!(dumps[0].cause.contains("test-kill"));
    }

    #[test]
    fn latency_and_plan_histograms_fill_and_publish() {
        let topo = Arc::new(presets::beluga());
        let eng = Engine::new(topo);
        eng.set_recorder(mpx_obs::Recorder::new());
        let rt = GpuRuntime::new(eng);
        let c = UcxContext::new(rt, UcxConfig::default());
        let gpus = c.runtime().engine().topology().gpus();
        let n = 8 * MIB;
        let src = c.runtime().alloc(gpus[0], n);
        let dst = c.runtime().alloc(gpus[1], n);
        let h = c.put_async(&src, &dst, n).unwrap();
        c.runtime().engine().run_until_idle();
        assert!(h.is_complete());
        assert_eq!(c.transfer_latency_hist().count(), 1);
        assert!(c.transfer_latency_hist().max() > 0.0);
        assert!(c.plan_cost_hist().count() >= 1);
        let reg = TelemetryRegistry::new();
        c.fill_registry(&reg);
        let snap = reg.snapshot();
        assert!(snap
            .entries
            .iter()
            .any(|e| e.name == "ucx.transfer.latency_secs.p99" && e.value > 0.0));
    }

    #[test]
    fn plan_cost_histogram_fills_without_a_recorder() {
        let c = ctx(TuningMode::Dynamic);
        let gpus = c.runtime().engine().topology().gpus();
        c.plan_for(gpus[0], gpus[1], 4 * MIB).unwrap();
        assert!(c.plan_cost_hist().count() >= 1, "always-on histogram");
    }

    #[test]
    fn puts_between_different_pairs_use_distinct_plans() {
        let c = ctx(TuningMode::Dynamic);
        let gpus = c.runtime().engine().topology().gpus();
        let p01 = c.plan_for(gpus[0], gpus[1], 64 * MIB).unwrap();
        let p23 = c.plan_for(gpus[2], gpus[3], 64 * MIB).unwrap();
        assert!(!Arc::ptr_eq(&p01, &p23));
        // Same structure by symmetry.
        assert_eq!(p01.active_path_count(), p23.active_path_count());
    }
}

#[cfg(test)]
mod probe_mode_tests {
    use super::*;
    use mpx_sim::Engine;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;

    fn ctx_with(params: ParamSource, topo: mpx_topo::Topology) -> UcxContext {
        let rt = GpuRuntime::new(Engine::new(Arc::new(topo)));
        UcxContext::new(
            rt,
            UcxConfig {
                params,
                ..UcxConfig::default()
            },
        )
    }

    #[test]
    fn probed_plans_are_cached() {
        let c = ctx_with(ParamSource::Probed, presets::narval());
        let gpus = c.runtime().engine().topology().gpus();
        let a = c.plan_for(gpus[0], gpus[1], 32 * MIB).unwrap();
        let b = c.plan_for(gpus[0], gpus[1], 32 * MIB).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "probed plan must be cached");
    }

    #[test]
    fn probed_and_datasheet_differ_on_narval_host_path() {
        // Datasheet extraction misses the shared DRAM channel, so the two
        // sources assign the host path different shares.
        let probed = ctx_with(ParamSource::Probed, presets::narval());
        let sheet = ctx_with(ParamSource::Datasheet, presets::narval());
        let gpus = probed.runtime().engine().topology().gpus();
        let n = 128 * MIB;
        let p = probed.plan_for(gpus[0], gpus[1], n).unwrap();
        let d = sheet.plan_for(gpus[0], gpus[1], n).unwrap();
        let host_p = p.paths.last().unwrap().theta;
        let host_d = d.paths.last().unwrap().theta;
        assert!(
            host_p < host_d,
            "probed host share {host_p} should be below datasheet {host_d}"
        );
    }

    #[test]
    fn probed_equals_datasheet_on_beluga_gpu_paths() {
        // No intra-path sharing on Beluga's GPU-staged paths: both
        // sources agree there.
        let probed = ctx_with(ParamSource::Probed, presets::beluga());
        let sheet = ctx_with(ParamSource::Datasheet, presets::beluga());
        let gpus = probed.runtime().engine().topology().gpus();
        let n = 64 * MIB;
        let p = probed.plan_for(gpus[0], gpus[1], n).unwrap();
        let d = sheet.plan_for(gpus[0], gpus[1], n).unwrap();
        for (x, y) in p.paths.iter().zip(&d.paths).take(3) {
            assert!(
                (x.theta - y.theta).abs() < 1e-3,
                "GPU-path shares should agree: {} vs {}",
                x.theta,
                y.theta
            );
        }
    }

    #[test]
    fn probe_cache_shared_across_sizes() {
        // The probe runs once per (pair, selection); planning a second
        // size must not re-probe (observable through plan distinctness
        // but shared parameter source).
        let c = ctx_with(ParamSource::Probed, presets::narval());
        let gpus = c.runtime().engine().topology().gpus();
        let a = c.plan_for(gpus[0], gpus[1], 16 * MIB).unwrap();
        let b = c.plan_for(gpus[0], gpus[1], 64 * MIB).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // Same calibrated parameters behind both plans.
        assert_eq!(
            a.paths.last().unwrap().params.second.map(|s| s.beta),
            b.paths.last().unwrap().params.second.map(|s| s.beta),
        );
    }
}
