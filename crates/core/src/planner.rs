//! Algorithm 1: computing the optimal path configuration for one
//! transfer, with the configuration cache (paper Section 4).
//!
//! Given `(src, dst, message size, candidate paths)` the planner:
//!
//! 1. resolves each candidate path's links and Hockney parameters
//!    (Algorithm 1 lines 7–15, via `mpx-topo`);
//! 2. derives each path's affine coefficients `Ωᵢ, Δᵢ` — pipelined
//!    staged paths through the φ-linearization (Eq. 22), direct paths
//!    exactly — accumulating the sequential-initiation latency of earlier
//!    paths into `Δᵢ` (line 18);
//! 3. solves for the optimal shares `θᵢ` (Eq. 24, lines 22–26);
//! 4. converts shares to aligned byte counts, giving the remainder to the
//!    direct path (lines 27–29), and picks per-path chunk counts
//!    (Eqs. 14/15 rounded);
//! 5. keeps one [`PlanTable`] entry per `(src, dst, selection)`: steps 1
//!    and 2 done once, as every n-independent constant of Eqs. 14/15, 19
//!    and 22, and an exact memo `n → plan`, so a repeated size is one
//!    lookup and a new size solves steps 3 and 4 on the stack.
//!
//! θ(n) is not piecewise-affine for a pipelined staged path (φ ∝ 1/√n,
//! Eqs. 19 and 22), so the entry keeps coefficients, not segments.

use crate::cache::{BuildFxHasher, CacheCounters};
use crate::optimizer::{equalize, OmegaDelta};
use crate::pipeline::{chunk_count, omega_delta_unpipelined, time_pipelined, PipelinedLaw};
use mpx_topo::params::{extract_all, PathParams};
use mpx_topo::path::{enumerate_paths_auto, PathKind, PathSelection, TransferPath};
use mpx_topo::units::{Bandwidth, Secs};
use mpx_topo::{DeviceId, LinkId, Topology, TopologyError};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether staged paths are modeled (and executed) with chunk pipelining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineMode {
    /// One monolithic copy per leg (Section 3.3's model).
    Unpipelined,
    /// Chunked, pipelined staging (Section 3.4's model). The default.
    Pipelined,
}

/// Plans memoised per pair before the pair's memo is cleared, and
/// lowerings kept per graph-cache shard: the bound on what an irregular
/// size sweep can leave behind.
pub const MEMO_CAP: usize = 512;

/// Candidate paths per pair the stack-resident solve has room for (a
/// node's pair has at most a handful; the paper grid's widest selection
/// has four). A larger candidate set is refused with
/// [`TopologyError::TooManyPaths`].
pub const MAX_PATHS: usize = 16;

/// Quantizes fractional path shares of an `n`-byte message into
/// `alignment`-aligned byte counts (each rounded down), writing them into
/// `bytes` and returning the total assigned. Callers give the rounding
/// remainder `n - total` to path 0 — the direct path, the only one free
/// of the alignment constraint. The single Lines 27–29 implementation
/// shared by the planner's solve loop and the exhaustive tuner's manual
/// plans.
pub fn quantize_shares(
    bytes: &mut [usize],
    shares: impl IntoIterator<Item = f64>,
    n: usize,
    alignment: usize,
) -> usize {
    let nf = n as f64;
    let align = alignment.max(1);
    let mut assigned = 0usize;
    for (b, t) in bytes.iter_mut().zip(shares) {
        *b = ((t * nf) as usize / align) * align;
        assigned += *b;
    }
    assigned
}

/// Planner tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Pipelining mode for staged paths.
    pub mode: PipelineMode,
    /// Upper bound on chunks per path (staging-ring depth of the pipeline
    /// engine).
    pub max_chunks: u32,
    /// Do not split below this chunk size; bounds per-chunk overhead for
    /// small messages.
    pub min_chunk_bytes: usize,
    /// Share byte counts are rounded down to this alignment (element
    /// size); the remainder goes to the direct path.
    pub alignment: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            mode: PipelineMode::Pipelined,
            max_chunks: 32,
            min_chunk_bytes: 256 << 10,
            alignment: 4,
        }
    }
}

impl PlannerConfig {
    /// Whether a path with these parameters runs as a chunk pipeline.
    fn pipelines(&self, p: &PathParams) -> bool {
        p.is_staged() && self.mode == PipelineMode::Pipelined
    }

    /// Chunk count and model-predicted time of one path given its byte
    /// share: the quantized realization of a solved share.
    fn assignment(&self, p: &PathParams, share: usize, nf: f64) -> (u32, Secs) {
        let theta = share as f64 / nf;
        let chunks = if share == 0 || !self.pipelines(p) {
            1
        } else {
            let by_overhead = chunk_count(p, theta, nf, self.max_chunks);
            let by_size = (share / self.min_chunk_bytes.max(1)).max(1) as u32;
            by_overhead.min(by_size)
        };
        let predicted_time = if share == 0 {
            0.0
        } else if self.pipelines(p) {
            time_pipelined(p, theta, nf, chunks)
        } else {
            p.time_unpipelined(share as f64)
        };
        (chunks, predicted_time)
    }
}

/// One path's slice of the plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannedPath {
    /// Index within the candidate set (0 = direct).
    pub index: usize,
    /// Path class.
    pub kind: PathKind,
    /// Hockney parameters used (after the sequential-initiation
    /// correction).
    pub params: PathParams,
    /// Optimal fraction `θᵢ` from Eq. (24).
    pub theta: f64,
    /// Bytes assigned (aligned; direct path absorbs the remainder).
    pub share_bytes: usize,
    /// Chunks to pipeline this share through (1 for direct or excluded
    /// paths).
    pub chunks: u32,
    /// The model's predicted completion time for this path's share.
    pub predicted_time: Secs,
}

/// A complete transfer configuration: Algorithm 1's `configs[], shares[]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferPlan {
    /// Message size in bytes.
    pub n: usize,
    /// Per-path assignments, direct path first.
    pub paths: Vec<PlannedPath>,
    /// Predicted end-to-end time: `max_i` of per-path predictions.
    pub predicted_time: Secs,
    /// Predicted aggregate bandwidth `n / T`.
    pub predicted_bandwidth: Bandwidth,
}

impl TransferPlan {
    /// Paths that actually carry bytes.
    pub fn active_paths(&self) -> impl Iterator<Item = &PlannedPath> {
        self.paths.iter().filter(|p| p.share_bytes > 0)
    }

    /// Number of paths carrying bytes.
    pub fn active_path_count(&self) -> usize {
        self.active_paths().count()
    }

    /// Predicted aggregate bandwidth when `window` messages of this size
    /// are in flight at once (the OMB windowed-BW protocol): the fixed
    /// costs `Δ` are paid once per window instead of once per message, so
    /// bandwidth approaches the asymptote as the window grows —
    /// Observation 2's mechanism, model-side.
    ///
    /// With all `window` messages sharing the same path set fairly, each
    /// path's per-byte time scales with the total bytes while its fixed
    /// cost does not: `T(w) ≈ w·(T − Δ_max) + Δ_max` where `Δ_max` is the
    /// slowest path's fixed cost at the equalized optimum.
    pub fn predicted_windowed_bandwidth(&self, window: usize) -> Bandwidth {
        let w = window.max(1) as f64;
        // The makespan path's fixed-cost component: T_i = θᵢnΩᵢ + Δᵢ at
        // the optimum; take the Δ of the path achieving the makespan.
        let delta_max = self
            .paths
            .iter()
            .filter(|p| p.share_bytes > 0)
            .max_by(|a, b| {
                a.predicted_time
                    .partial_cmp(&b.predicted_time)
                    .expect("finite")
            })
            .map(|p| p.params.delta_unpipelined())
            .unwrap_or(0.0);
        let streaming = (self.predicted_time - delta_max).max(0.0);
        (w * self.n as f64) / (w * streaming + delta_max)
    }

    /// Renders the plan as an aligned text table (used by the CLI and
    /// examples).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan for {} bytes ({} active path(s)):",
            self.n,
            self.active_path_count()
        );
        for p in &self.paths {
            let _ = writeln!(
                out,
                "  {:<22} theta={:<8.4} bytes={:<12} chunks={:<3} t={:.1}us",
                p.kind.to_string(),
                p.theta,
                p.share_bytes,
                p.chunks,
                p.predicted_time * 1e6
            );
        }
        let _ = writeln!(
            out,
            "  predicted: {:.2} GB/s in {:.1} us",
            self.predicted_bandwidth / 1e9,
            self.predicted_time * 1e6
        );
        out
    }
}

/// Cache counters (a snapshot; the live counters are atomics and reading
/// them never blocks planning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Plans served from a pair's memo.
    pub hits: u64,
    /// Plans solved.
    pub misses: u64,
    /// Drift-triggered pair invalidations.
    pub invalidations: u64,
}

impl PlannerStats {
    /// Component-wise sum (for aggregating several tables).
    pub fn merged(self, other: PlannerStats) -> PlannerStats {
        PlannerStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

/// The pair-level cache key — `(src, dst, max_gpu_staged, host_staged)`,
/// i.e. everything that determines the candidate path set. It also picks
/// the [`PlanTable`] shard, so invalidating one pair locks one shard.
pub type PairKey = (DeviceId, DeviceId, usize, bool);

/// A path's time law at message size `n`, as its n-independent part.
#[derive(Debug, Clone, Copy)]
enum Law {
    /// Direct, or staged without pipelining: Eq. 11's `Ω, Δ` as they are.
    Fixed(OmegaDelta),
    /// A pipelined staged path: Eq. 22 at the Eq. 19 constant `φ`.
    Piped(PipelinedLaw),
}

impl Law {
    /// The law of a path with (launch-corrected) parameters `p`, whose
    /// pair's bottleneck bandwidths sum to `beta_sum`.
    fn new(cfg: &PlannerConfig, p: &PathParams, beta_sum: f64) -> Law {
        if !cfg.pipelines(p) {
            return Law::Fixed(omega_delta_unpipelined(p));
        }
        // Reference share for φ: bandwidth-proportional.
        let theta_ref = (p.bottleneck_bandwidth() / beta_sum).max(1e-6);
        Law::Piped(PipelinedLaw::new(p, theta_ref))
    }

    /// `Ω, Δ` at `nf` bytes.
    #[inline]
    fn at(&self, nf: f64) -> OmegaDelta {
        match self {
            Law::Fixed(od) => *od,
            Law::Piped(law) => law.at(nf),
        }
    }
}

/// One candidate path of a [`PairEntry`].
#[derive(Debug, Clone, Copy)]
struct PathLaw {
    kind: PathKind,
    /// Hockney parameters after the line-18 launch correction.
    params: PathParams,
    law: Law,
}

/// Everything Algorithm 1 needs about one pair that does not depend on
/// the message size: its candidate paths, their corrected parameters and
/// time laws — and the links that were down when the parameters were
/// measured, so the entry can be rebuilt once one of them is back up, and
/// the link capacities they were measured against, so a drift on an
/// unchanged fabric can keep them.
#[derive(Debug)]
pub struct PairEntry {
    paths: Box<[PathLaw]>,
    down: Box<[LinkId]>,
    capacities: Box<[f64]>,
}

impl PairEntry {
    /// Whether the parameters were measured against exactly `capacities`
    /// (never, for datasheet parameters).
    pub fn measured_on(&self, capacities: &[f64]) -> bool {
        !self.capacities.is_empty() && *self.capacities == *capacities
    }

    /// Whether the entry still describes the fabric: it was measured with
    /// every link up, or every link it saw down is down still. An entry
    /// measured on a healthy fabric pays one branch.
    #[inline]
    fn current(&self, is_up: &impl Fn(LinkId) -> bool) -> bool {
        self.down.is_empty() || !self.down.iter().any(|&l| is_up(l))
    }

    /// Algorithm 1 lines 16–30 at `n` bytes: per-path `Ω, Δ`, the optimal
    /// shares, aligned bytes, chunk counts and predicted times, with the
    /// straggler re-solve. Every intermediate lives on the stack; the
    /// returned plan is the only allocation.
    fn solve(&self, cfg: &PlannerConfig, n: usize) -> TransferPlan {
        let mut plan = TransferPlan {
            n,
            paths: Vec::with_capacity(self.paths.len()),
            predicted_time: 0.0,
            predicted_bandwidth: 0.0,
        };
        self.solve_into(cfg, n, &mut plan);
        plan
    }

    /// A shared plan for `n` bytes, solved into `spare` when there is one
    /// (no allocation) and into a new plan otherwise.
    fn solve_shared(
        &self,
        cfg: &PlannerConfig,
        n: usize,
        spare: Option<Arc<TransferPlan>>,
    ) -> Arc<TransferPlan> {
        let Some(mut plan) = spare else {
            return Arc::new(self.solve(cfg, n));
        };
        let owned = Arc::get_mut(&mut plan).expect("a spare is held by its slot alone");
        self.solve_into(cfg, n, owned);
        plan
    }

    /// [`PairEntry::solve`] into an existing plan: every field is
    /// rewritten and the path vector is reused.
    fn solve_into(&self, cfg: &PlannerConfig, n: usize, plan: &mut TransferPlan) {
        assert!(n > 0, "cannot plan a zero-byte transfer");
        let m = self.paths.len();
        let nf = n as f64;
        let mut ods = [OmegaDelta {
            omega: 1.0,
            delta: 0.0,
        }; MAX_PATHS];
        for (od, p) in ods.iter_mut().zip(&*self.paths) {
            *od = p.law.at(nf);
        }
        let ods = &mut ods[..m];
        let mut included = [true; MAX_PATHS];
        let mut shares = [0.0; MAX_PATHS];
        let mut bytes = [0usize; MAX_PATHS];
        // Per path: share bytes, chunk count, predicted time — of the best
        // round so far.
        let mut best = [(0usize, 1u32, 0.0); MAX_PATHS];
        let mut best_time: Option<Secs> = None;

        // Lines 22–30 with a quantization-aware exclusion loop: the
        // optimizer's affine law assumes continuous chunk counts, but the
        // executed config rounds `k` and enforces the min-chunk-size
        // floor. A path whose share is so small that it ends up with one
        // unpipelinable chunk can overshoot the equalized time and
        // straggle the whole transfer; such paths are dropped (by
        // inflating their fixed cost — the optimizer's natural exclusion
        // mechanism) and the shares re-solved.
        for _round in 0..m + 1 {
            // Lines 22–26: optimal shares.
            let time = equalize(ods, nf, &mut included[..m], &mut shares[..m]);

            // Lines 27–29: shares → aligned bytes, remainder to the
            // first path (the direct one when it exists).
            let assigned = quantize_shares(
                &mut bytes[..m],
                shares[..m].iter().copied(),
                n,
                cfg.alignment,
            );
            bytes[0] += n - assigned;

            // Chunk counts and exact (quantized) per-path predictions.
            let mut round = [(0usize, 1u32, 0.0); MAX_PATHS];
            let mut worst: Secs = 0.0;
            for ((r, p), &share) in round.iter_mut().zip(&*self.paths).zip(&bytes[..m]) {
                let (chunks, predicted_time) = cfg.assignment(&p.params, share, nf);
                worst = worst.max(predicted_time);
                *r = (share, chunks, predicted_time);
            }
            if best_time.is_none_or(|b| worst < b) {
                best_time = Some(worst);
                best = round;
            }

            // Straggler check: a non-first active path whose quantized
            // time overshoots the optimizer's equalized target by more
            // than 2% poisons the makespan — drop it and re-solve,
            // keeping the best plan seen so far. At termination either no
            // path overshoots (so the makespan is within 2% of the
            // equalized optimum, which never exceeds the direct-only
            // time) or the best earlier round wins. Only a straggler of
            // *this* round's plan is re-solved (otherwise we already
            // improved past it); of equally late ones, the last.
            let this_round = (worst - best_time.expect("just set")).abs() < 1e-18;
            if !this_round {
                break;
            }
            let mut straggler: Option<(usize, Secs)> = None;
            for (i, &(share, _, t)) in best[..m].iter().enumerate().skip(1) {
                if share > 0 && t > time * 1.02 + 1e-9 && straggler.is_none_or(|(_, w)| t >= w) {
                    straggler = Some((i, t));
                }
            }
            match straggler {
                Some((i, _)) => {
                    ods[i] = OmegaDelta {
                        omega: ods[i].omega,
                        delta: nf * ods[i].omega + time * 1e3,
                    };
                }
                None => break,
            }
        }
        let worst = best_time.expect("at least one round ran");
        plan.n = n;
        plan.paths.clear();
        plan.paths
            .extend((self.paths.iter().zip(&best[..m]).enumerate()).map(
                |(index, (p, &(share_bytes, chunks, predicted_time)))| PlannedPath {
                    index,
                    kind: p.kind,
                    params: p.params,
                    theta: share_bytes as f64 / nf,
                    share_bytes,
                    chunks,
                    predicted_time,
                },
            ));
        plan.predicted_time = worst;
        plan.predicted_bandwidth = nf / worst;
    }
}

/// One pair's slot: its entry, the plans solved from it, and the plans
/// a cleared memo left behind for later misses to solve into.
struct Slot {
    entry: Arc<PairEntry>,
    /// A drift dropped the plans: the entry is rebuilt before its next
    /// use, from itself if the builder finds it still true.
    stale: bool,
    /// Renewed (table-wide unique) whenever the plans stop following from
    /// `entry`: a miss solved under an older epoch is not memoised.
    epoch: u64,
    memo: HashMap<usize, Arc<TransferPlan>, BuildFxHasher>,
    /// Plans no caller holds, taken from cleared memos; with the memo
    /// never more than [`MEMO_CAP`]. Its own lock lets a miss take one
    /// under the shard's read lock.
    spares: Mutex<Vec<Arc<TransferPlan>>>,
}

impl Slot {
    /// Empties the memo, keeping each plan it alone holds as a spare.
    fn clear_memo(&mut self) {
        let spares = self.spares.get_mut();
        for (_, mut plan) in self.memo.drain() {
            if Arc::get_mut(&mut plan).is_some() {
                spares.push(plan);
            }
        }
    }

    /// Memoises a plan solved under the current epoch, clearing a full
    /// memo first.
    fn memoize(&mut self, n: usize, plan: Arc<TransferPlan>) {
        if self.memo.len() >= MEMO_CAP {
            self.clear_memo();
        }
        self.memo.insert(n, plan);
        // A full memo's clear leaves up to MEMO_CAP spares beside the new
        // plan, and a miss that found no spare may have raced a clear.
        self.spares.get_mut().truncate(MEMO_CAP - self.memo.len());
    }
}

/// The configuration cache: one [`PairEntry`] per [`PairKey`] with an
/// exact memo `n → plan`, in shards selected by the pair, so a hit is
/// one shard read lock and two lookups, and a miss adds the solve under
/// that read lock and one write lock to memoise it. Drift drops one pair
/// ([`PlanTable::invalidate_pair`]), recalibration all of them
/// ([`PlanTable::clear`]).
///
/// The planner owns one for datasheet-parameter plans; the transport
/// owns a second one for probed-parameter plans and drives it through
/// [`Planner::plan_in`].
pub struct PlanTable {
    shards: Box<[RwLock<HashMap<PairKey, Slot, BuildFxHasher>>]>,
    counters: CacheCounters,
    /// The next slot epoch: unique across the table, so a slot dropped by
    /// [`PlanTable::clear`] and built again never repeats one.
    epochs: AtomicU64,
}

impl Default for PlanTable {
    fn default() -> Self {
        PlanTable::new()
    }
}

impl PlanTable {
    /// Creates an empty table.
    pub fn new() -> PlanTable {
        PlanTable {
            shards: (0..crate::cache::SHARDS)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
            counters: CacheCounters::default(),
            epochs: AtomicU64::new(0),
        }
    }

    fn next_epoch(&self) -> u64 {
        self.epochs.fetch_add(1, Ordering::Relaxed)
    }

    #[inline]
    fn shard(&self, pair: &PairKey) -> &RwLock<HashMap<PairKey, Slot, BuildFxHasher>> {
        &self.shards[crate::cache::fx_hash_of(pair) as usize % self.shards.len()]
    }

    /// A snapshot of the counters. Reads relaxed atomics only — never
    /// contends with concurrent planning.
    pub fn stats(&self) -> PlannerStats {
        let c = &self.counters;
        PlannerStats {
            hits: CacheCounters::read(&c.hits),
            misses: CacheCounters::read(&c.misses),
            invalidations: CacheCounters::read(&c.invalidations),
        }
    }

    /// Drops one pair's plans and marks its entry stale, locking only its
    /// shard. The drift-invalidation primitive.
    pub fn invalidate_pair(&self, pair: PairKey) {
        if let Some(slot) = self.shard(&pair).write().get_mut(&pair) {
            slot.clear_memo();
            slot.stale = true;
            slot.epoch = self.next_epoch();
        }
        CacheCounters::bump(&self.counters.invalidations);
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
    }

    /// Number of plans currently memoised.
    pub fn len(&self) -> usize {
        let pairs = |s: &RwLock<HashMap<PairKey, Slot, BuildFxHasher>>| {
            s.read().values().map(|slot| slot.memo.len()).sum::<usize>()
        };
        self.shards.iter().map(pairs).sum()
    }

    /// Whether no plan is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Algorithm 1 with its configuration cache.
pub struct Planner {
    topo: Arc<Topology>,
    cfg: PlannerConfig,
    table: PlanTable,
}

impl Planner {
    /// Creates a planner over `topo` with default tunables.
    pub fn new(topo: Arc<Topology>) -> Planner {
        Planner::with_config(topo, PlannerConfig::default())
    }

    /// Creates a planner with explicit tunables.
    pub fn with_config(topo: Arc<Topology>, cfg: PlannerConfig) -> Planner {
        Planner {
            topo,
            cfg,
            table: PlanTable::new(),
        }
    }

    /// The topology this planner describes.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The active tunables.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Cache counters (atomic snapshot; never blocks planning).
    pub fn stats(&self) -> PlannerStats {
        self.table.stats()
    }

    /// Forgets everything cached about one device pair: its entry and its
    /// plans.
    pub fn invalidate_pair(&self, pair: PairKey) {
        self.table.invalidate_pair(pair);
    }

    /// `populate_path_config` (Algorithm 1): the optimal configuration for
    /// an `n`-byte transfer `src → dst` over the paths selected by `sel`.
    pub fn plan(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
        sel: PathSelection,
    ) -> Result<Arc<TransferPlan>, TopologyError> {
        let pair: PairKey = (src, dst, sel.max_gpu_staged, sel.host_staged);
        self.plan_in(
            &self.table,
            pair,
            n,
            |_| true,
            |_| {
                let paths = enumerate_paths_auto(&self.topo, src, dst, sel)?;
                let params = extract_all(&self.topo, &paths)?;
                self.entry(&paths, params, Vec::new(), Vec::new())
                    .map(Arc::new)
            },
        )
    }

    /// The table lookup behind [`Planner::plan`], over any table and any
    /// source of parameters: the pair's memoised plan for `n`, else one
    /// solved from the pair's entry, else from the entry `build` returns —
    /// called only when the pair has no entry, a stale one (which it is
    /// handed, and may return as it is) or one measured over a link
    /// `is_up` now reports restored. A hit never calls `build`, so the
    /// transport's probe/enumerate work stays off the hot path.
    pub fn plan_in(
        &self,
        table: &PlanTable,
        pair: PairKey,
        n: usize,
        is_up: impl Fn(LinkId) -> bool,
        build: impl FnOnce(Option<Arc<PairEntry>>) -> Result<Arc<PairEntry>, TopologyError>,
    ) -> Result<Arc<TransferPlan>, TopologyError> {
        assert!(n > 0, "cannot plan a zero-byte transfer");
        let shard = table.shard(&pair);
        // One pass under the read lock: a hit, or a miss solved from the
        // borrowed entry into a spare; the write lock only memoises.
        let map = shard.read();
        let (stale, spare) = match map.get(&pair) {
            Some(slot) if !slot.stale && slot.entry.current(&is_up) => {
                if let Some(plan) = slot.memo.get(&n) {
                    CacheCounters::bump(&table.counters.hits);
                    return Ok(plan.clone());
                }
                CacheCounters::bump(&table.counters.misses);
                let spare = slot.spares.lock().pop();
                let plan = slot.entry.solve_shared(&self.cfg, n, spare);
                let epoch = slot.epoch;
                drop(map);
                if let Some(slot) = shard.write().get_mut(&pair) {
                    // A drift or a rebuild in the meantime means the pair
                    // moved on.
                    if slot.epoch == epoch {
                        slot.memoize(n, plan.clone());
                    }
                }
                return Ok(plan);
            }
            Some(slot) => {
                let spare = slot.spares.lock().pop();
                (slot.stale.then(|| slot.entry.clone()), spare)
            }
            None => (None, None),
        };
        drop(map);
        CacheCounters::bump(&table.counters.misses);
        let entry = build(stale)?;
        let plan = entry.solve_shared(&self.cfg, n, spare);
        let epoch = table.next_epoch();
        let mut map = shard.write();
        let slot = map.entry(pair).or_insert_with(|| Slot {
            entry: entry.clone(),
            stale: false,
            epoch,
            memo: HashMap::default(),
            spares: Mutex::default(),
        });
        slot.clear_memo();
        (slot.entry, slot.stale, slot.epoch) = (entry, false, epoch);
        slot.memoize(n, plan.clone());
        Ok(plan)
    }

    /// A pair's table entry: Algorithm 1 lines 16–21 for `paths` with the
    /// given per-path parameters, which were measured while the `down`
    /// links were down, against `capacities` (empty for the datasheet's).
    /// Errors with [`TopologyError::TooManyPaths`] on more than
    /// [`MAX_PATHS`] candidate paths.
    ///
    /// # Panics
    /// Panics unless there is one parameter set per path.
    pub fn entry(
        &self,
        paths: &[TransferPath],
        mut params: Vec<PathParams>,
        down: Vec<LinkId>,
        capacities: Vec<f64>,
    ) -> Result<PairEntry, TopologyError> {
        assert_eq!(paths.len(), params.len(), "one parameter set per path");
        if paths.len() > MAX_PATHS {
            return Err(TopologyError::TooManyPaths {
                paths: paths.len(),
                max: MAX_PATHS,
            });
        }
        // Line 18: sequential initiation — path i's first chunk cannot
        // launch before the launches of paths 0..i have been issued.
        let launch = self.topo.overheads.copy_launch;
        for (i, p) in params.iter_mut().enumerate() {
            p.first.alpha += launch * i as f64;
        }
        let beta_sum: f64 = params.iter().map(|p| p.bottleneck_bandwidth()).sum();
        Ok(PairEntry {
            paths: (paths.iter().zip(params))
                .map(|(path, params)| PathLaw {
                    kind: path.kind,
                    params,
                    law: Law::new(&self.cfg, &params, beta_sum),
                })
                .collect(),
            down: down.into(),
            capacities: capacities.into(),
        })
    }

    /// Re-plan entry point for degraded fabrics: like [`Planner::plan`]
    /// but with the candidate paths at the given indices *excluded* —
    /// the caller has observed them fail or time out. Returns the plan
    /// together with the surviving candidate set (the path set
    /// `execute_plan` must be driven with). Never cached: exclusion sets
    /// are transient observations, not topology facts.
    ///
    /// Degrades gracefully down to a single surviving path; errors with
    /// [`TopologyError::NoUsablePath`] only when *every* candidate is
    /// excluded.
    pub fn plan_excluding(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
        sel: PathSelection,
        excluded: &[usize],
    ) -> Result<(TransferPlan, Vec<TransferPath>), TopologyError> {
        let all = enumerate_paths_auto(&self.topo, src, dst, sel)?;
        let survivors: Vec<TransferPath> = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !excluded.contains(i))
            .map(|(_, p)| p)
            .collect();
        if survivors.is_empty() {
            return Err(TopologyError::NoUsablePath(src, dst));
        }
        let plan = self.compute(n, &survivors)?;
        Ok((plan, survivors))
    }

    /// The uncached Algorithm-1 body, usable with an externally-supplied
    /// candidate set; parameters are extracted from the topology
    /// description.
    pub fn compute(&self, n: usize, paths: &[TransferPath]) -> Result<TransferPlan, TopologyError> {
        let params = extract_all(&self.topo, paths)?;
        Ok(self
            .entry(paths, params, Vec::new(), Vec::new())?
            .solve(&self.cfg, n))
    }

    /// The uncached Algorithm-1 body with externally supplied per-path
    /// Hockney parameters — the hook for runtime-calibrated ("probed")
    /// parameters, which is how the paper's Dynamic Path Distribution
    /// obtains them. The same solve a table miss runs.
    ///
    /// # Panics
    /// Panics unless there is one parameter set per path, or on more than
    /// [`MAX_PATHS`] candidate paths ([`Planner::compute`] reports that as
    /// an error).
    pub fn compute_with_params(
        &self,
        n: usize,
        paths: &[TransferPath],
        params: Vec<PathParams>,
    ) -> TransferPlan {
        assert!(n > 0, "cannot plan a zero-byte transfer");
        match self.entry(paths, params, Vec::new(), Vec::new()) {
            Ok(entry) => entry.solve(&self.cfg, n),
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;

    fn planner(topo: Topology) -> Planner {
        Planner::new(Arc::new(topo))
    }

    fn beluga_plan(n: usize, sel: PathSelection) -> Arc<TransferPlan> {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        p.plan(gpus[0], gpus[1], n, sel).unwrap()
    }

    #[test]
    fn all_bytes_are_assigned() {
        for n in [4096, 2 * MIB, 64 * MIB + 7, 512 * MIB] {
            let plan = beluga_plan(n, PathSelection::THREE_GPUS_WITH_HOST);
            let total: usize = plan.paths.iter().map(|p| p.share_bytes).sum();
            assert_eq!(total, n, "n = {n}");
        }
    }

    #[test]
    fn non_direct_shares_are_aligned() {
        let plan = beluga_plan(64 * MIB + 3, PathSelection::THREE_GPUS_WITH_HOST);
        for p in &plan.paths[1..] {
            assert_eq!(p.share_bytes % 4, 0, "path {} misaligned", p.index);
        }
    }

    #[test]
    fn direct_only_plan_is_trivial() {
        let plan = beluga_plan(16 * MIB, PathSelection::DIRECT_ONLY);
        assert_eq!(plan.paths.len(), 1);
        assert_eq!(plan.paths[0].share_bytes, 16 * MIB);
        assert_eq!(plan.paths[0].chunks, 1);
    }

    #[test]
    fn large_messages_use_all_four_paths() {
        let plan = beluga_plan(256 * MIB, PathSelection::THREE_GPUS_WITH_HOST);
        assert_eq!(plan.active_path_count(), 4);
        // Host path exists but carries the least.
        let host = plan.paths.last().unwrap();
        for p in &plan.paths[..3] {
            assert!(p.share_bytes > host.share_bytes);
        }
    }

    #[test]
    fn small_messages_collapse_to_direct() {
        let plan = beluga_plan(8 << 10, PathSelection::THREE_GPUS_WITH_HOST);
        assert_eq!(
            plan.active_path_count(),
            1,
            "8 KiB should ride the direct path only: {:?}",
            plan.paths
                .iter()
                .map(|p| (p.index, p.share_bytes))
                .collect::<Vec<_>>()
        );
        assert_eq!(plan.paths[0].share_bytes, 8 << 10);
    }

    #[test]
    fn predicted_bandwidth_grows_with_paths() {
        let n = 256 * MIB;
        let direct = beluga_plan(n, PathSelection::DIRECT_ONLY);
        let two = beluga_plan(n, PathSelection::TWO_GPUS);
        let three = beluga_plan(n, PathSelection::THREE_GPUS);
        let four = beluga_plan(n, PathSelection::THREE_GPUS_WITH_HOST);
        assert!(two.predicted_bandwidth > direct.predicted_bandwidth * 1.5);
        assert!(three.predicted_bandwidth > two.predicted_bandwidth);
        assert!(four.predicted_bandwidth > three.predicted_bandwidth);
        // Headline shape: ~3x for 3 GPU paths + host on Beluga.
        let speedup = four.predicted_bandwidth / direct.predicted_bandwidth;
        assert!(
            (2.5..3.6).contains(&speedup),
            "speedup {speedup} out of the expected band"
        );
    }

    #[test]
    fn staged_paths_get_multiple_chunks_for_large_messages() {
        let plan = beluga_plan(256 * MIB, PathSelection::THREE_GPUS);
        for p in &plan.paths[1..] {
            assert!(p.chunks > 1, "path {} should pipeline, got k=1", p.index);
        }
        assert_eq!(plan.paths[0].chunks, 1, "direct path never chunks");
    }

    #[test]
    fn chunk_size_floor_respected() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let plan = p
            .plan(gpus[0], gpus[1], 4 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        for pp in plan.active_paths() {
            if pp.index > 0 {
                let chunk = pp.share_bytes / pp.chunks as usize;
                assert!(
                    chunk >= p.config().min_chunk_bytes || pp.chunks == 1,
                    "path {}: chunk {} below floor",
                    pp.index,
                    chunk
                );
            }
        }
    }

    #[test]
    fn cache_hits_on_repeat_plans() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let a = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let b = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            p.stats(),
            PlannerStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
    }

    /// Regression guard for the atomic-counter redesign: a stats
    /// snapshot must not touch the shard locks. Holding every shard's
    /// write lock while snapshotting would deadlock (parking_lot locks
    /// are not reentrant) if `stats()` ever went back to reading
    /// counters from under the maps — failing the suite by timeout.
    #[test]
    fn stats_snapshot_never_touches_shard_locks() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        p.plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let _guards: Vec<_> = p.table.shards.iter().map(|s| s.write()).collect();
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    #[test]
    fn cache_distinguishes_sizes_and_selections() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        p.plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        p.plan(gpus[0], gpus[1], 4 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        p.plan(gpus[0], gpus[1], 2 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        assert_eq!(p.stats().misses, 3);
    }

    #[test]
    fn unpipelined_mode_prediction_is_slower() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let piped = Planner::new(topo.clone())
            .plan(gpus[0], gpus[1], 256 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        let unpiped = Planner::with_config(
            topo,
            PlannerConfig {
                mode: PipelineMode::Unpipelined,
                ..PlannerConfig::default()
            },
        )
        .plan(gpus[0], gpus[1], 256 * MIB, PathSelection::THREE_GPUS)
        .unwrap();
        assert!(piped.predicted_time < unpiped.predicted_time);
    }

    #[test]
    fn narval_host_share_smaller_than_beluga_host_share() {
        // Observation 3: Narval's NUMA layout makes its host path weaker.
        let host_share = |topo: Topology| {
            let p = planner(topo);
            let gpus = p.topology().gpus();
            let plan = p
                .plan(
                    gpus[0],
                    gpus[1],
                    256 * MIB,
                    PathSelection::THREE_GPUS_WITH_HOST,
                )
                .unwrap();
            plan.paths.last().unwrap().theta
        };
        let beluga = host_share(presets::beluga());
        let narval = host_share(presets::narval());
        assert!(
            narval < beluga,
            "narval host share {narval} should trail beluga {beluga}"
        );
    }

    #[test]
    fn plan_rejects_non_gpu_endpoints() {
        let p = planner(presets::beluga());
        let hm = p.topology().host_memories()[0];
        let g0 = p.topology().gpus()[0];
        assert!(p.plan(hm, g0, MIB, PathSelection::DIRECT_ONLY).is_err());
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_byte_plan_panics() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let _ = p.plan(gpus[0], gpus[1], 0, PathSelection::DIRECT_ONLY);
    }

    #[test]
    fn windowed_bandwidth_amortizes_fixed_costs() {
        let plan = beluga_plan(2 * MIB, PathSelection::THREE_GPUS);
        let w1 = plan.predicted_windowed_bandwidth(1);
        let w16 = plan.predicted_windowed_bandwidth(16);
        assert!((w1 - plan.predicted_bandwidth).abs() < 1e-3 * w1);
        assert!(w16 > w1, "window must raise small-message bandwidth");
        // Bounded by the streaming asymptote.
        let asymptote = plan.n as f64
            / plan
                .paths
                .iter()
                .filter(|p| p.share_bytes > 0)
                .map(|p| p.predicted_time - p.params.delta_unpipelined())
                .fold(0.0f64, f64::max);
        assert!(w16 <= asymptote * 1.001);
    }

    #[test]
    fn windowed_bandwidth_matters_less_for_large_messages() {
        let small = beluga_plan(2 * MIB, PathSelection::THREE_GPUS);
        let large = beluga_plan(256 * MIB, PathSelection::THREE_GPUS);
        let lift = |p: &TransferPlan| {
            p.predicted_windowed_bandwidth(16) / p.predicted_windowed_bandwidth(1)
        };
        assert!(lift(&small) > lift(&large));
        assert!(lift(&large) < 1.01, "256 MB is latency-insensitive");
    }

    #[test]
    fn invalidate_pair_forgets_only_that_pair() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let a1 = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let b1 = p
            .plan(gpus[0], gpus[2], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let sel = PathSelection::TWO_GPUS;
        p.invalidate_pair((gpus[0], gpus[1], sel.max_gpu_staged, sel.host_staged));
        let a2 = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let b2 = p
            .plan(gpus[0], gpus[2], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        assert!(!Arc::ptr_eq(&a1, &a2), "invalidated pair must re-solve");
        assert!(Arc::ptr_eq(&b1, &b2), "other pair must stay cached");
        let stats = p.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn theta_distribution_shifts_with_message_size() {
        // Fig. 4's qualitative shape: the direct share shrinks toward its
        // asymptote as n grows, staged shares grow.
        let direct_theta = |n: usize| beluga_plan(n, PathSelection::THREE_GPUS).paths[0].theta;
        let small = direct_theta(2 * MIB);
        let large = direct_theta(512 * MIB);
        assert!(
            small > large,
            "direct share should shrink: {small} -> {large}"
        );
        assert!(large > 0.3, "direct keeps the largest share: {large}");
    }

    #[test]
    fn a_full_memo_is_cleared_before_the_next_plan() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let plan = |n: usize| {
            p.plan(gpus[0], gpus[1], n, PathSelection::THREE_GPUS)
                .unwrap()
        };
        for k in 0..MEMO_CAP {
            plan(MIB + 4 * k);
        }
        assert_eq!(p.table.len(), MEMO_CAP);
        plan(MIB);
        assert_eq!(p.table.len(), MEMO_CAP, "a memoised size is a hit");
        plan(2 * MIB);
        assert_eq!(p.table.len(), 1);
    }

    /// Plans in a pair's memo and among its spares.
    fn held(table: &PlanTable, pair: &PairKey) -> (usize, usize) {
        let map = table.shard(pair).read();
        let slot = map.get(pair).expect("the pair has a slot");
        let spares = slot.spares.lock().len();
        (slot.memo.len(), spares)
    }

    /// Recycling never rewrites a plan a caller holds: neither a full
    /// memo's clear nor a drift's makes it a spare, and the misses after
    /// them, enough to solve into every spare, solve into other plans.
    #[test]
    fn a_held_plan_survives_memo_clears_and_later_misses() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let sel = PathSelection::THREE_GPUS_WITH_HOST;
        let pair: PairKey = (gpus[0], gpus[1], sel.max_gpu_staged, sel.host_staged);
        let plan = |n: usize| p.plan(gpus[0], gpus[1], n, sel).unwrap();
        let held = plan(64 * MIB);
        let before = format!("{held:?}");
        for k in 1..=3 * MEMO_CAP {
            plan(64 * MIB + 4 * k);
        }
        p.invalidate_pair(pair);
        for k in 1..=MEMO_CAP {
            plan(32 * MIB + 4 * k);
        }
        assert_eq!(format!("{held:?}"), before);
        let again = plan(64 * MIB);
        assert!(!Arc::ptr_eq(&held, &again), "the memo let it go");
        assert_eq!(format!("{again:?}"), before, "and solves it again alike");
    }

    /// A slot's memo and spares together stay within `MEMO_CAP` through
    /// full-memo clears, drifts and the misses after them.
    #[test]
    fn a_slot_holds_at_most_memo_cap_plans() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let sel = PathSelection::THREE_GPUS;
        let pair: PairKey = (gpus[0], gpus[1], sel.max_gpu_staged, sel.host_staged);
        for k in 1..=3 * MEMO_CAP {
            p.plan(gpus[0], gpus[1], MIB + 4 * k, sel).unwrap();
            if k == 2 * MEMO_CAP - 100 {
                p.invalidate_pair(pair);
            }
            let (memo, spares) = held(&p.table, &pair);
            assert!(memo + spares <= MEMO_CAP, "plan {k}: {memo} + {spares}");
        }
        p.invalidate_pair(pair);
        let (memo, spares) = held(&p.table, &pair);
        assert!(memo == 0 && spares > 0 && spares <= MEMO_CAP);
    }

    /// An entry measured while a link was down is rebuilt once that link
    /// is back, and not before; a healthy entry never asks about links.
    #[test]
    fn an_entry_measured_over_a_down_link_is_rebuilt_when_it_heals() {
        use std::cell::Cell;
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let sel = PathSelection::THREE_GPUS;
        let pair: PairKey = (gpus[0], gpus[1], sel.max_gpu_staged, sel.host_staged);
        let paths = enumerate_paths_auto(p.topology(), gpus[0], gpus[1], sel).unwrap();
        let dead = paths[1].legs[0].route[0];
        let (table, up, builds) = (PlanTable::new(), Cell::new(false), Cell::new(0));
        let plan = |n: usize| {
            let is_up = |l: LinkId| l != dead || up.get();
            p.plan_in(&table, pair, n, is_up, |_| {
                builds.set(builds.get() + 1);
                let params = extract_all(p.topology(), &paths)?;
                let down = if up.get() { vec![] } else { vec![dead] };
                p.entry(&paths, params, down, vec![]).map(Arc::new)
            })
            .unwrap()
        };
        let a = plan(64 * MIB);
        assert!(Arc::ptr_eq(&a, &plan(64 * MIB)));
        plan(32 * MIB);
        assert_eq!(builds.get(), 1, "still down: the entry stands");
        up.set(true);
        let b = plan(64 * MIB);
        assert!(!Arc::ptr_eq(&a, &b), "healed: re-planned");
        assert_eq!(builds.get(), 2);
        let never = |_: LinkId| -> bool { panic!("a healthy entry asked about a link") };
        let c = p.plan_in(&table, pair, 64 * MIB, never, |_| unreachable!());
        assert!(Arc::ptr_eq(&b, &c.unwrap()));
        assert_eq!(
            table.stats(),
            PlannerStats {
                hits: 2,
                misses: 3,
                invalidations: 0
            }
        );
    }

    /// A candidate set wider than the stack-resident solve is refused
    /// with an error, not planned past its arrays.
    #[test]
    fn too_many_candidate_paths_is_an_error() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let sel = PathSelection::DIRECT_ONLY;
        let direct = enumerate_paths_auto(p.topology(), gpus[0], gpus[1], sel).unwrap();
        let wide = vec![direct[0].clone(); MAX_PATHS + 1];
        assert_eq!(
            p.compute(MIB, &wide).unwrap_err(),
            TopologyError::TooManyPaths {
                paths: MAX_PATHS + 1,
                max: MAX_PATHS
            }
        );
        let plan = p.compute(MIB, &wide[..MAX_PATHS]).unwrap();
        assert_eq!(plan.paths.len(), MAX_PATHS);
    }
}
