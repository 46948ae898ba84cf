//! One lowering per plan, launched interpreted or replayed.
//!
//! [`Lowering::new`] is the only walk over a [`TransferPlan`]: the direct
//! copy, or the [`StagedWalk`] chunk loop of a staged path, into an
//! [`mpx_gpu::Schedule`] that holds no buffer, stream, event or ring. Each
//! copy is a tag — its path and its role: direct, or leg 1 / leg 2 of chunk
//! `c` — from which a launch derives placeholders, offsets, length and the
//! pair's route, folded once. Every PUT goes through one launcher,
//! [`launch`], whichever lowering it runs ([`Lowered`]). An interpreted
//! launch and a replayed one differ only in what they give
//! [`Schedule::launch`]:
//!
//! * [`Lowering::interpret`], the source paper's issue: fresh rings;
//!   `copy_launch` on every copy, `ε` more on a forwarding copy, the
//!   sequential initiation `copy_launch·i` on each path's first copy and
//!   rendezvous + IPC open on the first active path's; `xfer{seq}` names;
//!   a `Transfer` span when a recorder listens.
//! * [`Lowering::replay`], the CUDA-Graphs follow-up's replay: an idle
//!   [`Instance`]'s recycled rings; one graph launch plus the IPC open on
//!   each path's first copy and nothing else; `g{id}` names; a
//!   `GraphReplay` span.
//!
//! Either launch runs on engine lanes and flags: a PUT makes no stream or
//! event.
//!
//! [`GraphCache`] keeps one lowering per `(pair, n)`, cleared a shard at a
//! time at [`MEMO_CAP`] entries, the bound of a pair's plan memo, for
//! plans of its shape only (byte count, each path's kind, share and chunk
//! count). Replay instances hang off it, one set per payload storage class.

use crate::context::{Launch, Observation, TransferObs};
use crate::pipeline::{PathSlot, PutRequest, StagedWalk, TransferHandle};
use mpx_gpu::{
    staging_ring, Buffer, GpuRuntime, GraphBuf, GraphCopy, GraphOp, GraphStream, Instance, Schedule,
};
use mpx_model::{PairKey, PlannedPath, ShardedMap, TransferPlan, MEMO_CAP};
use mpx_obs::Phase;
use mpx_sim::{Ctx, EventFn, Label, Route, Template, Waker};
use mpx_topo::path::TransferPath;
use mpx_topo::units::Secs;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What a copy is in its path: it decides the copy's placeholders, name
/// and software costs.
#[derive(Clone, Copy)]
enum Role {
    /// A direct path's one copy.
    Direct,
    /// Chunk `c` into its ring slot.
    Leg1(u32),
    /// Chunk `c` out of its ring slot, forwarded once its `READY` fired.
    Leg2(u32),
}

/// A lowered copy: the index of its path among the active ones, and its
/// role.
type CopyTag = (u32, Role);

/// The names a launch gives its copies, unformatted: direct over (number,
/// path), leg 1 and leg 2 over (number, path, chunk); the number is an
/// interpreted PUT's sequence or a replay instance's id.
type Names = [Template; 3];

/// One name set per prefix, so the two cannot drift apart.
macro_rules! names {
    ($prefix:literal) => {
        [
            Template(concat!($prefix, "{}.p{}.direct"), &[40, 8]),
            Template(concat!($prefix, "{}.p{}.c{}.leg1"), &[40, 8, 16]),
            Template(concat!($prefix, "{}.p{}.c{}.leg2"), &[40, 8, 16]),
        ]
    };
}

static XFER: Names = names!("xfer");
static GRAPH: Names = names!("g");

/// An interpreted PUT's done-waker per path (sequence, path index); a
/// replay instance names its own.
static PATH_DONE: Template = Template("xfer{}.p{}", &[40, 8]);

impl Role {
    /// The name of this copy of `path` from `names`, over `number`.
    fn name(self, names: &'static Names, number: u64, path: usize) -> Label {
        let path = path as u64;
        match self {
            Role::Direct => names[0].label(&[number, path]),
            Role::Leg1(c) => names[1].label(&[number, path, u64::from(c)]),
            Role::Leg2(c) => names[2].label(&[number, path, u64::from(c)]),
        }
    }
}

/// One active path of a lowering.
struct ActivePath {
    /// The message range it owns.
    slot: PathSlot,
    /// Its route in the schedule; a staged path's leg 2 has the next one.
    route: usize,
    /// A staged path's chunk walk and ring.
    walk: Option<(StagedWalk, usize)>,
}

/// A plan lowered into a [`Schedule`], with what its launches need besides;
/// see the module docs.
pub(crate) struct Lowering {
    schedule: Schedule<CopyTag>,
    /// The plan a cached lowering serves ([`GraphCache`] sets it).
    plan: Option<Arc<TransferPlan>>,
    /// Replay instances made from it: real payloads first, synthetic
    /// second.
    instances: [Mutex<Vec<Arc<Instance>>>; 2],
    /// The pair's routes, every path's legs in order.
    routes: Arc<Vec<Route>>,
    /// The active paths, in plan order.
    paths: Vec<ActivePath>,
}

impl Lowering {
    /// Lowers `plan` over `paths`, the candidate set it was computed from
    /// (same order), whose legs' routes `routes` folds ([`fold_routes`]).
    ///
    /// # Panics
    /// Panics if plan and paths disagree.
    pub(crate) fn new(
        plan: &TransferPlan,
        paths: &[TransferPath],
        routes: &Arc<Vec<Route>>,
    ) -> Lowering {
        assert_eq!(plan.paths.len(), paths.len(), "plan/path set mismatch");
        // Each active path, its offset and, when staged, its chunk walk —
        // counted first, so that every vector below has its exact size.
        let active = || {
            let mut offset = 0;
            (plan.paths.iter().zip(paths).enumerate())
                .filter(|(_, (pp, _))| pp.share_bytes > 0)
                .map(move |(pi, (pp, path))| {
                    assert_eq!(pp.kind, path.kind, "plan/path kind mismatch at {pi}");
                    let slot = PathSlot {
                        path_index: pi,
                        offset,
                        bytes: pp.share_bytes,
                    };
                    offset += pp.share_bytes;
                    let walk = || StagedWalk::new(slot.offset, slot.bytes, pp.chunks);
                    (slot, path, path.is_staged().then(walk))
                })
        };
        let (mut count, mut staged, mut ops, mut events, mut n) = (0, 0, 0, 0, 0);
        for (slot, _, walk) in active() {
            let (live, freed) = walk.map_or((0, 0), |w| (w.live, w.freed_events));
            (count, n, events) = (count + 1, n + slot.bytes, events + live + freed);
            staged += usize::from(walk.is_some());
            ops += walk.map_or(1, |_| 4 * live + 2 * freed);
        }
        assert_eq!(n, plan.n, "plan shares do not cover the message");
        let mut s = Schedule {
            n,
            streams: Vec::with_capacity(count + staged),
            ops: Vec::with_capacity(ops),
            rings: Vec::with_capacity(staged),
            events,
        };
        let (mut lowered, mut first_event) = (Vec::with_capacity(count), 0);
        // A path's first route: its legs follow those of every path before it.
        let legs = |pi: usize| paths[..pi].iter().map(|p| p.legs.len()).sum::<usize>();
        for (k, (slot, path, walk)) in active().enumerate() {
            let (k, pi, start) = (k as u32, slot.path_index, s.ops.len());
            let stream = |ops, ends| GraphStream { ops, ends };
            let walk = walk.map(|walk| {
                let via = path.kind.staging_device().expect("staged path");
                s.rings.push((via, walk.ring_len));
                // The path's events: `READY` of each live chunk, then `FREED`
                // of each chunk a later one waits on. Leg 1's ops, then leg 2's.
                let (ready, freed) = (first_event, first_event + walk.live);
                for ch in walk.chunks() {
                    if let Some(earlier) = ch.waits_freed {
                        s.ops.push(GraphOp::Wait(freed + earlier));
                    }
                    s.ops.push(GraphOp::Copy((k, Role::Leg1(ch.index as u32))));
                    s.ops.push(GraphOp::Record(ready + ch.index));
                }
                let mid = s.ops.len();
                for ch in walk.chunks() {
                    s.ops.push(GraphOp::Wait(ready + ch.index));
                    s.ops.push(GraphOp::Copy((k, Role::Leg2(ch.index as u32))));
                    if ch.records_freed {
                        s.ops.push(GraphOp::Record(freed + ch.index));
                    }
                }
                s.streams.push(stream(start..mid, None));
                s.streams.push(stream(mid..s.ops.len(), Some(pi)));
                first_event = freed + walk.freed_events;
                (walk, s.rings.len() - 1)
            });
            if walk.is_none() {
                s.ops.push(GraphOp::Copy((k, Role::Direct)));
                s.streams.push(stream(start..start + 1, Some(pi)));
            }
            let route = legs(pi);
            lowered.push(ActivePath { slot, route, walk });
        }
        Lowering {
            schedule: s,
            plan: None,
            instances: Default::default(),
            routes: routes.clone(),
            paths: lowered,
        }
    }

    /// Copy `(k, role)` as a launch issues it, priced by `price(path, role)`
    /// and named from `names` over `number`.
    fn copy(
        &self,
        (k, role): CopyTag,
        price: impl Fn(usize, Role) -> Secs,
        (names, number): (&'static Names, u64),
    ) -> GraphCopy {
        let p = &self.paths[k as usize];
        let pi = p.slot.path_index;
        let (src, dst) = (GraphBuf::Src, GraphBuf::Dst);
        let ((src, dst, len), route) = match (role, p.walk) {
            (Role::Direct, _) => {
                let (at, len) = (p.slot.offset, p.slot.bytes);
                (((src, at), (dst, at), len), p.route)
            }
            (Role::Leg1(c) | Role::Leg2(c), Some((walk, ring))) => {
                let ch = walk.chunk(c as usize);
                let ring = (GraphBuf::Staging(ring), ch.slot_off);
                match role {
                    Role::Leg1(_) => (((src, ch.off), ring, ch.len), p.route),
                    _ => ((ring, (dst, ch.off), ch.len), p.route + 1),
                }
            }
            _ => unreachable!("a leg copy on a direct path"),
        };
        let (route, extra) = (self.routes[route].clone(), price(pi, role));
        let label = role.name(names, number, pi);
        GraphCopy {
            src,
            dst,
            len,
            route,
            extra,
            label,
        }
    }

    /// Launches an interpreted PUT of `req` under the source paper's
    /// per-copy cost model, on rings made for it; `req.notify` fires once the
    /// whole message has landed, and `obs` (if any) records it. Returns one
    /// waker per active path.
    ///
    /// # Panics
    /// Panics if either buffer is smaller than its offset plus the message.
    fn interpret(
        &self,
        rt: &GpuRuntime,
        req: &PutRequest<'_>,
        seq: u64,
        predicted: Secs,
        obs: Option<TransferObs>,
    ) -> Vec<Waker> {
        let oh = rt.engine().topology().overheads;
        let (src, dst) = (req.src.0, req.dst.0);
        // One-time software costs, charged on the first active path's first
        // copy: rendezvous in the cuda_ipc module plus the IPC handle-open
        // cost for the importing side.
        let once = oh.rendezvous + rt.ipc().open_cost(src.device().0, dst.id());
        let first_path = self.paths.first().map_or(0, |p| p.slot.path_index);
        let extra = |path: usize, role: Role| {
            oh.copy_launch
                + match role {
                    // The event synchronization cost ε is charged on the
                    // forwarding copy.
                    Role::Leg2(_) => oh.stage_sync,
                    // Sequential initiation: path i's first launch waits
                    // behind the launches of the paths before it
                    // (Algorithm 1 line 18).
                    Role::Direct | Role::Leg1(0) => {
                        oh.copy_launch * path as f64 + if path == first_path { once } else { 0.0 }
                    }
                    _ => 0.0,
                }
        };
        let rings: Vec<Buffer> = (self.schedule.rings.iter())
            .map(|&(via, len)| staging_ring(rt, via, len, src.is_synthetic()))
            .collect();
        // A tail only when somebody listens.
        let tail = (!req.notify.is_empty() || obs.is_some()).then(|| {
            let last = self.record(rt, seq, predicted, obs, Launch::Interpreted);
            (req.notify, Box::new(last) as EventFn)
        });
        self.schedule.launch(
            rt.engine(),
            req.src,
            req.dst,
            &rings,
            |&t| self.copy(t, extra, (&XFER, seq)),
            |pi| Waker::new(PATH_DONE.label(&[seq, pi as u64])),
            tail,
        )
    }

    /// What the whole-message tail does when `obs` is set: a span of the
    /// launch from now to completion, and the launch's [`Observation`] to
    /// the context's consumer.
    fn record(
        &self,
        rt: &GpuRuntime,
        seq: u64,
        predicted: Secs,
        obs: Option<TransferObs>,
        launch: Launch,
    ) -> impl Fn(&mut Ctx<'_>) + Send + Sync + 'static {
        let (n, issued) = (self.schedule.n, rt.engine().now().as_secs());
        move |ctx| {
            let Some(o) = &obs else { return };
            let (end, pair) = (ctx.now().as_secs(), o.pair);
            let measured = end - issued;
            let (phase, what) = match launch {
                Launch::Replayed => (Phase::GraphReplay, "replay "),
                _ => (Phase::Transfer, ""),
            };
            o.rec.span(
                phase,
                format!("pair:{}->{}", pair.0, pair.1),
                format!("{what}xfer{seq} {n}B"),
                issued,
                end,
                format!(
                    "predicted_us={:.3} measured_us={:.3}",
                    predicted * 1e6,
                    measured * 1e6
                ),
            );
            o.observe(&Observation(pair, n, launch, predicted, measured, end));
        }
    }
}

/// The routes of `paths`' legs, folded once ([`Route::shared`]), in path and
/// leg order.
pub(crate) fn fold_routes(paths: &[TransferPath]) -> Arc<Vec<Route>> {
    let legs = paths.iter().flat_map(|p| &p.legs);
    Arc::new(legs.map(|leg| Route::shared(&leg.route)).collect())
}

impl Lowering {
    /// Whether this lowering serves `plan`: its own plan, or one of the same
    /// shape — byte count, and per path kind, share and chunk count.
    fn serves(&self, plan: &Arc<TransferPlan>) -> bool {
        let shape = |p: &PlannedPath| (p.kind, p.share_bytes, p.chunks);
        let Some(own) = &self.plan else { return false };
        let (old, new) = (&own.paths, &plan.paths);
        Arc::ptr_eq(own, plan)
            || own.n == plan.n
                && old.len() == new.len()
                && old.iter().zip(new).all(|(a, b)| shape(a) == shape(b))
    }

    /// Launches a replayed PUT of `req` on an idle instance, or on a new one
    /// when all are busy — `created` hears of a new one once it is launched,
    /// with its id and the count of its storage class. Each path's first
    /// copy pays one graph launch plus whatever the IPC cache still charges
    /// for this destination handle; the per-op launch, ε, rendezvous and
    /// initiation costs of an interpreted launch are compiled away — that is
    /// the point of replay. Arguments as [`Lowering::interpret`].
    fn replay(
        &self,
        rt: &GpuRuntime,
        req: &PutRequest<'_>,
        seq: u64,
        predicted: Secs,
        mut obs: Option<TransferObs>,
        created: &dyn Fn(u64, usize),
    ) -> Vec<Waker> {
        let (src, dst) = (req.src.0, req.dst.0);
        let oh = rt.engine().topology().overheads;
        let first_extra = oh.copy_launch + rt.ipc().open_cost(src.device().0, dst.id());
        let price = |_, role| match role {
            Role::Direct | Role::Leg1(0) => first_extra,
            _ => 0.0,
        };
        let mut launch = |i: &Instance| {
            let copy = |&t: &CopyTag| self.copy(t, price, (&GRAPH, i.id()));
            let last = || self.record(rt, seq, predicted, obs.take(), Launch::Replayed);
            i.try_launch(&self.schedule, req.src, req.dst, copy, req.notify, last)
        };
        let synthetic = src.is_synthetic();
        let set = &self.instances[usize::from(synthetic)];
        // Locked only to look an instance up, never across a launch.
        let mut idle = (0..).map_while(|k| set.lock().get(k).cloned());
        idle.find_map(|i| launch(&i)).unwrap_or_else(|| {
            // Launched before it is shared: no other launch claims it.
            let fresh = Arc::new(Instance::new(rt, &self.schedule, synthetic));
            let wakers = launch(&fresh).expect("a new instance is idle");
            let (id, mut set) = (fresh.id(), set.lock());
            set.push(fresh);
            created(id, set.len());
            wakers
        })
    }
}

/// Paths of a pair and their legs' routes, folded ([`fold_routes`]).
pub(crate) type Candidates<'a> = (&'a [TransferPath], &'a Arc<Vec<Route>>);

/// What [`launch`] runs.
pub(crate) enum Lowered<'a> {
    /// A lowering kept across launches — a key's cached one, over every
    /// candidate of the pair, or the static tuner's — and the prediction of
    /// the plan it serves now: replayed when given the hook that hears of
    /// each instance made ([`Lowering::replay`]), else interpreted.
    Cached(&'a Lowering, Secs, Option<&'a dyn Fn(u64, usize)>),
    /// A plan over a subset of the pair's candidates and, unless they are all
    /// of them, each one's candidate index: lowered for this launch alone,
    /// interpreted.
    Plan(&'a TransferPlan, Candidates<'a>, Option<&'a [usize]>),
}

/// The one launch of a PUT: `req` as sequence `seq`, on `lowered`, recorded
/// by `obs` (if any). The handle's slots speak candidate indices whatever
/// subset the lowering covers.
pub(crate) fn launch(
    rt: &GpuRuntime,
    req: &PutRequest<'_>,
    seq: u64,
    lowered: Lowered<'_>,
    obs: Option<TransferObs>,
) -> TransferHandle {
    let once;
    let (lowering, predicted, created, index) = match lowered {
        Lowered::Cached(lowering, predicted, created) => (lowering, predicted, created, None),
        Lowered::Plan(plan, (paths, routes), index) => {
            once = Lowering::new(plan, paths, routes);
            (&once, plan.predicted_time, None, index)
        }
    };
    debug_assert_eq!(req.n, lowering.schedule.n, "request/lowering size mismatch");
    let wakers = match created {
        None => lowering.interpret(rt, req, seq, predicted, obs),
        Some(created) => lowering.replay(rt, req, seq, predicted, obs, created),
    };
    let candidate = |s: &ActivePath| PathSlot {
        path_index: index.map_or(s.slot.path_index, |ix| ix[s.slot.path_index]),
        ..s.slot
    };
    let slots = lowering.paths.iter().map(candidate).collect();
    TransferHandle::from_parts(wakers, slots, lowering.schedule.n, seq)
}

/// Counters of the replay path (see [`crate::UcxContext::graph_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Replay instances created: a key's first replay, and every replay
    /// that found all of its key's instances busy.
    pub captures: u64,
    /// Transfers executed by replay.
    pub replays: u64,
    /// Always 0: a busy instance spawns another, and no replay-eligible
    /// transfer runs interpreted. Kept for the readers of the counters.
    pub fallbacks: u64,
    /// Drift/recalibration events that evicted lowerings.
    pub invalidations: u64,
}

/// One lowering per `(pair, n)`, sharded by pair like the plan tables,
/// evicted by the same drift signals.
#[derive(Default)]
pub(crate) struct GraphCache {
    lowered: ShardedMap<(PairKey, usize), Arc<Lowering>>,
    pub(crate) captures: AtomicU64,
    pub(crate) replays: AtomicU64,
    invalidations: AtomicU64,
}

impl GraphCache {
    /// The lowering that serves `plan` for `(pair, plan.n)`: the cached one
    /// if `plan` has its shape, else `plan` lowered over `paths` (routes
    /// folded on first use), replacing it (a full shard is cleared first).
    pub(crate) fn lowered(
        &self,
        pair: &PairKey,
        plan: &Arc<TransferPlan>,
        (paths, routes): (&[TransferPath], &OnceLock<Arc<Vec<Route>>>),
    ) -> Arc<Lowering> {
        let entry = (*pair, plan.n);
        if let Some(l) = self.lowered.get(pair, &entry).filter(|l| l.serves(plan)) {
            return l;
        }
        let mut fresh = Lowering::new(plan, paths, routes.get_or_init(|| fold_routes(paths)));
        fresh.plan = Some(plan.clone());
        let fresh = Arc::new(fresh);
        self.lowered
            .insert_capped(pair, entry, fresh.clone(), MEMO_CAP);
        fresh
    }

    /// Drops every lowering of `pair` — one shard, same locking discipline
    /// as the plan tables' `invalidate_pair`.
    pub(crate) fn invalidate_pair(&self, pair: &PairKey) {
        self.lowered.retain_in_shard(pair, |k| k.0 != *pair);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops everything (recalibration).
    pub(crate) fn clear(&self) {
        self.lowered.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> GraphStats {
        GraphStats {
            captures: self.captures.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            fallbacks: 0,
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RING_DEPTH;
    use mpx_model::Planner;
    use mpx_topo::path::{enumerate_paths, PathSelection};
    use mpx_topo::presets;
    use mpx_topo::units::MIB;
    use mpx_topo::DeviceId;

    /// Every template against the `format!` it replaced, over wide values:
    /// a number up to 2^40, a path up to 255, a chunk up to 65 535.
    #[test]
    fn every_name_renders_as_the_format_it_replaced() {
        for i in 0..300u64 {
            let (seq, p, c) = (i * 3_665_038_759 % (1 << 40), i % 256, i * 219 % 65_536);
            let done = PATH_DONE.label(&[seq, p]).to_string();
            assert_eq!(done, format!("xfer{seq}.p{p}"));
            for (names, prefix) in [(&XFER, "xfer"), (&GRAPH, "g")] {
                let path = format!("{prefix}{seq}.p{p}");
                let copy = |role: Role| role.name(names, seq, p as usize).to_string();
                assert_eq!(copy(Role::Direct), format!("{path}.direct"));
                assert_eq!(copy(Role::Leg1(c as u32)), format!("{path}.c{c}.leg1"));
                assert_eq!(copy(Role::Leg2(c as u32)), format!("{path}.c{c}.leg2"));
            }
        }
    }

    fn four_paths(n: usize) -> (TransferPlan, Vec<TransferPath>) {
        let topo = Arc::new(presets::beluga());
        let (gpus, sel) = (topo.gpus(), PathSelection::THREE_GPUS_WITH_HOST);
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
        let plan = Planner::new(topo).plan(gpus[0], gpus[1], n, sel).unwrap();
        ((*plan).clone(), paths)
    }

    /// A lowering holds what an issue builds: one ring of at most
    /// `RING_DEPTH` chunk-sized slots per staged path, a `READY` event per
    /// chunk and a `FREED` one only where a later chunk waits on it (each
    /// recorded once and waited on once), one stream per direct path and
    /// two per staged path — every vector at its exact size.
    #[test]
    fn a_lowering_holds_the_rings_events_and_streams_an_issue_needs() {
        let (plan, paths) = four_paths(128 * MIB);
        let l = Lowering::new(&plan, &paths, &fold_routes(&paths));
        let s = &l.schedule;
        let staged = || plan.active_paths().filter(|p| !p.kind.is_direct());
        let ring_bound: usize = staged()
            .map(|p| RING_DEPTH * (p.share_bytes / p.chunks as usize + 1))
            .sum();
        let ring_bytes: usize = s.rings.iter().map(|r| r.1).sum();
        assert!(ring_bytes > 0 && ring_bytes <= ring_bound);
        let events: usize = staged()
            .map(|p| p.chunks as usize + (p.chunks as usize).saturating_sub(RING_DEPTH))
            .sum();
        assert_eq!((s.events, events), (46, 46));
        assert_eq!(s.streams.len(), 1 + 2 * staged().count());
        assert_eq!(l.paths.len(), l.paths.capacity());
        assert_eq!(s.streams.len(), s.streams.capacity());
        assert_eq!(s.ops.len(), s.ops.capacity());
        let mut uses = vec![[0, 0]; s.events];
        for op in &s.ops {
            match op {
                GraphOp::Record(e) => uses[*e][0] += 1,
                GraphOp::Wait(e) => uses[*e][1] += 1,
                GraphOp::Copy(_) => {}
            }
        }
        assert!(uses.iter().all(|u| *u == [1, 1]), "{uses:?}");
    }

    /// A key's lowering serves every plan of its shape, whatever the plan
    /// predicts, and a plan of another shape replaces it.
    #[test]
    fn a_plan_of_another_shape_replaces_the_keys_lowering() {
        let (plan, paths) = four_paths(32 * MIB);
        let (cache, routes) = (GraphCache::default(), OnceLock::new());
        let pair: PairKey = (DeviceId(0), DeviceId(1), 2, true);
        let lower = |plan: &TransferPlan| {
            let plan = Arc::new(plan.clone());
            cache.lowered(&pair, &plan, (&paths, &routes))
        };
        let a = lower(&plan);
        let mut slower = plan.clone();
        slower.predicted_time *= 2.0;
        assert!(Arc::ptr_eq(&a, &lower(&slower)), "same shape");
        let mut direct = plan.clone();
        direct.paths.iter_mut().for_each(|p| p.share_bytes = 0);
        direct.paths[0].share_bytes = direct.n;
        let c = lower(&direct);
        assert!(!Arc::ptr_eq(&a, &c), "a new shape must re-lower");
        assert_eq!(c.paths.len(), 1);
        assert!(Arc::ptr_eq(&c, &lower(&direct)), "and it replaced the old");
        let mut rechunked = plan.clone();
        rechunked.paths[1].chunks += 1;
        assert!(!lower(&rechunked).serves(&Arc::new(plan)));
    }
}
