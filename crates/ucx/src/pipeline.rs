//! The multi-path pipeline engine (paper Section 3.4 + Fig. 2(b), after
//! the engine of reference \[35\]).
//!
//! Given a [`TransferPlan`], the engine executes each path's share
//! concurrently:
//!
//! * the **direct** path is one asynchronous copy on a stream of the
//!   source GPU;
//! * each **staged** path runs the three-step chunk loop on two streams —
//!   leg 1 on the source GPU copies chunk `c` into its slot of the path's
//!   staging ring and records `READY[c]`; leg 2 on the staging device waits
//!   that event and forwards the chunk. Stream ordering pipelines the
//!   chunks; the event sync cost `ε` and the per-copy launch cost are
//!   charged exactly where the model assumes them.
//!
//! An issue builds only what the transfer needs ([`StagedWalk`] is the
//! arithmetic, shared with the graph compiler): one [`Program`] per stream,
//! of its exact length, submitted leg 1 before leg 2 in plan order; one
//! staging buffer per staged path, `min(RING_DEPTH, k)` slots in it; and,
//! beside the `READY` events, a `FREED[c]` event only where chunk
//! `c + RING_DEPTH` exists to wait for the slot.
//!
//! The engine never blocks: it returns a [`TransferHandle`] whose wakers
//! fire as paths drain. Rank threads wait on it; callback-structured
//! tests drain the engine instead.

use mpx_gpu::{Buffer, GpuRuntime, Program};
use mpx_model::TransferPlan;
use mpx_obs::{Phase, QuantileHist, Recorder, ResidualTracker};
use mpx_sim::{Route, SimTime, Template, Waker};
use mpx_topo::path::TransferPath;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Telemetry attached to one transfer by the context: whole-message
/// completion records a `Phase::Transfer` span on the pair's track and
/// feeds the plan's prediction vs the simulated duration to the residual
/// tracker.
#[derive(Clone)]
pub(crate) struct TransferObs {
    pub(crate) rec: Recorder,
    pub(crate) residual: Arc<ResidualTracker>,
    /// Whole-message latency histogram, shared context-wide.
    pub(crate) hist: Arc<QuantileHist>,
    /// Pair label, e.g. `dev0->dev1`.
    pub(crate) pair: String,
}

/// A transfer did not drain all paths before its deadline. Carries the
/// deadline so callers can report how much slack was granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut {
    /// The virtual-time deadline that expired.
    pub deadline: SimTime,
}

impl fmt::Display for TimedOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transfer missed deadline {}", self.deadline)
    }
}

impl std::error::Error for TimedOut {}

/// The message range one active path was responsible for. Offsets are
/// relative to the message (add the caller's `src_off`/`dst_off` to get
/// buffer offsets) — this is exactly what a recovery pass needs to
/// re-send a path's residual bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSlot {
    /// Index into the *candidate path set* the plan was computed from.
    pub path_index: usize,
    /// Start of this path's range within the message.
    pub offset: usize,
    /// Bytes assigned to this path.
    pub bytes: usize,
}

/// In-flight multi-path transfer: one waker per active path.
#[derive(Debug)]
pub struct TransferHandle {
    wakers: Vec<Waker>,
    /// Parallel to `wakers`: which message range each active path owns.
    slots: Vec<PathSlot>,
    /// Parallel to `wakers`: set once the corresponding waker has been
    /// consumed by a successful `wait`/`wait_deadline` (waiting consumes
    /// the signal, so `is_signaled` alone cannot tell "drained").
    drained: Vec<AtomicBool>,
    /// Total bytes of the message.
    pub bytes: usize,
}

impl TransferHandle {
    /// Blocks the simulated thread until every path has drained.
    pub fn wait(&self, thread: &mpx_sim::SimThread) {
        for (w, d) in self.wakers.iter().zip(&self.drained) {
            thread.wait(w);
            d.store(true, Ordering::Release);
        }
    }

    /// Blocks until every path has drained **or** virtual time reaches
    /// `deadline`, whichever comes first. On timeout the handle remembers
    /// which paths did drain; [`TransferHandle::unfinished`] returns the
    /// rest so a recovery pass can re-send their residual ranges.
    pub fn wait_deadline(
        &self,
        thread: &mpx_sim::SimThread,
        deadline: SimTime,
    ) -> Result<(), TimedOut> {
        for (w, d) in self.wakers.iter().zip(&self.drained) {
            if d.load(Ordering::Acquire) {
                continue;
            }
            if !thread.wait_until(w, deadline) {
                // A path may have completed in the same instant the
                // deadline fired, or while we were draining earlier
                // wakers — sweep so `unfinished` is exact.
                for (w2, d2) in self.wakers.iter().zip(&self.drained) {
                    if w2.is_signaled() {
                        d2.store(true, Ordering::Release);
                    }
                }
                if self.drained_count() == self.wakers.len() {
                    return Ok(());
                }
                return Err(TimedOut { deadline });
            }
            d.store(true, Ordering::Release);
        }
        Ok(())
    }

    fn drained_count(&self) -> usize {
        self.drained
            .iter()
            .filter(|d| d.load(Ordering::Acquire))
            .count()
    }

    /// True once every path has signaled or been drained by a wait.
    /// (Non-consuming check for callback-structured drivers.)
    pub fn is_complete(&self) -> bool {
        self.wakers
            .iter()
            .zip(&self.drained)
            .all(|(w, d)| d.load(Ordering::Acquire) || w.is_signaled())
    }

    /// Message ranges of paths that have neither signaled nor been
    /// drained — the residual work after a missed deadline.
    pub fn unfinished(&self) -> Vec<PathSlot> {
        self.slots
            .iter()
            .zip(&self.wakers)
            .zip(&self.drained)
            .filter(|((_, w), d)| !d.load(Ordering::Acquire) && !w.is_signaled())
            .map(|((s, _), _)| *s)
            .collect()
    }

    /// Number of active paths.
    pub fn path_count(&self) -> usize {
        self.wakers.len()
    }

    /// The message range each active path owns (drained or not).
    pub(crate) fn slots(&self) -> &[PathSlot] {
        &self.slots
    }

    /// Rewrites each slot's `path_index` through `orig`, mapping indices
    /// into a filtered survivor set back into the full candidate set —
    /// so breaker attribution always speaks candidate-set indices no
    /// matter which subset a plan executed over.
    pub(crate) fn remap_path_indices(&mut self, orig: &[usize]) {
        for s in &mut self.slots {
            s.path_index = orig[s.path_index];
        }
    }

    /// Assembles a handle from per-path wakers and their message ranges —
    /// how the graph-replay fast path wraps a
    /// [`mpx_gpu::TransferGraph::launch`] so callers see the same handle
    /// either way.
    pub(crate) fn from_parts(
        wakers: Vec<Waker>,
        slots: Vec<PathSlot>,
        bytes: usize,
    ) -> TransferHandle {
        let drained = wakers.iter().map(|_| AtomicBool::new(false)).collect();
        TransferHandle {
            wakers,
            slots,
            drained,
            bytes,
        }
    }
}

/// Executes `plan` moving `src → dst`, returning immediately.
///
/// `paths` must be the candidate set the plan was computed from (same
/// order). `transfer_seq` tags trace labels so overlapping transfers can
/// be told apart.
///
/// # Panics
/// Panics if buffer sizes don't match the plan, or if plan and paths
/// disagree.
pub fn execute_plan(
    rt: &GpuRuntime,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src: &Buffer,
    dst: &Buffer,
    transfer_seq: u64,
) -> TransferHandle {
    execute_plan_at_obs(rt, plan, paths, src, 0, dst, 0, transfer_seq, &[], None)
}

/// Names a PUT hands out unformatted, over (transfer sequence, path index,
/// chunk index): a path's done-waker, its direct copy, a chunk's two legs
/// and its two events (staged and ready to forward, slot freed).
static PATH_DONE: Template = Template("xfer{}.p{}", &[40, 8]);
static DIRECT: Template = Template("xfer{}.p{}.direct", &[40, 8]);
static LEG1: Template = Template("xfer{}.p{}.c{}.leg1", &[40, 8, 16]);
static LEG2: Template = Template("xfer{}.p{}.c{}.leg2", &[40, 8, 16]);
static READY: Template = Template("xfer{}.p{}.c{}", &[40, 8, 16]);
static FREED: Template = Template("xfer{}.p{}.c{}.freed", &[40, 8, 16]);

/// Staging slots available per path, all in one buffer: chunk `c` stages
/// through bytes `[(c % depth)·slot_len ..][..len]` of it, and its first
/// leg cannot start until chunk `c − RING_DEPTH` has been forwarded out of
/// them, bounding staging memory like the ring buffers of the engine in
/// \[35\]. Deep enough that rate-matched legs never stall on it; it only
/// binds when the legs are badly mismatched.
pub const RING_DEPTH: usize = 4;

/// The chunk walk of one staged path: how its share splits into chunks and
/// where each one sits in the message and in the path's staging ring. The
/// interpreter and [`crate::compile::compile_plan`] both lower from it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedWalk {
    offset: usize,
    base: usize,
    rem: usize,
    /// Slots in the ring, each sized for the largest chunk.
    depth: usize,
    slot_len: usize,
    /// Chunks that carry bytes: `0..live` (an empty chunk is never issued).
    pub(crate) live: usize,
    /// Bytes of the path's one staging buffer.
    pub(crate) ring_len: usize,
    /// `FREED` events the walk records: one per chunk somebody waits on.
    pub(crate) freed_events: usize,
}

/// One live chunk of a [`StagedWalk`].
pub(crate) struct Chunk {
    pub(crate) index: usize,
    /// Where its bytes start in the message, and how many there are.
    pub(crate) off: usize,
    pub(crate) len: usize,
    /// Where its slot starts in the ring.
    pub(crate) slot_off: usize,
    /// Leg 1 first waits on the `FREED` event of this earlier chunk, the
    /// slot's previous occupant.
    pub(crate) waits_freed: Option<usize>,
    /// Leg 2 records a `FREED` event: a later chunk waits on it.
    pub(crate) records_freed: bool,
}

impl StagedWalk {
    /// `share` bytes starting `offset` into the message, in `chunks` chunks.
    pub(crate) fn new(offset: usize, share: usize, chunks: u32) -> StagedWalk {
        let k = chunks.max(1) as usize;
        let (base, rem) = (share / k, share % k);
        let (depth, slot_len) = (RING_DEPTH.min(k), base + usize::from(rem > 0));
        let live = if base == 0 { rem } else { k };
        StagedWalk {
            offset,
            base,
            rem,
            depth,
            slot_len,
            live,
            ring_len: depth * slot_len,
            freed_events: live.saturating_sub(RING_DEPTH),
        }
    }

    pub(crate) fn chunks(self) -> impl Iterator<Item = Chunk> {
        (0..self.live).map(move |c| Chunk {
            index: c,
            off: self.offset + c * self.base + c.min(self.rem),
            len: self.base + usize::from(c < self.rem),
            slot_off: c % self.depth * self.slot_len,
            waits_freed: c.checked_sub(RING_DEPTH),
            records_freed: c + RING_DEPTH < self.live,
        })
    }
}

/// The general form: moves `plan.n` bytes from `src[src_off..]` into
/// `dst[dst_off..]` (sub-range sends are how collectives transmit buffer
/// slices), firing `notify` when the whole message has landed, with
/// optional per-transfer telemetry (what the context passes when a
/// recorder is installed on the engine).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_plan_at_obs(
    rt: &GpuRuntime,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src: &Buffer,
    src_off: usize,
    dst: &Buffer,
    dst_off: usize,
    transfer_seq: u64,
    notify: &[Waker],
    obs: Option<TransferObs>,
) -> TransferHandle {
    assert_eq!(plan.paths.len(), paths.len(), "plan/path set mismatch");
    assert!(
        src.len() >= src_off + plan.n,
        "source buffer smaller than message"
    );
    assert!(
        dst.len() >= dst_off + plan.n,
        "destination buffer smaller than message"
    );

    let oh = rt.engine().topology().overheads;
    let synthetic = src.is_synthetic();
    let mut wakers = Vec::new();
    let mut slots = Vec::new();
    let mut offset = 0usize;

    // One-time software costs, charged on the direct path's first copy:
    // rendezvous in the cuda_ipc module plus the IPC handle-open cost for
    // the importing side.
    let ipc_cost = rt.ipc().open_cost(src.device().0, dst.id());
    let mut one_time = oh.rendezvous + ipc_cost;

    // The tail closure fires once per active path; the last one signals
    // the whole-message wakers and (when telemetry is attached) records
    // the transfer span and its model residual.
    // What it reads is built once and shared by every path's copy, and not
    // at all when nobody listens.
    let tail_state = (!notify.is_empty() || obs.is_some()).then(|| {
        let (active, issued) = (plan.active_path_count(), rt.engine().now().as_secs());
        Arc::new((AtomicUsize::new(active), obs, notify.to_vec(), issued))
    });
    let predicted = plan.predicted_time;
    let n_total = plan.n;
    let make_tail = || -> Option<mpx_sim::EventFn> {
        let tail_state = tail_state.clone()?;
        Some(Box::new(move |ctx| {
            let (remaining, obs, notify, issue_secs) = &*tail_state;
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                for w in notify {
                    ctx.signal(w);
                }
                if let Some(o) = obs {
                    let end = ctx.now().as_secs();
                    let measured = end - *issue_secs;
                    o.rec.span(
                        Phase::Transfer,
                        format!("pair:{}", o.pair),
                        format!("xfer{transfer_seq} {n_total}B"),
                        *issue_secs,
                        end,
                        format!(
                            "predicted_us={:.3} measured_us={:.3}",
                            predicted * 1e6,
                            measured * 1e6
                        ),
                    );
                    o.residual.record(&o.pair, n_total, predicted, measured);
                    o.hist.observe(measured);
                }
            }
        }))
    };

    for (pi, (pp, path)) in plan.paths.iter().zip(paths).enumerate() {
        if pp.share_bytes == 0 {
            continue;
        }
        assert_eq!(pp.kind, path.kind, "plan/path kind mismatch at {pi}");
        let share = pp.share_bytes;
        let done = Waker::new(PATH_DONE.label(&[transfer_seq, pi as u64]));

        // Sequential initiation: path i's first launch waits behind the
        // launches of the paths before it (Algorithm 1 line 18).
        let initiation = oh.copy_launch * pi as f64 + std::mem::take(&mut one_time);

        // Each arm leaves the program that ends the path, and its device.
        let tail = make_tail();
        let tail_ops = 1 + usize::from(tail.is_some());
        let (device, mut last) = match path.legs.len() {
            1 => {
                // Direct: a single copy over the direct route.
                let mut direct = Program::with_capacity(1 + tail_ops);
                direct.copy(
                    src,
                    src_off + offset,
                    dst,
                    dst_off + offset,
                    share,
                    path.legs[0].route.clone(),
                    oh.copy_launch + initiation,
                    DIRECT.label(&[transfer_seq, pi as u64]),
                );
                (src.device(), direct)
            }
            _ => {
                let via = path.kind.staging_device().expect("staged path");
                let walk = StagedWalk::new(offset, share, pp.chunks);
                // Folded once per leg; each chunk's copy, and its flow,
                // share it by reference count.
                let route1 = Route::shared(&path.legs[0].route);
                let route2 = Route::shared(&path.legs[1].route);
                // Staging memory is RING_DEPTH × chunk regardless of
                // message size. It comes recycled and unzeroed: leg 2 of a
                // chunk forwards exactly the bytes its leg 1 just wrote.
                let ring = if synthetic {
                    rt.alloc(via, walk.ring_len)
                } else {
                    rt.alloc_staging(via, walk.ring_len)
                };
                // One program per leg, each of its exact length.
                let ops = 2 * walk.live + walk.freed_events;
                let mut leg1 = Program::with_capacity(ops);
                let mut leg2 = Program::with_capacity(ops + tail_ops);
                let mut freed = Vec::with_capacity(walk.freed_events);
                for ch in walk.chunks() {
                    if let Some(earlier) = ch.waits_freed {
                        leg1.wait_event(&freed[earlier]);
                    }
                    let first_extra = if ch.index == 0 { initiation } else { 0.0 };
                    let chunk = [transfer_seq, pi as u64, ch.index as u64];
                    leg1.copy(
                        src,
                        src_off + ch.off,
                        &ring,
                        ch.slot_off,
                        ch.len,
                        route1.clone(),
                        oh.copy_launch + first_extra,
                        LEG1.label(&chunk),
                    );
                    let ready = rt.event(READY.label(&chunk));
                    leg1.record(&ready);
                    leg2.wait_event(&ready);
                    // The event synchronization cost ε is charged on the
                    // forwarding copy.
                    leg2.copy(
                        &ring,
                        ch.slot_off,
                        dst,
                        dst_off + ch.off,
                        ch.len,
                        route2.clone(),
                        oh.copy_launch + oh.stage_sync,
                        LEG2.label(&chunk),
                    );
                    if ch.records_freed {
                        freed.push(rt.event(FREED.label(&chunk)));
                        leg2.record(&freed[ch.index]);
                    }
                }
                // Leg 1 before leg 2: its first copy starts a flow on the
                // spot, in plan order; leg 2 parks on the first `READY`.
                rt.stream(src.device()).submit(leg1);
                (via, leg2)
            }
        };
        last.signal(&done);
        if let Some(tail) = tail {
            last.callback(tail);
        }
        rt.stream(device).submit(last);
        wakers.push(done);
        slots.push(PathSlot {
            path_index: pi,
            offset,
            bytes: share,
        });
        offset += share;
    }
    assert_eq!(offset, plan.n, "plan shares do not cover the message");
    let drained = wakers.iter().map(|_| AtomicBool::new(false)).collect();
    TransferHandle {
        wakers,
        slots,
        drained,
        bytes: plan.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_model::{Planner, PlannerConfig};
    use mpx_sim::Engine;
    use mpx_topo::path::{enumerate_paths, PathSelection};
    use mpx_topo::presets;
    use mpx_topo::units::MIB;
    use std::sync::Arc;

    #[test]
    fn every_name_renders_as_the_format_it_replaced() {
        for i in 0..300u64 {
            let (seq, p, c) = (i * 3_665_038_759 % (1 << 40), i % 256, i * 219 % 65_536);
            let (path, chunk) = ([seq, p], [seq, p, c]);
            let xfer = format!("xfer{seq}.p{p}");
            assert_eq!(PATH_DONE.label(&path).to_string(), xfer);
            assert_eq!(DIRECT.label(&path).to_string(), format!("{xfer}.direct"));
            assert_eq!(LEG1.label(&chunk).to_string(), format!("{xfer}.c{c}.leg1"));
            assert_eq!(LEG2.label(&chunk).to_string(), format!("{xfer}.c{c}.leg2"));
            assert_eq!(READY.label(&chunk).to_string(), format!("{xfer}.c{c}"));
            assert_eq!(
                FREED.label(&chunk).to_string(),
                format!("{xfer}.c{c}.freed")
            );
        }
    }

    fn setup(topo: mpx_topo::Topology) -> (GpuRuntime, Planner) {
        let topo = Arc::new(topo);
        let rt = GpuRuntime::new(Engine::new(topo.clone()));
        let planner = Planner::new(topo);
        (rt, planner)
    }

    fn run_transfer(
        topo: mpx_topo::Topology,
        n: usize,
        sel: PathSelection,
        real: bool,
    ) -> (f64, Option<Vec<u8>>) {
        let (rt, planner) = setup(topo);
        let gpus = rt.engine().topology().gpus();
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let (src, dst) = if real {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            (rt.alloc_bytes(gpus[0], data), rt.alloc_zeroed(gpus[1], n))
        } else {
            (rt.alloc(gpus[0], n), rt.alloc(gpus[1], n))
        };
        let h = execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        assert!(h.is_complete());
        (rt.engine().now().as_secs(), dst.to_vec())
    }

    #[test]
    fn direct_transfer_reaches_link_bandwidth() {
        let n = 256 * MIB;
        let (t, _) = run_transfer(presets::beluga(), n, PathSelection::DIRECT_ONLY, false);
        let bw = n as f64 / t;
        assert!(
            bw > 0.95 * 48e9 && bw <= 48e9,
            "direct bandwidth {:.1} GB/s",
            bw / 1e9
        );
    }

    #[test]
    fn multi_path_beats_direct_for_large_messages() {
        let n = 256 * MIB;
        let (t_direct, _) = run_transfer(presets::beluga(), n, PathSelection::DIRECT_ONLY, false);
        let (t_multi, _) = run_transfer(
            presets::beluga(),
            n,
            PathSelection::THREE_GPUS_WITH_HOST,
            false,
        );
        let speedup = t_direct / t_multi;
        assert!(
            (2.2..3.6).contains(&speedup),
            "speedup {speedup} out of the paper's band"
        );
    }

    #[test]
    fn data_reassembles_exactly_across_four_paths() {
        let n = 8 * MIB + 13;
        let (_, data) = run_transfer(
            presets::beluga(),
            n,
            PathSelection::THREE_GPUS_WITH_HOST,
            true,
        );
        let expected: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_eq!(data.unwrap(), expected, "multi-path reassembly corrupted");
    }

    #[test]
    fn data_reassembles_with_two_paths_odd_size() {
        let n = MIB + 4093;
        let (_, data) = run_transfer(presets::beluga(), n, PathSelection::TWO_GPUS, true);
        let expected: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_eq!(data.unwrap(), expected);
    }

    #[test]
    fn narval_multi_path_speedup_band() {
        let n = 256 * MIB;
        let (t_direct, _) = run_transfer(presets::narval(), n, PathSelection::DIRECT_ONLY, false);
        let (t_multi, _) = run_transfer(presets::narval(), n, PathSelection::THREE_GPUS, false);
        let speedup = t_direct / t_multi;
        assert!(
            (2.0..3.2).contains(&speedup),
            "narval speedup {speedup} out of band"
        );
    }

    #[test]
    fn simulated_time_close_to_model_prediction_large_n() {
        // The headline accuracy claim in miniature: for n >> 4 MB the
        // simulated multi-path time should be within ~10% of the model's
        // prediction (the paper reports <6% against real hardware).
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::THREE_GPUS;
        let n = 128 * MIB;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        let measured = rt.engine().now().as_secs();
        let rel = (measured - plan.predicted_time).abs() / measured;
        assert!(
            rel < 0.10,
            "model {} vs simulated {} ({}% off)",
            plan.predicted_time,
            measured,
            rel * 100.0
        );
    }

    #[test]
    fn zero_share_paths_are_skipped() {
        // Tiny message: plan collapses to direct; handle has one waker.
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::THREE_GPUS_WITH_HOST;
        let n = 8 << 10;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        let h = execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        assert_eq!(h.path_count(), 1);
        rt.engine().run_until_idle();
        assert!(h.is_complete());
    }

    #[test]
    fn pipelining_outperforms_unpipelined_execution() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let sel = PathSelection::THREE_GPUS;
        let n = 256 * MIB;
        let run = |cfg: PlannerConfig| {
            let rt = GpuRuntime::new(Engine::new(topo.clone()));
            let planner = Planner::with_config(topo.clone(), cfg);
            let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
            let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
            let src = rt.alloc(gpus[0], n);
            let dst = rt.alloc(gpus[1], n);
            execute_plan(&rt, &plan, &paths, &src, &dst, 0);
            rt.engine().run_until_idle();
            rt.engine().now().as_secs()
        };
        let piped = run(PlannerConfig::default());
        let unpiped = run(PlannerConfig {
            mode: mpx_model::PipelineMode::Unpipelined,
            ..PlannerConfig::default()
        });
        assert!(
            piped < unpiped,
            "pipelined {piped} should beat unpipelined {unpiped}"
        );
    }

    #[test]
    fn rendezvous_and_ipc_charged_once() {
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let n = 4096;
        let sel = PathSelection::DIRECT_ONLY;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        let first = rt.engine().now().as_secs();
        // Second transfer to the same destination buffer: the IPC handle
        // is cached, so it must finish faster.
        let t0 = rt.engine().now();
        execute_plan(&rt, &plan, &paths, &src, &dst, 1);
        rt.engine().run_until_idle();
        let second = rt.engine().now().secs_since(t0);
        assert!(
            second < first,
            "cached-handle transfer {second} not faster than first {first}"
        );
        assert_eq!(rt.ipc().stats().misses, 1);
        assert_eq!(rt.ipc().stats().hits, 1);
    }

    #[test]
    fn staging_memory_bounded_by_ring_depth() {
        // The point of the slot ring: staging memory must not scale with
        // message size. A 256 MB transfer over a staged path may hold at
        // most RING_DEPTH × chunk bytes on the staging GPU.
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::TWO_GPUS;
        let n = 256 * MIB;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let staged = &plan.paths[1];
        let via = paths[1].kind.staging_device().unwrap();
        let chunk = staged.share_bytes / staged.chunks as usize + 1;
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        let peak = rt.memory_stats().peak[via.index()] as usize;
        let bound = RING_DEPTH * chunk + 4096;
        assert!(
            peak <= bound,
            "staging peak {peak} exceeds ring bound {bound} (chunk {chunk}, k {})",
            staged.chunks
        );
        assert!(peak > 0, "staging traffic must be tracked");
        // And nothing leaks once the transfer drains.
        assert_eq!(rt.memory_stats().current[via.index()], 0);
    }

    #[test]
    #[should_panic(expected = "smaller than message")]
    fn undersized_destination_panics() {
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::DIRECT_ONLY;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], MIB, sel).unwrap();
        let src = rt.alloc(gpus[0], MIB);
        let dst = rt.alloc(gpus[1], MIB - 1);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
    }
}
