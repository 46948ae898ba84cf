//! The multi-path pipeline (paper Section 3.4 + Fig. 2(b), after the
//! engine of reference \[35\]): each path's share of a [`TransferPlan`]
//! moves concurrently —
//!
//! * the **direct** path as one asynchronous copy on a stream of the
//!   source GPU;
//! * each **staged** path through the three-step chunk loop on two streams:
//!   leg 1 on the source GPU copies chunk `c` into its slot of the path's
//!   staging ring and records `READY[c]`; leg 2 on the staging device waits
//!   that event and forwards the chunk. Stream ordering pipelines the
//!   chunks; a `FREED` event holds leg 1 of chunk `c + RING_DEPTH` until the
//!   slot is forwarded.
//!
//! This module holds the arithmetic of that loop ([`StagedWalk`]), the
//! [`PutRequest`] a PUT is and the [`TransferHandle`] its launch returns
//! without blocking, whose wakers fire as paths drain. Lowering a plan and
//! launching it is [`crate::compile`]'s one launcher, [`execute_plan`]'s too.

use crate::compile::{fold_routes, launch, Lowered};
use mpx_gpu::{Buffer, GpuRuntime};
use mpx_model::TransferPlan;
use mpx_sim::{task, Engine, SimTime, Waker};
use mpx_topo::path::TransferPath;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// One non-blocking PUT: `n` bytes from `src.0[src.1..]` into
/// `dst.0[dst.1..]` (both GPU buffers), firing every waker in `notify` once
/// the whole message has landed — the completion hook the MPI layer
/// attaches send and receive requests to.
#[derive(Debug, Clone, Copy)]
pub struct PutRequest<'a> {
    /// The source buffer and the message's offset in it.
    pub src: (&'a Buffer, usize),
    /// The destination buffer and the message's offset in it.
    pub dst: (&'a Buffer, usize),
    /// Bytes of the message.
    pub n: usize,
    /// Signaled once each, after the message's last byte.
    pub notify: &'a [Waker],
}

impl<'a> PutRequest<'a> {
    /// `src[..n]` into `dst[..n]`, nobody notified.
    pub fn new(src: &'a Buffer, dst: &'a Buffer, n: usize) -> PutRequest<'a> {
        PutRequest {
            src: (src, 0),
            dst: (dst, 0),
            n,
            notify: &[],
        }
    }
}

/// The message range one active path was responsible for. Offsets are
/// relative to the message (add the caller's `src_off`/`dst_off` to get
/// buffer offsets) — this is exactly what a recovery pass needs to
/// re-send a path's residual bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSlot {
    /// Index into the pair's *candidate path set*, whatever subset planned.
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
    /// consumed by a successful `wait` (waiting consumes
    /// the signal, so `is_signaled` alone cannot tell "drained").
    drained: Vec<AtomicBool>,
    /// Total bytes of the message.
    pub bytes: usize,
    /// The transfer's sequence number (its `xfer{seq}` labels).
    pub(crate) seq: u64,
}

impl TransferHandle {
    /// Waits, from a task on `engine` (`mpx_sim::task`), until every path
    /// has drained **or** virtual time reaches `deadline`, whichever comes
    /// first. On timeout the handle remembers which paths did drain;
    /// [`TransferHandle::unfinished`] returns the rest so a recovery round
    /// can re-send their residual ranges. Without a deadline no timeout
    /// event is scheduled.
    pub async fn wait(&self, engine: &Engine, deadline: Option<SimTime>) -> Result<(), TimedOut> {
        for (w, d) in self.wakers.iter().zip(&self.drained) {
            if d.load(Ordering::Acquire) {
                continue;
            }
            let Some(deadline) = deadline else {
                task::wait(w).await;
                d.store(true, Ordering::Release);
                continue;
            };
            if !task::wait_until(engine, w, deadline).await {
                // A path may have completed in the same instant the
                // deadline fired, or while we were draining earlier
                // wakers — sweep so `unfinished` is exact.
                for (w2, d2) in self.wakers.iter().zip(&self.drained) {
                    if w2.is_signaled() {
                        d2.store(true, Ordering::Release);
                    }
                }
                if self.drained.iter().all(|d| d.load(Ordering::Acquire)) {
                    return Ok(());
                }
                return Err(TimedOut { deadline });
            }
            d.store(true, Ordering::Release);
        }
        Ok(())
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

    /// Assembles a handle from per-path wakers and their message ranges.
    pub(crate) fn from_parts(
        wakers: Vec<Waker>,
        slots: Vec<PathSlot>,
        bytes: usize,
        seq: u64,
    ) -> TransferHandle {
        let drained = wakers.iter().map(|_| AtomicBool::new(false)).collect();
        TransferHandle {
            wakers,
            slots,
            drained,
            bytes,
            seq,
        }
    }
}

/// Executes `plan` moving `src → dst`, returning immediately: the one
/// launcher lowers it for this launch alone and runs it interpreted.
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
    let (req, routes) = (PutRequest::new(src, dst, plan.n), fold_routes(paths));
    launch(
        rt,
        &req,
        transfer_seq,
        Lowered::Plan(plan, (paths, &routes), None),
        None,
    )
}

/// Staging slots available per path, all in one buffer: chunk `c` stages
/// through bytes `[(c % depth)·slot_len ..][..len]` of it, and its first
/// leg cannot start until chunk `c − RING_DEPTH` has been forwarded out of
/// them, bounding staging memory like the ring buffers of the engine in
/// \[35\]. Deep enough that rate-matched legs never stall on it; it only
/// binds when the legs are badly mismatched.
pub const RING_DEPTH: usize = 4;

/// The chunk walk of one staged path: how its share splits into chunks and
/// where each one sits in the message and in the path's staging ring —
/// what [`crate::compile`]'s lowering walks.
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

    /// Chunk `c` of `0..live`.
    pub(crate) fn chunk(self, c: usize) -> Chunk {
        Chunk {
            index: c,
            off: self.offset + c * self.base + c.min(self.rem),
            len: self.base + usize::from(c < self.rem),
            slot_off: c % self.depth * self.slot_len,
            waits_freed: c.checked_sub(RING_DEPTH),
            records_freed: c + RING_DEPTH < self.live,
        }
    }

    pub(crate) fn chunks(self) -> impl Iterator<Item = Chunk> {
        (0..self.live).map(move |c| self.chunk(c))
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
