//! The communicator: one task per rank over the simulated node.
//!
//! [`World::run_tasks`] runs each rank body as a future on the calling
//! thread (`mpx_sim::task`), so a run repeats to the bit. Each rank owns
//! one GPU, in id order — the standard one-process-per-GPU MPI launch.
//! [`World::run`] is the thread front end (one OS thread per rank).

use crate::p2p::{Matching, PostedRecv, PostedSend, Request};
use mpx_gpu::{Buffer, GpuRuntime, KernelEffect, ReduceOp};
use mpx_sim::{Engine, Label, SimThread, SimTime, Template};
use mpx_topo::units::Secs;
use mpx_topo::{DeviceId, Topology};
use mpx_ucx::{TimedOut, UcxConfig, UcxContext};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::future::Future;
use std::sync::Arc;

/// A rank task's name: what a rank panic and a deadlock report.
static RANK: Template = Template("rank {}", &[32]);
/// The waker of a rank's [`Rank::compute`].
static RANK_SLEEP: Template = Template("rank{}.sleep", &[32]);

/// A simulated MPI world over one multi-GPU node.
pub struct World {
    ctx: UcxContext,
    matching: Arc<Matching>,
}

impl World {
    /// Builds a world over `topo` with the given transport configuration.
    pub fn new(topo: Arc<Topology>, cfg: UcxConfig) -> World {
        let rt = GpuRuntime::new(Engine::new(topo));
        World::over(rt, cfg)
    }

    /// Builds a world over an existing runtime (sharing its virtual
    /// clock and counters).
    pub fn over(rt: GpuRuntime, cfg: UcxConfig) -> World {
        World {
            ctx: UcxContext::new(rt, cfg),
            matching: Arc::new(Matching::new()),
        }
    }

    /// The transport context.
    pub fn context(&self) -> &UcxContext {
        &self.ctx
    }

    /// The simulation engine.
    pub fn engine(&self) -> &Engine {
        self.ctx.runtime().engine()
    }

    /// Unmatched (sends, recvs) — nonzero after a run indicates a leak.
    pub fn pending_messages(&self) -> (usize, usize) {
        self.matching.pending()
    }

    /// Runs the future `f` makes of each of `nranks` ranks, as tasks on the
    /// calling thread; returns their results in rank order. Rank `i` owns
    /// GPU `i`.
    ///
    /// # Panics
    /// Panics if `nranks` exceeds the GPU count, with "rank N panicked" if
    /// a rank panics, on a simulated deadlock, and if a `SimThread` is
    /// registered on the engine.
    pub fn run_tasks<R, Fut: Future<Output = R>>(
        &self,
        nranks: usize,
        f: impl Fn(Rank) -> Fut,
    ) -> Vec<R> {
        let tasks = self.ranks(nranks).into_iter();
        mpx_sim::task::run(
            self.engine(),
            tasks.map(|r| (RANK.label(&[r.rank as u64]), f(r))),
        )
    }

    /// The thread front end: runs `f` on `nranks` OS threads registered on
    /// the quorum clock; returns their results in rank order. A body may
    /// post requests and wait with [`crate::waitall`] on [`Rank::thread`].
    ///
    /// # Panics
    /// Panics if `nranks` exceeds the GPU count, or if a rank panics.
    pub fn run<R: Send, F: Fn(Rank) -> R + Sync>(&self, nranks: usize, f: F) -> Vec<R> {
        let mut ranks = self.ranks(nranks);
        // Register every rank before any thread starts (quorum rule).
        for r in &mut ranks {
            r.thread = Some(self.engine().register_thread(format!("rank{}", r.rank)));
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = ranks.into_iter().map(|r| s.spawn(|| f(r))).collect();
            let joined = handles.into_iter().map(|h| h.join());
            joined
                .enumerate()
                .map(|(i, out)| out.unwrap_or_else(|_| panic!("rank {i} panicked")))
                .collect()
        })
    }

    fn ranks(&self, nranks: usize) -> Vec<Rank> {
        let gpus = self.engine().topology().gpus();
        assert!(
            nranks <= gpus.len(),
            "{nranks} ranks but only {} GPUs",
            gpus.len()
        );
        (0..nranks)
            .map(|i| Rank {
                rank: i,
                size: nranks,
                device: gpus[i],
                thread: None,
                ctx: self.ctx.clone(),
                matching: self.matching.clone(),
                scratch: Mutex::default(),
                group: None,
                salt: 0,
            })
            .collect()
    }
}

/// A rank's handle: its identity, its GPU, and the communication API —
/// posting is immediate, every wait is a future a rank task awaits.
pub struct Rank {
    /// This rank's index.
    pub rank: usize,
    /// World size.
    pub size: usize,
    /// The GPU this rank owns.
    pub device: DeviceId,
    /// Set on the thread front end only.
    pub(crate) thread: Option<SimThread>,
    pub(crate) ctx: UcxContext,
    pub(crate) matching: Arc<Matching>,
    pub(crate) scratch: Mutex<HashMap<(usize, bool, usize), Buffer>>,
    /// World ranks of the members by local rank, on a [`Rank::split`]
    /// view; `None` on the world itself.
    pub(crate) group: Option<Arc<[usize]>>,
    /// Tag salt of a split view: its messages match only its group's.
    pub(crate) salt: u64,
}

impl Rank {
    /// The simulated-thread handle of a [`World::run`] rank, to block on
    /// with [`crate::waitall`].
    ///
    /// # Panics
    /// Panics on a rank task, which has no thread to block.
    pub fn thread(&self) -> &SimThread {
        self.thread
            .as_ref()
            .expect("a rank task has no SimThread: await the rank API instead")
    }

    /// The transport context.
    pub fn context(&self) -> &UcxContext {
        &self.ctx
    }

    /// The simulation engine.
    pub fn engine(&self) -> &Engine {
        self.ctx.runtime().engine()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine().now()
    }

    /// Allocates a synthetic buffer on this rank's GPU.
    pub fn alloc(&self, n: usize) -> Buffer {
        self.ctx.runtime().alloc(self.device, n)
    }

    /// Allocates a real buffer holding `data` on this rank's GPU.
    pub fn alloc_bytes(&self, data: Vec<u8>) -> Buffer {
        self.ctx.runtime().alloc_bytes(self.device, data)
    }

    /// Allocates a zero-filled real buffer on this rank's GPU.
    pub fn alloc_zeroed(&self, n: usize) -> Buffer {
        self.ctx.runtime().alloc_zeroed(self.device, n)
    }

    /// A reusable scratch buffer of `n` bytes (real iff `real`), cached
    /// per rank like a registered temporary pool — repeated collective
    /// calls reuse it, so its IPC handle stays warm instead of paying
    /// the open cost on every invocation. `slot` distinguishes buffers
    /// that must coexist (e.g. a pack and an unpack staging area of the
    /// same size).
    pub fn scratch(&self, n: usize, real: bool, slot: usize) -> Buffer {
        self.scratch
            .lock()
            .entry((n, real, slot))
            .or_insert_with(|| {
                if real {
                    self.alloc_zeroed(n)
                } else {
                    self.alloc(n)
                }
            })
            .clone()
    }

    /// The world rank of local rank `local`.
    pub(crate) fn world_rank(&self, local: usize) -> usize {
        self.group.as_ref().map_or(local, |members| members[local])
    }

    // --- point-to-point ---------------------------------------------------

    /// Non-blocking send of `buf[off..off+n]` to `to` with `tag`.
    pub fn isend_at(&self, buf: &Buffer, off: usize, n: usize, to: usize, tag: u64) -> Request {
        assert!(to < self.size, "send to rank {to} of {}", self.size);
        let req = Request::new(format!("send r{}->r{to} t{tag}", self.rank));
        self.matching.post_send(
            &self.ctx,
            PostedSend {
                from: self.world_rank(self.rank),
                to: self.world_rank(to),
                tag: self.salt | tag,
                buf: buf.clone(),
                off,
                n,
                done: req.waker().clone(),
                status: req.status_cell(),
            },
        );
        req
    }

    /// Non-blocking whole-buffer-prefix send.
    pub fn isend(&self, buf: &Buffer, n: usize, to: usize, tag: u64) -> Request {
        self.isend_at(buf, 0, n, to, tag)
    }

    /// Non-blocking receive into `buf[off..off+n]`. `from`/`tag` may be
    /// wildcards ([`crate::p2p::ANY_SOURCE`], [`crate::p2p::ANY_TAG`]).
    pub fn irecv_at(
        &self,
        buf: &Buffer,
        off: usize,
        n: usize,
        from: Option<usize>,
        tag: Option<u64>,
    ) -> Request {
        let req = Request::new(format!("recv r{}<-{from:?} t{tag:?}", self.rank));
        self.matching.post_recv(
            &self.ctx,
            PostedRecv {
                at: self.world_rank(self.rank),
                src: from.map(|f| self.world_rank(f)),
                tag: tag.map(|t| self.salt | t),
                buf: buf.clone(),
                off,
                n,
                done: req.waker().clone(),
                status: req.status_cell(),
            },
        );
        req
    }

    /// Non-blocking whole-buffer-prefix receive.
    pub fn irecv(&self, buf: &Buffer, n: usize, from: Option<usize>, tag: Option<u64>) -> Request {
        self.irecv_at(buf, 0, n, from, tag)
    }

    /// Waits for every request (MPI_Waitall), newest first: requests mostly
    /// complete in posting order, so the rank waits once, on the last one,
    /// and finds the others already signaled. A rank acts on nothing
    /// between the waits, so the order cannot move virtual time.
    pub async fn waitall(&self, requests: &[Request]) {
        for r in requests.iter().rev() {
            r.wait().await;
        }
    }

    /// [`Rank::waitall`] with a virtual-time deadline shared by all
    /// requests. Returns `TimedOut` once a wait finds a request still
    /// pending at the deadline — whichever the newest-first order reaches,
    /// not the first in the slice.
    pub async fn waitall_deadline(
        &self,
        requests: &[Request],
        deadline: SimTime,
    ) -> Result<(), TimedOut> {
        for r in requests.iter().rev() {
            r.wait_deadline(self.engine(), deadline).await?;
        }
        Ok(())
    }

    /// Blocking send.
    pub async fn send(&self, buf: &Buffer, n: usize, to: usize, tag: u64) {
        self.isend(buf, n, to, tag).wait().await;
    }

    /// Blocking receive.
    pub async fn recv(&self, buf: &Buffer, n: usize, from: Option<usize>, tag: Option<u64>) {
        self.irecv(buf, n, from, tag).wait().await;
    }

    /// Deadlock-free combined send+receive (MPI_Sendrecv).
    #[allow(clippy::too_many_arguments)]
    pub async fn sendrecv(
        &self,
        sbuf: &Buffer,
        soff: usize,
        sn: usize,
        to: usize,
        rbuf: &Buffer,
        roff: usize,
        rn: usize,
        from: usize,
        tag: u64,
    ) {
        let r = self.irecv_at(rbuf, roff, rn, Some(from), Some(tag));
        let s = self.isend_at(sbuf, soff, sn, to, tag);
        r.wait().await;
        s.wait().await;
    }

    /// Dissemination barrier (zero-byte message rounds).
    pub async fn barrier(&self) {
        const BARRIER_TAG_BASE: u64 = 1 << 60;
        let dummy = self.alloc(0);
        let mut k = 1usize;
        let mut round = 0u64;
        while k < self.size {
            let to = (self.rank + k) % self.size;
            let from = (self.rank + self.size - k) % self.size;
            let tag = BARRIER_TAG_BASE + round;
            let r = self.irecv(&dummy, 0, Some(from), Some(tag));
            let s = self.isend(&dummy, 0, to, tag);
            r.wait().await;
            s.wait().await;
            k <<= 1;
            round += 1;
        }
    }

    /// Runs a reduction kernel `dst[doff..doff+n] op= src[soff..]` on this
    /// rank's GPU, charging the kernel cost model, and waits for it.
    pub async fn reduce_local(
        &self,
        op: ReduceOp,
        src: &Buffer,
        soff: usize,
        dst: &Buffer,
        doff: usize,
        n: usize,
    ) {
        let cost = self.ctx.runtime().kernel_cost().cost(n);
        let (src, dst) = (src.clone(), dst.clone());
        let reduce = move || mpx_gpu::reduce::apply(op, &src, soff, &dst, doff, n);
        self.kernel(cost, Box::new(reduce)).await;
    }

    /// Runs a local device-to-device pack/copy (e.g. Bruck rotations),
    /// charging kernel cost for the bytes touched, and waits for it.
    pub async fn local_copy(&self, src: &Buffer, soff: usize, dst: &Buffer, doff: usize, n: usize) {
        let cost = self.ctx.runtime().kernel_cost().cost_copy(n);
        let (src, dst) = (src.clone(), dst.clone());
        let pack = move || Buffer::transfer(&src, soff, &dst, doff, n);
        self.kernel(cost, Box::new(pack)).await;
    }

    /// Runs `effect` as a kernel of `cost` on a fresh stream of this rank's
    /// GPU and waits for it.
    async fn kernel(&self, cost: Secs, effect: KernelEffect) {
        let s = self.ctx.runtime().stream(self.device);
        s.kernel(cost, Some(effect), "");
        s.synchronize_async().await;
    }

    /// Sleeps in virtual time (compute phases in app-level examples).
    pub async fn compute(&self, d: Secs) {
        let name: Label = RANK_SLEEP.label(&[self.rank as u64]);
        mpx_sim::task::sleep(self.engine(), name, d).await;
    }

    /// MPI_Comm_split, for tenants sharing one node (paper Section 3).
    /// Splits by `color`: every world rank calling with the same color
    /// lands in the same group. All world ranks must call `split`
    /// (collectively, as in MPI) with `colors[world_rank]` consistent
    /// across callers — the color table is passed explicitly so no
    /// communication round is needed.
    ///
    /// Returns this rank's view of its group: a [`Rank`] whose `rank` and
    /// `size` are local to the group and whose tags are salted with the
    /// color, so groups cannot intercept each other's messages. Traffic
    /// still flows through the world's matching engine, and every
    /// collective runs on the view unchanged.
    ///
    /// # Panics
    /// Panics if the table is inconsistent with the world size.
    pub fn split(&self, colors: &[u32]) -> Rank {
        assert_eq!(colors.len(), self.size, "one color per world rank");
        let my_color = colors[self.rank];
        let members: Vec<usize> = (0..self.size).filter(|&r| colors[r] == my_color).collect();
        Rank {
            rank: members
                .iter()
                .position(|&r| r == self.rank)
                .expect("own group"),
            size: members.len(),
            device: self.device,
            thread: None,
            ctx: self.ctx.clone(),
            matching: self.matching.clone(),
            scratch: Default::default(),
            group: Some(members.iter().map(|&r| self.world_rank(r)).collect()),
            salt: ((my_color as u64) + 1) << 44,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::allreduce_ring;
    use mpx_gpu::reduce::{bytes_f32, f32_bytes};
    use mpx_topo::presets;
    use mpx_topo::units::MIB;

    fn world() -> World {
        World::new(Arc::new(presets::beluga()), UcxConfig::default())
    }

    #[test]
    fn two_rank_send_recv_moves_data() {
        let w = world();
        let results = w.run_tasks(2, |r| async move {
            let n = MIB;
            if r.rank == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 256) as u8).collect();
                let buf = r.alloc_bytes(data);
                r.send(&buf, n, 1, 7).await;
                None
            } else {
                let buf = r.alloc_zeroed(n);
                r.recv(&buf, n, Some(0), Some(7)).await;
                buf.to_vec()
            }
        });
        let received = results[1].as_ref().unwrap();
        assert_eq!(received.len(), MIB);
        assert!(received
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (i % 256) as u8));
        assert_eq!(w.pending_messages(), (0, 0));
    }

    #[test]
    fn recv_before_send_matches() {
        let w = world();
        let times = w.run_tasks(2, |r| async move {
            if r.rank == 1 {
                let buf = r.alloc_zeroed(4);
                // Receiver posts first (it has nothing else to do).
                r.recv(&buf, 4, Some(0), Some(1)).await;
            } else {
                // Sender dawdles, then sends.
                r.compute(1e-3).await;
                let buf = r.alloc_bytes(vec![9, 9, 9, 9]);
                r.send(&buf, 4, 1, 1).await;
            }
            r.now().as_secs()
        });
        // The receiver cannot finish before the sender started sending.
        assert!(times[1] >= 1e-3);
    }

    #[test]
    fn wildcard_receive_matches_any_source_and_tag() {
        let w = world();
        let results = w.run_tasks(3, |r| async move {
            if r.rank == 0 {
                let a = r.alloc_zeroed(4);
                let b = r.alloc_zeroed(4);
                r.recv(&a, 4, crate::p2p::ANY_SOURCE, crate::p2p::ANY_TAG)
                    .await;
                r.recv(&b, 4, crate::p2p::ANY_SOURCE, crate::p2p::ANY_TAG)
                    .await;
                let mut got = vec![a.to_vec().unwrap()[0], b.to_vec().unwrap()[0]];
                got.sort_unstable();
                Some(got)
            } else {
                let buf = r.alloc_bytes(vec![r.rank as u8; 4]);
                r.send(&buf, 4, 0, 100 + r.rank as u64).await;
                None
            }
        });
        assert_eq!(results[0].as_ref().unwrap(), &vec![1, 2]);
    }

    #[test]
    fn tag_matching_keeps_streams_separate() {
        let w = world();
        let results = w.run_tasks(2, |r| async move {
            if r.rank == 0 {
                let a = r.alloc_bytes(vec![1; 4]);
                let b = r.alloc_bytes(vec![2; 4]);
                // Send tag 2 first, then tag 1.
                let s1 = r.isend(&b, 4, 1, 2);
                let s2 = r.isend(&a, 4, 1, 1);
                r.waitall(&[s1, s2]).await;
                None
            } else {
                let want1 = r.alloc_zeroed(4);
                let want2 = r.alloc_zeroed(4);
                r.recv(&want1, 4, Some(0), Some(1)).await;
                r.recv(&want2, 4, Some(0), Some(2)).await;
                Some((want1.to_vec().unwrap()[0], want2.to_vec().unwrap()[0]))
            }
        });
        assert_eq!(results[1], Some((1, 2)));
    }

    #[test]
    fn wildcard_receive_reports_matched_status() {
        let w = world();
        let results = w.run_tasks(3, |r| async move {
            if r.rank == 0 {
                let buf = r.alloc_zeroed(8);
                let req = r.irecv(&buf, 8, crate::p2p::ANY_SOURCE, crate::p2p::ANY_TAG);
                let status = req.wait_status().await;
                Some(status)
            } else {
                // Only rank 2 sends.
                if r.rank == 2 {
                    let buf = r.alloc_bytes(vec![5; 8]);
                    r.send(&buf, 8, 0, 77).await;
                }
                None
            }
        });
        let status = results[0].unwrap();
        assert_eq!(status.source, 2);
        assert_eq!(status.tag, 77);
        assert_eq!(status.len, 8);
    }

    #[test]
    fn status_absent_before_match() {
        let w = world();
        w.run_tasks(2, |r| async move {
            if r.rank == 0 {
                let buf = r.alloc_zeroed(4);
                let req = r.irecv(&buf, 4, Some(1), Some(1));
                assert!(req.status().is_none(), "unmatched recv has no status");
                r.compute(1e-4).await; // give the sender time
                req.wait().await;
                assert!(req.status().is_some());
            } else {
                r.compute(5e-5).await;
                let buf = r.alloc(4);
                r.send(&buf, 4, 0, 1).await;
            }
        });
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        let w = world();
        let results = w.run_tasks(2, |r| async move {
            let peer = 1 - r.rank;
            let sbuf = r.alloc_bytes(vec![r.rank as u8 + 10; 8]);
            let rbuf = r.alloc_zeroed(8);
            r.sendrecv(&sbuf, 0, 8, peer, &rbuf, 0, 8, peer, 5).await;
            rbuf.to_vec().unwrap()[0]
        });
        assert_eq!(results, vec![11, 10]);
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let w = world();
        let times = w.run_tasks(4, |r| async move {
            // Rank i computes i milliseconds, then everyone barriers.
            r.compute(r.rank as f64 * 1e-3).await;
            r.barrier().await;
            r.now().as_secs()
        });
        // All ranks leave the barrier at (or after) the slowest arrival.
        for t in &times {
            assert!(*t >= 3e-3, "barrier exited early: {times:?}");
        }
    }

    #[test]
    fn window_of_nonblocking_sends_completes() {
        let w = world();
        let n = 4 * MIB;
        let window = 8;
        let bw = w.run_tasks(2, |r| async move {
            if r.rank == 0 {
                let bufs: Vec<_> = (0..window).map(|_| r.alloc(n)).collect();
                let t0 = r.now();
                let reqs: Vec<_> = (0..window)
                    .map(|i| r.isend(&bufs[i], n, 1, i as u64))
                    .collect();
                r.waitall(&reqs).await;
                let dt = r.now().secs_since(t0);
                Some((window * n) as f64 / dt)
            } else {
                let bufs: Vec<_> = (0..window).map(|_| r.alloc(n)).collect();
                let reqs: Vec<_> = (0..window)
                    .map(|i| r.irecv(&bufs[i], n, Some(0), Some(i as u64)))
                    .collect();
                r.waitall(&reqs).await;
                None
            }
        });
        let bw = bw[0].unwrap();
        // Multi-path on Beluga: comfortably above the 48 GB/s direct link.
        assert!(bw > 60e9, "windowed bandwidth {:.1} GB/s", bw / 1e9);
    }

    #[test]
    fn zero_byte_message_synchronizes() {
        let w = world();
        w.run_tasks(2, |r| async move {
            let buf = r.alloc(0);
            if r.rank == 0 {
                r.send(&buf, 0, 1, 9).await;
            } else {
                r.recv(&buf, 0, Some(0), Some(9)).await;
            }
        });
        assert_eq!(w.pending_messages(), (0, 0));
    }

    #[test]
    fn reduce_local_charges_time_and_computes() {
        let w = world();
        let out = w.run_tasks(1, |r| async move {
            let a = r.alloc_bytes(mpx_gpu::reduce::f32_bytes(&[1.0, 2.0]));
            let b = r.alloc_bytes(mpx_gpu::reduce::f32_bytes(&[10.0, 20.0]));
            let t0 = r.now();
            r.reduce_local(ReduceOp::Sum, &a, 0, &b, 0, 8).await;
            let dt = r.now().secs_since(t0);
            (mpx_gpu::reduce::bytes_f32(&b.to_vec().unwrap()), dt)
        });
        let (vals, dt) = &out[0];
        assert_eq!(vals, &vec![11.0, 22.0]);
        assert!(*dt > 0.0, "kernel time must be charged");
    }

    #[test]
    #[should_panic(expected = "ranks but only")]
    fn too_many_ranks_panics() {
        let w = world();
        w.run_tasks(5, |_| async {});
    }

    // The assert fires inside a rank task; World::run_tasks rethrows as
    // "rank N panicked".
    #[test]
    #[should_panic(expected = "panicked")]
    fn oversized_send_into_small_recv_panics() {
        let w = world();
        w.run_tasks(2, |r| async move {
            if r.rank == 0 {
                let buf = r.alloc(8);
                r.send(&buf, 8, 1, 0).await;
            } else {
                let buf = r.alloc(4);
                r.recv(&buf, 4, Some(0), Some(0)).await;
            }
        });
    }

    #[test]
    fn split_assigns_local_ranks() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let out = w.run_tasks(4, |r| async move {
            let colors = [0u32, 1, 0, 1];
            let sub = r.split(&colors);
            (r.rank, sub.rank, sub.size)
        });
        assert_eq!(out, vec![(0, 0, 2), (1, 0, 2), (2, 1, 2), (3, 1, 2)]);
    }

    #[test]
    fn groups_exchange_independently() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let out = w.run_tasks(4, |r| async move {
            let colors = [0u32, 1, 0, 1];
            let sub = r.split(&colors);
            let peer = 1 - sub.rank;
            // Both groups use THE SAME tag; the salt keeps them apart.
            let sbuf = r.alloc_bytes(vec![(r.rank * 10 + 1) as u8; 8]);
            let rbuf = r.alloc_zeroed(8);
            sub.sendrecv(&sbuf, 0, 8, peer, &rbuf, 0, 8, peer, 7).await;
            rbuf.to_vec().unwrap()[0]
        });
        // Group 0 = {0, 2}: world rank 0 hears from 2 (21), rank 2 from 0 (1).
        // Group 1 = {1, 3}: world rank 1 hears from 3 (31), rank 3 from 1 (11).
        assert_eq!(out, vec![21, 31, 1, 11]);
    }

    #[test]
    fn two_groups_run_allreduce_concurrently() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        let elems = 64usize;
        let out = w.run_tasks(4, |r| async move {
            let colors = [0u32, 0, 1, 1];
            let sub = r.split(&colors);
            let vals = vec![(sub.rank + 1) as f32; elems];
            let buf = r.alloc_bytes(f32_bytes(&vals));
            allreduce_ring(&sub, &buf, elems * 4, ReduceOp::Sum).await;
            bytes_f32(&buf.to_vec().unwrap())
        });
        // Each 2-rank group sums 1 + 2 = 3 in every element.
        for (rank, got) in out.iter().enumerate() {
            assert!(
                got.iter().all(|&v| v == 3.0),
                "rank {rank}: {:?}",
                &got[..2]
            );
        }
    }

    #[test]
    fn tenant_groups_contend_but_complete() {
        // The shared-node scenario: two tenants, each allreducing its own
        // gradients over its own GPU pair, simultaneously.
        let w = World::new(
            Arc::new(presets::beluga()),
            UcxConfig {
                selection: mpx_topo::PathSelection::THREE_GPUS,
                ..UcxConfig::default()
            },
        );
        let n = 8 << 20;
        let times = w.run_tasks(4, |r| async move {
            let colors = [0u32, 0, 1, 1];
            let sub = r.split(&colors);
            let buf = r.alloc(n);
            r.barrier().await;
            let t0 = r.now();
            for _ in 0..3 {
                allreduce_ring(&sub, &buf, n, ReduceOp::Sum).await;
            }
            r.now().secs_since(t0) / 3.0
        });
        // Both tenants make progress in comparable time (fair fabric).
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.25, "tenant imbalance: {times:?}");
    }

    // The assert fires inside a rank task; World::run_tasks rethrows as
    // "rank N panicked".
    #[test]
    #[should_panic(expected = "panicked")]
    fn wrong_color_table_rejected() {
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        w.run_tasks(2, |r| async move {
            let _ = r.split(&[0u32; 5]);
        });
    }
}
