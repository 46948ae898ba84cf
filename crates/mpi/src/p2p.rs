//! Point-to-point messaging: non-blocking requests and tag matching.
//!
//! The matching engine implements MPI semantics: a receive posted at rank
//! `d` matches the oldest send targeting `d` whose source and tag satisfy
//! the receive's (possibly wildcard) source/tag. Whichever side arrives
//! second triggers the actual data movement through the UCX context's
//! multi-path PUT; both requests complete when the whole message has
//! landed (one-sided cuda_ipc style, paper Section 2.1).

use mpx_gpu::Buffer;
use mpx_sim::{SimThread, Waker};
use mpx_ucx::UcxContext;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Wildcard source for receives (MPI_ANY_SOURCE).
pub const ANY_SOURCE: Option<usize> = None;
/// Wildcard tag for receives (MPI_ANY_TAG).
pub const ANY_TAG: Option<u64> = None;

/// The tag space reserved for library internals. Application tags
/// should stay **below** this bound; bits 44 and above are used by the
/// collectives (bits 50–60), sub-communicator salts (bits 44+), and
/// internal barriers (bit 60). Matching is exact, so a collision would
/// only occur if an application deliberately crafted tags in this
/// range.
pub const MAX_APP_TAG: u64 = 1 << 44;

/// A non-blocking communication request.
#[derive(Debug, Clone)]
pub struct Request {
    done: Waker,
    status: Arc<OnceLock<MessageStatus>>,
}

/// What a completed receive matched (MPI_Status).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageStatus {
    /// The sending rank.
    pub source: usize,
    /// The matched tag.
    pub tag: u64,
    /// Bytes transferred.
    pub len: usize,
}

impl Request {
    pub(crate) fn new(name: String) -> Request {
        Request {
            done: Waker::new(name),
            status: Arc::new(OnceLock::new()),
        }
    }

    pub(crate) fn waker(&self) -> &Waker {
        &self.done
    }

    pub(crate) fn status_cell(&self) -> Arc<OnceLock<MessageStatus>> {
        self.status.clone()
    }

    /// Blocks the simulated thread until the request completes.
    pub fn wait(&self, thread: &SimThread) {
        thread.wait(&self.done);
    }

    /// Blocks until completion **or** virtual time `deadline`, whichever
    /// comes first. A peer stalled on a dead link then surfaces as an
    /// `Err` instead of hanging the rank thread (and the test run)
    /// forever.
    pub fn wait_deadline(
        &self,
        thread: &SimThread,
        deadline: mpx_sim::SimTime,
    ) -> Result<(), mpx_ucx::TimedOut> {
        if thread.wait_until(&self.done, deadline) {
            Ok(())
        } else {
            Err(mpx_ucx::TimedOut { deadline })
        }
    }

    /// Blocks until completion and returns the matched status
    /// (meaningful for receives — this is `MPI_Wait` with a status).
    pub fn wait_status(&self, thread: &SimThread) -> MessageStatus {
        self.wait(thread);
        *self
            .status
            .get()
            .expect("completed request has a recorded status")
    }

    /// The matched status, if the request has been matched yet.
    pub fn status(&self) -> Option<MessageStatus> {
        self.status.get().copied()
    }

    /// Non-consuming completion check (MPI_Test-like; callback drivers).
    pub fn is_complete(&self) -> bool {
        self.done.is_signaled()
    }
}

/// Waits for every request (MPI_Waitall), newest first: requests mostly
/// complete in posting order, so the rank parks once, on the last one, and
/// finds the others already signaled. A rank acts on nothing between the
/// waits, so the order cannot move virtual time.
pub fn waitall(thread: &SimThread, requests: &[Request]) {
    for r in requests.iter().rev() {
        r.wait(thread);
    }
}

/// [`waitall`] with a virtual-time deadline shared by all requests.
/// Returns `TimedOut` once a wait finds a request still pending at the
/// deadline — whichever the newest-first order reaches, not the first in
/// the slice.
pub fn waitall_deadline(
    thread: &SimThread,
    requests: &[Request],
    deadline: mpx_sim::SimTime,
) -> Result<(), mpx_ucx::TimedOut> {
    for r in requests.iter().rev() {
        r.wait_deadline(thread, deadline)?;
    }
    Ok(())
}

pub(crate) struct PostedSend {
    pub from: usize,
    pub to: usize,
    pub tag: u64,
    pub buf: Buffer,
    pub off: usize,
    pub n: usize,
    pub done: Waker,
    pub status: Arc<OnceLock<MessageStatus>>,
}

pub(crate) struct PostedRecv {
    pub at: usize,
    pub src: Option<usize>,
    pub tag: Option<u64>,
    pub buf: Buffer,
    pub off: usize,
    pub n: usize,
    pub done: Waker,
    pub status: Arc<OnceLock<MessageStatus>>,
}

impl PostedRecv {
    fn matches(&self, s: &PostedSend) -> bool {
        self.at == s.to
            && self.src.is_none_or(|src| src == s.from)
            && self.tag.is_none_or(|tag| tag == s.tag)
    }
}

/// Shared matching state for one communicator.
pub(crate) struct Matching {
    state: Mutex<MatchState>,
}

#[derive(Default)]
struct MatchState {
    sends: VecDeque<PostedSend>,
    recvs: VecDeque<PostedRecv>,
}

impl Matching {
    pub fn new() -> Matching {
        Matching {
            state: Mutex::new(MatchState::default()),
        }
    }

    /// Number of unmatched entries (diagnostics / leak tests).
    pub fn pending(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.sends.len(), st.recvs.len())
    }

    pub fn post_send(&self, ctx: &UcxContext, send: PostedSend) {
        let matched = {
            let mut st = self.state.lock();
            match st.recvs.iter().position(|r| r.matches(&send)) {
                Some(i) => Some(st.recvs.remove(i).expect("index valid")),
                None => {
                    st.sends.push_back(send);
                    return;
                }
            }
        };
        // Lock released: start the transfer outside the matching lock.
        let recv = matched.expect("checked above");
        start_transfer(ctx, &send, &recv);
    }

    pub fn post_recv(&self, ctx: &UcxContext, recv: PostedRecv) {
        let matched = {
            let mut st = self.state.lock();
            match st.sends.iter().position(|s| recv.matches(s)) {
                Some(i) => Some(st.sends.remove(i).expect("index valid")),
                None => {
                    st.recvs.push_back(recv);
                    return;
                }
            }
        };
        let send = matched.expect("checked above");
        start_transfer(ctx, &send, &recv);
    }
}

fn start_transfer(ctx: &UcxContext, send: &PostedSend, recv: &PostedRecv) {
    let status = MessageStatus {
        source: send.from,
        tag: send.tag,
        len: send.n,
    };
    let _ = send.status.set(status);
    let _ = recv.status.set(status);
    assert!(
        recv.n >= send.n,
        "receive buffer ({} bytes) smaller than message ({} bytes) \
         [send {}→{} tag {}]",
        recv.n,
        send.n,
        send.from,
        send.to,
        send.tag
    );
    let notify = [send.done.clone(), recv.done.clone()];
    if send.n == 0 {
        // Zero-byte messages synchronize without moving data; charge one
        // rendezvous.
        let rendezvous = ctx.runtime().engine().topology().overheads.rendezvous;
        for w in &notify {
            let w = w.clone();
            ctx.runtime()
                .engine()
                .schedule_in(rendezvous, mpx_sim::OnComplete::Signal(w));
        }
        return;
    }
    ctx.put_async_at(&send.buf, send.off, &recv.buf, recv.off, send.n, &notify)
        .unwrap_or_else(|e| {
            panic!(
                "transfer {}→{} tag {} failed: {e}",
                send.from, send.to, send.tag
            )
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;
    use mpx_sim::{FaultInjector, FaultKind, FaultPlan, SimTime};
    use mpx_topo::presets;
    use mpx_topo::units::MIB;
    use mpx_ucx::{TimedOut, TuningMode, UcxConfig};

    /// Length of the `i`-th message of a window: all different, so a
    /// status names its message.
    fn len(i: usize) -> usize {
        MIB - 4096 * i
    }

    /// A window-16 exchange between two ranks, each handing its 32 requests
    /// to one `waitall` in posting order or reversed. Returns, per rank, the
    /// virtual time it left the wait at and its receives' statuses.
    fn exchange(reversed: bool) -> Vec<(SimTime, Vec<MessageStatus>)> {
        const WINDOW: usize = 16;
        let w = World::new(Arc::new(presets::beluga()), UcxConfig::default());
        w.run(2, move |r| {
            let peer = 1 - r.rank;
            let bufs: Vec<_> = (0..2 * WINDOW).map(|_| r.alloc(MIB)).collect();
            let recvs: Vec<Request> = (0..WINDOW)
                .map(|i| r.irecv(&bufs[i], MIB, Some(peer), Some(i as u64)))
                .collect();
            // The ranks send at different virtual times, so one thread at a
            // time makes the matches and the run repeats to the nanosecond.
            r.compute(1e-5 * (1 + r.rank) as f64);
            let mut reqs = recvs.clone();
            reqs.extend((0..WINDOW).map(|i| r.isend(&bufs[WINDOW + i], len(i), peer, i as u64)));
            if reversed {
                reqs.reverse();
            }
            waitall(r.thread(), &reqs);
            let statuses = recvs.iter().map(|q| q.status().expect("matched")).collect();
            (r.now(), statuses)
        })
    }

    #[test]
    fn waitall_order_moves_neither_virtual_time_nor_statuses() {
        let posted = exchange(false);
        assert_eq!(posted, exchange(true));
        for (rank, (done, statuses)) in posted.iter().enumerate() {
            assert!(
                *done > SimTime::from_secs(2e-5),
                "rank {rank} left at {done}"
            );
            for (i, st) in statuses.iter().enumerate() {
                let want = MessageStatus {
                    source: 1 - rank,
                    tag: i as u64,
                    len: len(i),
                };
                assert_eq!(*st, want);
            }
        }
    }

    /// One send of four crosses a link that dies and can never complete: the
    /// wait gives up at the deadline, not before and not never, wherever
    /// that request sits in the slice.
    #[test]
    fn waitall_deadline_times_out_wherever_the_stuck_request_sits() {
        for pos in 0..4 {
            let topo = Arc::new(presets::beluga());
            let gpus = topo.gpus();
            let cfg = UcxConfig {
                mode: TuningMode::SinglePath,
                ..UcxConfig::default()
            };
            let w = World::new(topo.clone(), cfg);
            // Killed mid-flight: the transport refuses to start on a link
            // that is already down.
            let dead = topo.link_between(gpus[0], gpus[1]).expect("direct link");
            let kill = FaultPlan::empty().with(5e-6, dead.id, FaultKind::Kill);
            FaultInjector::install(w.engine(), &kill);
            let deadline = SimTime::from_secs(0.5);
            let out = w.run(3, move |r| {
                let buf = r.alloc(MIB);
                let res = match r.rank {
                    0 => {
                        let mut reqs: Vec<Request> =
                            (0..3).map(|tag| r.isend(&buf, MIB, 2, tag)).collect();
                        reqs.insert(pos, r.isend(&buf, MIB, 1, 9));
                        waitall_deadline(r.thread(), &reqs, deadline)
                    }
                    1 => r
                        .irecv(&buf, MIB, Some(0), Some(9))
                        .wait_deadline(r.thread(), deadline),
                    _ => {
                        let reqs: Vec<Request> = (0..3)
                            .map(|tag| r.irecv(&buf, MIB, Some(0), Some(tag)))
                            .collect();
                        waitall_deadline(r.thread(), &reqs, deadline)
                    }
                };
                (res, r.now())
            });
            let timed_out = (Err(TimedOut { deadline }), deadline);
            assert_eq!(out[0], timed_out, "sender, stuck request at {pos}");
            assert_eq!(out[1], timed_out, "receiver behind the dead link");
            assert_eq!(out[2].0, Ok(()), "healthy receiver");
            assert!(out[2].1 < deadline);
        }
    }
}
