//! Stream programs, run by the event loop: lanes and flags.
//!
//! A *lane* is an ordered op queue — a GPU stream's executor state — and a
//! *flag* a one-shot completion with the lanes parked on it — an event's:
//! plain data in the engine state. When a lane's flow lands or its delay
//! passes, the loop applies the op's effect, advances the lane and starts
//! its successor. A `Record` releases the parked lanes in parking order,
//! each run to its next blocking op before the recording lane goes on.
//! Ops arrive through [`Engine::with_lanes`](super::Engine::with_lanes).
//! A lane or flag a front end names is *held* until
//! [`Engine::release`](super::Engine::release); an unheld lane is recycled
//! once it runs dry, an unheld flag once no queued op names it.

use super::{fire_waker, push_event, start_flow_locked, Done, Event, State};
use crate::engine::{Ctx, EventFn, FlowSpec, OnComplete};
use crate::waker::Waker;
use mpx_topo::units::Secs;
use mpx_topo::Topology;
use std::collections::VecDeque;

/// What a flow or delay op applies when it retires: a copy's payload
/// move, a kernel's arithmetic. Runs in the event loop; must not block.
pub type Effect = Box<dyn FnOnce() + Send>;

/// One op of a lane.
pub enum LaneOp {
    /// A flow; the lane holds until it lands, then the effect runs.
    Flow(FlowSpec, Option<Effect>),
    /// Busy time (a kernel); the lane holds until it passes, then the effect runs.
    Delay(Secs, Option<Effect>),
    /// Completes a flag and releases the lanes parked on it.
    Record(FlagId),
    /// Holds the lane until a flag completes.
    Wait(FlagId),
    /// Fires a waker.
    Signal(Waker),
    /// Runs a callback in the event loop.
    Call(EventFn),
}

/// A lane of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneId(u32);

/// A flag of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagId(u32);

/// A held lane or flag, handed back when its front end is dropped.
#[derive(Debug, Clone, Copy)]
pub enum Handle {
    /// A lane.
    Lane(LaneId),
    /// A flag.
    Flag(FlagId),
}

/// No lane: the end of a waiter list.
const NONE: u32 = u32::MAX;

#[derive(Default)]
struct Lane {
    ops: VecDeque<LaneOp>,
    /// A flow or delay is in flight; its effect waits here.
    busy: bool,
    effect: Option<Effect>,
    /// Parked on an incomplete flag, behind the lane before `next`.
    parked: bool,
    next: u32,
    /// A front end names the lane, so it outlives an empty queue.
    held: bool,
}

#[derive(Clone, Copy, Default)]
struct Flag {
    complete: bool,
    /// Queued ops naming the flag, plus one while it is held.
    refs: u32,
    /// The parked lanes, first and last, linked through `Lane::next`.
    head: u32,
    tail: u32,
}

/// Every lane and flag of an engine; freed ones are reused first.
#[derive(Default)]
pub(super) struct Programs {
    lanes: Vec<Lane>,
    free_lanes: Vec<u32>,
    flags: Vec<Flag>,
    free_flags: Vec<u32>,
}

impl Programs {
    /// Recycles `lane`, queue and all, if nothing names or occupies it:
    /// memory follows the ops in flight, not the largest program a slot held.
    fn free_if_done(&mut self, lane: u32) {
        let l = &mut self.lanes[lane as usize];
        if !(l.held || l.busy || l.parked) && l.ops.is_empty() {
            l.ops = VecDeque::new();
            self.free_lanes.push(lane);
        }
    }

    /// Drops `n` references to `flag`, recycling it at zero.
    fn unref(&mut self, flag: FlagId, n: u32) {
        let f = &mut self.flags[flag.0 as usize];
        f.refs -= n;
        if f.refs == 0 {
            self.free_flags.push(flag.0);
        }
    }

    pub(super) fn release(&mut self, handle: Handle) {
        match handle {
            Handle::Lane(LaneId(lane)) => {
                self.lanes[lane as usize].held = false;
                self.free_if_done(lane);
            }
            Handle::Flag(flag) => self.unref(flag, 1),
        }
    }
}

/// The lanes and flags of an engine, locked for one
/// [`Engine::with_lanes`] call.
pub struct Lanes<'a> {
    pub(super) st: &'a mut State,
    pub(super) topo: &'a Topology,
}

impl Lanes<'_> {
    /// A fresh, idle lane with room for `ops` ops; `held` if a front end
    /// will name it.
    pub fn lane(&mut self, held: bool, ops: usize) -> LaneId {
        let p = &mut self.st.programs;
        let i = slot(&mut p.lanes, &mut p.free_lanes);
        p.lanes[i].held = held;
        p.lanes[i].ops.reserve_exact(ops);
        LaneId(i as u32)
    }

    /// A fresh, incomplete flag; `held` if a front end will name it.
    pub fn flag(&mut self, held: bool) -> FlagId {
        let p = &mut self.st.programs;
        let i = slot(&mut p.flags, &mut p.free_flags);
        let f = &mut p.flags[i];
        (f.complete, f.refs, f.head, f.tail) = (false, u32::from(held), NONE, NONE);
        FlagId(i as u32)
    }

    /// Hands back a held lane or flag at once.
    pub fn release(&mut self, handle: Handle) {
        self.st.programs.release(handle);
    }

    /// Appends `op` to `lane`; runs nothing (see [`Lanes::kick`]).
    pub fn push(&mut self, lane: LaneId, op: LaneOp) {
        let p = &mut self.st.programs;
        if let LaneOp::Record(f) | LaneOp::Wait(f) = op {
            p.flags[f.0 as usize].refs += 1;
        }
        p.lanes[lane.0 as usize].ops.push_back(op);
    }

    /// Runs `lane` until it blocks, unless an op holds it or it is parked.
    pub fn kick(&mut self, lane: LaneId) {
        let l = &self.st.programs.lanes[lane.0 as usize];
        if !(l.busy || l.parked) {
            run(self.st, self.topo, lane.0, true);
        }
    }

    /// `(ops queued, an op in flight, parked)` of `lane`.
    pub fn state(&self, lane: LaneId) -> (usize, bool, bool) {
        let l = &self.st.programs.lanes[lane.0 as usize];
        (l.ops.len(), l.busy, l.parked)
    }

    /// True once `flag` has been recorded.
    pub fn is_complete(&self, flag: FlagId) -> bool {
        self.st.programs.flags[flag.0 as usize].complete
    }

    /// Makes `flag` incomplete again, so the next `Record` completes it —
    /// unless lanes are parked on it; returns how many are.
    pub fn rearm(&mut self, flag: FlagId) -> usize {
        let p = &mut self.st.programs;
        let (mut next, mut parked) = (p.flags[flag.0 as usize].head, 0);
        while next != NONE {
            (next, parked) = (p.lanes[next as usize].next, parked + 1);
        }
        if parked == 0 {
            p.flags[flag.0 as usize].complete = false;
        }
        parked
    }
}

/// A free slot of `items`, reused before the table grows.
fn slot<T: Default>(items: &mut Vec<T>, free: &mut Vec<u32>) -> usize {
    if let Some(i) = free.pop() {
        return i as usize;
    }
    items.push(T::default());
    items.len() - 1
}

/// Runs `lane` until an op holds it, it parks, or its queue runs dry, then
/// recycles it if it is unheld and dry. `api` when called from outside the
/// event loop.
fn run(st: &mut State, topo: &Topology, lane: u32, api: bool) {
    let at = lane as usize;
    while let Some(op) = st.programs.lanes[at].ops.pop_front() {
        match op {
            LaneOp::Flow(spec, effect) => {
                (st.programs.lanes[at].busy, st.programs.lanes[at].effect) = (true, effect);
                start_flow_locked(st, topo, spec, Done::Lane(lane));
                return;
            }
            LaneOp::Delay(cost, effect) => {
                (st.programs.lanes[at].busy, st.programs.lanes[at].effect) = (true, effect);
                let done = st.now.after(cost);
                push_event(st, done, Event::Timer(Done::Lane(lane)));
                return;
            }
            LaneOp::Record(flag) => {
                let f = &mut st.programs.flags[flag.0 as usize];
                let (mut next, mut released) = (f.head, 0);
                (f.complete, f.head, f.tail) = (true, NONE, NONE);
                while next != NONE {
                    let waiter = &mut st.programs.lanes[next as usize];
                    waiter.parked = false;
                    let this = std::mem::replace(&mut next, waiter.next);
                    released += 1;
                    run(st, topo, this, api);
                }
                st.programs.unref(flag, 1 + released);
            }
            LaneOp::Wait(flag) => {
                let p = &mut st.programs;
                let f = &mut p.flags[flag.0 as usize];
                if f.complete {
                    p.unref(flag, 1);
                    continue;
                }
                match std::mem::replace(&mut f.tail, lane) {
                    NONE => f.head = lane,
                    last => p.lanes[last as usize].next = lane,
                }
                (p.lanes[at].parked, p.lanes[at].next) = (true, NONE);
                return;
            }
            LaneOp::Signal(w) => fire_waker(st, &w),
            // From outside the loop: deferred to it at the current time.
            LaneOp::Call(f) if api => {
                let now = st.now.after(0.0);
                push_event(st, now, Event::Timer(Done::Then(OnComplete::Call(f))));
            }
            LaneOp::Call(f) => f(&mut Ctx { st, topo }),
        }
    }
    st.programs.free_if_done(lane);
}

/// The event loop's half: `lane`'s in-flight op retired. Applies its
/// effect and runs the lane on.
pub(super) fn retire(st: &mut State, topo: &Topology, lane: u32) {
    let l = &mut st.programs.lanes[lane as usize];
    l.busy = false;
    if let Some(effect) = l.effect.take() {
        effect();
    }
    run(st, topo, lane, false);
}
