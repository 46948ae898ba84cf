//! Simulated actors as tasks: futures polled on the calling thread.
//!
//! [`run`] drives a set of futures — MPI rank bodies, typically — to
//! completion against one [`Engine`], with no OS thread per actor. A task
//! blocks by awaiting [`wait`] on a [`Waker`] (or [`wait_until`],
//! [`sleep`]). Until every task is done, the executor polls each task that
//! can move — never polled yet, or its waker signaled — in task-id order,
//! until none can, then handles engine events one at a time until a waker
//! some task awaits has fired. That is the order the blocked-thread quorum
//! gives thread actors (one event, then every released actor runs until it
//! blocks) with the OS scheduler's pick replaced by the task id, so a run
//! repeats to the bit. These futures make progress under [`run`] only:
//! they wake nobody; the executor reads the wakers after every event.

use crate::engine::{Engine, OnComplete, Timeout};
use crate::label::Label;
use crate::time::SimTime;
use crate::waker::Waker;
use mpx_topo::units::Secs;
use std::cell::Cell;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::task::{Context, Poll};

thread_local! {
    /// The waker the task being polled waits on: set by the [`Wait`] that
    /// returned `Pending`, taken by the executor right after the poll.
    static AWAITED: Cell<Option<Waker>> = const { Cell::new(None) };
}

/// Waits until `waker` fires and consumes the signal, like
/// [`crate::SimThread::wait`]. A waker fired before the wait began is
/// consumed at once.
pub fn wait(waker: &Waker) -> Wait<'_> {
    Wait(waker)
}

/// The future of [`wait`].
#[must_use = "a wait does nothing unless awaited"]
pub struct Wait<'a>(&'a Waker);

impl Future for Wait<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.0.try_consume() {
            Poll::Ready(())
        } else {
            AWAITED.with(|a| a.set(Some(self.0.clone())));
            Poll::Pending
        }
    }
}

/// Waits until `waker` fires or virtual time reaches `deadline`; `true` if
/// the waker fired. Schedules exactly what [`crate::SimThread::wait_until`]
/// does: one timeout event, none for a waker that has already fired.
pub async fn wait_until(engine: &Engine, waker: &Waker, deadline: SimTime) -> bool {
    if waker.is_signaled() {
        wait(waker).await;
        return true;
    }
    let timeout = Timeout::arm(engine, waker, deadline);
    wait(waker).await;
    timeout.disarm()
}

/// Sleeps for `d` seconds of virtual time on a waker named `name`.
pub async fn sleep(engine: &Engine, name: Label, d: Secs) {
    let w = Waker::new(name);
    engine.schedule_in(d, OnComplete::Signal(w.clone()));
    wait(&w).await;
}

struct Task<F: Future> {
    name: Label,
    /// `None` once done.
    fut: Option<Pin<Box<F>>>,
    /// The waker the task is pending on; `None` before its first poll.
    awaits: Option<Waker>,
    out: Option<F::Output>,
}

impl<F: Future> Task<F> {
    fn can_move(&self) -> bool {
        self.fut.is_some() && self.awaits.as_ref().is_none_or(Waker::is_signaled)
    }

    /// Polls the task if it can move; `true` if it did.
    fn step(&mut self, cx: &mut Context<'_>) -> bool {
        if !self.can_move() {
            return false;
        }
        let fut = self.fut.as_mut().expect("a live task");
        let polled = panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(cx)));
        let awaited = AWAITED.with(Cell::take);
        match polled {
            Ok(Poll::Pending) => {
                let name = &self.name;
                self.awaits = Some(awaited.unwrap_or_else(|| {
                    panic!("{name} is pending on something other than a simulated waker")
                }));
            }
            Ok(Poll::Ready(out)) => (self.fut, self.out) = (None, Some(out)),
            Err(_) => panic!("{} panicked", self.name),
        }
        true
    }
}

/// Runs `tasks` — each a name and a future — to completion on the calling
/// thread, and returns their outputs in task order.
///
/// # Panics
/// Panics if a [`crate::SimThread`] is registered on `engine` (the quorum
/// would own the clock); with `"{name} panicked"` if a task panics (its
/// own message is printed first); and on a simulated deadlock.
pub fn run<F: Future>(
    engine: &Engine,
    tasks: impl IntoIterator<Item = (Label, F)>,
) -> Vec<F::Output> {
    let threads = engine.threads_registered();
    assert_eq!(
        threads, 0,
        "task executor: {threads} registered thread(s) own the clock"
    );
    let mut tasks: Vec<Task<F>> = tasks
        .into_iter()
        .map(|(name, f)| Task {
            name,
            fut: Some(Box::pin(f)),
            awaits: None,
            out: None,
        })
        .collect();
    let mut cx = Context::from_waker(std::task::Waker::noop());
    loop {
        while tasks
            .iter_mut()
            .fold(false, |moved, t| t.step(&mut cx) | moved)
        {}
        let blocked = tasks.iter().filter(|t| t.fut.is_some()).count();
        if blocked == 0 {
            return tasks.into_iter().filter_map(|t| t.out).collect();
        }
        if !engine.run_while(&mut || !tasks.iter().any(Task::can_move)) {
            let waiting: Vec<String> = tasks
                .iter()
                .filter(|t| t.fut.is_some())
                .map(|t| {
                    format!(
                        "`{}` waiting on `{}`",
                        t.name,
                        t.awaits.as_ref().expect("polled").name()
                    )
                })
                .collect();
            panic!(
                "simulated deadlock at {}: {blocked} blocked task(s), empty event queue; {}",
                engine.now(),
                waiting.join(", ")
            );
        }
    }
}
