//! MPI ranks as tasks: `World::run_tasks` polls every rank body on the
//! calling thread (`mpx_sim::task`), moves the ranks released at one
//! virtual instant in rank order, and handles the next engine event when
//! none can move.

use mpx_omb::{alltoall_on, osu_bibw_on, AlltoallAlgo, CollectiveConfig};
use mpx_sim::task;
use multipath_gpu::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;

fn engine() -> Engine {
    Engine::new(Arc::new(presets::beluga()))
}

#[test]
fn tasks_sleep_in_virtual_time_and_move_in_task_order() {
    let eng = engine();
    let woke = RefCell::new(Vec::new());
    let (e, woke_ref) = (&eng, &woke);
    // Listed 2, 1, 0: task ids follow the list, not the numbers.
    let done = task::run(
        &eng,
        (0..3).rev().map(|i| {
            let name = format!("t{i}").into();
            (name, async move {
                task::sleep(e, "nap".into(), 1e-6).await;
                woke_ref.borrow_mut().push(i);
                for _ in 0..i {
                    task::sleep(e, "nap".into(), 1e-3).await;
                }
                e.now()
            })
        }),
    );
    assert_eq!(*woke.borrow(), vec![2, 1, 0], "one instant, task order");
    let at = |i: f64| SimTime::ZERO.after(1e-6).after(i * 1e-3);
    assert_eq!(done, vec![at(2.0), at(1.0), at(0.0)]);
}

#[test]
fn a_deadline_wait_times_out_or_wins_and_leaves_no_signal() {
    let eng = engine();
    let (fast, never) = (Waker::new("fast"), Waker::new("never"));
    eng.schedule_in(1e-6, OnComplete::Signal(fast.clone()));
    let e = &eng;
    let out = task::run(
        &eng,
        [("t0".into(), async {
            let won = task::wait_until(e, &fast, SimTime::ZERO.after(1e-3)).await;
            let lost = task::wait_until(e, &never, SimTime::ZERO.after(2e-3)).await;
            (won, lost, e.now())
        })],
    );
    assert_eq!(out, vec![(true, false, SimTime::ZERO.after(2e-3))]);
    // Both signals consumed; the won wait's timeout fired nothing.
    assert!(!fast.is_signaled() && !never.is_signaled());
    assert_eq!(eng.stats().events_scheduled, 3);
}

fn world() -> World {
    World::new(Arc::new(presets::beluga()), UcxConfig::default())
}

#[test]
fn a_rank_body_runs_on_the_callers_thread_with_no_sim_thread() {
    let w = world();
    let caller = std::thread::current().id();
    let out = w.run_tasks(4, |r| async move {
        r.barrier().await;
        r.compute(1e-6 * r.rank as f64).await;
        r.barrier().await;
        std::thread::current().id()
    });
    assert_eq!(out, vec![caller; 4]);
    // Were a rank a registered thread, the engine would refuse this.
    w.engine().run_until_idle();
}

#[test]
#[should_panic(expected = "rank 1 panicked")]
fn a_rank_panic_surfaces_as_rank_n_panicked() {
    world().run_tasks(2, |r| async move {
        r.barrier().await;
        assert_eq!(r.rank, 0, "rank {} gives up", r.rank);
    });
}

#[test]
#[should_panic(expected = "`rank 1` waiting on `recv r1<-Some(0) tSome(5)`")]
fn an_unmatched_receive_is_a_simulated_deadlock_naming_its_waker() {
    world().run_tasks(2, |r| async move {
        let buf = r.alloc(64);
        if r.rank == 1 {
            r.recv(&buf, 64, Some(0), Some(5)).await;
        }
    });
}

#[test]
#[should_panic(expected = "registered thread(s) own the clock")]
fn the_executor_refuses_to_start_while_a_sim_thread_is_registered() {
    let w = world();
    let _driver = w.engine().register_thread("driver");
    w.run_tasks(2, |r| async move { r.barrier().await });
}

/// The work a run does, counted: the same on every run and the same as on
/// OS-thread ranks (the counts below were read there), so moving the ranks
/// onto tasks changed no simulated bit.
#[test]
fn rank_task_runs_do_the_recorded_work() {
    let w = world();
    let bibw = osu_bibw_on(&w, 8 << 20, P2pConfig::with_window(16));
    let s = w.engine().stats();
    assert_eq!(bibw.to_bits(), 4_775_627_195_081_142_382, "bibw {bibw}");
    assert_eq!(
        (s.events_processed, s.events_scheduled, s.flows_issued),
        (2884, 24_499, 1440)
    );
    assert_eq!(s.now.as_nanos(), 7_050_236);

    let w = World::new(Arc::new(presets::narval()), UcxConfig::default());
    let lat = alltoall_on(
        &w,
        1 << 20,
        AlltoallAlgo::Bruck,
        CollectiveConfig::default(),
    );
    let s = w.engine().stats();
    assert_eq!(lat.to_bits(), 4_546_087_662_507_333_811, "bruck {lat}");
    assert_eq!(
        (s.events_processed, s.events_scheduled, s.flows_issued),
        (480, 480, 160)
    );
    assert_eq!(s.now.as_nanos(), 522_156);
}
