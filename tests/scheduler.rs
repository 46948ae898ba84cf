//! The blocked-thread quorum scheduler, seen from outside the engine.
//!
//! Parked threads are woken only when one of them can make progress (a
//! waker fired under its waiting owner, a `SimThread` dropped, the engine
//! poisoned), so the failure these tests guard against is a *lost*
//! wake-up — which shows up as a hang, not as a wrong value. Every test
//! therefore runs under a wall-clock watchdog.
//!
//! Where a test wants threads to be parked before it acts, it waits for
//! them to announce themselves and then sleeps briefly: the engine does
//! not expose who is parked. The sleep only makes the interesting
//! interleaving likely; the assertions hold under either.

mod common;

use common::watchdog;
use multipath_gpu::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const LET_THEM_PARK: Duration = Duration::from_millis(50);

fn engine() -> Engine {
    Engine::new(Arc::new(presets::beluga()))
}

#[test]
fn random_sleeps_advance_the_clock_to_the_longest_thread() {
    let (now, sums) = watchdog(|| {
        let eng = engine();
        let actors: Vec<_> = (0..8)
            .map(|i| eng.register_thread(format!("sleeper{i}")))
            .collect();
        let handles: Vec<_> = actors
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5c4e_d000 + i as u64);
                    let mut sum = SimTime::ZERO;
                    for _ in 0..500 {
                        let d = rng.gen_range(1e-7..1e-4);
                        t.sleep(d);
                        sum = sum.after(d);
                        assert_eq!(t.now(), sum, "{} woke at the wrong time", t.name());
                    }
                    sum
                })
            })
            .collect();
        let sums: Vec<SimTime> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (eng.now(), sums)
    });
    assert_eq!(now, *sums.iter().max().unwrap(), "per-thread sums {sums:?}");
}

#[test]
fn dropping_a_sim_thread_hands_the_quorum_to_parked_threads() {
    let now = watchdog(|| {
        let eng = engine();
        let quitter = eng.register_thread("quitter");
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let t = eng.register_thread(format!("sleeper{i}"));
                let tx = tx.clone();
                thread::spawn(move || {
                    tx.send(()).unwrap();
                    // Cannot finish while `quitter` is registered and
                    // running: the quorum is never complete.
                    t.sleep(1e-3);
                })
            })
            .collect();
        for _ in 0..3 {
            rx.recv().unwrap();
        }
        thread::sleep(LET_THEM_PARK);
        assert_eq!(eng.now(), SimTime::ZERO, "time moved without a quorum");
        drop(quitter);
        for h in handles {
            h.join().unwrap();
        }
        eng.now()
    });
    assert_eq!(now, SimTime::from_secs(1e-3));
}

#[test]
fn deadlock_poisons_the_engine_and_panics_every_thread() {
    let messages = watchdog(|| {
        let eng = engine();
        let actors: Vec<_> = (0..3)
            .map(|i| eng.register_thread(format!("stuck{i}")))
            .collect();
        let handles: Vec<_> = actors
            .into_iter()
            .enumerate()
            .map(|(i, t)| thread::spawn(move || t.wait(&Waker::new(format!("never-fired-{i}")))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let payload = h.join().expect_err("a deadlocked thread returned");
                *payload.downcast::<String>().expect("panic with a message")
            })
            .collect::<Vec<String>>()
    });
    let detectors = messages
        .iter()
        .filter(|m| m.contains("simulated deadlock"))
        .count();
    assert_eq!(
        detectors, 1,
        "exactly one thread completes the quorum: {messages:?}"
    );
    for (i, m) in messages.iter().enumerate() {
        assert!(
            m.contains("simulated deadlock") || m.contains("poisoned"),
            "thread {i}: {m}"
        );
        assert!(
            m.contains(&format!("`never-fired-{i}`")),
            "thread {i} does not name its waker: {m}"
        );
    }
}

#[test]
fn an_unregistered_thread_can_release_a_parked_rank() {
    watchdog(|| {
        let eng = engine();
        let waiter = eng.register_thread("waiter");
        // A second registered thread that stays runnable (it blocks on a
        // real channel, not on the engine), so `waiter` parks instead of
        // becoming the runner and tripping the deadlock detector.
        let bystander = eng.register_thread("bystander");
        let w = Waker::new("from-outside");
        let (about_to_wait, waiting) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let waiter_h = {
            let w = w.clone();
            thread::spawn(move || {
                about_to_wait.send(()).unwrap();
                waiter.wait(&w);
            })
        };
        let bystander_h = thread::spawn(move || {
            released.recv().unwrap();
            drop(bystander);
        });
        waiting.recv().unwrap();
        thread::sleep(LET_THEM_PARK);
        eng.signal_waker(&w);
        waiter_h.join().unwrap();
        release.send(()).unwrap();
        bystander_h.join().unwrap();
        assert_eq!(eng.now(), SimTime::ZERO);
    });
}

#[test]
fn rank_threaded_results_repeat_in_virtual_time() {
    let allreduce = || {
        let world = World::new(Arc::new(presets::narval()), UcxConfig::default());
        world.run_tasks(4, |r| async move {
            let buf = r.alloc(4 << 20);
            mpx_mpi::allreduce_rabenseifner(&r, &buf, 4 << 20, ReduceOp::Sum).await;
            r.now().as_nanos() as f64
        })
    };
    let bw = || {
        let topo = Arc::new(presets::beluga());
        let cfg = P2pConfig::with_window(16);
        vec![osu_bw(&topo, UcxConfig::default(), 8 << 20, cfg)]
    };
    // Rank tasks move in rank order, so every run repeats to the bit.
    let agree = |what: &str, run: &dyn Fn() -> Vec<f64>| {
        let first: Vec<u64> = run().iter().map(|v| v.to_bits()).collect();
        for i in 1..20 {
            let next: Vec<u64> = run().iter().map(|v| v.to_bits()).collect();
            assert_eq!(next, first, "{what}, run {i}");
        }
    };
    watchdog(move || {
        agree("4-rank allreduce", &allreduce);
        agree("window-16 osu_bw", &bw);
    });
}
