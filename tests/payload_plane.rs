//! The payload plane: what a completed copy does to real bytes.
//!
//! `Buffer::transfer` moves each simulated copy with one `memcpy` under
//! both buffers' locks, and the pipeline's staging slots are recycled
//! through the runtime's per-device free list instead of being allocated
//! and zeroed per PUT. What can go wrong is a wrong byte (an aliasing or
//! stale-slot bug), a hang (a lock-order bug) or unbounded retention (a
//! free list that only grows), so every test runs under a wall-clock
//! watchdog and checks bytes, not timings.

mod common;

use common::watchdog;
use multipath_gpu::prelude::*;
use multipath_gpu::ucx::RING_DEPTH;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::thread;

const MIB: usize = 1 << 20;

/// Mirrors `mpx_gpu`'s private bound on retired staging vectors kept per
/// device; a change to that constant is a change to this test.
const STAGING_FREE_MAX: usize = 16;

fn beluga_context() -> UcxContext {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    UcxContext::new(rt, UcxConfig::default())
}

/// `n` bytes, none of them zero, different for every `salt`.
fn pattern(n: usize, salt: usize) -> Vec<u8> {
    (0..n)
        .map(|i| 1 + ((i * (2 * salt + 3) + salt) % 251) as u8)
        .collect()
}

/// One payload PUT drained to completion; returns the destination.
fn put_and_drain(ctx: &UcxContext, src_dev: usize, dst_dev: usize, data: &[u8]) -> Buffer {
    let gpus = ctx.runtime().engine().topology().gpus();
    let src = ctx.runtime().alloc_bytes(gpus[src_dev], data.to_vec());
    let dst = ctx.runtime().alloc_zeroed(gpus[dst_dev], data.len());
    let h = ctx.put_async(&src, &dst, data.len()).expect("put");
    ctx.runtime().engine().run_until_idle();
    assert!(h.is_complete());
    dst
}

/// `(size, src_off, dst_off, len)` with both ranges inside `size`.
fn arb_ranges() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (1usize..300)
        .prop_flat_map(|size| (Just(size), 0..=size))
        .prop_flat_map(|(size, len)| (Just(size), 0..=size - len, 0..=size - len, Just(len)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn transfer_equals_the_vec_model((size, src_off, dst_off, len) in arb_ranges()) {
        watchdog(move || {
            let dev = presets::beluga().gpus();
            // Within one buffer: memmove semantics, overlap included.
            let mut model = pattern(size, 1);
            let one = Buffer::from_bytes(dev[0], model.clone());
            Buffer::transfer(&one, src_off, &one.clone(), dst_off, len);
            model.copy_within(src_off..src_off + len, dst_off);
            assert_eq!(one.to_vec().unwrap(), model, "self-copy {src_off}->{dst_off} x{len}");

            // Between two buffers, in both id orders.
            for flip in [false, true] {
                let (first, second) = (
                    Buffer::from_bytes(dev[0], pattern(size, 2)),
                    Buffer::from_bytes(dev[1], pattern(size, 3)),
                );
                let (src, dst) = if flip { (&second, &first) } else { (&first, &second) };
                let mut want = dst.to_vec().unwrap();
                want[dst_off..dst_off + len]
                    .copy_from_slice(&src.to_vec().unwrap()[src_off..src_off + len]);
                let src_before = src.to_vec();
                Buffer::transfer(src, src_off, dst, dst_off, len);
                assert_eq!(dst.to_vec().unwrap(), want, "copy {src_off}->{dst_off} x{len}");
                assert_eq!(src.to_vec(), src_before, "source modified");
            }
        });
    }
}

#[test]
fn opposite_transfers_do_not_deadlock() {
    watchdog(|| {
        let dev = presets::beluga().gpus();
        let a = Buffer::from_bytes(dev[0], pattern(4096, 4));
        let b = Buffer::from_bytes(dev[1], pattern(4096, 5));
        let start = Barrier::new(3);
        thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..10_000 {
                    Buffer::transfer(&a, i % 64, &b, 0, 4000);
                }
            });
            s.spawn(|| {
                start.wait();
                for i in 0..10_000 {
                    Buffer::transfer(&b, i % 64, &a, 0, 4000);
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..10_000 {
                    a.with_data(|d| d[4095] = d[4095].wrapping_add(1));
                    b.with_data(|d| d[4095] = d[4095].wrapping_add(1));
                }
            });
        });
        // The byte only the third thread touched counts its iterations.
        let bumped = (10_000 % 256) as u8;
        assert_eq!(
            a.read(4095, 1).unwrap()[0],
            pattern(4096, 4)[4095].wrapping_add(bumped)
        );
        assert_eq!(
            b.read(4095, 1).unwrap()[0],
            pattern(4096, 5)[4095].wrapping_add(bumped)
        );
    });
}

/// Staging slots are handed out with whatever their last PUT left in
/// them. A large PUT, then smaller ones that fit its slots, then a large
/// one again: every destination must still equal its source, the tracker
/// must count only live slots, and the staging peak must be what it was
/// when every slot was a fresh zeroed allocation.
#[test]
fn recycled_slots_never_leak_a_previous_payload() {
    watchdog(|| {
        let ctx = beluga_context();
        let topo = ctx.runtime().engine().topology().clone();
        let gpus = topo.gpus();
        let staging: Vec<usize> = (0..topo.device_count())
            .filter(|&d| d != gpus[0].index() && d != gpus[1].index())
            .collect();
        for (salt, n) in [32 * MIB, 2 * MIB + 13, 8 * MIB, 32 * MIB]
            .into_iter()
            .enumerate()
        {
            let data = pattern(n, salt);
            let paths = ctx
                .plan_for(gpus[0], gpus[1], n)
                .expect("plan")
                .active_path_count();
            assert!(
                n < 32 * MIB || paths == 4,
                "{n} B should use all four paths"
            );
            let dst = put_and_drain(&ctx, 0, 1, &data);
            assert!(
                dst.to_vec().unwrap() == data,
                "PUT {salt} ({n} B) corrupted"
            );
            let stats = ctx.runtime().memory_stats();
            for &d in &staging {
                assert_eq!(
                    stats.current[d], 0,
                    "device {d} holds staging after PUT {salt}"
                );
            }
        }
        let peak = ctx.runtime().memory_stats().peak;
        let staging_peak: Vec<u64> = staging.iter().map(|&d| peak[d]).collect();
        // Recorded on the parent commit (fresh `alloc_zeroed` ring per
        // PUT) for this exact sequence.
        assert_eq!(
            staging_peak, PARENT_STAGING_PEAK,
            "staging devices {staging:?}"
        );
    });
}

const PARENT_STAGING_PEAK: [u64; 3] = [7_353_756, 7_273_520, 2_124_324];

/// 1 000 PUTs cycling through 50 distinct sizes leave at
/// most `STAGING_FREE_MAX` retired vectors on any device. The list is
/// private, so it is drained through the public entry point: a recycled
/// slot still starts with a payload byte (never zero here), a fresh
/// allocation starts zeroed.
#[test]
fn free_list_stays_within_its_bound() {
    watchdog(|| {
        let ctx = beluga_context();
        let rt = ctx.runtime();
        let topo = rt.engine().topology().clone();
        let payloads: Vec<Vec<u8>> = (0..50)
            .map(|i| pattern(256 * 1024 + i * 40_961, i))
            .collect();
        for i in 0..1_000 {
            // Ascending, so that no retired vector fits the next PUT and
            // an unbounded list would keep all of them.
            let data = &payloads[i % 50];
            let dst = put_and_drain(&ctx, i % 4, (i + 1) % 4, data);
            assert!(dst.to_vec().unwrap() == *data, "PUT {i} corrupted");
        }
        let mut recycled_anywhere = 0;
        for d in 0..topo.device_count() {
            let device = multipath_gpu::topo::DeviceId(d as u32);
            let mut held = Vec::new();
            loop {
                let slot = rt.alloc_staging(device, 1);
                if slot.read(0, 1).unwrap()[0] == 0 {
                    break;
                }
                held.push(slot);
                assert!(
                    held.len() <= STAGING_FREE_MAX,
                    "device {d} retained more than {STAGING_FREE_MAX} staging vectors"
                );
            }
            recycled_anywhere += held.len();
        }
        assert!(recycled_anywhere > 0, "no staging vector was ever recycled");
    });
}

/// A path's staging ring is one buffer, and a slot of it is only safe to
/// refill once its previous chunk has been forwarded. Every GPU-staged
/// share here is cut into `2·RING_DEPTH + 1` uneven chunks and its second
/// leg slowed sixteenfold, so leg 1 fills the ring, stalls on `FREED`, and
/// wraps it twice under back-pressure; interpreted and replayed, the
/// destination must equal the source. (Without the `FREED` wait, or with
/// it one chunk late, leg 1 overwrites a slot leg 2 has yet to read.)
#[test]
fn a_wrapped_ring_under_back_pressure_stays_bit_exact() {
    watchdog(|| {
        let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
        let cfg = UcxConfig {
            mode: TuningMode::Static,
            ..UcxConfig::default()
        };
        let ctx = UcxContext::new(rt.clone(), cfg);
        let eng = rt.engine();
        let gpus = eng.topology().gpus();
        let n = 4 * MIB + 4093;
        let sel = ctx.config().selection;
        let mut plan = (*ctx.planner().plan(gpus[0], gpus[1], n, sel).unwrap()).clone();
        let paths = ctx.paths_for(gpus[0], gpus[1], sel).unwrap();
        let mut wrapped = 0;
        for (pp, path) in plan.paths.iter_mut().zip(paths.iter()) {
            let gpu_staged = path.legs.len() == 2 && path.legs[1].route.len() == 1;
            if pp.share_bytes > 0 && gpu_staged {
                pp.chunks = 2 * RING_DEPTH as u32 + 1;
                assert_ne!(
                    pp.share_bytes % pp.chunks as usize,
                    0,
                    "chunks must be uneven"
                );
                let link = path.legs[1].route[0];
                eng.set_link_capacity(link, eng.link_capacity(link) / 16.0);
                wrapped += 1;
            }
        }
        assert!(wrapped > 0, "the plan stages nothing through a GPU");
        ctx.install_static_plan(gpus[0], gpus[1], n, Arc::new(plan));

        for (salt, replayed) in [false, true, true].into_iter().enumerate() {
            let data = pattern(n, salt);
            let src = rt.alloc_bytes(gpus[0], data.clone());
            let dst = rt.alloc_zeroed(gpus[1], n);
            let h = if replayed {
                ctx.put_replayed(&src, &dst, n)
            } else {
                ctx.put_async(&src, &dst, n)
            };
            eng.run_until_idle();
            assert!(h.expect("put").is_complete());
            assert!(dst.to_vec().unwrap() == data, "PUT {salt} corrupted");
        }
        assert_eq!(ctx.graph_stats().replays, 2);
    });
}

#[test]
#[should_panic(expected = "out of bounds")]
fn synthetic_source_still_checks_its_range() {
    watchdog(|| {
        let dev = presets::beluga().gpus();
        let src = Buffer::synthetic(dev[0], 8);
        let dst = Buffer::zeroed(dev[1], 64);
        Buffer::transfer(&src, 6, &dst, 0, 4);
    });
}

#[test]
#[should_panic(expected = "out of bounds")]
fn synthetic_destination_still_checks_its_range() {
    watchdog(|| {
        let dev = presets::beluga().gpus();
        let src = Buffer::zeroed(dev[0], 64);
        let dst = Buffer::synthetic(dev[1], 8);
        Buffer::transfer(&src, 0, &dst, 6, 4);
    });
}
