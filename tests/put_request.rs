//! The one non-blocking PUT, `UcxContext::put(&PutRequest)`, with what
//! MPI's point-to-point layer hands it: a message at non-zero offsets of
//! both buffers and two completion wakers (send and receive). Each case
//! writes exactly the destination range, signals each waker once with the
//! last byte landed, and reports its paths by candidate index — interpreted
//! and replayed, on a healthy fabric and supervised around a down link.

use multipath_gpu::prelude::*;
use multipath_gpu::sim::task;
use std::sync::Arc;

const N: usize = (8 << 20) + 13;
const SRC_OFF: usize = 7;
const DST_OFF: usize = 29;
/// What the destination holds outside the message.
const UNTOUCHED: u8 = 0xEE;

fn put_at_offsets(replay: bool, link_down: bool) {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    let cfg = UcxConfig {
        graph_replay: replay,
        ..UcxConfig::default()
    };
    let ctx = UcxContext::new(rt, cfg);
    let (eng, gpus) = (
        ctx.runtime().engine(),
        ctx.runtime().engine().topology().gpus(),
    );
    let paths = ctx.paths_for(gpus[0], gpus[1], cfg.selection).unwrap();
    assert_eq!(paths.len(), 4, "direct, two GPU-staged, host-staged");
    if link_down {
        // The first GPU-staged path's forwarding leg: no other candidate
        // routes over it, so the supervised plan keeps candidates 0, 2, 3.
        eng.set_link_down(paths[1].legs[1].route[0]);
    }
    let data: Vec<u8> = (0..SRC_OFF + N + 5).map(|i| (i * 7 % 251) as u8).collect();
    let src = ctx.runtime().alloc_bytes(gpus[0], data.clone());
    let dst = (ctx.runtime()).alloc_bytes(gpus[1], vec![UNTOUCHED; DST_OFF + N + 64]);
    let mut expected = vec![UNTOUCHED; DST_OFF + N + 64];
    expected[DST_OFF..][..N].copy_from_slice(&data[SRC_OFF..][..N]);

    let notify = [Waker::new("send"), Waker::new("recv")];
    let req = PutRequest {
        src: (&src, SRC_OFF),
        dst: (&dst, DST_OFF),
        n: N,
        notify: &notify,
    };
    let h = ctx.put(&req).expect("put");
    let mut indices: Vec<usize> = h.unfinished().iter().map(|s| s.path_index).collect();
    indices.sort_unstable();
    // Healthy, the host-staged path idles at this size; around the down
    // link it carries a share, and the survivor indices 0, 1, 2 of the
    // plan must come back as candidates 0, 2, 3.
    let active: &[usize] = if link_down { &[0, 2, 3] } else { &[0, 1, 2] };
    assert_eq!(indices, active, "slots must speak candidate indices");

    let woken = task::run(
        eng,
        notify.iter().map(|w| {
            let (h, dst) = (&h, &dst);
            let wake = async move {
                task::wait(w).await;
                (h.is_complete(), dst.to_vec().expect("payload buffer"))
            };
            (w.name().clone(), wake)
        }),
    );
    for (complete, bytes) in woken {
        assert!(complete, "a notify waker fired before every path drained");
        assert!(bytes == expected, "bytes at wake differ from the message");
    }
    eng.run_until_idle();
    assert!(
        notify.iter().all(|w| !w.is_signaled()),
        "a waker fired twice"
    );
    assert!(dst.to_vec().unwrap() == expected);
    let (replays, supervised) = (ctx.graph_stats().replays, ctx.health_stats().trips);
    assert_eq!(
        (replays > 0, supervised > 0),
        (replay && !link_down, link_down)
    );
}

#[test]
fn an_interpreted_put_writes_its_range_and_notifies_once() {
    put_at_offsets(false, false);
}

#[test]
fn a_replayed_put_writes_its_range_and_notifies_once() {
    put_at_offsets(true, false);
}

#[test]
fn a_supervised_put_keeps_candidate_indices() {
    put_at_offsets(false, true);
}

#[test]
fn a_supervised_put_under_replay_keeps_candidate_indices() {
    put_at_offsets(true, true);
}
