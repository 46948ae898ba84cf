//! OSU-style point-to-point bandwidth tests: unidirectional (`osu_bw`)
//! and bidirectional (`osu_bibw`), with the window sizes the paper sweeps
//! (1 and 16).

use mpx_mpi::{Rank, Request, World};
use mpx_topo::units::Bandwidth;
use mpx_topo::Topology;
use mpx_ucx::UcxConfig;
use std::sync::Arc;

/// Virtual-time guard on every waitall: no intra-node iteration takes
/// anywhere near this long, so a rank stuck on a dead link aborts the
/// benchmark with a diagnostic instead of hanging the test run.
const WAIT_GUARD: f64 = 600.0;

async fn waitall_guarded(r: &Rank, reqs: &[Request]) {
    let deadline = r.now().after(WAIT_GUARD);
    if let Err(e) = r.waitall_deadline(reqs, deadline).await {
        panic!("rank {}: benchmark wait stuck ({e})", r.rank);
    }
}

/// Measurement protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P2pConfig {
    /// Outstanding messages per iteration (OMB's window size).
    pub window: usize,
    /// Timed iterations.
    pub iterations: usize,
    /// Untimed warmup iterations (also absorbs one-time costs: IPC handle
    /// opens, plan-cache misses).
    pub warmup: usize,
}

impl Default for P2pConfig {
    fn default() -> Self {
        P2pConfig {
            window: 1,
            iterations: 4,
            warmup: 1,
        }
    }
}

impl P2pConfig {
    /// The paper's two window settings.
    pub fn windows() -> [usize; 2] {
        [1, 16]
    }

    /// Config with the given window.
    pub fn with_window(window: usize) -> P2pConfig {
        P2pConfig {
            window,
            ..P2pConfig::default()
        }
    }
}

/// Unidirectional bandwidth (bytes/s) between GPU 0 and GPU 1 for
/// `n`-byte messages. Fresh simulation per call.
pub fn osu_bw(topo: &Arc<Topology>, ucx: UcxConfig, n: usize, cfg: P2pConfig) -> Bandwidth {
    osu_bw_on(&World::new(topo.clone(), ucx), n, cfg)
}

/// [`osu_bw`] on an existing world (reuses its virtual clock, plan cache
/// and — for static mode — its tuned table).
pub fn osu_bw_on(world: &World, n: usize, cfg: P2pConfig) -> Bandwidth {
    assert!(n > 0 && cfg.window > 0 && cfg.iterations > 0);
    let results = world.run_tasks(2, |r| async move {
        let bufs: Vec<_> = (0..cfg.window).map(|_| r.alloc(n)).collect();
        let mut t0 = r.now();
        for it in 0..cfg.warmup + cfg.iterations {
            if it == cfg.warmup {
                r.barrier().await;
                t0 = r.now();
            }
            let reqs: Vec<_> = (0..cfg.window)
                .map(|k| {
                    let tag = (it * cfg.window + k) as u64;
                    if r.rank == 0 {
                        r.isend(&bufs[k], n, 1, tag)
                    } else {
                        r.irecv(&bufs[k], n, Some(0), Some(tag))
                    }
                })
                .collect();
            waitall_guarded(&r, &reqs).await;
        }
        let dt = r.now().secs_since(t0);
        (cfg.iterations * cfg.window * n) as f64 / dt
    });
    results[0]
}

/// Bidirectional bandwidth (bytes/s, both directions summed) between
/// GPU 0 and GPU 1.
pub fn osu_bibw(topo: &Arc<Topology>, ucx: UcxConfig, n: usize, cfg: P2pConfig) -> Bandwidth {
    osu_bibw_on(&World::new(topo.clone(), ucx), n, cfg)
}

/// [`osu_bibw`] on an existing world.
pub fn osu_bibw_on(world: &World, n: usize, cfg: P2pConfig) -> Bandwidth {
    assert!(n > 0 && cfg.window > 0 && cfg.iterations > 0);
    let results = world.run_tasks(2, |r| async move {
        let peer = 1 - r.rank;
        let sbufs: Vec<_> = (0..cfg.window).map(|_| r.alloc(n)).collect();
        let rbufs: Vec<_> = (0..cfg.window).map(|_| r.alloc(n)).collect();
        let mut t0 = r.now();
        for it in 0..cfg.warmup + cfg.iterations {
            if it == cfg.warmup {
                r.barrier().await;
                t0 = r.now();
            }
            // Tag encodes (direction, iteration, slot).
            let dir = |sender: usize| (sender as u64) << 32;
            let mut reqs = Vec::with_capacity(2 * cfg.window);
            for (k, rbuf) in rbufs.iter().enumerate() {
                let idx = (it * cfg.window + k) as u64;
                reqs.push(r.irecv(rbuf, n, Some(peer), Some(dir(peer) | idx)));
            }
            for (k, sbuf) in sbufs.iter().enumerate() {
                let idx = (it * cfg.window + k) as u64;
                reqs.push(r.isend(sbuf, n, peer, dir(r.rank) | idx));
            }
            waitall_guarded(&r, &reqs).await;
        }
        let dt = r.now().secs_since(t0);
        (2 * cfg.iterations * cfg.window * n) as f64 / dt
    });
    results[0].max(results[1])
}

/// Ping-pong latency (seconds, one-way) between GPU 0 and GPU 1.
pub fn osu_latency(topo: &Arc<Topology>, ucx: UcxConfig, n: usize, iterations: usize) -> f64 {
    assert!(n > 0 && iterations > 0);
    let world = World::new(topo.clone(), ucx);
    let results = world.run_tasks(2, |r| async move {
        let buf = r.alloc(n);
        r.barrier().await;
        let t0 = r.now();
        for it in 0..iterations as u64 {
            if r.rank == 0 {
                r.send(&buf, n, 1, 2 * it).await;
                r.recv(&buf, n, Some(1), Some(2 * it + 1)).await;
            } else {
                r.recv(&buf, n, Some(0), Some(2 * it)).await;
                r.send(&buf, n, 0, 2 * it + 1).await;
            }
        }
        r.now().secs_since(t0) / (2.0 * iterations as f64)
    });
    results[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;
    use mpx_ucx::TuningMode;

    fn cfg(mode: TuningMode) -> UcxConfig {
        UcxConfig {
            mode,
            ..UcxConfig::default()
        }
    }

    #[test]
    fn single_path_bw_approaches_link_rate() {
        let topo = Arc::new(presets::beluga());
        let bw = osu_bw(
            &topo,
            cfg(TuningMode::SinglePath),
            64 * MIB,
            P2pConfig::default(),
        );
        assert!(bw > 0.9 * 48e9 && bw <= 48e9, "bw = {:.1} GB/s", bw / 1e9);
    }

    #[test]
    fn dynamic_bw_beats_single_path() {
        let topo = Arc::new(presets::beluga());
        let single = osu_bw(
            &topo,
            cfg(TuningMode::SinglePath),
            64 * MIB,
            P2pConfig::default(),
        );
        let multi = osu_bw(
            &topo,
            cfg(TuningMode::Dynamic),
            64 * MIB,
            P2pConfig::default(),
        );
        let speedup = multi / single;
        assert!(
            (2.0..3.6).contains(&speedup),
            "speedup {speedup} out of band"
        );
    }

    #[test]
    fn window_16_at_least_as_fast_as_window_1() {
        let topo = Arc::new(presets::beluga());
        let w1 = osu_bw(
            &topo,
            cfg(TuningMode::Dynamic),
            8 * MIB,
            P2pConfig::with_window(1),
        );
        let w16 = osu_bw(
            &topo,
            cfg(TuningMode::Dynamic),
            8 * MIB,
            P2pConfig::with_window(16),
        );
        assert!(
            w16 > 0.99 * w1,
            "w16 {:.1} vs w1 {:.1} GB/s",
            w16 / 1e9,
            w1 / 1e9
        );
    }

    #[test]
    fn bibw_roughly_doubles_bw_on_duplex_links() {
        let topo = Arc::new(presets::beluga());
        let bw = osu_bw(
            &topo,
            cfg(TuningMode::SinglePath),
            64 * MIB,
            P2pConfig::default(),
        );
        let bibw = osu_bibw(
            &topo,
            cfg(TuningMode::SinglePath),
            64 * MIB,
            P2pConfig::default(),
        );
        let ratio = bibw / bw;
        assert!(
            (1.8..2.05).contains(&ratio),
            "bibw/bw ratio {ratio} (bibw {:.1}, bw {:.1})",
            bibw / 1e9,
            bw / 1e9
        );
    }

    #[test]
    fn latency_small_message_is_microseconds() {
        let topo = Arc::new(presets::beluga());
        let lat = osu_latency(&topo, cfg(TuningMode::SinglePath), 4096, 4);
        assert!(lat > 1e-6 && lat < 100e-6, "latency {:.2} us", lat * 1e6);
    }
}
