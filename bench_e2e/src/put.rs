//! `put_interp`, `put_replay`, `put_payload`: a communication runtime
//! issuing one PUT at a time and draining the simulated fabric after
//! each (closed loop, one driver thread).

use crate::metrics::Report;
use crate::simref::{self, Moved};
use crate::trace::Tracer;
use crate::util::{self, Rates, SplitMix64};
use crate::{layers, RunCfg};
use mpx_gpu::Buffer;
use mpx_topo::units::MIB;
use mpx_topo::DeviceId;
use mpx_ucx::{execute_plan, TransferHandle, UcxConfig, UcxContext};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `put_async`, timing-only buffers: host time is pure software stack.
    Interp,
    /// The same stream through `put_replayed`.
    Replay,
    /// `put_async` moving real bytes, read back bit for bit.
    Payload,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Interp => "put_interp",
            Mode::Replay => "put_replay",
            Mode::Payload => "put_payload",
        }
    }

    /// (ordered GPU pairs as indices into `gpus()`, message sizes, key
    /// cycles per timed batch). Batches are sized to last about 20 ms,
    /// short enough that some fall between bursts of interference.
    fn shape(self) -> (&'static [(usize, usize)], &'static [usize], usize) {
        const RING: [(usize, usize); 4] = [(0, 1), (1, 2), (2, 3), (3, 0)];
        match self {
            Mode::Interp => (&RING, &[2 * MIB, 8 * MIB, 32 * MIB, 128 * MIB], 32),
            Mode::Replay => (&RING, &[2 * MIB, 8 * MIB, 32 * MIB, 128 * MIB], 48),
            Mode::Payload => (&RING[..2], &[2 * MIB, 8 * MIB, 32 * MIB], 1),
        }
    }
}

struct Key {
    n: usize,
    /// Payload mode alternates two sources with different contents, so
    /// a read-back can tell the last PUT from the one before it. The
    /// synthetic modes hold the same buffer twice.
    src: [Buffer; 2],
    dst: Buffer,
    /// Which source the latest PUT used.
    last: usize,
}

struct State {
    mode: Mode,
    ctx: UcxContext,
    keys: Vec<Key>,
    /// `put_replayed` calls made so far (must equal `GraphStats.replays`).
    replay_calls: u64,
}

fn drain(ctx: &UcxContext) {
    ctx.runtime().engine().run_until_idle();
}

impl State {
    /// Everything a caller does before its first timed PUT: preset,
    /// context, buffers (filled from the seed in payload mode), and one
    /// warm-up PUT per key, which probes the pair, opens the IPC handle
    /// and, in replay mode, captures the graph.
    fn setup(mode: Mode, seed: u64) -> State {
        let ctx = simref::beluga_context(UcxConfig::default());
        let rt = ctx.runtime();
        let gpus = rt.engine().topology().gpus();
        let (pairs, sizes, _) = mode.shape();
        let mut rng = SplitMix64::new(seed);
        let mut keys = Vec::new();
        for &(a, b) in pairs {
            for &n in sizes {
                let (src, dst) = if mode == Mode::Payload {
                    let mut fill = || {
                        let mut data = vec![0u8; n];
                        rng.fill(&mut data);
                        rt.alloc_bytes(gpus[a], data)
                    };
                    ([fill(), fill()], rt.alloc_zeroed(gpus[b], n))
                } else {
                    let s = rt.alloc(gpus[a], n);
                    ([s.clone(), s], rt.alloc(gpus[b], n))
                };
                keys.push(Key {
                    n,
                    src,
                    dst,
                    last: 0,
                });
            }
        }
        let mut st = State {
            mode,
            ctx,
            keys,
            replay_calls: 0,
        };
        for k in 0..st.keys.len() {
            let h = st.put(k, 0);
            drain(&st.ctx);
            assert!(h.is_complete(), "warm-up PUT did not complete");
        }
        st
    }

    fn put(&mut self, k: usize, which: usize) -> TransferHandle {
        let key = &mut self.keys[k];
        key.last = which;
        let r = if self.mode == Mode::Replay {
            self.replay_calls += 1;
            self.ctx.put_replayed(&key.src[which], &key.dst, key.n)
        } else {
            self.ctx.put_async(&key.src[which], &key.dst, key.n)
        };
        r.expect("PUT on a healthy fabric")
    }

    /// Bit-exact read-back: every destination equals the source its
    /// latest PUT used. Counts one check per key.
    fn read_back(&self, rep: &mut Report) {
        if self.mode != Mode::Payload {
            return;
        }
        for (k, key) in self.keys.iter().enumerate() {
            let same = key.src[key.last]
                .with_data(|s| key.dst.with_data(|d| *s == *d))
                .flatten();
            rep.check(same == Some(true), || {
                format!("key {k}: destination differs from source {}", key.last)
            });
        }
    }

    fn devices(&self, k: usize) -> (DeviceId, DeviceId) {
        (self.keys[k].src[0].device(), self.keys[k].dst.device())
    }
}

/// One fixed pass over the keys in their declared order; the simulated
/// metrics come from it (see `simref`).
fn reference_pass(st: &mut State, rep: &mut Report) {
    let eng = st.ctx.runtime().engine().clone();
    let events0 = eng.stats().events_processed;
    let mut moved = Vec::new();
    for k in 0..st.keys.len() {
        let t0 = eng.now();
        let h = st.put(k, 0);
        drain(&st.ctx);
        rep.check(h.is_complete(), || format!("reference PUT {k} incomplete"));
        let sim_secs = eng.now().secs_since(t0);
        let (src, dst) = st.devices(k);
        let n = st.keys[k].n;
        let predicted = st.ctx.plan_for(src, dst, n).expect("plan").predicted_time;
        moved.push(Moved {
            src,
            dst,
            n,
            sim_secs,
            predicted,
        });
    }
    let events = eng.stats().events_processed - events0;
    rep.set(
        "sim.events_per_put",
        events as f64 / st.keys.len() as f64,
        st.keys.len(),
    );
    st.read_back(rep);
    simref::report(&moved, rep);
}

/// The timed closed loop: PUTs through the public entry point, keys in
/// seeded order. Returns (PUTs per second, issue-time samples in µs),
/// both over the quiet quarter of the batches.
fn timed_loop(
    st: &mut State,
    rng: &mut SplitMix64,
    seconds: f64,
    rep: &mut Report,
) -> (Rates, Vec<f64>) {
    let cycles = st.mode.shape().2;
    let mut order: Vec<usize> = (0..st.keys.len()).collect();
    let mut issue_us: Vec<f64> = Vec::with_capacity(1 << 21);
    let mut incomplete = 0u64;
    let mut flip = 0usize;
    let (walls, ops) = util::run_batches(seconds, 4, || {
        for _ in 0..cycles {
            rng.shuffle(&mut order);
            flip ^= 1;
            for &k in &order {
                let t = Instant::now();
                let h = st.put(k, flip);
                issue_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                drain(&st.ctx);
                incomplete += u64::from(!h.is_complete());
            }
        }
        (cycles * order.len()) as u64
    });
    rep.attempted += ops;
    rep.failed += incomplete;
    if incomplete > 0 {
        rep.failures
            .push(format!("{incomplete} handles incomplete after drain"));
    }
    st.read_back(rep);
    let per_batch = cycles * st.keys.len();
    (
        util::rates(&walls, per_batch),
        util::quiet_samples(&walls, &issue_us, per_batch),
    )
}

/// The same stream with a span around each layer call. The interpreted
/// PUT is issued as the three public calls `put_async` makes in turn, so
/// each can be timed from outside; the replayed PUT is one call, with
/// the plan lookup it contains timed beside it.
fn traced_loop(st: &mut State, rng: &mut SplitMix64, seconds: f64, tr: &mut Tracer) -> f64 {
    let sel = st.ctx.config().selection;
    let mut order: Vec<usize> = (0..st.keys.len()).collect();
    let mut op = 0u64;
    let start = Instant::now();
    while util::secs_since(start) < seconds {
        rng.shuffle(&mut order);
        for &k in &order {
            let (src, dst) = st.devices(k);
            let n = st.keys[k].n;
            tr.begin("put", op);
            let plan = tr.span("ucx.plan_for", op, || {
                st.ctx.plan_for(src, dst, n).expect("plan")
            });
            let handle = if st.mode == Mode::Replay {
                tr.begin("ucx.put_replayed", op);
                let h = st.put(k, 0);
                tr.end();
                h
            } else {
                let paths = tr.span("ucx.paths_for", op, || {
                    st.ctx.paths_for(src, dst, sel).expect("paths")
                });
                st.keys[k].last = 0;
                let key = &st.keys[k];
                tr.span("ucx.execute_plan", op, || {
                    execute_plan(st.ctx.runtime(), &plan, &paths, &key.src[0], &key.dst, op)
                })
            };
            tr.span("sim.run_until_idle", op, || drain(&st.ctx));
            tr.end();
            assert!(handle.is_complete(), "traced PUT incomplete");
            op += 1;
        }
    }
    op as f64 / util::secs_since(start)
}

/// Stream operations the interpreted pipeline enqueues for `plan`: one
/// copy + signal on the direct path; per staged chunk two copies, two
/// records, one wait (plus a ring wait past the ring depth), then a
/// signal.
fn stream_ops(plan: &mpx_model::TransferPlan) -> f64 {
    plan.active_paths()
        .map(|p| {
            if p.kind.is_direct() {
                2.0
            } else {
                let k = p.chunks.max(1) as f64;
                5.0 * k + (k - mpx_ucx::RING_DEPTH as f64).max(0.0) + 1.0
            }
        })
        .sum()
}

pub fn run(mode: Mode, cfg: &RunCfg) -> (Report, Option<Tracer>) {
    let mut rep = Report::new(mode.name());
    let (setups, mut st) = util::repeat_setup(|| State::setup(mode, cfg.seed));
    rep.set("setup_s", util::quiet_median(&setups), setups.len());
    reference_pass(&mut st, &mut rep);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x70757473);

    if !cfg.traced {
        let (rate, issue) = timed_loop(&mut st, &mut rng, cfg.seconds, &mut rep);
        rep.set("ops_per_s", rate.quiet, issue.len());
        rep.set("call_us_p50", util::median(&issue), issue.len());
        finish(&st, &mut rep);
        return (rep, None);
    }

    let share = cfg.seconds * 0.3;
    let (rate, issue) = timed_loop(&mut st, &mut rng, share, &mut rep);
    let issue = util::sorted(issue);
    rep.set(
        "ucx.put_issue_us_p99",
        util::tail(&issue, 0.99),
        issue.len(),
    );
    rep.set(
        "ucx.put_issue_us_p999",
        util::tail(&issue, 0.999),
        issue.len(),
    );
    rep.set("ucx.put_issue_samples", issue.len() as f64, issue.len());

    let mut tr = Tracer::new();
    let traced_rate = traced_loop(&mut st, &mut rng, share, &mut tr);
    rep.set(
        "bench.trace_overhead_pct",
        100.0 * (rate.plain - traced_rate) / rate.plain,
        1,
    );
    let med = |name: &str| {
        let d = tr.durations(name);
        (if d.is_empty() { 0.0 } else { util::median(&d) }, d.len())
    };
    let (paths_ns, n) = med("ucx.paths_for");
    rep.set("ucx.paths_for_ns", paths_ns, n);
    let (drain_ns, n) = med("sim.run_until_idle");
    rep.set("sim.drain_us_p50", drain_ns / 1e3, n);
    layers::direct_calls(&mut rep);
    if mode == Mode::Replay {
        let (replay_ns, n) = med("ucx.put_replayed");
        let (plan_ns, _) = med("ucx.plan_for");
        rep.set("ucx.replay_issue_us", (replay_ns - plan_ns) / 1e3, n);
    } else {
        // Self time: the span minus the stream enqueues made inside it,
        // priced at the per-op cost measured on a bare stream.
        let (exec_ns, n) = med("ucx.execute_plan");
        let mut ops = Vec::new();
        for k in 0..st.keys.len() {
            let (src, dst) = st.devices(k);
            let plan = st.ctx.plan_for(src, dst, st.keys[k].n).expect("plan");
            ops.push(stream_ops(&plan));
        }
        let gpu_ns = util::median(&ops) * rep.get("gpu.stream_enqueue_ns").0;
        rep.set("ucx.execute_plan_us", (exec_ns - gpu_ns).max(0.0) / 1e3, n);
    }
    finish(&st, &mut rep);
    (rep, Some(tr))
}

/// Counter checks and counter-derived layer metrics.
fn finish(st: &State, rep: &mut Report) {
    simref::report_cache(&st.ctx, rep);
    let g = st.ctx.graph_stats();
    rep.set("ucx.graph_captures", g.captures as f64, 1);
    rep.set("ucx.graph_fallbacks", g.fallbacks as f64, 1);
    if st.mode == Mode::Replay {
        rep.set(
            "ucx.graph_replay_frac",
            g.replays as f64 / st.replay_calls.max(1) as f64,
            st.replay_calls as usize,
        );
        rep.check(g.fallbacks == 0, || {
            format!("{} graph fallbacks", g.fallbacks)
        });
        rep.check(g.replays == st.replay_calls, || {
            format!(
                "{} replays for {} put_replayed calls",
                g.replays, st.replay_calls
            )
        });
        rep.check(g.captures == st.keys.len() as u64, || {
            format!("{} captures for {} keys", g.captures, st.keys.len())
        });
    }
}
