//! `plan_hit` and `plan_miss`: a runtime asking `UcxContext::plan_for`
//! for a configuration before every message (closed loop, one thread).

use crate::layers::{self, hit_keys, walk_size};
use crate::metrics::Report;
use crate::simref::{self, Moved};
use crate::trace::Tracer;
use crate::util::{self, Rates, SplitMix64};
use crate::RunCfg;
use mpx_topo::DeviceId;
use mpx_ucx::{UcxConfig, UcxContext};
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// 96 repeated (pair, size) keys: every call is a cache hit.
    Hit,
    /// An all-distinct size walk with a drifting observation every 64
    /// plans: every call solves Algorithm 1 and the pair's cached state
    /// is thrown away 1/64th of the time.
    Miss,
}

/// Plans per timed group: the unit `call_us_p50` is sampled in (a single
/// call is too short to time), and on `plan_miss` the churn period.
const GROUP: usize = 64;

struct State {
    mode: Mode,
    ctx: UcxContext,
    /// `Hit`: the working set, in seeded order. `Miss`: unused.
    keys: Vec<(DeviceId, DeviceId, usize)>,
    /// `Miss`: where the seed starts the size walk, and how far it got.
    base: usize,
    walked: usize,
    /// `Miss`: observations that reported an invalidation.
    invalidated: u64,
    groups: u64,
}

impl State {
    /// Preset, context, and one plan per pair (`Miss`) or per key
    /// (`Hit`), which enumerates paths and probes each pair.
    fn setup(mode: Mode, seed: u64) -> State {
        let ctx = simref::beluga_context(UcxConfig::default());
        let topo = ctx.runtime().engine().topology().clone();
        let mut rng = SplitMix64::new(seed);
        let mut keys = hit_keys(&topo);
        rng.shuffle(&mut keys);
        let base = rng.below(252 << 18);
        match mode {
            Mode::Hit => {
                for &(a, b, n) in &keys {
                    ctx.plan_for(a, b, n).expect("warm plan");
                }
            }
            Mode::Miss => {
                let (a, b, _) = keys[0];
                ctx.plan_for(a, b, walk_size(base, 0)).expect("warm plan");
            }
        }
        State {
            mode,
            ctx,
            keys,
            base,
            walked: 1,
            invalidated: 0,
            groups: 0,
        }
    }

    /// One group of `GROUP` plans; returns how many failed a sanity
    /// check (the plan must be for the size asked).
    fn group(&mut self) -> u64 {
        let mut bad = 0;
        match self.mode {
            Mode::Hit => {
                let at = (self.groups as usize * GROUP) % self.keys.len();
                for i in 0..GROUP {
                    let (a, b, n) = self.keys[(at + i) % self.keys.len()];
                    let plan = self.ctx.plan_for(a, b, n).expect("plan");
                    bad += u64::from(plan.n != n);
                    black_box(&plan);
                }
            }
            Mode::Miss => {
                let (a, b, _) = self.keys[0];
                let mut last = None;
                for _ in 0..GROUP {
                    let n = walk_size(self.base, self.walked);
                    self.walked += 1;
                    let plan = self.ctx.plan_for(a, b, n).expect("plan");
                    bad += u64::from(plan.n != n);
                    last = Some(plan);
                }
                // An observation 10x off the prediction always exceeds
                // the drift tolerance.
                let plan = last.expect("GROUP > 0");
                let drifted =
                    self.ctx
                        .record_observation(a, b, plan.n, plan.predicted_bandwidth * 10.0);
                self.invalidated += u64::from(drifted);
            }
        }
        self.groups += 1;
        bad
    }
}

/// Groups per timed batch, sized so a batch lasts 10-20 ms.
fn groups_per_batch(mode: Mode) -> usize {
    match mode {
        Mode::Hit => 1024,
        Mode::Miss => 256,
    }
}

/// Returns (plans per second, per-call µs samples, one per group), both
/// over the quiet quarter of the batches.
fn timed_loop(st: &mut State, seconds: f64, rep: &mut Report) -> (Rates, Vec<f64>) {
    let groups = groups_per_batch(st.mode);
    let mut call_us = Vec::with_capacity(1 << 21);
    let mut bad = 0;
    let (walls, ops) = util::run_batches(seconds, 4, || {
        for _ in 0..groups {
            let t = Instant::now();
            bad += st.group();
            call_us.push(t.elapsed().as_nanos() as f64 / 1e3 / GROUP as f64);
        }
        (groups * GROUP) as u64
    });
    rep.attempted += ops;
    rep.failed += bad;
    (
        util::rates(&walls, groups * GROUP),
        util::quiet_samples(&walls, &call_us, groups),
    )
}

/// The plans the workload was served are then executed: each must cover
/// its message, and the simulator says how good it was.
fn reference_pass(st: &State, rep: &mut Report) {
    let mut keys = st.keys.clone();
    keys.sort();
    if st.mode == Mode::Miss {
        // 64 sizes spread over the walk from a fixed start on a fixed
        // pair, so the simulated metrics do not depend on the seed.
        let (a, b, _) = keys[0];
        keys = (0..64).map(|i| (a, b, walk_size(0, i * 997))).collect();
    }
    let mut moved = Vec::new();
    for (src, dst, n) in keys {
        let plan = st.ctx.plan_for(src, dst, n).expect("plan");
        let covered: usize = plan.paths.iter().map(|p| p.share_bytes).sum();
        rep.check(covered == n, || format!("plan for {n}B covers {covered}B"));
        let sim_secs = simref::put_warm(&st.ctx, src, dst, n, rep);
        moved.push(Moved {
            src,
            dst,
            n,
            sim_secs,
            predicted: plan.predicted_time,
        });
    }
    simref::report(&moved, rep);
}

pub fn run(mode: Mode, cfg: &RunCfg) -> (Report, Option<Tracer>) {
    let name = match mode {
        Mode::Hit => "plan_hit",
        Mode::Miss => "plan_miss",
    };
    let mut rep = Report::new(name);
    let (setups, mut st) = util::repeat_setup(|| State::setup(mode, cfg.seed));
    rep.set("setup_s", util::quiet_median(&setups), setups.len());

    let mut tracer = None;
    if !cfg.traced {
        let (rate, calls) = timed_loop(&mut st, cfg.seconds, &mut rep);
        rep.set("ops_per_s", rate.quiet, calls.len());
        rep.set("call_us_p50", util::median(&calls), calls.len());
    } else {
        let share = cfg.seconds * 0.3;
        let (rate, _) = timed_loop(&mut st, share, &mut rep);
        let mut tr = Tracer::new();
        let start = Instant::now();
        let g0 = st.groups;
        while util::secs_since(start) < share {
            let op = st.groups;
            tr.span("ucx.plan_for.x64", op, || st.group());
        }
        let traced_rate = ((st.groups - g0) as usize * GROUP) as f64 / util::secs_since(start);
        rep.set(
            "bench.trace_overhead_pct",
            100.0 * (rate.plain - traced_rate) / rate.plain,
            1,
        );
        tracer = Some(tr);
    }

    let c = st.ctx.cache_stats();
    if mode == Mode::Miss {
        rep.check(
            c.invalidations == st.groups && st.invalidated == st.groups,
            || {
                format!(
                    "{} invalidations ({} reported) for {} drifting observations",
                    c.invalidations, st.invalidated, st.groups
                )
            },
        );
    }
    if cfg.traced {
        layers::direct_calls(&mut rep);
        simref::report_cache(&st.ctx, &mut rep);
    }
    reference_pass(&st, &mut rep);
    (rep, tracer)
}
