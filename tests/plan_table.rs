//! The plan table against the solve it caches.
//!
//! * `tests/data/plan_golden.txt` pins every plan bit for bit. A line reads
//!   `preset src-dst variant selection n` (GPU indices, a `+`-joined list
//!   of variant tokens) and then each path's share bytes, chunk count and
//!   the bits of its predicted time — or `error:` and the error. The file
//!   was written by the planner that the table replaced, before the
//!   rewrite, so a changed float expression or evaluation order fails
//!   here. It holds:
//!   - beluga and narval `0-1` with datasheet and probed parameters, the
//!     four paper-grid selections and 225 / 144 sizes from 1 KiB to
//!     512 MiB straddling every path-activation boundary and a sample of
//!     the chunk-count boundaries (both sides, 4 bytes apart), plus
//!     irregular 4-aligned and unaligned sizes;
//!   - every fifth of those sizes (and a 40-size sweep on dgx1) under the
//!     unpipelined mode, alignments 1, 3 and 8, zero per-chunk cost
//!     (`zerocost`: every `α`, `ε`, `α′` and the launch cost 0, so `φ`
//!     takes its vanishing limit), at other pairs (dgx1 `0-5` has no
//!     direct path) and with probed parameters at other pairs;
//!   - 1 000 seeded random parameter perturbations (`jitter<seed>`) over
//!     random presets, pairs, selections, sizes, alignments and modes.
//! * A proptest holds the table's memo to the uncached `Planner::compute`
//!   at byte granularity.
//! * A pair probed while a link of one of its paths is down gives that path
//!   share 0; once the link is back, its plan is a never-faulted context's.

use multipath_gpu::model::PipelineMode;
use multipath_gpu::prelude::*;
use multipath_gpu::topo::params::extract_all;
use multipath_gpu::topo::{enumerate_paths_auto, DeviceId, PathParams, TopologyError};
use multipath_gpu::ucx::ParamSource;
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

const MIB: usize = 1 << 20;

fn selection(name: &str) -> PathSelection {
    match name {
        "direct" => PathSelection::DIRECT_ONLY,
        "two" => PathSelection::TWO_GPUS,
        "three" => PathSelection::THREE_GPUS,
        "three_host" => PathSelection::THREE_GPUS_WITH_HOST,
        "six_host" => PathSelection {
            max_gpu_staged: 6,
            host_staged: true,
        },
        other => panic!("unknown selection {other}"),
    }
}

fn preset(name: &str) -> Topology {
    match name {
        "beluga" => presets::beluga(),
        "narval" => presets::narval(),
        "dgx1" => presets::dgx1(),
        other => panic!("unknown preset {other}"),
    }
}

fn probed_context(topo: &Arc<Topology>, sel: PathSelection) -> UcxContext {
    UcxContext::new(
        GpuRuntime::new(Engine::new(topo.clone())),
        UcxConfig {
            selection: sel,
            mode: TuningMode::Dynamic,
            params: ParamSource::Probed,
            ..UcxConfig::default()
        },
    )
}

/// One golden line's plan columns: `share:chunks:time_bits` per path.
fn columns(plan: &TransferPlan) -> String {
    let mut out = String::new();
    for p in &plan.paths {
        let _ = write!(
            out,
            " {}:{}:{:016x}",
            p.share_bytes,
            p.chunks,
            p.predicted_time.to_bits()
        );
    }
    out
}

/// Every field of a plan, floats in their shortest round-trip form: equal
/// strings are equal bits.
fn exact(plan: &TransferPlan) -> String {
    format!("{plan:?}")
}

/// A xorshift stream: the golden file's perturbations, reproducible
/// without a dependency.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Perturbs every path's parameters from `seed`: each bandwidth kept,
/// scaled by 0.001–2 or collapsed to 1 B/s, each latency kept, scaled by
/// 0–4 or zeroed — the corners the solve's branches turn on.
fn jitter(params: &mut [PathParams], seed: u64) {
    let mut r = Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for p in params {
        match r.next() % 6 {
            0 => p.first.beta = 1.0,
            1 => p.first.beta *= r.unit() * 2.0 + 1e-3,
            2 => p.first.alpha = 0.0,
            3 => p.first.alpha *= r.unit() * 4.0,
            _ => {}
        }
        if r.next().is_multiple_of(5) {
            p.eps = if r.next().is_multiple_of(2) {
                0.0
            } else {
                p.eps * r.unit() * 3.0
            };
        }
        if let Some(s) = p.second.as_mut() {
            match r.next() % 6 {
                0 => s.beta = 1.0,
                1 => s.beta *= r.unit() * 2.0 + 1e-3,
                2 => s.alpha = 0.0,
                3 => s.alpha *= r.unit() * 4.0,
                _ => {}
            }
        }
    }
}

/// One golden line's inputs.
struct Spec<'a> {
    preset: &'a str,
    src: usize,
    dst: usize,
    variant: &'a str,
    sel: &'a str,
    n: usize,
}

impl<'a> Spec<'a> {
    /// Splits a golden line into its inputs and its expected columns.
    fn parse(line: &'a str) -> (Spec<'a>, &'a str) {
        let mut f = line.splitn(6, ' ');
        let mut next = || f.next().expect("a complete golden line");
        let (preset, pair, variant, sel) = (next(), next(), next(), next());
        let n = next().parse().expect("a size");
        let want = next();
        let (src, dst) = pair.split_once('-').expect("src-dst");
        let spec = Spec {
            preset,
            src: src.parse().expect("a GPU index"),
            dst: dst.parse().expect("a GPU index"),
            variant,
            sel,
            n,
        };
        (spec, want)
    }
}

/// Plans golden lines, keeping one datasheet planner per preset (so its
/// table serves many sizes) and one probing context per preset and
/// selection.
#[derive(Default)]
struct Replay<'a> {
    topos: HashMap<&'a str, Arc<Topology>>,
    planners: HashMap<&'a str, Planner>,
    contexts: HashMap<(&'a str, &'a str), UcxContext>,
}

impl<'a> Replay<'a> {
    fn plan(&mut self, s: &Spec<'a>) -> Result<TransferPlan, TopologyError> {
        let topo = (self.topos.entry(s.preset))
            .or_insert_with(|| Arc::new(preset(s.preset)))
            .clone();
        let sel = selection(s.sel);
        let (a, b) = (topo.gpus()[s.src], topo.gpus()[s.dst]);
        let (mut cfg, mut zerocost, mut seed) = (PlannerConfig::default(), false, None);
        for v in s.variant.split('+') {
            match v {
                "datasheet" => {}
                "probed" => {
                    let ctx = (self.contexts.entry((s.preset, s.sel)))
                        .or_insert_with(|| probed_context(&topo, sel));
                    return ctx.plan_for(a, b, s.n).map(|p| (*p).clone());
                }
                "unpipelined" => cfg.mode = PipelineMode::Unpipelined,
                "zerocost" => zerocost = true,
                v if v.starts_with("align") => cfg.alignment = v[5..].parse().unwrap(),
                v if v.starts_with("jitter") => seed = Some(v[6..].parse().unwrap()),
                other => panic!("unknown variant {other}"),
            }
        }
        let paths = enumerate_paths_auto(&topo, a, b, sel)?;
        if s.variant == "datasheet" {
            let planner = (self.planners.entry(s.preset)).or_insert_with(|| Planner::new(topo));
            let cached = planner.plan(a, b, s.n, sel)?;
            assert_eq!(exact(&cached), exact(&planner.compute(s.n, &paths)?));
            return Ok((*cached).clone());
        }
        let mut params = extract_all(&topo, &paths)?;
        let mut topo = (*topo).clone();
        if zerocost {
            topo.overheads.copy_launch = 0.0;
            for p in &mut params {
                p.first.alpha = 0.0;
                p.eps = 0.0;
                if let Some(second) = p.second.as_mut() {
                    second.alpha = 0.0;
                }
            }
        }
        if let Some(seed) = seed {
            jitter(&mut params, seed);
        }
        let planner = Planner::with_config(Arc::new(topo), cfg);
        Ok(planner.compute_with_params(s.n, &paths, params))
    }
}

/// A golden line's columns for a plan or a planning error.
fn golden_columns(plan: Result<TransferPlan, TopologyError>) -> String {
    match plan {
        Ok(plan) => columns(&plan),
        Err(e) => format!(" error:{}", format!("{e:?}").replace(' ', "")),
    }
}

/// Lines in `tests/data/plan_golden.txt`.
const GOLDEN_LINES: usize = 6696;

#[test]
fn every_golden_plan_is_reproduced_bit_for_bit() {
    let golden = include_str!("data/plan_golden.txt");
    let mut replay = Replay::default();
    let (mut lines, mut wrong) = (0, Vec::new());
    for line in golden.lines() {
        let (spec, want) = Spec::parse(line);
        let got = golden_columns(replay.plan(&spec));
        if got[1..] != *want {
            wrong.push(format!("{line}\n  got {got}"));
        }
        lines += 1;
    }
    assert_eq!(lines, GOLDEN_LINES, "the golden file lost lines");
    assert!(
        wrong.is_empty(),
        "{} of {lines} plans moved; first:\n{}",
        wrong.len(),
        wrong[..wrong.len().min(5)].join("\n")
    );
}

fn arb_case() -> impl Strategy<Value = (bool, usize, usize, usize, usize)> {
    (
        proptest::bool::ANY,
        0usize..4,
        1usize..4,
        0usize..4,
        1usize..=512 * MIB,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any byte count, pair and selection on beluga and narval: the table's
    /// plan (first asked, then served from the memo) is the uncached solve.
    #[test]
    fn the_table_plans_what_compute_plans((narval, a, b, sel, n) in arb_case()) {
        let topo = Arc::new(preset(if narval { "narval" } else { "beluga" }));
        let sels = [
            PathSelection::DIRECT_ONLY,
            PathSelection::TWO_GPUS,
            PathSelection::THREE_GPUS,
            PathSelection::THREE_GPUS_WITH_HOST,
        ];
        let gpus = topo.gpus();
        let (src, dst): (DeviceId, DeviceId) = (gpus[a], gpus[(a + b) % 4]);
        let planner = Planner::new(topo.clone());
        let paths = enumerate_paths_auto(&topo, src, dst, sels[sel]).unwrap();
        let uncached = exact(&planner.compute(n, &paths).unwrap());
        let first = planner.plan(src, dst, n, sels[sel]).unwrap();
        let again = planner.plan(src, dst, n, sels[sel]).unwrap();
        prop_assert_eq!(exact(&first), uncached);
        prop_assert!(Arc::ptr_eq(&first, &again));
        let covered: usize = first.paths.iter().map(|p| p.share_bytes).sum();
        prop_assert_eq!(covered, n);
    }
}

/// A pair probed while path 1's first link is down plans share 0 for that
/// path. The restore must not leave the pair's table entry on the dead
/// link's dummy rate: the next plan equals a never-faulted context's.
#[test]
fn a_healed_link_gets_its_share_back() {
    let topo = Arc::new(preset("beluga"));
    let (a, b) = (topo.gpus()[0], topo.gpus()[1]);
    let ctx = UcxContext::new(
        GpuRuntime::new(Engine::new(topo.clone())),
        UcxConfig::default(),
    );
    let eng = ctx.runtime().engine();
    let paths = ctx
        .paths_for(a, b, PathSelection::THREE_GPUS_WITH_HOST)
        .unwrap();
    let link = paths[1].legs[0].route[0];
    eng.set_link_down(link);
    let faulted = ctx.plan_for(a, b, 64 * MIB).unwrap();
    assert_eq!(faulted.paths[1].share_bytes, 0, "{}", faulted.describe());
    eng.restore_link(link);
    let healed = ctx.plan_for(a, b, 64 * MIB).unwrap();
    let fresh = UcxContext::new(
        GpuRuntime::new(Engine::new(topo.clone())),
        UcxConfig::default(),
    );
    assert_eq!(
        exact(&healed),
        exact(&fresh.plan_for(a, b, 64 * MIB).unwrap()),
        "healed:\n{}",
        healed.describe()
    );
}

/// A probed context on beluga with a recorder, and its first GPU pair.
fn recorded_context() -> (UcxContext, Recorder, DeviceId, DeviceId) {
    let topo = Arc::new(preset("beluga"));
    let eng = Engine::new(topo.clone());
    let rec = Recorder::new();
    eng.set_recorder(rec.clone());
    let ctx = UcxContext::new(GpuRuntime::new(eng), UcxConfig::default());
    (ctx, rec, topo.gpus()[0], topo.gpus()[1])
}

/// The probes a recorder saw run.
fn probes(rec: &Recorder) -> usize {
    let calibrations = rec.snapshot().into_iter();
    calibrations
        .filter(|e| e.name() == "probe-calibrate")
        .count()
}

/// Plans of four sizes, every field.
fn plans(ctx: &UcxContext, a: DeviceId, b: DeviceId) -> Vec<String> {
    let sizes = [2 * MIB, 8 * MIB, 32 * MIB, 128 * MIB];
    sizes
        .map(|n| exact(&ctx.plan_for(a, b, n).unwrap()))
        .to_vec()
}

/// A probe is a function of the paths and the live capacities: a drift on
/// an unchanged fabric still drops the pair's plans, but its next plans
/// come from the entry it had, bit for bit, and no probe runs.
#[test]
fn plans_after_a_drift_on_an_unchanged_fabric_are_bit_identical() {
    let (ctx, rec, a, b) = recorded_context();
    let before = plans(&ctx, a, b);
    assert!(ctx.record_observation(a, b, 32 * MIB, 1e6), "a drift");
    assert_eq!(ctx.cache_stats().invalidations, 1, "one invalidation");
    assert_eq!(plans(&ctx, a, b), before);
    assert_eq!(probes(&rec), 1);
}

/// A capacity that moves between the drift and the next plan is probed
/// again: the plan is a fresh context's on the changed fabric.
#[test]
fn a_capacity_change_after_a_drift_still_reprobes() {
    let (ctx, rec, a, b) = recorded_context();
    plans(&ctx, a, b);
    assert!(ctx.record_observation(a, b, 32 * MIB, 1e6), "a drift");
    let eng = ctx.runtime().engine();
    let link = ctx
        .paths_for(a, b, PathSelection::THREE_GPUS_WITH_HOST)
        .unwrap()[1]
        .legs[0]
        .route[0];
    eng.set_link_capacity(link, eng.link_capacity(link) * 0.5);
    let fresh = UcxContext::new(
        GpuRuntime::new(Engine::new(eng.topology().clone())),
        UcxConfig::default(),
    );
    let fresh_eng = fresh.runtime().engine();
    fresh_eng.set_link_capacity(link, eng.link_capacity(link));
    assert_eq!(plans(&ctx, a, b), plans(&fresh, a, b));
    assert_eq!(probes(&rec), 2);
}
