//! Fault injection: deterministic, seeded perturbations of the simulated
//! fabric.
//!
//! A [`FaultPlan`] is a time-ordered list of [`FaultEvent`]s against
//! specific links; [`FaultInjector::install`] schedules them as ordinary
//! engine events, so a fault plan composes with any workload and the
//! combined run stays exactly reproducible (the event queue orders ties
//! by insertion sequence, and the only randomness — [`FaultPlan::random`]
//! — is seeded).
//!
//! Four fault kinds, matching how real fabrics misbehave:
//!
//! * [`FaultKind::Degrade`] — the link keeps moving bytes but slower
//!   (β scales down): thermal throttling, ECC replay storms, QoS caps.
//! * [`FaultKind::LatencySpike`] — startup latency inflates for a window
//!   (α scales up): driver contention, interrupt storms.
//! * [`FaultKind::Flap`] — capacity drops to zero for a window, then
//!   returns: retraining links, transient resets.
//! * [`FaultKind::Kill`] — permanent link failure.
//!
//! Down links stall their flows at rate zero rather than erroring them:
//! the error surface is at the *waiter* ([`crate::SimThread::wait_until`]
//! / the transport's deadline), which is where real stacks detect dead
//! peers too — a NIC does not call you back to report silence.

use crate::engine::{Ctx, Engine, OnComplete};
use crate::time::SimTime;
use mpx_topo::units::Secs;
use mpx_topo::{LinkId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// What happens to the target link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Multiply the link's current capacity by `factor` (0 < factor ≤ 1).
    Degrade {
        /// Capacity multiplier.
        factor: f64,
    },
    /// Scale the link's startup latency by `factor` for `duration`
    /// seconds, then restore it.
    LatencySpike {
        /// Latency multiplier (≥ 1 for a spike).
        factor: f64,
        /// Seconds until the latency returns to nominal.
        duration: Secs,
    },
    /// Take the link down for `duration` seconds, then restore it at its
    /// prior capacity.
    Flap {
        /// Seconds the link stays dead.
        duration: Secs,
    },
    /// Permanent link failure (capacity → 0, never restored).
    Kill,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time (seconds) at which the fault fires.
    pub at: Secs,
    /// Target link.
    pub link: LinkId,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults against one topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// The faults, in any order (the engine's event queue sorts them).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no events.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an event (builder style).
    pub fn with(mut self, at: Secs, link: LinkId, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, link, kind });
        self
    }

    /// Generates `count` seeded random faults over `horizon` seconds
    /// against the inter-device links of `topo`. The same seed yields the
    /// same plan, so randomized fault campaigns are replayable.
    pub fn random(topo: &Topology, seed: u64, horizon: Secs, count: usize) -> FaultPlan {
        assert!(horizon > 0.0, "horizon must be positive");
        let links: Vec<LinkId> = topo.links.iter().map(|l| l.id).collect();
        assert!(!links.is_empty(), "topology has no links");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let at = rng.gen_range(0.0..horizon);
            let link = links[rng.gen_range(0..links.len())];
            let kind = match rng.gen_range(0..4u32) {
                0 => FaultKind::Degrade {
                    factor: rng.gen_range(0.05..0.8),
                },
                1 => FaultKind::LatencySpike {
                    factor: rng.gen_range(2.0..50.0),
                    duration: rng.gen_range(0.0..horizon / 4.0),
                },
                2 => FaultKind::Flap {
                    duration: rng.gen_range(0.0..horizon / 4.0),
                },
                _ => FaultKind::Kill,
            };
            events.push(FaultEvent { at, link, kind });
        }
        FaultPlan { events }
    }

    /// Generates a seeded **soak schedule**: `count` random faults spread
    /// over `horizon` seconds, shaped so a supervised transport can always
    /// make progress — the raw material of the chaos soak harness.
    ///
    /// Differences from [`FaultPlan::random`]:
    ///
    /// * links in `protect` are never killed or flapped (they may still
    ///   degrade or see latency spikes, at bounded severity), so at least
    ///   one route stays available and recovery time stays bounded;
    /// * every transient window (flap, latency spike) lasts at most
    ///   `horizon / 8`, so no single outage swallows the run;
    /// * degrade factors are floored at 0.1 — throttled, never silently
    ///   dead, matching how production links actually misbehave;
    /// * kills are rationed to at most one per four events, so long soaks
    ///   exercise flapping/recovering fabrics rather than converging to a
    ///   graveyard.
    ///
    /// The same `(seed, horizon, count, protect)` yields the same plan.
    pub fn random_soak(
        topo: &Topology,
        seed: u64,
        horizon: Secs,
        count: usize,
        protect: &[LinkId],
    ) -> FaultPlan {
        assert!(horizon > 0.0, "horizon must be positive");
        let links: Vec<LinkId> = topo.links.iter().map(|l| l.id).collect();
        assert!(!links.is_empty(), "topology has no links");
        let killable: Vec<LinkId> = links
            .iter()
            .copied()
            .filter(|l| !protect.contains(l))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x736f_616b); // "soak"
        let max_window = horizon / 8.0;
        let mut kills_left = count / 4;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let at = rng.gen_range(0.0..horizon);
            let link = links[rng.gen_range(0..links.len())];
            let protected = protect.contains(&link);
            let kind = match rng.gen_range(0..4u32) {
                0 => FaultKind::Degrade {
                    factor: rng.gen_range(0.1..0.9),
                },
                1 => FaultKind::LatencySpike {
                    factor: rng.gen_range(2.0..20.0),
                    duration: rng.gen_range(0.0..max_window),
                },
                2 if !protected => FaultKind::Flap {
                    duration: rng.gen_range(0.0..max_window),
                },
                3 if !protected && !killable.is_empty() && kills_left > 0 => {
                    kills_left -= 1;
                    FaultKind::Kill
                }
                // Protected link drew a flap/kill, or the kill ration ran
                // out: degrade instead (still a fault, still bounded).
                _ => FaultKind::Degrade {
                    factor: rng.gen_range(0.3..0.9),
                },
            };
            events.push(FaultEvent { at, link, kind });
        }
        FaultPlan { events }
    }

    /// Checks the plan against a topology. Returns human-readable issues
    /// (empty = clean), mirroring `mpx_topo::validate`.
    pub fn validate(&self, topo: &Topology) -> Vec<String> {
        let mut issues = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            if ev.link.index() >= topo.link_count() {
                issues.push(format!("event {i}: unknown link {}", ev.link));
            }
            if !(ev.at >= 0.0 && ev.at.is_finite()) {
                issues.push(format!("event {i}: invalid time {}", ev.at));
            }
            match ev.kind {
                FaultKind::Degrade { factor } => {
                    if !(factor > 0.0 && factor <= 1.0) {
                        issues.push(format!("event {i}: degrade factor {factor} not in (0, 1]"));
                    }
                }
                FaultKind::LatencySpike { factor, duration } => {
                    if !(factor > 0.0 && factor.is_finite()) {
                        issues.push(format!("event {i}: latency factor {factor} invalid"));
                    }
                    if !(duration >= 0.0 && duration.is_finite()) {
                        issues.push(format!("event {i}: spike duration {duration} invalid"));
                    }
                }
                FaultKind::Flap { duration } => {
                    if !(duration >= 0.0 && duration.is_finite()) {
                        issues.push(format!("event {i}: flap duration {duration} invalid"));
                    }
                }
                FaultKind::Kill => {}
            }
        }
        issues
    }
}

/// Installs a [`FaultPlan`] on an [`Engine`] as scheduled events.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    installed: usize,
}

impl FaultInjector {
    /// Schedules every event of `plan` on `eng`, anchored at the engine's
    /// *current* virtual time. Each fired fault bumps
    /// [`crate::StatsSnapshot::faults_fired`]; restorations (flap/spike
    /// ends) do not count as faults.
    ///
    /// Every flap in its window and every kill, for good, holds its link
    /// down; the link comes back when the plan's last hold on it is
    /// released. So a flap's end neither revives a link killed in the
    /// meantime nor cuts an overlapping flap short.
    ///
    /// # Panics
    /// Panics if the plan does not validate against the engine's topology.
    pub fn install(eng: &Engine, plan: &FaultPlan) -> FaultInjector {
        let issues = plan.validate(eng.topology());
        assert!(issues.is_empty(), "invalid fault plan: {issues:?}");
        let base = eng.now();
        // Only event callbacks touch the counts, and those run one at a
        // time under the engine lock.
        let mut holds: HashMap<LinkId, Arc<AtomicU32>> = HashMap::new();
        for ev in &plan.events {
            let link = ev.link;
            let at = base.after(ev.at);
            match ev.kind {
                FaultKind::Degrade { factor } => eng.schedule_at(
                    at,
                    OnComplete::Call(Box::new(move |ctx| {
                        ctx.note_fault();
                        ctx.record_fault_instant("degrade", link);
                        ctx.scale_link_capacity(link, factor);
                    })),
                ),
                FaultKind::LatencySpike { factor, duration } => eng.schedule_at(
                    at,
                    OnComplete::Call(Box::new(move |ctx| {
                        ctx.note_fault();
                        ctx.record_fault_instant("latency-spike", link);
                        ctx.set_link_latency_scale(link, factor);
                        ctx.schedule_in(
                            duration,
                            OnComplete::Call(Box::new(move |ctx| {
                                ctx.set_link_latency_scale(link, 1.0);
                            })),
                        );
                    })),
                ),
                FaultKind::Flap { duration } => {
                    let hold = holds.entry(link).or_default().clone();
                    eng.schedule_at(
                        at,
                        OnComplete::Call(Box::new(move |ctx| {
                            hold_down(ctx, "flap", link, &hold);
                            ctx.schedule_in(
                                duration,
                                OnComplete::Call(Box::new(move |ctx| {
                                    if hold.fetch_sub(1, Ordering::Relaxed) == 1 {
                                        ctx.restore_link(link);
                                    }
                                })),
                            );
                        })),
                    )
                }
                FaultKind::Kill => {
                    let hold = holds.entry(link).or_default().clone();
                    eng.schedule_at(
                        at,
                        OnComplete::Call(Box::new(move |ctx| {
                            hold_down(ctx, "kill", link, &hold);
                        })),
                    )
                }
            }
        }
        FaultInjector {
            installed: plan.events.len(),
        }
    }

    /// Number of events scheduled.
    pub fn installed(&self) -> usize {
        self.installed
    }
}

/// A flap or kill fires: one more hold on `link`, which goes down.
fn hold_down(ctx: &mut Ctx<'_>, kind: &str, link: LinkId, hold: &AtomicU32) {
    ctx.note_fault();
    ctx.record_fault_instant(kind, link);
    hold.fetch_add(1, Ordering::Relaxed);
    ctx.set_link_down(link);
}

/// Convenience: the engine's virtual time a fault plan needs to have
/// fully fired (latest event time plus any restoration window).
pub fn plan_horizon(plan: &FaultPlan) -> SimTime {
    let mut end: Secs = 0.0;
    for ev in &plan.events {
        let span = match ev.kind {
            FaultKind::LatencySpike { duration, .. } | FaultKind::Flap { duration } => {
                ev.at + duration
            }
            _ => ev.at,
        };
        end = end.max(span);
    }
    SimTime::from_secs(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FlowSpec;
    use mpx_topo::presets;
    use std::sync::Arc;

    fn direct_link(topo: &Topology) -> LinkId {
        let gpus = topo.gpus();
        topo.link_between(gpus[0], gpus[1]).unwrap().id
    }

    #[test]
    fn kill_stalls_flow_until_restore() {
        let topo = Arc::new(presets::synthetic_default());
        let link = direct_link(&topo);
        let eng = Engine::new(topo.clone());
        // 50 GB over a 50 GB/s link; killed at 0.5 s, restored manually
        // at 1.0 s → finishes at ~1.5 s.
        eng.start_flow(
            FlowSpec::new(vec![link], 50_000_000_000),
            OnComplete::Nothing,
        );
        let plan = FaultPlan::empty().with(0.5, link, FaultKind::Kill);
        FaultInjector::install(&eng, &plan);
        eng.run_until(SimTime::from_secs(1.0));
        assert!(!eng.link_is_up(link));
        let stats = eng.stats();
        assert_eq!(stats.faults_fired, 1);
        assert_eq!(stats.flows_stalled, 1);
        assert_eq!(stats.links_down, 1);
        assert_eq!(eng.active_flows(), 1, "flow must stall, not die");
        eng.restore_link(link);
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - 1.500002).abs() < 1e-6, "t = {t}");
        assert_eq!(eng.stats().links_down, 0);
    }

    #[test]
    fn flap_delays_completion_by_window() {
        let topo = Arc::new(presets::synthetic_default());
        let link = direct_link(&topo);
        let eng = Engine::new(topo.clone());
        eng.start_flow(
            FlowSpec::new(vec![link], 50_000_000_000),
            OnComplete::Nothing,
        );
        let plan = FaultPlan::empty().with(0.25, link, FaultKind::Flap { duration: 0.5 });
        FaultInjector::install(&eng, &plan);
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - 1.500002).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn a_flaps_end_does_not_revive_a_link_killed_meanwhile() {
        let topo = Arc::new(presets::synthetic_default());
        let link = direct_link(&topo);
        let eng = Engine::new(topo.clone());
        let plan = FaultPlan::empty()
            .with(0.5, link, FaultKind::Flap { duration: 2.0 })
            .with(1.0, link, FaultKind::Kill);
        FaultInjector::install(&eng, &plan);
        eng.run_until(SimTime::from_secs(3.0));
        assert!(!eng.link_is_up(link), "the kill is permanent");
        // The engine's own restore still works on it.
        eng.restore_link(link);
        assert!(eng.link_is_up(link));
    }

    #[test]
    fn overlapping_flaps_keep_the_link_down_until_the_last_ends() {
        let topo = Arc::new(presets::synthetic_default());
        let link = direct_link(&topo);
        let eng = Engine::new(topo.clone());
        let plan = FaultPlan::empty()
            .with(0.5, link, FaultKind::Flap { duration: 1.0 })
            .with(1.0, link, FaultKind::Flap { duration: 2.0 });
        FaultInjector::install(&eng, &plan);
        eng.run_until(SimTime::from_secs(2.0));
        assert!(!eng.link_is_up(link), "the second flap lasts until 3 s");
        eng.run_until(SimTime::from_secs(2.999));
        assert!(!eng.link_is_up(link));
        eng.run_until_idle();
        assert!(eng.link_is_up(link));
        assert_eq!(eng.now(), SimTime::from_secs(3.0));
    }

    #[test]
    fn degrade_scales_capacity() {
        let topo = Arc::new(presets::synthetic_default());
        let link = direct_link(&topo);
        let eng = Engine::new(topo.clone());
        eng.start_flow(
            FlowSpec::new(vec![link], 50_000_000_000),
            OnComplete::Nothing,
        );
        // Halve the link at t = 0.5: 25 GB done, 25 GB left at 25 GB/s.
        let plan = FaultPlan::empty().with(0.5, link, FaultKind::Degrade { factor: 0.5 });
        FaultInjector::install(&eng, &plan);
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - 1.500002).abs() < 1e-5, "t = {t}");
        assert!((eng.link_capacity(link) - 25e9).abs() < 1.0);
    }

    #[test]
    fn latency_spike_inflates_new_flows_only() {
        let topo = Arc::new(presets::synthetic_default());
        let link = direct_link(&topo);
        let eng = Engine::new(topo.clone());
        let plan = FaultPlan::empty().with(
            0.0,
            link,
            FaultKind::LatencySpike {
                factor: 100.0,
                duration: 1.0,
            },
        );
        FaultInjector::install(&eng, &plan);
        // Zero-byte flow issued during the spike: completes at 100× the
        // 2 µs link latency.
        eng.schedule_in(
            0.5,
            OnComplete::Call(Box::new(move |ctx| {
                ctx.start_flow(FlowSpec::new(vec![link], 0), OnComplete::Nothing);
            })),
        );
        eng.run_until_idle();
        let t = eng.now().as_secs();
        assert!((t - (1.0f64).max(0.5 + 200e-6)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let topo = presets::beluga();
        let a = FaultPlan::random(&topo, 42, 2.0, 16);
        let b = FaultPlan::random(&topo, 42, 2.0, 16);
        let c = FaultPlan::random(&topo, 43, 2.0, 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.validate(&topo).is_empty());
    }

    #[test]
    fn soak_plans_respect_protection_and_bounds() {
        let topo = presets::beluga();
        let gpus = topo.gpus();
        let direct = topo.link_between(gpus[0], gpus[1]).unwrap().id;
        let protect = [direct];
        let horizon = 4.0;
        let plan = FaultPlan::random_soak(&topo, 7, horizon, 64, &protect);
        assert_eq!(plan.events.len(), 64);
        assert!(plan.validate(&topo).is_empty());
        let mut kills = 0;
        for ev in &plan.events {
            match ev.kind {
                FaultKind::Kill => {
                    kills += 1;
                    assert_ne!(ev.link, direct, "protected link was killed");
                }
                FaultKind::Flap { duration } => {
                    assert_ne!(ev.link, direct, "protected link was flapped");
                    assert!(duration <= horizon / 8.0, "flap window unbounded");
                }
                FaultKind::LatencySpike { duration, .. } => {
                    assert!(duration <= horizon / 8.0, "spike window unbounded");
                }
                FaultKind::Degrade { factor } => {
                    assert!(factor >= 0.1, "degrade floor violated: {factor}");
                }
            }
        }
        assert!(kills <= 64 / 4, "kill ration exceeded: {kills}");
        // Deterministic under a fixed seed, distinct across seeds.
        let again = FaultPlan::random_soak(&topo, 7, horizon, 64, &protect);
        assert_eq!(plan, again);
        let other = FaultPlan::random_soak(&topo, 8, horizon, 64, &protect);
        assert_ne!(plan, other);
    }

    #[test]
    fn plans_roundtrip_through_json() {
        let topo = presets::beluga();
        let plan = FaultPlan::random(&topo, 7, 1.0, 8);
        let text = serde_json::to_string_pretty(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn validate_flags_bad_events() {
        let topo = presets::synthetic_default();
        let bad = FaultPlan::empty()
            .with(-1.0, LinkId(0), FaultKind::Kill)
            .with(0.1, LinkId(9999), FaultKind::Kill)
            .with(0.1, LinkId(0), FaultKind::Degrade { factor: 1.5 });
        assert_eq!(bad.validate(&topo).len(), 3);
    }

    #[test]
    fn unrelated_flows_keep_moving_past_a_dead_link() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let l01 = topo.link_between(gpus[0], gpus[1]).unwrap().id;
        let l23 = topo.link_between(gpus[2], gpus[3]).unwrap().id;
        let eng = Engine::new(topo.clone());
        let n = 48_000_000_000usize; // 1 s at full rate
        eng.start_flow(FlowSpec::new(vec![l01], n), OnComplete::Nothing);
        eng.start_flow(FlowSpec::new(vec![l23], n), OnComplete::Nothing);
        FaultInjector::install(&eng, &FaultPlan::empty().with(0.1, l01, FaultKind::Kill));
        eng.run_until_idle();
        // The l23 flow finishes on schedule; the l01 flow stays stalled.
        let t = eng.now().as_secs();
        assert!((t - 1.000002).abs() < 1e-6, "t = {t}");
        assert_eq!(eng.active_flows(), 1);
        assert_eq!(eng.stats().flows_stalled, 1);
    }

    #[test]
    fn plan_horizon_covers_restorations() {
        let plan = FaultPlan::empty()
            .with(0.5, LinkId(0), FaultKind::Flap { duration: 2.0 })
            .with(1.0, LinkId(0), FaultKind::Kill);
        assert_eq!(plan_horizon(&plan), SimTime::from_secs(2.5));
    }
}
