//! Path-health supervision: per-path circuit breakers and hedged
//! transfers (DESIGN §4f).
//!
//! The recovery loop in [`crate::recover`] reacts *after* a deadline
//! miss; this layer remembers. Every deadline miss, dead link, and
//! sustained residual drift charges a per-`(pair, path)` **circuit
//! breaker** — the classic Closed → Open → HalfOpen machine. Open
//! breakers bias planning away from the sick path (the context plans the
//! residual candidate set through `Planner::plan_excluding` semantics),
//! gate compiled-graph replay for the pair (a stale graph would put
//! bytes right back on the sick path), and, after a configurable window,
//! re-admit the path as a *half-open probe* carrying bounded trial
//! traffic: a few clean completions close the breaker, one more failure
//! re-opens it.
//!
//! On top of the breaker sits [`UcxContext::put_hedged`]: a blocking PUT
//! that waits `predicted_time × factor` for the primary attempt, then
//! launches the residual byte ranges on the healthiest paths *not*
//! implicated in the stall and takes the first completion per range.
//! Duplicate writes are byte-identical by construction, so "cancelling
//! the loser" is pure accounting — a stalled loser flow on a dead link
//! never completes and never corrupts.
//!
//! The supervisor itself is deliberately free of context plumbing (no
//! recorder, no engine) so the state machine can be property-tested in
//! isolation; the context glues breaker events to telemetry instants and
//! graph-pool purges.

use crate::context::UcxContext;
use crate::deadline::DeadlinePolicy;
use crate::pipeline::execute_plan_at_obs;
use crate::probe::probe_live;
use crate::recover::{coalesce, residuals_of, Range, RecoveryError};
use mpx_gpu::Buffer;
use mpx_model::{PairKey, TransferPlan};
use mpx_obs::Phase;
use mpx_sim::SimThread;
use mpx_topo::path::TransferPath;
use mpx_topo::units::Secs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tunables of the supervision layer, embedded in
/// [`crate::UcxConfig::health`].
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Master switch. Off, the context behaves exactly as before this
    /// layer existed (and `put` still returns a typed error on a stuck
    /// transfer rather than panicking).
    pub enabled: bool,
    /// Consecutive failures that trip a Closed breaker. Dead links trip
    /// immediately regardless (a down route is definitive, not noise).
    pub failure_threshold: u32,
    /// Virtual-time seconds an Open breaker excludes its path before the
    /// next half-open probe — also the window a replay-gating drift
    /// suspicion lasts.
    pub open_window: Secs,
    /// Clean completions a half-open path must deliver to close.
    pub half_open_trials: u32,
    /// Drift events (plan prediction vs observed bandwidth beyond
    /// [`crate::UcxConfig::drift_tolerance`]) on one pair before graph
    /// replay is gated for it.
    pub drift_strikes: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: true,
            failure_threshold: 2,
            open_window: 0.25,
            half_open_trials: 2,
            drift_strikes: 3,
        }
    }
}

/// Externally visible breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy (possibly with unexpired strikes).
    Closed,
    /// Excluded from planning until its window expires.
    Open,
    /// Re-admitted on trial; counting clean completions.
    HalfOpen,
}

/// What a breaker did in response to a signal — the context maps these
/// to `breaker.*` telemetry instants and graph-pool purges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// No transition.
    None,
    /// Closed → Open.
    Tripped,
    /// HalfOpen → Open (a failed trial).
    Retripped,
    /// HalfOpen → Closed (trial quota met).
    Reset,
}

/// Which paths a supervised plan may use right now.
#[derive(Debug, Clone, Default)]
pub struct PathAdmissions {
    /// Candidate indices excluded (breaker Open, window not yet up).
    pub excluded: Vec<usize>,
    /// Candidate indices that just transitioned Open → HalfOpen and are
    /// being re-admitted as probes by this very call.
    pub probing: Vec<usize>,
}

/// Counter snapshot. Invariant (the proptest target): every trip is
/// eventually balanced by a reset or still shows as a non-closed
/// breaker — `trips == resets + breakers_open` (half-open re-trips are
/// counted separately and do not disturb the balance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Closed → Open transitions.
    pub trips: u64,
    /// HalfOpen → Open transitions (failed trials).
    pub retrips: u64,
    /// HalfOpen → Closed transitions.
    pub resets: u64,
    /// Open → HalfOpen re-admissions.
    pub probes: u64,
    /// Breakers currently not Closed (Open or HalfOpen).
    pub breakers_open: u64,
    /// Graph replays skipped because the pair had a non-closed breaker
    /// or an active drift suspicion.
    pub replays_gated: u64,
    /// Hedge rounds launched.
    pub hedges: u64,
    /// Hedge rounds where the hedge (not the primary) finished the
    /// residual.
    pub hedge_wins: u64,
}

#[derive(Debug)]
enum BState {
    Closed { strikes: u32 },
    Open { until: Secs },
    HalfOpen { trials_left: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Drift {
    strikes: u32,
    last_at: Secs,
}

/// The supervision state: one breaker per `(pair, candidate path
/// index)`, one drift suspicion per pair, and lifetime counters.
///
/// Hot-path discipline: a healthy fabric touches only two relaxed atomic
/// loads ([`HealthSupervisor::is_quiet`] / the entry count); the maps
/// are locked only while breakers exist.
pub struct HealthSupervisor {
    cfg: HealthConfig,
    breakers: Mutex<HashMap<(PairKey, usize), BState>>,
    suspects: Mutex<HashMap<PairKey, Drift>>,
    /// Breakers currently not Closed.
    non_closed: AtomicUsize,
    /// Entries in `breakers` (any state, including Closed-with-strikes).
    entries: AtomicUsize,
    /// Pairs whose drift suspicion currently gates replay.
    gated_pairs: AtomicUsize,
    trips: AtomicU64,
    retrips: AtomicU64,
    resets: AtomicU64,
    probes: AtomicU64,
    replays_gated: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
}

impl HealthSupervisor {
    /// A fresh supervisor (all breakers conceptually Closed).
    pub fn new(cfg: HealthConfig) -> HealthSupervisor {
        HealthSupervisor {
            cfg,
            breakers: Mutex::new(HashMap::new()),
            suspects: Mutex::new(HashMap::new()),
            non_closed: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            gated_pairs: AtomicUsize::new(0),
            trips: AtomicU64::new(0),
            retrips: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            replays_gated: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
        }
    }

    /// The configuration the supervisor runs under.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// True when no breaker is Open/HalfOpen and no pair is
    /// replay-gated — the fast-path check every PUT makes.
    pub fn is_quiet(&self) -> bool {
        self.non_closed.load(Ordering::Relaxed) == 0
            && self.gated_pairs.load(Ordering::Relaxed) == 0
    }

    /// Current state of one breaker.
    pub fn breaker_state(&self, pair: PairKey, path: usize) -> BreakerState {
        match self.breakers.lock().get(&(pair, path)) {
            None | Some(BState::Closed { .. }) => BreakerState::Closed,
            Some(BState::Open { .. }) => BreakerState::Open,
            Some(BState::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }

    /// Charges one failure (deadline miss, stalled hedge leg). Closed
    /// breakers accumulate strikes up to the threshold; half-open
    /// breakers re-open on the spot; open breakers extend their window
    /// (the sickness is evidently ongoing).
    pub fn note_failure(&self, pair: PairKey, path: usize, now: Secs) -> BreakerEvent {
        let mut map = self.breakers.lock();
        let e = map.entry((pair, path)).or_insert_with(|| {
            self.entries.fetch_add(1, Ordering::Relaxed);
            BState::Closed { strikes: 0 }
        });
        match e {
            BState::Closed { strikes } => {
                *strikes += 1;
                if *strikes >= self.cfg.failure_threshold.max(1) {
                    *e = BState::Open {
                        until: now + self.cfg.open_window,
                    };
                    self.non_closed.fetch_add(1, Ordering::Relaxed);
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    BreakerEvent::Tripped
                } else {
                    BreakerEvent::None
                }
            }
            BState::HalfOpen { .. } => {
                *e = BState::Open {
                    until: now + self.cfg.open_window,
                };
                self.retrips.fetch_add(1, Ordering::Relaxed);
                BreakerEvent::Retripped
            }
            BState::Open { until } => {
                *until = now + self.cfg.open_window;
                BreakerEvent::None
            }
        }
    }

    /// Trips the breaker immediately, bypassing the strike threshold — a
    /// route over a down link is definitive, not noise.
    pub fn trip(&self, pair: PairKey, path: usize, now: Secs) -> BreakerEvent {
        let mut map = self.breakers.lock();
        let e = map.entry((pair, path)).or_insert_with(|| {
            self.entries.fetch_add(1, Ordering::Relaxed);
            BState::Closed { strikes: 0 }
        });
        match e {
            BState::Closed { .. } => {
                *e = BState::Open {
                    until: now + self.cfg.open_window,
                };
                self.non_closed.fetch_add(1, Ordering::Relaxed);
                self.trips.fetch_add(1, Ordering::Relaxed);
                BreakerEvent::Tripped
            }
            BState::HalfOpen { .. } => {
                *e = BState::Open {
                    until: now + self.cfg.open_window,
                };
                self.retrips.fetch_add(1, Ordering::Relaxed);
                BreakerEvent::Retripped
            }
            BState::Open { until } => {
                *until = now + self.cfg.open_window;
                BreakerEvent::None
            }
        }
    }

    /// Credits one clean completion. Closed breakers forgive their
    /// strikes (the entry is dropped); half-open breakers count down
    /// their trial quota and close at zero. A straggler completing on an
    /// Open breaker is ignored — re-admission goes through the probe.
    pub fn note_success(&self, pair: PairKey, path: usize) -> BreakerEvent {
        if self.entries.load(Ordering::Relaxed) == 0 {
            return BreakerEvent::None;
        }
        let mut map = self.breakers.lock();
        match map.get_mut(&(pair, path)) {
            None | Some(BState::Open { .. }) => BreakerEvent::None,
            Some(BState::Closed { .. }) => {
                map.remove(&(pair, path));
                self.entries.fetch_sub(1, Ordering::Relaxed);
                BreakerEvent::None
            }
            Some(BState::HalfOpen { trials_left }) => {
                *trials_left = trials_left.saturating_sub(1);
                if *trials_left == 0 {
                    map.remove(&(pair, path));
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    self.non_closed.fetch_sub(1, Ordering::Relaxed);
                    self.resets.fetch_add(1, Ordering::Relaxed);
                    BreakerEvent::Reset
                } else {
                    BreakerEvent::None
                }
            }
        }
    }

    /// Resolves which of the pair's `path_count` candidates may carry
    /// traffic at `now`. Open breakers whose window has expired flip to
    /// HalfOpen here and are re-admitted as probes — so an open path
    /// always re-probes on the first plan after its window, never later.
    pub fn admissions(&self, pair: PairKey, path_count: usize, now: Secs) -> PathAdmissions {
        let mut out = PathAdmissions::default();
        if self.non_closed.load(Ordering::Relaxed) == 0 {
            return out;
        }
        let mut map = self.breakers.lock();
        for idx in 0..path_count {
            if let Some(e) = map.get_mut(&(pair, idx)) {
                match e {
                    BState::Open { until } if now < *until => out.excluded.push(idx),
                    BState::Open { .. } => {
                        *e = BState::HalfOpen {
                            trials_left: self.cfg.half_open_trials.max(1),
                        };
                        self.probes.fetch_add(1, Ordering::Relaxed);
                        out.probing.push(idx);
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Charges one drift event against the pair. Returns true when this
    /// strike crossed the threshold and replay is now gated.
    pub fn note_drift(&self, pair: PairKey, now: Secs) -> bool {
        let mut map = self.suspects.lock();
        let d = map.entry(pair).or_insert(Drift {
            strikes: 0,
            last_at: now,
        });
        let was_gated = d.strikes >= self.cfg.drift_strikes.max(1);
        d.strikes += 1;
        d.last_at = now;
        let gated = d.strikes >= self.cfg.drift_strikes.max(1);
        if gated && !was_gated {
            self.gated_pairs.fetch_add(1, Ordering::Relaxed);
        }
        gated && !was_gated
    }

    /// Gates replay for the pair on the spot (a replay launch failure is
    /// as definitive as a dead link).
    pub fn suspend_replay(&self, pair: PairKey, now: Secs) {
        let mut map = self.suspects.lock();
        let d = map.entry(pair).or_insert(Drift {
            strikes: 0,
            last_at: now,
        });
        if d.strikes < self.cfg.drift_strikes.max(1) {
            self.gated_pairs.fetch_add(1, Ordering::Relaxed);
        }
        d.strikes = d.strikes.max(self.cfg.drift_strikes.max(1));
        d.last_at = now;
    }

    /// Whether compiled-graph replay may serve the pair at `now`: no
    /// non-closed breaker on any of its paths and no active drift
    /// suspicion. An expired suspicion (quiet for a full window) is
    /// forgiven here.
    pub fn replay_allowed(&self, pair: PairKey, now: Secs) -> bool {
        if self.non_closed.load(Ordering::Relaxed) > 0 {
            let map = self.breakers.lock();
            if map
                .iter()
                .any(|((p, _), s)| *p == pair && !matches!(s, BState::Closed { .. }))
            {
                return false;
            }
        }
        if self.gated_pairs.load(Ordering::Relaxed) > 0 {
            let mut map = self.suspects.lock();
            if let Some(d) = map.get_mut(&pair) {
                if d.strikes >= self.cfg.drift_strikes.max(1) {
                    if now < d.last_at + self.cfg.open_window {
                        return false;
                    }
                    d.strikes = 0;
                    self.gated_pairs.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        true
    }

    /// Counts one gated replay.
    pub fn note_replay_gated(&self) {
        self.replays_gated.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one hedge round launched.
    pub fn note_hedge(&self) {
        self.hedges.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one hedge round won by the hedge.
    pub fn note_hedge_win(&self) {
        self.hedge_wins.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HealthStats {
        HealthStats {
            trips: self.trips.load(Ordering::Relaxed),
            retrips: self.retrips.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            breakers_open: self.non_closed.load(Ordering::Relaxed) as u64,
            replays_gated: self.replays_gated.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
        }
    }
}

/// Tunables of a hedged PUT.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Hedge trigger: the primary gets `predicted_time × factor` before
    /// the residual is raced on other paths.
    pub factor: f64,
    /// Hedge rounds allowed after the primary attempt.
    pub max_hedges: u32,
    /// Floor for every wait, so tiny transfers don't hedge on
    /// scheduling noise.
    pub min_trigger: Secs,
    /// Multiplier on each successive hedge round's wait.
    pub backoff: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            factor: 1.5,
            max_hedges: 3,
            min_trigger: 1e-3,
            backoff: 2.0,
        }
    }
}

/// What a hedged PUT went through.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HedgeReport {
    /// Hedge rounds launched (0 = the primary met its trigger).
    pub hedges: u64,
    /// Bytes raced through hedge rounds (double-sent by design).
    pub hedged_bytes: u64,
    /// True when a hedge round, not the primary catching up, finished
    /// the residual.
    pub hedge_won: bool,
    /// End-to-end virtual-time duration.
    pub elapsed: Secs,
}

/// Intersection of two sorted, coalesced range lists — the bytes still
/// missing are exactly those unfinished by *both* the primary and the
/// hedge (first completion wins per range).
fn intersect(a: &[Range], b: &[Range]) -> Vec<Range> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let lo = a[i].offset.max(b[j].offset);
        let hi = (a[i].offset + a[i].bytes).min(b[j].offset + b[j].bytes);
        if lo < hi {
            out.push(Range {
                offset: lo,
                bytes: hi - lo,
            });
        }
        if a[i].offset + a[i].bytes <= b[j].offset + b[j].bytes {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

impl UcxContext {
    /// Blocking PUT with tail-latency hedging: the primary attempt gets
    /// `predicted_time × factor`; past that, the residual ranges are
    /// raced on the healthiest paths not implicated in the stall and the
    /// first completion wins per range. Stalled paths charge their
    /// breakers, so subsequent transfers plan around them before any
    /// deadline fires.
    ///
    /// Duplicate writes are byte-identical, so the losing flow needs no
    /// cancellation beyond accounting; on a dead link it simply never
    /// completes.
    pub fn put_hedged(
        &self,
        thread: &SimThread,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
        hcfg: &HedgeConfig,
    ) -> Result<HedgeReport, RecoveryError> {
        let eng = self.runtime().engine().clone();
        let t0 = thread.now();
        let sel = self.effective_selection();
        let pair = self.pair_key(src.device(), dst.device(), sel);
        let pair_track = format!("pair:{}->{}", src.device(), dst.device());

        let plan = self.plan_for(src.device(), dst.device(), n)?;
        let all_paths = self.paths_for(src.device(), dst.device(), sel)?;
        let obs = self.transfer_obs(src.device(), dst.device());
        let seq = self.next_seq();
        let primary = execute_plan_at_obs(
            self.runtime(),
            &plan,
            &all_paths,
            src,
            0,
            dst,
            0,
            seq,
            &[],
            obs.clone(),
        );
        let policy: DeadlinePolicy = hcfg.trigger_policy();
        let trigger = policy.budget(plan.predicted_time);
        let mut report = HedgeReport::default();
        if primary.wait_deadline(thread, t0.after(trigger)).is_ok() {
            self.health_mark_success(pair, &primary);
            report.elapsed = thread.now().secs_since(t0);
            return Ok(report);
        }

        // The primary blew its budget: charge the stalled paths and race
        // the residual.
        let mut sick: Vec<usize> = Vec::new();
        for s in primary.unfinished() {
            sick.push(s.path_index);
            self.health_path_failure(
                pair,
                s.path_index,
                &all_paths[s.path_index],
                "hedge-trigger",
            );
        }
        let mut pending = coalesce(residuals_of(&primary, 0));
        let mut round = 0u32;
        let mut hedge_finished_last = false;
        while !pending.is_empty() {
            if round >= hcfg.max_hedges {
                return Err(RecoveryError::RetriesExhausted {
                    retries: round as u64,
                    unfinished_bytes: pending.iter().map(|r| r.bytes as u64).sum(),
                });
            }
            round += 1;
            let now = thread.now().as_secs();
            let adm = self.health().admissions(pair, all_paths.len(), now);
            self.health_record_probes(&pair_track, &adm, now);

            // Hedge candidates: up, not implicated in this transfer's
            // stall, and not excluded by an open breaker.
            let mut hedge_paths: Vec<TransferPath> = Vec::new();
            let mut orig_idx: Vec<usize> = Vec::new();
            for (i, p) in all_paths.iter().enumerate() {
                if sick.contains(&i) || adm.excluded.contains(&i) {
                    continue;
                }
                if !p
                    .legs
                    .iter()
                    .all(|leg| leg.route.iter().all(|&l| eng.link_is_up(l)))
                {
                    self.health_path_failure(pair, i, p, "link-down");
                    continue;
                }
                hedge_paths.push(p.clone());
                orig_idx.push(i);
            }

            let wait_scale = hcfg.backoff.max(1.0).powi(round as i32 - 1);
            if hedge_paths.is_empty() {
                // Nothing healthy to race on: give the primary one
                // backed-off window (a flapped link may come back) and
                // re-assess.
                let extra = policy.scaled(wait_scale).budget(plan.predicted_time);
                if primary
                    .wait_deadline(thread, thread.now().after(extra))
                    .is_ok()
                {
                    pending.clear();
                    hedge_finished_last = false;
                    break;
                }
                pending = coalesce(residuals_of(&primary, 0));
                continue;
            }

            // Re-probe the hedge set against current capacities (down
            // links carry a dummy rate; no hedge path routes over them).
            let params = probe_live(&eng, &hedge_paths)?;

            let mut handles = Vec::with_capacity(pending.len());
            let mut worst: Secs = 0.0;
            let mut memo: Option<(usize, Arc<TransferPlan>)> = None;
            let round_bytes: u64 = pending.iter().map(|r| r.bytes as u64).sum();
            for r in &pending {
                let hplan = match &memo {
                    Some((bytes, p)) if *bytes == r.bytes => p.clone(),
                    _ => {
                        let p = Arc::new(self.planner().compute_with_params(
                            r.bytes,
                            &hedge_paths,
                            params.clone(),
                        ));
                        memo = Some((r.bytes, p.clone()));
                        p
                    }
                };
                worst = worst.max(hplan.predicted_time);
                let seq = self.next_seq();
                let mut h = execute_plan_at_obs(
                    self.runtime(),
                    &hplan,
                    &hedge_paths,
                    src,
                    r.offset,
                    dst,
                    r.offset,
                    seq,
                    &[],
                    obs.clone(),
                );
                h.remap_path_indices(&orig_idx);
                handles.push((h, r.offset));
            }
            report.hedges += 1;
            report.hedged_bytes += round_bytes;
            self.health().note_hedge();
            if let Some(rec) = self.recorder() {
                rec.instant(
                    Phase::Hedge,
                    pair_track.clone(),
                    format!("hedge.launch round{round}"),
                    thread.now().as_secs(),
                    format!(
                        "bytes={round_bytes} paths={} ranges={}",
                        hedge_paths.len(),
                        pending.len()
                    ),
                );
            }

            let deadline = policy.scaled(wait_scale).deadline(thread.now(), worst);
            let mut hedge_resid: Vec<Range> = Vec::new();
            let mut all_ok = true;
            for (h, base) in &handles {
                if h.wait_deadline(thread, deadline).is_err() {
                    all_ok = false;
                    hedge_resid.extend(residuals_of(h, *base));
                    for s in h.unfinished() {
                        self.health_path_failure(
                            pair,
                            s.path_index,
                            &all_paths[s.path_index],
                            "hedge-stall",
                        );
                    }
                } else {
                    self.health_mark_success(pair, h);
                }
            }
            if all_ok {
                pending.clear();
                hedge_finished_last = true;
            } else {
                // Still missing: only bytes neither the hedge nor the
                // (still running) primary have landed.
                let prim = coalesce(residuals_of(&primary, 0));
                pending = intersect(&coalesce(hedge_resid), &prim);
                // If the message is now whole but the primary alone
                // still has residual, the hedge's bytes were decisive.
                hedge_finished_last = pending.is_empty() && !prim.is_empty();
            }
        }

        report.elapsed = thread.now().secs_since(t0);
        report.hedge_won = report.hedges > 0 && hedge_finished_last;
        if report.hedges > 0 {
            if report.hedge_won {
                self.health().note_hedge_win();
                // The tail the hedge clipped: how far past the plan's
                // prediction the message finally landed.
                self.hedge_win_hist()
                    .observe(report.elapsed - plan.predicted_time);
            }
            if let Some(rec) = self.recorder() {
                rec.instant(
                    Phase::Hedge,
                    pair_track,
                    if report.hedge_won {
                        "hedge.win"
                    } else {
                        "hedge.loss"
                    },
                    thread.now().as_secs(),
                    format!(
                        "rounds={} hedged_bytes={} elapsed_us={:.3}",
                        report.hedges,
                        report.hedged_bytes,
                        report.elapsed * 1e6
                    ),
                );
            }
            // A hedged transfer is by definition far off its prediction;
            // let the drift machinery re-probe the pair.
            if report.elapsed > 0.0 {
                self.record_observation(src.device(), dst.device(), n, n as f64 / report.elapsed);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::DeviceId;

    fn pair() -> PairKey {
        (DeviceId(0), DeviceId(1), 2, true)
    }

    #[test]
    fn breaker_full_lifecycle() {
        let cfg = HealthConfig {
            failure_threshold: 2,
            half_open_trials: 2,
            open_window: 1.0,
            ..HealthConfig::default()
        };
        let sup = HealthSupervisor::new(cfg);
        assert!(sup.is_quiet());
        assert_eq!(sup.note_failure(pair(), 0, 0.0), BreakerEvent::None);
        assert_eq!(sup.note_failure(pair(), 0, 0.1), BreakerEvent::Tripped);
        assert_eq!(sup.breaker_state(pair(), 0), BreakerState::Open);
        assert!(!sup.is_quiet());
        // Within the window: excluded, no probe.
        let adm = sup.admissions(pair(), 3, 0.5);
        assert_eq!(adm.excluded, vec![0]);
        assert!(adm.probing.is_empty());
        // Past the window: re-admitted as a half-open probe.
        let adm = sup.admissions(pair(), 3, 1.2);
        assert!(adm.excluded.is_empty());
        assert_eq!(adm.probing, vec![0]);
        assert_eq!(sup.breaker_state(pair(), 0), BreakerState::HalfOpen);
        // Two clean trials close it.
        assert_eq!(sup.note_success(pair(), 0), BreakerEvent::None);
        assert_eq!(sup.note_success(pair(), 0), BreakerEvent::Reset);
        assert_eq!(sup.breaker_state(pair(), 0), BreakerState::Closed);
        assert!(sup.is_quiet());
        let s = sup.stats();
        assert_eq!(s.trips, 1);
        assert_eq!(s.resets, 1);
        assert_eq!(s.probes, 1);
        assert_eq!(s.breakers_open, 0);
    }

    #[test]
    fn half_open_failure_retrips_without_counting_a_trip() {
        let sup = HealthSupervisor::new(HealthConfig {
            failure_threshold: 1,
            open_window: 1.0,
            ..HealthConfig::default()
        });
        assert_eq!(sup.trip(pair(), 2, 0.0), BreakerEvent::Tripped);
        sup.admissions(pair(), 3, 2.0); // → HalfOpen
        assert_eq!(sup.note_failure(pair(), 2, 2.1), BreakerEvent::Retripped);
        let s = sup.stats();
        assert_eq!((s.trips, s.retrips, s.resets), (1, 1, 0));
        // The invariant holds: the one trip is still an open breaker.
        assert_eq!(s.trips, s.resets + s.breakers_open);
    }

    #[test]
    fn success_on_closed_breaker_forgives_strikes() {
        let sup = HealthSupervisor::new(HealthConfig {
            failure_threshold: 3,
            ..HealthConfig::default()
        });
        sup.note_failure(pair(), 1, 0.0);
        sup.note_failure(pair(), 1, 0.1);
        sup.note_success(pair(), 1);
        // Strikes were forgiven: two more failures still don't trip.
        assert_eq!(sup.note_failure(pair(), 1, 0.2), BreakerEvent::None);
        assert_eq!(sup.note_failure(pair(), 1, 0.3), BreakerEvent::None);
        assert_eq!(sup.note_failure(pair(), 1, 0.4), BreakerEvent::Tripped);
    }

    #[test]
    fn drift_strikes_gate_replay_and_heal_after_the_window() {
        let sup = HealthSupervisor::new(HealthConfig {
            drift_strikes: 2,
            open_window: 1.0,
            ..HealthConfig::default()
        });
        assert!(sup.replay_allowed(pair(), 0.0));
        assert!(!sup.note_drift(pair(), 0.1));
        assert!(sup.note_drift(pair(), 0.2));
        assert!(!sup.replay_allowed(pair(), 0.5));
        assert!(!sup.is_quiet());
        // Quiet for a full window: forgiven.
        assert!(sup.replay_allowed(pair(), 1.5));
        assert!(sup.is_quiet());
    }

    #[test]
    fn suspend_replay_gates_immediately() {
        let sup = HealthSupervisor::new(HealthConfig::default());
        sup.suspend_replay(pair(), 0.0);
        assert!(!sup.replay_allowed(pair(), 0.1));
        // A different pair is unaffected.
        let other = (DeviceId(2), DeviceId(3), 2, true);
        assert!(sup.replay_allowed(other, 0.1));
    }

    #[test]
    fn open_breaker_blocks_replay_for_its_pair_only() {
        let sup = HealthSupervisor::new(HealthConfig {
            failure_threshold: 1,
            ..HealthConfig::default()
        });
        sup.note_failure(pair(), 0, 0.0);
        assert!(!sup.replay_allowed(pair(), 0.1));
        let other = (DeviceId(2), DeviceId(3), 2, true);
        assert!(sup.replay_allowed(other, 0.1));
    }

    #[test]
    fn intersect_is_exact() {
        let a = [
            Range {
                offset: 0,
                bytes: 10,
            },
            Range {
                offset: 20,
                bytes: 10,
            },
        ];
        let b = [Range {
            offset: 5,
            bytes: 20,
        }];
        assert_eq!(
            intersect(&a, &b),
            vec![
                Range {
                    offset: 5,
                    bytes: 5
                },
                Range {
                    offset: 20,
                    bytes: 5
                }
            ]
        );
        assert!(intersect(&a, &[]).is_empty());
    }
}
