//! Path-health supervision: per-path circuit breakers (DESIGN §4f).
//!
//! A [`UcxContext::transfer`](crate::UcxContext::transfer) reacts *after*
//! a deadline miss; this layer remembers. Every deadline miss, dead link,
//! and sustained residual drift charges a per-`(pair, path)` **circuit
//! breaker** — the classic Closed → Open → HalfOpen machine. Open
//! breakers bias planning away from the sick path (the context plans the
//! residual candidate set through `Planner::plan_excluding` semantics),
//! gate replay for the pair (a replay instance would put bytes right back
//! on the sick path), and, after a configurable window,
//! re-admit the path as a *half-open probe* carrying bounded trial
//! traffic: a few clean completions close the breaker, one more failure
//! re-opens it.
//!
//! The supervisor itself is deliberately free of context plumbing (no
//! recorder, no engine) so the state machine can be property-tested in
//! isolation; the context glues breaker events to telemetry instants and
//! purges of the pair's lowerings.

use mpx_model::PairKey;
use mpx_topo::units::Secs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Tunables of the supervision layer, embedded in
/// [`crate::UcxConfig::health`].
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Master switch. Off, no breaker is charged, consulted or gated on,
    /// and a stuck [`crate::UcxContext::transfer`] still returns its
    /// typed error.
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
/// to `breaker.*` telemetry instants and purges of the pair's lowerings.
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
    /// Racing rounds launched (hedges).
    pub hedges: u64,
    /// Racing transfers a hedge, not the missed attempt, finished.
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

    /// Charges one failure (deadline miss, stalled race leg). Closed
    /// breakers accumulate strikes up to the threshold; half-open
    /// breakers re-open on the spot; open breakers extend their window
    /// (the sickness is evidently ongoing).
    pub fn note_failure(&self, pair: PairKey, path: usize, now: Secs) -> BreakerEvent {
        self.strike(pair, path, now, false)
    }

    /// Trips the breaker immediately, bypassing the strike threshold — a
    /// route over a down link is definitive, not noise.
    pub fn trip(&self, pair: PairKey, path: usize, now: Secs) -> BreakerEvent {
        self.strike(pair, path, now, true)
    }

    fn strike(&self, pair: PairKey, path: usize, now: Secs, definitive: bool) -> BreakerEvent {
        let mut map = self.breakers.lock();
        let e = map.entry((pair, path)).or_insert_with(|| {
            self.entries.fetch_add(1, Ordering::Relaxed);
            BState::Closed { strikes: 0 }
        });
        let until = now + self.cfg.open_window;
        match e {
            BState::Closed { strikes } => {
                *strikes += 1;
                if !definitive && *strikes < self.cfg.failure_threshold.max(1) {
                    return BreakerEvent::None;
                }
                *e = BState::Open { until };
                self.non_closed.fetch_add(1, Ordering::Relaxed);
                self.trips.fetch_add(1, Ordering::Relaxed);
                BreakerEvent::Tripped
            }
            BState::HalfOpen { .. } => {
                *e = BState::Open { until };
                self.retrips.fetch_add(1, Ordering::Relaxed);
                BreakerEvent::Retripped
            }
            BState::Open { until: open_until } => {
                *open_until = until;
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

    /// Whether replay may serve the pair at `now`: no
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
}
