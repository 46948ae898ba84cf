//! Degradation-aware transfers: deadline, detect, re-plan, retry.
//!
//! [`UcxContext::put_resilient`] wraps a PUT in a recovery loop. The
//! first attempt runs the normal cached plan but waits with a
//! *simulated-time deadline* derived from the plan's own prediction
//! (`predicted_time × slack`). If the deadline expires, the
//! [`crate::pipeline::TransferHandle`] reports exactly which paths
//! drained; the residual byte ranges are re-planned by Algorithm 1 over
//! the *surviving* candidate paths with parameters re-probed against the
//! fabric's current capacities, and re-sent. Slack backs off
//! exponentially so a merely-degraded (not dead) path gets
//! proportionally more time each round; the retry budget is bounded.
//!
//! Re-planning over survivors preserves the paper's optimality argument:
//! Algorithm 1's equal-time condition never referenced the failed path —
//! it equalizes completion over whatever candidate set it is given, so
//! the residual transfer is again optimal for the degraded fabric, down
//! to a single surviving path.

use crate::compile::{fold_routes, interpret_once};
use crate::context::UcxContext;
use crate::deadline::DeadlinePolicy;
use crate::pipeline::TransferHandle;
use crate::probe::probe_live;
use mpx_gpu::Buffer;
use mpx_model::TransferPlan;
use mpx_obs::Phase;
use mpx_sim::SimThread;
use mpx_topo::path::TransferPath;
use mpx_topo::units::Secs;
use mpx_topo::TopologyError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tunables of the recovery loop.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Deadline = predicted time × `slack` (first attempt).
    pub slack: f64,
    /// Multiplier applied to `slack` after every missed deadline.
    pub backoff: f64,
    /// Recovery rounds allowed after the initial attempt.
    pub max_retries: u32,
    /// Floor for any deadline, so tiny transfers are not declared dead
    /// on scheduling noise.
    pub min_deadline: Secs,
    /// Decorrelated-jitter width on the backoff: each round's slack is
    /// drawn uniformly from `[slack, slack × backoff × (1 + jitter)]`,
    /// so concurrent tenants recovering from the same flap don't retry
    /// in lockstep. `0.0` restores the deterministic geometric ladder.
    /// The expected growth per round stays ≈ `backoff`.
    pub jitter: f64,
    /// Seed for the jitter draws, mixed with the transfer's sequence
    /// number — deterministic for a fixed seed and issue order, while
    /// distinct transfers still decorrelate.
    pub seed: u64,
    /// Ceiling on the backed-off slack multiplier.
    pub max_slack: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            slack: 4.0,
            backoff: 2.0,
            max_retries: 4,
            min_deadline: 1e-3,
            jitter: 0.5,
            seed: 0x7265_7472,
            max_slack: 256.0,
        }
    }
}

/// One decorrelated-jitter step: the next slack, drawn uniformly from
/// `[prev, prev × backoff × (1 + jitter)]` and capped. The draw comes
/// from a caller-owned xorshift state, so the sequence is a pure
/// function of the seed.
pub(crate) fn jittered_slack(prev: f64, rcfg: &RecoveryConfig, state: &mut u64) -> f64 {
    let step = rcfg.backoff.max(1.0);
    let cap = rcfg.max_slack.max(rcfg.slack.max(1.0));
    if rcfg.jitter <= 0.0 {
        return (prev * step).min(cap);
    }
    // xorshift64* — tiny, seedable, plenty for retry spreading.
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
    let hi = prev * step * (1.0 + rcfg.jitter);
    (prev + u * (hi - prev)).min(cap)
}

/// What a resilient PUT went through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Recovery rounds that ran (0 = clean first attempt).
    pub retries: u64,
    /// Residual-range plans computed across all rounds.
    pub replans: u64,
    /// Bytes re-sent through recovery rounds.
    pub recovered_bytes: u64,
    /// Surviving candidate paths used by the final round (equals the
    /// full candidate count on a clean run).
    pub final_paths: usize,
}

/// A resilient PUT that could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// Planning/topology failure (no candidate paths survive, etc.).
    Topology(TopologyError),
    /// The retry budget ran out with bytes still unfinished.
    RetriesExhausted {
        /// Rounds attempted.
        retries: u64,
        /// Bytes that never landed.
        unfinished_bytes: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Topology(e) => write!(f, "recovery planning failed: {e}"),
            RecoveryError::RetriesExhausted {
                retries,
                unfinished_bytes,
            } => write!(
                f,
                "retry budget exhausted after {retries} rounds, {unfinished_bytes} bytes unfinished"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<TopologyError> for RecoveryError {
    fn from(e: TopologyError) -> RecoveryError {
        RecoveryError::Topology(e)
    }
}

/// Shared counters behind [`UcxContext::resilience_stats`].
#[derive(Debug, Default)]
pub(crate) struct ResilienceCounters {
    pub(crate) retries: AtomicU64,
    pub(crate) replans: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) cache_invalidations: AtomicU64,
}

impl ResilienceCounters {
    pub(crate) fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the context's degradation-handling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Recovery rounds run.
    pub retries: u64,
    /// Residual plans computed by recovery rounds.
    pub replans: u64,
    /// Deadlines missed.
    pub timeouts: u64,
    /// Cache entries dropped because observed bandwidth drifted past
    /// [`crate::UcxConfig::drift_tolerance`].
    pub cache_invalidations: u64,
}

/// A contiguous residual byte range of the message, in message-relative
/// offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Range {
    pub(crate) offset: usize,
    pub(crate) bytes: usize,
}

/// Coalesces adjacent/overlapping ranges so each recovery round plans as
/// few residual messages as possible.
pub(crate) fn coalesce(mut ranges: Vec<Range>) -> Vec<Range> {
    ranges.sort_by_key(|r| r.offset);
    let mut out: Vec<Range> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.offset <= last.offset + last.bytes => {
                let end = (r.offset + r.bytes).max(last.offset + last.bytes);
                last.bytes = end - last.offset;
            }
            _ => out.push(r),
        }
    }
    out
}

/// Residual ranges of a timed-out handle, shifted into message-absolute
/// offsets (`base` is where the handle's sub-message started).
pub(crate) fn residuals_of(h: &TransferHandle, base: usize) -> Vec<Range> {
    h.unfinished()
        .into_iter()
        .map(|s| Range {
            offset: base + s.offset,
            bytes: s.bytes,
        })
        .collect()
}

impl UcxContext {
    /// Blocking PUT with detection and recovery: deadlines from the
    /// plan's own prediction, residual re-planning over surviving paths,
    /// exponential slack backoff, bounded retries. See the module docs
    /// for the policy.
    pub fn put_resilient(
        &self,
        thread: &SimThread,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
        rcfg: &RecoveryConfig,
    ) -> Result<RecoveryReport, RecoveryError> {
        let eng = self.runtime().engine().clone();
        let t0 = thread.now();
        let mut slack = rcfg.slack.max(1.0);
        let mut report = RecoveryReport::default();

        // Attempt 0: the normal cached plan over the full candidate set.
        let plan = self.plan_for(src.device(), dst.device(), n)?;
        let pair = self.pair_key(src.device(), dst.device(), self.effective_selection());
        let (all_paths, routes) =
            self.pair_paths(src.device(), dst.device(), self.effective_selection())?;
        report.final_paths = all_paths.len();
        let seq = self.next_seq();
        // Jitter state: the config seed mixed with this transfer's
        // sequence number, so concurrent transfers decorrelate while a
        // fixed seed and issue order replay the same slack ladder.
        let mut jitter_state = (rcfg.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let obs = self.transfer_obs(src.device(), dst.device());
        let pair_track = format!("pair:{}->{}", src.device(), dst.device());
        let routes = routes.get_or_init(|| fold_routes(&all_paths));
        let set = (&all_paths[..], routes);
        let (rt, from, to) = (self.runtime(), (src, 0), (dst, 0));
        let h = interpret_once(rt, &plan, set, from, to, seq, &[], obs.clone());
        let deadline = DeadlinePolicy::new(slack, rcfg.min_deadline)
            .deadline(thread.now(), plan.predicted_time);
        let mut pending: Vec<Range> = match h.wait_deadline(thread, deadline) {
            Ok(()) => {
                self.health_mark_success(pair, &h);
                Vec::new()
            }
            Err(_) => {
                self.resilience().timeouts.fetch_add(1, Ordering::Relaxed);
                for s in h.unfinished() {
                    self.health_path_failure(
                        pair,
                        s.path_index,
                        &all_paths[s.path_index],
                        "deadline-miss",
                    );
                }
                let residuals = coalesce(residuals_of(&h, 0));
                let unfinished: u64 = residuals.iter().map(|r| r.bytes as u64).sum();
                if let Some(rec) = self.recorder() {
                    rec.instant(
                        Phase::Recovery,
                        pair_track.clone(),
                        format!("deadline-miss xfer{seq}"),
                        thread.now().as_secs(),
                        format!("unfinished_bytes={unfinished} slack={slack:.1}"),
                    );
                }
                let path = h.unfinished().first().map(|s| s.path_index);
                self.anomaly_signal(mpx_obs::TriggerClass::DeadlineMissBurst, path, || {
                    let pair = format!("{}->{}", src.device(), dst.device());
                    (
                        pair,
                        format!("xfer{seq} unfinished_bytes={unfinished} slack={slack:.1}"),
                    )
                });
                residuals
            }
        };

        // Recovery rounds: re-probe, re-plan residuals over survivors,
        // re-send, back off.
        let mut round = 0u32;
        while !pending.is_empty() {
            if round >= rcfg.max_retries {
                let unfinished_bytes = pending.iter().map(|r| r.bytes as u64).sum();
                return Err(RecoveryError::RetriesExhausted {
                    retries: report.retries,
                    unfinished_bytes,
                });
            }
            round += 1;
            slack = jittered_slack(slack, rcfg, &mut jitter_state);
            report.retries += 1;
            self.resilience().retries.fetch_add(1, Ordering::Relaxed);

            // Surviving candidates: every link of every leg still up.
            // The parallel original-index vector keeps breaker
            // attribution in candidate-set space after the filter.
            let mut survivors: Vec<TransferPath> = Vec::new();
            let mut orig_idx: Vec<usize> = Vec::new();
            for (i, p) in all_paths.iter().enumerate() {
                if p.legs
                    .iter()
                    .all(|leg| leg.route.iter().all(|&l| eng.link_is_up(l)))
                {
                    survivors.push(p.clone());
                    orig_idx.push(i);
                } else {
                    self.health_path_failure(pair, i, p, "link-down");
                }
            }
            if survivors.is_empty() {
                return Err(TopologyError::NoUsablePath(src.device(), dst.device()).into());
            }
            report.final_paths = survivors.len();

            // Refresh parameters against the fabric's *current* state
            // (down links carry a dummy rate; survivors never route over
            // them, so it cannot influence the measured rates).
            let params = probe_live(&eng, &survivors)?.0;
            if let Some(rec) = self.recorder() {
                rec.instant(
                    Phase::Recovery,
                    pair_track.clone(),
                    format!("replan round{round}"),
                    thread.now().as_secs(),
                    format!(
                        "survivors={} of {} residual_ranges={}",
                        survivors.len(),
                        all_paths.len(),
                        pending.len()
                    ),
                );
            }

            // One residual plan per *distinct* coalesced-range size, all
            // in flight concurrently, sharing one backed-off deadline.
            // Stalled pipelines shed uniform chunk-sized residuals, so
            // equal-size ranges are the common case — reuse the last
            // solve instead of re-running the share system per range.
            let mut handles: Vec<(TransferHandle, usize)> = Vec::with_capacity(pending.len());
            let routes = fold_routes(&survivors);
            let mut worst: Secs = 0.0;
            let mut memo: Option<(usize, Arc<TransferPlan>)> = None;
            for r in &pending {
                let plan = match &memo {
                    Some((bytes, plan)) if *bytes == r.bytes => plan.clone(),
                    _ => {
                        let plan = Arc::new(self.planner().compute_with_params(
                            r.bytes,
                            &survivors,
                            params.clone(),
                        ));
                        report.replans += 1;
                        self.resilience().replans.fetch_add(1, Ordering::Relaxed);
                        memo = Some((r.bytes, plan.clone()));
                        plan
                    }
                };
                worst = worst.max(plan.predicted_time);
                report.recovered_bytes += r.bytes as u64;
                let (seq, set) = (self.next_seq(), (&survivors[..], &routes));
                let (from, to) = ((src, r.offset), (dst, r.offset));
                let mut h = interpret_once(rt, &plan, set, from, to, seq, &[], obs.clone());
                h.remap_path_indices(&orig_idx);
                handles.push((h, r.offset));
            }
            let deadline =
                DeadlinePolicy::new(slack, rcfg.min_deadline).deadline(thread.now(), worst);
            let mut next: Vec<Range> = Vec::new();
            for (h, base) in &handles {
                if h.wait_deadline(thread, deadline).is_err() {
                    self.resilience().timeouts.fetch_add(1, Ordering::Relaxed);
                    for s in h.unfinished() {
                        self.health_path_failure(
                            pair,
                            s.path_index,
                            &all_paths[s.path_index],
                            "deadline-miss",
                        );
                    }
                    let path = h.unfinished().first().map(|s| s.path_index);
                    self.anomaly_signal(mpx_obs::TriggerClass::DeadlineMissBurst, path, || {
                        let pair = format!("{}->{}", src.device(), dst.device());
                        (pair, format!("retry round{round} slack={slack:.1}"))
                    });
                    next.extend(residuals_of(h, *base));
                } else {
                    self.health_mark_success(pair, h);
                }
            }
            pending = coalesce(next);
        }

        // Feed the observation back so the cache notices drift (a
        // recovered transfer is by definition far off its prediction).
        let elapsed = thread.now().secs_since(t0);
        if elapsed > 0.0 {
            self.record_observation(src.device(), dst.device(), n, n as f64 / elapsed);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_ladder_is_deterministic_and_bounded() {
        let rcfg = RecoveryConfig::default();
        let run = |seed: u64| -> Vec<f64> {
            let mut state = seed | 1;
            let mut slack = rcfg.slack;
            (0..6)
                .map(|_| {
                    slack = jittered_slack(slack, &rcfg, &mut state);
                    slack
                })
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay the same ladder");
        let c = run(91);
        assert_ne!(a, c, "different seeds must decorrelate");
        // Every step stays in [prev, prev·backoff·(1+jitter)] ∩ [0, cap].
        let mut prev = rcfg.slack;
        for &s in &a {
            assert!(
                s >= prev.min(rcfg.max_slack),
                "slack regressed: {s} < {prev}"
            );
            assert!(s <= (prev * rcfg.backoff * (1.0 + rcfg.jitter)).min(rcfg.max_slack) + 1e-9);
            prev = s;
        }
    }

    #[test]
    fn zero_jitter_restores_the_geometric_ladder() {
        let rcfg = RecoveryConfig {
            jitter: 0.0,
            ..RecoveryConfig::default()
        };
        let mut state = 7u64;
        let mut slack = rcfg.slack;
        for round in 1..=4 {
            slack = jittered_slack(slack, &rcfg, &mut state);
            let expect = (rcfg.slack * rcfg.backoff.powi(round)).min(rcfg.max_slack);
            assert!((slack - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn jitter_caps_at_max_slack() {
        let rcfg = RecoveryConfig {
            max_slack: 10.0,
            ..RecoveryConfig::default()
        };
        let mut state = 1u64;
        let mut slack = rcfg.slack;
        for _ in 0..20 {
            slack = jittered_slack(slack, &rcfg, &mut state);
        }
        assert!(slack <= 10.0);
    }
}
