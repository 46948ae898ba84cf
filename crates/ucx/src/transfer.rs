//! The one blocking PUT: [`UcxContext::transfer`], driven by a
//! [`TransferPolicy`] and awaited from a task (`mpx_sim::task`).
//!
//! Attempt 0 waits with a *simulated-time deadline* derived from the
//! plan's own prediction (`predicted_time × slack`, floored). If it
//! expires, the [`crate::pipeline::TransferHandle`] reports exactly which
//! paths drained, the stalled paths are charged to their circuit breakers,
//! and each round re-plans the residual byte ranges with Algorithm 1 over
//! the survivors (links up; a race also skips breaker-excluded paths),
//! with parameters re-probed against the fabric's current capacities. The
//! deadline backs off every round; the retry budget is bounded.
//!
//! A policy either *replaces* a missed attempt (its residual is re-sent
//! over every survivor) or *races* it: the residual runs on the survivors
//! the stall did not implicate while the missed attempt keeps running,
//! and the first completion wins per range. Duplicate writes are
//! byte-identical by construction, so losing a race is pure accounting —
//! a stalled loser flow on a dead link never completes and never
//! corrupts.
//!
//! Re-planning over survivors preserves the paper's optimality argument:
//! Algorithm 1's equal-time condition never referenced the failed path —
//! it equalizes completion over whatever candidate set it is given, so
//! the residual transfer is again optimal for the degraded fabric, down
//! to a single surviving path.

use crate::compile::{fold_routes, launch, Lowered};
use crate::context::{Launch, Observation, UcxContext};
use crate::pipeline::{PutRequest, TransferHandle};
use crate::probe::probe_live;
use mpx_gpu::Buffer;
use mpx_model::TransferPlan;
use mpx_obs::{Phase, TriggerClass};
use mpx_sim::SimTime;
use mpx_topo::units::Secs;
use mpx_topo::TopologyError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The one deadline rule of the stack: a transfer predicted to take `t`
/// seconds gets a budget of `max(t × slack, floor)` seconds. A retry
/// round backs off by raising the slack and keeping the floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Multiplier on the model's predicted completion time. Clamped to
    /// at least 1.0 when applied: a budget below the prediction would
    /// declare every transfer late by construction.
    pub slack: f64,
    /// Minimum budget in seconds, so tiny transfers are not declared
    /// dead on scheduling noise.
    pub floor: Secs,
}

impl DeadlinePolicy {
    /// A policy from its two parameters.
    pub const fn new(slack: f64, floor: Secs) -> DeadlinePolicy {
        DeadlinePolicy { slack, floor }
    }

    /// The budget for a transfer predicted to take `predicted` seconds:
    /// `max(predicted × max(slack, 1), floor)`.
    pub fn budget(&self, predicted: Secs) -> Secs {
        (predicted * self.slack.max(1.0)).max(self.floor)
    }

    /// The absolute deadline for a transfer issued at `now` with the
    /// given prediction.
    pub fn deadline(&self, now: SimTime, predicted: Secs) -> SimTime {
        now.after(self.budget(predicted))
    }
}

/// What a [`UcxContext::transfer`] does about a missed deadline. The
/// three constants are the stack's plain, resilient and hedged PUTs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPolicy {
    /// Attempt 0's budget; round `k` backs its slack off (floor kept).
    pub deadline: DeadlinePolicy,
    /// Rounds allowed after attempt 0. With none the transfer is the plain
    /// PUT: attempt 0 launches as [`UcxContext::put`] does (replay,
    /// supervised survivor plan), a miss is final and no drift is fed back.
    /// With some, attempt 0 runs the key's cached lowering interpreted over
    /// every candidate, breakers unconsulted.
    pub retries: u32,
    /// Race a missed attempt's residual on the paths its stall did not
    /// implicate, first completion winning per range, instead of
    /// replacing it over every survivor.
    pub race: bool,
}

impl TransferPolicy {
    /// The plain PUT: one attempt, declared stuck three orders of
    /// magnitude past its prediction (one-second floor) — a degraded
    /// fabric, not noise.
    pub const PLAIN: TransferPolicy = TransferPolicy {
        deadline: DeadlinePolicy::new(1024.0, 1.0),
        retries: 0,
        race: false,
    };
    /// Detect and recover: 4× the prediction (1 ms floor), then up to
    /// four rounds re-sending the residual over the survivors.
    pub const RESILIENT: TransferPolicy = TransferPolicy {
        deadline: DeadlinePolicy::new(4.0, 1e-3),
        retries: 4,
        race: false,
    };
    /// Tail-latency hedging: 1.5× the prediction (1 ms floor), then up to
    /// three rounds racing the residual.
    pub const HEDGED: TransferPolicy = TransferPolicy {
        deadline: DeadlinePolicy::new(1.5, 1e-3),
        retries: 3,
        race: true,
    };
}

/// Slack multiplier per round.
const BACKOFF: f64 = 2.0;
/// Decorrelated-jitter width of a replacing round's backoff: its slack is
/// drawn uniformly from `[slack, slack × BACKOFF × (1 + JITTER)]`, so
/// concurrent transfers recovering from the same flap don't retry in
/// lockstep. The expected growth per round stays ≈ `BACKOFF`.
const JITTER: f64 = 0.5;
/// Seed of the jitter draws, mixed with the transfer's sequence number —
/// a fixed issue order replays the same ladder.
const JITTER_SEED: u64 = 0x7265_7472;
/// Ceiling on a jittered slack.
const MAX_SLACK: f64 = 256.0;

/// One decorrelated-jitter step: the next slack, drawn uniformly from
/// `[prev, prev × BACKOFF × (1 + JITTER)]` and capped. The draw comes
/// from a caller-owned xorshift state, so the sequence is a pure
/// function of the seed.
fn jittered_slack(prev: f64, base: f64, state: &mut u64) -> f64 {
    // xorshift64* — tiny, seedable, plenty for retry spreading.
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
    let hi = prev * BACKOFF * (1.0 + JITTER);
    (prev + u * (hi - prev)).min(MAX_SLACK.max(base.max(1.0)))
}

/// What a transfer went through.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferReport {
    /// Rounds that launched bytes after attempt 0 (0 = clean attempt 0).
    pub retries: u64,
    /// Residual-range plans solved across all rounds.
    pub replans: u64,
    /// Bytes those rounds launched (a race sends them twice).
    pub recovered_bytes: u64,
    /// Candidate paths the last round ran on (all of them on a clean run).
    pub final_paths: usize,
    /// A racing round, not the missed attempt catching up, finished the
    /// message.
    pub hedge_won: bool,
    /// End-to-end virtual-time duration.
    pub elapsed: Secs,
}

/// A transfer that could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferError {
    /// Planning/topology failure (no candidate path survives, etc.).
    Topology(TopologyError),
    /// The retry budget ran out with bytes still unfinished.
    Stuck {
        /// Bytes that never landed.
        bytes: u64,
        /// Virtual-time seconds spent waiting.
        elapsed: Secs,
        /// Rounds run after attempt 0.
        retries: u64,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::Topology(e) => write!(f, "transfer planning failed: {e}"),
            TransferError::Stuck {
                bytes,
                elapsed,
                retries,
            } => write!(
                f,
                "transfer stuck: {bytes} bytes unfinished after {elapsed:.6}s and {retries} \
                 retries; fabric degraded? a policy with retries re-plans the residual"
            ),
        }
    }
}

impl std::error::Error for TransferError {}

impl From<TopologyError> for TransferError {
    fn from(e: TopologyError) -> TransferError {
        TransferError::Topology(e)
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

/// Snapshot of the context's degradation-handling counters. Racing
/// rounds count as `health.hedges` instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Replacing rounds run.
    pub retries: u64,
    /// Residual plans computed by replacing rounds.
    pub replans: u64,
    /// Deadlines missed by replacing policies.
    pub timeouts: u64,
    /// Cache entries dropped because observed bandwidth drifted past
    /// [`crate::UcxConfig::drift_tolerance`].
    pub cache_invalidations: u64,
}

/// A contiguous residual byte range of the message, in message-relative
/// offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Range {
    offset: usize,
    bytes: usize,
}

/// Coalesces adjacent/overlapping ranges so each round plans as few
/// residual messages as possible.
fn coalesce(mut ranges: Vec<Range>) -> Vec<Range> {
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

/// Intersection of two sorted, coalesced range lists — the bytes still
/// missing after a race are exactly those unfinished by *both* sides.
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

/// Residual ranges of a timed-out handle, shifted into message-absolute
/// offsets (`base` is where the handle's sub-message started).
fn residuals_of(h: &TransferHandle, base: usize) -> impl Iterator<Item = Range> + '_ {
    h.unfinished().into_iter().map(move |s| Range {
        offset: base + s.offset,
        bytes: s.bytes,
    })
}

impl UcxContext {
    /// PUT of `src[..n]` into `dst[..n]` under `policy`, awaited from a
    /// task on this context's engine: the deadline, the survivor re-plans,
    /// the backoff and the retry budget described in the module docs.
    /// Every miss charges the stalled paths' breakers, so even plain
    /// traffic feeds the supervision layer.
    pub async fn transfer(
        &self,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
        policy: &TransferPolicy,
    ) -> Result<TransferReport, TransferError> {
        let (rt, race, floor) = (self.runtime(), policy.race, policy.deadline.floor);
        let eng = rt.engine();
        let (sd, dd) = (src.device(), dst.device());
        let t0 = eng.now();
        let plan = self.plan_for(sd, dd, n)?;
        let sel = self.effective_selection();
        let pair = self.pair_key(sd, dd, sel);
        let all = self.paths_for(sd, dd, sel)?;
        let obs = self.transfer_obs(pair);
        // With a retry budget attempt 0 runs this plan interpreted over every
        // candidate; without, it launches this plan as `put` would (DESIGN §4f).
        let plain = policy.retries == 0;
        let replay = plain && self.config().graph_replay;
        let primary = self.issue(&PutRequest::new(src, dst, n), replay, Some(&plan), plain)?;
        let seq = primary.seq;
        let signal = |class, h: &TransferHandle, cause: &dyn Fn() -> String| {
            let path = h.unfinished().first().map(|s| s.path_index);
            self.anomaly_signal(class, path, self.now(), || (format!("{sd}->{dd}"), cause()));
        };
        let charge = |h: &TransferHandle, why: &str| {
            if !race {
                self.resilience().timeouts.fetch_add(1, Ordering::Relaxed);
            }
            for s in h.unfinished() {
                self.health_path_failure(pair, s.path_index, &all[s.path_index], why);
            }
        };
        let mut report = TransferReport {
            final_paths: all.len(),
            ..TransferReport::default()
        };
        let mut slack = policy.deadline.slack.max(1.0);
        let mut jitter = (JITTER_SEED ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let deadline = policy.deadline.deadline(eng.now(), plan.predicted_time);
        let mut sick = Vec::new();
        if primary.wait(eng, Some(deadline)).await.is_ok() {
            self.health_mark_success(pair, &primary);
        } else if race {
            charge(&primary, "hedge-trigger");
            sick.extend(primary.unfinished().iter().map(|s| s.path_index));
        } else {
            charge(&primary, "deadline-miss");
            let unfinished: u64 = primary.unfinished().iter().map(|s| s.bytes as u64).sum();
            self.instant(Phase::Recovery, pair, || {
                let detail = format!("unfinished_bytes={unfinished} slack={slack:.1}");
                (format!("deadline-miss xfer{seq}"), self.now(), detail)
            });
            signal(TriggerClass::DeadlineMissBurst, &primary, &|| {
                format!("xfer{seq} unfinished_bytes={unfinished} slack={slack:.1}")
            });
        }

        // Rounds: survivors, re-probe, re-plan the residual, launch, back off.
        let mut pending = coalesce(residuals_of(&primary, 0).collect());
        let mut round = 0u32;
        while !pending.is_empty() {
            if round >= policy.retries {
                let bytes = pending.iter().map(|r| r.bytes as u64).sum();
                let elapsed = eng.now().secs_since(t0);
                signal(TriggerClass::StuckTransfer, &primary, &|| {
                    format!("bytes={bytes} elapsed_us={:.3}", elapsed * 1e6)
                });
                let retries = u64::from(round);
                return Err(TransferError::Stuck {
                    bytes,
                    elapsed,
                    retries,
                });
            }
            round += 1;
            if race {
                slack = policy.deadline.slack * BACKOFF.powi(round as i32 - 1);
            } else {
                slack = jittered_slack(slack, policy.deadline.slack, &mut jitter);
                self.resilience().retries.fetch_add(1, Ordering::Relaxed);
            }
            // Only a race consults the breakers; a replacing round keeps
            // every path whose links are up, however slow (DESIGN §4f).
            let adm = race.then(|| self.admissions(pair, all.len()).excluded);
            let skip = |i| sick.contains(&i) || adm.as_ref().is_some_and(|x| x.contains(&i));
            let (survivors, orig_idx) = self.survivors(pair, &all, skip);
            if survivors.is_empty() && !race {
                return Err(TopologyError::NoUsablePath(sd, dd).into());
            }
            if survivors.is_empty() {
                // Nothing healthy to race on: give the missed attempt one
                // backed-off window (a flapped link may come back).
                let extra = DeadlinePolicy::new(slack, floor).budget(plan.predicted_time);
                let at = eng.now().after(extra);
                if primary.wait(eng, Some(at)).await.is_ok() {
                    break;
                }
                pending = coalesce(residuals_of(&primary, 0).collect());
                continue;
            }
            report.final_paths = survivors.len();

            // Refresh parameters against the fabric's *current* state
            // (down links carry a dummy rate; survivors never route over
            // them, so it cannot influence the measured rates).
            let params = probe_live(eng, &survivors)?.0;
            if !race {
                self.instant(Phase::Recovery, pair, || {
                    let (live, total, ranges) = (survivors.len(), all.len(), pending.len());
                    let detail = format!("survivors={live} of {total} residual_ranges={ranges}");
                    (format!("replan round{round}"), self.now(), detail)
                });
            }

            // One residual plan per *distinct* coalesced-range size, all
            // in flight concurrently, sharing one backed-off deadline.
            // Stalled pipelines shed uniform chunk-sized residuals, so
            // equal-size ranges are the common case — reuse the last
            // solve instead of re-running the share system per range.
            let mut handles = Vec::with_capacity(pending.len());
            let routes = fold_routes(&survivors);
            let mut worst: Secs = 0.0;
            let mut memo: Option<(usize, Arc<TransferPlan>)> = None;
            let solve = |bytes| {
                self.planner()
                    .compute_with_params(bytes, &survivors, params.clone())
            };
            for r in &pending {
                let plan = match &memo {
                    Some((bytes, plan)) if *bytes == r.bytes => plan.clone(),
                    _ => {
                        let p = solve(r.bytes);
                        report.replans += 1;
                        if !race {
                            self.resilience().replans.fetch_add(1, Ordering::Relaxed);
                        }
                        memo.insert((r.bytes, Arc::new(p))).1.clone()
                    }
                };
                worst = worst.max(plan.predicted_time);
                report.recovered_bytes += r.bytes as u64;
                let req = PutRequest {
                    src: (src, r.offset),
                    dst: (dst, r.offset),
                    n: r.bytes,
                    notify: &[],
                };
                let lowered = Lowered::Plan(&plan, (&survivors, &routes), Some(&orig_idx));
                let h = launch(rt, &req, self.next_seq(), lowered, obs.clone());
                handles.push((h, r.offset));
            }
            report.retries += 1;
            if race {
                self.health().note_hedge();
                self.instant(Phase::Hedge, pair, || {
                    let bytes: usize = pending.iter().map(|r| r.bytes).sum();
                    let (paths, ranges) = (survivors.len(), pending.len());
                    let detail = format!("bytes={bytes} paths={paths} ranges={ranges}");
                    (format!("hedge.launch round{round}"), self.now(), detail)
                });
            }

            let deadline = DeadlinePolicy::new(slack, floor).deadline(eng.now(), worst);
            let mut missed: Vec<Range> = Vec::new();
            for (h, base) in &handles {
                if h.wait(eng, Some(deadline)).await.is_ok() {
                    self.health_mark_success(pair, h);
                    continue;
                }
                charge(h, if race { "hedge-stall" } else { "deadline-miss" });
                if !race {
                    let cause = || format!("retry round{round} slack={slack:.1}");
                    signal(TriggerClass::DeadlineMissBurst, h, &cause);
                }
                missed.extend(residuals_of(h, *base));
            }
            let clean = missed.is_empty();
            pending = coalesce(missed);
            if race {
                // Still missing: only bytes neither this round nor the
                // (still running) missed attempt have landed. A clean
                // round, or one that made the message whole while the
                // attempt still lags, won the race.
                let prim = coalesce(residuals_of(&primary, 0).collect());
                pending = intersect(&pending, &prim);
                report.hedge_won = clean || (pending.is_empty() && !prim.is_empty());
            }
        }

        report.elapsed = eng.now().secs_since(t0);
        let hedge_won = report.hedge_won;
        if race && report.retries > 0 {
            if hedge_won {
                self.health().note_hedge_win();
            }
            self.instant(Phase::Hedge, pair, || {
                let name = if hedge_won { "hedge.win" } else { "hedge.loss" };
                let (rounds, bytes) = (report.retries, report.recovered_bytes);
                let us = report.elapsed * 1e6;
                let detail = format!("rounds={rounds} hedged_bytes={bytes} elapsed_us={us:.3}");
                (name, self.now(), detail)
            });
        }
        // Feed the whole transfer back against the plan it launched, so the
        // cache notices drift: after every transfer that may replace (a
        // clean one can still land far off its prediction) and after a race
        // that needed a round.
        if report.retries > 0 || !race && policy.retries > 0 {
            let (launch, at) = (Launch::Transfer { hedge_won }, self.now());
            let (predicted, measured) = (plan.predicted_time, report.elapsed);
            self.observe(&Observation(pair, n, launch, predicted, measured, at));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(seed: u64) -> Vec<f64> {
        let (mut state, mut slack) = (seed | 1, 4.0);
        (0..6)
            .map(|_| {
                slack = jittered_slack(slack, 4.0, &mut state);
                slack
            })
            .collect()
    }

    #[test]
    fn jitter_ladder_is_deterministic_and_bounded() {
        let a = ladder(42);
        assert_eq!(a, ladder(42), "same seed must replay the same ladder");
        assert_ne!(a, ladder(91), "different seeds must decorrelate");
        // Every step stays in [prev, prev·BACKOFF·(1+JITTER)] ∩ [0, cap].
        let mut prev = 4.0_f64;
        for &s in &a {
            assert!(s >= prev.min(MAX_SLACK), "slack regressed: {s} < {prev}");
            assert!(s <= (prev * BACKOFF * (1.0 + JITTER)).min(MAX_SLACK) + 1e-9);
            prev = s;
        }
    }

    #[test]
    fn jitter_caps_at_max_slack() {
        let mut state = 1u64;
        let mut slack = 4.0_f64;
        for _ in 0..20 {
            slack = jittered_slack(slack, 4.0, &mut state);
        }
        assert!(slack <= MAX_SLACK);
        // A base slack above the cap raises it.
        assert!(jittered_slack(1000.0, 1000.0, &mut state) <= 1000.0);
    }

    #[test]
    fn intersect_is_exact() {
        let r = |offset, bytes| Range { offset, bytes };
        let a = [r(0, 10), r(20, 10)];
        assert_eq!(intersect(&a, &[r(5, 20)]), vec![r(5, 5), r(20, 5)]);
        assert!(intersect(&a, &[]).is_empty());
        assert_eq!(intersect(&a, &a), a, "a coalesced list meets itself whole");
    }

    #[test]
    fn coalesce_merges_touching_and_overlapping_ranges() {
        let r = |offset, bytes| Range { offset, bytes };
        let merged = coalesce(vec![r(20, 5), r(0, 10), r(10, 4), r(12, 6)]);
        assert_eq!(merged, vec![r(0, 18), r(20, 5)]);
    }

    #[test]
    fn the_three_policies_keep_the_drivers_deadlines() {
        let p = TransferPolicy::PLAIN.deadline;
        for predicted in [1e-9, 1e-3, 2.0] {
            assert_eq!(p.budget(predicted), (predicted * 1024.0).max(1.0));
        }
        assert_eq!(TransferPolicy::RESILIENT.deadline.budget(1.0), 4.0);
        assert_eq!(TransferPolicy::HEDGED.deadline.budget(1.0), 1.5);
        assert_eq!(TransferPolicy::HEDGED.deadline.budget(1e-6), 1e-3);
        const { assert!(!TransferPolicy::RESILIENT.race && TransferPolicy::HEDGED.race) };
    }

    #[test]
    fn budget_is_predicted_times_slack_with_floor() {
        let p = DeadlinePolicy::new(4.0, 1e-3);
        assert_eq!(p.budget(1.0), 4.0);
        assert_eq!(p.budget(1e-6), 1e-3, "floor wins for tiny transfers");
    }

    #[test]
    fn slack_below_one_is_clamped() {
        let p = DeadlinePolicy::new(0.5, 0.0);
        assert_eq!(p.budget(2.0), 2.0, "budget never undercuts the prediction");
    }

    #[test]
    fn absolute_deadline_offsets_from_now() {
        let p = DeadlinePolicy::new(4.0, 1e-3);
        let now = SimTime::from_secs(2.0);
        let d = p.deadline(now, 0.5);
        assert!((d.secs_since(now) - 2.0).abs() < 1e-9);
    }
}
