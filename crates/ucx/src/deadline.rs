//! The one deadline rule of the stack: `predicted × slack`, floored.
//!
//! Three layers used to derive completion deadlines from the model's
//! prediction with their own inline arithmetic: the recovery loop
//! (`predicted × slack` with a `min_deadline` floor), the hedging layer
//! (`predicted × factor` with a `min_trigger` floor), and the plain
//! blocking PUT (`predicted × 1024` with a one-second floor). A
//! [`DeadlinePolicy`] captures that rule once, so every consumer derives
//! budgets from the same two numbers and backs off by scaling the same
//! policy rather than re-deriving the formula.

use mpx_sim::SimTime;
use mpx_topo::units::Secs;

/// A deadline rule: a transfer predicted to take `t` seconds gets a
/// budget of `max(t × slack, floor)` seconds. Backoff is expressed by
/// [`DeadlinePolicy::scaled`], which multiplies the slack and keeps the
/// floor — the shape every retry ladder in the stack follows.
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
    /// The plain blocking PUT's stuck detector: three orders of
    /// magnitude of slack with a one-second floor. Anything later than
    /// this is a degraded fabric, not noise.
    pub const STUCK: DeadlinePolicy = DeadlinePolicy {
        slack: 1024.0,
        floor: 1.0,
    };

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

    /// The same rule with the slack scaled by `factor` (floor kept) —
    /// how retry and hedge ladders back off without re-deriving the
    /// formula.
    pub fn scaled(&self, factor: f64) -> DeadlinePolicy {
        DeadlinePolicy {
            slack: self.slack * factor.max(0.0),
            floor: self.floor,
        }
    }
}

impl crate::health::HedgeConfig {
    /// This configuration's hedge-trigger rule (round `k` scales it by
    /// `backoff^(k-1)`).
    pub fn trigger_policy(&self) -> DeadlinePolicy {
        DeadlinePolicy::new(self.factor, self.min_trigger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HedgeConfig;

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
    fn scaled_multiplies_slack_and_keeps_floor() {
        let p = DeadlinePolicy::new(2.0, 1e-3).scaled(3.0);
        assert_eq!(p.slack, 6.0);
        assert_eq!(p.floor, 1e-3);
        assert_eq!(p.budget(1.0), 6.0);
    }

    #[test]
    fn hedge_policy_matches_the_historic_formula() {
        let hcfg = HedgeConfig::default();
        let p = hcfg.trigger_policy();
        for predicted in [1e-6, 1e-3, 0.5] {
            assert_eq!(
                p.budget(predicted),
                (predicted * hcfg.factor.max(1.0)).max(hcfg.min_trigger)
            );
        }
    }

    #[test]
    fn stuck_policy_matches_plain_put() {
        for predicted in [1e-9, 1e-3, 2.0] {
            assert_eq!(
                DeadlinePolicy::STUCK.budget(predicted),
                (predicted * 1024.0).max(1.0)
            );
        }
    }

    #[test]
    fn absolute_deadline_offsets_from_now() {
        let p = DeadlinePolicy::new(4.0, 1e-3);
        let now = SimTime::from_secs(2.0);
        let d = p.deadline(now, 0.5);
        assert!((d.secs_since(now) - 2.0).abs() < 1e-9);
    }
}
