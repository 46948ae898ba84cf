//! Sensitivity of the model's decisions to parameter error.
//!
//! The model is only as good as its `(α, β, ε)` inputs — calibration is a
//! measurement, and measurements drift (thermals, driver versions,
//! background load). This module quantifies the *regret* of planning
//! with perturbed parameters but executing on the true ones:
//!
//! ```text
//! regret(δ) = T(shares planned with params·(1+δ)) / T(optimal shares) − 1
//! ```
//!
//! evaluated analytically on the true affine laws. A small regret under
//! sizeable perturbation is what makes the paper's one-shot calibration
//! ("extracted once per system topology") viable in practice: uniform
//! calibration error cancels entirely (only relative path speeds matter),
//! and single-path error is attenuated by the share that path carries.

use crate::optimizer::{optimal_shares, OmegaDelta};
use mpx_topo::params::PathParams;

/// Which parameter family a perturbation scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    /// Scale every bandwidth `β` (and `β′`) by `1+δ`.
    Bandwidth,
    /// Scale every latency `α` (and `α′`, `ε`) by `1+δ`.
    Latency,
    /// Scale only the paths' *second* legs' bandwidths (mis-calibrated
    /// staging rates, the Narval-host failure mode).
    SecondLegBandwidth,
}

/// Applies a relative perturbation to a parameter set.
pub fn perturb(params: &[PathParams], what: Perturb, delta: f64) -> Vec<PathParams> {
    assert!(delta > -1.0, "perturbation must keep parameters positive");
    params
        .iter()
        .map(|p| {
            let mut q = *p;
            match what {
                Perturb::Bandwidth => {
                    q.first.beta *= 1.0 + delta;
                    if let Some(s) = q.second.as_mut() {
                        s.beta *= 1.0 + delta;
                    }
                }
                Perturb::Latency => {
                    q.first.alpha *= 1.0 + delta;
                    q.eps *= 1.0 + delta;
                    if let Some(s) = q.second.as_mut() {
                        s.alpha *= 1.0 + delta;
                    }
                }
                Perturb::SecondLegBandwidth => {
                    if let Some(s) = q.second.as_mut() {
                        s.beta *= 1.0 + delta;
                    }
                }
            }
            q
        })
        .collect()
}

/// Evaluates the makespan of a share vector on the *true* affine laws.
pub fn makespan(true_laws: &[OmegaDelta], shares: &[f64], n: f64) -> f64 {
    assert_eq!(true_laws.len(), shares.len());
    true_laws
        .iter()
        .zip(shares)
        .filter(|(_, s)| **s > 0.0)
        .map(|(p, s)| p.time(*s, n))
        .fold(0.0f64, f64::max)
}

/// The relative regret of planning with `planning_laws` but executing on
/// `true_laws` (both affine): 0 means the perturbed plan is still
/// optimal.
pub fn regret(true_laws: &[OmegaDelta], planning_laws: &[OmegaDelta], n: f64) -> f64 {
    let optimal = optimal_shares(true_laws, n);
    let planned = optimal_shares(planning_laws, n);
    let achieved = makespan(true_laws, &planned.shares, n);
    achieved / optimal.time - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::params::{extract_all, LegParams};
    use mpx_topo::path::{enumerate_paths, PathKind, PathSelection};
    use mpx_topo::presets;
    use mpx_topo::DeviceId;

    fn laws() -> Vec<OmegaDelta> {
        vec![
            OmegaDelta {
                omega: 1.0 / 48e9,
                delta: 3e-6,
            },
            OmegaDelta {
                omega: 1.05 / 48e9,
                delta: 9e-6,
            },
            OmegaDelta {
                omega: 1.0 / 10e9,
                delta: 15e-6,
            },
        ]
    }

    #[test]
    fn zero_perturbation_zero_regret() {
        let l = laws();
        assert!(regret(&l, &l, 64e6).abs() < 1e-12);
    }

    #[test]
    fn regret_is_nonnegative_and_grows_with_skew() {
        // Skew only one path's planning Ω: regret grows with the skew.
        let l = laws();
        let n = 64e6;
        let mut last = 0.0;
        for skew in [0.05, 0.1, 0.2, 0.4] {
            let mut planning = l.clone();
            planning[2].omega = l[2].omega / (1.0 + skew);
            let r = regret(&l, &planning, n);
            assert!(r >= -1e-12, "regret must be nonnegative, got {r}");
            assert!(
                r >= last - 1e-9,
                "regret should grow with skew: {r} after {last}"
            );
            last = r;
        }
        assert!(last > 0.001, "large skew must cost something: {last}");
    }

    #[test]
    fn error_is_attenuated_near_optimum() {
        // Mis-calibrating one path by 5% shifts only that path's share;
        // the makespan penalty is bounded by the share it carries, so the
        // regret stays well below the 5% input error.
        let l = laws();
        let mut planning = l.clone();
        planning[1].omega = l[1].omega * 1.05;
        let r = regret(&l, &planning, 128e6);
        assert!(
            r < 0.035,
            "5% single-path error should cost well under 5%, got {:.2}%",
            r * 100.0
        );
    }

    #[test]
    fn perturb_scales_the_right_fields() {
        let leg = LegParams {
            alpha: 1e-6,
            beta: 10e9,
        };
        let staged = PathParams::staged(PathKind::GpuStaged { via: DeviceId(2) }, leg, leg, 2e-6);
        let params = vec![PathParams::direct(2e-6, 48e9), staged];

        let b = perturb(&params, Perturb::Bandwidth, 0.5);
        assert_eq!(b[0].first.beta, 72e9);
        assert_eq!(b[1].second.unwrap().beta, 15e9);
        assert_eq!(b[0].first.alpha, 2e-6, "latency untouched");

        let l = perturb(&params, Perturb::Latency, 1.0);
        assert_eq!(l[0].first.alpha, 4e-6);
        assert_eq!(l[1].eps, 4e-6);
        assert_eq!(l[0].first.beta, 48e9, "bandwidth untouched");

        let s = perturb(&params, Perturb::SecondLegBandwidth, -0.5);
        assert_eq!(s[1].second.unwrap().beta, 5e9);
        assert_eq!(s[1].first.beta, 10e9);
        assert_eq!(s[0].first.beta, 48e9, "direct path has no second leg");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn perturb_rejects_total_collapse() {
        perturb(&[PathParams::direct(1e-6, 1e9)], Perturb::Bandwidth, -1.0);
    }

    #[test]
    fn beluga_end_to_end_sensitivity() {
        // Full-stack smoke: perturb the Beluga parameter set, plan with
        // it, evaluate the analytic regret on the true laws.
        let topo = presets::beluga();
        let gpus = topo.gpus();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::THREE_GPUS).unwrap();
        let true_params = extract_all(&topo, &paths).unwrap();
        let true_laws: Vec<OmegaDelta> = true_params
            .iter()
            .map(|p| OmegaDelta {
                omega: p.omega_unpipelined(),
                delta: p.delta_unpipelined(),
            })
            .collect();
        let bad = perturb(&true_params, Perturb::SecondLegBandwidth, -0.3);
        let bad_laws: Vec<OmegaDelta> = bad
            .iter()
            .map(|p| OmegaDelta {
                omega: p.omega_unpipelined(),
                delta: p.delta_unpipelined(),
            })
            .collect();
        let r = regret(&true_laws, &bad_laws, 256e6);
        assert!((0.0..0.15).contains(&r), "regret {r}");
    }
}
