//! Optimal message-share computation (paper Sections 3.2–3.4).
//!
//! Every variant of the model reduces a path to an affine time law
//! `Tᵢ(θᵢ) = θᵢ·n·Ωᵢ + Δᵢ` (Eq. 21) — direct paths via `Ωᵢ = 1/βᵢ,
//! Δᵢ = αᵢ`, staged paths via Eq. (11)'s definitions, pipelined staged
//! paths via the φ-linearized Eq. (22). Minimizing `max_i Tᵢ` subject to
//! `Σθᵢ = 1, θᵢ ≥ 0` is then solved two ways:
//!
//! * [`optimal_shares`] — the paper's closed form (Eq. 24), extended with
//!   the exclusion loop Algorithm 1 implies ("any path, except the direct
//!   one, may be excluded"): paths whose closed-form share is negative
//!   (their `Δᵢ` exceeds the equalized time at this message size) are
//!   dropped and the remainder re-solved.
//! * [`optimal_shares_bisection`] — an independent numeric reference:
//!   for a candidate completion time `T`, each path can absorb
//!   `θᵢ(T) = max(0, (T−Δᵢ)/(n·Ωᵢ))`; `Σθᵢ(T)` is continuous and
//!   increasing in `T`, so the optimal `T` is found by bisection. Tests
//!   assert both agree, which is the computational content of Theorem 1.

use serde::{Deserialize, Serialize};

/// The affine coefficients of one path's time law `T(θ) = θ·n·Ω + Δ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OmegaDelta {
    /// Per-byte cost `Ω` (s/byte): `1/β` for direct paths, `1/β + 1/β′`
    /// unpipelined staged, Eq. (22) pipelined.
    pub omega: f64,
    /// Fixed cost `Δ` (s): `α`, `α + α′ + ε`, or Eq. (22).
    pub delta: f64,
}

impl OmegaDelta {
    /// Time to move a `theta` fraction of an `n`-byte message.
    #[inline]
    pub fn time(&self, theta: f64, n: f64) -> f64 {
        theta * n * self.omega + self.delta
    }
}

/// Result of a share optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareSolution {
    /// Per-path share `θᵢ ∈ [0, 1]`, summing to 1. Excluded paths have 0.
    pub shares: Vec<f64>,
    /// The equalized (= maximal) per-path completion time.
    pub time: f64,
}

impl ShareSolution {
    /// Predicted aggregate bandwidth `n / T` in bytes/s.
    pub fn bandwidth(&self, n: f64) -> f64 {
        n / self.time
    }
}

/// Closed-form optimal shares (Eq. 24) with the exclusion loop.
///
/// By convention `paths[0]` is the direct path; on physical topologies it
/// has the smallest `Δ` and is therefore never excluded, matching the
/// paper's statement that only non-direct paths can drop out.
///
/// ```
/// use mpx_model::{optimal_shares, OmegaDelta};
/// // A 48 GB/s direct link and a 12 GB/s detour with 20 µs of setup.
/// let paths = [
///     OmegaDelta { omega: 1.0 / 48e9, delta: 2e-6 },
///     OmegaDelta { omega: 1.0 / 12e9, delta: 20e-6 },
/// ];
/// let sol = optimal_shares(&paths, 64e6);
/// assert!(sol.shares[0] > sol.shares[1]); // bandwidth-proportional-ish
/// assert!((sol.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// // Both active paths finish at the equalized time (Theorem 1).
/// assert!((paths[0].time(sol.shares[0], 64e6) - sol.time).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics if `paths` is empty, `n ≤ 0`, or any `Ωᵢ ≤ 0` / `Δᵢ < 0`.
pub fn optimal_shares(paths: &[OmegaDelta], n: f64) -> ShareSolution {
    let mut shares = vec![0.0; paths.len()];
    let time = equalize(paths, n, &mut vec![true; paths.len()], &mut shares);
    ShareSolution { shares, time }
}

/// [`optimal_shares`] on caller storage (one slot per path in `included`
/// and `shares`): writes the shares and returns the equalized time. The
/// planner runs it on the stack, once per straggler round.
pub(crate) fn equalize(
    paths: &[OmegaDelta],
    n: f64,
    included: &mut [bool],
    shares: &mut [f64],
) -> f64 {
    validate(paths, n);
    included.fill(true);
    loop {
        // Eq. (24) over the included paths: S = Σ 1/Ωⱼ, D = Σ Δⱼ/Ωⱼ.
        let (mut s, mut d) = (0.0, 0.0);
        for (p, _) in paths.iter().zip(&*included).filter(|(_, &inc)| inc) {
            s += 1.0 / p.omega;
            d += p.delta / p.omega;
        }
        let d_n = d / n;
        // Drop the most negative share and re-solve. (In the paper only
        // non-direct paths can be excluded; that holds automatically on
        // real topologies because the direct path has the smallest Δ, but
        // the solver stays correct for adversarial inputs by allowing any
        // exclusion — except the last remaining path.)
        let (mut worst, mut count): (Option<(usize, f64)>, usize) = (None, 0);
        for (i, p) in paths.iter().enumerate().filter(|&(i, _)| included[i]) {
            let theta = (1.0 - p.delta / n * s + d_n) / (p.omega * s);
            shares[i] = theta;
            count += 1;
            if theta < 0.0 && worst.is_none_or(|(_, w)| theta < w) {
                worst = Some((i, theta));
            }
        }
        match worst {
            Some((i, _)) if count > 1 => included[i] = false,
            _ => break,
        }
    }
    for (s, &inc) in shares.iter_mut().zip(&*included) {
        *s = if inc { s.max(0.0) } else { 0.0 };
    }
    // Normalize away rounding residue.
    let sum: f64 = shares.iter().sum();
    debug_assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    for s in shares.iter_mut() {
        *s /= sum;
    }
    (shares.iter().zip(paths))
        .filter(|(s, _)| **s > 0.0)
        .map(|(s, p)| p.time(*s, n))
        .fold(0.0f64, f64::max)
}

/// Numeric reference solver: bisection on the completion time `T`.
///
/// At a given `T`, path `i` can carry `θᵢ(T) = max(0, (T−Δᵢ)/(n·Ωᵢ))`.
/// The total is continuous, non-decreasing and unbounded in `T`, so the
/// unique `T*` with `Σθᵢ(T*) = 1` is the optimum (this is the
/// "water-filling" reading of Theorem 1).
pub fn optimal_shares_bisection(paths: &[OmegaDelta], n: f64) -> ShareSolution {
    validate(paths, n);
    let total_at = |t: f64| -> f64 {
        paths
            .iter()
            .map(|p| ((t - p.delta) / (n * p.omega)).max(0.0))
            .sum()
    };
    // Bracket: at T = min Δ the total is 0; grow until ≥ 1.
    let mut lo = paths.iter().map(|p| p.delta).fold(f64::INFINITY, f64::min);
    let mut hi = lo.max(1e-12) * 2.0 + n * paths[0].omega + paths[0].delta;
    while total_at(hi) < 1.0 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if total_at(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-18 + 1e-15 * hi {
            break;
        }
    }
    let t = hi;
    let mut shares: Vec<f64> = paths
        .iter()
        .map(|p| ((t - p.delta) / (n * p.omega)).max(0.0))
        .collect();
    let sum: f64 = shares.iter().sum();
    for s in &mut shares {
        *s /= sum;
    }
    ShareSolution { shares, time: t }
}

fn validate(paths: &[OmegaDelta], n: f64) {
    assert!(!paths.is_empty(), "no candidate paths");
    assert!(n > 0.0 && n.is_finite(), "invalid message size {n}");
    for (i, p) in paths.iter().enumerate() {
        assert!(
            p.omega > 0.0 && p.omega.is_finite(),
            "path {i}: invalid omega {}",
            p.omega
        );
        assert!(
            p.delta >= 0.0 && p.delta.is_finite(),
            "path {i}: invalid delta {}",
            p.delta
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn od(omega: f64, delta: f64) -> OmegaDelta {
        OmegaDelta { omega, delta }
    }

    /// Direct Eq. (8) check: two direct paths with zero latency split
    /// proportionally to bandwidth.
    #[test]
    fn zero_latency_split_is_bandwidth_proportional() {
        // β₁ = 30 GB/s, β₂ = 10 GB/s → θ = (0.75, 0.25).
        let paths = [od(1.0 / 30e9, 0.0), od(1.0 / 10e9, 0.0)];
        let sol = optimal_shares(&paths, 1e9);
        assert!((sol.shares[0] - 0.75).abs() < 1e-12);
        assert!((sol.shares[1] - 0.25).abs() < 1e-12);
        // Equalized time: 0.75 GB / 30 GB/s = 25 ms.
        assert!((sol.time - 0.025).abs() < 1e-12);
    }

    #[test]
    fn single_path_gets_everything() {
        let sol = optimal_shares(&[od(1.0 / 50e9, 2e-6)], 1e8);
        assert_eq!(sol.shares, vec![1.0]);
        assert!((sol.time - (2e-6 + 1e8 / 50e9)).abs() < 1e-12);
    }

    /// Theorem 1: at the optimum, per-path times are equal for all paths
    /// carrying a positive share.
    #[test]
    fn optimal_times_are_equal_across_active_paths() {
        let paths = [
            od(1.0 / 48e9, 3e-6),
            od(1.0 / 48e9 + 0.2 / 48e9, 9e-6),
            od(1.0 / 12e9 + 1.0 / 12e9, 15e-6),
        ];
        let n = 64e6;
        let sol = optimal_shares(&paths, n);
        let times: Vec<f64> = paths
            .iter()
            .zip(&sol.shares)
            .filter(|(_, s)| **s > 0.0)
            .map(|(p, s)| p.time(*s, n))
            .collect();
        for t in &times {
            assert!(
                (t - sol.time).abs() < 1e-12 * sol.time.max(1.0),
                "times {times:?} not equalized at {}",
                sol.time
            );
        }
    }

    /// Perturbation check of optimality: moving mass between any two
    /// active paths cannot reduce the makespan.
    #[test]
    fn perturbations_do_not_improve() {
        let paths = [
            od(1.0 / 48e9, 3e-6),
            od(1.0 / 40e9, 8e-6),
            od(1.0 / 10e9, 20e-6),
        ];
        let n = 16e6;
        let sol = optimal_shares(&paths, n);
        let makespan = |shares: &[f64]| -> f64 {
            shares
                .iter()
                .zip(&paths)
                .filter(|(s, _)| **s > 0.0)
                .map(|(s, p)| p.time(*s, n))
                .fold(0.0f64, f64::max)
        };
        let base = makespan(&sol.shares);
        let eps = 1e-3;
        for i in 0..paths.len() {
            for j in 0..paths.len() {
                if i == j || sol.shares[i] < eps {
                    continue;
                }
                let mut s = sol.shares.clone();
                s[i] -= eps;
                s[j] += eps;
                assert!(
                    makespan(&s) >= base - 1e-15,
                    "moving {eps} from {i} to {j} improved the makespan"
                );
            }
        }
    }

    /// Exclusion: at small n a high-Δ path must receive zero share, and
    /// the direct path is never dropped.
    #[test]
    fn expensive_path_excluded_for_small_messages() {
        let paths = [
            od(1.0 / 48e9, 2e-6),
            od(1.0 / 12e9, 500e-6), // huge startup cost
        ];
        let n = 4096.0;
        let sol = optimal_shares(&paths, n);
        assert_eq!(sol.shares[1], 0.0, "host path must be excluded");
        assert!((sol.shares[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn excluded_path_rejoins_for_large_messages() {
        let paths = [od(1.0 / 48e9, 2e-6), od(1.0 / 12e9, 500e-6)];
        let sol = optimal_shares(&paths, 1e9);
        assert!(sol.shares[1] > 0.0, "large n should re-include the path");
    }

    /// The closed form (Eq. 24) and the bisection reference must agree.
    #[test]
    fn closed_form_matches_bisection() {
        let cases: Vec<Vec<OmegaDelta>> = vec![
            vec![od(1.0 / 48e9, 3e-6), od(1.0 / 48e9, 9e-6)],
            vec![
                od(1.0 / 48e9, 3e-6),
                od(1.05 / 48e9, 9e-6),
                od(1.05 / 48e9, 9e-6),
                od(1.0 / 6e9, 20e-6),
            ],
            vec![od(1.0 / 96e9, 1.5e-6), od(1.0 / 10e9, 300e-6)],
        ];
        for paths in &cases {
            for n in [64e3, 1e6, 16e6, 256e6, 512e6] {
                let a = optimal_shares(paths, n);
                let b = optimal_shares_bisection(paths, n);
                assert!(
                    (a.time - b.time).abs() < 1e-9 * b.time,
                    "time mismatch at n={n}: {} vs {}",
                    a.time,
                    b.time
                );
                for (x, y) in a.shares.iter().zip(&b.shares) {
                    assert!(
                        (x - y).abs() < 1e-6,
                        "shares {:?} vs {:?}",
                        a.shares,
                        b.shares
                    );
                }
            }
        }
    }

    #[test]
    fn equal_paths_split_equally() {
        let p = od(1.0 / 48e9, 5e-6);
        let sol = optimal_shares(&[p, p, p, p], 64e6);
        for s in &sol.shares {
            assert!((s - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_bandwidth_gets_larger_share() {
        let paths = [od(1.0 / 96e9, 2e-6), od(1.0 / 12e9, 2e-6)];
        let sol = optimal_shares(&paths, 256e6);
        assert!(sol.shares[0] > sol.shares[1]);
        // With equal latencies the split is exactly β-proportional.
        assert!((sol.shares[0] / sol.shares[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn higher_latency_gets_smaller_share() {
        let paths = [od(1.0 / 48e9, 2e-6), od(1.0 / 48e9, 50e-6)];
        let sol = optimal_shares(&paths, 8e6);
        assert!(sol.shares[0] > sol.shares[1]);
    }

    #[test]
    fn shares_sum_to_one() {
        let paths = [
            od(1.0 / 48e9, 3e-6),
            od(1.1 / 48e9, 9e-6),
            od(1.0 / 6e9, 250e-6),
        ];
        for n in [4e3, 1e6, 64e6, 512e6] {
            let sol = optimal_shares(&paths, n);
            let sum: f64 = sol.shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "n={n}: sum={sum}");
        }
    }

    #[test]
    #[should_panic(expected = "no candidate paths")]
    fn empty_paths_panics() {
        optimal_shares(&[], 1e6);
    }

    #[test]
    #[should_panic(expected = "invalid message size")]
    fn zero_n_panics() {
        optimal_shares(&[od(1e-9, 0.0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid omega")]
    fn non_positive_omega_panics() {
        optimal_shares(&[od(0.0, 0.0)], 1e6);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_paths() -> impl Strategy<Value = Vec<OmegaDelta>> {
            proptest::collection::vec(
                (1.0f64..100.0, 0.0f64..1e-3)
                    .prop_map(|(gbps, delta)| od(1.0 / (gbps * 1e9), delta)),
                1..6,
            )
        }

        proptest! {
            #[test]
            fn solution_is_a_distribution(paths in arb_paths(), n in 1e3f64..1e9) {
                let sol = optimal_shares(&paths, n);
                let sum: f64 = sol.shares.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
                for s in &sol.shares {
                    prop_assert!(*s >= 0.0 && *s <= 1.0 + 1e-9);
                }
            }

            #[test]
            fn never_worse_than_direct_only(paths in arb_paths(), n in 1e3f64..1e9) {
                let sol = optimal_shares(&paths, n);
                let direct_only = paths[0].time(1.0, n);
                prop_assert!(sol.time <= direct_only * (1.0 + 1e-9),
                    "multi-path {} worse than direct {}", sol.time, direct_only);
            }

            #[test]
            fn agrees_with_bisection(paths in arb_paths(), n in 1e3f64..1e9) {
                let a = optimal_shares(&paths, n);
                let b = optimal_shares_bisection(&paths, n);
                prop_assert!((a.time - b.time).abs() < 1e-6 * b.time.max(1e-12),
                    "{} vs {}", a.time, b.time);
            }

            #[test]
            fn active_paths_have_equal_times(paths in arb_paths(), n in 1e3f64..1e9) {
                let sol = optimal_shares(&paths, n);
                for (p, s) in paths.iter().zip(&sol.shares) {
                    if *s > 1e-9 {
                        let t = p.time(*s, n);
                        prop_assert!((t - sol.time).abs() < 1e-9 * sol.time.max(1e-12),
                            "active path time {t} != equalized {}", sol.time);
                    }
                }
            }
        }
    }
}
