//! Pipelined staged transfers (paper Section 3.4, Eqs. 12–23).
//!
//! A staged path moves its share in `k` chunks through the three-step
//! loop *copy to staging → sync → copy to destination*. With pipelining
//! the two legs overlap; the slower leg paces the pipeline and the faster
//! leg contributes one chunk of exposed time (Eq. 13). The optimal chunk
//! count balances per-chunk startup cost against the exposed remainder
//! (Eqs. 14/15); because the resulting per-path time is no longer affine
//! in `θ`, the paper linearizes it through topology constants `φ`
//! (Eqs. 19–22) so the share optimizer keeps its closed form.

use crate::optimizer::OmegaDelta;
use mpx_topo::params::PathParams;
use mpx_topo::units::Secs;

/// Which leg paces a pipelined staged path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// `β < β′`: the source→staging leg is slower (Eq. 13 case 1).
    FirstLeg,
    /// `β ≥ β′`: the staging→destination leg is slower (case 2).
    SecondLeg,
}

/// Case split of Eq. (13): which leg limits the pipeline.
///
/// # Panics
/// Panics on a direct (single-leg) path.
pub fn bottleneck(p: &PathParams) -> Bottleneck {
    let second = p.second.expect("pipelining applies to staged paths only");
    if p.first.beta < second.beta {
        Bottleneck::FirstLeg
    } else {
        Bottleneck::SecondLeg
    }
}

/// Exact optimal chunk count (Eqs. 14/15), continuous (not yet clamped or
/// rounded): `√(θn/(αβ′))` or `√(θn/(β(ε+α′)))`.
pub fn optimal_chunks_exact(p: &PathParams, theta: f64, n: f64) -> f64 {
    let second = p.second.expect("pipelining applies to staged paths only");
    let load = theta * n;
    match bottleneck(p) {
        Bottleneck::FirstLeg => (load / (p.first.alpha * second.beta)).sqrt(),
        Bottleneck::SecondLeg => (load / (p.first.beta * (p.eps + second.alpha))).sqrt(),
    }
}

/// The integer chunk count the pipeline engine actually uses: the exact
/// optimum rounded and clamped to `[1, max_chunks]`.
pub fn chunk_count(p: &PathParams, theta: f64, n: f64, max_chunks: u32) -> u32 {
    if theta <= 0.0 || n <= 0.0 {
        return 1;
    }
    let k = optimal_chunks_exact(p, theta, n).round();
    (k as u32).clamp(1, max_chunks.max(1))
}

/// Exact pipelined path time for a given integer chunk count (Eq. 13).
pub fn time_pipelined(p: &PathParams, theta: f64, n: f64, k: u32) -> Secs {
    let second = p.second.expect("pipelining applies to staged paths only");
    let k = k.max(1) as f64;
    let chunk = theta * n / k;
    match bottleneck(p) {
        Bottleneck::FirstLeg => {
            k * (p.first.alpha + chunk / p.first.beta) + p.eps + second.alpha + chunk / second.beta
        }
        Bottleneck::SecondLeg => {
            p.first.alpha + chunk / p.first.beta + k * (p.eps + second.alpha + chunk / second.beta)
        }
    }
}

/// Exact pipelined path time at the *continuous-optimal* chunk count
/// (Eqs. 17/18): `2√(θnα/β′) + θn/β + ε + α′` (case 1) and symmetrically
/// for case 2.
pub fn time_pipelined_opt(p: &PathParams, theta: f64, n: f64) -> Secs {
    let second = p.second.expect("pipelining applies to staged paths only");
    let load = theta * n;
    match bottleneck(p) {
        Bottleneck::FirstLeg => {
            2.0 * (load * p.first.alpha / second.beta).sqrt()
                + load / p.first.beta
                + p.eps
                + second.alpha
        }
        Bottleneck::SecondLeg => {
            2.0 * (load * (p.eps + second.alpha) / p.first.beta).sqrt()
                + load / second.beta
                + p.first.alpha
        }
    }
}

/// The φ-linearized law of a pipelined staged path (Eqs. 19 and 22) at
/// reference share `θ_ref`, with every term that does not depend on the
/// message size computed once.
///
/// With `cost` the per-chunk startup product of Eqs. 14/15 (`α·β′` or
/// `β(ε+α′)`), the topology constant at `n` bytes is `φ = 1/√x_ref`,
/// `x_ref = θ_ref·n / cost`: the linear chunk law `k = φ·x` meets the
/// exact optimum `k = √x` at the reference point. The paper's "constants
/// in the form of c·f(n)" are exactly this: `φ` depends on the topology
/// through `(α, β′, ε)` and on the operating point through `√(θ_ref·n)`.
/// The affine coefficients are then
///
/// * case 1 (`β < β′`): `Ω = 1/β + φ/β′`, `Δ = ε + α′ + α/φ`;
/// * case 2 (`β ≥ β′`): `Ω = 1/β′ + φ/β`, `Δ = α + (ε + α′)/φ`.
#[derive(Debug, Clone, Copy)]
pub struct PipelinedLaw {
    theta_ref: f64,
    /// `α·β′` or `β(ε+α′)`.
    cost: f64,
    /// `1/β` or `1/β′`: the bottleneck leg's per-byte time.
    omega: f64,
    /// `β′` or `β`: what `φ` is divided by in `Ω`.
    omega_div: f64,
    /// `ε + α′` or `α`: the fixed part of `Δ`.
    delta: f64,
    /// `α` or `ε + α′`: what is divided by `φ` in `Δ`.
    delta_num: f64,
}

impl PipelinedLaw {
    /// The law of staged path `p` linearized at reference share
    /// `theta_ref`.
    ///
    /// # Panics
    /// Panics on a direct (single-leg) path.
    pub fn new(p: &PathParams, theta_ref: f64) -> PipelinedLaw {
        let second = p.second.expect("pipelining applies to staged paths only");
        let eps_alpha = p.eps + second.alpha;
        let (cost, omega, omega_div, delta, delta_num) = match bottleneck(p) {
            Bottleneck::FirstLeg => (
                p.first.alpha * second.beta,
                1.0 / p.first.beta,
                second.beta,
                eps_alpha,
                p.first.alpha,
            ),
            Bottleneck::SecondLeg => (
                p.first.beta * eps_alpha,
                1.0 / second.beta,
                p.first.beta,
                p.first.alpha,
                eps_alpha,
            ),
        };
        PipelinedLaw {
            theta_ref,
            cost,
            omega,
            omega_div,
            delta,
            delta_num,
        }
    }

    /// Topology constant `φ` (Eq. 19) at `n` bytes.
    pub fn phi(&self, n: f64) -> f64 {
        let x = self.theta_ref * n / self.cost;
        if !x.is_finite() {
            // Zero per-chunk cost (α = 0 or ε + α′ = 0): the optimum is
            // infinitely fine chunking; a vanishing φ makes the linearized
            // law degenerate to the bottleneck-leg rate with zero fixed
            // cost, which is the correct limit.
            1e-12
        } else if x <= 0.0 {
            1.0
        } else {
            1.0 / x.sqrt()
        }
    }

    /// The linearized affine coefficients `Ω, Δ` at `n` bytes (Eq. 22).
    #[inline]
    pub fn at(&self, n: f64) -> OmegaDelta {
        let phi = self.phi(n);
        OmegaDelta {
            omega: self.omega + phi / self.omega_div,
            delta: self.delta + self.delta_num / phi,
        }
    }
}

/// The un-pipelined affine coefficients (Eq. 11's `Ω, Δ`; also covers
/// direct paths where they degenerate to `1/β, α`).
pub fn omega_delta_unpipelined(p: &PathParams) -> OmegaDelta {
    OmegaDelta {
        omega: p.omega_unpipelined(),
        delta: p.delta_unpipelined(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::params::LegParams;
    use mpx_topo::path::PathKind;
    use mpx_topo::units::gb_per_s;
    use mpx_topo::DeviceId;

    fn staged(a1: f64, b1: f64, eps: f64, a2: f64, b2: f64) -> PathParams {
        PathParams::staged(
            PathKind::GpuStaged { via: DeviceId(2) },
            LegParams {
                alpha: a1,
                beta: b1,
            },
            LegParams {
                alpha: a2,
                beta: b2,
            },
            eps,
        )
    }

    #[test]
    fn bottleneck_case_split() {
        let p1 = staged(1e-6, gb_per_s(10.0), 0.0, 1e-6, gb_per_s(50.0));
        assert_eq!(bottleneck(&p1), Bottleneck::FirstLeg);
        let p2 = staged(1e-6, gb_per_s(50.0), 0.0, 1e-6, gb_per_s(10.0));
        assert_eq!(bottleneck(&p2), Bottleneck::SecondLeg);
        // Equal bandwidths fall to case 2 (β ≥ β′), as in Eq. 13.
        let p3 = staged(1e-6, gb_per_s(48.0), 0.0, 1e-6, gb_per_s(48.0));
        assert_eq!(bottleneck(&p3), Bottleneck::SecondLeg);
    }

    #[test]
    fn exact_chunks_formula_case1() {
        // k = sqrt(θn / (α β')): α·β' = 1e-6 · 50e9 = 5e4; with θn = 1e5
        // the ratio is 2, so k = √2.
        let p = staged(1e-6, gb_per_s(10.0), 0.0, 1e-6, gb_per_s(50.0));
        let k = optimal_chunks_exact(&p, 1.0, 1e5);
        assert!((k - 2.0f64.sqrt()).abs() < 1e-12, "k = {k}");
    }

    #[test]
    fn exact_chunks_formula_case2() {
        // k = sqrt(θn / (β (ε+α'))): β·(ε+α') = 50e9 · 2e-6 = 1e5; with
        // θn = 1e5 the ratio is 1, so k = 1.
        let p = staged(1e-6, gb_per_s(50.0), 1e-6, 1e-6, gb_per_s(10.0));
        let k = optimal_chunks_exact(&p, 1.0, 1e5);
        assert!((k - 1.0).abs() < 1e-12, "k = {k}");
    }

    #[test]
    fn chunk_count_clamps() {
        let p = staged(1e-9, gb_per_s(10.0), 0.0, 1e-9, gb_per_s(50.0));
        assert_eq!(chunk_count(&p, 1.0, 1e12, 64), 64);
        assert_eq!(chunk_count(&p, 0.0, 1e12, 64), 1);
        let tiny = chunk_count(&p, 1e-12, 1.0, 64);
        assert_eq!(tiny, 1);
    }

    #[test]
    fn pipelining_beats_unpipelined_for_large_messages() {
        let p = staged(2e-6, gb_per_s(48.0), 4e-6, 2e-6, gb_per_s(48.0));
        let n = 64e6;
        let un = p.time_unpipelined(n);
        let k = chunk_count(&p, 1.0, n, 64);
        let piped = time_pipelined(&p, 1.0, n, k);
        assert!(
            piped < un,
            "pipelined {piped} should beat unpipelined {un} (k={k})"
        );
        // The pipeline can at best hide one full leg: never better than
        // the bottleneck leg alone.
        let floor = n / 48e9;
        assert!(piped > floor);
    }

    #[test]
    fn discrete_k_near_continuous_optimum() {
        let p = staged(2e-6, gb_per_s(12.0), 4e-6, 2e-6, gb_per_s(48.0));
        let n = 32e6;
        let k = chunk_count(&p, 1.0, n, 1024);
        let t_discrete = time_pipelined(&p, 1.0, n, k);
        let t_cont = time_pipelined_opt(&p, 1.0, n);
        assert!(t_discrete >= t_cont - 1e-12, "continuous bound violated");
        assert!(
            t_discrete < t_cont * 1.02,
            "rounded k loses too much: {t_discrete} vs {t_cont}"
        );
    }

    #[test]
    fn continuous_optimum_is_a_lower_envelope() {
        let p = staged(3e-6, gb_per_s(24.0), 5e-6, 2e-6, gb_per_s(12.0));
        let n = 16e6;
        let t_opt = time_pipelined_opt(&p, 1.0, n);
        for k in [1u32, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            let t = time_pipelined(&p, 1.0, n, k);
            assert!(
                t >= t_opt - 1e-12,
                "k={k}: {t} below continuous optimum {t_opt}"
            );
        }
    }

    #[test]
    fn phi_linearization_exact_at_reference_point() {
        // At θ = θ_ref the linearized affine law (Eq. 22) must reproduce
        // the exact continuous-optimal time (Eq. 17/18).
        for p in [
            staged(2e-6, gb_per_s(12.0), 4e-6, 2e-6, gb_per_s(48.0)), // case 1
            staged(2e-6, gb_per_s(48.0), 4e-6, 2e-6, gb_per_s(12.0)), // case 2
        ] {
            let n = 64e6;
            let theta = 0.4;
            let od = PipelinedLaw::new(&p, theta).at(n);
            let linear = od.time(theta, n);
            let exact = time_pipelined_opt(&p, theta, n);
            assert!(
                (linear - exact).abs() < 1e-12 * exact,
                "linear {linear} vs exact {exact}"
            );
        }
    }

    #[test]
    fn phi_linearization_close_off_reference() {
        let p = staged(2e-6, gb_per_s(12.0), 4e-6, 2e-6, gb_per_s(48.0));
        let n = 64e6;
        let od = PipelinedLaw::new(&p, 0.5).at(n);
        for theta in [0.25, 0.4, 0.6, 0.75] {
            let linear = od.time(theta, n);
            let exact = time_pipelined_opt(&p, theta, n);
            let rel = (linear - exact).abs() / exact;
            assert!(rel < 0.10, "theta={theta}: rel error {rel}");
        }
    }

    #[test]
    fn unpipelined_omega_delta_degenerates_for_direct() {
        let p = PathParams::direct(2e-6, gb_per_s(48.0));
        let od = omega_delta_unpipelined(&p);
        assert!((od.omega - 1.0 / 48e9).abs() < 1e-24);
        assert!((od.delta - 2e-6).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "staged paths only")]
    fn pipelining_direct_path_panics() {
        let p = PathParams::direct(2e-6, gb_per_s(48.0));
        optimal_chunks_exact(&p, 1.0, 1e6);
    }
}
