//! The classical Hockney model (Eq. 1) and small helpers shared by the
//! rest of the crate.

use mpx_topo::units::{Bandwidth, Secs};

/// Hockney's linear law: `T = α + n/β` (Eq. 1).
#[inline]
pub fn hockney_time(alpha: Secs, beta: Bandwidth, bytes: f64) -> Secs {
    alpha + bytes / beta
}

/// The effective bandwidth `n / T(n)` of a Hockney channel — asymptotes
/// to `β` as `n → ∞`.
#[inline]
pub fn effective_bandwidth(alpha: Secs, beta: Bandwidth, bytes: f64) -> Bandwidth {
    bytes / hockney_time(alpha, beta, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::units::gb_per_s;

    #[test]
    fn time_is_affine() {
        let t = hockney_time(2e-6, gb_per_s(50.0), 50e9);
        assert!((t - 1.000002).abs() < 1e-9);
    }

    #[test]
    fn effective_bandwidth_asymptote() {
        let beta = gb_per_s(48.0);
        let small = effective_bandwidth(2e-6, beta, 4096.0);
        let large = effective_bandwidth(2e-6, beta, 1e12);
        assert!(small < 0.1 * beta);
        assert!(large > 0.999 * beta);
    }

    /// At the half-performance size `n½ = α·β` the channel reaches half
    /// its asymptotic bandwidth.
    #[test]
    fn half_performance_point() {
        let alpha = 2e-6;
        let beta = gb_per_s(48.0);
        let bw = effective_bandwidth(alpha, beta, alpha * beta);
        assert!((bw - beta / 2.0).abs() < 1e-3 * beta);
    }
}
