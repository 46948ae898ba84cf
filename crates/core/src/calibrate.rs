//! Fitting Hockney parameters from measurements (paper Fig. 2(a) Step 1:
//! "performance model parameters are extracted once per system topology").
//!
//! A sweep of `(message size, completion time)` probe samples on one link
//! is fit to `t = α + n/β` by ordinary least squares. The slope gives the
//! asymptotic inverse bandwidth, the intercept the startup latency.

use mpx_topo::params::LegParams;
use mpx_topo::units::Secs;
use std::fmt;

/// Why a calibration failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// Fewer than two distinct message sizes.
    NotEnoughSamples,
    /// The fitted slope was non-positive (noise dominates, or the samples
    /// are degenerate).
    NonPositiveSlope(f64),
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::NotEnoughSamples => {
                write!(f, "need at least two samples with distinct sizes")
            }
            CalibrationError::NonPositiveSlope(s) => {
                write!(f, "fitted slope {s} is not positive")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Least-squares fit of `t = α + n/β` over `(bytes, seconds)` samples.
/// The fitted `α` is clamped to zero from below (a tiny negative
/// intercept is measurement noise, and a negative startup latency would
/// poison the share optimizer).
pub fn fit_hockney(samples: &[(f64, Secs)]) -> Result<LegParams, CalibrationError> {
    let n = samples.len() as f64;
    if samples.len() < 2 {
        return Err(CalibrationError::NotEnoughSamples);
    }
    let mean_x: f64 = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mean_y: f64 = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let sxx: f64 = samples.iter().map(|s| (s.0 - mean_x).powi(2)).sum();
    if sxx == 0.0 {
        return Err(CalibrationError::NotEnoughSamples);
    }
    let sxy: f64 = samples
        .iter()
        .map(|s| (s.0 - mean_x) * (s.1 - mean_y))
        .sum();
    let slope = sxy / sxx;
    if slope <= 0.0 || !slope.is_finite() {
        return Err(CalibrationError::NonPositiveSlope(slope));
    }
    let intercept = (mean_y - slope * mean_x).max(0.0);
    Ok(LegParams {
        alpha: intercept,
        beta: 1.0 / slope,
    })
}

/// Convenience: fit from a bandwidth sweep `(bytes, bytes-per-second)`
/// as reported by OSU-style benchmarks.
pub fn fit_hockney_from_bandwidth(samples: &[(f64, f64)]) -> Result<LegParams, CalibrationError> {
    let times: Vec<(f64, Secs)> = samples.iter().map(|&(n, bw)| (n, n / bw)).collect();
    fit_hockney(&times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::units::gb_per_s;

    /// RMS relative residual of the fitted law over the samples.
    fn relative_rms_error(params: &LegParams, samples: &[(f64, Secs)]) -> f64 {
        let sq = |&(n, t): &(f64, Secs)| ((params.time(n) - t) / t).powi(2);
        (samples.iter().map(sq).sum::<f64>() / samples.len() as f64).sqrt()
    }

    fn exact_samples(alpha: f64, beta: f64) -> Vec<(f64, Secs)> {
        [1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 28]
            .iter()
            .map(|&n| (n as f64, alpha + n as f64 / beta))
            .collect()
    }

    #[test]
    fn recovers_exact_parameters() {
        let fit = fit_hockney(&exact_samples(2e-6, gb_per_s(48.0))).unwrap();
        assert!((fit.alpha - 2e-6).abs() < 1e-12);
        assert!((fit.beta - 48e9).abs() / 48e9 < 1e-12);
    }

    #[test]
    fn tolerates_multiplicative_noise() {
        let mut samples = exact_samples(5e-6, gb_per_s(12.0));
        for (i, s) in samples.iter_mut().enumerate() {
            s.1 *= 1.0 + if i % 2 == 0 { 0.01 } else { -0.01 };
        }
        let fit = fit_hockney(&samples).unwrap();
        assert!((fit.beta - 12e9).abs() / 12e9 < 0.05);
    }

    #[test]
    fn negative_intercept_clamped_to_zero() {
        // Slightly superlinear small-message behaviour can pull the
        // intercept negative; it must clamp.
        let samples = vec![(1e6, 0.9e-4), (2e6, 2.0e-4), (4e6, 4.2e-4)];
        let fit = fit_hockney(&samples).unwrap();
        assert!(fit.alpha >= 0.0);
    }

    #[test]
    fn too_few_samples_rejected() {
        assert_eq!(
            fit_hockney(&[(1e6, 1e-3)]),
            Err(CalibrationError::NotEnoughSamples)
        );
        assert_eq!(
            fit_hockney(&[(1e6, 1e-3), (1e6, 2e-3)]),
            Err(CalibrationError::NotEnoughSamples)
        );
    }

    #[test]
    fn decreasing_times_rejected() {
        let samples = vec![(1e6, 2e-3), (2e6, 1e-3), (4e6, 0.5e-3)];
        assert!(matches!(
            fit_hockney(&samples),
            Err(CalibrationError::NonPositiveSlope(_))
        ));
    }

    #[test]
    fn bandwidth_sweep_fit() {
        let alpha = 3e-6;
        let beta = gb_per_s(24.0);
        let sweep: Vec<(f64, f64)> = [1 << 20, 1 << 24, 1 << 28]
            .iter()
            .map(|&n| {
                let n = n as f64;
                (n, n / (alpha + n / beta))
            })
            .collect();
        let fit = fit_hockney_from_bandwidth(&sweep).unwrap();
        assert!((fit.beta - beta).abs() / beta < 1e-9);
        assert!((fit.alpha - alpha).abs() < 1e-10);
    }

    #[test]
    fn rms_error_zero_on_exact_fit() {
        let samples = exact_samples(2e-6, gb_per_s(48.0));
        let fit = fit_hockney(&samples).unwrap();
        assert!(relative_rms_error(&fit, &samples) < 1e-9);
    }

    #[test]
    fn rms_error_flags_nonlinear_data() {
        let fit = LegParams {
            alpha: 0.0,
            beta: gb_per_s(48.0),
        };
        // Times 2x the linear law → relative error 1.
        let samples: Vec<(f64, Secs)> = [1e6, 4e6].iter().map(|&n| (n, 2.0 * n / 48e9)).collect();
        assert!((relative_rms_error(&fit, &samples) - 0.5).abs() < 1e-12);
    }
}
