//! Scalar units shared by the model and the simulator.
//!
//! Time is carried as `f64` seconds in analytical code ([`Secs`]) and as
//! integer nanoseconds inside the discrete-event engine (owned by
//! `mpx-sim`); bandwidth is `f64` bytes per second ([`Bandwidth`]).

/// Time in seconds (used by the analytical model).
pub type Secs = f64;

/// Bandwidth in bytes per second.
pub type Bandwidth = f64;

/// One kibibyte (2^10 bytes).
pub const KIB: usize = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: usize = 1 << 20;
/// One gibibyte (2^30 bytes).
pub const GIB: usize = 1 << 30;

/// Converts a marketing-style "GB/s" figure (10^9 bytes per second) into
/// [`Bandwidth`].
#[inline]
pub const fn gb_per_s(x: f64) -> Bandwidth {
    x * 1e9
}

/// Converts microseconds into [`Secs`].
#[inline]
pub const fn micros(x: f64) -> Secs {
    x * 1e-6
}

/// Formats a byte count with a binary-prefix suffix, OSU-benchmark style
/// (`4096`, `64K`, `16M`, `1G`).
pub fn format_bytes(n: usize) -> String {
    if n >= GIB && n.is_multiple_of(GIB) {
        format!("{}G", n / GIB)
    } else if n >= MIB && n.is_multiple_of(MIB) {
        format!("{}M", n / MIB)
    } else if n >= KIB && n.is_multiple_of(KIB) {
        format!("{}K", n / KIB)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gb_per_s_scales_decimal() {
        assert_eq!(gb_per_s(25.0), 25e9);
    }

    #[test]
    fn micros_scale() {
        assert!((micros(5.0) - 5e-6).abs() < 1e-15);
    }

    #[test]
    fn format_bytes_exact_boundaries() {
        assert_eq!(format_bytes(512), "512");
        assert_eq!(format_bytes(KIB), "1K");
        assert_eq!(format_bytes(64 * KIB), "64K");
        assert_eq!(format_bytes(16 * MIB), "16M");
        assert_eq!(format_bytes(GIB), "1G");
    }

    #[test]
    fn format_bytes_non_aligned_falls_back_to_raw() {
        assert_eq!(format_bytes(KIB + 1), "1025");
        assert_eq!(format_bytes(3 * MIB / 2), "1536K");
    }
}
