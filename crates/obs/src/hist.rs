//! Log-bucketed quantile histograms (HDR-style): fixed memory, bounded
//! relative error, lock-free observation, and exact merging across
//! threads.
//!
//! Buckets are geometric with growth factor [`GAMMA`] = 1.1 over
//! `[MIN_TRACKED, MAX_TRACKED)`; a reported quantile is the geometric
//! midpoint of the bucket holding that rank, so it is within
//! `sqrt(GAMMA) - 1 ≈ 4.9%` of the exact order statistic — the
//! documented [`MAX_RELATIVE_ERROR`] bound of 5%. Because every
//! histogram shares one bucket layout, merging per-thread histograms is
//! *exact*: the merged histogram is bit-identical to one histogram that
//! observed the concatenated stream (pinned by a proptest below).

use std::sync::atomic::{AtomicU64, Ordering};

/// Geometric bucket growth factor.
pub const GAMMA: f64 = 1.1;
/// Smallest distinguishable positive value (1 ns, in seconds).
pub const MIN_TRACKED: f64 = 1e-9;
/// Largest distinguishable value; larger observations clamp into the
/// top bucket (their quantile error is then bounded by the clamp, not
/// by [`MAX_RELATIVE_ERROR`]).
pub const MAX_TRACKED: f64 = 1e6;
/// Documented worst-case relative error of a reported quantile for
/// in-range positive values (actual bound: `sqrt(1.1) - 1 ≈ 0.0488`).
pub const MAX_RELATIVE_ERROR: f64 = 0.05;
/// `ceil(ln(MAX_TRACKED / MIN_TRACKED) / ln(GAMMA))`.
const N_BUCKETS: usize = 363;

/// A mergeable quantile histogram with ~5% relative error and
/// `O(N_BUCKETS)` memory. `observe` is lock-free (atomic adds), so one
/// histogram can be shared across recording threads behind an `Arc`.
pub struct QuantileHist {
    /// Observations `<= 0` (quantiles landing here report 0.0).
    zero: AtomicU64,
    /// Geometric buckets; bucket `i` covers
    /// `[MIN_TRACKED·γ^i, MIN_TRACKED·γ^(i+1))`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Exact running sum (f64 bits, CAS-updated).
    sum_bits: AtomicU64,
    /// Exact smallest observation (f64 bits; +inf when empty).
    min_bits: AtomicU64,
    /// Exact largest observation (f64 bits; -inf when empty).
    max_bits: AtomicU64,
}

impl Default for QuantileHist {
    fn default() -> Self {
        QuantileHist::new()
    }
}

impl QuantileHist {
    /// An empty histogram.
    pub fn new() -> QuantileHist {
        QuantileHist {
            zero: AtomicU64::new(0),
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation. Non-finite values are dropped.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v <= 0.0 {
            self.zero.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_min(&self.min_bits, v);
        atomic_f64_max(&self.max_bits, v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Exact smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.min_bits.load(Ordering::Relaxed))
        }
    }

    /// Exact largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.max_bits.load(Ordering::Relaxed))
        }
    }

    /// The `q`-quantile (`0 < q <= 1`): the geometric midpoint of the
    /// bucket holding rank `ceil(q·n)`, clamped to the exact observed
    /// `[min, max]`. Within [`MAX_RELATIVE_ERROR`] of the exact order
    /// statistic for in-range positive observations; 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank == n {
            // The top rank is tracked exactly.
            return self.max();
        }
        let mut cum = self.zero.load(Ordering::Relaxed);
        if cum >= rank {
            return 0.0;
        }
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return representative(i).clamp(self.min().max(0.0), self.max());
            }
        }
        self.max()
    }

    /// Folds `other`'s observations into `self`. Exact: equivalent to
    /// having observed both streams in one histogram.
    pub fn merge_from(&self, other: &QuantileHist) {
        self.zero
            .fetch_add(other.zero.load(Ordering::Relaxed), Ordering::Relaxed);
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let n = other.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, other.sum());
        atomic_f64_min(
            &self.min_bits,
            f64::from_bits(other.min_bits.load(Ordering::Relaxed)),
        );
        atomic_f64_max(
            &self.max_bits,
            f64::from_bits(other.max_bits.load(Ordering::Relaxed)),
        );
    }

    /// Cumulative bucket counts as `(upper_bound, cumulative_count)` for
    /// every bucket whose count is nonzero, in ascending bound order —
    /// the OpenMetrics `_bucket{le=...}` series (the exporter appends
    /// the mandatory `+Inf` bucket itself). The zero bucket reports an
    /// upper bound of [`MIN_TRACKED`].
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = self.zero.load(Ordering::Relaxed);
        if cum > 0 {
            out.push((MIN_TRACKED, cum));
        }
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((upper_bound(i), cum));
            }
        }
        out
    }
}

impl Clone for QuantileHist {
    fn clone(&self) -> QuantileHist {
        let h = QuantileHist::new();
        h.merge_from(self);
        h
    }
}

/// Distributional equality: counts, bucket contents, and the exact
/// min/max. Sums are deliberately excluded — merging re-associates
/// float addition, so two histograms over the same observations can
/// differ in the sum's last ulp while being the same distribution.
impl PartialEq for QuantileHist {
    fn eq(&self, other: &QuantileHist) -> bool {
        self.count() == other.count()
            && self.min_bits.load(Ordering::Relaxed) == other.min_bits.load(Ordering::Relaxed)
            && self.max_bits.load(Ordering::Relaxed) == other.max_bits.load(Ordering::Relaxed)
            && self.zero.load(Ordering::Relaxed) == other.zero.load(Ordering::Relaxed)
            && self
                .buckets
                .iter()
                .zip(&other.buckets)
                .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for QuantileHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileHist")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Bucket holding a positive value: `floor(ln(v / MIN) / ln γ)`,
/// clamped into range — the definition [`bucket_index`] reproduces.
fn log_index(v: f64) -> usize {
    let r = (v / MIN_TRACKED).ln() / GAMMA.ln();
    if r < 0.0 {
        0
    } else {
        (r as usize).min(N_BUCKETS - 1)
    }
}

/// [`log_index`] without a logarithm: an estimate read off the exponent
/// bits (`log2 v`, linear within its octave: off by under one bucket),
/// corrected against [`BOUNDS`]. A bound is the product of up to 362
/// roundings and the logarithm is off by a few ulps, so the two can put a
/// value in different buckets only within about 1e-13 of a bound; within
/// [`NEAR`] of one the logarithm decides.
fn bucket_index(v: f64) -> usize {
    const LOG2_MIN_TRACKED: f64 = -29.897_352_853_986_263;
    const BUCKETS_PER_OCTAVE: f64 = 7.272_540_897_341_713;
    let log2 = v.to_bits() as f64 / (1u64 << 52) as f64 - 1023.0;
    let estimate = (log2 - LOG2_MIN_TRACKED) * BUCKETS_PER_OCTAVE;
    let mut i = (estimate.max(0.0) as usize).min(N_BUCKETS - 1);
    while i > 0 && v < BOUNDS[i] {
        i -= 1;
    }
    while i + 1 < N_BUCKETS && v >= BOUNDS[i + 1] {
        i += 1;
    }
    let near = |b: f64| (v - b).abs() <= NEAR * b;
    if (i > 0 && near(BOUNDS[i])) || (i + 1 < N_BUCKETS && near(BOUNDS[i + 1])) {
        return log_index(v);
    }
    i
}

/// Relative distance from a bound inside which [`bucket_index`] asks the
/// logarithm: ten thousand times the widest disagreement possible.
const NEAR: f64 = 1e-9;

/// `MIN·γ^i` for every bucket, by repeated multiplication at compile time.
static BOUNDS: [f64; N_BUCKETS] = {
    let mut bounds = [MIN_TRACKED; N_BUCKETS];
    let mut i = 1;
    while i < N_BUCKETS {
        bounds[i] = bounds[i - 1] * GAMMA;
        i += 1;
    }
    bounds
};

/// Geometric midpoint of bucket `i` — the value quantiles report.
fn representative(i: usize) -> f64 {
    MIN_TRACKED * GAMMA.powf(i as f64 + 0.5)
}

/// Exclusive upper bound of bucket `i`.
fn upper_bound(i: usize) -> f64 {
    MIN_TRACKED * GAMMA.powf(i as f64 + 1.0)
}

fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_min(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) <= v {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) >= v {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact order statistic with the same rank convention the
    /// histogram uses (`ceil(q·n)`, 1-based).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    #[test]
    fn empty_hist_reports_zeros() {
        let h = QuantileHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn exact_moments_and_bounded_quantiles() {
        let h = QuantileHist::new();
        let vals = [1e-6, 2e-6, 3e-6, 4e-6, 100e-6];
        for v in vals {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 110e-6).abs() < 1e-18);
        assert_eq!(h.min(), 1e-6);
        assert_eq!(h.max(), 100e-6);
        // p50 of 5 values = rank 3 = 3e-6, within the error bound.
        let p50 = h.quantile(0.5);
        assert!((p50 - 3e-6).abs() <= MAX_RELATIVE_ERROR * 3e-6, "{p50}");
        // p100 clamps to the exact max.
        assert_eq!(h.quantile(1.0), 100e-6);
    }

    #[test]
    fn zero_and_negative_land_in_zero_bucket() {
        let h = QuantileHist::new();
        h.observe(0.0);
        h.observe(-4.0);
        h.observe(1.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), -4.0);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (MIN_TRACKED, 2));
        assert_eq!(buckets.last().unwrap().1, 3);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 3, "non-finite observations are dropped");
    }

    #[test]
    fn out_of_range_values_clamp_into_edge_buckets() {
        let h = QuantileHist::new();
        h.observe(1e-12);
        h.observe(1e9);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1e-12);
        assert_eq!(h.max(), 1e9);
        // The top-bucket representative clamps to the exact max.
        assert_eq!(h.quantile(1.0), 1e9);
    }

    #[test]
    fn cumulative_buckets_are_monotonic_and_total() {
        let h = QuantileHist::new();
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-6);
        }
        let buckets = h.cumulative_buckets();
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(buckets.last().unwrap().1, 1000);
    }

    #[test]
    fn concurrent_observation_loses_nothing() {
        let h = std::sync::Arc::new(QuantileHist::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000 {
                    h.observe(((t * 10_000 + i) as f64 + 1.0) * 1e-9);
                }
            }));
        }
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.min(), 1e-9);
        assert_eq!(h.max(), 40_000.0 * 1e-9);
    }

    /// The smallest value the logarithm puts in bucket `i`, by bisection
    /// over the bit patterns around its table bound.
    fn transition(i: usize, bound: f64) -> f64 {
        let (mut lo, mut hi) = (
            (bound * (1.0 - NEAR)).to_bits(),
            (bound * (1.0 + NEAR)).to_bits(),
        );
        assert!(log_index(f64::from_bits(lo)) < i && log_index(f64::from_bits(hi)) >= i);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if log_index(f64::from_bits(mid)) >= i {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f64::from_bits(hi)
    }

    /// The estimate returns exactly what the logarithm does within four
    /// ulps of every bucket boundary, of every table bound and at the
    /// extremes; every boundary sits well inside the band the logarithm
    /// decides.
    #[test]
    fn bucket_index_matches_the_logarithm_at_every_boundary() {
        let mut checked = vec![
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            MIN_TRACKED,
            MAX_TRACKED,
        ];
        for (i, &bound) in BOUNDS.iter().enumerate().skip(1) {
            let boundary = transition(i, bound);
            assert!((boundary / bound - 1.0).abs() < 1e-12, "bucket {i}");
            for start in [boundary, bound] {
                let (mut below, mut above) = (start, start);
                checked.push(start);
                for _ in 0..4 {
                    (below, above) = (below.next_down(), above.next_up());
                    checked.extend([below, above]);
                }
            }
        }
        for v in checked {
            assert_eq!(bucket_index(v), log_index(v), "v = {v:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any positive finite value lands where the logarithm puts it.
        #[test]
        fn bucket_index_matches_the_logarithm(bits in 1u64..0x7FF0_0000_0000_0000) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(bucket_index(v), log_index(v), "v = {:e}", v);
        }

        #[test]
        fn bucket_index_matches_the_logarithm_in_range(e in -9.5f64..6.5) {
            let v = 10.0f64.powf(e);
            prop_assert_eq!(bucket_index(v), log_index(v), "v = {:e}", v);
        }

        /// Just outside the band the logarithm decides, the table alone does.
        #[test]
        fn bucket_index_matches_the_logarithm_beside_the_band(
            i in 1..N_BUCKETS,
            side in prop_oneof![Just(-1.0), Just(1.0)],
            ulps in 0u64..64,
        ) {
            let edge = BOUNDS[i] * (1.0 + side * NEAR * 1.000_001);
            let v = f64::from_bits(edge.to_bits() + ulps);
            prop_assert_eq!(bucket_index(v), log_index(v), "v = {:e}", v);
        }
    }

    fn arb_value() -> impl Strategy<Value = f64> {
        // Zeros plus positives spanning the tracked range (log-uniform).
        prop_oneof![Just(0.0), (-9.0f64..6.0).prop_map(|e| 10.0f64.powf(e)),]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: merging per-thread histograms must equal one
        /// histogram observing the concatenated stream — exactly for
        /// counts/sum/min/max, and every reported quantile of the
        /// merged histogram is within MAX_RELATIVE_ERROR of the exact
        /// order statistic of the combined stream.
        #[test]
        fn merge_equals_concatenated_stream(
            streams in proptest::collection::vec(
                proptest::collection::vec(arb_value(), 1..200),
                1..5,
            ),
            q in 0.01f64..1.0,
        ) {
            let merged = QuantileHist::new();
            let oracle = QuantileHist::new();
            let mut all: Vec<f64> = Vec::new();
            for stream in &streams {
                let part = QuantileHist::new();
                for &v in stream {
                    part.observe(v);
                    oracle.observe(v);
                    all.push(v);
                }
                merged.merge_from(&part);
            }
            // Merging is exact on the distribution: identical bucket
            // layout, counts, and min/max; sums agree up to float
            // re-association.
            prop_assert_eq!(&merged, &oracle);
            prop_assert_eq!(merged.count(), all.len() as u64);
            prop_assert_eq!(merged.min(), oracle.min());
            prop_assert_eq!(merged.max(), oracle.max());
            let sum_gap = (merged.sum() - oracle.sum()).abs();
            prop_assert!(sum_gap <= 1e-9 * oracle.sum().abs().max(1.0));
            // And its quantiles obey the documented error bound
            // against the exact combined order statistic.
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for qq in [q, 0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&all, qq);
                let got = merged.quantile(qq);
                if exact == 0.0 {
                    prop_assert_eq!(got, 0.0);
                } else {
                    let rel = (got - exact).abs() / exact;
                    prop_assert!(
                        rel <= MAX_RELATIVE_ERROR,
                        "q={} exact={} got={} rel={}",
                        qq, exact, got, rel
                    );
                }
            }
        }
    }
}
