//! Small shared pieces: the seeded generator, order statistics, the
//! timed-batch loop every host metric is taken with, and the RSS reader.

use std::time::{Duration, Instant};

/// SplitMix64: the only source of randomness in the benchmark. The
/// program under test never sees the seed, only the inputs drawn here.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these `n`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    pub fn fill(&mut self, bytes: &mut [u8]) {
        for chunk in bytes.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    xs
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let i = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[i]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs.to_vec()), 0.5)
}

/// A tail percentile, reported only where at least ten samples lie
/// beyond it; 0 otherwise (0 = "this run cannot resolve that tail").
pub fn tail(sorted: &[f64], q: f64) -> f64 {
    if (sorted.len() as f64) * (1.0 - q) >= 10.0 {
        quantile(sorted, q)
    } else {
        0.0
    }
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Indices of the quiet quarter of `walls`: the quarter (at least one)
/// with the shortest wall time, fastest first.
///
/// Every host metric is computed over the quiet quarter of its samples.
/// The benchmark runs on small shared machines, where interference only
/// ever adds time and comes in bursts of seconds: a spin loop on the
/// 2-core box this was written on varies by 13 % between 5-second
/// windows, and the median batch of a 10-second run varies by 9 % from
/// run to run where its fastest decile varies by 4 %. The quiet quarter
/// measures the code; the rest measures the neighbours.
pub fn quiet(walls: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..walls.len()).collect();
    idx.sort_by(|&a, &b| walls[a].partial_cmp(&walls[b]).expect("finite wall"));
    idx.truncate(walls.len().div_ceil(4));
    idx
}

/// Mean of the quiet quarter of `walls`.
pub fn quiet_mean(walls: &[f64]) -> f64 {
    let q = quiet(walls);
    q.iter().map(|&i| walls[i]).sum::<f64>() / q.len() as f64
}

/// Operations per second of a timed loop of equal batches: over its
/// quiet quarter (what the end-to-end metric reports) and over all of it
/// (what a traced copy of the loop is compared with).
pub struct Rates {
    pub quiet: f64,
    pub plain: f64,
}

pub fn rates(walls: &[f64], ops_per_batch: usize) -> Rates {
    Rates {
        quiet: ops_per_batch as f64 / quiet_mean(walls),
        plain: (ops_per_batch * walls.len()) as f64 / walls.iter().sum::<f64>(),
    }
}

/// Runs `batch` (which performs a fixed number of operations and returns
/// that number) back to back until `seconds` have passed, at least
/// `at_least` times. Returns each batch's wall time and the total
/// operation count.
pub fn run_batches(
    seconds: f64,
    at_least: usize,
    mut batch: impl FnMut() -> u64,
) -> (Vec<f64>, u64) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut ops = 0;
    while walls.len() < at_least || start.elapsed() < budget {
        let t = Instant::now();
        ops += batch();
        walls.push(secs_since(t));
    }
    (walls, ops)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeated timings of set-up `f`, in seconds: at least three
/// repetitions, and more (up to 101) while they total under half a
/// second, because a set-up of a millisecond needs many samples before
/// any statistic of it holds still. `f` returns the state it built; the
/// last one is kept, so the caller measures on a warm copy.
pub fn repeat_setup<S>(mut f: impl FnMut() -> S) -> (Vec<f64>, S) {
    let mut times = Vec::new();
    let mut state = None;
    while times.len() < 3 || (times.len() < 101 && times.iter().sum::<f64>() < 0.5) {
        // Drop the previous copy first so peak memory is one set-up's.
        drop(state.take());
        let t = Instant::now();
        state = Some(f());
        times.push(secs_since(t));
    }
    (times, state.expect("at least three set-ups"))
}

/// Median of the quiet quarter of `walls` (`setup_s` from repeated
/// set-up timings).
pub fn quiet_median(walls: &[f64]) -> f64 {
    let q: Vec<f64> = quiet(walls).iter().map(|&i| walls[i]).collect();
    median(&q)
}

/// The per-call samples taken inside the quiet quarter of the batches,
/// `per_batch` consecutive samples belonging to each batch.
pub fn quiet_samples(walls: &[f64], samples: &[f64], per_batch: usize) -> Vec<f64> {
    quiet(walls)
        .into_iter()
        .flat_map(|b| samples[b * per_batch..(b + 1) * per_batch].iter().copied())
        .collect()
}
