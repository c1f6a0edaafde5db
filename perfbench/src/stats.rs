//! Order statistics, the percentile-reporting rule and the seeded RNG the
//! benchmark builds its inputs from.

/// The percentiles a tail may be reported at, highest last, each with the
/// share of samples beyond it as `1 / denominator`.
const TAIL_LADDER: [(f64, usize); 4] = [(90.0, 10), (99.0, 100), (99.9, 1000), (99.99, 10_000)];

/// The fewest samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted
/// copy); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of the `k` largest of `values` (of all of them when there
/// are fewer); `NaN` when empty.
pub fn median_of_largest(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v.truncate(k.max(1));
    median(&v)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even p90 is
/// unsupported (fewer than 100 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, denominator)| n >= MIN_BEYOND * denominator)
        .map(|(p, _)| *p)
}

/// Quantile `q` of each consecutive window of `window` samples (a short
/// last window is dropped unless it is the only one).
fn per_window(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    if samples.len() < 2 * window {
        return vec![quantile(samples, q)];
    }
    samples
        .chunks(window)
        .filter(|c| c.len() == window)
        .map(|c| quantile(c, q))
        .collect()
}

/// The median over windows of each window's quantile `q`. Host stalls hit
/// whole windows; the median ignores them while fewer than half are hit.
pub fn windowed_quantile(samples: &[f64], window: usize, q: f64) -> f64 {
    median(&per_window(samples, window, q))
}

/// The interquartile mean over windows of each window's quantile `q`: the
/// mean of the middle half. Where host stalls come in episodes that hit
/// about half of the windows, the median flips between the quiet and the
/// hit windows' level from run to run, while this moves in proportion to
/// the share hit; a few windows hit by long stalls fall in the trimmed
/// quarters.
pub fn window_iqm_quantile(samples: &[f64], window: usize, q: f64) -> f64 {
    let mut per_window = per_window(samples, window, q);
    per_window.sort_by(f64::total_cmp);
    let trim = per_window.len() / 4;
    let middle = &per_window[trim..per_window.len() - trim];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// SplitMix64: a tiny, well-mixed deterministic generator. The benchmark's
/// inputs (request mixes, arrival schedules, point orders) all derive from
/// the workload seed through it, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [100, 1000, 5000, 10_000, 250_000] {
            let p = tail_percentile(n).unwrap();
            assert!(
                n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND as f64 - 1e-6,
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn quantiles_interpolate_and_median_is_order_free() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_largest_takes_the_top_k() {
        assert_eq!(median_of_largest(&[1.0, 9.0, 2.0, 8.0, 7.0], 3), 8.0);
        assert_eq!(median_of_largest(&[1.0, 2.0], 3), 1.5);
        assert!(median_of_largest(&[], 3).is_nan());
    }

    #[test]
    fn windowed_quantile_ignores_one_bad_window() {
        let mut samples = vec![1.0; 5000];
        samples[10] = 1e9;
        assert_eq!(windowed_quantile(&samples, 1000, 0.99), 1.0);
    }

    #[test]
    fn window_iqm_quantile_follows_the_share_hit_and_trims_outliers() {
        // Three of eight windows hit: the median reads the quiet level.
        let mut samples = vec![1.0; 8000];
        for w in 0..3 {
            samples[w * 1000..w * 1000 + 11].fill(3.0);
        }
        assert_eq!(windowed_quantile(&samples, 1000, 0.99), 1.0);
        assert_eq!(window_iqm_quantile(&samples, 1000, 0.99), 1.5);
        // One window hit by a long stall is trimmed.
        let mut samples = vec![1.0; 8000];
        samples[7000..7011].fill(1e9);
        assert_eq!(window_iqm_quantile(&samples, 1000, 0.99), 1.0);
        assert_eq!(window_iqm_quantile(&[3.0, 1.0, 2.0], 1000, 0.5), 2.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(43, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
        let p = Rng::new(7, 0).permutation(100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
