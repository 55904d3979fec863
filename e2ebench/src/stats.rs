//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is a nearest-rank quantile of the
//! raw per-epoch (or per-frame) samples — no buckets, no interpolation.
//! A tail is the highest percentile of [`TAIL_LADDER`] that still has at
//! least [`MIN_BEYOND_TAIL`] samples strictly beyond its rank, and the
//! report records which percentile that was.

/// Tail percentiles tried, highest first.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples that must lie beyond a tail percentile's rank.
pub const MIN_BEYOND_TAIL: usize = 10;

/// 1-based nearest rank of quantile `q` over `n` samples:
/// `ceil(q · n)`, clamped to `1..=n`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    let rank = (q * n as f64).ceil();
    (rank.max(1.0) as usize).min(n.max(1))
}

/// Exact nearest-rank quantile of ascending `sorted` samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(q, sorted.len()) - 1])
}

/// The highest ladder percentile with at least `min_beyond` of `n`
/// samples strictly beyond its nearest rank; `None` when even the median
/// has fewer.
pub fn tail_quantile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n >= nearest_rank(q, n) + min_beyond && n > 0)
}

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of raw samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank tail value.
    pub tail: f64,
    /// Which quantile `tail` is (the median itself when too few samples
    /// support any higher percentile).
    pub tail_q: f64,
}

impl Dist {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Dist> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len(), MIN_BEYOND_TAIL).unwrap_or(0.5);
        Some(Dist {
            n: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5)?,
            tail: quantile_sorted(&sorted, tail_q)?,
            tail_q,
        })
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads printed here read the
/// same as spreads computed from the printed values. Needs ≥ 2 samples;
/// a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (i, slot) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
            }
            Some(out)
        }
    }
}

/// How one metric varied across the repetitions inside a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median of the repetitions.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub iqr_ratio: f64,
}

impl Spread {
    /// Summarizes per-repetition values. `None` when empty.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let [q1, _, q3] = quartiles(values)?;
        let median = median(values)?;
        Some(Spread {
            median,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            iqr_ratio: if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median.abs()
            },
        })
    }
}

/// The conventional median (mean of the middle two for even counts), used
/// to combine repetitions.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}
