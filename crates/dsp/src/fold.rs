//! Eye-pattern folding (§3.2).
//!
//! "The analog value of a signal sample s(t) is added to the analog signal
//! sample that is T seconds ahead … The eye pattern is determined for each
//! possible offset, and used to detect the presence of a stream. The benefit
//! of such folding is that it helps smooth out noise."
//!
//! We fold *edge events* (sparse, already extracted) rather than every raw
//! sample: it is mathematically the same accumulation restricted to the
//! samples that carry edge energy, and it keeps the stream search fast even
//! at 25 Msps.

/// A folded histogram: accumulated strength per offset bin over one period.
#[derive(Debug, Clone)]
pub struct FoldedHistogram {
    /// Accumulated weight per bin.
    pub bins: Vec<f64>,
    /// Number of events accumulated per bin.
    pub counts: Vec<usize>,
    /// The folding period in samples.
    pub period: f64,
}

impl Default for FoldedHistogram {
    /// An empty placeholder (no bins, unit period) for reusable scratch
    /// histograms that [`FoldTable::fold_within_to`] overwrites before use.
    fn default() -> Self {
        FoldedHistogram {
            bins: Vec::new(),
            counts: Vec::new(),
            period: 1.0,
        }
    }
}

impl FoldedHistogram {
    /// Width of one bin in samples.
    pub fn bin_width(&self) -> f64 {
        self.period / self.bins.len() as f64
    }

    /// Converts a bin index back to an offset in samples (bin centre).
    pub fn offset_of_bin(&self, bin: usize) -> f64 {
        (bin as f64 + 0.5) * self.bin_width()
    }

    /// The circular local maxima of the histogram whose weight is at least
    /// `min_weight`, each separated from a stronger peak by at least
    /// `min_separation_bins`. Returns `(bin, weight)` pairs sorted by
    /// descending weight.
    pub fn peaks(&self, min_weight: f64, min_separation_bins: usize) -> Vec<(usize, f64)> {
        let n = self.bins.len();
        if n == 0 {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.bins[b].total_cmp(&self.bins[a]));
        let mut taken: Vec<usize> = Vec::new();
        for &i in &order {
            if self.bins[i] < min_weight {
                break;
            }
            let clear = taken.iter().all(|&t| {
                let d = i.abs_diff(t);
                d.min(n - d) >= min_separation_bins
            });
            if clear {
                taken.push(i);
            }
        }
        taken.into_iter().map(|i| (i, self.bins[i])).collect()
    }
}

/// Folds weighted events (`times` in samples, arbitrary but matching
/// `weights`) at `period` samples into `nbins` offset bins.
///
/// Panics if `period` or `nbins` is non-positive, or the slices disagree in
/// length.
pub fn fold_events(times: &[f64], weights: &[f64], period: f64, nbins: usize) -> FoldedHistogram {
    assert!(period > 0.0, "period must be positive");
    assert!(nbins > 0, "need at least one bin");
    assert_eq!(times.len(), weights.len(), "times/weights length mismatch");
    let _span = lf_obs::span!("dsp.fold");
    let mut bins = vec![0.0; nbins];
    let mut counts = vec![0usize; nbins];
    for (&t, &w) in times.iter().zip(weights) {
        let phase = t.rem_euclid(period) / period;
        let bin = ((phase * nbins as f64) as usize).min(nbins - 1);
        bins[bin] += w;
        counts[bin] += 1;
    }
    FoldedHistogram {
        bins,
        counts,
        period,
    }
}

/// A resumable fold accumulator over a fixed set of weighted events.
///
/// The stream search folds the *same* event set many times: once per
/// candidate rate per gather round, with events dropping out as accepted
/// streams claim them, and once more per candidate harmonic when a fused
/// stream's residual edges are re-folded. `FoldTable` holds the event set
/// once and folds any still-active subset at any period on demand —
/// [`FoldTable::retire`] removes a claimed event from every later fold
/// without rebuilding the time/weight arrays.
#[derive(Debug, Clone)]
pub struct FoldTable {
    times: Vec<f64>,
    weights: Vec<f64>,
    active: Vec<bool>,
}

impl FoldTable {
    /// Builds a table over `times`/`weights` (all events active).
    ///
    /// Panics if the slices disagree in length.
    pub fn new(times: Vec<f64>, weights: Vec<f64>) -> Self {
        assert_eq!(times.len(), weights.len(), "times/weights length mismatch");
        let active = vec![true; times.len()];
        FoldTable {
            times,
            weights,
            active,
        }
    }

    /// Builds a table with unit weights.
    pub fn with_unit_weights(times: Vec<f64>) -> Self {
        let weights = vec![1.0; times.len()];
        FoldTable::new(times, weights)
    }

    /// Number of events in the table (active or not).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the table holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of events still active.
    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Whether event `i` is still active.
    pub fn is_active(&self, i: usize) -> bool {
        self.active.get(i).copied().unwrap_or(false)
    }

    /// Removes event `i` from all subsequent folds (a stream claimed it).
    /// Out-of-range indices are ignored.
    pub fn retire(&mut self, i: usize) {
        if let Some(a) = self.active.get_mut(i) {
            *a = false;
        }
    }

    /// Folds the active events at `period` into `nbins` bins.
    ///
    /// Panics if `period` or `nbins` is non-positive.
    pub fn fold(&self, period: f64, nbins: usize) -> FoldedHistogram {
        self.fold_within(period, nbins, f64::INFINITY)
    }

    /// Folds the active events with `time < t_max` at `period` into
    /// `nbins` bins — the drift-safe-window fold of the stream search.
    ///
    /// Panics if `period` or `nbins` is non-positive.
    pub fn fold_within(&self, period: f64, nbins: usize, t_max: f64) -> FoldedHistogram {
        let mut out = FoldedHistogram {
            bins: Vec::new(),
            counts: Vec::new(),
            period,
        };
        self.fold_within_to(period, nbins, t_max, &mut out);
        out
    }

    /// As [`FoldTable::fold_within`], but accumulates into a caller-owned
    /// histogram instead of allocating one. The stream search folds the
    /// same table once per candidate rate per gather round; reusing `out`
    /// keeps those ~16 folds per epoch from allocating 2×`nbins` buffers
    /// each time.
    ///
    /// Panics if `period` or `nbins` is non-positive.
    pub fn fold_within_to(&self, period: f64, nbins: usize, t_max: f64, out: &mut FoldedHistogram) {
        assert!(period > 0.0, "period must be positive");
        assert!(nbins > 0, "need at least one bin");
        let _span = lf_obs::span!("dsp.fold");
        out.period = period;
        out.bins.clear();
        out.bins.resize(nbins, 0.0);
        out.counts.clear();
        out.counts.resize(nbins, 0);
        for ((&t, &w), &live) in self.times.iter().zip(&self.weights).zip(&self.active) {
            if !live || t >= t_max {
                continue;
            }
            let phase = t.rem_euclid(period) / period;
            let bin = ((phase * nbins as f64) as usize).min(nbins - 1);
            out.bins[bin] += w;
            out.counts[bin] += 1;
        }
    }
}

/// One fold request for [`FoldTable::fold_many_within_to`]: the period and
/// bin count of the histogram plus the drift-safe window bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldSpec {
    /// Folding period in samples. Must be positive.
    pub period: f64,
    /// Number of offset bins. Must be positive.
    pub nbins: usize,
    /// Events with `time >= t_max` are excluded from this fold.
    pub t_max: f64,
}

impl FoldTable {
    /// Folds the active events at every period in `specs` in **one pass
    /// over the event set**, writing histogram `i` of `outs` from spec `i`
    /// (growing `outs` with default histograms as needed; extra trailing
    /// histograms are left untouched).
    ///
    /// The stream search folds the same table at every candidate rate each
    /// gather round; batching those folds reads the times/weights/active
    /// arrays once per round instead of once per rate. Each histogram is
    /// bit-identical to a separate [`FoldTable::fold_within_to`] call with
    /// the same spec: the per-spec accumulation visits events in ascending
    /// order either way (blocks are consumed in order, and within a block
    /// each spec walks the events in order), and histograms never
    /// interact.
    ///
    /// The sweep is *blocked*: events are consumed in cache-sized runs
    /// with the spec loop outside the run. Pure event-major iteration
    /// (specs innermost, one event at a time) reloads every spec's period
    /// and histogram pointers per event and defeats loop-invariant
    /// hoisting — measured slower than k separate folds at ci edge
    /// counts. The blocked layout keeps the single pass over the event
    /// arrays while giving each (spec, block) inner loop the same tight
    /// shape as a dedicated single-period fold.
    ///
    /// Panics if any spec has a non-positive `period` or `nbins`.
    pub fn fold_many_within_to(&self, specs: &[FoldSpec], outs: &mut Vec<FoldedHistogram>) {
        let _span = lf_obs::span!("dsp.fold");
        if outs.len() < specs.len() {
            outs.resize_with(specs.len(), FoldedHistogram::default);
        }
        for (spec, out) in specs.iter().zip(outs.iter_mut()) {
            assert!(spec.period > 0.0, "period must be positive");
            assert!(spec.nbins > 0, "need at least one bin");
            out.period = spec.period;
            out.bins.clear();
            out.bins.resize(spec.nbins, 0.0);
            out.counts.clear();
            out.counts.resize(spec.nbins, 0);
        }
        // 256 events × (8 B time + 8 B weight + 1 B active) ≈ 4.25 KiB —
        // comfortably L1-resident alongside the histograms being filled.
        const BLOCK: usize = 256;
        let n = self.times.len();
        let mut start = 0usize;
        while start < n {
            let end = (start + BLOCK).min(n);
            let (times, weights, active) = (
                &self.times[start..end],
                &self.weights[start..end],
                &self.active[start..end],
            );
            for (spec, out) in specs.iter().zip(outs.iter_mut()) {
                let (period, nbins, t_max) = (spec.period, spec.nbins, spec.t_max);
                for ((&t, &w), &live) in times.iter().zip(weights).zip(active) {
                    if !live || t >= t_max {
                        continue;
                    }
                    let phase = t.rem_euclid(period) / period;
                    let bin = ((phase * nbins as f64) as usize).min(nbins - 1);
                    out.bins[bin] += w;
                    out.counts[bin] += 1;
                }
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests assert bit-exact values deliberately: the arithmetic under test
    // must be exact, not approximate.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn periodic_events_pile_into_one_bin() {
        // Events every 100 samples starting at 25.
        let times: Vec<f64> = (0..50).map(|k| 25.0 + 100.0 * k as f64).collect();
        let weights = vec![1.0; times.len()];
        let h = fold_events(&times, &weights, 100.0, 50);
        let peaks = h.peaks(10.0, 2);
        assert_eq!(peaks.len(), 1);
        let (bin, w) = peaks[0];
        assert_eq!(w, 50.0);
        assert!((h.offset_of_bin(bin) - 25.0).abs() <= h.bin_width());
    }

    #[test]
    fn wrong_period_spreads_energy() {
        let times: Vec<f64> = (0..50).map(|k| 25.0 + 101.0 * k as f64).collect();
        let weights = vec![1.0; times.len()];
        let h = fold_events(&times, &weights, 100.0, 50);
        // At the wrong period the events drift 1 sample per cycle and smear
        // across bins — no bin can hold more than a few events.
        let max = h.bins.iter().copied().fold(0.0, f64::max);
        assert!(max <= 5.0, "expected smeared fold, max bin = {max}");
    }

    #[test]
    fn two_streams_two_peaks() {
        let mut times: Vec<f64> = (0..40).map(|k| 10.0 + 200.0 * k as f64).collect();
        times.extend((0..40).map(|k| 110.0 + 200.0 * k as f64));
        let weights = vec![1.0; times.len()];
        let h = fold_events(&times, &weights, 200.0, 100);
        let peaks = h.peaks(20.0, 5);
        assert_eq!(peaks.len(), 2);
    }

    #[test]
    fn peak_separation_respects_wraparound() {
        // Peaks at bin 0 and bin 99 of a 100-bin histogram are adjacent on
        // the circle; with min separation 5 only the stronger survives.
        let times = vec![0.5; 30]
            .into_iter()
            .chain(vec![99.5; 20])
            .collect::<Vec<_>>();
        let weights = vec![1.0; times.len()];
        let h = fold_events(&times, &weights, 100.0, 100);
        let peaks = h.peaks(5.0, 5);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].0, 0);
    }

    #[test]
    fn negative_times_fold_correctly() {
        // rem_euclid keeps phases in [0, period) even for negative times.
        let h = fold_events(&[-1.0], &[1.0], 100.0, 100);
        assert_eq!(h.bins[99], 1.0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = fold_events(&[1.0], &[1.0], 0.0, 10);
    }

    #[test]
    fn fold_table_matches_fold_events_when_all_active() {
        let times: Vec<f64> = (0..50).map(|k| 25.0 + 100.0 * k as f64).collect();
        let weights: Vec<f64> = (0..50).map(|k| 1.0 + (k % 3) as f64).collect();
        let table = FoldTable::new(times.clone(), weights.clone());
        let a = table.fold(100.0, 50);
        let b = fold_events(&times, &weights, 100.0, 50);
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn retired_events_leave_the_fold() {
        let times: Vec<f64> = (0..10).map(|k| 25.0 + 100.0 * k as f64).collect();
        let mut table = FoldTable::with_unit_weights(times);
        assert_eq!(table.n_active(), 10);
        for i in 0..5 {
            table.retire(i);
        }
        assert_eq!(table.n_active(), 5);
        assert!(!table.is_active(0));
        assert!(table.is_active(5));
        let h = table.fold(100.0, 50);
        assert_eq!(h.bins.iter().sum::<f64>(), 5.0);
        // Retiring out of range is a no-op, not a panic.
        table.retire(10_000);
        assert_eq!(table.n_active(), 5);
    }

    #[test]
    fn fold_within_respects_the_window() {
        let times: Vec<f64> = (0..20).map(|k| 25.0 + 100.0 * k as f64).collect();
        let table = FoldTable::with_unit_weights(times);
        let h = table.fold_within(100.0, 50, 1000.0);
        // Only the 10 events strictly before t = 1000 fold.
        assert_eq!(h.bins.iter().sum::<f64>(), 10.0);
        let full = table.fold(100.0, 50);
        assert_eq!(full.bins.iter().sum::<f64>(), 20.0);
    }

    #[test]
    fn fold_within_to_reuses_and_matches() {
        let times: Vec<f64> = (0..20).map(|k| 25.0 + 100.0 * k as f64).collect();
        let table = FoldTable::with_unit_weights(times);
        let fresh = table.fold_within(100.0, 50, 1000.0);
        let mut out = FoldedHistogram::default();
        // Dirty the scratch with a differently-shaped fold first: the
        // second fold must fully overwrite it.
        table.fold_within_to(77.0, 13, f64::INFINITY, &mut out);
        table.fold_within_to(100.0, 50, 1000.0, &mut out);
        assert_eq!(out.bins, fresh.bins);
        assert_eq!(out.counts, fresh.counts);
        assert_eq!(out.period, fresh.period);
    }

    #[test]
    fn fold_many_matches_repeated_single_folds_bitwise() {
        // Irregular times and weights, some events retired, windows that
        // cut different prefixes: the batched fold must agree bit-for-bit
        // with one fold_within_to per spec.
        let times: Vec<f64> = (0..200)
            .map(|k| 13.7 * k as f64 + ((k * k) % 29) as f64 * 0.31)
            .collect();
        let weights: Vec<f64> = (0..200).map(|k| 0.5 + ((k * 7) % 11) as f64).collect();
        let mut table = FoldTable::new(times, weights);
        for i in (0..200).step_by(7) {
            table.retire(i);
        }
        let specs = [
            FoldSpec {
                period: 100.0,
                nbins: 50,
                t_max: f64::INFINITY,
            },
            FoldSpec {
                period: 37.3,
                nbins: 24,
                t_max: 1500.0,
            },
            FoldSpec {
                period: 250.0,
                nbins: 125,
                t_max: 900.0,
            },
        ];
        let mut batched: Vec<FoldedHistogram> = Vec::new();
        // Pre-seed with one dirty histogram to check full overwrite, and
        // verify the vec grows to cover all specs.
        batched.push(table.fold_within(7.0, 3, f64::INFINITY));
        table.fold_many_within_to(&specs, &mut batched);
        assert_eq!(batched.len(), specs.len());
        for (spec, got) in specs.iter().zip(&batched) {
            let mut want = FoldedHistogram::default();
            table.fold_within_to(spec.period, spec.nbins, spec.t_max, &mut want);
            assert_eq!(got.bins, want.bins);
            assert_eq!(got.counts, want.counts);
            assert_eq!(got.period, want.period);
        }
    }

    #[test]
    fn fold_many_leaves_extra_histograms_untouched() {
        let table = FoldTable::with_unit_weights(vec![5.0, 105.0]);
        let mut outs = vec![FoldedHistogram::default(); 3];
        outs[2].period = 42.0;
        table.fold_many_within_to(
            &[FoldSpec {
                period: 100.0,
                nbins: 10,
                t_max: f64::INFINITY,
            }],
            &mut outs,
        );
        assert_eq!(outs[0].bins.iter().sum::<f64>(), 2.0);
        assert_eq!(outs[2].period, 42.0);
        assert!(outs[2].bins.is_empty());
    }

    #[test]
    fn fold_table_refolds_at_a_sub_period() {
        // Events every 200 samples look 5 kbps-periodic; re-folding the
        // same table at the 100-sample sub-period is the carve's re-fold.
        let times: Vec<f64> = (0..30).map(|k| 100.0 + 200.0 * k as f64).collect();
        let table = FoldTable::with_unit_weights(times);
        let coarse = table.fold(200.0, 100);
        let fine = table.fold(100.0, 50);
        assert_eq!(coarse.bins.iter().sum::<f64>(), 30.0);
        assert_eq!(fine.bins.iter().sum::<f64>(), 30.0);
        assert_eq!(fine.peaks(10.0, 2).len(), 1);
    }
}
