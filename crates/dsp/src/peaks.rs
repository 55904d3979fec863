//! Local-maximum detection with threshold and dead zone.
//!
//! Edge extraction (§3.1) turns the IQ-differential magnitude series into a
//! sparse list of candidate edge positions: a sample is an edge candidate
//! when it is a local maximum, exceeds a noise-derived threshold, and no
//! stronger candidate lies within the edge width (the dead zone prevents a
//! single 3-sample-wide edge from being reported three times).

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the peak.
    pub index: usize,
    /// Value at the peak.
    pub value: f64,
}

/// Finds local maxima of `series` that are `>= threshold`, enforcing that
/// peaks are at least `min_distance` samples apart (stronger peaks win).
/// Returned peaks are sorted by index.
pub fn find_peaks(series: &[f64], threshold: f64, min_distance: usize) -> Vec<Peak> {
    let n = series.len();
    if n == 0 {
        return Vec::new();
    }
    // Collect strict-or-plateau local maxima above threshold.
    let mut candidates: Vec<Peak> = Vec::new();
    let mut i = 0;
    while i < n {
        // Skip the sub-threshold run (most of a quiet capture). The scan
        // stops on `!(v < threshold)`, so a NaN ends the skip and goes
        // through the local-maximum test below like any candidate.
        while i < n && series[i] < threshold {
            i += 1;
        }
        if i >= n {
            break;
        }
        let v = series[i];
        // Plateau handling: advance to the end of a run of equal values and
        // report its centre.
        let start = i;
        while i + 1 < n && series[i + 1].total_cmp(&v).is_eq() {
            i += 1;
        }
        let left_ok = start == 0 || series[start - 1] < v;
        let right_ok = i + 1 == n || series[i + 1] < v;
        if left_ok && right_ok {
            candidates.push(Peak {
                index: (start + i) / 2,
                value: v,
            });
        }
        i += 1;
    }
    if min_distance <= 1 || candidates.len() <= 1 {
        return candidates;
    }
    // Dead-zone suppression: keep strongest first. The kept set stays
    // sorted by index, so a candidate only has to clear its nearest kept
    // neighbour on each side — every other kept peak is further away.
    // Replaces the old all-pairs scan (O(k²) for k candidates) without
    // changing which peaks survive: the strongest-first visit order and
    // the distance predicate are identical.
    let mut by_strength: Vec<usize> = (0..candidates.len()).collect();
    by_strength.sort_by(|&a, &b| candidates[b].value.total_cmp(&candidates[a].value));
    let mut kept = vec![false; candidates.len()];
    let mut kept_sorted: Vec<usize> = Vec::with_capacity(candidates.len());
    for &c in &by_strength {
        let idx = candidates[c].index;
        let pos = kept_sorted.partition_point(|&k| k < idx);
        let left_ok = pos == 0 || idx - kept_sorted[pos - 1] >= min_distance;
        let right_ok = pos == kept_sorted.len() || kept_sorted[pos] - idx >= min_distance;
        if left_ok && right_ok {
            kept[c] = true;
            kept_sorted.insert(pos, idx);
        }
    }
    let mut out: Vec<Peak> = candidates
        .into_iter()
        .zip(kept)
        .filter_map(|(p, k)| k.then_some(p))
        .collect();
    out.sort_by_key(|p| p.index);
    out
}

/// Estimates a detection threshold from a series as
/// `median + k · MAD·1.4826` (a robust sigma estimate). Robust statistics
/// matter here: the series *is* mostly noise punctuated by large edges, and
/// a mean/σ threshold would be dragged up by the very edges we want to
/// detect.
pub fn robust_threshold(series: &[f64], k: f64) -> f64 {
    let mut buf = series.to_vec();
    robust_threshold_inplace(&mut buf, k)
}

/// As [`robust_threshold`], but permutes `buf` instead of allocating: one
/// quickselect for the median, an in-place rewrite to absolute deviations,
/// and a second quickselect for the MAD. The deviations are computed from
/// the permuted buffer, which holds the same multiset of values — the MAD
/// (an order statistic) is bit-identical to the allocating version's.
pub fn robust_threshold_inplace(buf: &mut [f64], k: f64) -> f64 {
    if buf.is_empty() {
        return 0.0;
    }
    let med = crate::stats::median_inplace(buf);
    for x in buf.iter_mut() {
        *x = (*x - med).abs();
    }
    let mad = crate::stats::median_inplace(buf);
    med + k * mad * 1.4826
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_peak() {
        let s = [0.0, 0.1, 1.0, 0.1, 0.0];
        let p = find_peaks(&s, 0.5, 1);
        assert_eq!(
            p,
            vec![Peak {
                index: 2,
                value: 1.0
            }]
        );
    }

    #[test]
    fn threshold_filters() {
        let s = [0.0, 0.4, 0.0, 0.9, 0.0];
        let p = find_peaks(&s, 0.5, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 3);
    }

    #[test]
    fn plateau_reports_centre_once() {
        let s = [0.0, 1.0, 1.0, 1.0, 0.0];
        let p = find_peaks(&s, 0.5, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 2);
    }

    #[test]
    fn dead_zone_keeps_strongest() {
        let s = [0.0, 0.8, 0.0, 1.0, 0.0, 0.7, 0.0];
        // min_distance 3: peaks at 1, 3, 5; 3 is strongest, suppresses both.
        let p = find_peaks(&s, 0.5, 3);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 3);
        // min_distance 2: 3 wins, 1 and 5 are exactly 2 away → kept.
        let p = find_peaks(&s, 0.5, 2);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn edges_of_series_can_peak() {
        let s = [1.0, 0.5, 0.0, 0.5, 1.0];
        let p = find_peaks(&s, 0.5, 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].index, 0);
        assert_eq!(p[1].index, 4);
    }

    #[test]
    fn empty_series() {
        assert!(find_peaks(&[], 0.0, 1).is_empty());
    }

    fn peak_indices(series: &[f64], threshold: f64) -> Vec<usize> {
        find_peaks(series, threshold, 1)
            .iter()
            .map(|p| p.index)
            .collect()
    }

    /// The skip scan runs off the end of an all-quiet series or tail
    /// without reporting anything past the last real peak.
    #[test]
    fn skip_scan_runs_off_quiet_tails() {
        assert!(peak_indices(&[0.1; 40], 1.0).is_empty());
        let mut s = vec![0.0; 40];
        s[3] = 2.0;
        assert_eq!(peak_indices(&s, 1.0), vec![3]);
        assert_eq!(peak_indices(&[1.0], 0.0), vec![0]);
    }

    /// A NaN in a quiet run is never reported and does not hide a later
    /// peak: `NaN < threshold` is false, so the skip scan stops at it,
    /// its neighbour comparisons reject it, and the scan resumes.
    #[test]
    fn skip_scan_stops_at_nan_without_reporting_it() {
        let mut s = vec![0.0; 40];
        s[17] = f64::NAN;
        s[30] = 2.0;
        assert_eq!(peak_indices(&s, 1.0), vec![30]);
        s[17] = 2.0;
        assert_eq!(peak_indices(&s, 1.0), vec![17, 30]);
    }

    #[test]
    fn robust_threshold_ignores_sparse_spikes() {
        // Mostly small noise with a few huge spikes: threshold must stay
        // near the noise floor, not be dragged up by spikes.
        let mut s = vec![0.1; 1000];
        for k in 0..10 {
            s[k * 100] = 50.0;
        }
        let th = robust_threshold(&s, 6.0);
        assert!(th < 1.0, "threshold {th} dragged up by spikes");
        assert!(th >= 0.1);
    }

    /// The sorted-insertion dead zone must keep exactly the peaks the old
    /// all-pairs scan kept, and the in-place robust threshold must be
    /// bit-identical to the allocating reference, across a spread of
    /// pseudo-random series.
    #[test]
    fn optimized_paths_match_reference_bitwise() {
        let reference_threshold = |series: &[f64], k: f64| -> f64 {
            if series.is_empty() {
                return 0.0;
            }
            let med = crate::stats::median(series);
            let deviations: Vec<f64> = series.iter().map(|x| (x - med).abs()).collect();
            let mad = crate::stats::median(&deviations);
            med + k * mad * 1.4826
        };
        let reference_peaks = |series: &[f64], threshold: f64, min_distance: usize| {
            // Candidates come from the shared plateau scan; only the dead
            // zone differed, so re-run it the O(k²) way.
            let candidates = find_peaks(series, threshold, 1);
            let mut by_strength: Vec<usize> = (0..candidates.len()).collect();
            by_strength.sort_by(|&a, &b| candidates[b].value.total_cmp(&candidates[a].value));
            let mut kept_indices: Vec<usize> = Vec::new();
            for &c in &by_strength {
                let idx = candidates[c].index;
                if kept_indices
                    .iter()
                    .all(|&k| idx.abs_diff(k) >= min_distance)
                {
                    kept_indices.push(idx);
                }
            }
            kept_indices.sort_unstable();
            kept_indices
        };
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64
        };
        for round in 0..8 {
            let n = 200 + round * 37;
            let series: Vec<f64> = (0..n).map(|_| next()).collect();
            let k = 3.0 + round as f64;
            let th = reference_threshold(&series, k);
            let mut buf = series.clone();
            assert_eq!(robust_threshold(&series, k).to_bits(), th.to_bits());
            assert_eq!(
                robust_threshold_inplace(&mut buf, k).to_bits(),
                th.to_bits()
            );
            for min_distance in [2_usize, 5, 17] {
                let got: Vec<usize> = find_peaks(&series, th, min_distance)
                    .iter()
                    .map(|p| p.index)
                    .collect();
                assert_eq!(got, reference_peaks(&series, th, min_distance));
            }
        }
    }

    #[test]
    fn peaks_sorted_by_index() {
        let s = [0.0, 0.9, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.8, 0.0];
        let p = find_peaks(&s, 0.5, 2);
        let idx: Vec<usize> = p.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![1, 5, 8]);
    }
}
