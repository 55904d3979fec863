//! Epoch segmentation: finding carrier-off gaps in a sample stream.
//!
//! §3.2: "the reader chops up time into shorter epochs, where each epoch
//! is initiated by the reader by shutting off and re-starting its carrier
//! wave." While the carrier is off there is no environment reflection and
//! no backscatter — the capture collapses to receiver noise. This
//! segmenter finds those quiet gaps causally: power is smoothed over a
//! trailing window and thresholded at half the median smoothed power of a
//! calibration prefix (or at a threshold pinned by the caller), and an
//! incremental state machine rejects glitches — a dip shorter than
//! `min_gap` is not a gap, a segment shorter than `min_epoch` is not an
//! epoch. It is the workspace's only segmenter: an offline capture is
//! segmented by feeding it through a [`SliceSource`](crate::SliceSource)
//! into [`sequential_decode`](crate::sequential_decode).
//!
//! Segmentation is **chunk-size invariant**: the state machine advances
//! one sample at a time, so feeding the same capture in 1-sample or
//! 64k-sample chunks produces byte-identical epochs. That invariance is
//! what lets the parallel runtime promise results identical to a
//! sequential decode of the same capture.
//!
//! Memory is bounded: the only unbounded-looking buffer is the open
//! epoch itself, and [`SegmenterConfig::max_epoch`] force-closes an epoch
//! that exceeds it (a carrier that never drops — e.g. a miscalibrated
//! threshold over an all-noise capture — must not buffer forever).

use lf_core::config::DecoderConfig;
use lf_dsp::stats::median_inplace;
use lf_types::Complex;
use std::collections::VecDeque;
use std::ops::Range;

/// How the carrier-power threshold is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Use this power threshold directly (for calibrated deployments).
    Fixed(f64),
    /// Calibrate from the stream's first `window` samples: half the
    /// median of their smoothed power (the carrier and environment
    /// reflection dominate median power when the carrier is on). Assumes
    /// the stream opens with the carrier up — true for a reader
    /// appliance, which powers its carrier before any tag can talk.
    Calibrate {
        /// Number of leading samples used for calibration.
        window: usize,
    },
}

/// Online segmenter parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmenterConfig {
    /// Trailing power-smoothing window in samples (≥ 1).
    pub smooth: usize,
    /// A below-threshold run must reach this length to count as a gap.
    pub min_gap: usize,
    /// A carrier-on segment must reach this length to count as an epoch.
    pub min_epoch: usize,
    /// Force-close an epoch at this many samples (bounds buffering).
    pub max_epoch: usize,
    /// Threshold selection.
    pub threshold: ThresholdPolicy,
}

impl SegmenterConfig {
    /// Derives segmentation scales from a decoder configuration:
    /// smoothing over four edge widths (so tag toggles never look like
    /// gaps), a minimum epoch of 32 detection windows, and a gap scale
    /// from the rate plan. A below-threshold run only counts as a carrier
    /// gap if no tag could have produced it by modulating: several
    /// concurrent strong tags can destructively combine with the carrier
    /// and hold the power under the threshold for about one bit, so the
    /// gap scale is two bit periods of the plan's *slowest* rate. The
    /// reader controls the real carrier-off gap between epochs and must
    /// make it longer than `min_gap` (plus the smoothing window) for the
    /// segmenter to see it.
    pub fn from_decoder(cfg: &DecoderConfig) -> Self {
        let smooth = (4.0 * cfg.edge_width).round() as usize;
        let slowest_period = cfg.period_samples(cfg.rate_plan.min_bps());
        let min_gap = (2.0 * slowest_period).max(16.0 * cfg.edge_width).round() as usize;
        let min_epoch = 32 * cfg.detect_window;
        SegmenterConfig {
            smooth: smooth.max(1),
            min_gap: min_gap.max(1),
            min_epoch,
            // ~1/3 s of the paper's 25 Msps capture; far above any epoch
            // the experiments use, small enough to bound worker memory.
            max_epoch: 1 << 23,
            threshold: ThresholdPolicy::Calibrate {
                window: min_epoch.max(8 * min_gap),
            },
        }
    }
}

/// One segmented epoch: its position in the stream and its samples.
#[derive(Debug, Clone)]
pub struct SegmentedEpoch {
    /// Sample range of the epoch within the whole stream.
    pub range: Range<usize>,
    /// The epoch's IQ samples (`range.len()` of them).
    pub samples: Vec<Complex>,
    /// True when the epoch was closed by the `max_epoch` bound rather
    /// than a detected carrier gap.
    pub forced_split: bool,
}

/// The incremental carrier-gap state machine.
#[derive(Debug)]
pub struct OnlineSegmenter {
    cfg: SegmenterConfig,
    /// Calibrated (or fixed) power threshold; `None` while calibrating.
    threshold: Option<f64>,
    /// `(sample, smoothed_power)` pairs buffered while calibrating.
    calib: Vec<(Complex, f64)>,
    /// Ring of the last `smooth` sample powers and their running sum.
    ring: VecDeque<f64>,
    ring_sum: f64,
    /// Recent samples kept while outside an epoch, so an epoch open can
    /// back-date its start by half the smoothing window (approximating
    /// centred smoothing).
    history: VecDeque<Complex>,
    /// Global index of the next sample to be processed.
    cursor: usize,
    /// Global start index of the open epoch, if any.
    start: Option<usize>,
    /// Samples of the open epoch.
    pending: Vec<Complex>,
    /// Current run of below-threshold samples inside the open epoch.
    below_run: usize,
}

impl OnlineSegmenter {
    /// Creates a segmenter.
    pub fn new(cfg: SegmenterConfig) -> Self {
        let threshold = match cfg.threshold {
            ThresholdPolicy::Fixed(t) => Some(t),
            ThresholdPolicy::Calibrate { .. } => None,
        };
        OnlineSegmenter {
            cfg,
            threshold,
            calib: Vec::new(),
            ring: VecDeque::new(),
            ring_sum: 0.0,
            history: VecDeque::new(),
            cursor: 0,
            start: None,
            pending: Vec::new(),
            below_run: 0,
        }
    }

    /// The active threshold, once known.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// Feeds one chunk of samples, appending any completed epochs to
    /// `out` in stream order.
    pub fn push_chunk(&mut self, chunk: &[Complex], out: &mut Vec<SegmentedEpoch>) {
        for &s in chunk {
            self.push_sample(s, out);
        }
    }

    /// Flushes the stream end: an open epoch is closed as-is (the gap
    /// that would normally terminate it never arrived), apart from the
    /// carrier-off samples trimmed from its tail. The segmenter is
    /// reusable afterwards (threshold calibration is retained).
    pub fn finish(&mut self, out: &mut Vec<SegmentedEpoch>) {
        // A stream shorter than the calibration window: calibrate from
        // whatever arrived, then replay.
        if self.threshold.is_none() && !self.calib.is_empty() {
            self.complete_calibration(out);
        }
        if let Some(start) = self.start.take() {
            let mut pending = std::mem::take(&mut self.pending);
            if let Some(threshold) = self.threshold {
                trim_trailing_gap(&mut pending, threshold, self.cfg.smooth);
            }
            if pending.len() >= self.cfg.min_epoch {
                out.push(SegmentedEpoch {
                    range: start..start + pending.len(),
                    samples: pending,
                    forced_split: false,
                });
            }
        }
        self.below_run = 0;
    }

    fn push_sample(&mut self, s: Complex, out: &mut Vec<SegmentedEpoch>) {
        let power = s.norm_sqr();
        self.ring_sum += power;
        self.ring.push_back(power);
        if self.ring.len() > self.cfg.smooth {
            if let Some(old) = self.ring.pop_front() {
                self.ring_sum -= old;
            }
        }
        let smoothed = self.ring_sum / self.ring.len() as f64;

        if self.threshold.is_none() {
            self.calib.push((s, smoothed));
            let window = match self.cfg.threshold {
                ThresholdPolicy::Calibrate { window } => window.max(1),
                // Unreachable in practice (threshold is set at
                // construction for Fixed), kept total for safety.
                ThresholdPolicy::Fixed(_) => 1,
            };
            if self.calib.len() >= window {
                self.complete_calibration(out);
            }
            return;
        }
        self.step(s, smoothed, out);
    }

    /// Sets the threshold from the calibration buffer and replays the
    /// buffered samples through the state machine.
    fn complete_calibration(&mut self, out: &mut Vec<SegmentedEpoch>) {
        let mut smoothed: Vec<f64> = self.calib.iter().map(|&(_, p)| p).collect();
        self.threshold = Some(0.5 * median_inplace(&mut smoothed));
        let buffered = std::mem::take(&mut self.calib);
        for (s, p) in buffered {
            self.step(s, p, out);
        }
    }

    fn step(&mut self, s: Complex, smoothed: f64, out: &mut Vec<SegmentedEpoch>) {
        let t = self.cursor;
        self.cursor += 1;
        // Total over NaN: a non-finite power (poisoned sample) reads as
        // "carrier off" so it can never hold an epoch open forever.
        let threshold = self.threshold.unwrap_or(f64::INFINITY);
        let above = smoothed.is_finite() && smoothed >= threshold;

        if above {
            if self.start.is_none() {
                // Back-date the start: the trailing average detects the
                // carrier up to a smoothing window late, so the buffered
                // history holds the first carrier-on samples. Prepend
                // only the *adjacent above-threshold run* — reaching
                // further would pull carrier-off samples into the epoch,
                // and the giant power step at that boundary reads as a
                // spurious signal edge downstream.
                let prepended = self
                    .history
                    .iter()
                    .rev()
                    .take_while(|s| s.norm_sqr() >= threshold)
                    .count();
                let skip = self.history.len() - prepended;
                self.pending = self.history.drain(..).skip(skip).collect();
                self.start = Some(t - prepended);
            }
            self.pending.push(s);
            self.below_run = 0;
            if self.pending.len() >= self.cfg.max_epoch {
                let start = self.start.take().unwrap_or(t);
                let pending = std::mem::take(&mut self.pending);
                out.push(SegmentedEpoch {
                    range: start..start + pending.len(),
                    samples: pending,
                    forced_split: true,
                });
                // Still in carrier: the next sample opens the follow-on
                // epoch with no gap between the two.
                self.start = Some(t + 1);
            }
        } else if let Some(start) = self.start {
            self.pending.push(s);
            self.below_run += 1;
            if self.below_run >= self.cfg.min_gap {
                // Confirmed gap: the below-threshold tail belongs to it.
                let keep = self.pending.len() - self.below_run;
                let mut pending = std::mem::take(&mut self.pending);
                pending.truncate(keep);
                trim_trailing_gap(&mut pending, threshold, self.cfg.smooth);
                if pending.len() >= self.cfg.min_epoch {
                    out.push(SegmentedEpoch {
                        range: start..start + pending.len(),
                        samples: pending,
                        forced_split: false,
                    });
                }
                self.start = None;
                self.below_run = 0;
            }
        } else {
            self.history.push_back(s);
            if self.history.len() > self.cfg.smooth / 2 {
                self.history.pop_front();
            }
        }
    }
}

/// Drops below-threshold samples from the epoch's tail, at most `smooth`
/// of them. The trailing average confirms a carrier drop up to one
/// smoothing window after it happened, so that many carrier-off samples
/// leak past the below-run accounting — and a carrier-off sample at the
/// slice boundary reads as a spurious giant edge downstream. The cap
/// keeps deep *modulation* dips (which the smoothed power rode through)
/// from being mistaken for the gap.
fn trim_trailing_gap(pending: &mut Vec<Complex>, threshold: f64, smooth: usize) {
    let extra = pending
        .iter()
        .rev()
        .take_while(|s| s.norm_sqr() < threshold)
        .count()
        .min(smooth);
    pending.truncate(pending.len() - extra);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_cfg() -> SegmenterConfig {
        SegmenterConfig {
            smooth: 8,
            min_gap: 64,
            min_epoch: 256,
            max_epoch: 1 << 20,
            threshold: ThresholdPolicy::Calibrate { window: 512 },
        }
    }

    /// Three 5000-sample carrier segments separated by 500-sample gaps.
    fn three_epoch_signal() -> Vec<Complex> {
        let mut signal = Vec::new();
        for k in 0..3 {
            signal.extend(vec![Complex::new(0.4, -0.2); 5000]);
            if k < 2 {
                signal.extend(vec![Complex::new(0.001, 0.0); 500]);
            }
        }
        signal
    }

    fn run(signal: &[Complex], chunk: usize, cfg: SegmenterConfig) -> Vec<SegmentedEpoch> {
        let mut seg = OnlineSegmenter::new(cfg);
        let mut out = Vec::new();
        for c in signal.chunks(chunk.max(1)) {
            seg.push_chunk(c, &mut out);
        }
        seg.finish(&mut out);
        out
    }

    #[test]
    fn clean_gaps_are_found() {
        let signal = three_epoch_signal();
        let epochs = run(&signal, 4096, seg_cfg());
        assert_eq!(epochs.len(), 3, "{:?}", ranges(&epochs));
        for (k, e) in epochs.iter().enumerate() {
            // The start is back-dated to within one smoothing window
            // (`smooth` = 8) of the carrier coming up.
            assert!(
                (e.range.start as i64 - (k as i64 * 5500)).abs() <= 8,
                "{:?}",
                e.range
            );
            assert!((e.range.len() as i64 - 5000).abs() < 64, "{:?}", e.range);
            assert_eq!(e.range.len(), e.samples.len());
            assert!(!e.forced_split);
        }
    }

    #[test]
    fn chunk_size_invariance_is_exact() {
        let signal = three_epoch_signal();
        let reference = run(&signal, usize::MAX, seg_cfg());
        for chunk in [1, 7, 100, 4096] {
            let got = run(&signal, chunk, seg_cfg());
            assert_eq!(ranges(&got), ranges(&reference), "chunk {chunk}");
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.samples, b.samples, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn short_dips_are_not_gaps() {
        let mut signal = vec![Complex::new(0.4, -0.2); 4000];
        for s in signal.iter_mut().skip(2000).take(10) {
            *s = Complex::ZERO;
        }
        let epochs = run(&signal, 512, seg_cfg());
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].range, 0..4000);
    }

    #[test]
    fn empty_and_silent_captures() {
        assert!(run(&[], 64, seg_cfg()).is_empty());
        // All-noise capture: the calibrated threshold sits under the
        // noise itself, so at most one epoch spans the capture — harmless
        // (decode finds nothing).
        let sig = vec![Complex::new(1e-4, 0.0); 1000];
        assert!(run(&sig, 64, seg_cfg()).len() <= 1);
    }

    #[test]
    fn max_epoch_force_splits() {
        let signal = vec![Complex::new(0.4, -0.2); 3000];
        let mut cfg = seg_cfg();
        cfg.max_epoch = 1000;
        let epochs = run(&signal, 256, cfg);
        assert_eq!(epochs.len(), 3, "{:?}", ranges(&epochs));
        assert!(epochs[0].forced_split);
        assert!(epochs[1].forced_split);
        assert_eq!(epochs[0].range.len(), 1000);
        // The segments tile the capture with no overlap or hole.
        assert_eq!(epochs[0].range.end, epochs[1].range.start);
        assert_eq!(epochs[1].range.end, epochs[2].range.start);
    }

    #[test]
    fn fixed_threshold_needs_no_calibration() {
        let signal = three_epoch_signal();
        let mut cfg = seg_cfg();
        cfg.threshold = ThresholdPolicy::Fixed(0.05);
        let mut seg = OnlineSegmenter::new(cfg);
        assert_eq!(seg.threshold(), Some(0.05));
        let mut out = Vec::new();
        seg.push_chunk(&signal, &mut out);
        seg.finish(&mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn stream_shorter_than_calibration_window_still_flushes() {
        let signal = vec![Complex::new(0.4, -0.2); 300];
        let epochs = run(&signal, 64, seg_cfg());
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].range, 0..300);
    }

    fn ranges(eps: &[SegmentedEpoch]) -> Vec<Range<usize>> {
        eps.iter().map(|e| e.range.clone()).collect()
    }
}
