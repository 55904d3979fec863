//! Epoch segmentation: finding the carrier-off gaps in a long capture.
//!
//! §3.2: "the reader chops up time into shorter epochs, where each epoch
//! is initiated by the reader by shutting off and re-starting its carrier
//! wave." While the carrier is off there is no environment reflection and
//! no backscatter — the capture collapses to receiver noise. The
//! segmenter finds those quiet gaps by thresholding smoothed signal
//! power, and [`decode_session`] runs the full pipeline over each epoch
//! independently (per-epoch independence is what re-randomizes collision
//! patterns and keeps channel coefficients "relatively stable during an
//! epoch", §3.4).

use crate::config::DecoderConfig;
use crate::pipeline::{Decoder, EpochDecode};
use crate::scratch::DecodeScratch;
use lf_dsp::window::moving_average;
use lf_types::Complex;
use std::ops::Range;

/// Splits a capture into carrier-on epochs separated by carrier-off gaps.
///
/// `min_gap` and `min_epoch` (samples) reject glitches: a dip shorter
/// than `min_gap` is not a gap, a segment shorter than `min_epoch` is not
/// an epoch. Power is smoothed over `smooth` samples before
/// thresholding at half the capture's median power (the carrier and
/// environment reflection dominate median power when the carrier is on).
pub fn split_epochs(
    signal: &[Complex],
    smooth: usize,
    min_gap: usize,
    min_epoch: usize,
) -> Vec<Range<usize>> {
    if signal.is_empty() {
        return Vec::new();
    }
    let power: Vec<f64> = signal.iter().map(|s| s.norm_sqr()).collect();
    let smoothed = moving_average(&power, smooth.max(1));
    let threshold = 0.5 * lf_dsp::stats::median(&smoothed);

    let mut epochs = Vec::new();
    let mut start: Option<usize> = None;
    let mut below_run = 0usize;
    for (t, &p) in smoothed.iter().enumerate() {
        if p >= threshold {
            if start.is_none() {
                start = Some(t);
            }
            below_run = 0;
        } else if let Some(s) = start {
            below_run += 1;
            if below_run >= min_gap {
                let end = t + 1 - below_run;
                if end - s >= min_epoch {
                    epochs.push(s..end);
                }
                start = None;
                below_run = 0;
            }
        }
    }
    if let Some(s) = start {
        let end = signal.len();
        if end - s >= min_epoch {
            epochs.push(s..end);
        }
    }
    epochs
}

/// One epoch's decode within a session.
#[derive(Debug)]
pub struct SessionEpoch {
    /// The sample range of this epoch within the session capture.
    pub range: Range<usize>,
    /// The decode (stream offsets are relative to `range.start`).
    pub decode: EpochDecode,
}

/// Splits a session capture at its carrier gaps and decodes each epoch.
pub fn decode_session(signal: &[Complex], cfg: &DecoderConfig) -> Vec<SessionEpoch> {
    // Gap detection scale: a gap must exceed a few edge widths (the
    // carrier actually drops for much longer in practice); smoothing over
    // an edge width keeps toggles from looking like gaps.
    let smooth = (4.0 * cfg.edge_width) as usize;
    let min_gap = (16.0 * cfg.edge_width) as usize;
    let min_epoch = 32 * cfg.detect_window;
    let decoder = Decoder::new(cfg.clone());
    // One scratch for the whole session: every epoch after the first
    // decodes on warm buffers.
    let mut scratch = DecodeScratch::default();
    split_epochs(signal, smooth, min_gap, min_epoch)
        .into_iter()
        .map(|range| SessionEpoch {
            decode: decoder
                .decode_timed_with(&signal[range.clone()], &mut scratch)
                .0,
            range,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_channel::air::{synthesize, AirConfig, TagAir};
    use lf_channel::dynamics::StaticChannel;
    use lf_tag::clock::ClockModel;
    use lf_tag::comparator::Comparator;
    use lf_tag::tag::{LfTag, TagConfig};
    use lf_types::{BitRate, BitVec, RatePlan, SampleRate, TagId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_gaps_are_found() {
        // 3 carrier-on segments of 5000 samples with 500-sample gaps.
        let mut signal = Vec::new();
        for k in 0..3 {
            signal.extend(vec![Complex::new(0.4, -0.2); 5000]);
            if k < 2 {
                signal.extend(vec![Complex::new(0.001, 0.0); 500]);
            }
        }
        let epochs = split_epochs(&signal, 8, 64, 256);
        assert_eq!(epochs.len(), 3);
        for (k, e) in epochs.iter().enumerate() {
            assert!((e.start as i64 - (k as i64 * 5500)).abs() < 64, "{e:?}");
            assert!((e.len() as i64 - 5000).abs() < 64);
        }
    }

    #[test]
    fn short_dips_are_not_gaps() {
        let mut signal = vec![Complex::new(0.4, -0.2); 4000];
        // A 10-sample glitch (far below min_gap).
        for s in signal.iter_mut().skip(2000).take(10) {
            *s = Complex::ZERO;
        }
        let epochs = split_epochs(&signal, 8, 64, 256);
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].len(), 4000);
    }

    #[test]
    fn empty_and_silent_captures() {
        assert!(split_epochs(&[], 8, 64, 256).is_empty());
        // All-noise capture: median power tiny, everything "on", one
        // epoch spanning the capture — harmless (decode finds nothing).
        let sig = vec![Complex::new(1e-4, 0.0); 1000];
        let epochs = split_epochs(&sig, 8, 64, 256);
        assert!(epochs.len() <= 1);
    }

    #[test]
    fn session_decode_recovers_streams_in_both_epochs() {
        // Two epochs with one tag each; the tag re-keys its offset per
        // epoch (as the comparator would).
        let fs = SampleRate::from_msps(1.0);
        let mut rng = StdRng::seed_from_u64(8);
        let bits: BitVec = (0..60).map(|k| k == 0 || (k * 7 % 5) < 2).collect();
        let mut session: Vec<Complex> = Vec::new();
        let mut truth_bits = Vec::new();
        for epoch in 0..2 {
            let tag = LfTag::new(TagConfig {
                id: TagId(0),
                rate: BitRate::from_bps(10_000.0, 100.0).unwrap(),
                clock: ClockModel::ideal(),
                comparator: Comparator::fixed(100e-6 + epoch as f64 * 23e-6),
            });
            let plan = tag.plan_epoch(bits.clone(), fs, 100.0, &mut rng);
            truth_bits.push(plan.bits.clone());
            let mut air = AirConfig::paper_default(8_000);
            air.sample_rate = fs;
            air.noise_sigma = 0.004;
            air.seed = 40 + epoch;
            session.extend(synthesize(
                &air,
                &[TagAir {
                    events: plan.events,
                    initial_level: 0.0,
                    process: Box::new(StaticChannel(Complex::new(0.1, 0.05))),
                }],
            ));
            // Carrier-off gap: noise only.
            let mut gap_cfg = AirConfig::paper_default(600);
            gap_cfg.sample_rate = fs;
            gap_cfg.env_reflection = Complex::ZERO;
            gap_cfg.noise_sigma = 0.004;
            gap_cfg.seed = 90 + epoch;
            session.extend(synthesize(&gap_cfg, &[]));
        }

        let mut cfg = DecoderConfig::at_sample_rate(fs);
        cfg.rate_plan = RatePlan::from_bps(100.0, &[10_000.0]).unwrap();
        let epochs = decode_session(&session, &cfg);
        assert_eq!(epochs.len(), 2, "both carrier-on segments found");
        for (k, e) in epochs.iter().enumerate() {
            let s = e
                .decode
                .streams
                .iter()
                .find(|s| s.bits.len() >= 60)
                .unwrap_or_else(|| panic!("epoch {k} decoded no stream"));
            assert_eq!(s.bits.slice(0, 60), truth_bits[k], "epoch {k} bits wrong");
        }
    }
}
