//! Stage 5 — bit recovery (§3.5).
//!
//! With the edge vector(s) and per-slot observations in hand, bits are the
//! antenna level after each boundary. The full pipeline runs the 4-state
//! edge-constraint Viterbi decoder ([`lf_dsp::viterbi`]) with the
//! Gaussians fitted in stage 4 as emissions; the Fig. 9 "Edge+IQ" ablation
//! replaces it with per-slot hard decisions against the cluster centroids.

use crate::config::DecoderConfig;
use crate::provenance::AnchorOutcome;
use crate::separate::SingleFit;
use lf_dsp::viterbi::{hard_decode_bits, EmissionModel, ViterbiDecoder};
use lf_types::{BitVec, Complex};

/// What the bit-recovery stage observed: how the anchor convention
/// resolved and the sequence metric of the kept decode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeTrace {
    /// How the anchor-bit convention resolved.
    pub anchor: AnchorOutcome,
    /// Viterbi path metric of the kept decode (log-domain, larger is
    /// better); `None` in hard-decision mode or for an empty decode.
    pub path_metric: Option<f64>,
}

/// Decodes a single-tag stream's observations to bits.
///
/// The anchor convention (§3.4) says bit 0 of a frame is always 1 — the
/// first edge is a rise. If the decode comes back with bit 0 = 0, the
/// rising/falling cluster assignment was probably flipped (the anchor
/// slot's differential can be corrupted by noise or a foreign edge), so
/// retry with the edge vector negated and keep whichever decode satisfies
/// the anchor.
pub fn decode_single(diffs: &[Complex], fit: &SingleFit, cfg: &DecoderConfig) -> BitVec {
    decode_single_traced(diffs, fit, cfg).0
}

/// [`decode_single`] plus a [`DecodeTrace`] of the anchor outcome and path
/// metric. Decode semantics are identical.
pub fn decode_single_traced(
    diffs: &[Complex],
    fit: &SingleFit,
    cfg: &DecoderConfig,
) -> (BitVec, DecodeTrace) {
    let (bits, metric) = decode_with(diffs, fit.e, fit.emissions, fit.toggle_prob, cfg);
    if bits.is_empty() {
        return (bits, DecodeTrace::default());
    }
    if bits[0] {
        return (
            bits,
            DecodeTrace {
                anchor: AnchorOutcome::Satisfied,
                path_metric: metric,
            },
        );
    }
    let flipped_emissions = lf_dsp::viterbi::EmissionModel {
        rise: fit.emissions.fall,
        fall: fit.emissions.rise,
        flat: fit.emissions.flat,
    };
    let (flipped, flipped_metric) =
        decode_with(diffs, -fit.e, flipped_emissions, fit.toggle_prob, cfg);
    if !flipped.is_empty() && flipped[0] {
        (
            flipped,
            DecodeTrace {
                anchor: AnchorOutcome::FlippedAndSatisfied,
                path_metric: flipped_metric,
            },
        )
    } else {
        lf_obs::event!(Warn, "anchor bit violated by both decode polarities");
        (
            bits,
            DecodeTrace {
                anchor: AnchorOutcome::Violated,
                path_metric: metric,
            },
        )
    }
}

/// Decodes one member of a separated collision, with the path metric of
/// the decode. The anchor outcome is left [`AnchorOutcome::NotEvaluated`]
/// — for collision members the anchor was already consumed by the lattice
/// sign pinning in the separation stage.
pub fn decode_member_traced(
    observations: &[Complex],
    e: Complex,
    emissions: EmissionModel,
    cfg: &DecoderConfig,
) -> (BitVec, DecodeTrace) {
    let (bits, metric) = decode_with(observations, e, emissions, 0.5, cfg);
    (
        bits,
        DecodeTrace {
            anchor: AnchorOutcome::NotEvaluated,
            path_metric: metric,
        },
    )
}

fn decode_with(
    observations: &[Complex],
    e: Complex,
    emissions: EmissionModel,
    toggle_prob: f64,
    cfg: &DecoderConfig,
) -> (BitVec, Option<f64>) {
    if cfg.stages.error_correction {
        // Tags idle low before the frame: the first boundary is a rise or
        // nothing.
        let decoder = ViterbiDecoder::with_toggle_prob(emissions, toggle_prob);
        let states = decoder.decode_states(observations, Some(false));
        let metric = (!states.is_empty()).then(|| decoder.path_metric(observations, &states));
        (states.into_iter().map(|s| s.level()).collect(), metric)
    } else {
        (hard_decode_bits(observations, e, false), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separate::{analyze_slots, StreamAnalysis};
    use lf_types::SampleRate;

    fn cfg() -> DecoderConfig {
        DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0))
    }

    fn diffs_for(bits: &[bool], e: Complex) -> Vec<Complex> {
        let mut level = false;
        bits.iter()
            .map(|&b| {
                let d = match (level, b) {
                    (false, true) => e,
                    (true, false) => -e,
                    _ => Complex::ZERO,
                };
                level = b;
                d
            })
            .collect()
    }

    #[test]
    fn clean_single_stream_round_trip() {
        let e = Complex::new(0.1, 0.03);
        let bits: Vec<bool> = (0..80).map(|k| k == 0 || (k * 3 % 7) < 3).collect();
        let diffs = diffs_for(&bits, e);
        let StreamAnalysis::Single(fit) = analyze_slots(&diffs, &vec![true; diffs.len()], &cfg())
        else {
            panic!("expected single");
        };
        let decoded = decode_single(&diffs, &fit, &cfg());
        assert_eq!(decoded.as_slice(), &bits[..]);
    }

    #[test]
    fn hard_decision_mode_also_round_trips_clean_input() {
        let e = Complex::new(0.1, 0.03);
        let bits: Vec<bool> = (0..40).map(|k| k % 3 == 0).collect();
        let diffs = diffs_for(&bits, e);
        let mut c = cfg();
        c.stages.error_correction = false;
        let StreamAnalysis::Single(fit) = analyze_slots(&diffs, &vec![true; diffs.len()], &c)
        else {
            panic!("expected single");
        };
        let decoded = decode_single(&diffs, &fit, &c);
        assert_eq!(decoded.as_slice(), &bits[..]);
    }

    #[test]
    fn viterbi_mode_fixes_erased_edge_hard_mode_does_not() {
        let e = Complex::new(0.1, 0.0);
        // 1,0 repeated: every boundary has an edge.
        let bits: Vec<bool> = (0..60).map(|k| k % 2 == 0).collect();
        let mut diffs = diffs_for(&bits, e);
        diffs[7] = Complex::ZERO; // erase one falling edge
        let StreamAnalysis::Single(fit) = analyze_slots(&diffs, &vec![true; diffs.len()], &cfg())
        else {
            panic!("expected single");
        };
        let truth: BitVec = bits.iter().copied().collect();
        let vit = decode_single(&diffs, &fit, &cfg());
        let mut c = cfg();
        c.stages.error_correction = false;
        let hard = decode_single(&diffs, &fit, &c);
        assert!(truth.hamming_distance(&vit) <= truth.hamming_distance(&hard));
        assert!(truth.hamming_distance(&vit) <= 1);
    }
}
