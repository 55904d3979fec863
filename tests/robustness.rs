//! Robustness: the decode pipeline is exposed to raw RF captures, so it
//! must never panic, hang, or emit non-finite values — no matter what the
//! air contains. These tests feed it adversarial and degenerate inputs.

// Helper fns outside #[test] bodies fall outside clippy.toml's
// allow-unwrap-in-tests; extend the same test policy to the whole file.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use lf_backscatter::prelude::*;
use proptest::prelude::*;

fn decoder() -> Decoder {
    let mut cfg = DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0));
    cfg.rate_plan = RatePlan::from_bps(100.0, &[2_000.0, 5_000.0, 10_000.0]).unwrap();
    Decoder::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bounded IQ garbage: decode must return cleanly with
    /// finite outputs.
    #[test]
    fn decoder_survives_random_signals(
        seedlets in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 8),
        len in 0usize..20_000,
    ) {
        // Expand the seedlets into a longer deterministic signal so the
        // case space stays manageable while the signal stays "random".
        let signal: Vec<Complex> = (0..len)
            .map(|t| {
                let (a, b) = seedlets[t % seedlets.len()];
                let w = ((t as f64 * 0.7391).sin() * 43758.5453).fract();
                Complex::new(a * w, b * (1.0 - w))
            })
            .collect();
        let decode = decoder().decode(&signal);
        for s in &decode.streams {
            prop_assert!(s.offset.is_finite());
            prop_assert!(s.period.is_finite() && s.period > 0.0);
            prop_assert!(s.edge_vector.is_finite());
        }
    }

    /// Step functions, impulses, and saturated captures.
    #[test]
    fn decoder_survives_pathological_waveforms(kind in 0usize..5, len in 100usize..10_000) {
        let signal: Vec<Complex> = (0..len)
            .map(|t| match kind {
                0 => Complex::new(1e6, -1e6),                     // saturated
                1 => Complex::new(if t == len / 2 { 1e3 } else { 0.0 }, 0.0), // impulse
                2 => Complex::new(if t % 2 == 0 { 1.0 } else { -1.0 }, 0.0),  // Nyquist
                3 => Complex::new(t as f64 * 1e-3, -(t as f64) * 1e-3),       // ramp
                _ => Complex::ZERO,                                // silence
            })
            .collect();
        let decode = decoder().decode(&signal);
        for s in &decode.streams {
            prop_assert!(s.offset.is_finite());
        }
    }
}

/// Every decoded field as its exact bit pattern.
fn bit_pattern(decode: &EpochDecode) -> Vec<u64> {
    let mut out = vec![decode.n_edges as u64, decode.n_tracked as u64];
    for s in &decode.streams {
        out.extend([
            u64::from(s.rate.multiple()),
            s.rate_bps.to_bits(),
            s.offset.to_bits(),
            s.period.to_bits(),
            s.edge_vector.re.to_bits(),
            s.edge_vector.im.to_bits(),
            s.kind as u64,
            s.bits.len() as u64,
        ]);
        out.extend(s.bits.iter().map(u64::from));
    }
    out
}

#[test]
fn decoder_handles_non_finite_samples_degraded_but_safe() {
    // NaN/∞ should never reach a production decoder (front ends clamp),
    // but if they do they are dropouts: the decode is exactly that of the
    // same capture with those samples zeroed.
    let mut sc = Scenario::paper_default(
        vec![ScenarioTag::sensor(10_000.0).with_payload_bits(32)],
        20_000,
    )
    .at_sample_rate(SampleRate::from_msps(1.0));
    sc.rate_plan = RatePlan::from_bps(100.0, &[2_000.0, 5_000.0, 10_000.0]).unwrap();
    let (mut zeroed, truths) = synthesize_epoch(&sc, 0);
    let frame = truths[0].bits.len() as f64 * truths[0].period;
    let inside = [1.0, 2.0].map(|k| (truths[0].offset + k * frame / 3.0) as usize);
    let mut poisoned = zeroed.clone();
    poisoned[inside[0]] = Complex::new(f64::NAN, 0.0);
    poisoned[inside[1]] = Complex::new(0.0, f64::INFINITY);
    for i in inside {
        zeroed[i] = Complex::ZERO;
    }
    let expected = decoder().decode(&zeroed);
    assert!(
        expected.streams.iter().any(|s| !s.bits.is_empty()),
        "test premise: the zeroed capture decodes a stream"
    );
    assert_eq!(
        bit_pattern(&decoder().decode(&poisoned)),
        bit_pattern(&expected)
    );
}

#[test]
fn epoch_splitter_handles_degenerate_sessions() {
    use lf_backscatter::reader::{OnlineSegmenter, SegmentedEpoch, ThresholdPolicy};
    let split = |sig: &[Complex]| -> Vec<SegmentedEpoch> {
        let mut seg = OnlineSegmenter::new(SegmenterConfig {
            smooth: 8,
            min_gap: 64,
            min_epoch: 256,
            max_epoch: 1 << 20,
            threshold: ThresholdPolicy::Calibrate { window: 512 },
        });
        let mut out = Vec::new();
        seg.push_chunk(sig, &mut out);
        seg.finish(&mut out);
        out
    };
    // Constant power: one epoch or none, never a panic.
    let sig = vec![Complex::new(0.3, 0.1); 2_000];
    assert!(split(&sig).len() <= 1);
    // Alternating on/off faster than min_gap: treated as one noisy epoch.
    let sig: Vec<Complex> = (0..2_000)
        .map(|t| {
            if (t / 8) % 2 == 0 {
                Complex::new(0.4, 0.0)
            } else {
                Complex::ZERO
            }
        })
        .collect();
    assert!(split(&sig).len() <= 1);
}
