//! The ROADMAP sub-harmonic fusion case: diagnosis *and* recovery.
//!
//! Two tags whose *edge trains* share a sub-harmonic: tag A signals at
//! 10 kbps but toggles (mostly) every 2nd slot, tag B at 15 kbps toggles
//! (mostly) every 3rd slot — both emit one edge every 200 µs, i.e. both
//! look 5 kbps-periodic on the air. The folder cannot lock either tag at
//! its true rate (the every-m-th-slot pattern is exactly the residue-class
//! alias the tracker rejects), so both collapse onto the shared 5 kbps
//! sub-harmonic.
//!
//! What the carve adds: real payloads are not *pure* stride
//! patterns. The sparse data bits that break the stride put edges at
//! sub-grid positions the 5 kbps lock cannot explain — those residuals
//! are the carve's evidence. The carve stage re-folds them at candidate
//! harmonics, re-enters the folding stage, and re-tracks each fused
//! stream at its true rate. The fusion case now *decodes*, with the carve
//! recorded in [`DecodeProvenance`] as a recovery gate.
//!
//! The pure-stride pattern, by contrast, is waveform-identical to a
//! genuine 5 kbps tag — no decoder can split it within one epoch — so it
//! must stay flagged (ambiguous fold, failing stage named), not decoded.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use lf_channel::air::{synthesize, AirConfig, TagAir};
use lf_channel::dynamics::StaticChannel;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::{Decoder, EpochDecode, StageTimings};
use lf_core::DecodeScratch;
use lf_obs::{ObsContext, RecordKind};
use lf_tag::clock::ClockModel;
use lf_tag::comparator::Comparator;
use lf_tag::tag::{LfTag, TagConfig};
use lf_types::{BitRate, BitVec, Complex, RatePlan, SampleRate, TagId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS_MSPS: f64 = 1.0;
const BASE_BPS: f64 = 100.0;
const N_SAMPLES: usize = 20_000;

/// The decoder knows all three true rates — the fusion is not a rate-plan
/// gap, it is the edge trains genuinely carrying (almost) only
/// sub-harmonic structure.
fn cfg() -> DecoderConfig {
    let mut c = DecoderConfig::at_sample_rate(SampleRate::from_msps(FS_MSPS));
    c.rate_plan = RatePlan::from_bps(BASE_BPS, &[5_000.0, 10_000.0, 15_000.0]).unwrap();
    c
}

/// Bits that toggle the level at every `stride`-th slot (slot 0 rises:
/// the anchor). `[1,1,0,0,1,1,…]` for stride 2, `[1,1,1,0,0,0,…]` for
/// stride 3 — an edge every `stride` slots, nothing in between.
fn stride_bits(n: usize, stride: usize, skew: usize) -> BitVec {
    pulsed_stride_bits(n, stride, skew, &[])
}

/// A mostly-stride payload: the stride pattern with sparse single-bit
/// "data pulses" flipped in at `flips`. Each flip splits one stride
/// plateau, moving one edge *off* the shared sub-harmonic grid — the
/// residual evidence the carve re-folds. Flip positions must sit at
/// least one full stride apart.
fn pulsed_stride_bits(n: usize, stride: usize, skew: usize, flips: &[usize]) -> BitVec {
    let mut level = false;
    let mut raw: Vec<bool> = Vec::with_capacity(n);
    for k in 0..n {
        if k % stride == skew {
            level = !level;
        }
        raw.push(level);
    }
    for &f in flips {
        raw[f] = !raw[f];
    }
    raw.into_iter().collect()
}

/// Tag A: 10 kbps, stride 2 — on-grid edges at 0 mod 200 µs. Flipping
/// bits 0–1 suppresses the first plateau (the t = 0 edge is outside the
/// capture anyway), so the first *detectable* edge — slot 4 — rises, as
/// the anchor convention requires. Data pulses flip the bit after a
/// toggle, adding an off-grid edge at +100 µs and removing the next
/// on-grid edge.
fn payload_a() -> BitVec {
    let mut flips = vec![0, 1];
    flips.extend((1..10).map(|j| 20 * j + 1));
    pulsed_stride_bits(200, 2, 0, &flips)
}

/// Tag B: 15 kbps, stride 3 starting at slot 2 — on-grid edges at
/// ~133 mod 200 µs. Data pulses flip the last bit of a plateau, adding an
/// off-grid edge at +66.7 µs past the next grid line and removing the
/// following on-grid edge.
fn payload_b() -> BitVec {
    let flips: Vec<usize> = (1..10).map(|j| 30 * j + 4).collect();
    pulsed_stride_bits(300, 3, 2, &flips)
}

fn synthesize_tags(tags: &[(f64, Complex, BitVec)]) -> Vec<Complex> {
    let fs = SampleRate::from_msps(FS_MSPS);
    let mut rng = StdRng::seed_from_u64(7);
    let mut air_tags = Vec::new();
    for (i, (rate_bps, h, bits)) in tags.iter().enumerate() {
        let tag = LfTag::new(TagConfig {
            id: TagId(i as u32),
            rate: BitRate::from_bps(*rate_bps, BASE_BPS).unwrap(),
            clock: ClockModel {
                drift: 0.0,
                jitter_std_s: 0.0,
            },
            comparator: Comparator::fixed(0.0),
        });
        let plan = tag.plan_epoch(bits.clone(), fs, BASE_BPS, &mut rng);
        air_tags.push(TagAir {
            events: plan.events,
            initial_level: 0.0,
            process: Box::new(StaticChannel(*h)),
        });
    }
    let mut air_cfg = AirConfig::paper_default(N_SAMPLES);
    air_cfg.sample_rate = fs;
    air_cfg.noise_sigma = 0.002;
    air_cfg.seed = 11;
    synthesize(&air_cfg, &air_tags)
}

fn synthesize_pair() -> Vec<Complex> {
    synthesize_tags(&[
        (10_000.0, Complex::new(0.09, 0.05), payload_a()),
        (15_000.0, Complex::new(-0.06, 0.08), payload_b()),
    ])
}

/// True when some decoded stream at `rate_bps` starts with `truth`
/// (compared over `truth`'s first `n` bits).
fn recovered(
    decode: &lf_core::pipeline::EpochDecode,
    rate_bps: f64,
    truth: &BitVec,
    n: usize,
) -> bool {
    decode.streams.iter().any(|s| {
        s.rate_bps == rate_bps && s.bits.len() >= n && s.bits.slice(0, n) == truth.slice(0, n)
    })
}

fn assert_fusion_context_recorded(decode: &EpochDecode, n_streams: usize) {
    assert!(
        decode.n_edges > 100,
        "edge count missing: {}",
        decode.n_edges
    );
    assert_eq!(decode.n_tracked, n_streams);
    assert_eq!(decode.provenance.streams.len(), n_streams);
}

#[test]
fn fused_subharmonic_streams_are_carved_and_decoded() {
    let signal = synthesize_pair();
    let decoder = Decoder::new(cfg());
    let decode = decoder.decode(&signal);
    let prov = &decode.provenance;

    // The fusion is undone: both tags decode at their *true* rates.
    let mut rates: Vec<f64> = decode.streams.iter().map(|s| s.rate_bps).collect();
    rates.sort_by(f64::total_cmp);
    assert_eq!(
        rates,
        vec![10_000.0, 15_000.0],
        "carve did not split the fusion: {prov:?}"
    );
    assert_fusion_context_recorded(&decode, decode.streams.len());

    // Payloads round-trip. A track starts at its first detected edge, so
    // each decode begins where its tag first toggles: slot 4 for tag A
    // (quiet preamble), slot 2 for tag B (stride skew).
    let full_a = payload_a();
    let truth_a: BitVec = full_a.as_slice()[4..].iter().copied().collect();
    assert!(
        recovered(&decode, 10_000.0, &truth_a, truth_a.len()),
        "tag A payload not recovered: {prov:?}"
    );
    let full_b = payload_b();
    let truth_b: BitVec = full_b.as_slice()[2..].iter().copied().collect();
    assert!(
        recovered(&decode, 15_000.0, &truth_b, truth_b.len()),
        "tag B payload not recovered: {prov:?}"
    );

    // Each stream's provenance records the whole story: the ambiguous
    // fold the 5 kbps lock saw (kept as evidence), and the accepted carve
    // that explained it — a recovery gate, not a failure.
    for sp in &prov.streams {
        assert!(
            sp.fold.is_ambiguous(),
            "fused fold record lost by the carve: {:?}",
            sp.fold
        );
        let carve = sp
            .carve
            .as_ref()
            .unwrap_or_else(|| panic!("no carve recorded for {} bps: {sp:?}", sp.rate_bps));
        assert!(carve.accepted, "carve not accepted: {carve:?}");
        let expected_harmonic = if sp.rate_bps == 10_000.0 { 2 } else { 3 };
        assert_eq!(carve.harmonic, expected_harmonic, "{carve:?}");
        assert!(carve.n_residual >= 3, "{carve:?}");
        assert!(carve.residual_peak >= 3.0, "{carve:?}");
        assert!(
            carve.n_matched_after >= carve.n_matched_before + 3,
            "{carve:?}"
        );
        assert_eq!(
            sp.failing_stage(),
            None,
            "recovered stream still flagged: {sp:?}"
        );
    }
    assert_eq!(prov.failing_stage(), None, "epoch still flagged: {prov:?}");
}

#[test]
fn carve_rerun_spans_follow_the_runner_order() {
    // Big enough that no record of the decode is overwritten.
    let obs = ObsContext::with_ring_capacity(1 << 16);
    let decoder = Decoder::with_obs(cfg(), obs.clone());
    let (decode, timings) =
        decoder.decode_timed_with(&synthesize_pair(), &mut DecodeScratch::default());
    assert!(
        decode
            .provenance
            .streams
            .iter()
            .any(|sp| sp.carve.as_ref().is_some_and(|c| c.accepted)),
        "no carve accepted: {:?}",
        decode.provenance
    );

    // The stage span exits, in the order the trace ring recorded them.
    let trace = obs.recent_trace();
    assert_eq!(trace.first().map(|r| r.seq), Some(0), "trace ring wrapped");
    let names = StageTimings::names();
    let exits: Vec<(&str, u64)> = trace
        .iter()
        .filter_map(|r| {
            let stage = r.path.strip_prefix("pipeline.total.pipeline.")?;
            let name = names.into_iter().find(|&n| n == stage)?;
            match r.kind {
                RecordKind::SpanExit { dur_ns } => Some((name, dur_ns)),
                _ => None,
            }
        })
        .collect();
    let order: Vec<&str> = exits.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        order,
        [
            "edges",
            "folding",
            "slots",
            "separation",
            "decode",
            "carve",
            "folding",
            "slots",
            "separation",
            "decode",
            "carve",
        ]
    );
    // The re-run adds into the slots of the stages it ran again.
    for (i, name) in names.iter().enumerate() {
        let span_ns: u64 = exits
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, d)| d)
            .sum();
        let slot_ns = u64::try_from(timings.per_stage[i].as_nanos()).unwrap();
        assert_eq!(span_ns, slot_ns, "{name} spans");
    }
}

#[test]
fn pure_stride_fusion_stays_flagged_not_decoded() {
    // Pure stride patterns are waveform-identical to genuine 5 kbps tags:
    // there are no residual edges to carve, so the honest outcome is the
    // diagnosis — ambiguous folds, no accepted carve, folding stage named.
    let signal = synthesize_tags(&[
        (10_000.0, Complex::new(0.09, 0.05), stride_bits(200, 2, 0)),
        (15_000.0, Complex::new(-0.06, 0.08), stride_bits(300, 3, 2)),
    ]);
    let decoder = Decoder::new(cfg());
    let decode = decoder.decode(&signal);
    let prov = &decode.provenance;

    assert!(
        !decode.streams.is_empty(),
        "nothing locked at all: {prov:?}"
    );
    for s in &decode.streams {
        assert_eq!(
            s.rate_bps, 5_000.0,
            "expected every lock at the shared sub-harmonic, got {} bps",
            s.rate_bps
        );
    }
    assert_fusion_context_recorded(&decode, decode.streams.len());

    // Each 5 kbps lock must record the ambiguous fold: its peak has a
    // rival of comparable weight (the *other* tag's edge train in the
    // same fold histogram) — and no carve rescued it.
    for sp in &prov.streams {
        assert!(
            sp.fold.is_ambiguous(),
            "fold not flagged ambiguous: {:?}",
            sp.fold
        );
        assert!(
            sp.fold.runner_up_weight > 0.5 * sp.fold.peak_weight,
            "rival peak not recorded: {:?}",
            sp.fold
        );
        assert!(sp.fold.peak_snr() > 2.0, "no usable SNR: {:?}", sp.fold);
        assert!(
            !sp.carve.as_ref().is_some_and(|c| c.accepted),
            "a carve accepted with no residual evidence: {:?}",
            sp.carve
        );
        // The per-k model-selection scores the separation stage tried.
        assert!(
            !sp.separation.k_scores.is_empty(),
            "k-means scores not recorded: {:?}",
            sp.separation
        );
        assert!(sp.separation.chosen_k > 0);
    }

    // And the epoch-level report names the stage to look at.
    assert_eq!(prov.failing_stage(), Some("stream-folding"));
}

/// Pseudorandom payload with the anchor rise first — an ordinary frame.
fn payload(n: usize, seed: u64) -> BitVec {
    let mut bits = BitVec::with_capacity(n);
    bits.push(true);
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    for _ in 1..n {
        x ^= x >> 13;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        bits.push(x & 1 == 1);
    }
    bits
}

#[test]
fn true_rate_locks_are_not_flagged() {
    // Control: one tag carrying an ordinary (pseudorandom) payload locks
    // at its true rate and the fold diagnosis stays quiet — the ambiguity
    // flag is a fusion signature, not a constant alarm.
    let signal = synthesize_tags(&[(10_000.0, Complex::new(0.09, 0.05), payload(200, 3))]);
    let decoder = Decoder::new(cfg());
    let decode = decoder.decode(&signal);
    let rates: Vec<f64> = decode.streams.iter().map(|s| s.rate_bps).collect();
    assert_eq!(rates, vec![10_000.0], "control scenario mislocked");
    assert_eq!(
        decode.provenance.failing_stage(),
        None,
        "clean decode flagged: {:?}",
        decode.provenance
    );
}
