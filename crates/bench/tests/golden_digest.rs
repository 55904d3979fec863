//! Golden end-to-end decode digest over a seeded 8-tag simulated session.
//!
//! The hot-path overhaul (shared prefix sums, sqrt-free thresholding,
//! selection medians, reusable scratch) is required to leave the decode
//! output *bit-identical*. This test pins the entire pipeline to one
//! FNV-1a digest of every decoded field — bits, offsets, periods, edge
//! vectors — over the standard CI fixture, and re-decodes through both
//! entry points (the one-shot `decode` on a fresh scratch, and
//! `decode_timed_with` on a reused and on a dirtied caller-owned scratch)
//! to prove they all land on the same digest. If an optimization perturbs
//! a single mantissa bit anywhere in the decode, this fails.

#![allow(clippy::unwrap_used)]

use lf_bench::standard_fixture;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::{Decoder, EpochDecode, StreamKind};
use lf_core::DecodeScratch;
use lf_sim::experiments::Scale;

/// The pinned digest of the seeded session's decode. Recompute only for
/// an *intentional* decode-semantics change (the failure message prints
/// the new value); a perf-only PR must never move it.
const GOLDEN: u64 = 0x69a3_98da_82e7_787c;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Canonical digest of a decode: every numeric field enters as its exact
/// bit pattern, so the digest moves iff any output bit moves.
fn digest_of(decode: &EpochDecode) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    fnv1a(&mut h, &(decode.streams.len() as u64).to_le_bytes());
    fnv1a(&mut h, &(decode.n_edges as u64).to_le_bytes());
    fnv1a(&mut h, &(decode.n_tracked as u64).to_le_bytes());
    for s in &decode.streams {
        fnv1a(&mut h, &u64::from(s.rate.multiple()).to_le_bytes());
        fnv1a(&mut h, &s.rate_bps.to_bits().to_le_bytes());
        fnv1a(&mut h, &s.offset.to_bits().to_le_bytes());
        fnv1a(&mut h, &s.period.to_bits().to_le_bytes());
        fnv1a(&mut h, &s.edge_vector.re.to_bits().to_le_bytes());
        fnv1a(&mut h, &s.edge_vector.im.to_bits().to_le_bytes());
        let kind: u8 = match s.kind {
            StreamKind::Single => 0,
            StreamKind::CollisionMember => 1,
            StreamKind::Unresolved => 2,
        };
        fnv1a(&mut h, &[kind]);
        let bits: Vec<u8> = s.bits.iter().map(u8::from).collect();
        fnv1a(&mut h, &(bits.len() as u64).to_le_bytes());
        fnv1a(&mut h, &bits);
    }
    h
}

#[test]
fn golden_decode_digest_over_seeded_session() {
    let fix = standard_fixture(Scale::Quick, 8, 1);
    let mut cfg = DecoderConfig::at_sample_rate(fix.scenario.sample_rate);
    cfg.rate_plan = fix.scenario.rate_plan.clone();
    let decoder = Decoder::new(cfg);
    let mut scratch = DecodeScratch::default();
    let mut decode_with_scratch =
        |signal: &[lf_types::Complex]| decoder.decode_timed_with(signal, &mut scratch).0;

    let first = digest_of(&decode_with_scratch(&fix.signal));
    assert_eq!(
        first, GOLDEN,
        "decode digest moved: got {first:#018x}, pinned {GOLDEN:#018x} — \
         the pipeline output is no longer bit-identical to the golden session"
    );

    // The second decode reuses the scratch the first one warmed; the third
    // runs on a scratch dirtied by an unrelated capture. Both must match.
    let reused = digest_of(&decode_with_scratch(&fix.signal));
    assert_eq!(reused, GOLDEN, "reused scratch changed the decode");

    let other = standard_fixture(Scale::Quick, 3, 7);
    let _ = decode_with_scratch(&other.signal);
    let dirty = digest_of(&decode_with_scratch(&fix.signal));
    assert_eq!(dirty, GOLDEN, "dirty scratch changed the decode");

    // The one-shot entry point decodes on a fresh scratch of its own.
    let one_shot = digest_of(&decoder.decode(&fix.signal));
    assert_eq!(one_shot, GOLDEN, "one-shot decode changed the decode");

    // Force every lf-dsp kernel onto its scalar fallback: the SIMD
    // backends are pinned bit-identical, so the digest must not move.
    lf_dsp::simd::set_scalar_override(true);
    let scalar = digest_of(&decode_with_scratch(&fix.signal));
    lf_dsp::simd::set_scalar_override(false);
    assert_eq!(
        scalar, GOLDEN,
        "scalar-forced kernels changed the decode: the SIMD backends are \
         not bit-identical to their scalar references"
    );
}
