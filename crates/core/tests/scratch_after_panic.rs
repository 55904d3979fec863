//! Dirty scratch after a panic: a decode that panics mid-epoch must not
//! corrupt later decodes on the same caller-owned [`DecodeScratch`].
//!
//! Under `strict-checks` a NaN sample in the middle of an epoch panics
//! the decode at the stage boundary that sees it, unwinding out of a
//! scratch that still holds the previous epoch's buffers. `lf-reader`
//! workers rely on that being harmless: `decode_contained` catches the
//! panic and the worker reuses its one scratch for the next epoch. The
//! scratch's contract (no decode state between epochs: every buffer is
//! cleared or rebuilt before it is read) says the next decode on it is
//! bit-identical to one on a fresh scratch. This test pins exactly that
//! with an FNV-1a digest over every decoded field.

#![cfg(feature = "strict-checks")]
// Test-only code: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use lf_channel::air::{synthesize, AirConfig, TagAir};
use lf_channel::dynamics::StaticChannel;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::{Decoder, EpochDecode, StreamKind};
use lf_core::DecodeScratch;
use lf_tag::clock::ClockModel;
use lf_tag::comparator::Comparator;
use lf_tag::tag::{LfTag, TagConfig};
use lf_types::{BitRate, BitVec, Complex, RatePlan, SampleRate, TagId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const FS_MSPS: f64 = 1.0;
const BASE_BPS: f64 = 100.0;

fn cfg() -> DecoderConfig {
    let mut c = DecoderConfig::at_sample_rate(SampleRate::from_msps(FS_MSPS));
    c.rate_plan = RatePlan::from_bps(BASE_BPS, &[2_000.0, 5_000.0, 10_000.0, 20_000.0]).unwrap();
    c
}

/// One clean single-tag epoch at `rate_bps` the decoder resolves
/// deterministically.
fn clean_signal(rate_bps: f64) -> Vec<Complex> {
    let fs = SampleRate::from_msps(FS_MSPS);
    let mut bits = BitVec::new();
    bits.push(true); // anchor
    for i in 1..24 {
        bits.push(i % 3 == 0);
    }
    let tag = LfTag::new(TagConfig {
        id: TagId(0),
        rate: BitRate::from_bps(rate_bps, BASE_BPS).unwrap(),
        clock: ClockModel {
            drift: 0.0,
            jitter_std_s: 0.0,
        },
        comparator: Comparator::fixed(0.0),
    });
    let mut rng = StdRng::seed_from_u64(99);
    let plan = tag.plan_epoch(bits, fs, BASE_BPS, &mut rng);
    let mut air_cfg = AirConfig::paper_default(20_000);
    air_cfg.sample_rate = fs;
    air_cfg.noise_sigma = 0.002;
    air_cfg.seed = 8;
    synthesize(
        &air_cfg,
        &[TagAir {
            events: plan.events,
            initial_level: 0.0,
            process: Box::new(StaticChannel(Complex::new(0.9, 0.35))),
        }],
    )
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of every decoded field as exact bit patterns (same construction
/// as the bench crate's golden digest): moves iff any output bit moves.
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

/// Runs `decode` expecting a strict-checks panic; returns its message.
fn strict_panic_message(decode: impl FnOnce()) -> String {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
    let result = catch_unwind(AssertUnwindSafe(decode));
    std::panic::set_hook(prev_hook);
    let payload = result.expect_err("strict-checks let a tainted epoch through");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default()
}

#[test]
fn scratch_decodes_bit_identically_after_a_panicked_decode() {
    let signal = clean_signal(2_000.0);
    let decoder = Decoder::new(cfg());

    // Reference digest from a fresh scratch.
    let golden = digest_of(&decoder.decode(&signal));
    let independent = digest_of(&Decoder::new(cfg()).decode(&signal));
    assert_eq!(golden, independent, "decode is not deterministic");

    // One scratch for the whole test, left dirty by a different epoch.
    let mut scratch = DecodeScratch::default();
    let _ = decoder.decode_timed_with(&clean_signal(5_000.0), &mut scratch);

    // Panic a decode on that scratch: a NaN sample mid-epoch trips the
    // strict-checks guard.
    let mut tainted = signal.clone();
    tainted[signal.len() / 2] = Complex::new(f64::NAN, 0.0);
    let msg = strict_panic_message(|| {
        let _ = decoder.decode_timed_with(&tainted, &mut scratch);
    });
    assert!(
        msg.contains("strict-checks"),
        "unexpected panic during the tainted decode: {msg}"
    );

    // The same scratch, as the panic left it, decodes the clean signal
    // bit-identically — twice.
    for pass in ["first", "second"] {
        assert_eq!(
            digest_of(&decoder.decode_timed_with(&signal, &mut scratch).0),
            golden,
            "{pass} decode on the post-panic scratch is not bit-identical"
        );
    }
}
