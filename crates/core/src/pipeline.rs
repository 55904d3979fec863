//! The assembled decode pipeline: IQ capture in, per-tag bit streams out.
//!
//! [`Decoder`] is a thin facade over the crate's decode runner:
//! [`Decoder::decode_timed_with`] is the one timed entry point, and
//! [`Decoder::decode`] is the same call on a fresh [`DecodeScratch`].
//! Stage sequencing, the carve's re-run, spans, timings, metrics, and
//! provenance all live in the runner; nothing here duplicates them.

use crate::config::DecoderConfig;
use crate::graph::{self, PipelineMetrics, STAGE_COUNT, STAGE_NAMES};
use crate::provenance::DecodeProvenance;
use crate::scratch::DecodeScratch;
use lf_obs::ObsContext;
use lf_types::{BitRate, BitVec, Complex};
use std::time::Duration;

/// How a decoded stream was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// A clean single-tag stream (3 IQ clusters).
    Single,
    /// One member of a separated 2-tag collision (9 IQ clusters).
    CollisionMember,
    /// A tracked stream whose cluster structure fit neither model; its
    /// bits are not recoverable and are reported empty.
    Unresolved,
}

/// One decoded tag stream.
#[derive(Debug, Clone)]
pub struct DecodedStream {
    /// The stream's bitrate.
    pub rate: BitRate,
    /// Bitrate in bits/second.
    pub rate_bps: f64,
    /// Time of the first slot boundary (samples from capture start).
    pub offset: f64,
    /// Tracked bit period in samples.
    pub period: f64,
    /// The decoded bits, one per slot, anchor first.
    pub bits: BitVec,
    /// How this stream was recovered.
    pub kind: StreamKind,
    /// The recovered edge vector (≈ the tag's channel coefficient).
    pub edge_vector: Complex,
}

/// The result of decoding one epoch.
#[derive(Debug, Clone)]
pub struct EpochDecode {
    /// All recovered streams (a separated collision contributes two).
    pub streams: Vec<DecodedStream>,
    /// Candidate edges detected in stage 1.
    pub n_edges: usize,
    /// Streams locked by the folder/tracker in stage 2 (before collision
    /// separation splits any).
    pub n_tracked: usize,
    /// Why each stream resolved, collided, or failed: fold peaks, cluster
    /// model scores, carve attempts, anchor outcomes, path metrics.
    /// Observation only — nothing in it feeds back into the decode.
    pub provenance: DecodeProvenance,
}

/// Wall-clock cost of each pipeline stage for one epoch decode.
///
/// [`StageTimings::names`]`()[i]` labels `per_stage[i]`, in the order the
/// decode runs its stages. A stage that runs more than once in an epoch
/// (the carve's re-run; its re-track counts as folding) accumulates all
/// its executions into its one slot. The streaming runtime (`lf-reader`)
/// aggregates these into per-stage latency percentiles; offline users can
/// ignore them via [`Decoder::decode`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Per-stage wall clock, index-aligned with [`StageTimings::names`].
    pub per_stage: [Duration; STAGE_COUNT],
    /// Whole-epoch decode wall clock (≥ the sum of the stages).
    pub total: Duration,
}

impl StageTimings {
    /// The stage names, index-aligned with `per_stage`.
    pub fn names() -> [&'static str; STAGE_COUNT] {
        STAGE_NAMES
    }

    /// The timing of the named stage, or `None` if there is no stage of
    /// that name.
    pub fn get(&self, name: &str) -> Option<Duration> {
        Self::names()
            .iter()
            .position(|&n| n == name)
            .map(|i| self.per_stage[i])
    }

    /// Iterates `(stage name, duration)` in stage order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        Self::names().into_iter().zip(self.per_stage)
    }
}

/// The LF-Backscatter reader decoder.
///
/// Cloning is cheap: the configuration plus `Arc` handles into the same
/// obs registry, so clones aggregate into the same metrics.
#[derive(Debug, Clone)]
pub struct Decoder {
    cfg: DecoderConfig,
    obs: ObsContext,
    /// Metric handles pre-resolved once at construction (`None` when obs
    /// is disabled): the per-epoch recording path then touches no registry
    /// map and formats no metric names, which is what keeps the enabled
    /// path inside the <5 % overhead budget `obs_overhead` enforces.
    metrics: Option<PipelineMetrics>,
}

impl Decoder {
    /// Creates a decoder with observability disabled (the no-op context:
    /// spans, events, and metrics all cost one predictable branch).
    pub fn new(cfg: DecoderConfig) -> Self {
        Decoder::with_obs(cfg, ObsContext::disabled())
    }

    /// Creates a decoder that records spans, events, and metrics into
    /// `obs`. A worker pool sharing one decoder (or clones of it)
    /// aggregates into the same registry — counters are sharded, so this
    /// adds no cross-worker contention. Metric handles are resolved here,
    /// once, so no decode pays registry-lookup cost.
    pub fn with_obs(cfg: DecoderConfig, obs: ObsContext) -> Self {
        let metrics = obs.is_enabled().then(|| PipelineMetrics::register(&obs));
        Decoder { cfg, obs, metrics }
    }

    /// Decodes one epoch's IQ capture on a fresh [`DecodeScratch`] — the
    /// one-shot convenience. Callers decoding many epochs hold one scratch
    /// and call [`Decoder::decode_timed_with`] instead.
    ///
    /// Non-finite samples (NaN/∞ from a misbehaving front end) are
    /// treated as dropouts and zeroed before processing — one poisoned
    /// sample must not take down the decode of everyone else's data. That
    /// is the input contract in every build. With debug assertions on, a
    /// non-finite value appearing at a later stage boundary is a decoder
    /// bug and panics naming the stage.
    pub fn decode(&self, signal: &[Complex]) -> EpochDecode {
        self.decode_timed_with(signal, &mut DecodeScratch::default())
            .0
    }

    /// Decodes one epoch on a caller-owned [`DecodeScratch`] and reports
    /// the wall-clock cost of each stage. A long-running worker holds one
    /// scratch and reuses it across epochs (zero steady-state allocation
    /// in the hot paths); the output is bit-identical to
    /// [`Decoder::decode`] — the scratch carries no state between epochs,
    /// and the timings are observation only.
    pub fn decode_timed_with(
        &self,
        signal: &[Complex],
        scratch: &mut DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        graph::run(&self.cfg, &self.obs, self.metrics.as_ref(), signal, scratch)
    }
}

// The streaming runtime (`lf-reader`) shares one decoder across a worker
// pool; losing `Send + Sync` on these types (e.g. by adding an `Rc` or
// interior cell to the config) would break it at a distance, so pin the
// guarantee here at compile time.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<Decoder>();
    require_send_sync::<DecoderConfig>();
    require_send_sync::<EpochDecode>();
    require_send_sync::<StageTimings>();
};

#[cfg(test)]
mod tests {
    // Tests assert exact values deliberately: decoded rates are drawn from
    // a discrete set and must match identically, not approximately.
    #![allow(clippy::float_cmp)]

    use super::*;
    use lf_channel::air::{synthesize, AirConfig, TagAir};
    use lf_channel::dynamics::StaticChannel;
    use lf_tag::clock::ClockModel;
    use lf_tag::comparator::Comparator;
    use lf_tag::tag::{LfTag, TagConfig};
    use lf_types::{RatePlan, SampleRate, TagId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS_MSPS: f64 = 1.0;
    const BASE_BPS: f64 = 100.0;

    fn cfg() -> DecoderConfig {
        let mut c = DecoderConfig::at_sample_rate(SampleRate::from_msps(FS_MSPS));
        c.rate_plan =
            RatePlan::from_bps(BASE_BPS, &[2_000.0, 5_000.0, 10_000.0, 20_000.0]).unwrap();
        c
    }

    fn payload(n: usize, seed: u64) -> BitVec {
        let mut bits = BitVec::with_capacity(n);
        bits.push(true); // anchor
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for _ in 1..n {
            x ^= x >> 13;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            bits.push(x & 1 == 1);
        }
        bits
    }

    struct Setup {
        signal: Vec<Complex>,
        truth: Vec<(f64, BitVec)>, // (rate_bps, bits) per tag
    }

    /// Synthesizes an epoch: each entry is (rate_bps, h, comparator,
    /// drift, bits).
    fn build(
        tags: Vec<(f64, Complex, Comparator, f64, BitVec)>,
        n_samples: usize,
        noise_sigma: f64,
    ) -> Setup {
        let fs = SampleRate::from_msps(FS_MSPS);
        let mut rng = StdRng::seed_from_u64(99);
        let mut air_tags = Vec::new();
        let mut truth = Vec::new();
        for (i, (rate_bps, h, comp, drift, bits)) in tags.into_iter().enumerate() {
            let tag = LfTag::new(TagConfig {
                id: TagId(i as u32),
                rate: BitRate::from_bps(rate_bps, BASE_BPS).unwrap(),
                clock: ClockModel {
                    drift,
                    jitter_std_s: 0.0,
                },
                comparator: comp,
            });
            let plan = tag.plan_epoch(bits.clone(), fs, BASE_BPS, &mut rng);
            air_tags.push(TagAir {
                events: plan.events,
                initial_level: 0.0,
                process: Box::new(StaticChannel(h)),
            });
            truth.push((rate_bps, bits));
        }
        let mut air_cfg = AirConfig::paper_default(n_samples);
        air_cfg.sample_rate = fs;
        air_cfg.noise_sigma = noise_sigma;
        air_cfg.seed = 8;
        Setup {
            signal: synthesize(&air_cfg, &air_tags),
            truth,
        }
    }

    /// Checks that each ground-truth bit sequence appears as the prefix of
    /// some decoded stream of the right rate.
    fn assert_all_recovered(decode: &EpochDecode, truth: &[(f64, BitVec)]) {
        for (rate_bps, bits) in truth {
            let found = decode.streams.iter().any(|s| {
                s.rate_bps == *rate_bps
                    && s.bits.len() >= bits.len()
                    && s.bits.slice(0, bits.len()) == *bits
            });
            assert!(
                found,
                "stream at {rate_bps} bps with bits {bits} not recovered; got {} streams: {:?}",
                decode.streams.len(),
                decode
                    .streams
                    .iter()
                    .map(|s| (s.rate_bps, s.kind, s.bits.len()))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn one_tag_noise_free() {
        let setup = build(
            vec![(
                10_000.0,
                Complex::new(0.1, 0.05),
                Comparator::fixed(100e-6),
                0.0,
                payload(60, 1),
            )],
            10_000,
            0.0,
        );
        let decode = Decoder::new(cfg()).decode(&setup.signal);
        assert_eq!(decode.streams.len(), 1);
        assert_all_recovered(&decode, &setup.truth);
    }

    #[test]
    fn one_tag_with_noise_and_drift() {
        let setup = build(
            vec![(
                10_000.0,
                Complex::new(0.1, 0.05),
                Comparator::fixed(100e-6),
                150e-6, // the paper's crystal spec
                payload(80, 2),
            )],
            12_000,
            0.01, // ≈14 dB edge SNR
        );
        let decode = Decoder::new(cfg()).decode(&setup.signal);
        assert_all_recovered(&decode, &setup.truth);
    }

    #[test]
    fn four_tags_same_rate_different_offsets() {
        let hs = [
            Complex::new(0.10, 0.02),
            Complex::new(-0.06, 0.08),
            Complex::new(0.03, -0.09),
            Complex::new(-0.08, -0.05),
        ];
        let tags = (0..4)
            .map(|i| {
                (
                    10_000.0,
                    hs[i],
                    Comparator::fixed(40e-6 + i as f64 * 30e-6),
                    (i as f64 - 1.5) * 80e-6,
                    payload(60, i as u64 + 10),
                )
            })
            .collect();
        let setup = build(tags, 10_000, 0.005);
        let decode = Decoder::new(cfg()).decode(&setup.signal);
        assert_all_recovered(&decode, &setup.truth);
    }

    #[test]
    fn mixed_rates_coexist() {
        // §5.1's slow-and-fast coexistence, scaled down: 2 kbps + 20 kbps.
        let tags = vec![
            (
                2_000.0,
                Complex::new(0.09, -0.04),
                Comparator::fixed(120e-6),
                100e-6,
                payload(24, 21),
            ),
            (
                20_000.0,
                Complex::new(-0.05, 0.09),
                Comparator::fixed(60e-6),
                -120e-6,
                payload(200, 22),
            ),
        ];
        let setup = build(tags, 14_000, 0.005);
        let decode = Decoder::new(cfg()).decode(&setup.signal);
        assert_all_recovered(&decode, &setup.truth);
    }

    #[test]
    fn forced_full_collision_separated() {
        // Two tags, same rate, same comparator delay: every edge collides.
        let tags = vec![
            (
                10_000.0,
                Complex::new(0.1, 0.01),
                Comparator::fixed(100e-6),
                0.0,
                payload(80, 31),
            ),
            (
                10_000.0,
                Complex::new(-0.03, 0.09),
                Comparator::fixed(100e-6),
                0.0,
                payload(80, 32),
            ),
        ];
        let setup = build(tags, 12_000, 0.002);
        let decode = Decoder::new(cfg()).decode(&setup.signal);
        // One tracked stream, two collision members.
        assert_eq!(decode.n_tracked, 1);
        assert_eq!(
            decode
                .streams
                .iter()
                .filter(|s| s.kind == StreamKind::CollisionMember)
                .count(),
            2
        );
        assert_all_recovered(&decode, &setup.truth);
    }

    #[test]
    fn collision_not_separated_without_iq_stage() {
        let tags = vec![
            (
                10_000.0,
                Complex::new(0.1, 0.01),
                Comparator::fixed(100e-6),
                0.0,
                payload(80, 31),
            ),
            (
                10_000.0,
                Complex::new(-0.03, 0.09),
                Comparator::fixed(100e-6),
                0.0,
                payload(80, 32),
            ),
        ];
        let setup = build(tags, 12_000, 0.002);
        let mut c = cfg();
        c.stages = crate::config::DecodeStages::edge_only();
        let decode = Decoder::new(c).decode(&setup.signal);
        // The merged stream is decoded as one (wrong) stream: at most one
        // of the two truths can survive, and typically neither does.
        let recovered = setup
            .truth
            .iter()
            .filter(|(rate_bps, bits)| {
                decode.streams.iter().any(|s| {
                    s.rate_bps == *rate_bps
                        && s.bits.len() >= bits.len()
                        && s.bits.slice(0, bits.len()) == *bits
                })
            })
            .count();
        assert!(
            recovered < 2,
            "edge-only decode cannot separate a collision"
        );
    }

    #[test]
    fn empty_signal_decodes_to_nothing() {
        let decode = Decoder::new(cfg()).decode(&[]);
        assert!(decode.streams.is_empty());
        assert_eq!(decode.n_edges, 0);
    }

    #[test]
    fn silent_channel_decodes_to_nothing() {
        let mut air_cfg = AirConfig::paper_default(5_000);
        air_cfg.sample_rate = SampleRate::from_msps(FS_MSPS);
        air_cfg.noise_sigma = 0.01;
        let signal = synthesize(&air_cfg, &[]);
        let decode = Decoder::new(cfg()).decode(&signal);
        assert!(decode.streams.is_empty(), "noise alone produced streams");
    }

    #[test]
    fn decode_and_decode_timed_with_agree() {
        // Both entry points are the same runner call: the decoded streams
        // must be identical and the timings self-consistent.
        let setup = build(
            vec![(
                10_000.0,
                Complex::new(0.1, 0.05),
                Comparator::fixed(100e-6),
                0.0,
                payload(60, 5),
            )],
            10_000,
            0.003,
        );
        let decoder = Decoder::new(cfg());
        let plain = decoder.decode(&setup.signal);
        let (timed, timings) =
            decoder.decode_timed_with(&setup.signal, &mut DecodeScratch::default());
        assert_eq!(plain.streams.len(), timed.streams.len());
        for (a, b) in plain.streams.iter().zip(&timed.streams) {
            assert_eq!(a.rate_bps, b.rate_bps);
            assert_eq!(a.bits, b.bits);
        }
        assert!(timings.total >= timings.per_stage.iter().sum::<Duration>());
        assert_eq!(StageTimings::names().len(), STAGE_COUNT);
        for (name, d) in timings.iter() {
            assert_eq!(timings.get(name), Some(d));
        }
        assert_eq!(timings.get("no-such-stage"), None);
    }
}
