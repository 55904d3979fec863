//! The three workloads and their seeded, pre-synthesized inputs.
//!
//! Every round of a run synthesizes its own pool. Each pool slot is one
//! entry of a fixed deployment catalogue (tag placements, clocks and
//! comparators: what a deployed reader sees every epoch) carrying content
//! drawn from the run seed (payload bits, per-epoch start jitter and
//! receiver noise). Decode cost and frame loss depend mostly on the
//! deployment, so a fixed catalogue is what lets two seeds be compared;
//! the seed still changes every input sample. Synthesis is the
//! benchmark's set-up and is never inside a timed window.

use crate::pace::{narrow, Layout, Pace, Pool, StoredSample};
use lf_fleet::{ExtractedFrame, FrameId};
use lf_reader::Backpressure;
use lf_sim::experiments::common::{standard_scenario, ThroughputParams};
use lf_sim::experiments::Scale;
use lf_sim::multi::{synthesize_epoch_for, synthesize_gap_for};
use lf_sim::scenario::Scenario;
use lf_sim::score::TruthStream;
use lf_sim::simulate::{synthesize_epoch, synthesize_gap};
use lf_tag::frame::{Frame, FrameKind};
use lf_types::Complex;
use std::sync::Arc;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 8 tags at 100 kbps, 25 Msps, 1M-sample epochs: decode
    /// dominates on epochs larger than the caches.
    PaperDense,
    /// Open loop at the 25 Msps air rate, 2 tags (500 bps, 100 kbps),
    /// drop-oldest backpressure: ingest and segmentation dominate.
    PaperSparseLive,
    /// Open loop, two overlapping readers under the fleet runtime over
    /// the ci population: the only workload with fleet layers.
    FleetCiLive,
}

/// Everything that distinguishes one workload from another.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Epoch/gap layout (pool size included).
    pub layout: Layout,
    /// Reader antennas (1 = a bare `ReaderRuntime`; more = `FleetRuntime`).
    pub readers: usize,
    /// Closed loop or air-rate pacing (per reader).
    pub pace: Pace,
    /// The front end's sample rate, against which ingest lag is measured
    /// even in a closed loop.
    pub air_sps: f64,
    /// Samples per source pull.
    pub chunk_len: usize,
    /// Job-queue policy of a bare reader (fleets keep their default).
    pub backpressure: Backpressure,
    /// Lowest frame delivery ratio a correct run may show.
    pub min_delivery: f64,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperDense,
        Workload::PaperSparseLive,
        Workload::FleetCiLive,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDense => "paper-dense",
            Workload::PaperSparseLive => "paper-sparse-live",
            Workload::FleetCiLive => "fleet-ci-live",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn spec(self) -> Spec {
        // 1M-sample epochs: longer than the segmenter's 800k-sample
        // calibration window, which would otherwise span carrier gaps.
        let paper = Layout {
            epoch: 1_000_000,
            gap: 250_000,
            pool_epochs: 32,
        };
        match self {
            Workload::PaperDense => Spec {
                layout: paper,
                readers: 1,
                pace: Pace::Closed,
                air_sps: 25e6,
                chunk_len: 1 << 16,
                backpressure: Backpressure::Block,
                min_delivery: 0.05,
            },
            Workload::PaperSparseLive => Spec {
                layout: paper,
                readers: 1,
                pace: Pace::Live { sps: 25e6 },
                air_sps: 25e6,
                chunk_len: 1 << 16,
                backpressure: Backpressure::DropOldest,
                min_delivery: 0.9,
            },
            Workload::FleetCiLive => Spec {
                layout: Layout {
                    epoch: 60_000,
                    gap: 12_500,
                    pool_epochs: 96,
                },
                readers: 2,
                // The Quick scale's own air rate, a fraction of what one
                // single-worker reader decodes.
                pace: Pace::Live { sps: 2.5e6 },
                air_sps: 2.5e6,
                chunk_len: 1 << 13,
                backpressure: Backpressure::Block,
                min_delivery: 0.2,
            },
        }
    }

    /// The deployment of catalogue entry `index`: tag placements, clocks
    /// and comparators. The catalogue is fixed per workload — it is the
    /// benchmark's deployment, the same in every run — while the run seed
    /// draws what the tags send and the noise they send it through (see
    /// [`content_index`]).
    pub fn scenario(self, index: usize) -> Scenario {
        let seed = mix64(CATALOGUE_SEED ^ mix64(self.salt() ^ ((index as u64 + 1) << 8)));
        let mut sc = match self {
            Workload::PaperDense => {
                let p = ThroughputParams::for_scale(Scale::Paper);
                standard_scenario(&p, 8, 100_000.0, seed)
            }
            Workload::PaperSparseLive => {
                let p = ThroughputParams::for_scale(Scale::Paper);
                let mut sc = standard_scenario(&p, 2, 100_000.0, seed);
                sc.tags[0].rate_bps = 500.0;
                sc
            }
            Workload::FleetCiLive => {
                let p = ThroughputParams::for_scale(Scale::Quick);
                standard_scenario(&p, 8, p.rate_bps, seed)
            }
        };
        sc.epoch_samples = self.spec().layout.epoch;
        sc
    }

    fn salt(self) -> u64 {
        match self {
            Workload::PaperDense => 0xD1,
            Workload::PaperSparseLive => 0x5A,
            Workload::FleetCiLive => 0xF1,
        }
    }
}

/// Seed of the fixed deployment catalogue.
const CATALOGUE_SEED: u64 = 0x1a15_5e2f_a12e;

/// SplitMix64's finalizer.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The epoch index lf_sim synthesizes catalogue entry `index` at, drawn
/// from the run seed. It sets the payload bits, each tag's per-epoch
/// start jitter and every noise stream; kept below 2^60 so lf_sim's
/// index arithmetic cannot overflow.
pub fn content_index(seed: u64, workload: Workload, index: usize) -> u64 {
    mix64(seed ^ mix64(workload.salt() ^ 0xC0 ^ ((index as u64 + 1) << 8))) >> 4
}

/// One round's synthesized input: a pool per reader and the shared
/// ground truth per pool slot.
#[derive(Debug)]
pub struct RoundInput {
    /// The first slot's scenario. Every slot shares its sample rate, rate
    /// plan, tag rates and payload sizes, hence decoder configuration and
    /// frame extractor; slots differ in placement and channel draws.
    pub scenario: Scenario,
    /// Pool layout.
    pub layout: Layout,
    /// One cycled pool per reader.
    pub pools: Vec<Pool>,
    /// Ground truth per pool slot (identical for every reader).
    pub truths: Vec<Vec<TruthStream>>,
    /// The CRC-verifiable frames sent in each pool slot.
    pub frames: Vec<Vec<ExtractedFrame>>,
}

impl RoundInput {
    /// Synthesizes round `round` of workload `w` seeded `seed`; fails if a
    /// synthesized sample would clip in storage.
    pub fn synthesize(w: Workload, seed: u64, round: usize) -> Result<RoundInput, String> {
        RoundInput::synthesize_slots(w, seed, round, w.spec().layout.pool_epochs)
    }

    /// [`RoundInput::synthesize`] with a pool of `slots` epochs.
    pub fn synthesize_slots(
        w: Workload,
        seed: u64,
        round: usize,
        slots: usize,
    ) -> Result<RoundInput, String> {
        let spec = w.spec();
        let layout = Layout {
            pool_epochs: slots,
            ..spec.layout
        };
        let first = round * layout.pool_epochs;
        let mut scenarios: Vec<Scenario> = (first..first + layout.pool_epochs)
            .map(|i| w.scenario(i))
            .collect();
        // An antenna's channel (static reflection, link draws, noise
        // stream) belongs to the antenna, not to the tags: one
        // realization per reader for the whole round.
        let realizations = scenarios[0].reader_realizations(spec.readers);
        let mut pools = Vec::with_capacity(spec.readers);
        let mut truths = Vec::new();
        for (k, real) in realizations.iter().enumerate() {
            let (pool, t) = build_pool(&layout, |s| {
                let sc = &scenarios[s];
                let e = content_index(seed, w, first + s);
                if spec.readers == 1 {
                    (synthesize_epoch(sc, e), synthesize_gap(sc, e, layout.gap))
                } else {
                    (
                        synthesize_epoch_for(sc, real, e),
                        synthesize_gap_for(sc, real, e, layout.gap),
                    )
                }
            })?;
            pools.push(Arc::new(pool));
            if k == 0 {
                truths = t;
            }
        }
        let frames = truths.iter().map(|t| truth_frames(t)).collect();
        Ok(RoundInput {
            scenario: scenarios.swap_remove(0),
            layout,
            pools,
            truths,
            frames,
        })
    }

    /// Frames sent in stream epoch `k`.
    pub fn frames_sent(&self, k: u64) -> usize {
        self.truths[self.layout.slot(k)]
            .iter()
            .map(TruthStream::frames_sent)
            .sum()
    }

    /// Identities of the frames sent in stream epoch `k` (its ordinal).
    pub fn truth_ids(&self, k: u64) -> Vec<FrameId> {
        self.frames[self.layout.slot(k)]
            .iter()
            .map(|f| f.id(k))
            .collect()
    }

    /// A digest of every input sample and every ground-truth bit.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |x: u64| h = mix64(h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        for pool in &self.pools {
            for &[re, im] in pool.iter() {
                eat(u64::from(re as u16) << 16 | u64::from(im as u16));
            }
        }
        for slot in &self.truths {
            for t in slot {
                eat(t.rate_bps.to_bits());
                eat(t.offset.to_bits());
                for b in t.bits.iter() {
                    eat(u64::from(b));
                }
            }
        }
        h
    }
}

/// What synthesizes one pool slot: its epoch with ground truth, and the
/// gap after it.
type Unit = ((Vec<Complex>, Vec<TruthStream>), Vec<Complex>);

/// Fills a pool slot by slot: epoch `s`, then its gap. The pool is
/// allocated once at full size, so set-up holds one epoch of temporaries
/// above it. Synthesis stays on the calling thread: worker threads would
/// leave freed temporaries in allocator arenas of their own, and how much
/// of that stays resident varies from run to run, blurring
/// `rss_growth_mb`.
fn build_pool(
    layout: &Layout,
    unit: impl Fn(usize) -> Unit,
) -> Result<(Vec<StoredSample>, Vec<Vec<TruthStream>>), String> {
    let mut pool = vec![[0i16; 2]; layout.pool_len()];
    let mut truths = Vec::with_capacity(layout.pool_epochs);
    for (s, dst) in pool.chunks_mut(layout.period()).enumerate() {
        let ((epoch, truth), gap) = unit(s);
        if epoch.len() != layout.epoch || gap.len() != layout.gap {
            return Err(format!("slot {s} synthesized at the wrong length"));
        }
        for (d, x) in dst.iter_mut().zip(epoch.iter().chain(&gap)) {
            *d = narrow(*x).ok_or_else(|| format!("slot {s} clips at {x:?}"))?;
        }
        truths.push(truth);
    }
    Ok((pool, truths))
}

/// The sensor frames a tag's truth stream carries, as the extractor
/// would report them.
fn truth_frames(truths: &[TruthStream]) -> Vec<ExtractedFrame> {
    let mut out = Vec::new();
    for t in truths {
        for f in 0..t.frames_sent() {
            let window = t.bits.slice(f * t.frame_len, (f + 1) * t.frame_len);
            if let Some(frame) = Frame::from_bits(&window, FrameKind::SensorData) {
                out.push(ExtractedFrame {
                    payload: frame.payload().clone(),
                    rate_bps: t.rate_bps,
                    kind: FrameKind::SensorData,
                    slot_start: f * t.frame_len,
                });
            }
        }
    }
    out
}
