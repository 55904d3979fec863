//! The traced run: stamps taken around the program's public calls, the
//! replays that time single layers, and the per-epoch latency budget.
//!
//! Nothing here reaches inside the program. The decoder wrapper times
//! `EpochDecoder::decode_epoch` and keeps the `StageTimings` the decode
//! itself returns; the segmenter, extractor, dedup registry and bus are
//! timed by replaying the run's own chunks and decodes through them.

use crate::pace::{copy_wrapped_into, secs_since, PullRecord, StoredSample};
use lf_core::pipeline::{Decoder, EpochDecode, StageTimings, StreamKind};
use lf_core::DecodeScratch;
use lf_reader::{EpochDecoder, OnlineSegmenter, SegmenterConfig};
use lf_types::Complex;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The decode's parts in the budget: the six graph stages in order, then
/// set-up (the decode's total minus its stages).
pub const CORE_PARTS: [&str; 7] = [
    "edges",
    "folding",
    "slots",
    "separation",
    "decode",
    "carve",
    "setup",
];

/// Identity of a decode the wrapper saw: the bits of its first sample and
/// its length. The wrapper never learns the epoch's sequence number; the
/// report's range (or the segmenter replay) names the same two values.
pub type EpochKey = (u64, u64, usize);

/// The key of an epoch's samples.
pub fn epoch_key(samples: &[Complex]) -> EpochKey {
    let first = samples.first().copied().unwrap_or_default();
    (first.re.to_bits(), first.im.to_bits(), samples.len())
}

/// Work counts of one decode, straight from its `EpochDecode`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounts {
    /// Candidate edges.
    pub edges: usize,
    /// Streams the folder locked.
    pub tracked: usize,
    /// Streams decoded.
    pub decoded: usize,
    /// Members of separated collisions.
    pub collision_members: usize,
    /// Admission-cascade rejections.
    pub admission_rejects: usize,
    /// Accepted sub-harmonic carves.
    pub carve_accepts: usize,
}

impl DecodeCounts {
    /// Counts of `d`.
    pub fn of(d: &EpochDecode) -> DecodeCounts {
        DecodeCounts {
            edges: d.n_edges,
            tracked: d.n_tracked,
            decoded: d.streams.len(),
            collision_members: d
                .streams
                .iter()
                .filter(|s| s.kind == StreamKind::CollisionMember)
                .count(),
            admission_rejects: d.provenance.admission.len(),
            carve_accepts: d
                .provenance
                .streams
                .iter()
                .filter(|s| s.carve.as_ref().is_some_and(|c| c.accepted))
                .count(),
        }
    }

    /// The counts as floats, in the order of [`COUNT_NAMES`].
    pub fn values(&self) -> [f64; 6] {
        [
            self.edges,
            self.tracked,
            self.decoded,
            self.collision_members,
            self.admission_rejects,
            self.carve_accepts,
        ]
        .map(|v| v as f64)
    }
}

/// Per-epoch count names, index-aligned with [`DecodeCounts::values`].
pub const COUNT_NAMES: [&str; 6] = [
    "edges",
    "streams_tracked",
    "streams_decoded",
    "collision_members",
    "admission_rejects",
    "carve_accepts",
];

/// One decode as the wrapper saw it.
#[derive(Debug, Clone)]
pub struct DecodeRecord {
    /// Which epoch (see [`EpochKey`]).
    pub key: EpochKey,
    /// Call entry, seconds since the round origin.
    pub t_enter: f64,
    /// Call exit.
    pub t_exit: f64,
    /// The decode's own stage timings.
    pub timings: StageTimings,
    /// Work counts.
    pub counts: DecodeCounts,
    /// The decode itself, when the round keeps them for replay.
    pub decode: Option<EpochDecode>,
}

/// An [`EpochDecoder`] that stamps every decode it forwards.
#[derive(Debug)]
pub struct TracedDecoder {
    inner: Decoder,
    origin: Instant,
    keep_decodes: bool,
    log: Mutex<Vec<DecodeRecord>>,
}

impl TracedDecoder {
    /// Wraps `inner`; stamps are seconds since `origin`.
    pub fn new(inner: Decoder, origin: Instant, keep_decodes: bool) -> Self {
        TracedDecoder {
            inner,
            origin,
            keep_decodes,
            log: Mutex::new(Vec::new()),
        }
    }

    /// Every record so far, in completion order.
    pub fn take(&self) -> Vec<DecodeRecord> {
        crate::pace::take_log(&self.log)
    }
}

impl EpochDecoder for TracedDecoder {
    fn decode_epoch(
        &self,
        samples: &[Complex],
        scratch: &mut DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        let t_enter = secs_since(self.origin);
        let (decode, timings) = self.inner.decode_timed_with(samples, scratch);
        let t_exit = secs_since(self.origin);
        let record = DecodeRecord {
            key: epoch_key(samples),
            t_enter,
            t_exit,
            timings,
            counts: DecodeCounts::of(&decode),
            decode: self.keep_decodes.then(|| decode.clone()),
        };
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
        (decode, timings)
    }
}

/// Decode records queued per key in entry order, so the n-th epoch with a
/// key (the pool repeats every cycle) takes the n-th decode of it.
#[derive(Debug, Default)]
pub struct DecodeIndex {
    by_key: HashMap<EpochKey, VecDeque<DecodeRecord>>,
}

impl DecodeIndex {
    /// Indexes `records`.
    pub fn new(mut records: Vec<DecodeRecord>) -> Self {
        records.sort_by(|a, b| a.t_enter.total_cmp(&b.t_enter));
        let mut by_key: HashMap<EpochKey, VecDeque<DecodeRecord>> = HashMap::new();
        for r in records {
            by_key.entry(r.key).or_default().push_back(r);
        }
        DecodeIndex { by_key }
    }

    /// The next unclaimed decode of `key`.
    pub fn claim(&mut self, key: &EpochKey) -> Option<DecodeRecord> {
        self.by_key.get_mut(key)?.pop_front()
    }
}

/// One epoch the segmenter replay emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedEpoch {
    /// Stream range.
    pub range: Range<usize>,
    /// Index of the pull whose `push_chunk` emitted it (`None`: emitted
    /// by the end-of-stream flush).
    pub close_pull: Option<usize>,
    /// Key of its samples.
    pub key: EpochKey,
    /// Closed by the size bound instead of a carrier gap.
    pub forced_split: bool,
}

/// The segmenter replayed over one reader's pulls.
#[derive(Debug, Clone, Default)]
pub struct SegmentReplay {
    /// `push_chunk` wall time per pull, seconds.
    pub push_s: Vec<f64>,
    /// Epochs in emission (= sequence) order.
    pub epochs: Vec<ReplayedEpoch>,
    /// Samples replayed.
    pub samples: usize,
}

/// Replays `pulls` of a cycled `pool` through a fresh segmenter, timing
/// each `push_chunk`. Segmentation is chunk-size invariant and
/// deterministic, so the epochs equal the runtime's own.
pub fn replay_segmenter(
    cfg: SegmenterConfig,
    pool: &[StoredSample],
    pulls: &[PullRecord],
) -> SegmentReplay {
    let mut seg = OnlineSegmenter::new(cfg);
    let mut out = Vec::new();
    let mut chunk = Vec::new();
    let mut replay = SegmentReplay::default();
    let take = |out: &mut Vec<lf_reader::SegmentedEpoch>,
                close_pull: Option<usize>,
                epochs: &mut Vec<ReplayedEpoch>| {
        for e in out.drain(..) {
            epochs.push(ReplayedEpoch {
                key: epoch_key(&e.samples),
                range: e.range,
                close_pull,
                forced_split: e.forced_split,
            });
        }
    };
    for (i, p) in pulls.iter().enumerate() {
        copy_wrapped_into(pool, p.start, p.end(), &mut chunk);
        let t = Instant::now();
        seg.push_chunk(&chunk, &mut out);
        replay.push_s.push(t.elapsed().as_secs_f64());
        replay.samples += chunk.len();
        take(&mut out, Some(i), &mut replay.epochs);
    }
    seg.finish(&mut out);
    take(&mut out, None, &mut replay.epochs);
    replay
}

/// The stamps one epoch's budget is built from (seconds since origin,
/// except `push_close`, a duration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetInputs {
    /// Due time of the epoch's last sample.
    pub due: f64,
    /// Return of the pull that carried the last sample.
    pub t_ret_last: f64,
    /// Return of the pull whose segmentation closed the epoch.
    pub t_ret_close: f64,
    /// Replayed `push_chunk` time of that pull.
    pub push_close: f64,
    /// Decode call entry.
    pub t_enter: f64,
    /// Decode call exit.
    pub t_exit: f64,
    /// The decode's stage timings.
    pub timings: StageTimings,
    /// Delivery to the consumer.
    pub t_recv: f64,
}

/// One epoch's latency split across layers, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochBudget {
    /// Due time to delivery.
    pub latency: f64,
    /// Due time to the pull that carried the last sample.
    pub source: f64,
    /// That pull to the segmenter closing the epoch.
    pub segment: f64,
    /// Segmenter close to decode entry (job-queue wait).
    pub queue: f64,
    /// Decode stages and set-up, in [`CORE_PARTS`] order.
    pub core: [f64; 7],
    /// Decode exit to delivery.
    pub deliver: f64,
    /// Latency the layers above do not cover: the decode call's time
    /// outside the decode's own timed region.
    pub residual: f64,
}

impl EpochBudget {
    /// Builds the budget from its stamps.
    pub fn of(b: &BudgetInputs) -> EpochBudget {
        let mut core = [0.0; 7];
        for (slot, d) in core.iter_mut().zip(b.timings.per_stage) {
            *slot = d.as_secs_f64();
        }
        let total = b.timings.total.as_secs_f64();
        core[6] = total - core[..6].iter().sum::<f64>();
        let seg_end = b.t_ret_close + b.push_close;
        let latency = b.t_recv - b.due;
        let source = b.t_ret_last - b.due;
        let segment = seg_end - b.t_ret_last;
        let queue = b.t_enter - seg_end;
        let deliver = b.t_recv - b.t_exit;
        let covered = source + segment + queue + core.iter().sum::<f64>() + deliver;
        EpochBudget {
            latency,
            source,
            segment,
            queue,
            core,
            deliver,
            residual: latency - covered,
        }
    }

    /// Whether the layers sum to the latency within the stated residual:
    /// `max(RESIDUAL_FLOOR_S, RESIDUAL_SHARE × latency)`.
    pub fn within_residual(&self) -> bool {
        self.residual.abs() <= RESIDUAL_FLOOR_S.max(RESIDUAL_SHARE * self.latency.abs())
    }
}

/// Absolute residual every epoch's budget may leave uncovered, seconds.
pub const RESIDUAL_FLOOR_S: f64 = 1e-3;

/// Residual allowed as a share of the epoch's latency.
pub const RESIDUAL_SHARE: f64 = 0.02;
