//! Live runtime statistics: counters, queue depths, latency percentiles.
//!
//! Counters are [`lf_obs`] registry handles — sharded atomics bumped by
//! the pipeline threads that double as named metrics (`reader.*`) in the
//! runtime's [`lf_obs::ObsContext`]. Decode latencies are *not* copied
//! into the registry: the decoder's own `pipeline.stage.*` histograms are
//! the one stage-latency metric family. The reader's single record of
//! them is a fixed-size ring of the last 1024 decoded epochs — each
//! entry the epoch's [`StageTimings`] plus its seq and rate-class key —
//! under a short-lived mutex. The ring gives *exact* recent-window
//! percentiles and names the epoch at each p99 rank.
//! [`RuntimeStats`] is a self-consistent-enough snapshot for a poll loop
//! — the runtime keeps serving while it is taken.
//!
//! The per-stage breakdown takes its labels from the decoder
//! ([`StageTimings::names`]), so a stage added to `lf_core`'s decode
//! runner shows up here without this file changing.

use lf_core::pipeline::StageTimings;
use lf_core::STAGE_COUNT;
use lf_obs::{Counter, Gauge, ObsContext};
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// How many recent epochs the latency percentiles are computed over.
const LATENCY_RING: usize = 1024;

/// Shared mutable statistics, owned by the runtime behind an `Arc`.
///
/// Every counter and gauge is a registry handle: when the runtime was
/// spawned with an enabled [`ObsContext`] they are readable (and
/// exportable) through that registry under `reader.*` names; with a
/// disabled context the handles are detached but still count, so
/// [`RuntimeStats`] works identically either way.
#[derive(Debug)]
pub(crate) struct StatsShared {
    pub chunks_in: Counter,
    pub samples_in: Counter,
    pub epochs_in: Counter,
    pub epochs_out: Counter,
    pub epochs_dropped: Counter,
    pub faults: Counter,
    pub forced_splits: Counter,
    job_queue_depth: Gauge,
    result_queue_depth: Gauge,
    /// The most recent decoded epochs, oldest first.
    latencies: Mutex<VecDeque<LatencyEntry>>,
}

impl Default for StatsShared {
    fn default() -> Self {
        StatsShared::new(&ObsContext::disabled())
    }
}

/// One decoded epoch in the latency ring.
#[derive(Debug, Clone, Copy)]
struct LatencyEntry {
    /// The epoch's sequence number.
    seq: u64,
    /// Rate-class key of the epoch's first decoded stream
    /// (`rate_bps.to_bits()`, 0 when it decoded none).
    class: u64,
    timings: StageTimings,
}

pub(crate) fn nanos_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl StatsShared {
    /// Creates the runtime's statistics block, registering every counter
    /// and gauge in `obs` under `reader.*` names.
    pub fn new(obs: &ObsContext) -> Self {
        StatsShared {
            chunks_in: obs.counter("reader.chunks_in"),
            samples_in: obs.counter("reader.samples_in"),
            epochs_in: obs.counter("reader.epochs_in"),
            epochs_out: obs.counter("reader.epochs_out"),
            epochs_dropped: obs.counter("reader.epochs_dropped"),
            faults: obs.counter("reader.faults"),
            forced_splits: obs.counter("reader.forced_splits"),
            job_queue_depth: obs.gauge("reader.job_queue_depth"),
            result_queue_depth: obs.gauge("reader.result_queue_depth"),
            latencies: Mutex::new(VecDeque::with_capacity(LATENCY_RING)),
        }
    }

    /// Records one decoded epoch's stage timings under its seq and
    /// rate-class key, evicting the oldest entry once the ring is full.
    pub fn record_latency(&self, seq: u64, class: u64, timings: &StageTimings) {
        let mut ring = self
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.len() == LATENCY_RING {
            ring.pop_front();
        }
        ring.push_back(LatencyEntry {
            seq,
            class,
            timings: *timings,
        });
    }

    pub fn snapshot(&self, job_queue_depth: usize, result_queue_depth: usize) -> RuntimeStats {
        // Mirror the instantaneous depths into the gauges so a registry
        // export taken between polls sees them too.
        self.job_queue_depth
            .set(i64::try_from(job_queue_depth).unwrap_or(i64::MAX));
        self.result_queue_depth
            .set(i64::try_from(result_queue_depth).unwrap_or(i64::MAX));
        let entries: Vec<LatencyEntry> = self
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect();
        let latency = StageLatencies {
            per_stage: std::array::from_fn(|i| LatencySummary::of(&entries, |t| t.per_stage[i])),
            total: LatencySummary::of(&entries, |t| t.total),
        };
        RuntimeStats {
            chunks_in: self.chunks_in.get(),
            samples_in: self.samples_in.get(),
            epochs_in: self.epochs_in.get(),
            epochs_out: self.epochs_out.get(),
            epochs_dropped: self.epochs_dropped.get(),
            faults: self.faults.get(),
            forced_splits: self.forced_splits.get(),
            job_queue_depth,
            result_queue_depth,
            latency,
        }
    }
}

/// Percentiles of one stage's decode latency over the recent ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Epochs the summary covers (≤ 1024).
    pub count: usize,
    /// Median latency.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst recent latency.
    pub max: Duration,
    /// The epoch at the p99 rank, as `(epoch seq, rate-class key)` — the
    /// exact epoch whose latency `p99` reports (the rate-class key is the
    /// first decoded stream's `rate_bps.to_bits()`, 0 when it decoded
    /// none). `None` while the ring is empty.
    pub p99_epoch: Option<(u64, u64)>,
}

impl LatencySummary {
    /// Nearest-rank percentiles of `pick(timings)` over the ring's
    /// entries. Degenerate cases are exact by construction: an empty ring
    /// is all-zero with `count == 0` (distinguishable from a real
    /// zero-latency sample only by the count), and a single sample reports
    /// that sample at every percentile and as the max — including a
    /// saturated `u64::MAX` nanosecond reading, which must survive
    /// unclipped. Equal latencies rank by seq, so the p99 epoch is
    /// deterministic.
    fn of(entries: &[LatencyEntry], pick: impl Fn(&StageTimings) -> Duration) -> Self {
        let mut v: Vec<(u64, u64, u64)> = entries
            .iter()
            .map(|e| (nanos_of(pick(&e.timings)), e.seq, e.class))
            .collect();
        v.sort_unstable();
        let Some(&(max, ..)) = v.last() else {
            return LatencySummary::default();
        };
        let at = |p: f64| {
            // Nearest-rank percentile over the sorted ring. The clamp to
            // [1, len] keeps the rank exact at both tails (p→0 picks the
            // minimum, p→100 the maximum) for any ring length, including
            // a single sample.
            let rank = (p / 100.0 * v.len() as f64)
                .ceil()
                .clamp(1.0, v.len() as f64) as usize;
            v[rank - 1]
        };
        let (p99, seq, class) = at(99.0);
        LatencySummary {
            count: v.len(),
            p50: Duration::from_nanos(at(50.0).0),
            p90: Duration::from_nanos(at(90.0).0),
            p99: Duration::from_nanos(p99),
            max: Duration::from_nanos(max),
            p99_epoch: Some((seq, class)),
        }
    }
}

/// Per-stage latency summaries, indexed like `lf_core::StageTimings` —
/// one entry per decode-graph stage, in execution order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// One summary per decode stage, in stage order.
    pub per_stage: [LatencySummary; STAGE_COUNT],
    /// Whole-epoch decode.
    pub total: LatencySummary,
}

impl StageLatencies {
    /// The stage names, in the same order as [`StageLatencies::per_stage`]
    /// (`"total"` is separate — it is the whole-epoch latency, not a
    /// stage).
    pub fn names() -> [&'static str; STAGE_COUNT] {
        StageTimings::names()
    }

    /// The summary for the stage called `name`, if there is one.
    pub fn get(&self, name: &str) -> Option<LatencySummary> {
        Self::names()
            .iter()
            .position(|&n| n == name)
            .map(|i| self.per_stage[i])
    }

    /// `(stage name, summary)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, LatencySummary)> + '_ {
        Self::names().into_iter().zip(self.per_stage)
    }
}

/// A point-in-time view of the runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Chunks pulled from the source.
    pub chunks_in: u64,
    /// Samples pulled from the source.
    pub samples_in: u64,
    /// Epochs the segmenter emitted into the pipeline.
    pub epochs_in: u64,
    /// Epoch reports delivered to the consumer (decoded, dropped, or
    /// faulted — every segmented epoch is accounted for exactly once).
    pub epochs_out: u64,
    /// Epochs shed by the drop-oldest backpressure policy.
    pub epochs_dropped: u64,
    /// Worker panics contained (the epoch was reported as a fault).
    pub faults: u64,
    /// Epochs closed by the `max_epoch` bound instead of a carrier gap.
    pub forced_splits: u64,
    /// Jobs waiting for a worker right now.
    pub job_queue_depth: usize,
    /// Results waiting for the consumer right now.
    pub result_queue_depth: usize,
    /// Decode latency percentiles over the recent epochs.
    pub latency: StageLatencies,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timings block with stage `i` taking `i + 1` µs and the total
    /// their sum — distinct values so index mix-ups show up.
    fn sample_timings() -> StageTimings {
        let per_stage: [Duration; STAGE_COUNT] =
            std::array::from_fn(|i| Duration::from_micros(i as u64 + 1));
        StageTimings {
            per_stage,
            total: per_stage.iter().sum::<Duration>(),
        }
    }

    /// Ring entries whose total latency is `totals[k]` ns, seq `k`.
    fn entries(totals: &[u64]) -> Vec<LatencyEntry> {
        totals
            .iter()
            .zip(0u64..)
            .map(|(&ns, seq)| LatencyEntry {
                seq,
                class: 0x5000 + seq,
                timings: StageTimings {
                    total: Duration::from_nanos(ns),
                    ..StageTimings::default()
                },
            })
            .collect()
    }

    fn total_summary(totals: &[u64]) -> LatencySummary {
        LatencySummary::of(&entries(totals), |t| t.total)
    }

    #[test]
    fn percentiles_over_known_ring() {
        let totals: Vec<u64> = (1..=100u64).map(|k| k * 1000).collect();
        let s = total_summary(&totals);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Duration::from_nanos(50_000));
        assert_eq!(s.p90, Duration::from_nanos(90_000));
        assert_eq!(s.p99, Duration::from_nanos(99_000));
        assert_eq!(s.max, Duration::from_nanos(100_000));
    }

    #[test]
    fn p99_epoch_is_the_entry_at_the_p99_rank() {
        // 100 epochs in a scrambled latency order: the p99 rank is the
        // 99th-smallest latency (99 µs), which epoch 78 carries.
        let totals: Vec<u64> = (0..100u64).map(|k| (k * 41 % 100 + 1) * 1000).collect();
        assert_eq!(totals[78], 99_000);
        let s = total_summary(&totals);
        assert_eq!(s.p99, Duration::from_nanos(99_000));
        assert_eq!(s.p99_epoch, Some((78, 0x5000 + 78)));
        // Ties rank by seq: the p99 of identical latencies is the
        // 99th-ranked epoch, not whichever landed last.
        let flat = total_summary(&[7_000; 100]);
        assert_eq!(flat.p99_epoch, Some((98, 0x5000 + 98)));
    }

    #[test]
    fn empty_ring_is_zero() {
        assert_eq!(total_summary(&[]), LatencySummary::default());
        assert_eq!(total_summary(&[]).p99_epoch, None);
    }

    #[test]
    fn single_sample_is_exact_at_every_percentile() {
        let s = total_summary(&[42_000]);
        assert_eq!(s.count, 1);
        let exact = Duration::from_nanos(42_000);
        assert_eq!(s.p50, exact);
        assert_eq!(s.p90, exact);
        assert_eq!(s.p99, exact);
        assert_eq!(s.max, exact);
        assert_eq!(s.p99_epoch, Some((0, 0x5000)));
    }

    #[test]
    fn saturated_single_sample_survives_unclipped() {
        // A Duration too large for u64 nanoseconds saturates on record;
        // the summary must carry the sentinel through, not mangle it.
        let s = total_summary(&[u64::MAX]);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, Duration::from_nanos(u64::MAX));
        assert_eq!(s.p99, Duration::from_nanos(u64::MAX));
        assert_eq!(s.max, Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn ring_is_bounded() {
        let stats = StatsShared::default();
        let t = sample_timings();
        for seq in 0..(LATENCY_RING as u64 + 50) {
            stats.record_latency(seq, 0, &t);
        }
        let snap = stats.snapshot(0, 0);
        assert_eq!(snap.latency.total.count, LATENCY_RING);
        assert_eq!(snap.latency.total.p50, t.total);
        // The 50 oldest epochs were evicted; equal latencies rank by seq.
        let p99_rank = (LATENCY_RING * 99).div_ceil(100) as u64;
        assert_eq!(snap.latency.total.p99_epoch, Some((50 + p99_rank - 1, 0)));
    }

    #[test]
    fn stage_summaries_follow_graph_order() {
        let stats = StatsShared::default();
        let t = sample_timings();
        stats.record_latency(7, 0x40, &t);
        let snap = stats.snapshot(0, 0);
        for (i, (name, summary)) in snap.latency.iter().enumerate() {
            assert_eq!(summary.count, 1, "stage {name}");
            assert_eq!(summary.p50, t.per_stage[i], "stage {name}");
            assert_eq!(summary.p99_epoch, Some((7, 0x40)), "stage {name}");
            assert_eq!(snap.latency.get(name), Some(summary));
        }
        assert_eq!(snap.latency.get("total"), None);
        assert_eq!(snap.latency.get("no-such-stage"), None);
    }

    #[test]
    fn counters_surface_through_the_registry() {
        let obs = ObsContext::new();
        let stats = StatsShared::new(&obs);
        stats.chunks_in.add(3);
        stats.epochs_in.inc();
        stats.record_latency(0, 0, &sample_timings());
        let _ = stats.snapshot(2, 1);
        let snap = obs.registry_snapshot();
        assert_eq!(
            snap.get("reader.chunks_in"),
            Some(&lf_obs::MetricValue::Counter(3))
        );
        assert_eq!(
            snap.get("reader.epochs_in"),
            Some(&lf_obs::MetricValue::Counter(1))
        );
        assert_eq!(
            snap.get("reader.job_queue_depth"),
            Some(&lf_obs::MetricValue::Gauge(2))
        );
        // Stage latencies stay in the ring: the decoder's
        // `pipeline.stage.*` histograms are the one registry family.
        assert!(
            snap.metrics
                .iter()
                .all(|m| !m.name.starts_with("reader.stage.")),
            "the reader must not register a second stage-latency family"
        );
    }

    #[test]
    fn disabled_context_still_counts() {
        let stats = StatsShared::new(&ObsContext::disabled());
        stats.faults.inc();
        stats.faults.inc();
        assert_eq!(stats.snapshot(0, 0).faults, 2);
    }
}
