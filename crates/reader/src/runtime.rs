//! The streaming reader runtime: ingest → segment → decode pool → reorder.
//!
//! ```text
//!             ingest thread                N worker threads
//! IqSource ──► OnlineSegmenter ──► job queue ──► decode_epoch ──► result
//!   chunks        epochs           (bounded)      (contained)      queue ──► recv()
//!                                                                (bounded)   in seq
//!                                                                            order
//! ```
//!
//! Design contract:
//!
//! * **Bounded everywhere.** Both queues are [`BoundedQueue`]s. Under the
//!   [`Backpressure::Block`] policy nothing is ever lost — a slow consumer
//!   stalls the workers, which stalls ingestion. Under
//!   [`Backpressure::DropOldest`] the ingester sheds the *oldest*
//!   undecoded epoch instead of blocking (freshest data wins on a live
//!   air interface) and accounts for every shed epoch: a `Dropped`
//!   report still flows to the consumer, so `epochs_in` always equals
//!   delivered reports at shutdown.
//! * **Deterministic.** Segmentation is chunk-size invariant, workers
//!   never influence each other's decodes, and reports are reassembled
//!   in epoch order — an N-worker run is byte-identical to
//!   [`sequential_decode`] of the same capture.
//! * **Fault containment.** A panic inside one epoch's decode is caught;
//!   that epoch is reported as [`EpochResult::Faulted`] and the pool
//!   keeps serving (a poisoned capture must not take down the reader).
//! * **Graceful shutdown.** [`ReaderRuntime::shutdown`] stops ingestion,
//!   lets the workers drain what is queued, and delivers it; dropping
//!   the runtime does the same before joining its threads.

use crate::queue::BoundedQueue;
use crate::segment::{OnlineSegmenter, SegmentedEpoch, SegmenterConfig};
use crate::source::IqSource;
use crate::stats::{nanos_of, RuntimeStats, StatsShared};
use lf_core::config::DecoderConfig;
use lf_core::pipeline::{Decoder, EpochDecode, StageTimings};
use lf_core::DecodeScratch;
use lf_obs::{EpochOutcome, FlightRecord, FlightRecorder, ObsContext, TagLedger};
use lf_types::Complex;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// An epoch decoder the worker pool can share. Implemented by
/// `lf_core::Decoder`; tests and ablations can substitute their own.
///
/// Each worker thread owns one [`DecodeScratch`] for its whole lifetime
/// and passes it to every decode, so `lf_core::Decoder` (through
/// [`Decoder::decode_timed_with`]) allocates its epoch buffers once per
/// worker, not once per epoch. Decoders that don't reuse buffers simply
/// ignore the argument.
pub trait EpochDecoder: Send + Sync + 'static {
    /// Decodes one segmented epoch, reporting per-stage timings.
    fn decode_epoch(
        &self,
        samples: &[Complex],
        scratch: &mut DecodeScratch,
    ) -> (EpochDecode, StageTimings);
}

impl EpochDecoder for Decoder {
    fn decode_epoch(
        &self,
        samples: &[Complex],
        scratch: &mut DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        self.decode_timed_with(samples, scratch)
    }
}

/// What to do when the decode pool cannot keep up with the air interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Never lose an epoch: ingestion blocks until the pool has room.
    /// Right for offline captures and file replay.
    Block,
    /// Never block ingestion: shed the oldest queued (undecoded) epoch
    /// and deliver a `Dropped` report in its place. Right for a live
    /// front end whose hardware buffer would otherwise overflow
    /// arbitrarily.
    DropOldest,
}

/// Worker-pool and queue parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Decode worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Job (segmented-epoch) queue capacity.
    pub job_queue: usize,
    /// Result (report) queue capacity.
    pub result_queue: usize,
    /// Backpressure policy at the job queue.
    pub backpressure: Backpressure,
    /// Online segmentation parameters.
    pub segmenter: SegmenterConfig,
    /// Diagnosis sinks the pipeline threads feed as they work (defaults
    /// to none — zero cost unless wired).
    pub diag: DiagSinks,
}

impl RuntimeConfig {
    /// Defaults derived from a decoder configuration: one worker per
    /// available core, queues of twice the pool depth, lossless
    /// backpressure, no diagnosis sinks.
    pub fn for_decoder(cfg: &DecoderConfig) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        RuntimeConfig {
            workers,
            job_queue: 2 * workers,
            result_queue: 2 * workers,
            backpressure: Backpressure::Block,
            segmenter: SegmenterConfig::from_decoder(cfg),
            diag: DiagSinks::default(),
        }
    }
}

/// Diagnosis sinks the runtime feeds from inside the pipeline threads:
/// a shared [`TagLedger`] receiving every epoch outcome and per-stream
/// stage verdict, and a [`FlightRecorder`] receiving one bounded record
/// per epoch. Both are optional and default to absent; the runtime's
/// behaviour is identical either way (the sinks observe, they never
/// steer).
///
/// Frame *deliveries* are not recorded here — the runtime reports decoded
/// streams, not CRC-verified frames. The frame-extraction layer
/// (`lf-fleet`, or any consumer of [`EpochReport`]s) calls
/// [`TagLedger::deliver`] with the same epoch ordinals (`seq`), closing
/// the expected-vs-delivered loop.
#[derive(Debug, Clone, Default)]
pub struct DiagSinks {
    /// Delivery ledger; epoch outcomes and stream verdicts are observed
    /// under [`DiagSinks::reader`].
    pub ledger: Option<Arc<TagLedger>>,
    /// Flight recorder; one record per epoch (decoded, dropped, or
    /// faulted), plus a black-box trigger on every contained worker panic.
    pub flight: Option<Arc<FlightRecorder>>,
    /// This runtime's reader index in the ledger rows and flight records
    /// (0 for a standalone reader; `lf-fleet` assigns distinct indices).
    pub reader: usize,
}

impl DiagSinks {
    /// Ledger + flight recorder for reader index `reader`.
    pub fn new(ledger: Arc<TagLedger>, flight: Arc<FlightRecorder>, reader: usize) -> Self {
        DiagSinks {
            ledger: Some(ledger),
            flight: Some(flight),
            reader,
        }
    }

    /// True when no sink is wired (the observe calls are no-ops).
    pub fn is_empty(&self) -> bool {
        self.ledger.is_none() && self.flight.is_none()
    }

    fn observe_decoded(
        &self,
        seq: u64,
        decode: &EpochDecode,
        timings: &StageTimings,
        jobs_depth: usize,
        results_depth: usize,
    ) {
        if let Some(ledger) = &self.ledger {
            ledger.observe_epoch(self.reader, seq, EpochOutcome::Decoded);
            // Streams and their provenance records are index-aligned.
            for (s, p) in decode.streams.iter().zip(&decode.provenance.streams) {
                ledger.observe_stream(self.reader, seq, s.rate_bps.to_bits(), p.failing_stage());
            }
        }
        if let Some(flight) = &self.flight {
            let mut stage_ns: Vec<(&'static str, u64)> = timings
                .iter()
                .map(|(name, d)| (name, nanos_of(d)))
                .collect();
            stage_ns.push(("total", nanos_of(timings.total)));
            flight.record(FlightRecord {
                reader: self.reader,
                seq,
                outcome: "decoded",
                failing_stage: decode.provenance.failing_stage(),
                streams: decode.streams.len(),
                edges: decode.n_edges,
                stage_ns,
                jobs_depth,
                results_depth,
                detail: String::new(),
            });
        }
    }

    fn observe_faulted(&self, seq: u64, message: &str, jobs_depth: usize, results_depth: usize) {
        if let Some(ledger) = &self.ledger {
            ledger.observe_epoch(self.reader, seq, EpochOutcome::Faulted);
        }
        if let Some(flight) = &self.flight {
            flight.record(FlightRecord {
                reader: self.reader,
                seq,
                outcome: "faulted",
                failing_stage: None,
                streams: 0,
                edges: 0,
                stage_ns: Vec::new(),
                jobs_depth,
                results_depth,
                detail: message.to_owned(),
            });
            // A contained panic is always black-box-worthy.
            let _ = flight.trigger(&format!("worker-panic: epoch {seq}"));
        }
    }

    fn observe_dropped(&self, seq: u64, jobs_depth: usize, results_depth: usize) {
        if let Some(ledger) = &self.ledger {
            ledger.observe_epoch(self.reader, seq, EpochOutcome::Dropped);
        }
        if let Some(flight) = &self.flight {
            flight.record(FlightRecord {
                reader: self.reader,
                seq,
                outcome: "dropped",
                failing_stage: None,
                streams: 0,
                edges: 0,
                stage_ns: Vec::new(),
                jobs_depth,
                results_depth,
                detail: String::new(),
            });
        }
    }
}

/// How one epoch fared.
#[derive(Debug, Clone)]
pub enum EpochResult {
    /// The epoch decoded normally.
    Decoded {
        /// The decode.
        decode: EpochDecode,
        /// Per-stage wall-clock cost of this epoch's decode.
        timings: StageTimings,
    },
    /// The epoch was shed by the drop-oldest backpressure policy before
    /// a worker saw it.
    Dropped,
    /// The decode panicked; the panic was contained and the pool kept
    /// serving.
    Faulted {
        /// The panic payload, stringified.
        message: String,
    },
}

/// One epoch's report, delivered in epoch (stream) order.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch sequence number (0-based, in stream order).
    pub seq: u64,
    /// The epoch's sample range within the whole stream.
    pub range: Range<usize>,
    /// True when the segmenter force-closed this epoch at its size bound.
    pub forced_split: bool,
    /// The outcome.
    pub result: EpochResult,
}

impl EpochReport {
    /// The decode, if this epoch produced one.
    pub fn decode(&self) -> Option<&EpochDecode> {
        match &self.result {
            EpochResult::Decoded { decode, .. } => Some(decode),
            EpochResult::Dropped | EpochResult::Faulted { .. } => None,
        }
    }
}

/// A segmented epoch on its way to a worker.
#[derive(Debug)]
struct Job {
    seq: u64,
    range: Range<usize>,
    forced_split: bool,
    samples: Vec<Complex>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one job through the decoder with panic containment. The worker's
/// scratch buffers carry no cross-epoch state, so reusing them after a
/// contained panic is safe (every stage clears or rebuilds its buffer
/// before reading it).
fn decode_contained(
    decoder: &dyn EpochDecoder,
    job: &Job,
    scratch: &mut DecodeScratch,
) -> EpochResult {
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        decoder.decode_epoch(&job.samples, scratch)
    })) {
        Ok((decode, timings)) => EpochResult::Decoded { decode, timings },
        Err(payload) => EpochResult::Faulted {
            message: panic_message(payload),
        },
    }
}

/// The streaming reader runtime. See the module docs for the contract.
#[derive(Debug)]
pub struct ReaderRuntime {
    jobs: Arc<BoundedQueue<Job>>,
    results: Arc<BoundedQueue<EpochReport>>,
    stats: Arc<StatsShared>,
    obs: ObsContext,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Reports that arrived ahead of their turn, keyed by seq.
    reorder: BTreeMap<u64, EpochReport>,
    next_seq: u64,
}

impl ReaderRuntime {
    /// Starts the runtime: one ingest thread pulling from `source`, and
    /// `cfg.workers` decode workers sharing `decoder`.
    pub fn spawn<S: IqSource + 'static>(
        source: S,
        decoder: Arc<dyn EpochDecoder>,
        cfg: &RuntimeConfig,
    ) -> Self {
        ReaderRuntime::spawn_with_obs(source, decoder, cfg, ObsContext::disabled())
    }

    /// [`ReaderRuntime::spawn`] with an observability context. Every
    /// pipeline thread installs `obs` thread-locally, so `reader.*`
    /// counters, spans, and events from all workers aggregate into the one
    /// shared registry without contention (counters are sharded). Stage
    /// latencies are recorded by the decoder itself (`pipeline.stage.*`,
    /// when it was built over `obs` with `Decoder::with_obs`); the
    /// runtime keeps its own copy only in [`ReaderRuntime::stats`]. Pass [`ObsContext::disabled`] (what
    /// [`ReaderRuntime::spawn`] does) to make every recording a no-op
    /// while keeping [`ReaderRuntime::stats`] fully functional.
    pub fn spawn_with_obs<S: IqSource + 'static>(
        source: S,
        decoder: Arc<dyn EpochDecoder>,
        cfg: &RuntimeConfig,
        obs: ObsContext,
    ) -> Self {
        let jobs = Arc::new(BoundedQueue::new(cfg.job_queue));
        let results = Arc::new(BoundedQueue::new(cfg.result_queue));
        let stats = Arc::new(StatsShared::new(&obs));
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        // A reader is part of the conservation accounting from the moment
        // it spawns, even if it dies before observing a single epoch.
        if let Some(ledger) = &cfg.diag.ledger {
            ledger.register_reader(cfg.diag.reader);
        }

        // --- ingest thread ---
        {
            let jobs = Arc::clone(&jobs);
            let results = Arc::clone(&results);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let segmenter = OnlineSegmenter::new(cfg.segmenter);
            let policy = cfg.backpressure;
            let diag = cfg.diag.clone();
            let obs = obs.clone();
            let mut source = source;
            threads.push(std::thread::spawn(move || {
                let _obs_guard = obs.install();
                ingest(
                    &mut source,
                    segmenter,
                    policy,
                    &jobs,
                    &results,
                    &stats,
                    &diag,
                    &stop,
                );
            }));
        }

        // --- worker pool ---
        let active = Arc::new(AtomicUsize::new(cfg.workers.max(1)));
        for _ in 0..cfg.workers.max(1) {
            let jobs = Arc::clone(&jobs);
            let results = Arc::clone(&results);
            let stats = Arc::clone(&stats);
            let active = Arc::clone(&active);
            let decoder = Arc::clone(&decoder);
            let diag = cfg.diag.clone();
            let obs = obs.clone();
            threads.push(std::thread::spawn(move || {
                let _obs_guard = obs.install();
                // One scratch per worker, reused across every epoch this
                // worker decodes (zero steady-state decode allocation).
                let mut scratch = DecodeScratch::default();
                while let Some(job) = jobs.pop() {
                    let result = decode_contained(&*decoder, &job, &mut scratch);
                    match &result {
                        EpochResult::Decoded { decode, timings } => {
                            // The ring entry names the epoch (and the rate
                            // class it was carrying), so a latency outlier
                            // links back to the epoch that produced it.
                            let class = decode.streams.first().map_or(0, |s| s.rate_bps.to_bits());
                            stats.record_latency(job.seq, class, timings);
                            diag.observe_decoded(
                                job.seq,
                                decode,
                                timings,
                                jobs.len(),
                                results.len(),
                            );
                        }
                        EpochResult::Faulted { message } => {
                            stats.faults.inc();
                            diag.observe_faulted(job.seq, message, jobs.len(), results.len());
                        }
                        EpochResult::Dropped => {}
                    }
                    let report = EpochReport {
                        seq: job.seq,
                        range: job.range,
                        forced_split: job.forced_split,
                        result,
                    };
                    if results.push_block(report).is_err() {
                        break;
                    }
                }
                // The last worker out closes the result queue: the job
                // queue is already closed and drained by then, and the
                // ingester (which force-pushes drop tombstones) only
                // runs while the job queue is open.
                // ordering: AcqRel — the classic last-one-out latch. The
                // Release half makes every earlier `push_block` of this
                // worker visible before the count drops; the Acquire half
                // makes the *other* workers' pushes visible to whichever
                // worker observes 1 and closes the queue, so no report
                // can be published after the close it justified.
                if active.fetch_sub(1, Ordering::AcqRel) == 1 {
                    results.close();
                }
            }));
        }

        ReaderRuntime {
            jobs,
            results,
            stats,
            obs,
            stop,
            threads,
            reorder: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Convenience: spawn with the standard pipeline decoder and defaults
    /// derived from its configuration.
    pub fn spawn_decoder<S: IqSource + 'static>(source: S, decoder_cfg: DecoderConfig) -> Self {
        let cfg = RuntimeConfig::for_decoder(&decoder_cfg);
        ReaderRuntime::spawn(source, Arc::new(Decoder::new(decoder_cfg)), &cfg)
    }

    /// The observability context this runtime records into. Disabled
    /// (all recordings no-ops) unless the runtime was spawned through
    /// [`ReaderRuntime::spawn_with_obs`].
    pub fn obs(&self) -> &ObsContext {
        &self.obs
    }

    /// The next epoch report, in epoch order; blocks while the pipeline
    /// is working. `None` means the stream ended (or the runtime was shut
    /// down) and every report has been delivered.
    pub fn recv(&mut self) -> Option<EpochReport> {
        loop {
            if let Some(report) = self.reorder.remove(&self.next_seq) {
                self.next_seq += 1;
                self.stats.epochs_out.inc();
                return Some(report);
            }
            if let Some(report) = self.results.pop() {
                self.reorder.insert(report.seq, report);
                continue;
            }
            // Result queue closed and drained. Leftovers in the reorder
            // buffer can only exist after a forced shutdown cut seq gaps
            // open; deliver them in order regardless.
            let (&k, _) = self.reorder.iter().next()?;
            self.next_seq = k;
        }
    }

    /// Non-blocking [`ReaderRuntime::recv`].
    ///
    /// Ordering contract: `try_recv` and `recv` drain the *same* ordered
    /// report sequence — interleaving them in any pattern yields exactly
    /// the reports `recv` alone would have yielded, in the same order
    /// (epoch order, every seq exactly once up to a shutdown cut). The
    /// only difference is blocking behavior: where `recv` parks until the
    /// pipeline produces the next in-order report, `try_recv` returns
    /// `None`, meaning nothing is deliverable *right now* — not end of
    /// stream. Poll [`ReaderRuntime::is_finished`] to tell the two
    /// apart; once it reports true, `try_recv` returns `None` forever.
    /// This is what lets one fleet coordinator poll N runtimes without
    /// dedicating a blocked thread to each.
    pub fn try_recv(&mut self) -> Option<EpochReport> {
        loop {
            if let Some(report) = self.reorder.remove(&self.next_seq) {
                self.next_seq += 1;
                self.stats.epochs_out.inc();
                return Some(report);
            }
            match self.results.try_pop() {
                Some(report) => {
                    self.reorder.insert(report.seq, report);
                }
                None => {
                    // Nothing queued. If the stream has ended (result
                    // queue closed and drained — a stable condition),
                    // reorder-buffer leftovers can only exist because a
                    // forced shutdown cut seq gaps open; skip to the
                    // next present seq so they drain here exactly as
                    // they do in `recv`.
                    if self.results.is_closed_and_empty() {
                        if let Some((&k, _)) = self.reorder.iter().next() {
                            debug_assert!(k > self.next_seq);
                            self.next_seq = k;
                            continue;
                        }
                    }
                    return None;
                }
            }
        }
    }

    /// True once the stream has ended and every report has been
    /// delivered: from this point `recv` returns `None` immediately and
    /// [`ReaderRuntime::try_recv`]'s `None` means end of stream rather
    /// than "try again". Stable — once true, true forever.
    pub fn is_finished(&self) -> bool {
        self.results.is_closed_and_empty() && self.reorder.is_empty()
    }

    /// A live statistics snapshot; callable at any time from the
    /// consuming thread while the pipeline keeps serving.
    pub fn stats(&self) -> RuntimeStats {
        self.stats.snapshot(self.jobs.len(), self.results.len())
    }

    /// Graceful shutdown: stop ingesting, decode and deliver everything
    /// already queued. `recv` drains the remainder and then reports end
    /// of stream.
    pub fn shutdown(&self) {
        // ordering: Relaxed — a standalone stop flag polled by the
        // ingester; no data is published under it (the queue close below
        // carries its own mutex synchronization), and a one-iteration
        // delay in observing it is harmless.
        self.stop.store(true, Ordering::Relaxed);
        self.jobs.close();
    }

    /// Drains any undelivered reports, joins all pipeline threads, and
    /// returns the final statistics.
    pub fn join(mut self) -> RuntimeStats {
        while self.recv().is_some() {}
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.stats.snapshot(self.jobs.len(), self.results.len())
    }
}

impl Drop for ReaderRuntime {
    fn drop(&mut self) {
        self.shutdown();
        // Unblock any worker stuck pushing a result, then join.
        while self.recv().is_some() {}
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The ingest loop: pull chunks, segment, enqueue jobs under the policy.
#[allow(clippy::too_many_arguments)] // the worker wiring is one call site; a struct would just move the list
fn ingest(
    source: &mut dyn IqSource,
    mut segmenter: OnlineSegmenter,
    policy: Backpressure,
    jobs: &BoundedQueue<Job>,
    results: &BoundedQueue<EpochReport>,
    stats: &StatsShared,
    diag: &DiagSinks,
    stop: &AtomicBool,
) {
    let mut segmented: Vec<SegmentedEpoch> = Vec::new();
    let mut seq = 0u64;
    loop {
        // ordering: Relaxed — poll of the standalone stop flag; see the
        // justification at the store in `shutdown`.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Some(chunk) = source.next_chunk() else {
            segmenter.finish(&mut segmented);
            enqueue_all(&mut segmented, &mut seq, policy, jobs, results, stats, diag);
            break;
        };
        stats.chunks_in.inc();
        stats.samples_in.add(chunk.len() as u64);
        segmenter.push_chunk(&chunk, &mut segmented);
        if !enqueue_all(&mut segmented, &mut seq, policy, jobs, results, stats, diag) {
            break;
        }
    }
    jobs.close();
}

/// Enqueues every segmented epoch; false means the pipeline is closing.
fn enqueue_all(
    segmented: &mut Vec<SegmentedEpoch>,
    seq: &mut u64,
    policy: Backpressure,
    jobs: &BoundedQueue<Job>,
    results: &BoundedQueue<EpochReport>,
    stats: &StatsShared,
    diag: &DiagSinks,
) -> bool {
    for epoch in segmented.drain(..) {
        stats.epochs_in.inc();
        if epoch.forced_split {
            stats.forced_splits.inc();
        }
        let job = Job {
            seq: *seq,
            range: epoch.range,
            forced_split: epoch.forced_split,
            samples: epoch.samples,
        };
        *seq += 1;
        match policy {
            Backpressure::Block => {
                if jobs.push_block(job).is_err() {
                    return false;
                }
            }
            Backpressure::DropOldest => match jobs.push_drop_oldest(job) {
                Err(_) => return false,
                Ok(Some(evicted)) => {
                    stats.epochs_dropped.inc();
                    diag.observe_dropped(evicted.seq, jobs.len(), results.len());
                    // Constant-size tombstone: the consumer must still
                    // see every seq exactly once for exact accounting
                    // (and so reordering never stalls on a hole).
                    let _ = results.push_forced(EpochReport {
                        seq: evicted.seq,
                        range: evicted.range,
                        forced_split: evicted.forced_split,
                        result: EpochResult::Dropped,
                    });
                }
                Ok(None) => {}
            },
        }
    }
    true
}

/// The single-threaded reference path: same segmentation, same decoder,
/// same containment, no pool — the determinism baseline the parallel
/// runtime is tested as byte-identical to.
pub fn sequential_decode<S: IqSource>(
    mut source: S,
    decoder: &dyn EpochDecoder,
    segmenter_cfg: SegmenterConfig,
) -> Vec<EpochReport> {
    let mut segmenter = OnlineSegmenter::new(segmenter_cfg);
    let mut segmented: Vec<SegmentedEpoch> = Vec::new();
    let mut reports = Vec::new();
    let mut seq = 0u64;
    let mut scratch = DecodeScratch::default();
    let mut decode_pending = |segmented: &mut Vec<SegmentedEpoch>,
                              reports: &mut Vec<EpochReport>| {
        for epoch in segmented.drain(..) {
            let job = Job {
                seq,
                range: epoch.range,
                forced_split: epoch.forced_split,
                samples: epoch.samples,
            };
            seq += 1;
            let result = decode_contained(decoder, &job, &mut scratch);
            reports.push(EpochReport {
                seq: job.seq,
                range: job.range,
                forced_split: job.forced_split,
                result,
            });
        }
    };
    while let Some(chunk) = source.next_chunk() {
        segmenter.push_chunk(&chunk, &mut segmented);
        decode_pending(&mut segmented, &mut reports);
    }
    segmenter.finish(&mut segmented);
    decode_pending(&mut segmented, &mut reports);
    reports
}
