//! The fleet runtime: N readers, one coordinator, exactly-once delivery.
//!
//! ```text
//!  ReaderRuntime 0 ──┐ try_recv()                    ┌──► Subscription
//!  ReaderRuntime 1 ──┼──► coordinator ──► FrameBus ──┼──► Subscription
//!  ReaderRuntime k ──┘    extract → claim → publish  └──► …
//!                              │
//!                         DedupRegistry
//! ```
//!
//! One coordinator thread polls every reader with the non-blocking
//! [`ReaderRuntime::try_recv`] (no thread per reader), extracts
//! CRC-verified frames from each decode, claims their content-addressed
//! [`FrameId`](crate::FrameId)s in the [`DedupRegistry`], and publishes
//! each winning claim to the [`FrameBus`] — so every over-the-air frame
//! reaches every subscriber exactly once no matter how many antennas
//! decoded it.
//!
//! Coordination is clock-free by construction: frame identity is content
//! plus carrier structure (see [`crate::identity`]), ordering ticks are
//! delivered-frame counts, and lag metrics are measured in frames and
//! epochs. The `no-wallclock-ordering` lint keeps `Instant`/`SystemTime`
//! out of this crate entirely; the coordinator's idle park is a plain
//! `Duration` with no time arithmetic.

use crate::bus::{DeliveredFrame, FrameBus, Subscription};
use crate::dedup::{Claim, DedupRegistry, DeliveryProvenance, ReaderId};
use crate::identity::FrameExtractor;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::Decoder;
use lf_obs::{Counter, Histogram, ObsContext, TagLedger};
use lf_reader::{
    Backpressure, DiagSinks, EpochDecoder, EpochReport, IqSource, ReaderRuntime, RuntimeConfig,
    RuntimeStats,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Capacity of each subscriber's delivery queue.
const BUS_CAPACITY: usize = 256;

/// How long the coordinator parks when a poll sweep over every reader
/// found nothing deliverable. Epoch decodes take milliseconds; parking for
/// a fraction of one keeps the coordinator's idle sweeps off the decode
/// workers' cores without adding visible delivery latency. A plain
/// duration — the coordinator never reads a clock.
const POLL_PARK: Duration = Duration::from_micros(500);

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-reader runtime template (workers, queues, segmenter, reader
    /// backpressure, diagnosis sinks). Every reader gets an identical
    /// copy, except that `diag.reader` becomes its fleet index: the
    /// readers observe into the shared ledger and flight recorder under
    /// that index, and the coordinator records every CRC-verified
    /// delivery in the ledger (winners *and* suppressed duplicates — the
    /// ledger's per-reader rows count what each antenna actually
    /// decoded).
    pub reader: RuntimeConfig,
    /// How frames are recovered from decoded slot streams.
    pub extractor: FrameExtractor,
    /// Fleet delivery-ratio floor. When set (and `reader.diag` wires both
    /// a ledger and a flight recorder), the coordinator triggers a
    /// black-box dump at drain end for each rate class delivered below
    /// the floor.
    pub min_delivery_ratio: Option<f64>,
}

impl FleetConfig {
    /// Defaults derived from a decoder configuration and an extractor:
    /// single-worker readers (fleet parallelism comes from the reader
    /// count) and no delivery-ratio floor.
    pub fn for_decoder(cfg: &DecoderConfig, extractor: FrameExtractor) -> Self {
        let mut reader = RuntimeConfig::for_decoder(cfg);
        reader.workers = 1;
        // The per-reader default (2 × workers) is sized for a consumer
        // blocked in recv(); the fleet coordinator drains N readers in
        // round-robin sweeps, so a worker must be able to report several
        // epochs ahead without stalling on the sweep cadence.
        reader.result_queue = 32;
        FleetConfig {
            reader,
            extractor,
            min_delivery_ratio: None,
        }
    }
}

/// Per-reader contribution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReaderContribution {
    /// CRC-verified frames this reader decoded (winners + duplicates).
    pub frames_seen: u64,
    /// Frames whose delivery this reader's copy won.
    pub wins: u64,
}

/// A point-in-time view of the fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Frames delivered to the bus (exactly-once stream length).
    pub frames_delivered: u64,
    /// Duplicate decodes suppressed by the registry.
    pub duplicates_suppressed: u64,
    /// Distinct frames in the registry.
    pub unique_frames: u64,
    /// Epoch decodes completed across all readers.
    pub epochs_decoded: u64,
    /// Per-reader contributions, indexed by reader.
    pub per_reader: Vec<ReaderContribution>,
}

/// The fleet's final report, returned by [`FleetRuntime::join`].
#[derive(Debug)]
pub struct FleetReport {
    /// Final fleet counters.
    pub stats: FleetStats,
    /// Final per-reader runtime statistics, indexed by reader.
    pub per_reader: Vec<RuntimeStats>,
    /// Per-frame delivery provenance, ordered by (epoch, identity).
    pub provenance: Vec<DeliveryProvenance>,
}

/// Fleet-wide counters and histograms, registered under `fleet.*`.
/// Readers do *not* share the fleet's [`ObsContext`]: each is spawned
/// with a disabled one (see [`FleetRuntime::spawn`]), so its `reader.*`
/// counters stay per-reader and surface in [`FleetReport::per_reader`].
#[derive(Debug)]
struct FleetShared {
    frames_delivered: Counter,
    duplicates: Counter,
    epochs_decoded: Counter,
    /// Readers that decoded each frame (recorded once per frame at
    /// shutdown, from the registry's provenance).
    h_seen_by: Histogram,
    /// Delivered-frame distance between a winning claim and each
    /// suppressed duplicate ("how stale was the duplicate").
    h_duplicate_lag: Histogram,
    /// Epochs between a frame's epoch and the freshest epoch the
    /// coordinator had seen when the frame was delivered.
    h_delivery_lag: Histogram,
    per_reader: Vec<PerReaderShared>,
}

#[derive(Debug)]
struct PerReaderShared {
    frames_seen: Counter,
    wins: Counter,
}

impl FleetShared {
    fn new(obs: &ObsContext, n_readers: usize) -> Self {
        FleetShared {
            frames_delivered: obs.counter("fleet.frames_delivered"),
            duplicates: obs.counter("fleet.duplicates_suppressed"),
            epochs_decoded: obs.counter("fleet.epochs_decoded"),
            h_seen_by: obs.histogram("fleet.dedup.seen_by"),
            h_duplicate_lag: obs.histogram("fleet.dedup.duplicate_lag.frames"),
            h_delivery_lag: obs.histogram("fleet.delivery.lag.epochs"),
            per_reader: (0..n_readers)
                .map(|k| PerReaderShared {
                    frames_seen: obs.counter(&format!("fleet.reader{k}.frames_seen")),
                    wins: obs.counter(&format!("fleet.reader{k}.wins")),
                })
                .collect(),
        }
    }
}

/// The multi-reader fleet runtime. See the module docs.
#[derive(Debug)]
pub struct FleetRuntime {
    coordinator: Option<JoinHandle<Vec<RuntimeStats>>>,
    shared: Arc<FleetShared>,
    registry: Arc<DedupRegistry>,
    stop: Arc<AtomicBool>,
}

impl FleetRuntime {
    /// Starts the fleet: one [`ReaderRuntime`] per source (all sharing
    /// `decoder` and a copy of `cfg.reader`), one coordinator thread,
    /// and `n_subscribers` delivery subscriptions, returned alongside
    /// the runtime. Subscriptions are taken *before* the first frame
    /// can flow, so no subscriber misses a delivery.
    pub fn spawn<S: IqSource + 'static>(
        sources: Vec<S>,
        decoder: Arc<dyn EpochDecoder>,
        cfg: &FleetConfig,
        n_subscribers: usize,
        obs: ObsContext,
    ) -> (Self, Vec<Subscription>) {
        let n_readers = sources.len();
        let shared = Arc::new(FleetShared::new(&obs, n_readers));
        let registry = Arc::new(DedupRegistry::new());
        // A blocking bus is lossless: a slow subscriber stalls the
        // coordinator instead of shedding frames.
        let bus = FrameBus::new(BUS_CAPACITY, Backpressure::Block);
        let subscriptions: Vec<Subscription> =
            (0..n_subscribers).map(|_| bus.subscribe()).collect();
        let stop = Arc::new(AtomicBool::new(false));

        // Each reader gets detached stats handles (a disabled context)
        // rather than the fleet's: `reader.*` metric names are shared
        // per-registry, so N readers on one registry would fold their
        // plumbing counters together and every per-reader
        // `RuntimeStats` would read fleet totals. Decode-pipeline
        // metrics still aggregate fleet-wide through the shared
        // decoder's own context, and the fleet view lives under
        // `fleet.*` (aggregate + per-reader).
        let readers: Vec<ReaderRuntime> = sources
            .into_iter()
            .enumerate()
            .map(|(k, src)| {
                // Each reader observes into the shared ledger and flight
                // recorder under its own fleet index.
                let mut reader_cfg = cfg.reader.clone();
                reader_cfg.diag.reader = k;
                ReaderRuntime::spawn(src, Arc::clone(&decoder), &reader_cfg)
            })
            .collect();

        let coordinator = {
            let shared = Arc::clone(&shared);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let extractor = cfg.extractor.clone();
            let diag = cfg.reader.diag.clone();
            let floor = cfg.min_delivery_ratio;
            std::thread::spawn(move || {
                let _obs_guard = obs.install();
                coordinate(
                    readers, &extractor, &registry, &bus, &shared, &diag, floor, &stop,
                )
            })
        };

        (
            FleetRuntime {
                coordinator: Some(coordinator),
                shared,
                registry,
                stop,
            },
            subscriptions,
        )
    }

    /// [`FleetRuntime::spawn`] with the standard pipeline decoder built
    /// over the fleet's observability context.
    pub fn spawn_decoder<S: IqSource + 'static>(
        sources: Vec<S>,
        decoder_cfg: DecoderConfig,
        cfg: &FleetConfig,
        n_subscribers: usize,
        obs: ObsContext,
    ) -> (Self, Vec<Subscription>) {
        let decoder = Arc::new(Decoder::with_obs(decoder_cfg, obs.clone()));
        FleetRuntime::spawn(sources, decoder, cfg, n_subscribers, obs)
    }

    /// A live statistics snapshot; callable any time.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            frames_delivered: self.shared.frames_delivered.get(),
            duplicates_suppressed: self.shared.duplicates.get(),
            unique_frames: self.registry.len() as u64,
            epochs_decoded: self.shared.epochs_decoded.get(),
            per_reader: self
                .shared
                .per_reader
                .iter()
                .map(|r| ReaderContribution {
                    frames_seen: r.frames_seen.get(),
                    wins: r.wins.get(),
                })
                .collect(),
        }
    }

    /// Requests a graceful shutdown: the coordinator stops the readers'
    /// ingestion, drains what they already decoded, delivers it, and
    /// closes the bus. Subscribers see end of stream after the drain.
    pub fn shutdown(&self) {
        // ordering: Relaxed — a standalone stop flag polled by the
        // coordinator between sweeps; no data is published under it and
        // a one-sweep delay in observing it is harmless.
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for end of stream (every source exhausted and every report
    /// processed), closes the bus, joins all threads, and returns the
    /// final report. Subscribers must keep draining while this runs: the
    /// bus blocks the coordinator while a subscriber's queue is full.
    pub fn join(mut self) -> FleetReport {
        let per_reader = match self.coordinator.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => Vec::new(),
        };
        FleetReport {
            stats: self.stats(),
            per_reader,
            provenance: self.registry.provenance(),
        }
    }
}

impl Drop for FleetRuntime {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
    }
}

/// The coordinator loop: poll every reader, dedup, deliver; park only
/// when a full sweep found nothing. Returns the readers' final stats.
#[allow(clippy::too_many_arguments)]
fn coordinate(
    mut readers: Vec<ReaderRuntime>,
    extractor: &FrameExtractor,
    registry: &DedupRegistry,
    bus: &FrameBus,
    shared: &FleetShared,
    diag: &DiagSinks,
    min_delivery_ratio: Option<f64>,
    stop: &AtomicBool,
) -> Vec<RuntimeStats> {
    let mut delivered_tick: u64 = 0;
    let mut max_ordinal: u64 = 0;
    let mut shutdown_sent = false;
    loop {
        let mut progressed = false;
        for (k, reader) in readers.iter_mut().enumerate() {
            while let Some(report) = reader.try_recv() {
                progressed = true;
                process_report(
                    k,
                    &report,
                    extractor,
                    registry,
                    bus,
                    shared,
                    diag.ledger.as_deref(),
                    &mut delivered_tick,
                    &mut max_ordinal,
                );
            }
        }
        // ordering: Relaxed — see the justification at the store in
        // `FleetRuntime::shutdown`.
        if !shutdown_sent && stop.load(Ordering::Relaxed) {
            for reader in &readers {
                reader.shutdown();
            }
            shutdown_sent = true;
        }
        if readers.iter().all(ReaderRuntime::is_finished) {
            break;
        }
        if !progressed {
            std::thread::sleep(POLL_PARK);
        }
    }
    // Multiplicity is only final once every reader has reported: record
    // the seen-by histogram from the complete provenance, then end the
    // subscribers' streams.
    for p in registry.provenance() {
        shared.h_seen_by.record(p.seen_by.len() as u64);
    }
    // Delivery ratios are only final at drain end too: check the floor
    // and snapshot a black box while the flight ring still holds the run.
    if let (Some(ledger), Some(flight), Some(floor)) =
        (&diag.ledger, &diag.flight, min_delivery_ratio)
    {
        for c in &ledger.summary().classes {
            if c.delivery_ratio() < floor {
                let _ = flight.trigger(&format!(
                    "delivery-ratio breach: class {:#018x} at {:.3} < {:.3}",
                    c.class,
                    c.delivery_ratio(),
                    floor
                ));
            }
        }
    }
    bus.close();
    readers.into_iter().map(ReaderRuntime::join).collect()
}

/// Folds one epoch report into the fleet state.
#[allow(clippy::too_many_arguments)]
fn process_report(
    reader_index: usize,
    report: &EpochReport,
    extractor: &FrameExtractor,
    registry: &DedupRegistry,
    bus: &FrameBus,
    shared: &FleetShared,
    ledger: Option<&TagLedger>,
    delivered_tick: &mut u64,
    max_ordinal: &mut u64,
) {
    let Some(decode) = report.decode() else {
        return; // dropped / faulted epochs carry no frames
    };
    shared.epochs_decoded.inc();
    // The epoch ordinal is this reader's own carrier-gap count — see
    // crate::identity for why all readers agree on it without a clock.
    let ordinal = report.seq;
    *max_ordinal = (*max_ordinal).max(ordinal);
    for stream in &decode.streams {
        for frame in extractor.extract(stream) {
            shared.per_reader[reader_index].frames_seen.inc();
            let id = frame.id(ordinal);
            // Ledger rows are per reader: a suppressed duplicate is still
            // a delivery by *this* antenna, so record before the claim.
            if let Some(ledger) = ledger {
                ledger.deliver(
                    reader_index,
                    ordinal,
                    frame.rate_bps.to_bits(),
                    id.payload_digest,
                );
            }
            match registry.claim(id, ReaderId(reader_index), ordinal, *delivered_tick) {
                Claim::Winner => {
                    let delivered = DeliveredFrame {
                        payload: frame.payload,
                        rate_bps: frame.rate_bps,
                        kind: frame.kind,
                        epoch_ordinal: ordinal,
                        winner: ReaderId(reader_index),
                        reason: crate::dedup::WinReason::FirstClaim,
                        id,
                    };
                    bus.publish(&delivered);
                    *delivered_tick += 1;
                    shared.frames_delivered.inc();
                    shared.per_reader[reader_index].wins.inc();
                    shared.h_delivery_lag.record(*max_ordinal - ordinal);
                }
                Claim::Duplicate { lag_ticks, .. } => {
                    shared.duplicates.inc();
                    shared.h_duplicate_lag.record(lag_ticks);
                }
            }
        }
    }
}
