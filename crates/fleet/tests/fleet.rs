//! End-to-end exactly-once tests for the fleet runtime.
//!
//! Three readers, each with its own channel realization of the same two
//! tags, decode the same session with heavy coverage overlap. The fleet
//! contract under test: every transmitted frame reaches the subscriber
//! exactly once — zero losses against synthesis ground truth, zero
//! duplicates despite every frame being decoded by multiple readers.

#![allow(clippy::expect_used)]

use lf_fleet::{realized_sources, FleetConfig, FleetRuntime, FrameExtractor};
use lf_obs::{FlightRecorder, ObsContext, TagLedger};
use lf_sim::scenario::{Scenario, ScenarioTag};
use lf_sim::score::TruthStream;
use lf_types::{RatePlan, SampleRate};
use std::collections::HashSet;
use std::sync::Arc;

const N_READERS: usize = 3;
const N_EPOCHS: u64 = 3;
// Must clear the segmenter's min_gap (two bit periods of the slowest
// plan rate = 1 000 samples here) with margin.
const GAP_SAMPLES: usize = 5_000;
const CHUNK: usize = 4096;

/// Two clean sensor tags at distinct rates — distinct rates give the
/// tags distinct identity keys, so the exactly-once check can attribute
/// every payload unambiguously.
fn overlap_scenario() -> Scenario {
    let tags = vec![
        ScenarioTag::sensor(10_000.0).with_payload_bits(32),
        ScenarioTag::sensor(5_000.0).with_payload_bits(32),
    ];
    let mut s = Scenario::paper_default(tags, 40_000).at_sample_rate(SampleRate::from_msps(2.5));
    s.seed = 0x5eed_0f1e;
    s.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0]).expect("valid plan");
    s.noise_sigma = 0.003;
    s
}

/// The transmitted payload multiset: (epoch, rate bits, payload bits)
/// for every complete frame in the ground truth.
fn expected_payloads(truths: &[Vec<TruthStream>]) -> Vec<(u64, u64, Vec<bool>)> {
    let mut out = Vec::new();
    for (epoch, streams) in truths.iter().enumerate() {
        for t in streams {
            for f in 0..t.frames_sent() {
                let start = f * t.frame_len + 1; // skip the anchor bit
                let payload: Vec<bool> =
                    (start..start + t.payload_bits).map(|i| t.bits[i]).collect();
                out.push((epoch as u64, t.rate_bps.to_bits(), payload));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn overlapping_readers_deliver_every_frame_exactly_once() {
    let scenario = overlap_scenario();
    let (sources, truths) = realized_sources(&scenario, N_READERS, N_EPOCHS, GAP_SAMPLES, CHUNK);
    let expected = expected_payloads(&truths);
    assert!(expected.len() >= 4, "scenario must transmit enough frames");

    let cfg = FleetConfig::for_decoder(
        &scenario.decoder_config(),
        FrameExtractor::for_scenario(&scenario),
    );
    let (fleet, mut subs) = FleetRuntime::spawn_decoder(
        sources,
        scenario.decoder_config(),
        &cfg,
        1,
        ObsContext::new(),
    );
    let sub = subs.remove(0);

    let mut delivered = Vec::new();
    let mut ids = HashSet::new();
    while let Some(frame) = sub.recv() {
        assert!(
            ids.insert(frame.id),
            "frame id delivered twice: {:?}",
            frame.id
        );
        let payload: Vec<bool> = frame.payload.iter().collect();
        delivered.push((frame.epoch_ordinal, frame.rate_bps.to_bits(), payload));
    }
    let report = fleet.join();

    // Zero losses, zero duplicates: the delivered multiset is exactly
    // the transmitted multiset.
    delivered.sort();
    assert_eq!(
        delivered, expected,
        "delivered payloads must match ground truth exactly once each"
    );

    // The overlap is real: every frame was decoded by at least two of
    // the three readers, and the surplus decodes were all suppressed.
    assert_eq!(report.provenance.len(), expected.len());
    for p in &report.provenance {
        assert!(
            p.seen_by.len() >= 2,
            "frame {:?} seen by only {:?}",
            p.id,
            p.seen_by
        );
        assert_eq!(p.seen_by[0], p.winner, "winner claims first");
    }
    assert_eq!(report.stats.frames_delivered, expected.len() as u64);
    let surplus: u64 = report
        .provenance
        .iter()
        .map(|p| p.seen_by.len() as u64 - 1)
        .sum();
    assert_eq!(
        report.stats.duplicates_suppressed, surplus,
        "every non-winning decode is counted as a suppressed duplicate"
    );
    assert!(
        surplus > 0,
        "three overlapping readers must produce duplicates"
    );

    // All three readers pulled their weight.
    assert_eq!(report.stats.per_reader.len(), N_READERS);
    for (k, r) in report.stats.per_reader.iter().enumerate() {
        assert!(r.frames_seen > 0, "reader {k} decoded nothing");
    }
    assert_eq!(report.per_reader.len(), N_READERS);
    for stats in &report.per_reader {
        assert_eq!(stats.epochs_out, N_EPOCHS);
        assert_eq!(stats.epochs_dropped, 0);
        assert_eq!(stats.faults, 0);
    }
}

/// Feeds the ground-truth frame multiset into a ledger as expectations.
fn expect_ground_truth(ledger: &TagLedger, expected: &[(u64, u64, Vec<bool>)]) {
    for (epoch, rate_bits, _payload) in expected {
        ledger.expect(*epoch, *rate_bits, 1);
    }
}

/// Conservation on a lossy run: with noise high enough to cost frames,
/// every miss must land in a named attribution cell — `unattributed`
/// stays zero because every (reader, epoch) got an outcome.
#[test]
fn lossy_fleet_ledger_conserves_with_zero_unattributed() {
    let mut scenario = overlap_scenario();
    scenario.noise_sigma = 0.05; // deliberately lossy
    let (sources, truths) = realized_sources(&scenario, N_READERS, N_EPOCHS, GAP_SAMPLES, CHUNK);
    let expected = expected_payloads(&truths);

    let ledger = Arc::new(TagLedger::new());
    let flight = Arc::new(FlightRecorder::new(64));
    expect_ground_truth(&ledger, &expected);
    let mut cfg = FleetConfig::for_decoder(
        &scenario.decoder_config(),
        FrameExtractor::for_scenario(&scenario),
    );
    cfg.reader.diag.ledger = Some(Arc::clone(&ledger));
    cfg.reader.diag.flight = Some(Arc::clone(&flight));
    cfg.min_delivery_ratio = Some(1.0 + f64::EPSILON); // any miss triggers

    let (fleet, mut subs) = FleetRuntime::spawn_decoder(
        sources,
        scenario.decoder_config(),
        &cfg,
        1,
        ObsContext::new(),
    );
    let sub = subs.remove(0);
    while sub.recv().is_some() {}
    let report = fleet.join();

    let summary = ledger.summary();
    assert_eq!(summary.readers, vec![0, 1, 2]);
    assert_eq!(summary.expected_total, expected.len() as u64);
    assert!(summary.conserved(), "conservation violated: {summary:?}");
    assert_eq!(
        summary.attribution.unattributed, 0,
        "every miss must be attributed to a stage: {:?}",
        summary.attribution
    );
    // Under this noise at least one reader misses at least one frame, so
    // the matrix is non-empty and names a real stage.
    let per_reader_expected = summary.expected_total * N_READERS as u64;
    assert!(
        summary.delivered_by_readers < per_reader_expected,
        "scenario not lossy enough to exercise attribution"
    );
    let (stage, count) = summary
        .attribution
        .top_stage()
        .expect("losses must be attributed");
    assert!(count > 0, "top stage {stage} has zero count");
    // The ledger's union view reconciles with the dedup registry.
    assert_eq!(summary.delivered_union, report.stats.unique_frames);
    // The delivery-ratio floor breached, so a black box was captured.
    assert!(
        !flight.triggers().is_empty(),
        "delivery-ratio breach must trigger the flight recorder"
    );
    assert!(flight.last_black_box().is_some());
    assert!(flight.recorded() >= N_READERS as u64 * N_EPOCHS);
}

/// Satellite invariant: splitting the fleet ledger into per-reader
/// ledgers and merging them back reproduces the aggregate exactly.
#[test]
fn per_reader_ledgers_merge_to_the_aggregate() {
    let scenario = overlap_scenario();
    let (sources, truths) = realized_sources(&scenario, N_READERS, N_EPOCHS, GAP_SAMPLES, CHUNK);
    let expected = expected_payloads(&truths);

    let ledger = Arc::new(TagLedger::new());
    expect_ground_truth(&ledger, &expected);
    let mut cfg = FleetConfig::for_decoder(
        &scenario.decoder_config(),
        FrameExtractor::for_scenario(&scenario),
    );
    cfg.reader.diag.ledger = Some(Arc::clone(&ledger));

    let (fleet, mut subs) = FleetRuntime::spawn_decoder(
        sources,
        scenario.decoder_config(),
        &cfg,
        1,
        ObsContext::new(),
    );
    let sub = subs.remove(0);
    while sub.recv().is_some() {}
    let report = fleet.join();

    let aggregate = ledger.summary();
    assert!(aggregate.conserved());
    assert_eq!(aggregate.attribution.unattributed, 0);
    // Clean run: the union of deliveries covers the whole ground truth.
    assert_eq!(aggregate.delivered_union, expected.len() as u64);
    assert_eq!(aggregate.delivered_union, report.stats.unique_frames);

    let merged = TagLedger::new();
    for reader in 0..N_READERS {
        merged.merge_from(&ledger.split_reader(reader));
    }
    assert_eq!(merged.summary(), aggregate);
    assert_eq!(merged.attribution(), ledger.attribution());
}

#[test]
fn fleet_metrics_reconcile_with_the_report() {
    let scenario = overlap_scenario();
    let (sources, _truths) = realized_sources(&scenario, 2, 2, GAP_SAMPLES, CHUNK);
    let cfg = FleetConfig::for_decoder(
        &scenario.decoder_config(),
        FrameExtractor::for_scenario(&scenario),
    );
    let obs = ObsContext::new();
    let (fleet, mut subs) =
        FleetRuntime::spawn_decoder(sources, scenario.decoder_config(), &cfg, 1, obs.clone());
    let sub = subs.remove(0);
    let mut received = 0u64;
    while sub.recv().is_some() {
        received += 1;
    }
    let report = fleet.join();

    assert_eq!(report.stats.frames_delivered, received);
    assert_eq!(report.stats.unique_frames, report.provenance.len() as u64);
    let wins: u64 = report.stats.per_reader.iter().map(|r| r.wins).sum();
    assert_eq!(
        wins, report.stats.frames_delivered,
        "every delivery has one winner"
    );
    let seen: u64 = report.stats.per_reader.iter().map(|r| r.frames_seen).sum();
    assert_eq!(
        seen,
        report.stats.frames_delivered + report.stats.duplicates_suppressed,
        "every decode is either a win or a suppressed duplicate"
    );

    // The same counters surface through the obs registry under fleet.*.
    let snapshot = obs.registry_snapshot();
    let counter = |name: &str| match snapshot.get(name) {
        Some(lf_obs::MetricValue::Counter(v)) => *v,
        other => panic!("missing counter {name}: {other:?}"),
    };
    assert_eq!(
        counter("fleet.frames_delivered"),
        report.stats.frames_delivered
    );
    assert_eq!(
        counter("fleet.duplicates_suppressed"),
        report.stats.duplicates_suppressed
    );
    assert_eq!(counter("fleet.epochs_decoded"), report.stats.epochs_decoded);
}
