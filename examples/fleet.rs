//! A reader fleet end to end: three antennas observe independent
//! channel realizations of the same four-tag deployment, each runs its
//! own streaming runtime, and the fleet coordinator merges the decode
//! streams into a single exactly-once frame feed — clock-free,
//! content-addressed dedup, with full per-frame delivery provenance
//! (who saw it, whose copy won).
//!
//! Run with: `cargo run --release --example fleet`

use lf_backscatter::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four sensors at mixed rates, as in the streaming_reader example.
    let tags = vec![
        ScenarioTag::sensor(5_000.0)
            .with_payload_bits(16)
            .at_distance(2.0),
        ScenarioTag::sensor(10_000.0)
            .with_payload_bits(32)
            .at_distance(1.8),
        ScenarioTag::sensor(20_000.0)
            .with_payload_bits(32)
            .at_distance(1.6),
        ScenarioTag::sensor(40_000.0)
            .with_payload_bits(64)
            .at_distance(1.4),
    ];
    let mut scenario =
        Scenario::paper_default(tags, 50_000).at_sample_rate(SampleRate::from_msps(2.5));
    scenario.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 20_000.0, 40_000.0])?;
    let n_readers = 3;
    let n_epochs: u64 = 4;
    let gap_samples = 5_000;

    // Each reader antenna sees its own multipath/fading realization of
    // the same transmissions (same tag clocks, same payload bits).
    let (sources, truths) = realized_sources(&scenario, n_readers, n_epochs, gap_samples, 8_192);
    let frames_sent: usize = truths
        .iter()
        .flatten()
        .map(lf_backscatter::sim::score::TruthStream::frames_sent)
        .sum();
    println!("fleet: {n_readers} readers x {n_epochs} epochs, {frames_sent} frames on the air");

    let obs = ObsContext::new();
    // Diagnosis layer: a clock-free delivery ledger fed from ground
    // truth (expected) and the runtime (outcomes + deliveries), plus a
    // flight recorder holding the last epochs' vitals.
    let ledger = Arc::new(TagLedger::new());
    let flight = Arc::new(FlightRecorder::new(128));
    for (epoch, streams) in truths.iter().enumerate() {
        for t in streams {
            ledger.expect(epoch as u64, t.rate_bps.to_bits(), t.frames_sent() as u64);
        }
    }
    let mut cfg = FleetConfig::for_decoder(
        &scenario.decoder_config(),
        FrameExtractor::for_scenario(&scenario),
    );
    cfg.reader.diag.ledger = Some(Arc::clone(&ledger));
    cfg.reader.diag.flight = Some(Arc::clone(&flight));
    cfg.min_delivery_ratio = Some(0.5);
    let (fleet, mut subs) =
        FleetRuntime::spawn_decoder(sources, scenario.decoder_config(), &cfg, 1, obs.clone());
    let sub = subs.remove(0);

    // Drain the exactly-once feed.
    let mut per_epoch: BTreeMap<u64, usize> = BTreeMap::new();
    let mut delivered = 0usize;
    while let Some(frame) = sub.recv() {
        *per_epoch.entry(frame.epoch_ordinal).or_default() += 1;
        delivered += 1;
        println!(
            "frame {delivered:>2}: epoch {} @ {:>5} bps, {:>2} payload bits, won by reader {}",
            frame.epoch_ordinal,
            frame.rate_bps,
            frame.payload.len(),
            frame.winner.0,
        );
    }

    let report = fleet.join();
    println!();
    println!(
        "delivered {} frames exactly once; suppressed {} duplicate decodes",
        report.stats.frames_delivered, report.stats.duplicates_suppressed
    );
    for (k, r) in report.stats.per_reader.iter().enumerate() {
        println!(
            "  reader {k}: decoded {} frames, won delivery of {}",
            r.frames_seen, r.wins
        );
    }
    println!();
    println!("delivery provenance:");
    for p in &report.provenance {
        let seers: Vec<String> = p.seen_by.iter().map(|r| r.0.to_string()).collect();
        println!(
            "  epoch {} frame {:016x}: winner reader {}, seen by [{}]",
            p.epoch_ordinal,
            p.id.payload_digest,
            p.winner.0,
            seers.join(", "),
        );
    }

    // The fleet contract, asserted: at most one delivery per frame on
    // the air, high recovery on a busy four-tag deployment (individual
    // realizations drop some frames — the union recovers most), and
    // real redundancy behind the dedup numbers.
    assert_eq!(delivered as u64, report.stats.frames_delivered);
    assert!(
        delivered <= frames_sent,
        "exactly-once: never more deliveries than transmissions"
    );
    assert!(
        delivered * 5 >= frames_sent * 4,
        "fleet recovery regressed: {delivered}/{frames_sent} frames"
    );
    assert!(
        report.stats.duplicates_suppressed > 0,
        "overlapping readers must produce suppressed duplicates"
    );
    let multi_seen = report
        .provenance
        .iter()
        .filter(|p| p.seen_by.len() >= 2)
        .count();
    assert!(
        2 * multi_seen >= report.provenance.len(),
        "most frames should be decoded by several readers: {multi_seen}/{}",
        report.provenance.len()
    );
    assert_eq!(per_epoch.len(), n_epochs as usize, "every epoch delivered");

    // The fleet's registry view: aggregate + per-reader counters and the
    // dedup histograms, next to the shared decoder's pipeline metrics.
    let snap = obs.registry_snapshot();
    println!();
    println!("fleet metrics:");
    for m in &snap.metrics {
        if !m.name.starts_with("fleet.") {
            continue;
        }
        match &m.value {
            MetricValue::Counter(v) => println!("  {:<36} counter    {v}", m.name),
            MetricValue::Gauge(v) => println!("  {:<36} gauge      {v}", m.name),
            MetricValue::Histogram(h) => {
                println!("  {:<36} histogram  n={} max={}", m.name, h.count, h.max);
            }
        }
    }
    assert!(
        matches!(
            snap.get("fleet.dedup.seen_by"),
            Some(MetricValue::Histogram(h)) if h.count == report.provenance.len() as u64
        ),
        "seen-by histogram records every frame once"
    );

    // The delivery ledger: expected-vs-delivered per rate class, every
    // miss attributed to a pipeline stage, conservation checked.
    let summary = ledger.summary();
    println!();
    println!(
        "delivery ledger: {} expected, {} delivered (union), {} across readers",
        summary.expected_total, summary.delivered_union, summary.delivered_by_readers
    );
    for c in &summary.classes {
        println!(
            "  class {:>5} bps: {}/{} delivered ({:.0}%)",
            f64::from_bits(c.class),
            c.delivered_union,
            c.expected,
            100.0 * c.delivery_ratio()
        );
    }
    for (stage, count) in summary.attribution.by_stage() {
        println!("  missed at {stage}: {count}");
    }
    if summary.unexpected > 0 {
        // Deliveries ground truth never announced (e.g. a CRC false
        // accept on a misfolded stream) — the ledger carries them on the
        // surplus side of the conservation equation rather than hiding
        // them in a ratio.
        println!(
            "  surplus deliveries beyond ground truth: {}",
            summary.unexpected
        );
    }
    assert_eq!(
        summary.expected_total as usize, frames_sent,
        "ledger expectations must equal synthesis ground truth"
    );
    assert_eq!(
        summary.delivered_union, report.stats.frames_delivered,
        "ledger union deliveries must equal the exactly-once feed"
    );
    assert!(summary.conserved(), "ledger conservation violated");
    assert_eq!(
        summary.attribution.unattributed, 0,
        "every miss must be attributed to a stage"
    );
    println!(
        "flight recorder: {} epochs recorded, {} trigger(s)",
        flight.recorded(),
        flight.triggers().len()
    );

    // Optional Chrome trace export: LF_OBS_TRACE=trace.json loads the
    // decode spans (all six stages, per worker) in Perfetto.
    if let Some(path) = write_chrome_trace_env(&obs)? {
        println!("wrote Chrome trace to {path}");
    }
    Ok(())
}
