//! Mixed-rate sensor streaming — the paper's §1 motivating deployment,
//! decoded live by the `lf-reader` streaming runtime.
//!
//! A battery-less temperature sensor trickles 16-bit samples at 500 bps
//! next to data-rich sensors streaming at 10–20 kbps. Under TDMA the slow
//! sensor would need buffers and a fast clock (power it cannot afford);
//! under LF-Backscatter every device transmits at its natural rate and
//! the reader sorts it out — and the slow sensor loses nothing (§5.1,
//! Fig. 11). The reader here is the real runtime: the session arrives as
//! a chunked IQ stream, epochs are found online at the carrier-off gaps,
//! and a worker pool decodes them while ingestion continues.
//!
//! Run with: `cargo run --release --example sensor_streaming`

use lf_backscatter::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tags = vec![
        // The battery-less temperature sensor: 500 bps, 16-bit readings.
        ScenarioTag::sensor(500.0)
            .with_payload_bits(16)
            .at_distance(2.2),
        // A microphone feature stream.
        ScenarioTag::sensor(10_000.0)
            .with_payload_bits(96)
            .at_distance(1.8),
        // A camera metadata stream.
        ScenarioTag::sensor(20_000.0)
            .with_payload_bits(96)
            .at_distance(1.6),
    ];
    // 100 ms epoch so the slow sensor fits a frame.
    let mut scenario =
        Scenario::paper_default(tags, 250_000).at_sample_rate(SampleRate::from_msps(2.5));
    scenario.rate_plan = RatePlan::from_bps(100.0, &[500.0, 10_000.0, 20_000.0])?;
    // A channel realization where the three sensors coexist cleanly (the
    // workspace default draw puts the microphone tag in a deep collision;
    // robustness *under* collisions is what the Fig. 9–12 experiments
    // measure — this example demonstrates the deployment, not the tail).
    scenario.seed = 0x1f2e_a37b;

    // The tag designs this enables (§3.6 / Table 3):
    let hw = HardwareInventory::lf_backscatter();
    let power = PowerModel::default();
    println!(
        "tag logic: {} transistors ({} components), no receive path",
        hw.logic_transistors(),
        hw.components.len()
    );
    println!(
        "temperature sensor radio power @500 bps: {:.2} uW (battery-less territory)",
        power.tag_power_w(Protocol::LfBackscatter, 500.0) * 1e6
    );
    println!(
        "camera-stream radio power @20 kbps: {:.1} uW",
        power.tag_power_w(Protocol::LfBackscatter, 20_000.0) * 1e6
    );
    println!();

    // Stream the session: 3 epochs separated by 10 ms carrier-off gaps
    // (the 500 bps sensor's bit lasts 2 ms, so the gap detector needs
    // well more than one of those — see SegmenterConfig::from_decoder),
    // delivered in 8 KiB chunks to the ingest thread.
    let epochs: u64 = 3;
    let n_tags = scenario.tags.len();
    let epoch_secs = scenario.epoch_secs();
    let rates: Vec<f64> = scenario.tags.iter().map(|t| t.rate_bps).collect();
    let decoder_cfg = scenario.decoder_config();
    let (source, truths) = ScenarioSource::new(scenario, epochs, 25_000, 8_192);
    let mut runtime = ReaderRuntime::spawn(
        source,
        Arc::new(Decoder::new(decoder_cfg.clone())),
        &RuntimeConfig::for_decoder(&decoder_cfg),
    );

    let mut totals = vec![(0usize, 0usize); n_tags];
    while let Some(report) = runtime.recv() {
        let scores = truths
            .score_report(&report)
            .ok_or("epoch was not decoded")?;
        for (t, s) in totals.iter_mut().zip(&scores) {
            t.0 += s.frames_ok;
            t.1 += s.frames_sent;
        }
    }
    let stats = runtime.join();
    assert_eq!(stats.epochs_out, epochs, "every epoch must be delivered");
    assert_eq!(stats.epochs_dropped, 0, "block policy loses nothing");

    // Where the decode time went, stage by stage (names straight from
    // the decoder's `StageTimings::names`).
    let per_stage = stats
        .latency
        .iter()
        .map(|(name, s)| format!("{name} {:.2} ms", s.p50.as_secs_f64() * 1e3))
        .collect::<Vec<_>>()
        .join(", ");
    println!("per-stage decode p50: {per_stage}");

    println!("over {epochs} epochs of {:.0} ms:", epoch_secs * 1e3);
    for (i, (ok, sent)) in totals.iter().enumerate() {
        let rate = rates[i];
        println!(
            "  {:>6.0} bps sensor: {ok}/{sent} frames delivered ({:.0}% )",
            rate,
            100.0 * *ok as f64 / (*sent).max(1) as f64
        );
    }
    let (slow_ok, slow_sent) = totals[0];
    assert_eq!(
        slow_ok, slow_sent,
        "the slow sensor must lose nothing (Fig. 11)"
    );
    println!("ok: the 500 bps battery-less sensor was never harmed by the fast streams.");

    Ok(())
}
