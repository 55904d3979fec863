//! The streaming reader runtime end to end: a live IQ stream is
//! segmented into epochs online, decoded by a worker pool, and delivered
//! in order while the main thread polls live runtime statistics —
//! throughput counters, queue depths, and per-stage decode latency
//! percentiles. The runtime and the decoder share one [`ObsContext`], so
//! the final report is a full metrics-registry snapshot: `reader.*`
//! runtime counters next to `pipeline.*` stage latency histograms.
//!
//! Run with: `cargo run --release --example streaming_reader`
//!
//! Set `LF_OBS_EXPORT=snapshot.prom` to additionally write the snapshot
//! in Prometheus text exposition format (CI archives this artifact).

use lf_backscatter::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four sensors at mixed rates — the laissez-faire deployment.
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
    // 20 ms epochs at 2.5 Msps, separated by 2 ms carrier-off gaps.
    let mut scenario =
        Scenario::paper_default(tags, 50_000).at_sample_rate(SampleRate::from_msps(2.5));
    scenario.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 20_000.0, 40_000.0])?;
    let n_epochs: u64 = 6;
    let gap_samples = 5_000;

    // The source hands the ingest thread 8 KiB chunks, the shape of an
    // SDR front end delivering one DMA buffer at a time.
    let decoder_cfg = scenario.decoder_config();
    let (source, truths) = ScenarioSource::new(scenario, n_epochs, gap_samples, 8_192);

    let mut cfg = RuntimeConfig::for_decoder(&decoder_cfg);
    cfg.backpressure = Backpressure::Block; // offline replay: lose nothing
    println!(
        "streaming {n_epochs} epochs through {} decode worker(s), \
         job queue {}, policy {:?}",
        cfg.workers, cfg.job_queue, cfg.backpressure
    );
    // One observability context spans the whole stack: the decoder
    // records pipeline stage spans and metrics into the same registry
    // the runtime's counters and queue-depth gauges live in.
    let obs = ObsContext::new();
    let decoder = Arc::new(Decoder::with_obs(decoder_cfg, obs.clone()));
    let mut runtime = ReaderRuntime::spawn_with_obs(source, decoder, &cfg, obs.clone());

    // Consume reports in epoch order, polling stats as they stream past.
    let mut frames_ok = 0usize;
    let mut frames_sent = 0usize;
    while let Some(report) = runtime.recv() {
        match &report.result {
            EpochResult::Decoded { decode, timings } => {
                let scores = truths.score_report(&report).unwrap_or_default();
                let ok: usize = scores.iter().map(|s| s.frames_ok).sum();
                let sent: usize = scores.iter().map(|s| s.frames_sent).sum();
                frames_ok += ok;
                frames_sent += sent;
                println!(
                    "epoch {} [{:>7}..{:>7}]: {} streams, {ok}/{sent} frames, decoded in {:.1} ms",
                    report.seq,
                    report.range.start,
                    report.range.end,
                    decode.streams.len(),
                    timings.total.as_secs_f64() * 1e3,
                );
            }
            EpochResult::Dropped => println!("epoch {} shed by backpressure", report.seq),
            EpochResult::Faulted { message } => {
                println!("epoch {} faulted: {message}", report.seq);
            }
        }
        let s = runtime.stats();
        println!(
            "   live: in {} / out {} / dropped {}, queues {}+{}, \
             decode p50 {:.1} ms p99 {:.1} ms",
            s.epochs_in,
            s.epochs_out,
            s.epochs_dropped,
            s.job_queue_depth,
            s.result_queue_depth,
            s.latency.total.p50.as_secs_f64() * 1e3,
            s.latency.total.p99.as_secs_f64() * 1e3,
        );
    }

    let final_stats = runtime.join();
    println!();
    println!(
        "session: {} samples in {} chunks -> {} epochs, {} faults, {} forced splits",
        final_stats.samples_in,
        final_stats.chunks_in,
        final_stats.epochs_out,
        final_stats.faults,
        final_stats.forced_splits,
    );
    // Stage names come from the decoder: a stage added to lf-core shows
    // up in this report without the example changing.
    let per_stage = final_stats
        .latency
        .iter()
        .map(|(name, s)| format!("{name} {:.2} ms", s.p50.as_secs_f64() * 1e3))
        .collect::<Vec<_>>()
        .join(", ");
    println!("per-stage decode p50: {per_stage}");
    println!("frames recovered: {frames_ok}/{frames_sent}");
    assert_eq!(
        final_stats.epochs_out, n_epochs,
        "offline replay loses nothing"
    );
    assert!(frames_ok > 0, "the stream must carry decodable frames");

    // The registry snapshot: every named metric the session recorded,
    // runtime counters and pipeline stage histograms side by side.
    let snap = obs.registry_snapshot();
    println!();
    println!("metrics registry ({} metrics):", snap.metrics.len());
    for m in &snap.metrics {
        match &m.value {
            MetricValue::Counter(v) => println!("  {:<32} counter    {v}", m.name),
            MetricValue::Gauge(v) => println!("  {:<32} gauge      {v}", m.name),
            MetricValue::Histogram(h) => {
                let q = |p: f64| h.quantile(p).unwrap_or(0) as f64 / 1e6;
                println!(
                    "  {:<32} histogram  n={} p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms",
                    m.name,
                    h.count,
                    q(0.5),
                    q(0.9),
                    q(0.99),
                    h.max as f64 / 1e6,
                );
            }
        }
    }
    assert!(
        snap.metrics.len() >= 10,
        "instrumentation regressed: only {} registry metrics",
        snap.metrics.len()
    );
    for stage in StageTimings::names().into_iter().chain(["total"]) {
        let name = format!("pipeline.stage.{stage}.ns");
        assert!(
            matches!(snap.get(&name), Some(MetricValue::Histogram(h)) if h.count > 0),
            "stage histogram {name} missing or empty"
        );
    }

    if let Ok(path) = std::env::var("LF_OBS_EXPORT") {
        std::fs::write(&path, snap.to_prometheus())?;
        println!("wrote Prometheus snapshot to {path}");
    }
    Ok(())
}
