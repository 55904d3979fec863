//! `bench_report` — a machine-readable decode benchmark.
//!
//! Decodes the standard 8-tag capture repeatedly through an instrumented
//! [`Decoder`] and writes one JSON report: end-to-end decode throughput
//! plus the per-stage latency histograms the pipeline recorded into its
//! [`ObsContext`] registry. Unlike the Criterion benches (which are for
//! interactive regression hunting), the output here is a single stable
//! artifact a CI run can archive and diff:
//!
//! ```text
//! cargo run --release -p lf-bench --bin bench_report -- --label ci
//! # → BENCH_ci.json
//! ```
//!
//! Normally invoked through `cargo xtask bench-report`.

use lf_bench::standard_fixture;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::{Decoder, StageTimings};
use lf_core::DecodeScratch;
use lf_obs::{MetricValue, ObsContext, Snapshot};
use lf_sim::experiments::Scale;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    label: String,
    out: Option<String>,
    epochs: usize,
    tags: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        label: "local".to_owned(),
        out: None,
        epochs: 32,
        tags: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |what: &str| it.next().ok_or_else(|| format!("{what} expects a value"));
        match flag.as_str() {
            "--label" => args.label = take("--label")?,
            "--out" => args.out = Some(take("--out")?),
            "--epochs" => {
                args.epochs = take("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?;
            }
            "--tags" => {
                args.tags = take("--tags")?
                    .parse()
                    .map_err(|e| format!("--tags: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.epochs == 0 {
        return Err("--epochs must be ≥ 1".into());
    }
    Ok(args)
}

/// One stage histogram as a JSON object fragment (`{}` when the stage
/// never recorded — e.g. a stage disabled by configuration).
fn stage_json(snap: &Snapshot, metric: &str) -> String {
    let Some(MetricValue::Histogram(h)) = snap.get(metric) else {
        return "{}".to_owned();
    };
    let q = |p: f64| h.quantile(p).unwrap_or(0);
    format!(
        "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\
         \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
        h.count,
        h.sum,
        if h.count == 0 { 0 } else { h.min },
        h.max,
        q(0.5),
        q(0.9),
        q(0.99),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_report: {e}");
            eprintln!("usage: bench_report [--label L] [--out FILE] [--epochs N] [--tags N]");
            return ExitCode::from(2);
        }
    };

    let fix = standard_fixture(Scale::Quick, args.tags, 1);
    let mut cfg = DecoderConfig::at_sample_rate(fix.scenario.sample_rate);
    cfg.rate_plan = fix.scenario.rate_plan.clone();
    let obs = ObsContext::new();
    let decoder = Decoder::with_obs(cfg, obs.clone());
    // One scratch for every decode, as a reader worker holds one.
    let mut scratch = DecodeScratch::default();

    // One warm-up decode outside the timed window (page-in, allocator,
    // scratch buffers).
    let _ = decoder.decode_timed_with(&fix.signal, &mut scratch);
    let warm = obs.registry_snapshot();

    let t0 = Instant::now();
    let mut streams_decoded = 0usize;
    for _ in 0..args.epochs {
        let (decode, _) = decoder.decode_timed_with(&fix.signal, &mut scratch);
        streams_decoded += decode.streams.len();
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let snap = obs.registry_snapshot();

    let samples_total = args.epochs * fix.signal.len();
    // Stage keys come from the decoder's own stage names, so the report
    // tracks the pipeline's actual shape; "total" is the whole-epoch histogram.
    let stages = StageTimings::names()
        .into_iter()
        .chain(std::iter::once("total"))
        .map(|s| {
            format!(
                "\"{s}\":{}",
                stage_json(&snap, &format!("pipeline.stage.{s}.ns"))
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let report = format!(
        "{{\n\
         \"label\":\"{label}\",\n\
         \"scenario\":{{\"tags\":{tags},\"samples_per_epoch\":{spe},\"epochs\":{epochs}}},\n\
         \"elapsed_s\":{elapsed:.6},\n\
         \"throughput\":{{\"epochs_per_s\":{eps:.3},\"msamples_per_s\":{msps:.3},\
         \"streams_per_epoch\":{sperep:.3}}},\n\
         \"stage_latency\":{{{stages}}},\n\
         \"registry_metrics\":{nmetrics}\n\
         }}\n",
        label = args.label,
        tags = args.tags,
        spe = fix.signal.len(),
        epochs = args.epochs,
        eps = args.epochs as f64 / elapsed,
        msps = samples_total as f64 / elapsed / 1e6,
        sperep = streams_decoded as f64 / args.epochs as f64,
        nmetrics = snap.metrics.len(),
    );

    // The warm-up must have populated the stage histograms; catching this
    // here keeps CI from archiving a hollow report.
    if warm.get("pipeline.stage.total.ns").is_none() {
        eprintln!("bench_report: decoder recorded no stage histograms");
        return ExitCode::FAILURE;
    }

    let out = args
        .out
        .unwrap_or_else(|| format!("BENCH_{}.json", args.label));
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("bench_report: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "bench_report: {out} ({:.1} epochs/s)",
        args.epochs as f64 / elapsed
    );
    ExitCode::SUCCESS
}
