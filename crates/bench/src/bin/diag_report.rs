//! `diag_report` — a machine-readable fleet diagnosis artifact.
//!
//! Runs a deliberately lossy multi-reader fleet over the standard CI
//! scenario with the full diagnosis layer wired in — the clock-free
//! [`TagLedger`] fed from synthesis ground truth, the [`FlightRecorder`]
//! black box, and the span trace — and writes one JSON report answering
//! the questions an operator asks first: *per rate class, what fraction
//! of frames on the air reached the subscriber, and which pipeline stage
//! ate the misses?*
//!
//! ```text
//! cargo run --release -p lf-bench --bin diag_report -- --label ci
//! # → DIAG_ci.json + trace.json
//! ```
//!
//! The report hard-fails (non-zero exit) when the ledger's conservation
//! invariant breaks or any miss goes unattributed — those mean the
//! diagnosis wiring itself regressed, and CI must not archive the
//! artifact as if it were a measurement.
//!
//! Normally invoked through `cargo xtask diag-report`.

use lf_fleet::{realized_sources, FleetConfig, FleetRuntime, FrameExtractor};
use lf_obs::{write_chrome_trace, FlightRecorder, ObsContext, TagLedger};
use lf_reader::{LatencySummary, RuntimeStats, StageLatencies};
use lf_sim::scenario::{Scenario, ScenarioTag};
use lf_types::{RatePlan, SampleRate};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    label: String,
    out: Option<String>,
    trace: String,
    readers: usize,
    epochs: u64,
    noise: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        label: "local".to_owned(),
        out: None,
        trace: "trace.json".to_owned(),
        readers: 3,
        epochs: 3,
        noise: 0.03,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |what: &str| it.next().ok_or_else(|| format!("{what} expects a value"));
        match flag.as_str() {
            "--label" => args.label = take("--label")?,
            "--out" => args.out = Some(take("--out")?),
            "--trace" => args.trace = take("--trace")?,
            "--readers" => {
                args.readers = take("--readers")?
                    .parse()
                    .map_err(|e| format!("--readers: {e}"))?;
            }
            "--epochs" => {
                args.epochs = take("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?;
            }
            "--noise" => {
                args.noise = take("--noise")?
                    .parse()
                    .map_err(|e| format!("--noise: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.readers == 0 || args.epochs == 0 {
        return Err("--readers and --epochs must be ≥ 1".into());
    }
    Ok(args)
}

/// The standard diagnosis scenario: two sensor tags at harmonically
/// distinct rates (distinct rates ⇒ distinct ledger classes) under
/// adjustable noise. The default `--noise 0.03` is chosen to lose
/// *some* frames (not all) so the attribution matrix is non-trivial and
/// the per-class ratios are interior points, not 0 or 1.
fn diag_scenario(noise: f64) -> Result<Scenario, String> {
    let tags = vec![
        ScenarioTag::sensor(10_000.0).with_payload_bits(32),
        ScenarioTag::sensor(5_000.0).with_payload_bits(32),
    ];
    let mut s = Scenario::paper_default(tags, 40_000).at_sample_rate(SampleRate::from_msps(2.5));
    s.seed = 0x5eed_0f1e;
    s.rate_plan =
        RatePlan::from_bps(100.0, &[5_000.0, 10_000.0]).map_err(|e| format!("rate plan: {e}"))?;
    s.noise_sigma = noise;
    Ok(s)
}

/// Per-stage p99 exemplars from the readers' latency rings: for each
/// stage (and the whole-epoch total), the reader with the slowest p99 and
/// the exact `(epoch seq, rate class)` at that reader's p99 rank.
fn exemplar_json(per_reader: &[RuntimeStats]) -> String {
    let pick = |stage: &str, lat: &StageLatencies| -> Option<LatencySummary> {
        if stage == "total" {
            Some(lat.total)
        } else {
            lat.get(stage)
        }
    };
    StageLatencies::names()
        .into_iter()
        .chain(std::iter::once("total"))
        .filter_map(|stage| {
            let (reader, summary) = per_reader
                .iter()
                .enumerate()
                .filter_map(|(k, s)| pick(stage, &s.latency).map(|l| (k, l)))
                .max_by_key(|(_, l)| l.p99)?;
            let (seq, class) = summary.p99_epoch?;
            Some(format!(
                "{{\"stage\":\"{stage}\",\"p99_ns\":{},\"epoch\":{seq},\
                 \"class_bps\":{},\"reader\":{reader}}}",
                summary.p99.as_nanos(),
                f64::from_bits(class),
            ))
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diag_report: {e}");
            eprintln!(
                "usage: diag_report [--label L] [--out FILE] [--trace FILE] \
                 [--readers N] [--epochs N] [--noise SIGMA]"
            );
            return ExitCode::from(2);
        }
    };

    let scenario = match diag_scenario(args.noise) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("diag_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let decoder_cfg = scenario.decoder_config();
    let gap_samples =
        (5.0 * scenario.sample_rate.sps() / scenario.rate_plan.min_bps()).ceil() as usize;

    let (sources, truths) =
        realized_sources(&scenario, args.readers, args.epochs, gap_samples, 8_192);

    // Ground truth → ledger expectations: every complete frame on the
    // air, keyed by (carrier-gap epoch ordinal, rate class).
    let ledger = Arc::new(TagLedger::new());
    let flight = Arc::new(FlightRecorder::new(128));
    for (epoch, streams) in truths.iter().enumerate() {
        for t in streams {
            ledger.expect(epoch as u64, t.rate_bps.to_bits(), t.frames_sent() as u64);
        }
    }

    let obs = ObsContext::new();
    let mut cfg = FleetConfig::for_decoder(&decoder_cfg, FrameExtractor::for_scenario(&scenario));
    cfg.reader.diag.ledger = Some(Arc::clone(&ledger));
    cfg.reader.diag.flight = Some(Arc::clone(&flight));
    // Any class below full delivery trips the black box.
    cfg.min_delivery_ratio = Some(1.0);

    let (fleet, mut subs) =
        FleetRuntime::spawn_decoder(sources, decoder_cfg.clone(), &cfg, 1, obs.clone());
    let sub = subs.remove(0);
    while sub.recv().is_some() {}
    let report = fleet.join();

    let summary = ledger.summary();
    // Wiring guards: a violated conservation equation or an unattributed
    // miss means the diagnosis layer itself is broken — refuse to emit.
    if !summary.conserved() {
        eprintln!("diag_report: ledger conservation violated: {summary:?}");
        return ExitCode::FAILURE;
    }
    if summary.attribution.unattributed != 0 {
        eprintln!(
            "diag_report: {} unattributed misses (wiring gap): {:?}",
            summary.attribution.unattributed, summary.attribution
        );
        return ExitCode::FAILURE;
    }
    if summary.expected_total == 0 || summary.delivered_union != report.stats.unique_frames {
        eprintln!(
            "diag_report: hollow run: {} expected, ledger union {} vs fleet {}",
            summary.expected_total, summary.delivered_union, report.stats.unique_frames
        );
        return ExitCode::FAILURE;
    }

    let classes = summary
        .classes
        .iter()
        .map(|c| {
            format!(
                "{{\"class_bps\":{},\"expected\":{},\"delivered_union\":{},\
                 \"delivered_by_readers\":{},\"delivery_ratio\":{:.4}}}",
                f64::from_bits(c.class),
                c.expected,
                c.delivered_union,
                c.delivered_by_readers,
                c.delivery_ratio(),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let by_stage = summary
        .attribution
        .by_stage()
        .into_iter()
        .map(|(stage, count)| format!("{{\"stage\":\"{stage}\",\"misses\":{count}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let top_stage = summary
        .attribution
        .top_stage()
        .map_or("null".to_owned(), |(stage, count)| {
            format!("{{\"stage\":\"{stage}\",\"misses\":{count}}}")
        });
    let triggers = flight
        .triggers()
        .iter()
        .map(|t| format!("\"{}\"", t.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect::<Vec<_>>()
        .join(",");

    let json = format!(
        "{{\n\
         \"label\":\"{label}\",\n\
         \"scenario\":{{\"readers\":{readers},\"epochs\":{epochs},\
         \"noise_sigma\":{noise},\"tags\":2}},\n\
         \"ledger\":{{\"expected_total\":{expected},\"delivered_union\":{union},\
         \"delivered_by_readers\":{byr},\"unexpected\":{unexpected},\
         \"conserved\":true,\"classes\":[{classes}]}},\n\
         \"attribution\":{{\"unattributed\":0,\"attributed_total\":{attr_total},\
         \"top_stage\":{top_stage},\"by_stage\":[{by_stage}]}},\n\
         \"exemplars\":[{exemplars}],\n\
         \"flight\":{{\"recorded\":{recorded},\"retained\":{retained},\
         \"triggers\":[{triggers}]}}\n\
         }}\n",
        label = args.label,
        readers = args.readers,
        epochs = args.epochs,
        noise = args.noise,
        expected = summary.expected_total,
        union = summary.delivered_union,
        byr = summary.delivered_by_readers,
        unexpected = summary.unexpected,
        attr_total = summary.attribution.attributed_total(),
        exemplars = exemplar_json(&report.per_reader),
        recorded = flight.recorded(),
        retained = flight.len(),
    );

    let out = args
        .out
        .unwrap_or_else(|| format!("DIAG_{}.json", args.label));
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("diag_report: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_chrome_trace(&obs, &args.trace) {
        eprintln!("diag_report: write {}: {e}", args.trace);
        return ExitCode::FAILURE;
    }
    let ratio = summary.delivered_union as f64 / summary.expected_total as f64;
    println!(
        "diag_report: {out} + {} ({}/{} frames delivered, {:.0}% union ratio, \
         {} trigger(s))",
        args.trace,
        summary.delivered_union,
        summary.expected_total,
        ratio * 100.0,
        flight.triggers().len(),
    );
    ExitCode::SUCCESS
}
