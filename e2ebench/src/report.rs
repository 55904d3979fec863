//! JSON output: one detail line (fingerprint, rounds, per-metric spread)
//! and the result line, which is always the last line of standard output.

use crate::fingerprint::Fingerprint;
use crate::run::{Metric, Options, Outcome};
use std::fmt::Write as _;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never a valid result) print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn metric_detail(m: &Metric) -> String {
    let mut s = format!(
        "{}: {{\"value\": {}, \"unit\": {}",
        json_str(&m.name),
        json_num(m.value),
        json_str(m.unit)
    );
    if let Some(n) = m.samples {
        let _ = write!(s, ", \"samples\": {n}");
    }
    if let Some(q) = m.quantile {
        let _ = write!(s, ", \"quantile\": {}", json_num(q));
    }
    if let Some(sp) = &m.spread {
        let _ = write!(
            s,
            ", \"rounds\": {{\"median\": {}, \"min\": {}, \"max\": {}, \"iqr_ratio\": {}}}",
            json_num(sp.median),
            json_num(sp.min),
            json_num(sp.max),
            json_num(sp.iqr_ratio)
        );
    }
    s.push('}');
    s
}

/// The detail line: what ran, where, each round, every metric's sample
/// count, tail quantile and spread across rounds, and failed checks.
pub fn detail_line(opts: &Options, fp: &Fingerprint, outcome: &Outcome) -> String {
    let rounds = outcome
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"traced\": {}, \"setup_s\": {}, \"epochs\": {}, \"input_msps\": {}, \
                 \"frames_sent\": {}, \"frames_matched\": {}, \"frames_unmatched\": {}, \
                 \"heap_growth_mib\": {}, \"input_digest\": \"{:016x}\"}}",
                r.traced,
                json_num(r.setup_s),
                r.epochs,
                json_num(r.input_msps),
                r.frames_sent,
                r.frames_matched,
                r.frames_unmatched,
                json_num(r.heap_growth_mib),
                r.digest
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let metrics = outcome
        .metrics
        .iter()
        .map(metric_detail)
        .collect::<Vec<_>>()
        .join(", ");
    let failures = outcome
        .failures
        .iter()
        .map(|f| json_str(f))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"e2ebench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"fingerprint\": {{\"cpu\": {}, \"simd\": {}, \"nproc\": {}, \"workers_per_reader\": {}, \
         \"rustc\": {}, \"profile\": {}}}, \"vm_hwm_growth_mib\": {}, \"rounds\": [{rounds}], \
         \"metrics\": {{{metrics}}}, \
         \"failures\": [{failures}]}}}}",
        json_str(opts.workload.name()),
        opts.seed,
        json_num(opts.seconds),
        u8::from(opts.trace),
        json_str(&fp.cpu),
        json_str(&fp.simd),
        fp.nproc,
        outcome.workers,
        json_str(&fp.rustc),
        json_str(&fp.profile),
        json_num(outcome.vm_hwm_growth_mib),
    )
}
