//! Chrome trace-event export of the span ring.
//!
//! [`chrome_trace_json`] converts retained [`TraceRecord`]s into the
//! Trace Event Format that `chrome://tracing` and Perfetto load: span
//! exits become complete (`"ph":"X"`) events spanning `[enter, exit)`,
//! point events become instants (`"ph":"i"`). Each record carries the
//! per-thread trace id assigned at record time, so worker-pool spans land
//! on separate tracks instead of overlapping on one.
//!
//! The conventional hook is the `LF_OBS_TRACE` environment variable:
//! examples and report binaries call [`write_chrome_trace_env`] at exit,
//! and `LF_OBS_TRACE=trace.json cargo run --example fleet` drops a file
//! you can open in <https://ui.perfetto.dev> for a stage-timeline
//! flamegraph (one `pipeline.<stage>` span per stage execution, nested
//! under `pipeline.total`; an epoch whose carve re-ran the decode shows
//! folding through carve twice).

use crate::context::ObsContext;
use crate::trace::{RecordKind, TraceRecord};

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Microseconds with sub-µs precision, as Chrome's `ts`/`dur` expect.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders trace records as a Chrome Trace Event Format JSON document
/// (`{"traceEvents": [...]}`), loadable in Perfetto.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut events = Vec::with_capacity(records.len());
    for r in records {
        match &r.kind {
            // Enters are implied by the exit's (ts, dur) pair.
            RecordKind::SpanEnter => {}
            RecordKind::SpanExit { dur_ns } => {
                let start = r.nanos.saturating_sub(*dur_ns);
                events.push(format!(
                    "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{}}}",
                    json_str(&r.path),
                    micros(start),
                    micros(*dur_ns),
                    r.tid,
                ));
            }
            RecordKind::Event { level } => {
                let name = if r.message.is_empty() {
                    &r.path
                } else {
                    &r.message
                };
                events.push(format!(
                    "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                     \"pid\":0,\"tid\":{},\"args\":{{\"level\":\"{level}\"}}}}",
                    json_str(name),
                    micros(r.nanos),
                    r.tid,
                ));
            }
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n",
        events.join(",\n")
    )
}

/// If `LF_OBS_TRACE` names a file, writes `ctx`'s retained span ring
/// there as a Chrome trace and returns the path; `Ok(None)` when the
/// variable is unset or empty.
pub fn write_chrome_trace_env(ctx: &ObsContext) -> std::io::Result<Option<String>> {
    match std::env::var("LF_OBS_TRACE") {
        Ok(path) if !path.is_empty() => {
            std::fs::write(&path, chrome_trace_json(&ctx.recent_trace()))?;
            Ok(Some(path))
        }
        _ => Ok(None),
    }
}

/// Writes `ctx`'s retained span ring to `path` as a Chrome trace,
/// regardless of the environment.
pub fn write_chrome_trace(ctx: &ObsContext, path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(&ctx.recent_trace()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLevel;

    #[test]
    fn span_exits_become_complete_events() {
        let ctx = ObsContext::new();
        {
            let _g = ctx.install();
            let _total = crate::span!("pipeline.total");
            let _edges = crate::span!("pipeline.edges");
        }
        let json = chrome_trace_json(&ctx.recent_trace());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("pipeline.total.pipeline.edges"));
        // Two span exits → exactly two complete events, no enters leak.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn events_become_instants_with_level() {
        let ctx = ObsContext::new();
        {
            let _g = ctx.install();
            crate::event!(Warn, "stream unresolved");
        }
        let json = chrome_trace_json(&ctx.recent_trace());
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("stream unresolved"));
        assert!(json.contains(&format!("\"level\":\"{}\"", TraceLevel::Warn)));
    }

    #[test]
    fn start_time_never_underflows() {
        // A span whose duration exceeds its exit timestamp (possible on
        // a torn clock read) must clamp to ts=0, not wrap.
        let recs = vec![TraceRecord {
            seq: 0,
            nanos: 100,
            tid: 1,
            kind: RecordKind::SpanExit { dur_ns: 5_000 },
            path: "x".to_owned(),
            message: String::new(),
        }];
        let json = chrome_trace_json(&recs);
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":5.000"));
    }

    #[test]
    fn micros_keeps_sub_microsecond_precision() {
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000_000), "1000.000");
    }
}
