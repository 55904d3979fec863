//! The flight recorder: a bounded ring of recent per-epoch records that
//! dumps a self-contained JSON black box when something goes wrong.
//!
//! Runtimes push one [`FlightRecord`] per decoded/dropped/faulted epoch
//! (provenance summary, stage timings, queue depths at decode time) into
//! the ring; the ring retains the most recent `capacity` records and
//! forgets the rest. On a *trigger* — a delivery-ratio breach, a
//! contained worker panic — the recorder
//! serializes everything it holds, plus every trigger reason so far,
//! into one JSON string. The dump is a pure function of the recorded
//! data: feed the same records and reasons in the same order and the
//! black box is byte-identical (pinned by `same_records_same_black_box`),
//! which is what makes it diffable across runs of a seeded scenario.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default ring capacity (records, not bytes).
const DEFAULT_CAPACITY: usize = 256;

/// One epoch's worth of diagnosis context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Reader index the epoch belongs to.
    pub reader: usize,
    /// Epoch sequence number (the carrier-gap ordinal).
    pub seq: u64,
    /// How the epoch resolved: `"decoded"`, `"dropped"`, `"faulted"`.
    pub outcome: &'static str,
    /// The stage the epoch's provenance flagged, if any.
    pub failing_stage: Option<&'static str>,
    /// Streams tracked in the epoch.
    pub streams: usize,
    /// Edges detected in the epoch.
    pub edges: usize,
    /// Per-stage decode time in nanoseconds, pipeline order.
    pub stage_ns: Vec<(&'static str, u64)>,
    /// Job-queue depth when the record was taken.
    pub jobs_depth: usize,
    /// Result-queue depth when the record was taken.
    pub results_depth: usize,
    /// Free-form detail (fault message, provenance notes).
    pub detail: String,
}

#[derive(Debug, Default)]
struct FlightInner {
    ring: VecDeque<FlightRecord>,
    triggers: Vec<String>,
    last_dump: Option<String>,
    recorded: u64,
}

/// The bounded flight-recorder ring. Shared across worker threads via
/// `Arc`; all operations take one short-lived mutex.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<FlightInner>,
    capacity: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

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

impl FlightRecorder {
    /// A recorder retaining the `capacity` most recent records.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            inner: Mutex::new(FlightInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Appends one record, evicting the oldest once full.
    pub fn record(&self, rec: FlightRecord) {
        let mut inner = recover(self.inner.lock());
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(rec);
        inner.recorded += 1;
    }

    /// Fires a trigger: the reason is remembered, the black box is built
    /// from everything recorded so far, stored as the last dump, and
    /// returned.
    pub fn trigger(&self, reason: &str) -> String {
        let mut inner = recover(self.inner.lock());
        inner.triggers.push(reason.to_owned());
        let dump = Self::render(&inner);
        inner.last_dump = Some(dump.clone());
        dump
    }

    /// The black box from the most recent trigger, if any fired.
    pub fn last_black_box(&self) -> Option<String> {
        recover(self.inner.lock()).last_dump.clone()
    }

    /// Every trigger reason so far, in firing order.
    pub fn triggers(&self) -> Vec<String> {
        recover(self.inner.lock()).triggers.clone()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        recover(self.inner.lock()).ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever pushed (≥ what the ring still holds).
    pub fn recorded(&self) -> u64 {
        recover(self.inner.lock()).recorded
    }

    /// Builds the black box without firing a trigger (for end-of-run
    /// artifacts that want the ring contents regardless).
    pub fn dump(&self) -> String {
        Self::render(&recover(self.inner.lock()))
    }

    fn render(inner: &FlightInner) -> String {
        let mut out = String::with_capacity(256 + inner.ring.len() * 160);
        out.push_str("{\n  \"recorded\": ");
        out.push_str(&inner.recorded.to_string());
        out.push_str(",\n  \"retained\": ");
        out.push_str(&inner.ring.len().to_string());
        out.push_str(",\n  \"triggers\": [");
        for (i, t) in inner.triggers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(t));
        }
        out.push_str("],\n  \"records\": [\n");
        for (i, r) in inner.ring.iter().enumerate() {
            let stages: Vec<String> = r
                .stage_ns
                .iter()
                .map(|(name, ns)| format!("{}:{ns}", json_str(name)))
                .collect();
            out.push_str(&format!(
                "    {{\"reader\":{},\"seq\":{},\"outcome\":{},\"failing_stage\":{},\
                 \"streams\":{},\"edges\":{},\"stage_ns\":{{{}}},\
                 \"jobs_depth\":{},\"results_depth\":{},\"detail\":{}}}{}\n",
                r.reader,
                r.seq,
                json_str(r.outcome),
                r.failing_stage.map_or("null".to_owned(), json_str),
                r.streams,
                r.edges,
                stages.join(","),
                r.jobs_depth,
                r.results_depth,
                json_str(&r.detail),
                if i + 1 < inner.ring.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> FlightRecord {
        FlightRecord {
            reader: 0,
            seq,
            outcome: "decoded",
            failing_stage: if seq.is_multiple_of(3) {
                Some("collision-separation")
            } else {
                None
            },
            streams: 2,
            edges: 40 + seq as usize,
            stage_ns: vec![("edges", 100 + seq), ("folding", 200 + seq)],
            jobs_depth: 1,
            results_depth: 0,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let fr = FlightRecorder::new(3);
        for s in 0..7 {
            fr.record(rec(s));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.recorded(), 7);
        let dump = fr.dump();
        assert!(dump.contains("\"seq\":6"));
        assert!(!dump.contains("\"seq\":3"));
    }

    #[test]
    fn trigger_stores_and_returns_the_black_box() {
        let fr = FlightRecorder::new(8);
        fr.record(rec(0));
        assert!(fr.last_black_box().is_none());
        let dump = fr.trigger("worker-panic: reader 0 epoch 0");
        assert_eq!(fr.last_black_box(), Some(dump.clone()));
        assert!(dump.contains("worker-panic"));
        assert_eq!(fr.triggers(), vec!["worker-panic: reader 0 epoch 0"]);
    }

    #[test]
    fn black_box_is_valid_json_shaped() {
        let fr = FlightRecorder::new(8);
        fr.record(rec(0));
        fr.record(rec(1));
        let dump = fr.trigger("anomalous epoch \"quoted\"");
        assert!(dump.trim_start().starts_with('{'));
        assert!(dump.trim_end().ends_with('}'));
        assert!(dump.contains("\\\"quoted\\\""));
        assert!(dump.contains("\"failing_stage\":\"collision-separation\""));
        assert!(dump.contains("\"failing_stage\":null"));
        assert_eq!(
            dump.matches('{').count(),
            dump.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn same_records_same_black_box() {
        // The black box is a pure function of the recorded data: a
        // seeded scenario replayed twice must produce byte-identical
        // dumps (this is what makes black boxes diffable across runs).
        let build = |seed: u64| {
            let fr = FlightRecorder::new(16);
            let mut x = seed;
            for s in 0..12 {
                // SplitMix64 step: deterministic pseudo-random content.
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let mut r = rec(s);
                r.edges = (z % 500) as usize;
                r.stage_ns = vec![("edges", z % 10_000), ("decode", z % 7_000)];
                fr.record(r);
            }
            fr.trigger("delivery-ratio breach: class 5000bps at 0.62")
        };
        assert_eq!(build(0x5eed), build(0x5eed));
        assert_ne!(build(0x5eed), build(0x5eee));
    }
}
