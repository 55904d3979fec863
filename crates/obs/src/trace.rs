//! Lightweight span/event tracing.
//!
//! A [`SpanGuard`] marks a region of work (a pipeline stage, a DSP
//! kernel); an event is a point annotation inside whatever span is
//! current. Both record into the active [`crate::ObsContext`]'s ring
//! sink — a fixed-capacity buffer of the most recent records, written
//! with one atomic cursor bump plus a per-slot lock (writers only ever
//! contend when wrapping onto the *same* slot, which at 4096 slots means
//! never in practice — "lock-free enough").
//!
//! The context is carried in a thread local, installed by
//! [`crate::ObsContext::install`]: deep callees (`lf_dsp::kmeans`, the
//! Viterbi decoder) trace without threading a handle through every
//! signature, and code running with no context installed pays one
//! thread-local read per span — the disabled path is branch-predictable
//! nothing.
//!
//! Span nesting is tracked per thread: each record carries the dotted
//! path of open spans (`pipeline.separation.dsp.kmeans`). A span opened
//! with [`crate::span!`] times itself and also records its duration into
//! the registry histogram `span.<name>.ns`. A span opened with
//! [`SpanGuard::enter_measured`] is timed by its caller instead: it reads
//! no clock and feeds no histogram, and its exit record carries the
//! duration handed to [`SpanGuard::exit`]. The decode runner in
//! `lf_core` opens its `pipeline.<stage>` and `pipeline.total` spans that
//! way, so the trace ring carries exactly the durations the
//! runner's one stopwatch measured and the stage latencies have a single
//! histogram family (`pipeline.stage.*`). The span tree still mirrors the
//! pipeline's real shape.

use crate::context::ObsContext;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Severity of an event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Diagnostic detail (candidate rejections, fallback paths).
    Debug,
    /// Normal milestones (stream accepted, collision separated).
    Info,
    /// Anomalies worth surfacing (unresolved stream, fault contained).
    Warn,
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceLevel::Debug => "debug",
            TraceLevel::Info => "info",
            TraceLevel::Warn => "warn",
        })
    }
}

/// What a trace record marks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened.
    SpanEnter,
    /// A span closed, with its wall-clock duration.
    SpanExit {
        /// Nanoseconds between enter and exit.
        dur_ns: u64,
    },
    /// A point event at some level.
    Event {
        /// The event's severity.
        level: TraceLevel,
    },
}

/// One record in the ring sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global sequence number (monotone across threads).
    pub seq: u64,
    /// Nanoseconds since the context was created.
    pub nanos: u64,
    /// Trace id of the recording thread (a small monotone id, stable for
    /// the thread's lifetime) — what keeps worker-pool spans on separate
    /// tracks in the Chrome trace export.
    pub tid: u64,
    /// Record kind.
    pub kind: RecordKind,
    /// Dotted path of the open spans at record time (innermost last);
    /// for span records the path includes the span itself.
    pub path: String,
    /// Event message (empty for span enters).
    pub message: String,
}

/// The fixed-capacity ring of recent trace records.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<TraceRecord>>>,
    cursor: AtomicU64,
}

impl TraceRing {
    /// Creates a ring holding the `capacity` most recent records.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Appends a record, overwriting the oldest once full. The record is
    /// stamped with the calling thread's trace id. Returns the record's
    /// sequence number.
    pub fn push(&self, nanos: u64, kind: RecordKind, path: String, message: String) -> u64 {
        // ordering: Relaxed — the RMW makes sequence numbers unique at
        // any ordering; the record itself is published under the slot
        // mutex below, not under this atomic.
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let idx = usize::try_from(seq % self.slots.len() as u64).unwrap_or(0);
        let mut slot = self.slots[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *slot = Some(TraceRecord {
            seq,
            nanos,
            tid: thread_trace_id(),
            kind,
            path,
            message,
        });
        seq
    }

    /// Total records ever pushed (≥ what the ring still holds).
    pub fn pushed(&self) -> u64 {
        // ordering: Relaxed — monitoring read of a monotone counter;
        // staleness is fine, tearing impossible (single atomic).
        self.cursor.load(Ordering::Relaxed)
    }

    /// The retained records in sequence order.
    pub fn recent(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }
}

/// The calling thread's trace id: a cheap monotone id assigned on first
/// use (1-based so 0 can mean "no thread" in hand-built records).
fn thread_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // ordering: Relaxed — a standalone id allocation; nothing is
        // published under it, uniqueness is all that matters and the
        // atomic RMW provides that at any ordering.
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    /// The context installed on this thread, if any.
    static CURRENT: RefCell<Option<ObsContext>> = const { RefCell::new(None) };
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Installs `ctx` (or clears, for a disabled context) as the thread's
/// current context; restores the previous one when dropped.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<ObsContext>,
}

impl InstallGuard {
    pub(crate) fn install(ctx: &ObsContext) -> Self {
        let new = if ctx.is_enabled() {
            Some(ctx.clone())
        } else {
            None
        };
        let prev = CURRENT.with(|c| c.replace(new));
        InstallGuard { prev }
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// The context installed on the current thread, if any.
pub fn current() -> Option<ObsContext> {
    CURRENT.with(|c| c.borrow().clone())
}

fn path_string() -> String {
    SPAN_STACK.with(|s| s.borrow().join("."))
}

/// An open span. Created by [`crate::span!`] (self-timed) or
/// [`SpanGuard::enter_measured`] (caller-timed); records its exit when
/// dropped. Inactive — a do-nothing token — when no context is installed.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(ObsContext, SpanClock)>,
    name: &'static str,
}

/// Where a span's duration comes from.
#[derive(Debug)]
enum SpanClock {
    /// The guard times itself and feeds `span.<name>.ns`.
    Own(Instant),
    /// The caller measures it and hands it to [`SpanGuard::exit`] (zero
    /// if the guard is dropped without one, e.g. on an unwinding path).
    Caller(Duration),
}

impl SpanGuard {
    /// Opens a self-timed span named `name` against the thread's current
    /// context; its exit also records a `span.<name>.ns` sample.
    pub fn enter(name: &'static str) -> Self {
        Self::open(name, || SpanClock::Own(Instant::now()))
    }

    /// Opens a span whose duration the caller measures: no clock read and
    /// no histogram. Close it with [`SpanGuard::exit`].
    pub fn enter_measured(name: &'static str) -> Self {
        Self::open(name, || SpanClock::Caller(Duration::ZERO))
    }

    fn open(name: &'static str, clock: impl FnOnce() -> SpanClock) -> Self {
        let Some(ctx) = current() else {
            return SpanGuard { active: None, name };
        };
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        ctx.record(RecordKind::SpanEnter, path_string(), String::new());
        SpanGuard {
            active: Some((ctx, clock())),
            name,
        }
    }

    /// Closes a span opened by [`SpanGuard::enter_measured`] with the
    /// caller's measured duration. (A self-timed span ignores `dur` and
    /// keeps its own clock.)
    pub fn exit(mut self, dur: Duration) {
        if let Some((_, SpanClock::Caller(d))) = &mut self.active {
            *d = dur;
        }
    }

    /// True when the span is actually recording.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((ctx, clock)) = self.active.take() else {
            return;
        };
        let (dur, own) = match clock {
            SpanClock::Own(started) => (started.elapsed(), true),
            SpanClock::Caller(d) => (d, false),
        };
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        ctx.record(
            RecordKind::SpanExit { dur_ns },
            path_string(),
            String::new(),
        );
        if own {
            // Resolved through the context's per-name cache: no `format!`
            // and no registry BTreeMap walk on the span-exit hot path
            // (part of the <5 % enabled-overhead budget).
            ctx.span_histogram(self.name).record(dur_ns);
        }
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop *this* span; tolerate a scrambled stack (a leaked guard
            // on a panicking path) rather than popping someone else's.
            if s.last() == Some(&self.name) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|n| *n == self.name) {
                s.truncate(pos);
            }
        });
    }
}

/// Records a point event against the current context, if any. Called by
/// [`crate::event!`]; the message is only formatted when a context is
/// installed.
pub fn emit_event(level: TraceLevel, args: fmt::Arguments<'_>) {
    let Some(ctx) = current() else {
        return;
    };
    ctx.record(RecordKind::Event { level }, path_string(), args.to_string());
    ctx.counter(&format!("events.{level}")).inc();
}

/// Opens a span named by a `&'static str` expression against the
/// thread-current [`ObsContext`]; bind the result (`let _span = ...`) so
/// it closes at scope end. Free (one thread-local read) when no context
/// is installed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name)
    };
}

/// Records a point event: `event!(Debug, "accept rate={rate}")`. The
/// first argument is a [`crate::TraceLevel`] variant; the rest is a
/// `format!` list, evaluated only when a context is installed.
#[macro_export]
macro_rules! event {
    ($level:ident, $($arg:tt)*) => {
        $crate::trace::emit_event(
            $crate::trace::TraceLevel::$level,
            format_args!($($arg)*),
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ObsContext;

    #[test]
    fn spans_record_enter_exit_and_histogram() {
        let ctx = ObsContext::new();
        {
            let _g = ctx.install();
            let _outer = crate::span!("dsp.fold");
            crate::event!(Info, "found {} edges", 3);
        }
        let recs = ctx.recent_trace();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].kind, RecordKind::SpanEnter);
        assert_eq!(recs[0].path, "dsp.fold");
        assert!(matches!(
            recs[1].kind,
            RecordKind::Event {
                level: TraceLevel::Info
            }
        ));
        assert_eq!(recs[1].message, "found 3 edges");
        assert!(matches!(recs[2].kind, RecordKind::SpanExit { .. }));
        let snap = ctx.registry_snapshot();
        assert!(snap.get("span.dsp.fold.ns").is_some());
    }

    #[test]
    fn measured_spans_carry_the_callers_duration_and_no_histogram() {
        let ctx = ObsContext::new();
        {
            let _g = ctx.install();
            let outer = SpanGuard::enter_measured("pipeline.total");
            let inner = SpanGuard::enter_measured("pipeline.edges");
            {
                // A self-timed sub-span nests under the measured ones.
                let _k = crate::span!("dsp.kernel");
            }
            inner.exit(Duration::from_nanos(1_234));
            outer.exit(Duration::from_nanos(5_678));
        }
        let exits: Vec<(String, u64)> = ctx
            .recent_trace()
            .into_iter()
            .filter_map(|r| match r.kind {
                RecordKind::SpanExit { dur_ns } => Some((r.path, dur_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(exits.len(), 3);
        assert_eq!(exits[0].0, "pipeline.total.pipeline.edges.dsp.kernel");
        assert_eq!(
            exits[1],
            ("pipeline.total.pipeline.edges".to_owned(), 1_234)
        );
        assert_eq!(exits[2], ("pipeline.total".to_owned(), 5_678));
        let snap = ctx.registry_snapshot();
        assert!(snap.get("span.dsp.kernel.ns").is_some());
        assert!(snap.get("span.pipeline.edges.ns").is_none());
        assert!(snap.get("span.pipeline.total.ns").is_none());
    }

    #[test]
    fn nested_spans_build_dotted_paths() {
        let ctx = ObsContext::new();
        {
            let _g = ctx.install();
            let _a = crate::span!("outer");
            let _b = crate::span!("inner");
            crate::event!(Debug, "deep");
        }
        let recs = ctx.recent_trace();
        let ev = recs
            .iter()
            .find(|r| matches!(r.kind, RecordKind::Event { .. }))
            .unwrap();
        assert_eq!(ev.path, "outer.inner");
    }

    #[test]
    fn no_context_means_no_records_and_no_panic() {
        let _s = crate::span!("orphan");
        crate::event!(Warn, "nobody listening");
        assert!(!_s.is_active());
    }

    #[test]
    fn disabled_context_installs_nothing() {
        let ctx = ObsContext::disabled();
        let _g = ctx.install();
        assert!(current().is_none());
        let s = crate::span!("x");
        assert!(!s.is_active());
    }

    #[test]
    fn install_guard_restores_previous_context() {
        let a = ObsContext::new();
        let b = ObsContext::new();
        let _ga = a.install();
        {
            let _gb = b.install();
            crate::event!(Info, "to b");
        }
        crate::event!(Info, "to a");
        assert_eq!(b.recent_trace().len(), 1);
        assert_eq!(a.recent_trace().len(), 1);
        assert_eq!(a.recent_trace()[0].message, "to a");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.push(i, RecordKind::SpanEnter, String::new(), format!("{i}"));
        }
        let recs = ring.recent();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs.first().map(|r| r.seq), Some(6));
        assert_eq!(recs.last().map(|r| r.seq), Some(9));
        assert_eq!(ring.pushed(), 10);
    }
}
