//! The sharded metrics registry: named counters, gauges, and histograms.
//!
//! Registration (name → handle) goes through one short-lived mutex; the
//! hot path never touches it — handles are `Arc`s over atomics, cheap to
//! clone and free to record into from any thread. Counters are *sharded*:
//! each handle spreads its increments over a small array of
//! cache-line-padded atomics indexed by a per-thread slot, so a worker
//! pool bumping one shared counter does not serialize on a single cache
//! line. Reads sum the shards (monotone, possibly mid-increment — fine
//! for monitoring).
//!
//! A [`Snapshot`] is a point-in-time copy of every metric, exportable as
//! Prometheus text ([`Snapshot::to_prometheus`]).

use crate::histogram::{HistogramCore, HistogramSnapshot};
use std::collections::BTreeMap;
// Under the `lf-check` feature the atomics come from the model
// scheduler's shims (passthrough outside a model run), so
// tests/model_registry.rs can interleave recording against snapshots
// exhaustively. The registration mutex stays `std`: model tests drive it
// from a single thread only (see the model-closure rules in `lf-check`).
#[cfg(feature = "lf-check")]
use lf_check::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(feature = "lf-check"))]
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Counter shards. Enough to keep an 8–16 worker pool off one cache line
/// without bloating every counter (each shard is a padded 64 B).
const N_SHARDS: usize = 8;

/// One cache line holding one atomic, so two shards never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// The slot a thread hashes to across all sharded metrics: a cheap
/// monotone id assigned on first use, not a hash of `ThreadId` (which has
/// no stable accessor on stable Rust).
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // ordering: Relaxed — a standalone id allocation; nothing is
        // published under it, uniqueness is all that matters and the
        // atomic RMW provides that at any ordering.
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
    }
    SLOT.with(|s| *s)
}

/// A monotone counter handle. Clone freely; all clones feed one metric.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    shards: Arc<[PaddedU64; N_SHARDS]>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — each shard is an independent monotone cell
        // and no other memory is published under this increment; readers
        // ([`Counter::get`]) tolerate mid-increment sums by design.
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — a monitoring read. Each shard is monotone,
        // so the sum is a lower bound on the true total at return time
        // and never goes backwards between two reads (the monotonicity
        // the model test pins down); cross-shard tearing only means the
        // sum lands between the start- and end-of-read totals.
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A gauge handle: a signed value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        // ordering: Relaxed — the gauge is a single standalone cell; no
        // other memory is published under it, last-writer-wins is the
        // intended semantics.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        // ordering: Relaxed — standalone cell, atomic RMW; deltas from
        // concurrent threads all land regardless of order.
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        // ordering: Relaxed — a monitoring read of a standalone cell;
        // staleness is acceptable, tearing impossible (single atomic).
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram handle (see [`crate::histogram`] for bucket semantics).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            core: Arc::new(HistogramCore::default()),
        }
    }
}

impl Histogram {
    /// Records one observation (typically nanoseconds).
    pub fn record(&self, v: u64) {
        self.core.record(v);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count()
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// A registered metric of any kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: a name-keyed map of metrics behind a registration mutex.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn metrics(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter named `name`, registering it on first use. Returns a
    /// detached (still functional, but unexported) handle if `name` is
    /// already registered as a different kind — observability must never
    /// panic the pipeline it observes.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// The gauge named `name`, registering it on first use (same
    /// kind-mismatch policy as [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// The histogram named `name`, registering it on first use (same
    /// kind-mismatch policy as [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::default(),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics().len()
    }

    /// True when nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.metrics().is_empty()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics();
        let metrics = m
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                MetricSnapshot {
                    name: name.clone(),
                    value,
                }
            })
            .collect();
        Snapshot { metrics }
    }
}

/// One metric's snapshotted value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone counter total.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram copy.
    Histogram(HistogramSnapshot),
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The registered (dotted) metric name.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole registry, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every registered metric.
    pub metrics: Vec<MetricSnapshot>,
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; the registry's dotted
/// names map dots (and any other byte) to underscores.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Snapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Renders the snapshot as Prometheus text exposition format.
    ///
    /// Every metric gets a `# HELP` line (carrying the original dotted
    /// registry name, which the sanitized exposition name loses) and a
    /// `# TYPE` line. Histograms emit cumulative `_bucket{le="..."}`
    /// series plus `_sum` and `_count`, counters and gauges a single
    /// sample each.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = prom_name(&m.name);
            let help = &m.name;
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "# HELP {name} lf-obs counter {help}\n# TYPE {name} counter\n{name} {v}\n"
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "# HELP {name} lf-obs gauge {help}\n# TYPE {name} gauge\n{name} {v}\n"
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "# HELP {name} lf-obs histogram {help}\n# TYPE {name} histogram\n"
                    ));
                    for (le, c) in h.cumulative() {
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {c}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_total() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("decode.epochs");
        let b = reg.counter("decode.epochs");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = reg.counter("hits");
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        assert_eq!(reg.counter("hits").get(), 40_000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue.depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn kind_mismatch_degrades_to_detached_handle() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("x");
        let g = reg.gauge("x"); // wrong kind: detached, but must not panic
        g.set(7);
        assert_eq!(reg.counter("x").get(), 0);
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("reader.epochs_in").add(2);
        reg.gauge("reader.queue_depth").set(1);
        let h = reg.histogram("decode.total.ns");
        h.record(1500);
        h.record(9000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE reader_epochs_in counter"));
        assert!(text.contains("reader_epochs_in 2"));
        assert!(text.contains("# TYPE reader_queue_depth gauge"));
        assert!(text.contains("# TYPE decode_total_ns histogram"));
        assert!(text.contains("decode_total_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("decode_total_ns_count 2"));
        assert!(text.contains("decode_total_ns_sum 10500"));
        // Every metric gets a HELP line, carrying the dotted name the
        // sanitized exposition name loses, and HELP precedes TYPE.
        assert!(text.contains("# HELP reader_epochs_in lf-obs counter reader.epochs_in"));
        assert!(text.contains("# HELP reader_queue_depth lf-obs gauge reader.queue_depth"));
        let help_at = text.find("# HELP decode_total_ns ").unwrap();
        let type_at = text.find("# TYPE decode_total_ns ").unwrap();
        assert!(help_at < type_at, "HELP must precede TYPE");
        // Cumulative `le` bucket invariants: counts are monotone
        // non-decreasing, every explicit bucket is ≤ count, and the
        // implicit +Inf bucket equals _count exactly.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("decode_total_ns_bucket{le=\"") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!buckets.is_empty());
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "le buckets must be monotone: {buckets:?}"
        );
        assert!(buckets.iter().all(|&b| b <= 2));
        let inf: u64 = text
            .lines()
            .find(|l| l.starts_with("decode_total_ns_bucket{le=\"+Inf\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        let count: u64 = text
            .lines()
            .find(|l| l.starts_with("decode_total_ns_count"))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(inf, count, "+Inf bucket must equal _count");
        assert_eq!(buckets.last().copied(), Some(count));
    }

    #[test]
    fn snapshot_lookup_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("k").add(9);
        let snap = reg.snapshot();
        assert_eq!(snap.get("k"), Some(&MetricValue::Counter(9)));
        assert_eq!(snap.get("missing"), None);
    }
}
