//! [`ObsContext`]: the handle that ties a registry and a trace ring
//! together and travels with a decoder.
//!
//! The context is an `Option<Arc<...>>` in a trenchcoat: a *disabled*
//! context is `None` inside, so every operation on it is a branch on a
//! niche-optimized pointer — no allocation, no atomics, no formatting.
//! This is what makes the <1 % overhead budget of the disabled path
//! realistic (and what `benches/obs_overhead.rs` in `lf-bench` checks).
//!
//! A decoder holds one context; worker threads clone it (bumping one
//! refcount) and install it thread-locally around each epoch so the
//! `span!`/`event!` macros deep in `lf-core`/`lf-dsp` find it without any
//! signature plumbing. All clones aggregate into the *same* sharded
//! registry, so a pool of workers produces one coherent snapshot.

use crate::registry::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
use crate::trace::{InstallGuard, RecordKind, TraceRecord, TraceRing};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Default trace-ring capacity (records, not bytes).
const DEFAULT_RING: usize = 4096;

#[derive(Debug)]
pub(crate) struct ObsInner {
    registry: MetricsRegistry,
    ring: TraceRing,
    /// Span-name → `span.<name>.ns` histogram handle cache for
    /// self-timed spans. Span names are `&'static str`s declared at the
    /// span sites (the dsp kernels, the separation sub-span), so the
    /// cache saturates after the first epoch and the span-exit hot path
    /// never formats a name or walks the registry map again.
    span_hists: Mutex<HashMap<&'static str, Histogram>>,
    t0: Instant,
}

/// A shared observability context: one metrics registry plus one trace
/// ring. Cheap to clone (`Arc`); a disabled context is a `None` and every
/// operation on it is a no-op.
#[derive(Debug, Clone, Default)]
pub struct ObsContext {
    inner: Option<Arc<ObsInner>>,
}

impl ObsContext {
    /// An enabled context with the default trace-ring capacity.
    pub fn new() -> Self {
        ObsContext::with_ring_capacity(DEFAULT_RING)
    }

    /// An enabled context retaining the `capacity` most recent trace
    /// records.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        ObsContext {
            inner: Some(Arc::new(ObsInner {
                registry: MetricsRegistry::new(),
                ring: TraceRing::new(capacity),
                span_hists: Mutex::new(HashMap::new()),
                t0: Instant::now(),
            })),
        }
    }

    /// A disabled context: every operation is a no-op, every handle is
    /// detached. This is the default a decoder runs with unless handed a
    /// live context.
    pub fn disabled() -> Self {
        ObsContext { inner: None }
    }

    /// True when this context actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs this context as the thread's current one (for the
    /// `span!`/`event!` macros); the guard restores the previous context
    /// on drop. Installing a disabled context clears the slot.
    #[must_use = "the context is uninstalled when the guard drops"]
    pub fn install(&self) -> InstallGuard {
        InstallGuard::install(self)
    }

    /// The registry, if enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The counter named `name` (a detached no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => Counter::default(),
        }
    }

    /// The gauge named `name` (detached when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name),
            None => Gauge::default(),
        }
    }

    /// The histogram named `name` (detached when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(name),
            None => Histogram::default(),
        }
    }

    /// The `span.<name>.ns` histogram for a span named `name`, resolved
    /// through a per-context cache keyed on the `&'static str` span name
    /// (detached when disabled). This is the span-exit hot path: after
    /// the first hit per name it costs one small-map lookup, no name
    /// formatting, no registry walk.
    pub(crate) fn span_histogram(&self, name: &'static str) -> Histogram {
        let Some(i) = &self.inner else {
            return Histogram::default();
        };
        let mut cache = i.span_hists.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = cache.get(name) {
            return h.clone();
        }
        let h = i.registry.histogram(&format!("span.{name}.ns"));
        cache.insert(name, h.clone());
        h
    }

    /// A point-in-time copy of every registered metric (empty when
    /// disabled).
    pub fn registry_snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(i) => i.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// The retained trace records in sequence order (empty when disabled).
    pub fn recent_trace(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(i) => i.ring.recent(),
            None => Vec::new(),
        }
    }

    /// Pushes a trace record stamped with this context's clock. No-op
    /// when disabled.
    pub(crate) fn record(&self, kind: RecordKind, path: String, message: String) {
        if let Some(i) = &self.inner {
            let nanos = u64::try_from(i.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            i.ring.push(nanos, kind, path, message);
        }
    }
}

// The whole point of the context is to be shared across a worker pool.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ObsContext>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_is_inert() {
        let ctx = ObsContext::disabled();
        assert!(!ctx.is_enabled());
        ctx.counter("x").add(5);
        ctx.gauge("g").set(3);
        ctx.histogram("h").record(7);
        assert!(ctx.registry().is_none());
        assert!(ctx.registry_snapshot().metrics.is_empty());
        assert!(ctx.recent_trace().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let ctx = ObsContext::new();
        let clone = ctx.clone();
        clone.counter("shared").add(2);
        ctx.counter("shared").inc();
        assert_eq!(ctx.counter("shared").get(), 3);
    }

    #[test]
    fn workers_aggregate_into_one_snapshot() {
        let ctx = ObsContext::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let worker = ctx.clone();
            handles.push(std::thread::spawn(move || {
                let _g = worker.install();
                worker.counter("epochs").inc();
                crate::event!(Info, "worker done");
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        assert_eq!(ctx.counter("epochs").get(), 4);
        assert_eq!(ctx.recent_trace().len(), 4);
    }
}
