//! `lf-obs`: in-tree observability for the Laissez-Faire decoder.
//!
//! Three layers, no external dependencies (the build is offline — this
//! plays the role `tracing` + `metrics` would otherwise, the same way
//! `lf-rng` stands in for `rand`):
//!
//! * **Metrics** — a [`MetricsRegistry`] of named [`Counter`]s (sharded
//!   across cache lines for worker pools), [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s; readable as a point-in-time [`Snapshot`] and
//!   exportable as Prometheus text or JSON lines.
//! * **Tracing** — [`span!`]/[`event!`] macros recording into a
//!   fixed-size ring via a thread-local [`ObsContext`], so DSP kernels
//!   trace without signature plumbing. Self-timed span exits feed
//!   `span.<name>.ns` histograms; caller-timed spans
//!   ([`SpanGuard::enter_measured`]) carry a duration measured elsewhere
//!   — the decode stage graph's, whose one stage-latency family is
//!   `pipeline.stage.*`.
//! * **Context** — [`ObsContext`] ties the two together and travels with
//!   a decoder; [`ObsContext::disabled`] is a `None` whose every
//!   operation is a no-op branch (the overhead bench in `lf-bench` holds
//!   this under 1 % of decode throughput, and the enabled path under 5 %
//!   via pre-resolved handles).
//!
//! On top sits the **diagnosis layer**:
//!
//! * [`TagLedger`] — a clock-free expected-vs-delivered ledger per rate
//!   class, epoch, and reader, attributing every miss to a pipeline
//!   stage ([`LossAttribution`]) under a conservation invariant;
//! * [`FlightRecorder`] — a bounded ring of per-epoch records that dumps
//!   a deterministic JSON black box on trigger (anomalous epoch,
//!   delivery-ratio breach, worker panic);
//! * [`chrome_trace_json`] — Chrome trace-event export of the span ring
//!   (`LF_OBS_TRACE=trace.json`, loadable in Perfetto).
//!
//! ```
//! let ctx = lf_obs::ObsContext::new();
//! {
//!     let _g = ctx.install();
//!     let _span = lf_obs::span!("dsp.fold");
//!     ctx.counter("epochs.decoded").inc();
//!     lf_obs::event!(Info, "found {} edges", 42);
//! }
//! let snap = ctx.registry_snapshot();
//! assert!(snap.get("epochs.decoded").is_some());
//! print!("{}", snap.to_prometheus());
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod chrome;
pub mod context;
pub mod flight;
pub mod histogram;
pub mod ledger;
pub mod registry;
pub mod trace;

pub use chrome::{chrome_trace_json, write_chrome_trace, write_chrome_trace_env};
pub use context::ObsContext;
pub use flight::{FlightRecord, FlightRecorder};
pub use histogram::{HistogramCore, HistogramSnapshot};
pub use ledger::{
    ClassSummary, EpochOutcome, LedgerSummary, LossAttribution, LossCell, TagLedger,
    STAGE_BAD_BITS, STAGE_EPOCH_DROPPED, STAGE_EPOCH_FAULTED, STAGE_NEVER_TRACKED,
};
pub use registry::{
    Counter, Gauge, Histogram, MetricSnapshot, MetricValue, MetricsRegistry, Snapshot,
};
pub use trace::{current, RecordKind, SpanGuard, TraceLevel, TraceRecord, TraceRing};
