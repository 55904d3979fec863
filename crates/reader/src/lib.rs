//! `lf-reader`: the streaming reader runtime.
//!
//! Everything below `lf-reader` decodes one epoch at a time from a slice
//! that already exists in memory. A reader appliance doesn't get that
//! luxury: IQ samples arrive continuously from the front end, epochs have
//! to be found *online*, and decode work has to overlap with ingestion or
//! the reader falls behind the air interface. This crate is that runtime:
//!
//! * [`IqSource`] — chunked sample input ([`SliceSource`], [`FileSource`],
//!   sim-backed [`ScenarioSource`]).
//! * [`OnlineSegmenter`] — chunk-size-invariant carrier-gap epoch
//!   segmentation, the workspace's one segmenter.
//! * [`ReaderRuntime`] — an ingest thread feeding a bounded job queue, a
//!   `std::thread` decode pool with panic containment, and in-order
//!   report delivery; explicit [`Backpressure`] policy (lossless block
//!   vs drop-oldest with exact accounting).
//! * [`RuntimeStats`] — live counters, queue depths, and per-stage decode
//!   latency percentiles, pollable while the pipeline serves.
//!
//! The parallel runtime is deterministic: its ordered report stream is
//! byte-identical to [`sequential_decode`] of the same capture.
//!
//! ```no_run
//! use lf_reader::{ReaderRuntime, ScenarioSource};
//! use lf_sim::scenario::{Scenario, ScenarioTag};
//!
//! let scenario = Scenario::paper_default(vec![ScenarioTag::sensor(10_000.0)], 20_000);
//! let decoder_cfg = scenario.decoder_config();
//! let (source, _truths) = ScenarioSource::new(scenario, 8, 1_000, 4_096);
//! let mut runtime = ReaderRuntime::spawn_decoder(source, decoder_cfg);
//! while let Some(report) = runtime.recv() {
//!     if let Some(decode) = report.decode() {
//!         println!("epoch {}: {} streams", report.seq, decode.streams.len());
//!     }
//! }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod queue;
pub mod runtime;
pub mod segment;
pub mod source;
pub mod stats;

pub use queue::BoundedQueue;
pub use runtime::{
    sequential_decode, Backpressure, DiagSinks, EpochDecoder, EpochReport, EpochResult,
    ReaderRuntime, RuntimeConfig,
};
pub use segment::{OnlineSegmenter, SegmentedEpoch, SegmenterConfig, ThresholdPolicy};
pub use source::{FileSource, IqSource, ScenarioSource, SessionTruths, SliceSource};
pub use stats::{LatencySummary, RuntimeStats, StageLatencies};
