//! # LF-Backscatter
//!
//! A from-scratch Rust reproduction of **"Laissez-Faire: Fully Asymmetric
//! Backscatter Communication"** (Hu, Zhang, Ganesan — SIGCOMM 2015),
//! including every substrate the paper's evaluation ran on: the tag
//! hardware model, the RF channel (with the paper's dynamics scenarios),
//! the software-defined-radio reader pipeline, and the TDMA / Buzz / ASK
//! baselines.
//!
//! The paper's idea in one paragraph: backscatter tags are many orders of
//! magnitude weaker than the reader, so stop coordinating them. Let every
//! tag transmit *blindly* the moment it sees the carrier (no MAC, no
//! receive path, no buffers — 176 transistors of logic), and push all
//! decoding to the oversampling reader, which separates the concurrent
//! streams in time (interleaved signal edges) and in the IQ plane
//! (cluster-based collision separation), and error-corrects with an
//! edge-constraint Viterbi decoder.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | complex IQ samples, units, bitvecs, rate plans |
//! | [`dsp`] | k-means, Viterbi, eye-pattern folding, CRC, least squares |
//! | [`channel`] | link budget, channel dynamics (Fig. 1), AWGN, synthesis |
//! | [`tag`] | clocks, comparator start jitter, framing, hardware/energy |
//! | [`core`] | **the decode pipeline** (edges → streams → IQ separation → Viterbi) |
//! | [`baselines`] | TDMA (EPC Gen 2 lite), Buzz, single-tag ASK, cluster-only |
//! | [`sim`] | scenarios, end-to-end simulation, per-figure experiments |
//! | [`reader`] | streaming runtime: online segmentation, parallel epoch decode, live stats |
//! | [`fleet`] | multi-reader fleet: per-reader channel realizations, clock-free dedup, exactly-once delivery |
//! | [`obs`] | in-tree observability: metrics registry, span tracing, Prometheus export |
//!
//! ## Quickstart
//!
//! ```
//! use lf_backscatter::prelude::*;
//!
//! // Two sensors stream concurrently at different rates; decode both.
//! let tags = vec![
//!     ScenarioTag::sensor(10_000.0).with_payload_bits(32),
//!     ScenarioTag::sensor(5_000.0).with_payload_bits(32),
//! ];
//! let mut scenario = Scenario::paper_default(tags, 40_000)
//!     .at_sample_rate(SampleRate::from_msps(2.5));
//! scenario.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0]).unwrap();
//! let outcome = simulate_epoch(&scenario, DecodeStages::full(), 0);
//! assert!(outcome.frame_success_rate() > 0.9);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology and results.

#![forbid(unsafe_code)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use lf_baselines as baselines;
pub use lf_channel as channel;
pub use lf_core as core;
pub use lf_dsp as dsp;
pub use lf_fleet as fleet;
pub use lf_obs as obs;
pub use lf_reader as reader;
pub use lf_sim as sim;
pub use lf_tag as tag;
pub use lf_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use lf_baselines::ask::AskDecoder;
    pub use lf_baselines::buzz::{BuzzConfig, BuzzNetwork};
    pub use lf_baselines::tdma::{Gen2Config, Gen2Inventory, TdmaSchedule};
    pub use lf_channel::air::{synthesize, AirConfig, TagAir};
    pub use lf_channel::dynamics::{
        CoeffProcess, NearFieldCoupling, PeopleMovement, StaticChannel, TagRotation,
    };
    pub use lf_channel::linkbudget::LinkBudget;
    pub use lf_core::config::{DecodeStages, DecoderConfig};
    pub use lf_core::pipeline::{DecodedStream, Decoder, EpochDecode, StageTimings, StreamKind};
    pub use lf_core::reliability::{ReaderCommand, ReaderController};
    pub use lf_fleet::{
        realized_sources, DeliveredFrame, FleetConfig, FleetRuntime, FrameExtractor,
    };
    pub use lf_obs::{
        write_chrome_trace_env, FlightRecorder, LedgerSummary, MetricValue, ObsContext, Snapshot,
        TagLedger,
    };
    pub use lf_reader::{
        sequential_decode, Backpressure, DiagSinks, EpochReport, EpochResult, IqSource,
        ReaderRuntime, RuntimeConfig, RuntimeStats, ScenarioSource, SegmenterConfig, SliceSource,
    };
    pub use lf_sim::scenario::{Scenario, ScenarioTag, TagDynamics};
    pub use lf_sim::simulate::{simulate_epoch, synthesize_epoch, EpochOutcome};
    pub use lf_tag::clock::ClockModel;
    pub use lf_tag::comparator::Comparator;
    pub use lf_tag::energy::{PowerModel, Protocol};
    pub use lf_tag::frame::{Frame, FrameKind};
    pub use lf_tag::hardware::HardwareInventory;
    pub use lf_tag::tag::{LfTag, TagConfig};
    pub use lf_types::{BitRate, BitVec, Complex, Epc96, RatePlan, SampleRate, TagId};
}
