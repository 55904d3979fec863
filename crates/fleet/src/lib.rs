//! # lf-fleet — multi-reader fleet runtime with exactly-once delivery
//!
//! Laissez-Faire readers are cheap: a deployment can blanket a space
//! with several antennas so every tag is in range of at least one — and
//! usually of *several*. That redundancy is the point (coverage,
//! diversity against fades) and the problem: each reader independently
//! decodes the same over-the-air transmissions, so a naive union of
//! their decode streams delivers most frames two or three times.
//!
//! This crate turns N independent [`lf_reader::ReaderRuntime`]s into
//! one fleet with an **exactly-once** delivery contract:
//!
//! * [`identity`] — content-addressed frame identity. A frame is
//!   `tag key × epoch fingerprint × payload digest`, all derived from
//!   what was decoded and from carrier structure every reader observes
//!   identically (the epoch ordinal is each reader's own carrier-gap
//!   count). No wall clock, no distributed counter, no reader-to-reader
//!   protocol — coordination is laissez-faire, like the tags'.
//! * [`dedup`] — a first-claim-wins [`DedupRegistry`]: one winner per
//!   [`FrameId`], every other decode is a counted, lag-attributed
//!   duplicate. Each frame's [`DeliveryProvenance`] records who saw it
//!   and whose copy won.
//! * [`bus`] — a [`FrameBus`] fanning the winning copies out to
//!   subscribers over bounded queues with the reader runtime's own
//!   backpressure disciplines (`Block` = lossless, `DropOldest` =
//!   freshest-wins).
//! * [`runtime`] — the [`FleetRuntime`] coordinator thread tying it
//!   together: poll every reader ([`lf_reader::ReaderRuntime::try_recv`]),
//!   extract CRC-verified frames, claim, publish, observe.
//! * [`source`] — per-reader channel realizations of one simulated tag
//!   population ([`lf_sim::multi`]), for tests, examples, and benches.
//!
//! ## Quickstart
//!
//! ```
//! use lf_fleet::{realized_sources, FleetConfig, FleetRuntime, FrameExtractor};
//! use lf_obs::ObsContext;
//! use lf_sim::{Scenario, ScenarioTag};
//! use lf_types::{RatePlan, SampleRate};
//!
//! let tags = vec![ScenarioTag::sensor(10_000.0).with_payload_bits(32)];
//! let mut scenario = Scenario::paper_default(tags, 20_000)
//!     .at_sample_rate(SampleRate::from_msps(1.0));
//! scenario.noise_sigma = 0.004;
//! scenario.rate_plan =
//!     RatePlan::from_bps(100.0, &[2_000.0, 5_000.0, 10_000.0, 20_000.0]).expect("valid plan");
//!
//! // Three antennas, each with its own channel realization of the
//! // same tags; shared ground truth.
//! let (sources, _truths) = realized_sources(&scenario, 3, 2, 5_000, 4096);
//!
//! let cfg = FleetConfig::for_decoder(
//!     &scenario.decoder_config(),
//!     FrameExtractor::for_scenario(&scenario),
//! );
//! let (fleet, subs) = FleetRuntime::spawn_decoder(
//!     sources,
//!     scenario.decoder_config(),
//!     &cfg,
//!     1,
//!     ObsContext::new(),
//! );
//! let frames: Vec<_> = std::iter::from_fn(|| subs[0].recv()).collect();
//! let report = fleet.join();
//! assert_eq!(frames.len() as u64, report.stats.frames_delivered);
//! assert!(report.stats.duplicates_suppressed > 0, "3 readers overlap");
//! ```

#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bus;
pub mod dedup;
pub mod identity;
pub mod runtime;
pub mod source;

pub use bus::{DeliveredFrame, FrameBus, PublishOutcome, Subscription};
pub use dedup::{Claim, DedupRegistry, DeliveryProvenance, ReaderId, WinReason};
pub use identity::{ExtractedFrame, FrameExtractor, FrameId};
pub use runtime::{FleetConfig, FleetReport, FleetRuntime, FleetStats, ReaderContribution};
pub use source::realized_sources;
