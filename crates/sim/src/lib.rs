//! # lf-sim
//!
//! End-to-end simulation and the experiment harness that regenerates every
//! table and figure of the paper's evaluation (§5). The crate glues the
//! substrates together:
//!
//! ```text
//! Scenario ──► lf-tag (frames, clocks, comparators)
//!          ──► lf-channel (coefficients, dynamics, noise, synthesis)
//!          ──► lf-core (the decode pipeline) ──► scoring ──► metrics
//! ```
//!
//! * [`scenario`] — declarative description of a deployment (tags, rates,
//!   placements, dynamics, noise, epoch length).
//! * [`simulate`] — realizes a scenario into IQ captures and decodes them.
//! * [`score`] — frame-level goodput accounting against ground truth.
//! * [`report`] — fixed-width table/series printing for the `repro`
//!   binary.
//! * [`experiments`] — one module per table/figure (see DESIGN.md §4 for
//!   the full index). Each experiment has a `quick` scale (CI-friendly)
//!   and a `paper` scale (the numbers EXPERIMENTS.md reports).

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

pub mod experiments;
pub mod multi;
pub mod report;
pub mod scenario;
pub mod score;
pub mod simulate;

pub use multi::{
    synthesize_epoch_for, synthesize_gap_for, synthesize_session_for, ReaderRealization,
};
pub use scenario::{Scenario, ScenarioTag, TagDynamics};
pub use simulate::{
    simulate_epoch, synthesize_gap, synthesize_session, EpochOutcome, SessionCapture,
};
