//! # lf-tag
//!
//! The backscatter tag as the paper builds it — a UMass Moo class device
//! with *virtually no logic* (§3.6): it senses, clocks bits out through its
//! RF transistor the moment the reader's carrier appears, and never
//! listens. The crate models exactly the tag properties the decode pipeline
//! depends on:
//!
//! * [`clock`] — the tag's bit clock with crystal drift (150 ppm external
//!   oscillator, §4.1) and per-edge jitter; drift is what forces the
//!   reader's streams to be *tracked*, not just folded.
//! * [`comparator`] — the carrier-detect capacitor-charging model of
//!   Fig. 4; its natural variation is the paper's random-offset mechanism
//!   ("tags exhibit natural variations in when they start their transfer").
//! * [`frame`] — epoch frames: anchor bit (§3.4), payload, CRC.
//! * [`tag`] — the laissez-faire tag itself: given a payload and an epoch,
//!   produce the antenna toggle events the air synthesizer consumes.
//! * [`hardware`] — the transistor-level complexity inventory behind
//!   Table 3 (LF 176 vs Buzz 1 792 vs EPC Gen 2 22 704, + 12 T/bit FIFO).
//! * [`energy`] — the calibrated switched-capacitance power model behind
//!   Fig. 13's energy-efficiency comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

pub mod clock;
pub mod comparator;
pub mod energy;
pub mod frame;
pub mod hardware;
pub mod tag;

pub use clock::ClockModel;
pub use comparator::Comparator;
pub use energy::{PowerModel, Protocol};
pub use frame::{Frame, FrameKind};
pub use hardware::{fifo_transistors, HardwareInventory};
pub use tag::{EpochPlan, LfTag, TagConfig};
