//! # lf-channel
//!
//! The RF substrate the paper ran on physical hardware, rebuilt as a
//! simulator (see DESIGN.md §2 for the substitution argument):
//!
//! * [`linkbudget`] — the radar-equation link budget of §5.4, used for the
//!   range/robustness analysis (Fig. 14's 4 dB gap → 10 ft vs 8.1 ft).
//! * [`coeff`] — per-tag complex channel coefficients derived from tag
//!   placement (distance + random phase), the `h` of Eq. 1/Eq. 2.
//! * [`dynamics`] — the coefficient *processes* of Fig. 1: people moving
//!   near a tag, tag rotation, and near-field coupling between close tags.
//!   These are what break Buzz's channel-estimation assumption (§2.2).
//! * [`noise`] — seeded complex AWGN and SNR bookkeeping.
//! * [`air`] — the baseband synthesizer: combines tag antenna-toggle event
//!   streams, coefficient processes, the environment reflection, and noise
//!   into the IQ sample stream a USRP would capture (Eq. 2's linear
//!   combination, plus finite edge rise times).

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

pub mod air;
pub mod coeff;
pub mod dynamics;
pub mod linkbudget;
pub mod noise;

pub use air::{synthesize, AirConfig, TagAir, ToggleEvent};
pub use coeff::TagPlacement;
pub use dynamics::{CoeffProcess, NearFieldCoupling, PeopleMovement, StaticChannel, TagRotation};
pub use linkbudget::LinkBudget;
pub use noise::Awgn;
