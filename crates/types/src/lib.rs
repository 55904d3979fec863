//! # lf-types
//!
//! Foundation types shared by every crate in the LF-Backscatter workspace:
//!
//! * [`Complex`] — a complex baseband (IQ) sample with the arithmetic the
//!   decode pipeline needs. The paper's reader observes the channel as a
//!   stream of in-phase/quadrature pairs (§3.1, Eq. 2); every signal in this
//!   workspace is a `Vec<Complex>`.
//! * [`units`] — sample-rate/time/frequency conversions and dB helpers.
//!   Getting sample↔time conversions wrong is the classic SDR bug, so they
//!   are centralized here and property-tested.
//! * [`iq`] — structure-of-arrays IQ storage ([`IqBuffer`]): the split
//!   `re`/`im` layout the hot loops in `lf-core` and `lf-dsp` load from
//!   (DESIGN.md §15).
//! * [`bits`] — a small bit-vector with the conversions framing needs.
//! * [`rate`] — bitrates restricted to multiples of a base rate (§3.2 imposes
//!   this restriction so colliding tags keep colliding periodically).
//! * [`ids`] — EPC-Gen-2-style 96-bit identifiers used by the inventory
//!   experiments (Fig. 12).
//! * [`error`] — the workspace error type.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

pub mod bits;
pub mod complex;
pub mod error;
pub mod ids;
pub mod iq;
pub mod rate;
pub mod units;

pub use bits::BitVec;
pub use complex::Complex;
pub use error::{Error, Result};
pub use ids::{Epc96, TagId};
pub use iq::IqBuffer;
pub use rate::{BitRate, RatePlan};
pub use units::{db_to_linear, linear_to_db, Duration, SampleRate};
