//! # lf-dsp
//!
//! Signal-processing primitives for the LF-Backscatter reproduction. These
//! are the reader-side building blocks the paper's decode pipeline is made
//! of, implemented from scratch (the repro target deliberately avoids
//! pulling a DSP ecosystem — see DESIGN.md §3):
//!
//! * [`stats`] — running moments, 2-D Gaussian fits (Viterbi emissions,
//!   §3.5), the Q-function used for analytic BER curves (Fig. 14).
//! * [`kmeans`](mod@kmeans) — k-means++ clustering over IQ points plus
//!   model selection between cluster counts (collision detection, §3.3
//!   "performing k-means clustering and determining the best fit in terms
//!   of number of clusters").
//! * [`geometry`] — collinearity tests and the 9-centroid parallelogram
//!   solver that recovers the two edge vectors of a 2-tag collision (§3.4,
//!   Fig. 5).
//! * [`fold`] — eye-pattern folding (§3.2 "the analog value of a signal
//!   sample s(t) is added to the analog signal sample that is T seconds
//!   ahead").
//! * [`peaks`] — local-maximum detection with threshold and dead zone, used
//!   by edge extraction.
//! * [`viterbi`] — the 4-state edge-constraint Viterbi decoder (§3.5,
//!   Fig. 6).
//! * [`crc`] — CRC-5 (EPC Gen 2 inventory frames) and CRC-16/CCITT.
//! * [`linalg`] — small dense real matrices and least squares, used by the
//!   Buzz baseline's linear signal separation (Eq. 1).
//! * [`checks`] — NaN/∞ taint guards the pipeline wires at every stage
//!   boundary under the `strict-checks` feature (no-ops otherwise).
//! * [`simd`] — the runtime-dispatched AVX-512 nearest-centroid kernel
//!   over structure-of-arrays slices, with a bit-identical scalar
//!   fallback; the dispatch is the only switch, there is no cargo feature
//!   (DESIGN.md §15).

// `deny`, not `forbid`: the `simd` module opts back in locally for the
// vendor intrinsics behind its runtime feature detection; everything else
// in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

pub mod checks;
pub mod crc;
pub mod fold;
pub mod geometry;
pub mod kmeans;
pub mod linalg;
pub mod peaks;
pub mod simd;
pub mod stats;
pub mod viterbi;

pub use kmeans::{kmeans, select_cluster_count, KMeansResult};
pub use viterbi::{EdgeState, ViterbiDecoder};
