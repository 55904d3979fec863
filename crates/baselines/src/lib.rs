//! # lf-baselines
//!
//! Every scheme the paper compares LF-Backscatter against, built from the
//! descriptions in §2 and §4.2:
//!
//! * [`tdma`] — the stripped-down EPC Gen 2 baseline: deterministic
//!   reader-scheduled slots for data transfer (Fig. 8) and Q-algorithm
//!   framed-slotted-ALOHA for inventorying (Fig. 12). "We use a stripped
//!   down version of EPC Gen 2 … slots are 96 bits long, and the bitrate
//!   is 100 kbps."
//! * [`buzz`] — Buzz (Wang et al., SIGCOMM'12), the linear
//!   signal-separation baseline of §2.2: lock-step transmission, a shared
//!   pseudo-random combination matrix, channel estimation, least-squares
//!   decoding with decode-and-subtract refinement, and rateless
//!   retransmission until the residual is clean.
//! * [`ask`] — classic single-tag ASK decoding with full-bit integration:
//!   the robustness yardstick of §5.4 (Fig. 14's SNR comparison).
//! * [`cluster_only`] — pure IQ-cluster separation (Angerer et al.,
//!   §2.3): works for two tags, collapses beyond that (Fig. 2) — the
//!   motivation for LF's time-domain first stage.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

pub mod ask;
pub mod buzz;
pub mod cluster_only;
pub mod tdma;

pub use ask::AskDecoder;
pub use buzz::{BuzzConfig, BuzzNetwork, BuzzOutcome};
pub use cluster_only::cluster_separation_error_rate;
pub use tdma::{Gen2Config, Gen2Inventory, TdmaSchedule};
