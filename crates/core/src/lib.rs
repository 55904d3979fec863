//! # lf-core
//!
//! The paper's primary contribution: the LF-Backscatter reader decode
//! pipeline. Tags transmit blindly ([`lf-tag`]); everything below runs at
//! the reader, on the oversampled IQ capture, in five stages that mirror
//! §3 of the paper:
//!
//! 1. [`edges`] — reliable edge detection via IQ differentials (§3.1):
//!    subtracting the averaged signal before/after a candidate edge cancels
//!    the background of other transmitters.
//! 2. [`streams`] — separating edges into streams (§3.2): eye-pattern
//!    folding at each valid rate (rates are multiples of a base rate)
//!    finds `(rate, offset)` candidates; a drift-tracking pass then walks
//!    each stream through the epoch (the tags' 150 ppm crystals drift by
//!    bit-periods over a long epoch, so folding alone cannot hold a lock).
//! 3. [`slots`] — per-bit-slot IQ differentials with cross-stream masking:
//!    when averaging around one stream's slot boundary, samples near
//!    *other* streams' claimed edges are excluded, removing the dominant
//!    source of differential corruption in dense deployments.
//! 4. [`separate`] — IQ-cluster collision detection and separation
//!    (§3.3–3.4): k-means model selection (3 vs 9 clusters) flags a 2-tag
//!    collision; the parallelogram fit recovers both edge vectors without
//!    channel estimation; the anchor bit pins the signs.
//! 5. [`decode`] — bit recovery (§3.5): the 4-state edge-constraint
//!    Viterbi decoder with Gaussian IQ emissions corrects missed and
//!    spurious edges; a hard-decision mode exists for the Fig. 9 ablation.
//!
//! [`graph`] wires the stages together as a stage graph over a shared
//! per-epoch context (with bounded re-entry for the sub-harmonic carve);
//! [`pipeline`] exposes it behind the [`Decoder`] facade, whose one timed
//! call takes a caller-owned [`DecodeScratch`]; [`reliability`]
//! implements the optional reader-side feedback of §3.6 (broadcast
//! retransmit + network-wide rate backoff).
//!
//! [`lf-tag`]: ../lf_tag/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

pub mod config;
pub mod decode;
pub mod edges;
pub mod graph;
pub mod pipeline;
pub mod provenance;
pub mod reliability;
pub mod scratch;
pub mod separate;
pub mod slots;
pub mod streams;

pub use config::{DecodeStages, DecoderConfig};
pub use graph::STAGE_COUNT;
pub use pipeline::{DecodedStream, Decoder, EpochDecode, StageTimings, StreamKind};
pub use provenance::{
    AnchorOutcome, CarveProvenance, DecodeProvenance, FoldProvenance, SeparationFallback,
    SeparationProvenance, StreamProvenance,
};
pub use reliability::{ReaderCommand, ReaderController};
pub use scratch::DecodeScratch;
