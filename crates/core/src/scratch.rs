//! Reusable per-epoch decode scratch.
//!
//! One epoch decode used to allocate ~10 transient buffers — the prefix-sum
//! table, the squared-magnitude series and its quickselect workspace, the
//! edge→owner index, a per-stream foreign-edge list, the carve's unowned
//! mask, and a fold histogram per candidate rate per gather round. All of
//! them are epoch-scoped and shape-stable across epochs, so a long-running
//! reader worker can hold one [`DecodeScratch`] and decode epoch after
//! epoch with zero steady-state allocation in those paths.
//!
//! The scratch carries **no decode state between epochs**: every buffer is
//! cleared or fully rebuilt by the stage that uses it, so decoding with a
//! freshly-defaulted scratch and a reused one is bit-identical (pinned by
//! the hot-path equivalence tests) — including a scratch left dirty by a
//! decode that panicked mid-epoch (pinned by `tests/scratch_after_panic.rs`).

use crate::edges::PrefixSums;
use lf_dsp::fold::FoldedHistogram;
use lf_types::Complex;

/// Reusable buffers for one epoch decode, owned by the caller and passed
/// to [`Decoder::decode_timed_with`](crate::Decoder::decode_timed_with).
/// [`Decoder::decode`](crate::Decoder::decode) defaults a fresh one per
/// call.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Epoch-wide prefix sums, shared by the edges and slots stages.
    pub(crate) prefix: PrefixSums,
    /// Squared-magnitude differential series (edges stage).
    pub(crate) msq: Vec<f64>,
    /// Quickselect workspace for the robust threshold (edges stage).
    pub(crate) select: Vec<f64>,
    /// Edge→owning-stream index (slots stage).
    pub(crate) owner: Vec<Option<usize>>,
    /// Foreign-edge list of the stream currently being processed
    /// (slots stage).
    pub(crate) foreign: Vec<(f64, Complex)>,
    /// Orphan-edge mask (carve stage).
    pub(crate) unowned: Vec<bool>,
    /// Fold histograms — one per admitted candidate rate, filled by the
    /// batched multi-period fold and reused across gather rounds and
    /// epochs (folding stage).
    pub(crate) fold_hists: Vec<FoldedHistogram>,
}
