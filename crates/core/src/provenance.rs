//! Decode provenance: *why* each stream resolved, separated, or failed.
//!
//! Every epoch decode assembles a [`DecodeProvenance`] alongside its
//! streams — a structured record of what each pipeline stage saw and
//! chose: edge counts, the fold peak that locked the stream (and how
//! ambiguous it was), the k-means model-selection scores, which collision
//! gate fired, the anchor-bit outcome, and the Viterbi path metric. It is
//! diagnosis, not decoding: nothing in here feeds back into the result,
//! it only explains it.
//!
//! The canonical consumer is the ROADMAP's sub-harmonic fusion case: two
//! tags whose rates share a sub-harmonic fuse into one tracked stream,
//! whose frames then fail. Without provenance that reads as "garbage
//! bits"; with it, the fused stream's record shows a fold peak carrying
//! roughly twice the weight a single tag could produce and a cluster
//! constellation that fit neither the 3- nor the 9-point model —
//! [`StreamProvenance::failing_stage`] names the stage to look at.

use crate::pipeline::StreamKind;

/// Which admission-cascade gate rejected work before the expensive stage
/// ran (see [`AdmissionRecord`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionGate {
    /// Edge detection: the capture is shorter than the detection
    /// differential needs (`observed` = samples, `required` = minimum).
    EpochTooShort,
    /// Edge detection: the squared-magnitude differential carried no
    /// energy at all (`observed` = max |Δ|², `required` = anything
    /// positive) — an all-silence or all-DC epoch.
    EpochNoEdgeEnergy,
    /// Stream search: fewer edges in the whole epoch than a single
    /// validating track needs matches (`observed` = edge count,
    /// `required` = the minimum match count).
    EpochEdgeCount,
    /// Stream search, per rate hypothesis: fewer unclaimed edges inside
    /// the drift-safe fold window than the peak threshold (`observed` =
    /// in-window count, `required` = min peak weight) — no fold bin could
    /// reach a peak, so the fold/track pass for this rate was skipped.
    RateWindowCount,
}

/// One admission-cascade rejection: a cheap upper bound proved a stage
/// could not produce output, so the stage was skipped for that scope.
///
/// The cascade is a *pure* short-circuit — every gate's bound is exact
/// (the skipped work provably returns nothing), so decode output is
/// bit-identical with the cascade on or off. The records exist so skipped
/// work is attributable: an epoch that decoded nothing shows *which*
/// bound rejected it instead of silently returning empty.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRecord {
    /// The gate that fired.
    pub gate: AdmissionGate,
    /// Gather round the gate fired in (0 for epoch-level gates).
    pub round: usize,
    /// The rejected rate hypothesis in bits/second (`None` for
    /// epoch-level gates).
    pub rate_bps: Option<f64>,
    /// The cheap statistic the gate measured.
    pub observed: f64,
    /// The bound it failed to reach.
    pub required: f64,
}

/// What the eye-pattern folder saw when it locked a stream (§3.2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FoldProvenance {
    /// Weight of the fold-histogram peak this stream was seeded from.
    pub peak_weight: f64,
    /// Weight of the strongest *other* peak at the same rate fold (0 when
    /// the peak was alone).
    pub runner_up_weight: f64,
    /// Mean bin weight of the fold histogram — the noise floor the peak
    /// stands on.
    pub mean_weight: f64,
    /// The most weight a *single* tag could have contributed: one edge per
    /// bit period over the fold window.
    pub single_tag_ceiling: f64,
}

impl FoldProvenance {
    /// Eye-pattern SNR of the lock: peak weight over the mean bin weight.
    pub fn peak_snr(&self) -> f64 {
        if self.mean_weight > 0.0 {
            self.peak_weight / self.mean_weight
        } else if self.peak_weight > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// True when the peak is ambiguous: it carries materially more weight
    /// than one tag can produce (two edge trains folded into one bin — the
    /// sub-harmonic fusion signature), or a comparable rival peak exists.
    pub fn is_ambiguous(&self) -> bool {
        (self.single_tag_ceiling > 0.0 && self.peak_weight > 1.25 * self.single_tag_ceiling)
            || (self.peak_weight > 0.0 && self.runner_up_weight > 0.5 * self.peak_weight)
    }
}

/// The sub-harmonic carve attempted on an ambiguously-folded stream: the
/// decode's one back edge, which re-folds the unclaimed residual edges at
/// candidate harmonics and re-tracks the stream at the winning one. An *accepted*
/// carve is a recovery gate — the fused lock was explained and replaced —
/// so [`StreamProvenance::failing_stage`] stops naming the folding stage.
/// A rejected carve leaves the fused lock (and the flag) in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CarveProvenance {
    /// The harmonic multiple the split test chose (carved rate =
    /// `harmonic` × the fused rate).
    pub harmonic: u32,
    /// Unclaimed, direction-matched residual edges supporting the carve.
    pub n_residual: usize,
    /// Peak weight of the residual re-fold at the carved sub-period.
    pub residual_peak: f64,
    /// Matched slots of the fused track before the carve.
    pub n_matched_before: usize,
    /// Matched slots of the re-tracked stream (0 when the re-track found
    /// nothing).
    pub n_matched_after: usize,
    /// Whether the re-track explained enough additional edges to replace
    /// the fused track.
    pub accepted: bool,
}

/// Which gate redirected the collision analysis (§3.3–3.4), when one did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeparationFallback {
    /// Too few slots (or the IQ stage disabled): collision detection was
    /// never attempted, the 3-cluster model was fitted unconditionally.
    CollisionSkipped,
    /// 9 clusters won model selection but had no parallelogram lattice
    /// structure — decoded single, best effort.
    NoLattice,
    /// The fitted partner edge vector was an order of magnitude below its
    /// peer: a noise phantom, not a tag. Decoded single.
    PhantomPartner,
    /// The fitted edge vectors were near-collinear (the Table 2 failure
    /// geometry): inseparable in IQ. Decoded single.
    NearParallel,
}

/// How the anchor-bit convention (frame bit 0 is always a rise) resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnchorOutcome {
    /// Not applicable (no bits were decoded for this stream).
    #[default]
    NotEvaluated,
    /// The first decode already satisfied the anchor.
    Satisfied,
    /// The first decode violated the anchor; the sign-flipped retry
    /// satisfied it and was kept.
    FlippedAndSatisfied,
    /// Both the direct and the flipped decode violated the anchor — the
    /// anchor edge is lost or corrupted, bits kept best-effort.
    Violated,
    /// Collision path: the anchor slot classified as `(a, b)` on the
    /// lattice and pinned the member signs (0 means that member's anchor
    /// edge was missing).
    Pinned {
        /// Anchor-slot lattice coefficient of member 1.
        a: i8,
        /// Anchor-slot lattice coefficient of member 2.
        b: i8,
    },
}

/// What the cluster analysis saw for one tracked stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeparationProvenance {
    /// Slots available to the analysis.
    pub n_slots: usize,
    /// Slots that survived the cleanliness mask and drove the fit.
    pub n_clean: usize,
    /// Per-candidate-k k-means inertia (within-cluster sum of squares),
    /// in the order the models were tried.
    pub k_scores: Vec<(usize, f64)>,
    /// The cluster count model selection chose.
    pub chosen_k: usize,
    /// The gate that redirected the analysis, if any.
    pub fallback: Option<SeparationFallback>,
}

/// The full diagnostic record of one decoded stream.
#[derive(Debug, Clone, Default)]
pub struct StreamProvenance {
    /// The stream's bitrate in bits/second.
    pub rate_bps: f64,
    /// How the stream resolved (mirrors the decoded stream's kind; a
    /// separated collision contributes one record per member).
    pub kind: Option<StreamKind>,
    /// What the folder saw when locking this stream.
    pub fold: FoldProvenance,
    /// Slots with a matched edge.
    pub n_matched: usize,
    /// Slots tracked.
    pub n_slots: usize,
    /// Residual dispersion around the fitted period line (samples).
    pub residual_std: f64,
    /// What the cluster analysis saw.
    pub separation: SeparationProvenance,
    /// The sub-harmonic carve attempted on this stream, when the carve
    /// stage's split test fired (`None` when no carve was attempted).
    pub carve: Option<CarveProvenance>,
    /// How the anchor bit resolved.
    pub anchor: AnchorOutcome,
    /// The Viterbi path metric of the kept decode (log-domain; larger is
    /// better). `None` in hard-decision mode or when nothing was decoded.
    pub path_metric: Option<f64>,
}

impl StreamProvenance {
    /// Names the first anomalous pipeline stage for this stream, walking
    /// in pipeline order, or `None` for a clean decode. The names are the
    /// delivery ledger's attribution names.
    pub fn failing_stage(&self) -> Option<&'static str> {
        // An ambiguous fold is a failure unless the sub-harmonic carve
        // explained it: an accepted carve replaced the fused lock with the
        // true-rate track (keeping the ambiguous fold record as evidence),
        // which makes the carve a recovery gate, not a failure.
        if self.fold.is_ambiguous() && !self.carve.as_ref().is_some_and(|c| c.accepted) {
            return Some("stream-folding");
        }
        if self.kind == Some(StreamKind::Unresolved)
            || self.separation.fallback == Some(SeparationFallback::NoLattice)
        {
            return Some("collision-separation");
        }
        // PhantomPartner / NearParallel are *recovery* gates: model
        // selection over-fit a second tag onto noise and the lattice
        // check rejected it, decoding as single. That only indicates a
        // real (unseparable) collision when the single-stream decode
        // that followed is itself in distress.
        if matches!(
            self.separation.fallback,
            Some(SeparationFallback::PhantomPartner | SeparationFallback::NearParallel)
        ) && self.anchor == AnchorOutcome::Violated
        {
            return Some("collision-separation");
        }
        if self.anchor == AnchorOutcome::Violated {
            return Some("bit-decode");
        }
        None
    }
}

/// The per-epoch diagnostic record attached to every
/// [`crate::pipeline::EpochDecode`].
#[derive(Debug, Clone, Default)]
pub struct DecodeProvenance {
    /// Admission-cascade rejections: work the cheap bounds proved
    /// fruitless and skipped, in the order the gates fired. Bounded by
    /// (gather rounds × rate plan size) + the epoch-level gates.
    pub admission: Vec<AdmissionRecord>,
    /// One record per decoded stream, in stream order.
    pub streams: Vec<StreamProvenance>,
}

impl DecodeProvenance {
    /// Names the first anomalous stage across the epoch's streams, or
    /// `None` for a fully clean decode.
    pub fn failing_stage(&self) -> Option<&'static str> {
        self.streams
            .iter()
            .find_map(StreamProvenance::failing_stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_has_no_failing_stage() {
        let p = StreamProvenance {
            kind: Some(StreamKind::Single),
            anchor: AnchorOutcome::Satisfied,
            ..StreamProvenance::default()
        };
        assert_eq!(p.failing_stage(), None);
    }

    #[test]
    fn fold_ambiguity_wins_over_later_stages() {
        let p = StreamProvenance {
            kind: Some(StreamKind::Unresolved),
            fold: FoldProvenance {
                peak_weight: 100.0,
                runner_up_weight: 0.0,
                mean_weight: 1.0,
                single_tag_ceiling: 50.0,
            },
            ..StreamProvenance::default()
        };
        assert_eq!(p.failing_stage(), Some("stream-folding"));
        assert!(p.fold.is_ambiguous());
        assert!(p.fold.peak_snr() > 10.0);
    }

    #[test]
    fn unresolved_stream_names_separation() {
        let p = StreamProvenance {
            kind: Some(StreamKind::Unresolved),
            ..StreamProvenance::default()
        };
        assert_eq!(p.failing_stage(), Some("collision-separation"));
    }

    #[test]
    fn recovery_gate_on_clean_single_is_not_a_failure() {
        // NearParallel / PhantomPartner rejected a spurious 9-cluster fit
        // and the stream decoded cleanly as single — a recovery, not a
        // failure.
        for gate in [
            SeparationFallback::NearParallel,
            SeparationFallback::PhantomPartner,
        ] {
            let p = StreamProvenance {
                kind: Some(StreamKind::Single),
                anchor: AnchorOutcome::Satisfied,
                separation: SeparationProvenance {
                    fallback: Some(gate),
                    ..SeparationProvenance::default()
                },
                ..StreamProvenance::default()
            };
            assert_eq!(p.failing_stage(), None, "{gate:?}");
        }
    }

    #[test]
    fn recovery_gate_with_violated_anchor_names_separation() {
        // Same gate, but the single-stream decode it fell back to broke
        // its anchor — the collision was likely real and unseparable.
        let p = StreamProvenance {
            kind: Some(StreamKind::Single),
            anchor: AnchorOutcome::Violated,
            separation: SeparationProvenance {
                fallback: Some(SeparationFallback::NearParallel),
                ..SeparationProvenance::default()
            },
            ..StreamProvenance::default()
        };
        assert_eq!(p.failing_stage(), Some("collision-separation"));
    }

    #[test]
    fn no_lattice_fallback_always_names_separation() {
        let p = StreamProvenance {
            kind: Some(StreamKind::Single),
            anchor: AnchorOutcome::Satisfied,
            separation: SeparationProvenance {
                fallback: Some(SeparationFallback::NoLattice),
                ..SeparationProvenance::default()
            },
            ..StreamProvenance::default()
        };
        assert_eq!(p.failing_stage(), Some("collision-separation"));
    }

    #[test]
    fn anchor_violation_names_decode() {
        let p = StreamProvenance {
            kind: Some(StreamKind::Single),
            anchor: AnchorOutcome::Violated,
            ..StreamProvenance::default()
        };
        assert_eq!(p.failing_stage(), Some("bit-decode"));
    }

    #[test]
    fn epoch_provenance_reports_first_anomaly() {
        let clean = StreamProvenance {
            kind: Some(StreamKind::Single),
            ..StreamProvenance::default()
        };
        let broken = StreamProvenance {
            kind: Some(StreamKind::Unresolved),
            ..StreamProvenance::default()
        };
        let prov = DecodeProvenance {
            admission: Vec::new(),
            streams: vec![clean, broken],
        };
        assert_eq!(prov.failing_stage(), Some("collision-separation"));
    }

    #[test]
    fn accepted_carve_turns_fold_ambiguity_into_a_recovery() {
        let p = StreamProvenance {
            kind: Some(StreamKind::Single),
            anchor: AnchorOutcome::Satisfied,
            fold: FoldProvenance {
                peak_weight: 60.0,
                runner_up_weight: 55.0,
                mean_weight: 1.0,
                single_tag_ceiling: 75.0,
            },
            carve: Some(CarveProvenance {
                harmonic: 2,
                n_residual: 9,
                residual_peak: 9.0,
                n_matched_before: 91,
                n_matched_after: 100,
                accepted: true,
            }),
            ..StreamProvenance::default()
        };
        assert!(p.fold.is_ambiguous(), "test premise: the fold is flagged");
        assert_eq!(p.failing_stage(), None);
    }

    #[test]
    fn rejected_carve_keeps_the_fold_flag() {
        let p = StreamProvenance {
            kind: Some(StreamKind::Single),
            anchor: AnchorOutcome::Satisfied,
            fold: FoldProvenance {
                peak_weight: 60.0,
                runner_up_weight: 55.0,
                mean_weight: 1.0,
                single_tag_ceiling: 75.0,
            },
            carve: Some(CarveProvenance {
                harmonic: 2,
                n_residual: 4,
                n_matched_before: 91,
                n_matched_after: 92,
                ..CarveProvenance::default()
            }),
            ..StreamProvenance::default()
        };
        assert_eq!(p.failing_stage(), Some("stream-folding"));
    }

    #[test]
    fn admission_records_do_not_affect_failing_stage() {
        // Admission records attribute *skipped* work; they are not stream
        // anomalies and must not flip a clean epoch to failing.
        let prov = DecodeProvenance {
            admission: vec![AdmissionRecord {
                gate: AdmissionGate::EpochEdgeCount,
                round: 0,
                rate_bps: None,
                observed: 2.0,
                required: 4.0,
            }],
            streams: Vec::new(),
        };
        assert_eq!(prov.failing_stage(), None);
        assert_eq!(prov.admission.len(), 1);
        assert_eq!(prov.admission[0].gate, AdmissionGate::EpochEdgeCount);
    }

    #[test]
    fn rival_peak_is_ambiguous_too() {
        let fold = FoldProvenance {
            peak_weight: 10.0,
            runner_up_weight: 8.0,
            mean_weight: 0.5,
            single_tag_ceiling: 20.0,
        };
        assert!(fold.is_ambiguous());
    }
}
