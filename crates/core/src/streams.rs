//! Stage 2 — separating edges into streams (§3.2).
//!
//! Three mechanisms work together:
//!
//! * **Eye-pattern folding** finds `(rate, offset)` candidates: edge times
//!   are folded at each valid rate's period; a real stream piles its edges
//!   into one phase bin, noise does not ("such an edge would not have a
//!   repeating pattern at one of the valid rates"). Folding runs over a
//!   *drift-safe* prefix window — beyond it a 150 ppm crystal smears its
//!   own phase bin.
//! * **Drift tracking** walks each candidate through the whole epoch:
//!   predict the next slot boundary, match the nearest edge within a
//!   tolerance, refine the period from the global slope (crystal drift is
//!   a constant frequency error, so the slope through all matched
//!   boundaries is the statistically right estimator).
//! * **Arbitration**: every edge belongs to exactly one tag, so candidate
//!   tracks from *all* rate hypotheses compete for edges. Candidates are
//!   ranked by track quality — residual dispersion around the fitted
//!   period line (a genuine stream: ≲1 sample; a track zigzagging between
//!   several tags' edges: several samples), with faster rates winning
//!   ties (a slow hypothesis over a fast stream's edges fits perfectly
//!   but explains only a subset). Accepted tracks claim their edges; a
//!   candidate most of whose edges are already claimed is an alias or
//!   zigzag over better-explained streams and is dropped.
//!
//! Structural alias checks guard each acceptance:
//!
//! * a majority of matched slots in one residue class mod m means the
//!   true stream is m× slower (down-alias);
//! * inter-slot positions full of same-direction unexplained edges mean
//!   the true stream is m× *faster* (up-alias: a fast stream lands an
//!   edge on every slot of a slower grid and looks healthy there);
//! * interleaved same-rate streams masquerading as one faster stream
//!   betray themselves through collinear per-residue IQ sub-streams
//!   combined with per-residue timing bands or direction diversity.
//!
//! They run in arbitration, on a candidate that overlaps no claimed edge,
//! just before it is accepted, rather than on every walked track; most
//! walked tracks lose to an overlap and are never checked. This gives the
//! same streams as checking every track straight after its walk. A check
//! reads only the candidate, the edge arena and the claimed mask as the
//! round's gather left it (arbitration keeps a copy), so its verdict is
//! the one an eager check would give. A candidate that fails is dropped
//! on either path and claims nothing. The ranking sort is stable, so the
//! candidates that pass meet arbitration in the same order and against
//! the same claims.
//!
//! Known limitation: two same-rate tags whose offsets align to half a
//! period within ~2 samples, whose channel vectors are near-parallel
//! (≲15°), *and* whose amplitudes match within ~25 % are physically
//! indistinguishable from one double-rate stream within an epoch — every
//! tell is blind. Such pairs fuse and their frames fail; the per-epoch
//! offset re-randomization (§3.2) separates them on the next epoch, which
//! is how the reliability layer recovers.

use crate::config::DecoderConfig;
use crate::edges::EdgeEvent;
use crate::provenance::{AdmissionGate, AdmissionRecord, FoldProvenance};
use lf_dsp::fold::{FoldSpec, FoldTable, FoldedHistogram};
use lf_types::BitRate;

/// Minimum matched slots a candidate track needs to pass validation (the
/// `too_few` size gate), and therefore the minimum epoch edge count below
/// which the whole stream search is provably fruitless (the
/// [`AdmissionGate::EpochEdgeCount`] admission gate).
const MIN_TRACK_MATCHES: usize = 4;

/// Gather→arbitrate rounds of the blind search (fewer when a round
/// accepts nothing).
const SEARCH_ROUNDS: usize = 4;

/// Reusable per-track scratch: an epoch-edge-indexed mask of the edges
/// the current track has taken, the list of indices set in it, and the
/// walk's slot-time/match buffers.
///
/// The tracker used to test membership with `Vec::contains` on a growing
/// index list — O(track length) per probe, quadratic per track, and the
/// dominant cost of the folding stage at ci scale. The mask is O(1) per
/// probe; clearing only the set bits between tracks keeps reset O(taken)
/// instead of O(edges). The slot buffers are pooled for a different
/// reason: the search walks many more candidate tracks than pass the size
/// gates, and rejected walks used to allocate (and immediately free)
/// their slot vectors — pooling them means only candidates pay for an
/// owned copy. The acceptance-time alias checks reuse the mask: they
/// rebuild a candidate's taken set from its `matched` list, which holds
/// exactly the edges its walk took.
#[derive(Debug, Default)]
struct TrackScratch {
    taken_mask: Vec<bool>,
    taken: Vec<usize>,
    /// Slot boundary times of the track currently being walked.
    slot_times: Vec<f64>,
    /// Per-slot matched edge index of the track currently being walked.
    matched: Vec<Option<usize>>,
}

impl TrackScratch {
    /// Prepares the scratch for an epoch with `n_edges` edges. Bits set
    /// by a previous user have already been cleared by [`track_stream`]
    /// or [`passes_alias_checks`].
    fn reset_for(&mut self, n_edges: usize) {
        if self.taken_mask.len() < n_edges {
            self.taken_mask.resize(n_edges, false);
        }
        self.taken.clear();
        self.slot_times.clear();
        self.matched.clear();
    }

    /// Marks edge `i` as taken by the current track.
    fn take(&mut self, i: usize) {
        self.taken_mask[i] = true;
        self.taken.push(i);
    }

    /// Clears exactly the bits the current track set.
    fn clear_taken(&mut self) {
        for &i in &self.taken {
            self.taken_mask[i] = false;
        }
        self.taken.clear();
    }
}

/// Bucket width (log2 samples) of [`EdgeTimeIndex`]: 64-sample buckets
/// keep the table small (~1/64 of the epoch) while holding ≈1 edge per
/// bucket at realistic edge densities, so lookups advance at most a step
/// or two past the bucket boundary.
const EDGE_INDEX_SHIFT: usize = 6;

/// O(1) time→edge-index lookup over the epoch's sorted edge-time array.
///
/// `start_of(t)` returns exactly `times.partition_point(|&x| x < t)`
/// — the first edge at or after `t` — but via a bucketed table instead of
/// a binary search. The tracker probes a slot window once per predicted
/// slot of every candidate track (tens of thousands of probes per epoch
/// at ci scale), and the branchy `partition_point` over the edge list was
/// the single largest cost of the folding stage. Every probe takes its
/// start from here rather than from a per-track cursor nudged forward
/// from the epoch's first edge: that is no cheaper per probe, and it
/// steps over every edge up to the track's end — ~15k edges per track on
/// a 1M-sample epoch, most of them between the few slots of a slow-rate
/// track. The index works
/// on the SoA `times` array (not the `EdgeEvent` structs): the probe loop
/// walks times and strengths only, and the struct-of-arrays layout keeps
/// those walks on dense cache lines (see DESIGN.md §15).
#[derive(Debug)]
struct EdgeTimeIndex {
    /// `bucket[b]` = index of the first edge with `time >= b << SHIFT`.
    bucket: Vec<u32>,
    n_edges: usize,
}

impl EdgeTimeIndex {
    fn build(times: &[f64], n_samples: usize) -> Self {
        let nb = (n_samples >> EDGE_INDEX_SHIFT) + 2;
        let n_edges = times.len();
        let mut bucket = vec![n_edges as u32; nb];
        let mut i = 0usize;
        for (b, slot) in bucket.iter_mut().enumerate() {
            let t = (b << EDGE_INDEX_SHIFT) as f64;
            while i < times.len() && times[i] < t {
                i += 1;
            }
            *slot = i as u32;
        }
        EdgeTimeIndex {
            bucket,
            n_edges: times.len(),
        }
    }

    /// First index whose edge time is `>= t`; identical to
    /// `times.partition_point(|&x| x < t)` for the indexed time array.
    fn start_of(&self, times: &[f64], t: f64) -> usize {
        if t <= 0.0 {
            return 0;
        }
        let b = ((t.floor() as usize) >> EDGE_INDEX_SHIFT).min(self.bucket.len() - 1);
        let mut i = self.bucket[b] as usize;
        while i < self.n_edges && times[i] < t {
            i += 1;
        }
        i
    }
}

/// SoA views of one epoch's edge arena, built once per epoch and shared
/// by the blind search and every carve re-track. The tracker's window
/// probes and the fold table touch only times and strengths, and walking
/// them as dense f64 arrays instead of 40-byte `EdgeEvent` structs keeps
/// the hot loops on contiguous cache lines (DESIGN.md §15). The `diff`
/// field is only read by the alias checks, straight from the edges.
#[derive(Debug)]
pub(crate) struct EdgeViews {
    times: Vec<f64>,
    strengths: Vec<f64>,
    index: EdgeTimeIndex,
}

impl EdgeViews {
    /// The views of `edges` (sorted by time) in an `n_samples` capture.
    pub(crate) fn build(edges: &[EdgeEvent], n_samples: usize) -> Self {
        let times: Vec<f64> = edges.iter().map(|e| e.time).collect();
        let strengths = edges.iter().map(|e| e.strength).collect();
        let index = EdgeTimeIndex::build(&times, n_samples);
        EdgeViews {
            times,
            strengths,
            index,
        }
    }
}

/// A stream locked by the folder+tracker.
#[derive(Debug, Clone)]
pub struct TrackedStream {
    /// The stream's rate.
    pub rate: BitRate,
    /// Rate in bits/second.
    pub rate_bps: f64,
    /// Nominal bit period in samples.
    pub nominal_period: f64,
    /// Tracked (drift-corrected) bit period in samples.
    pub period_est: f64,
    /// Time of slot boundary 0 (the stream's first edge — the anchor
    /// rise), in samples.
    pub offset: f64,
    /// Boundary time of every slot, slot 0 first.
    pub slot_times: Vec<f64>,
    /// For each slot, the index (into the epoch's edge list) of the edge
    /// matched there, if any.
    pub matched: Vec<Option<usize>>,
    /// Residual standard deviation around the fitted period line, in
    /// samples (the arbitration quality metric).
    pub residual_std: f64,
    /// What the eye-pattern fold looked like when this stream was seeded:
    /// peak weight, rival peaks, and the single-tag weight ceiling (a
    /// peak above it means two edge trains folded together — the
    /// sub-harmonic fusion signature).
    pub fold: FoldProvenance,
}

impl TrackedStream {
    /// Number of slots tracked.
    pub fn n_slots(&self) -> usize {
        self.slot_times.len()
    }

    /// Number of slots with a matched edge.
    pub fn n_matched(&self) -> usize {
        self.matched.iter().filter(|m| m.is_some()).count()
    }
}

/// Finds and tracks all streams in an epoch's edge list. `n_samples` is
/// the capture length. Edges must be sorted by time (detect_edges output).
///
/// Runs gather→arbitrate rounds: each round folds and tracks over the
/// edges no accepted stream owns yet, then accepts the best candidates.
/// The re-tracking between rounds matters — a weak stream's round-1
/// candidate is contaminated by a strong neighbour's edges (no claiming
/// protects the gather), but once the neighbour is accepted, round 2
/// re-tracks the weak stream over its own edges cleanly.
pub fn find_streams(
    edges: &[EdgeEvent],
    n_samples: usize,
    cfg: &DecoderConfig,
) -> Vec<TrackedStream> {
    let views = EdgeViews::build(edges, n_samples);
    let mut hists = Vec::new();
    let mut admission = Vec::new();
    find_streams_with(edges, &views, n_samples, cfg, &mut hists, &mut admission)
}

/// As [`find_streams`], but over the epoch's prebuilt edge `views`,
/// folding into caller-owned scratch histograms (one per candidate rate,
/// reused across gather rounds) and recording admission-cascade
/// rejections into `admission`.
///
/// The admission gates are *exact* short-circuits — each one skips work
/// only when a cheap bound proves the skipped pass could not have
/// produced a candidate, so the returned streams are bit-identical with
/// the gates on or off; the records make the skips attributable instead
/// of silent.
pub(crate) fn find_streams_with(
    edges: &[EdgeEvent],
    views: &EdgeViews,
    n_samples: usize,
    cfg: &DecoderConfig,
    hists: &mut Vec<FoldedHistogram>,
    admission: &mut Vec<AdmissionRecord>,
) -> Vec<TrackedStream> {
    // Epoch admission gate: a validating track needs MIN_TRACK_MATCHES
    // matched slots and each slot matches a distinct edge, so an epoch
    // with fewer edges than that cannot yield any stream — every
    // candidate the search could seed would fail the `too_few` size gate.
    if edges.len() < MIN_TRACK_MATCHES {
        admission.push(AdmissionRecord {
            gate: AdmissionGate::EpochEdgeCount,
            round: 0,
            rate_bps: None,
            observed: edges.len() as f64,
            required: MIN_TRACK_MATCHES as f64,
        });
        return Vec::new();
    }
    let mut claimed = vec![false; edges.len()];
    // The claimed mask as the current round's gather saw it: the alias
    // checks read this copy, not the mask arbitration is filling.
    let mut gathered: Vec<bool> = Vec::with_capacity(edges.len());
    // One resumable fold table over the whole edge arena: each gather
    // round re-folds the still-active events at every candidate period;
    // claiming a stream's edges retires them from every later fold
    // without rebuilding the event arrays.
    let mut table = FoldTable::with_unit_weights(views.times.clone());
    let mut streams: Vec<TrackedStream> = Vec::new();
    let mut scratch = TrackScratch::default();
    for round in 0..SEARCH_ROUNDS {
        let candidates = gather_round(
            views,
            &claimed,
            &mut table,
            round,
            n_samples,
            cfg,
            hists,
            admission,
            &mut scratch,
        );
        let _span = lf_obs::span!("streams.arbitrate");
        gathered.clone_from(&claimed);
        let mut accepted_any = false;
        for cand in rank(candidates) {
            // Within a round, overlapping candidates lose to the better-
            // ranked one; the next round re-tracks whatever is left.
            if cand.matched.iter().flatten().any(|&i| claimed[i]) {
                continue;
            }
            if !passes_alias_checks(edges, views, &gathered, &cand, cfg, &mut scratch) {
                continue;
            }
            lf_obs::event!(
                Info,
                "accept rate={} offset={:.1} matched={} std={:.2}",
                cand.rate_bps,
                cand.offset,
                cand.n_matched(),
                cand.residual_std
            );
            for &i in cand.matched.iter().flatten() {
                claimed[i] = true;
                table.retire(i);
            }
            streams.push(cand);
            accepted_any = true;
        }
        if !accepted_any {
            break;
        }
    }
    streams
}

/// One gather pass of the blind search: fold the still-unclaimed edges
/// at every admitted rate in one batched pass, then walk a candidate
/// track from each fold peak. Returns the walks that pass the size gates,
/// in rate-plan then peak order; the alias checks are left to
/// arbitration.
#[allow(clippy::too_many_arguments)]
fn gather_round(
    views: &EdgeViews,
    claimed: &[bool],
    table: &mut FoldTable,
    round: usize,
    n_samples: usize,
    cfg: &DecoderConfig,
    hists: &mut Vec<FoldedHistogram>,
    admission: &mut Vec<AdmissionRecord>,
    scratch: &mut TrackScratch,
) -> Vec<TrackedStream> {
    let base = cfg.rate_plan.base_bps();
    let mut rate_folds: Vec<RateFold> = Vec::new();
    let mut specs: Vec<FoldSpec> = Vec::new();
    for &rate in cfg.rate_plan.rates() {
        let rate_bps = rate.bps(base);
        let period = cfg.period_samples(rate_bps);
        // Need at least a handful of bit periods in the capture to
        // lock (a rate-plan/epoch-shape property, not a data gate).
        if period * 4.0 > n_samples as f64 {
            continue;
        }
        let bin_width = cfg.edge_width.max(period / 256.0);
        let nbins = ((period / bin_width).round() as usize).clamp(8, 4096);
        let window_bits = (bin_width / (cfg.drift_tolerance * period)).clamp(8.0, 1e9);
        let window_samples = (window_bits * period).min(n_samples as f64);
        let window_bits_actual = window_samples / period;
        let min_weight = (cfg.min_stream_fill * window_bits_actual * 0.5).max(3.0);
        let end = views.times.partition_point(|&t| t < window_samples);
        let in_window = claimed[..end].iter().filter(|&&c| !c).count();
        // Rate admission gate: with unit weights no fold bin can
        // outweigh the in-window event count, so a count below the
        // peak threshold means the fold could not have produced a
        // single peak — skip folding and tracking for this rate.
        if (in_window as f64) < min_weight {
            admission.push(AdmissionRecord {
                gate: AdmissionGate::RateWindowCount,
                round,
                rate_bps: Some(rate_bps),
                observed: in_window as f64,
                required: min_weight,
            });
            continue;
        }
        rate_folds.push(RateFold {
            rate,
            period,
            bin_width,
            window_bits_actual,
            min_weight,
            end,
        });
        specs.push(FoldSpec {
            period,
            nbins,
            t_max: window_samples,
        });
    }
    // Batched multi-period fold: one pass over the still-active
    // events accumulates every admitted rate's histogram.
    table.fold_many_within_to(&specs, hists);
    let _span = lf_obs::span!("streams.gather");
    let mut candidates = Vec::new();
    for (rf, hist) in rate_folds.iter().zip(hists.iter()) {
        gather_candidates(
            views,
            claimed,
            rf,
            hist,
            n_samples,
            cfg,
            scratch,
            &mut candidates,
        );
    }
    candidates
}

/// Ranks one round's candidates by explanatory power weighted by track
/// quality: matched edges times a Gaussian penalty on residual
/// dispersion. This puts a clean 200-edge stream above both a pristine
/// 7-edge fragment (a slow hypothesis carving a fast stream) and a
/// 270-edge zigzag with several samples of dispersion. Ties (one stream
/// explained at its true rate vs. a divisor rate, both clean) go to the
/// faster rate — the divisor track explains only a subset. The sort is
/// stable, so equal candidates keep their gather order.
fn rank(candidates: Vec<TrackedStream>) -> Vec<TrackedStream> {
    let score = |c: &TrackedStream| {
        let q = (c.residual_std / 3.0).powi(2);
        c.n_matched() as f64 * (-q).exp()
    };
    // Score once per candidate: `n_matched` walks the slot list, so
    // evaluating it inside the comparator would rescan every track
    // O(n log n) times.
    let mut scored: Vec<(f64, TrackedStream)> =
        candidates.into_iter().map(|c| (score(&c), c)).collect();
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then(b.1.rate_bps.total_cmp(&a.1.rate_bps))
    });
    scored.into_iter().map(|(_, c)| c).collect()
}

/// Pre-computed fold/track parameters of one admitted rate hypothesis:
/// everything [`gather_round`] derives before the batched fold, carried
/// over to the gather pass that consumes the histogram.
struct RateFold {
    rate: BitRate,
    /// Nominal bit period in samples.
    period: f64,
    /// Fold bin width in samples.
    bin_width: f64,
    /// Window length in bit periods — the single-tag weight ceiling.
    window_bits_actual: f64,
    /// Minimum peak weight for a candidate lock.
    min_weight: f64,
    /// First edge index at or beyond the drift-safe fold window bound.
    end: usize,
}

/// One gather pass over one admitted rate: read the batch-folded
/// histogram's peaks, seed and track each, and append the candidates that
/// pass the size gates.
#[allow(clippy::too_many_arguments)]
fn gather_candidates(
    views: &EdgeViews,
    claimed: &[bool],
    rf: &RateFold,
    hist: &FoldedHistogram,
    n_samples: usize,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
    candidates: &mut Vec<TrackedStream>,
) {
    let times = &views.times;
    let peaks = hist.peaks(rf.min_weight, 2);
    let mean_weight = hist.bins.iter().sum::<f64>() / hist.bins.len() as f64;
    for (pi, &(bin, weight)) in peaks.iter().enumerate() {
        // Fold provenance for this lock: how the chosen peak compared
        // to its rivals and to what a single tag could produce.
        let runner_up_weight = peaks
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != pi)
            .map(|(_, &(_, w))| w)
            .fold(0.0f64, f64::max);
        let fold = FoldProvenance {
            peak_weight: weight,
            runner_up_weight,
            mean_weight,
            single_tag_ceiling: rf.window_bits_actual,
        };
        let peak_offset = hist.offset_of_bin(bin);
        // Seed: earliest unclaimed edge in the window whose phase sits
        // within ±1.5 bins of the peak.
        let seed = (0..rf.end).filter(|&i| !claimed[i]).find(|&i| {
            let phase = times[i].rem_euclid(rf.period);
            let mut d = (phase - peak_offset).abs();
            d = d.min(rf.period - d);
            d <= 1.5 * rf.bin_width
        });
        let Some(seed_idx) = seed else { continue };
        if let Some(mut tracked) = track_stream(
            views, claimed, seed_idx, rf.rate, rf.period, n_samples, cfg, scratch,
        ) {
            tracked.fold = fold;
            candidates.push(tracked);
        }
    }
}

/// Re-tracks a carved stream at a harmonic of its fused rate, seeded from
/// a known-good edge, matching only unclaimed edges, over the epoch's
/// edge `views` (the ones the blind search used: a dense epoch makes
/// dozens of carve requests, so rebuilding them per call is not free).
/// No structural alias check runs here: the caller's split test already
/// established the harmonic structure, and the residue-majority check
/// would veto exactly the lock the carve is making. The size gates (too
/// few matches, sparse density) still apply.
pub(crate) fn retrack_at_harmonic(
    views: &EdgeViews,
    claimed: &[bool],
    seed_idx: usize,
    rate: BitRate,
    n_samples: usize,
    cfg: &DecoderConfig,
) -> Option<TrackedStream> {
    let nominal_period = cfg.period_samples(rate.bps(cfg.rate_plan.base_bps()));
    track_stream(
        views,
        claimed,
        seed_idx,
        rate,
        nominal_period,
        n_samples,
        cfg,
        &mut TrackScratch::default(),
    )
}

/// The tracker's matching tolerance after `coast` slots without a match.
///
/// The slot prediction is good to ~a sample right after a match, but
/// while *coasting* over flat (no-edge) slots the residual period error
/// compounds — c slots of coasting accumulate up to c × (drift-tolerance
/// × period) of drift. The window therefore grows with the coast length
/// and snaps tight again on every match. (A fixed proportional window —
/// the obvious alternative — is either too tight for sparse slow streams
/// or so wide it hoovers up neighbours' edges and turns the track into
/// junk.)
fn match_tolerance(cfg: &DecoderConfig, nominal_period: f64, coast: usize) -> f64 {
    let base = 2.0 * cfg.edge_width;
    let growth = 2.5 * cfg.drift_tolerance * nominal_period * coast as f64;
    let cap = base.max(nominal_period / 64.0);
    (base + growth).min(cap).max(base)
}

/// Tracks one stream from a seed edge, matching only unclaimed edges.
/// Returns `None` when the walk fails the size gates (too few matches,
/// sparse density). Restores `scratch`'s mask to all-clear on every exit
/// path.
#[allow(clippy::too_many_arguments)]
fn track_stream(
    views: &EdgeViews,
    claimed: &[bool],
    seed_idx: usize,
    rate: BitRate,
    nominal_period: f64,
    n_samples: usize,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
) -> Option<TrackedStream> {
    scratch.reset_for(views.times.len());
    let result = track_stream_impl(
        views,
        claimed,
        seed_idx,
        rate,
        nominal_period,
        n_samples,
        cfg,
        scratch,
    );
    scratch.clear_taken();
    result
}

/// [`track_stream`]'s body; `scratch` arrives with a clear mask and may
/// return with bits set — the wrapper clears them.
#[allow(clippy::too_many_arguments)]
fn track_stream_impl(
    views: &EdgeViews,
    claimed: &[bool],
    seed_idx: usize,
    rate: BitRate,
    nominal_period: f64,
    n_samples: usize,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
) -> Option<TrackedStream> {
    let times = &views.times;
    // The tracked period may deviate from nominal by drift tolerance plus
    // a little measurement slack.
    let max_period_dev = nominal_period * (cfg.drift_tolerance * 2.0) + 0.5;

    let t0 = times[seed_idx];
    let mut period_est = nominal_period;
    let mut t = t0;
    scratch.slot_times.push(t0);
    scratch.matched.push(Some(seed_idx));
    scratch.take(seed_idx);
    let mut k = 0usize;

    let mut coast = 1usize;
    while t + period_est < n_samples as f64 {
        k += 1;
        let pred = t + period_est;
        let tol = match_tolerance(cfg, nominal_period, coast);
        let best = strongest_edge_in(views, claimed, &scratch.taken_mask, pred - tol, pred + tol);
        match best {
            Some(idx) => {
                let et = times[idx];
                // Global-slope period refinement, gated to the physically
                // possible drift range so one mis-association cannot drag
                // the lock away.
                if k >= 4 {
                    let slope = (et - t0) / k as f64;
                    if (slope - nominal_period).abs() <= max_period_dev {
                        period_est = slope;
                    }
                }
                // Advance along the fitted line, nudged only fractionally
                // toward the measured edge: individual edge positions are
                // noisy (the detection differential's peak jitters at low
                // SNR), while crystal drift is a *linear* process the
                // slope absorbs — the line is the better slot-grid
                // estimate, and full snapping lets one bad association
                // zigzag the track.
                t = t0 + k as f64 * period_est + 0.25 * (et - (t0 + k as f64 * period_est));
                scratch.matched.push(Some(idx));
                scratch.take(idx);
                coast = 1;
            }
            None => {
                t = pred;
                scratch.matched.push(None);
                coast += 1;
            }
        }
        scratch.slot_times.push(t);
    }

    // --- Size gates ---
    let matched: &[Option<usize>] = &scratch.matched;
    let n_matched = matched.iter().filter(|m| m.is_some()).count();
    if n_matched < MIN_TRACK_MATCHES {
        lf_obs::event!(
            Debug,
            "reject rate={} t0={:.1} n={} reason=too_few",
            rate.bps(cfg.rate_plan.base_bps()),
            t0,
            n_matched
        );
        return None;
    }
    // Matched density within the active span (frames can end before the
    // epoch does; trailing silence is fine, sparse matches inside the
    // active span are not).
    let last_matched_slot = matched.iter().rposition(|m| m.is_some()).unwrap_or(0);
    let density = n_matched as f64 / (last_matched_slot + 1) as f64;
    if density < 0.15 {
        lf_obs::event!(
            Debug,
            "reject rate={} t0={:.1} n={} reason=density",
            rate.bps(cfg.rate_plan.base_bps()),
            t0,
            n_matched
        );
        return None;
    }
    // Residual dispersion around the fitted line — the arbitration
    // quality metric. Iterates the match buffer directly (in slot order,
    // exactly the order the old materialized pair list had) so the sums
    // are bit-identical without building a temporary Vec per candidate.
    let residual_of = |slot: usize, idx: usize| times[idx] - (t0 + slot as f64 * period_est);
    let mut res_sum = 0.0f64;
    for (slot, mm) in matched.iter().enumerate() {
        if let Some(idx) = *mm {
            res_sum += residual_of(slot, idx);
        }
    }
    let mean_res = res_sum / n_matched as f64;
    let mut var_sum = 0.0f64;
    for (slot, mm) in matched.iter().enumerate() {
        if let Some(idx) = *mm {
            let r = residual_of(slot, idx) - mean_res;
            var_sum += r * r;
        }
    }
    let residual_std = (var_sum / n_matched as f64).sqrt();

    Some(TrackedStream {
        rate,
        rate_bps: rate.bps(cfg.rate_plan.base_bps()),
        nominal_period,
        period_est,
        offset: t0,
        slot_times: scratch.slot_times.clone(),
        matched: scratch.matched.clone(),
        residual_std,
        // The caller (gather_candidates) fills this in from the fold peak
        // that seeded the track.
        fold: FoldProvenance::default(),
    })
}

/// The structural alias checks (module docs) on a candidate arbitration
/// is about to accept. `claimed` is the claimed mask as the candidate's
/// gather round saw it; the candidate's own taken set is rebuilt in
/// `scratch` from its `matched` list, which holds exactly the edges its
/// walk took. Returns `false` when the candidate is an alias of another
/// rate (or of interleaved same-rate streams). Restores `scratch`'s mask
/// to all-clear.
fn passes_alias_checks(
    edges: &[EdgeEvent],
    views: &EdgeViews,
    claimed: &[bool],
    cand: &TrackedStream,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
) -> bool {
    scratch.reset_for(edges.len());
    for &i in cand.matched.iter().flatten() {
        scratch.take(i);
    }
    let pass = alias_checks_pass(edges, views, claimed, &scratch.taken_mask, cand, cfg);
    scratch.clear_taken();
    pass
}

/// [`passes_alias_checks`]'s body over the candidate's rebuilt
/// `taken_mask`.
fn alias_checks_pass(
    edges: &[EdgeEvent],
    views: &EdgeViews,
    claimed: &[bool],
    taken_mask: &[bool],
    cand: &TrackedStream,
    cfg: &DecoderConfig,
) -> bool {
    let times = &views.times;
    let matched: &[Option<usize>] = &cand.matched;
    let slot_times: &[f64] = &cand.slot_times;
    let rate = cand.rate;
    let t0 = cand.offset;
    let n_matched = cand.n_matched();
    // Rate-alias check: when (almost) all matched slot indices fall into
    // one residue class mod m ≥ 2, the edges are really an m×-slower
    // stream folded onto this rate's grid. A strict gcd test would be
    // defeated by a single stray noise match, so require only an 85 %
    // majority.
    for m in [2usize, 3, 4, 5] {
        let mut counts = [0usize; 5];
        for (slot, mm) in matched.iter().enumerate() {
            if mm.is_some() {
                counts[slot % m] += 1;
            }
        }
        let majority = counts[..m].iter().copied().max().unwrap_or(0);
        if majority as f64 >= 0.85 * n_matched as f64 {
            lf_obs::event!(
                Debug,
                "reject rate={} t0={:.1} n={} reason=residue_majority",
                cand.rate_bps,
                t0,
                n_matched
            );
            return false;
        }
    }
    // The residuals around the fitted line, as the tracker measured them.
    let residual_of = |slot: usize, idx: usize| times[idx] - (t0 + slot as f64 * cand.period_est);

    // Super-rate (up-alias) check: a stream at rate m·r lands an edge on
    // every m-th boundary of the rate-r grid, so a rate-r hypothesis over
    // it looks perfectly healthy — while explaining only 1/m of the
    // edges. The tell: the *inter-slot* positions (slot + j·period/m)
    // hold about as many unexplained edges as the track matched. Reject
    // and let the faster hypothesis claim the stream whole.
    for m in [2usize, 3] {
        let Ok(sup) = BitRate::from_multiple(rate.multiple().saturating_mul(m as u32)) else {
            continue;
        };
        if !cfg.rate_plan.contains(sup) {
            continue;
        }
        let sub_period = cand.nominal_period / m as f64;
        let probe = match_tolerance(cfg, cand.nominal_period, 1);
        let mut between_diffs: Vec<lf_types::Complex> = Vec::new();
        // A genuine up-alias matches essentially every inter-slot
        // position, so the hit count must reach 70 % of the probes. The
        // count is monotone in positions processed; the moment even a hit
        // on every remaining position cannot reach the bar, the verdict
        // ("not an alias") is already decided and the rest of the scan is
        // skipped — same decision, a fraction of the probes.
        let needed = 0.7 * ((m - 1) * n_matched) as f64;
        let total_positions = slot_times.len() * (m - 1);
        let mut processed = 0usize;
        let mut decided_pass = true;
        'positions: for &t in slot_times {
            for j in 1..m {
                if ((between_diffs.len() + (total_positions - processed)) as f64) < needed {
                    decided_pass = false;
                    break 'positions;
                }
                let pos = t + j as f64 * sub_period;
                let start = views.index.start_of(times, pos - probe);
                for (i, &et) in times.iter().enumerate().skip(start) {
                    if et > pos + probe {
                        break;
                    }
                    if !claimed[i] && !taken_mask[i] {
                        between_diffs.push(edges[i].diff);
                        break;
                    }
                }
                processed += 1;
            }
        }
        if !decided_pass || (between_diffs.len() as f64) < needed {
            continue;
        }
        // The between-edges must be the *same tag's* (one shared edge
        // vector): an independent same-rate neighbour that happens to sit
        // half a period away has its own channel vector, and must not
        // trigger this rejection.
        let mut union: Vec<lf_types::Complex> = matched
            .iter()
            .flatten()
            .map(|&idx| edges[idx].diff)
            .collect();
        union.extend(between_diffs);
        if collinearity_ratio(&union) < 0.1 {
            return false;
        }
    }

    // Interleave-alias check: m same-rate streams whose offsets sit
    // roughly period/m apart can track as one m×-rate stream with every
    // slot matched. The signature that separates a true interleave from a
    // genuine stream (or from a genuine stream occasionally contaminated
    // by a cross-rate neighbour) is the *conjunction* of:
    //
    //  (a) each slot-residue partition's edge diffs are collinear — each
    //      partition is one tag's ±e line (a contaminated true stream
    //      mixes pure and merged vectors inside a partition and fails
    //      this);
    //  (b) the partitions differ — either in direction (whole-set
    //      direction diversity) or in timing (per-residue band means sit
    //      at the tags' distinct sub-grid offsets).
    //
    // Requiring (a) AND (b) catches half-period interleaves with
    // distinct or near-parallel channel vectors, while leaving mixed-rate
    // deployments (where a 50 kbps neighbour periodically lands on one
    // parity of a 100 kbps stream) alone.
    if n_matched >= 6 {
        // The whole-set diversity scatter costs a `hypot` per matched
        // edge; it only matters once a partition passes (a), which most
        // candidates never reach — compute it on first use and cache.
        let mut whole_diverse_cache: Option<bool> = None;
        let mut whole_diverse = || {
            *whole_diverse_cache.get_or_insert_with(|| {
                let all: Vec<lf_types::Complex> = matched
                    .iter()
                    .flatten()
                    .map(|&idx| edges[idx].diff)
                    .collect();
                collinearity_ratio(&all) > 0.2
            })
        };
        for m in [2usize, 3] {
            if !rate.multiple().is_multiple_of(m as u32) {
                continue;
            }
            let Ok(sub) = BitRate::from_multiple(rate.multiple() / m as u32) else {
                continue;
            };
            if !cfg.rate_plan.contains(sub) {
                continue;
            }
            // (a) per-partition collinearity.
            let mut parts: Vec<Vec<lf_types::Complex>> = vec![Vec::new(); m];
            for (slot, mm) in matched.iter().enumerate() {
                if let Some(idx) = *mm {
                    parts[slot % m].push(edges[idx].diff);
                }
            }
            let populated = parts.iter().filter(|p| p.len() >= 2).count();
            let all_collinear = populated >= 2
                && parts
                    .iter()
                    .filter(|p| p.len() >= 2)
                    .all(|p| collinearity_ratio(p) < 0.1);
            if !all_collinear {
                continue;
            }
            // (b) timing bands.
            let mut sums = vec![(0.0f64, 0usize); m];
            for (slot, mm) in matched.iter().enumerate() {
                if let Some(idx) = *mm {
                    let g = slot % m;
                    sums[g].0 += residual_of(slot, idx);
                    sums[g].1 += 1;
                }
            }
            let means: Vec<f64> = sums
                .iter()
                .filter(|(_, c)| *c >= 3)
                .map(|(sum, c)| sum / *c as f64)
                .collect();
            let timing_banded = means.len() >= 2 && {
                let hi = means.iter().copied().fold(f64::MIN, f64::max);
                let lo = means.iter().copied().fold(f64::MAX, f64::min);
                hi - lo > 2.0
            };
            if timing_banded || whole_diverse() {
                lf_obs::event!(
                    Debug,
                    "reject rate={} t0={:.1} n={} reason=interleave",
                    cand.rate_bps,
                    t0,
                    n_matched
                );
                return false;
            }
        }
    }
    true
}

/// Strongest unclaimed edge in `[lo, hi]` not already taken by this
/// track (`taken_mask` is epoch-edge indexed). Times are sorted, so the
/// window is one [`EdgeTimeIndex::start_of`] lookup — exactly the
/// partition point of `lo` — plus a short scan over the SoA arrays.
fn strongest_edge_in(
    views: &EdgeViews,
    claimed: &[bool],
    taken_mask: &[bool],
    lo: f64,
    hi: f64,
) -> Option<usize> {
    let (times, strengths) = (&views.times, &views.strengths);
    let start = views.index.start_of(times, lo);
    let mut best: Option<usize> = None;
    for (i, &t) in times.iter().enumerate().skip(start) {
        if t > hi {
            break;
        }
        if claimed[i] || taken_mask[i] {
            continue;
        }
        if best.is_none_or(|b| strengths[i] > strengths[b]) {
            best = Some(i);
        }
    }
    best
}

/// Sign-invariant collinearity of a set of IQ vectors: the ratio λ₂/λ₁ of
/// the eigenvalues of the outer-product scatter matrix Σ v·vᵀ. Vectors all
/// along one line (in either direction) give ≈0; two distinct directions
/// give O(1).
fn collinearity_ratio(vs: &[lf_types::Complex]) -> f64 {
    let (mut sxx, mut sxy, mut syy) = (0.0f64, 0.0f64, 0.0f64);
    for v in vs {
        // Unit directions: without normalization a strong tag's scatter
        // drowns a weak orthogonal tag's, and the mix reads "collinear".
        let n = v.abs();
        if n < 1e-12 {
            continue;
        }
        let (re, im) = (v.re / n, v.im / n);
        sxx += re * re;
        sxy += re * im;
        syy += im * im;
    }
    let trace = sxx + syy;
    if trace <= 0.0 {
        return 0.0;
    }
    let d = ((sxx - syy).powi(2) + 4.0 * sxy * sxy).sqrt();
    let l1 = 0.5 * (trace + d);
    let l2 = 0.5 * (trace - d);
    if l1 <= 0.0 {
        0.0
    } else {
        (l2 / l1).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    // Tests assert exact values deliberately: decoded rates are drawn from
    // a discrete set and must match identically, not approximately.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::edges::detect_edges;
    use lf_types::{Complex, RatePlan, SampleRate};
    use proptest::prelude::*;

    fn cfg() -> DecoderConfig {
        let mut c = DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0));
        c.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 20_000.0, 40_000.0]).unwrap();
        c
    }

    /// The search in its old order, as the reference for the
    /// acceptance-time alias checks: every gathered candidate is checked
    /// straight after the gather, against the claims the gather saw, and
    /// arbitration accepts without checking.
    fn find_streams_eager(
        edges: &[EdgeEvent],
        n_samples: usize,
        cfg: &DecoderConfig,
    ) -> Vec<TrackedStream> {
        let views = EdgeViews::build(edges, n_samples);
        let mut claimed = vec![false; edges.len()];
        let mut table = FoldTable::with_unit_weights(views.times.clone());
        let mut scratch = TrackScratch::default();
        let (mut hists, mut admission) = (Vec::new(), Vec::new());
        let mut streams = Vec::new();
        for round in 0..SEARCH_ROUNDS {
            let mut candidates = gather_round(
                &views,
                &claimed,
                &mut table,
                round,
                n_samples,
                cfg,
                &mut hists,
                &mut admission,
                &mut scratch,
            );
            candidates
                .retain(|c| passes_alias_checks(edges, &views, &claimed, c, cfg, &mut scratch));
            let mut accepted_any = false;
            for cand in rank(candidates) {
                if cand.matched.iter().flatten().any(|&i| claimed[i]) {
                    continue;
                }
                for &i in cand.matched.iter().flatten() {
                    claimed[i] = true;
                    table.retire(i);
                }
                streams.push(cand);
                accepted_any = true;
            }
            if !accepted_any {
                break;
            }
        }
        streams
    }

    /// Every field of every stream as its exact bit pattern.
    fn stream_bits(streams: &[TrackedStream]) -> Vec<u64> {
        let mut out = vec![streams.len() as u64];
        for s in streams {
            out.extend([
                u64::from(s.rate.multiple()),
                s.rate_bps.to_bits(),
                s.nominal_period.to_bits(),
                s.period_est.to_bits(),
                s.offset.to_bits(),
                s.residual_std.to_bits(),
                s.fold.peak_weight.to_bits(),
                s.fold.runner_up_weight.to_bits(),
                s.fold.mean_weight.to_bits(),
                s.fold.single_tag_ceiling.to_bits(),
                s.slot_times.len() as u64,
            ]);
            out.extend(s.slot_times.iter().map(|t| t.to_bits()));
            out.extend(s.matched.iter().map(|m| m.map_or(u64::MAX, |i| i as u64)));
        }
        out
    }

    /// [`find_streams`], checked on the way against the eager-check
    /// reference bit for bit.
    fn search(edges: &[EdgeEvent], n_samples: usize, cfg: &DecoderConfig) -> Vec<TrackedStream> {
        let streams = find_streams(edges, n_samples, cfg);
        assert_eq!(
            stream_bits(&streams),
            stream_bits(&find_streams_eager(edges, n_samples, cfg)),
            "acceptance-time alias checks diverged from eager ones"
        );
        streams
    }

    /// Edge events of an NRZ stream with given bits, period, offset.
    fn stream_edges(bits: &[bool], offset: f64, period: f64, h: Complex) -> Vec<EdgeEvent> {
        let mut level = false;
        let mut out = Vec::new();
        for (k, &b) in bits.iter().enumerate() {
            if b != level {
                let diff = if b { h } else { -h };
                out.push(EdgeEvent {
                    time: offset + k as f64 * period,
                    diff,
                    strength: diff.abs(),
                });
                level = b;
            }
        }
        out
    }

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|k| k % 2 == 0).collect()
    }

    fn merge(mut a: Vec<EdgeEvent>, b: Vec<EdgeEvent>) -> Vec<EdgeEvent> {
        a.extend(b);
        a.sort_by(|x, y| x.time.partial_cmp(&y.time).unwrap());
        a
    }

    #[test]
    fn single_stream_locked_and_fully_matched() {
        let c = cfg();
        let period = 100.0; // 10 kbps at 1 Msps
        let bits = alternating(200);
        let edges = stream_edges(&bits, 57.0, period, Complex::new(0.1, 0.05));
        let streams = search(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.rate_bps, 10_000.0);
        assert!((s.offset - 57.0).abs() < 1.0);
        assert_eq!(s.n_matched(), edges.len());
        assert!(
            s.residual_std < 0.5,
            "clean stream residual {}",
            s.residual_std
        );
    }

    #[test]
    fn two_rates_both_locked() {
        let c = cfg();
        let fast = stream_edges(&alternating(400), 31.0, 50.0, Complex::new(0.1, 0.0));
        let slow = stream_edges(&alternating(100), 83.0, 200.0, Complex::new(0.0, 0.1));
        let n_fast = fast.len();
        let n_slow = slow.len();
        let edges = merge(fast, slow);
        let streams = search(&edges, 21_000, &c);
        assert_eq!(streams.len(), 2);
        let mut rates: Vec<f64> = streams.iter().map(|s| s.rate_bps).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rates, vec![5_000.0, 20_000.0]);
        let fast_s = streams.iter().find(|s| s.rate_bps == 20_000.0).unwrap();
        let slow_s = streams.iter().find(|s| s.rate_bps == 5_000.0).unwrap();
        assert_eq!(fast_s.n_matched(), n_fast);
        assert_eq!(slow_s.n_matched(), n_slow);
    }

    #[test]
    fn slow_stream_not_claimed_by_fast_hypothesis() {
        // A 5 kbps stream (period 200) folds perfectly at period 100 and
        // 50 too; the residue-majority check must push it down to its true
        // rate.
        let mut c = cfg();
        c.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 20_000.0]).unwrap();
        let edges = stream_edges(&alternating(100), 40.0, 200.0, Complex::new(0.1, 0.0));
        let streams = search(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].rate_bps, 5_000.0);
    }

    #[test]
    fn fast_stream_not_degraded_to_slow_alias() {
        // A 10 kbps stream also produces a perfect-quality 5 kbps
        // candidate (every second edge on the slow grid). Arbitration's
        // rate tie-break must hand the edges to the fast owner.
        let c = cfg();
        let edges = stream_edges(&alternating(200), 40.0, 100.0, Complex::new(0.1, 0.0));
        let streams = search(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].rate_bps, 10_000.0);
    }

    #[test]
    fn same_rate_distinct_offsets_are_two_streams() {
        let c = cfg();
        let a = stream_edges(&alternating(200), 20.0, 100.0, Complex::new(0.1, 0.0));
        let b = stream_edges(&alternating(200), 70.0, 100.0, Complex::new(0.0, 0.1));
        let edges = merge(a, b);
        let streams = search(&edges, 21_000, &c);
        assert_eq!(streams.len(), 2);
        let mut offsets: Vec<f64> = streams.iter().map(|s| s.offset).collect();
        offsets.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((offsets[0] - 20.0).abs() < 1.0);
        assert!((offsets[1] - 70.0).abs() < 1.0);
    }

    #[test]
    fn half_period_interleave_not_fused_into_double_rate() {
        // Two 10 kbps streams offset by exactly half a period look like
        // one 20 kbps stream in time; their non-collinear IQ diffs (or
        // timing bands) must split them.
        let c = cfg();
        let a = stream_edges(&alternating(200), 20.0, 100.0, Complex::new(0.1, 0.0));
        let b = stream_edges(&alternating(200), 70.0, 100.0, Complex::new(0.0, 0.1));
        let edges = merge(a, b);
        let streams = search(&edges, 21_000, &c);
        assert!(streams.iter().all(|s| s.rate_bps == 10_000.0));
        assert_eq!(streams.len(), 2);
    }

    #[test]
    fn drift_is_tracked_across_the_epoch() {
        let c = cfg();
        // 200 ppm fast clock: period 100.02 instead of 100. Over 200 bits
        // the phase moves 4 samples — more than an edge width.
        let period = 100.02;
        let bits = alternating(200);
        let edges = stream_edges(&bits, 57.0, period, Complex::new(0.1, 0.05));
        let streams = search(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.n_matched(), edges.len(), "drift broke the lock");
        assert!(
            (s.period_est - period).abs() < 0.01,
            "period {}",
            s.period_est
        );
    }

    #[test]
    fn sparse_toggles_still_lock() {
        // Payload with toggles on ~1/3 of boundaries (but co-prime slot
        // gaps so the alias check passes).
        let bits: Vec<bool> = (0..300).map(|k| (k % 7 < 3) ^ (k % 11 < 5)).collect();
        let edges = stream_edges(&bits, 25.0, 100.0, Complex::new(0.1, 0.0));
        let streams = search(&edges, 31_000, &cfg());
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].rate_bps, 10_000.0);
    }

    #[test]
    fn noise_edges_do_not_form_streams() {
        // Pseudo-random edge times with no periodic structure.
        let mut edges: Vec<EdgeEvent> = (0..60)
            .map(|k| {
                let t = ((k as f64 * 997.13).sin().abs() * 20_000.0).max(1.0);
                EdgeEvent {
                    time: t,
                    diff: Complex::new(0.05, 0.0),
                    strength: 0.05,
                }
            })
            .collect();
        edges.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
        let streams = search(&edges, 21_000, &cfg());
        assert!(
            streams.is_empty(),
            "noise produced {} streams",
            streams.len()
        );
    }

    #[test]
    fn missed_edges_leave_unmatched_slots() {
        // Remove every 5th edge: the tracker must coast over the gaps.
        let bits = alternating(200);
        let full = stream_edges(&bits, 57.0, 100.0, Complex::new(0.1, 0.05));
        let total = full.len();
        let edges: Vec<EdgeEvent> = full
            .into_iter()
            .enumerate()
            .filter_map(|(i, e)| (i % 5 != 2).then_some(e))
            .collect();
        let streams = search(&edges, 21_000, &cfg());
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.n_matched(), total - total.div_ceil(5));
        assert!(s.n_slots() >= 199);
    }

    #[test]
    fn merged_pile_tracks_at_true_rate() {
        // Three tags at the same rate within a few samples of each other:
        // the pile must be claimed at 10 kbps (one merged track), not at a
        // faster alias, and not dropped entirely.
        let c = cfg();
        let mut all = Vec::new();
        for (k, off) in [(0u64, 50.0), (1, 54.0), (2, 58.0)] {
            let bits: Vec<bool> = (0..200)
                .map(|i| i == 0 || ((i as u64 * 31 + k * 17) % 5) < 2)
                .collect();
            let h = Complex::from_polar(0.1, 0.9 * k as f64 + 0.2);
            all = merge(all, stream_edges(&bits, off, 100.0, h));
        }
        let streams = search(&all, 21_000, &c);
        // The pile's primary claim must be at 10 kbps with its phase.
        let primary = streams
            .iter()
            .max_by_key(|s| s.n_matched())
            .expect("pile dropped entirely");
        assert_eq!(primary.rate_bps, 10_000.0, "primary claim at wrong rate");
        assert!(
            (45.0..65.0).contains(&primary.offset),
            "offset {}",
            primary.offset
        );
        // Nothing may be claimed at a *faster* rate (zigzag), and the
        // primary must own the majority of the pile's edges. Leftover
        // companion edges may form slower phantom streams — those fail
        // their CRCs downstream and are a documented false-positive mode.
        assert!(streams.iter().all(|s| s.rate_bps <= 10_000.0));
        assert!(primary.n_matched() * 2 >= all.len() / 3);
    }

    #[test]
    fn residual_std_reported() {
        let edges = stream_edges(&alternating(100), 20.0, 100.0, Complex::new(0.1, 0.0));
        let streams = search(&edges, 11_000, &cfg());
        assert_eq!(streams.len(), 1);
        assert!(streams[0].residual_std < 0.1);
    }

    #[test]
    fn alias_checks_reject_at_acceptance() {
        // The scene of `slow_stream_not_claimed_by_fast_hypothesis`: the
        // 10 kbps walk over the 5 kbps stream explains the same edges as
        // the true lock and wins the rate tie-break, so it reaches
        // acceptance, where the residue-majority check drops it.
        let mut c = cfg();
        c.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 20_000.0]).unwrap();
        let edges = stream_edges(&alternating(100), 40.0, 200.0, Complex::new(0.1, 0.0));
        let views = EdgeViews::build(&edges, 21_000);
        let claimed = vec![false; edges.len()];
        let mut table = FoldTable::with_unit_weights(views.times.clone());
        let mut scratch = TrackScratch::default();
        let ranked = rank(gather_round(
            &views,
            &claimed,
            &mut table,
            0,
            21_000,
            &c,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut scratch,
        ));
        let first = ranked.first().expect("candidates gathered");
        assert!(
            first.rate_bps > 5_000.0,
            "alias ranks first: {}",
            first.rate_bps
        );
        assert!(!passes_alias_checks(
            &edges,
            &views,
            &claimed,
            first,
            &c,
            &mut scratch
        ));
        assert_eq!(search(&edges, 21_000, &c)[0].rate_bps, 5_000.0);
    }

    /// A deterministic multi-tag NRZ capture: each tag contributes `h`
    /// while its bit is set, with instant edges on its own slot grid,
    /// plus xorshift pseudo-noise.
    fn scene(tags: &[(f64, f64, usize, f64)], noise: f64, seed: u64, n: usize) -> Vec<Complex> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let bit_of = |seed: u64, k: usize| -> bool {
            let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (k as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            s ^= s >> 31;
            s & 1 == 1
        };
        (0..n)
            .map(|t| {
                let mut s = Complex::new(next() * noise, next() * noise);
                for (ti, &(re, im, period, offset_frac)) in tags.iter().enumerate() {
                    let offset = (offset_frac * period as f64) as usize;
                    let k = (t + period - offset % period) / period;
                    if bit_of(seed ^ ((ti as u64) << 17), k) {
                        s += Complex::new(re, im);
                    }
                }
                s
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 32 }))]

        /// Alias checks at acceptance find the same streams as checks
        /// straight after the gather, across multi-tag captures at the
        /// plan's rates and their harmonics.
        #[test]
        fn acceptance_checks_match_eager_checks(
            tags in proptest::collection::vec(
                (-0.25f64..0.25, -0.25f64..0.25, 0usize..4, 0.0f64..1.0),
                1..5,
            ),
            noise in 0.0f64..0.01,
            seed in 1u64..1_000_000,
        ) {
            // Periods of 25, 50, 100 and 200 samples: the plan's rates.
            let tags: Vec<(f64, f64, usize, f64)> = tags
                .into_iter()
                .map(|(re, im, p, off)| (re, im, 25 << p, off))
                .collect();
            let c = cfg();
            let signal = scene(&tags, noise, seed, 6000);
            let edges = detect_edges(&signal, &c);
            prop_assume!(edges.len() >= MIN_TRACK_MATCHES);
            search(&edges, signal.len(), &c);
        }
    }
}
