//! The decode runner: the paper's stages, plus the sub-harmonic carve,
//! called in a fixed order over a shared per-epoch context.
//!
//! The paper's reader is a five-stage pipeline (§3.1–§3.5). One linear
//! pass cannot express the sub-harmonic recovery the ROADMAP calls for:
//! when two tags' edge trains fuse at a shared sub-harmonic, the fix
//! requires re-tracking on the residual edges *after* the cluster
//! analysis has seen the fused stream. So the runner has one back edge:
//!
//! ```text
//! edges → folding → slots → separation → decode → carve ─┐
//!            ▲                                            │
//!            └──────── re-track (≤ MAX_REENTRIES) ◄───────┘
//! ```
//!
//! * Six private stage functions — `edges`, `folding`, `slots`,
//!   `separation`, `decode`, `carve` — each read and write the
//!   `EpochContext`: the borrowed IQ view (never cloned), the caller's
//!   [`DecodeScratch`], the edge list, tracked streams, per-stream slot
//!   units, the carve bookkeeping, and the assembled outputs.
//! * `run` — the runner. It calls the stages in order, bounds the
//!   carve's re-entries, and is the *single* instrumentation point: one
//!   installed obs context, one stopwatch per stage execution (a re-run
//!   stage accumulates into the same [`StageTimings`] slot), and every
//!   other view derived from that one measurement — the stage spans close
//!   with it and the `pipeline.stage.*` histograms record it. Provenance
//!   is assembled once at the end. [`crate::pipeline::Decoder`] is a thin
//!   facade over this runner, and all of the above is crate-private.
//!
//! The sixth stage implements sub-harmonic carving: when a tracked
//! stream's fold was ambiguous (two edge trains in one histogram) and the
//! cluster analysis could not explain it as a 2-tag collision, the carve
//! collects the unclaimed residual edges along the stream's own channel
//! direction, re-folds them at candidate harmonics of the fused rate, and
//! — if a harmonic explains them — the runner re-tracks the stream at that
//! harmonic without the structural alias checks (timed as folding) and
//! runs stages 3–6 again. The attempt is recorded as a
//! [`CarveProvenance`] either way.
//!
//! A re-run redoes only what the re-track changed. `slots` keeps each
//! stream's unit from the previous pass unless the stream's track was
//! replaced or an edge whose owner changed moved in or out of its
//! foreign-edge list, and `separation` analyses only the units `slots`
//! recomputed. `decode` and `carve` still run over every stream. This is
//! exact: a unit is a pure function of its track, its foreign-edge list,
//! the prefix sums and the config, and the foreign-edge list is a pure
//! function of each edge's foreign-or-not membership for the stream.

use crate::config::DecoderConfig;
use crate::decode::{decode_member_traced, decode_single_traced};
use crate::edges::{detect_edges_with, EdgeEvent};
use crate::pipeline::{DecodedStream, EpochDecode, StageTimings, StreamKind};
use crate::provenance::{
    AdmissionRecord, AnchorOutcome, CarveProvenance, DecodeProvenance, SeparationProvenance,
    StreamProvenance,
};
use crate::scratch::DecodeScratch;
use crate::separate::{analyze_slots_with, StreamAnalysis};
use crate::slots::{
    edge_owners_into, foreign_edges_into, slot_cleanliness, slot_differentials, ForeignTest,
};
use crate::streams::{find_streams_with, retrack_at_harmonic, EdgeViews, TrackedStream};
use lf_dsp::checks;
use lf_dsp::fold::FoldTable;
use lf_obs::{Counter, Histogram, ObsContext, SpanGuard};
use lf_types::{BitRate, BitVec, Complex};
use std::time::{Duration, Instant};

/// Number of decode stages (the length of the [`StageTimings`] per-stage
/// array).
pub const STAGE_COUNT: usize = 6;

/// Stage names in execution order, index-aligned with the
/// [`StageTimings`] per-stage slots, the spans and the metrics below.
pub(crate) const STAGE_NAMES: [&str; STAGE_COUNT] =
    ["edges", "folding", "slots", "separation", "decode", "carve"];

/// Span recorded around every execution of each stage.
const SPAN_NAMES: [&str; STAGE_COUNT] = [
    "pipeline.edges",
    "pipeline.folding",
    "pipeline.slots",
    "pipeline.separation",
    "pipeline.decode",
    "pipeline.carve",
];

/// Histogram recording each stage's per-epoch latency.
const METRIC_NAMES: [&str; STAGE_COUNT] = [
    "pipeline.stage.edges.ns",
    "pipeline.stage.folding.ns",
    "pipeline.stage.slots.ns",
    "pipeline.stage.separation.ns",
    "pipeline.stage.decode.ns",
    "pipeline.stage.carve.ns",
];

// Each stage's index into the arrays above and the timing slots.
const EDGES: usize = 0;
const FOLDING: usize = 1;
const SLOTS: usize = 2;
const SEPARATION: usize = 3;
const DECODE: usize = 4;
const CARVE: usize = 5;

/// Upper bound on carve re-runs per epoch, so a buggy split test cannot
/// loop the decode forever.
const MAX_REENTRIES: usize = 4;

/// Minimum residual edges required before a carve is even attempted, and
/// minimum *additional* matched slots the re-tracked stream must explain
/// before it replaces the fused track. Both gates protect healthy decodes
/// from noise-edge false carves.
const MIN_CARVE_EVIDENCE: usize = 3;
const MIN_CARVE_GAIN: usize = 3;

/// Residual edges must align with the stream's own channel direction
/// (|cos| of the angle between unit vectors) to count as carve evidence —
/// another tag's off-grid edges must not feed this stream's split test.
const CARVE_DIR_ALIGN: f64 = 0.85;

/// A sub-harmonic carve chosen by the carve stage, for the runner to
/// re-track.
#[derive(Debug, Clone)]
struct CarveRequest {
    /// Index into [`EpochContext::tracked`] of the fused stream.
    stream: usize,
    /// Harmonic multiple the split test chose (new rate = m × fused rate).
    harmonic: u32,
    /// Residual edges supporting the carve.
    n_residual: usize,
    /// Peak weight of the residual re-fold at the sub-period.
    residual_peak: f64,
}

/// Per-stream slot-level working state (stages 3–4 outputs).
#[derive(Debug, Clone)]
struct StreamUnit {
    /// Per-slot IQ differentials (stage 3).
    diffs: Vec<Complex>,
    /// Per-slot cleanliness mask (stage 3).
    clean: Vec<bool>,
    /// Cluster analysis and its provenance (stage 4).
    analysis: Option<(StreamAnalysis, SeparationProvenance)>,
}

/// Shared per-epoch decode state: the borrowed IQ view, the caller's
/// scratch, the edge arena, tracked streams, per-stream slot units, carve
/// bookkeeping, and the assembled outputs. Stages communicate exclusively
/// through this context; the capture itself is borrowed for the whole
/// decode and never cloned (the runner owns the one sanitized copy that a
/// NaN-poisoned capture forces).
#[derive(Debug)]
struct EpochContext<'a> {
    cfg: &'a DecoderConfig,
    signal: &'a [Complex],
    /// The caller's reusable buffers. Its prefix sums are built once by
    /// the runner and shared by the edges and slots stages (the hot-path
    /// contract: no stage rebuilds them — see the `no-epoch-rescan`
    /// lint).
    scratch: &'a mut DecodeScratch,
    edges: Vec<EdgeEvent>,
    /// SoA views of `edges`, built once by the folding stage and shared
    /// by the blind search and every carve re-track.
    views: EdgeViews,
    /// Admission-cascade rejections recorded by the edges and folding
    /// stages (goes into [`DecodeProvenance::admission`]).
    admission: Vec<AdmissionRecord>,
    tracked: Vec<TrackedStream>,
    /// Per-tracked-stream slot unit of the last slots pass; `None` until
    /// computed, and again once a carve replaces the stream's track.
    units: Vec<Option<StreamUnit>>,
    /// The edge→owner array the kept `units` were computed against.
    unit_owner: Vec<Option<usize>>,
    outputs: Vec<(DecodedStream, StreamProvenance)>,
    /// Per-tracked-stream: whether a carve was already requested for it
    /// (one attempt per stream per epoch).
    carve_attempted: Vec<bool>,
    /// Per-tracked-stream carve record, populated by the re-track.
    carves: Vec<Option<CarveProvenance>>,
}

impl<'a> EpochContext<'a> {
    /// Starts an epoch over an already-sanitized `signal`: builds the one
    /// prefix-sum pass the edges and slots stages share, and leaves every
    /// other field empty for the stages to fill.
    fn new(cfg: &'a DecoderConfig, signal: &'a [Complex], scratch: &'a mut DecodeScratch) -> Self {
        scratch.prefix.rebuild(signal);
        EpochContext {
            cfg,
            signal,
            scratch,
            edges: Vec::new(),
            views: EdgeViews::build(&[], 0),
            admission: Vec::new(),
            tracked: Vec::new(),
            units: Vec::new(),
            unit_owner: Vec::new(),
            outputs: Vec::new(),
            carve_attempted: Vec::new(),
            carves: Vec::new(),
        }
    }

    /// The finished epoch: decoded streams, counts and provenance.
    fn into_decode(self) -> EpochDecode {
        let (streams, stream_provs): (Vec<_>, Vec<_>) = self.outputs.into_iter().unzip();
        EpochDecode {
            streams,
            n_edges: self.edges.len(),
            n_tracked: self.tracked.len(),
            provenance: DecodeProvenance {
                admission: self.admission,
                streams: stream_provs,
            },
        }
    }
}

/// Stage 1 — edge detection (§3.1).
fn edges(ctx: &mut EpochContext<'_>) {
    let s = &mut *ctx.scratch;
    ctx.edges = detect_edges_with(
        &s.prefix,
        ctx.cfg,
        &mut s.msq,
        &mut s.select,
        &mut ctx.admission,
    );
    let stage = STAGE_NAMES[EDGES];
    for e in &ctx.edges {
        checks::assert_finite_scalar(stage, e.time);
        checks::assert_finite_scalar(stage, e.strength);
        checks::assert_finite_complex(stage, std::slice::from_ref(&e.diff));
    }
}

/// Stage 2 — eye-pattern folding and drift tracking (§3.2).
fn folding(ctx: &mut EpochContext<'_>) {
    ctx.views = EdgeViews::build(&ctx.edges, ctx.signal.len());
    ctx.tracked = find_streams_with(
        &ctx.edges,
        &ctx.views,
        ctx.signal.len(),
        ctx.cfg,
        &mut ctx.scratch.fold_hists,
        &mut ctx.admission,
    );
    ctx.carve_attempted = vec![false; ctx.tracked.len()];
    ctx.carves = vec![None; ctx.tracked.len()];
    check_tracked(&ctx.tracked);
}

/// The folding stage's boundary taint checks, run after the search and
/// after every re-track.
fn check_tracked(tracked: &[TrackedStream]) {
    let stage = STAGE_NAMES[FOLDING];
    for ts in tracked {
        checks::assert_finite_scalar(stage, ts.offset);
        checks::assert_finite_scalar(stage, ts.period_est);
        checks::assert_finite_f64(stage, &ts.slot_times);
    }
}

/// Stage 3 — per-slot IQ differentials with cross-stream masking (§3.3
/// input preparation).
///
/// On a carve re-run, a unit kept from the previous pass is recomputed
/// only when an edge whose owner changed flips in or out of the stream's
/// foreign-edge list (the re-track dropped the unit of any track it
/// replaced).
fn slots(ctx: &mut EpochContext<'_>) {
    let s = &mut *ctx.scratch;
    // Edge ownership across all tracked streams, computed once per
    // pass: stream k's window trimming must respect edges matched by
    // the *other* streams but keep its own orphan companions (see
    // lf_core::slots).
    edge_owners_into(&ctx.tracked, ctx.edges.len(), &mut s.owner);
    let changed: Vec<usize> = if ctx.unit_owner.len() == s.owner.len() {
        (0..s.owner.len())
            .filter(|&i| ctx.unit_owner[i] != s.owner[i])
            .collect()
    } else {
        ctx.units.clear();
        Vec::new()
    };
    ctx.units.resize_with(ctx.tracked.len(), || None);
    for (si, (ts, unit)) in ctx.tracked.iter().zip(&mut ctx.units).enumerate() {
        if unit.is_some() && !changed.is_empty() {
            let test = ForeignTest::new(ts, si, ctx.cfg);
            let flips = |i: usize| {
                let t = ctx.edges[i].time;
                test.is_foreign(ctx.unit_owner[i], t) != test.is_foreign(s.owner[i], t)
            };
            if changed.iter().any(|&i| flips(i)) {
                *unit = None;
            }
        }
        if unit.is_some() {
            continue;
        }
        foreign_edges_into(ts, si, &ctx.edges, &s.owner, ctx.cfg, &mut s.foreign);
        let diffs = slot_differentials(&s.prefix, ts, &s.foreign, ctx.cfg);
        checks::assert_finite_complex(STAGE_NAMES[SLOTS], &diffs);
        let clean = slot_cleanliness(ts, &s.foreign, ctx.cfg);
        *unit = Some(StreamUnit {
            diffs,
            clean,
            analysis: None,
        });
    }
    ctx.unit_owner.clone_from(&s.owner);
}

/// Stage 4 — IQ-cluster collision detection and separation (§3.3–§3.4),
/// for the units the slots pass just computed (a kept unit keeps its
/// analysis).
fn separation(ctx: &mut EpochContext<'_>) {
    let stage = STAGE_NAMES[SEPARATION];
    for unit in ctx.units.iter_mut().flatten() {
        if unit.analysis.is_some() {
            continue;
        }
        let (analysis, sep_prov) = analyze_slots_with(&unit.diffs, &unit.clean, ctx.cfg);
        match &analysis {
            StreamAnalysis::Single(fit) => {
                checks::assert_finite_complex(stage, std::slice::from_ref(&fit.e));
            }
            StreamAnalysis::Collided(fit) => {
                checks::assert_finite_complex(stage, &[fit.e1, fit.e2]);
                checks::assert_finite_scalar(stage, fit.noise_var);
            }
            StreamAnalysis::Unresolved => {}
        }
        unit.analysis = Some((analysis, sep_prov));
    }
}

/// Stage 5 — bit recovery (§3.5) and per-stream provenance assembly.
fn decode(ctx: &mut EpochContext<'_>) {
    ctx.outputs.clear();
    for (si, ts) in ctx.tracked.iter().enumerate() {
        let Some(unit) = ctx.units.get(si).and_then(Option::as_ref) else {
            continue;
        };
        let Some((analysis, sep_prov)) = unit.analysis.clone() else {
            continue;
        };
        // The per-stream provenance skeleton: what the fold, the
        // tracker, and the carve saw; the analysis/decode fill the
        // rest.
        let base_prov = StreamProvenance {
            rate_bps: ts.rate_bps,
            fold: ts.fold.clone(),
            n_matched: ts.n_matched(),
            n_slots: ts.n_slots(),
            residual_std: ts.residual_std,
            carve: ctx.carves.get(si).cloned().flatten(),
            ..StreamProvenance::default()
        };
        match analysis {
            StreamAnalysis::Single(fit) => {
                let (bits, trace) = decode_single_traced(&unit.diffs, &fit, ctx.cfg);
                ctx.outputs.push((
                    DecodedStream {
                        rate: ts.rate,
                        rate_bps: ts.rate_bps,
                        offset: ts.offset,
                        period: ts.period_est,
                        bits,
                        kind: StreamKind::Single,
                        edge_vector: fit.e,
                    },
                    StreamProvenance {
                        kind: Some(StreamKind::Single),
                        separation: sep_prov,
                        anchor: trace.anchor,
                        path_metric: trace.path_metric,
                        ..base_prov
                    },
                ));
            }
            StreamAnalysis::Collided(fit) => {
                // The anchor slot's lattice classification pinned both
                // member signs during separation.
                let anchor = fit
                    .assignments
                    .first()
                    .map_or(AnchorOutcome::NotEvaluated, |&(a, b)| {
                        AnchorOutcome::Pinned { a, b }
                    });
                for idx in 0..2 {
                    let obs = fit.member_observations(idx, &unit.diffs);
                    let e = if idx == 0 { fit.e1 } else { fit.e2 };
                    let (bits, trace) =
                        decode_member_traced(&obs, e, fit.member_emissions(idx), ctx.cfg);
                    ctx.outputs.push((
                        DecodedStream {
                            rate: ts.rate,
                            rate_bps: ts.rate_bps,
                            offset: ts.offset,
                            period: ts.period_est,
                            bits,
                            kind: StreamKind::CollisionMember,
                            edge_vector: e,
                        },
                        StreamProvenance {
                            kind: Some(StreamKind::CollisionMember),
                            separation: sep_prov.clone(),
                            anchor,
                            path_metric: trace.path_metric,
                            ..base_prov.clone()
                        },
                    ));
                }
            }
            StreamAnalysis::Unresolved => {
                lf_obs::event!(
                    Warn,
                    "stream at {} bps unresolved (k_scores={:?})",
                    ts.rate_bps,
                    sep_prov.k_scores
                );
                ctx.outputs.push((
                    DecodedStream {
                        rate: ts.rate,
                        rate_bps: ts.rate_bps,
                        offset: ts.offset,
                        period: ts.period_est,
                        bits: BitVec::new(),
                        kind: StreamKind::Unresolved,
                        edge_vector: Complex::ZERO,
                    },
                    StreamProvenance {
                        kind: Some(StreamKind::Unresolved),
                        separation: sep_prov,
                        ..base_prov
                    },
                ));
            }
        }
    }
}

/// Stage 6 — the sub-harmonic split test. Runs after the decode so it can
/// see the full analysis of every stream; returns the carves it found
/// evidence for (empty when there is nothing to re-track), each marked
/// attempted so no stream is carved twice.
fn carve(ctx: &mut EpochContext<'_>) -> Vec<CarveRequest> {
    if ctx.tracked.is_empty() {
        return Vec::new();
    }
    // Edges no tracked stream explains — the carve's raw material.
    let unowned = &mut ctx.scratch.unowned;
    unowned.clear();
    unowned.resize(ctx.edges.len(), true);
    for ts in &ctx.tracked {
        for m in ts.matched.iter().flatten() {
            if let Some(slot) = unowned.get_mut(*m) {
                *slot = false;
            }
        }
    }
    let mut requests = Vec::new();
    for si in 0..ctx.tracked.len() {
        if ctx.carve_attempted.get(si).copied().unwrap_or(true) {
            continue;
        }
        if !ctx.tracked[si].fold.is_ambiguous() {
            continue;
        }
        // A separated 2-tag collision already explains the ambiguity;
        // only Single/Unresolved streams are carve candidates.
        let collided = matches!(
            ctx.units
                .get(si)
                .and_then(Option::as_ref)
                .and_then(|u| u.analysis.as_ref()),
            Some((StreamAnalysis::Collided(_), _))
        );
        if collided {
            continue;
        }
        if let Some(req) = evaluate_carve(ctx, si) {
            requests.push(req);
        }
    }
    for r in &requests {
        if let Some(a) = ctx.carve_attempted.get_mut(r.stream) {
            *a = true;
        }
    }
    requests
}

/// The split test for one fused stream: collect unclaimed residual edges
/// (the carve stage's unowned mask) along the stream's own channel
/// direction, score candidate harmonics by how many residuals sit on the
/// harmonic's sub-grid, and re-fold the residual train at the winning
/// sub-period as the evidence record.
fn evaluate_carve(ctx: &EpochContext<'_>, si: usize) -> Option<CarveRequest> {
    let unowned: &[bool] = &ctx.scratch.unowned;
    let ts = ctx.tracked.get(si)?;
    let dir = principal_direction(&ctx.edges, ts)?;
    let span_start = *ts.slot_times.first()?;
    let span_end = *ts.slot_times.last()? + ts.period_est;
    let mut residuals: Vec<f64> = Vec::new();
    for (i, e) in ctx.edges.iter().enumerate() {
        if !unowned.get(i).copied().unwrap_or(false) {
            continue;
        }
        if e.time < span_start || e.time > span_end {
            continue;
        }
        let n = e.diff.abs();
        if n < 1e-12 {
            continue;
        }
        let cos = (e.diff.re * dir.re + e.diff.im * dir.im) / n;
        if cos.abs() < CARVE_DIR_ALIGN {
            continue;
        }
        residuals.push(e.time);
    }
    if residuals.len() < MIN_CARVE_EVIDENCE {
        return None;
    }
    let tol = 2.0 * ctx.cfg.edge_width;
    let mut best: Option<(u32, usize)> = None;
    for m in 2u32..=5 {
        let Ok(sup) = BitRate::from_multiple(ts.rate.multiple().saturating_mul(m)) else {
            continue;
        };
        if !ctx.cfg.rate_plan.contains(sup) {
            continue;
        }
        let sub = ts.period_est / f64::from(m);
        let mut count = 0usize;
        for &t in &residuals {
            // The sub-grid position of the residual inside its slot: only
            // interior positions (j in 1..m) are carve evidence — an edge
            // at j = 0 or j = m is on the fused grid itself.
            let k = ts.slot_times.partition_point(|&s| s <= t);
            if k == 0 {
                continue;
            }
            let r = t - ts.slot_times[k - 1];
            let j = (r / sub).round();
            if j >= 1.0 && j <= f64::from(m) - 1.0 && (r - j * sub).abs() <= tol {
                count += 1;
            }
        }
        if count >= MIN_CARVE_EVIDENCE && best.is_none_or(|(_, c)| count > c) {
            best = Some((m, count));
        }
    }
    let (harmonic, n_residual) = best?;
    // Re-fold the residual train at the carved sub-period (the resumable
    // fold-table walk): a genuine sub-harmonic piles its residuals into
    // one phase bin, and that peak weight goes into the provenance.
    let sub = ts.period_est / f64::from(harmonic);
    let nbins = ((sub / ctx.cfg.edge_width).round() as usize).clamp(8, 4096);
    let table = FoldTable::with_unit_weights(residuals);
    let residual_peak = table
        .fold(sub, nbins)
        .peaks(1.0, 2)
        .first()
        .map_or(0.0, |&(_, w)| w);
    Some(CarveRequest {
        stream: si,
        harmonic,
        n_residual,
        residual_peak,
    })
}

/// The stream's dominant edge direction (sign-aligned mean of its matched
/// edge differentials, normalized), or `None` for a stream with no usable
/// edge energy.
fn principal_direction(edges: &[EdgeEvent], ts: &TrackedStream) -> Option<Complex> {
    let mut reference: Option<Complex> = None;
    let mut sum = Complex::ZERO;
    for &idx in ts.matched.iter().flatten() {
        let Some(e) = edges.get(idx) else {
            continue;
        };
        let d = e.diff;
        let r = *reference.get_or_insert(d);
        let aligned = if d.re * r.re + d.im * r.im >= 0.0 {
            d
        } else {
            -d
        };
        sum += aligned;
    }
    let n = sum.abs();
    (n > 1e-12).then(|| Complex::new(sum.re / n, sum.im / n))
}

/// Executes one carve: re-track the fused stream at the carved harmonic
/// over the edges no *other* stream owns, without the structural alias
/// checks (the split test already established the harmonic structure
/// those checks exist to veto blind). The re-track replaces the fused
/// track only when it explains materially more edges, and then drops the
/// stream's slot unit so the next slots pass recomputes it.
fn apply_carve(ctx: &mut EpochContext<'_>, req: &CarveRequest) {
    let n_matched_before = ctx
        .tracked
        .get(req.stream)
        .map_or(0, TrackedStream::n_matched);
    let mut prov = CarveProvenance {
        harmonic: req.harmonic,
        n_residual: req.n_residual,
        residual_peak: req.residual_peak,
        n_matched_before,
        n_matched_after: 0,
        accepted: false,
    };
    if let Some(mut new) = retrack_for(ctx, req) {
        prov.n_matched_after = new.n_matched();
        if new.n_matched() >= n_matched_before + MIN_CARVE_GAIN {
            prov.accepted = true;
            if let Some(slot) = ctx.tracked.get_mut(req.stream) {
                // Keep the fused lock's fold record: the ambiguity is what
                // the carve explains, and the provenance should show both.
                new.fold = slot.fold.clone();
                *slot = new;
            }
            if let Some(unit) = ctx.units.get_mut(req.stream) {
                *unit = None;
            }
        }
    }
    lf_obs::event!(
        Info,
        "carve stream={} harmonic={} residuals={} matched {}->{} accepted={}",
        req.stream,
        req.harmonic,
        req.n_residual,
        prov.n_matched_before,
        prov.n_matched_after,
        prov.accepted
    );
    if let Some(slot) = ctx.carves.get_mut(req.stream) {
        *slot = Some(prov);
    }
}

/// Re-tracks the requested stream at its carved harmonic, seeded from the
/// fused track's first matched edge, over the edges no other stream owns.
fn retrack_for(ctx: &EpochContext<'_>, req: &CarveRequest) -> Option<TrackedStream> {
    let ts = ctx.tracked.get(req.stream)?;
    let rate = BitRate::from_multiple(ts.rate.multiple().saturating_mul(req.harmonic)).ok()?;
    let mut claimed = vec![false; ctx.edges.len()];
    for (si, other) in ctx.tracked.iter().enumerate() {
        if si == req.stream {
            continue;
        }
        for m in other.matched.iter().flatten() {
            if let Some(c) = claimed.get_mut(*m) {
                *c = true;
            }
        }
    }
    let seed_idx = ts.matched.iter().flatten().next().copied()?;
    retrack_at_harmonic(
        &ctx.views,
        &claimed,
        seed_idx,
        rate,
        ctx.signal.len(),
        ctx.cfg,
    )
}

/// Runs one stage execution under its span and the one stopwatch, adding
/// the measured time into the stage's [`StageTimings`] slot.
fn timed<T>(per_stage: &mut [Duration; STAGE_COUNT], stage: usize, f: impl FnOnce() -> T) -> T {
    let span = SpanGuard::enter_measured(SPAN_NAMES[stage]);
    let t_stage = Instant::now();
    let out = f();
    let took = t_stage.elapsed();
    per_stage[stage] += took;
    span.exit(took);
    out
}

/// Runs the decode over one epoch's IQ capture — the single decode path
/// behind [`crate::pipeline::Decoder`].
///
/// This is the one instrumented path: the obs context is installed once,
/// and each stage execution is measured by exactly one stopwatch here.
/// That measurement accumulates into the stage's [`StageTimings`] slot
/// (a carve's re-track adds into folding's slot, and the re-run stages
/// into their own) and closes the execution's span, so the trace ring
/// carries the same durations the timings report; metrics (from the
/// finished timings, via the pre-resolved `metrics` handles) and
/// [`DecodeProvenance`] are recorded once at the end. `scratch` is the
/// caller's reusable buffer set; decode output is bit-identical to a
/// fresh one (the buffers carry no state between epochs).
///
/// Non-finite samples are treated as dropouts and zeroed before the
/// stages run; that sanitizer is the decoder's one input contract. With
/// debug assertions on, the `lf_dsp::checks` guards then check that every
/// stage boundary stays finite, panicking with the stage's name if not.
pub(crate) fn run(
    cfg: &DecoderConfig,
    obs: &ObsContext,
    metrics: Option<&PipelineMetrics>,
    signal: &[Complex],
    scratch: &mut DecodeScratch,
) -> (EpochDecode, StageTimings) {
    // Install the context for the duration of the decode: every
    // `span!`/`event!` below (and in the dsp kernels underneath) finds it
    // through the thread local. Disabled context ⇒ the guard clears the
    // slot and all of them are no-ops.
    let _obs_guard = obs.install();
    let span_total = SpanGuard::enter_measured("pipeline.total");
    let t_start = Instant::now();
    let sanitized: Option<Vec<Complex>> = if signal.iter().all(|s| s.is_finite()) {
        None
    } else {
        Some(
            signal
                .iter()
                .map(|s| if s.is_finite() { *s } else { Complex::ZERO })
                .collect(),
        )
    };
    let signal: &[Complex] = sanitized.as_deref().unwrap_or(signal);
    // The prefix sums are built after sanitization so they can never see
    // a non-finite sample; counted in `total` but in no stage slot (epoch
    // setup, not stage work).
    let mut ctx = EpochContext::new(cfg, signal, scratch);
    let mut per_stage = [Duration::ZERO; STAGE_COUNT];
    timed(&mut per_stage, EDGES, || edges(&mut ctx));
    timed(&mut per_stage, FOLDING, || folding(&mut ctx));
    let mut reentries = 0usize;
    loop {
        timed(&mut per_stage, SLOTS, || slots(&mut ctx));
        timed(&mut per_stage, SEPARATION, || separation(&mut ctx));
        timed(&mut per_stage, DECODE, || decode(&mut ctx));
        let requests = timed(&mut per_stage, CARVE, || carve(&mut ctx));
        // Nothing to carve, or the re-run budget is spent: the outputs of
        // the decode just run stand.
        if requests.is_empty() || reentries == MAX_REENTRIES {
            break;
        }
        reentries += 1;
        // The re-track is folding work: it goes in folding's slot and span.
        timed(&mut per_stage, FOLDING, || {
            for req in &requests {
                apply_carve(&mut ctx, req);
            }
            check_tracked(&ctx.tracked);
        });
    }
    let timings = StageTimings {
        per_stage,
        total: t_start.elapsed(),
    };
    span_total.exit(timings.total);
    let decode = ctx.into_decode();
    if let Some(m) = metrics {
        m.record(&decode, &timings);
    }
    (decode, timings)
}

/// Pre-resolved handles for every metric the runner publishes per epoch.
/// Registering once per worker (instead of looking names up in the
/// registry per epoch) removes a mutex, a map walk, and a `String`
/// allocation per metric from the decode hot path.
///
/// All handles are cheap `Arc` clones into the shared registry:
/// `PipelineMetrics` is `Clone`, and clones aggregate into the same
/// counters. The `pipeline.stage.<stage>.ns` and `pipeline.stage.total.ns`
/// histograms are the workspace's only stage-latency metric family.
#[derive(Debug, Clone)]
pub(crate) struct PipelineMetrics {
    epochs: Counter,
    edges_total: Counter,
    streams_tracked: Counter,
    streams_single: Counter,
    streams_collision: Counter,
    streams_unresolved: Counter,
    stage_ns: [Histogram; STAGE_COUNT],
    total_ns: Histogram,
}

impl PipelineMetrics {
    /// Resolves every pipeline metric handle against `obs` once. On a
    /// disabled context every handle is detached and recording is a no-op
    /// (callers typically skip registering in that case).
    pub(crate) fn register(obs: &ObsContext) -> Self {
        PipelineMetrics {
            epochs: obs.counter("pipeline.epochs"),
            edges_total: obs.counter("pipeline.edges_total"),
            streams_tracked: obs.counter("pipeline.streams.tracked"),
            streams_single: obs.counter("pipeline.streams.single"),
            streams_collision: obs.counter("pipeline.streams.collision_member"),
            streams_unresolved: obs.counter("pipeline.streams.unresolved"),
            stage_ns: METRIC_NAMES.map(|name| obs.histogram(name)),
            total_ns: obs.histogram("pipeline.stage.total.ns"),
        }
    }

    /// Publishes one decode's counts and stage latencies.
    fn record(&self, decode: &EpochDecode, timings: &StageTimings) {
        self.epochs.inc();
        self.edges_total.add(decode.n_edges as u64);
        self.streams_tracked.add(decode.n_tracked as u64);
        for s in &decode.streams {
            match s.kind {
                StreamKind::Single => self.streams_single.inc(),
                StreamKind::CollisionMember => self.streams_collision.inc(),
                StreamKind::Unresolved => self.streams_unresolved.inc(),
            }
        }
        for (h, d) in self.stage_ns.iter().zip(timings.per_stage) {
            h.record_duration(d);
        }
        self.total_ns.record_duration(timings.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_channel::air::{synthesize, AirConfig, TagAir};
    use lf_channel::dynamics::StaticChannel;
    use lf_tag::clock::ClockModel;
    use lf_tag::comparator::Comparator;
    use lf_tag::tag::{LfTag, TagConfig};
    use lf_types::{RatePlan, SampleRate, TagId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stage_names_are_unique_and_in_pipeline_order() {
        assert_eq!(
            STAGE_NAMES,
            ["edges", "folding", "slots", "separation", "decode", "carve"]
        );
        for (i, a) in STAGE_NAMES.iter().enumerate() {
            for b in STAGE_NAMES.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn span_and_metric_names_derive_from_stage_names() {
        for i in 0..STAGE_COUNT {
            assert_eq!(SPAN_NAMES[i], format!("pipeline.{}", STAGE_NAMES[i]));
            assert_eq!(
                METRIC_NAMES[i],
                format!("pipeline.stage.{}.ns", STAGE_NAMES[i])
            );
        }
    }

    #[test]
    fn empty_signal_runs_the_whole_graph_once() {
        let mut cfg = DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0));
        cfg.rate_plan = RatePlan::from_bps(100.0, &[10_000.0]).expect("plan");
        let obs = ObsContext::disabled();
        let (decode, timings) = run(&cfg, &obs, None, &[], &mut DecodeScratch::default());
        assert!(decode.streams.is_empty());
        assert_eq!(decode.n_edges, 0);
        assert!(timings.total >= timings.per_stage.iter().sum::<Duration>());
    }

    /// A clean 20k-sample epoch at 1 Msps with one tag per `(rate in bps,
    /// channel, comparator delay in s, bits)` entry, each sending an anchor
    /// and then a fixed pattern.
    fn epoch(tags: &[(f64, Complex, f64, usize)]) -> Vec<Complex> {
        let payloads: Vec<(f64, Complex, f64, BitVec)> = tags
            .iter()
            .enumerate()
            .map(|(i, &(bps, h, delay, n_bits))| {
                let mut bits = BitVec::new();
                bits.push(true); // anchor
                for k in 1..n_bits {
                    bits.push((k + i) % 3 == 0);
                }
                (bps, h, delay, bits)
            })
            .collect();
        epoch_of(&payloads)
    }

    /// As [`epoch`], with each tag's payload given.
    fn epoch_of(tags: &[(f64, Complex, f64, BitVec)]) -> Vec<Complex> {
        let fs = SampleRate::from_msps(1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let air: Vec<TagAir> = tags
            .iter()
            .enumerate()
            .map(|(i, (bps, h, delay, bits))| {
                let (bps, h, delay, bits) = (*bps, *h, *delay, bits.clone());
                let tag = LfTag::new(TagConfig {
                    id: TagId(i as u32),
                    rate: BitRate::from_bps(bps, 100.0).unwrap(),
                    clock: ClockModel {
                        drift: 0.0,
                        jitter_std_s: 0.0,
                    },
                    comparator: Comparator::fixed(delay),
                });
                TagAir {
                    events: tag.plan_epoch(bits, fs, 100.0, &mut rng).events,
                    initial_level: 0.0,
                    process: Box::new(StaticChannel(h)),
                }
            })
            .collect();
        let mut air_cfg = AirConfig::paper_default(20_000);
        air_cfg.sample_rate = fs;
        air_cfg.noise_sigma = 0.002;
        air_cfg.seed = 8;
        synthesize(&air_cfg, &air)
    }

    /// Every decoded field as its exact bit pattern.
    fn bit_pattern(decode: &EpochDecode) -> Vec<u64> {
        let mut out = vec![decode.n_edges as u64, decode.n_tracked as u64];
        for s in &decode.streams {
            out.extend([
                u64::from(s.rate.multiple()),
                s.rate_bps.to_bits(),
                s.offset.to_bits(),
                s.period.to_bits(),
                s.edge_vector.re.to_bits(),
                s.edge_vector.im.to_bits(),
                s.kind as u64,
                s.bits.len() as u64,
            ]);
            out.extend(s.bits.iter().map(u64::from));
        }
        out
    }

    /// A decode that unwinds mid-epoch (a contained panic in a reader
    /// worker) abandons the scratch with one epoch's edges, ownership and
    /// foreign-edge lists still in it. The next decode on that scratch must
    /// match a fresh scratch bit for bit, because every buffer is cleared
    /// or rebuilt before it is read.
    #[test]
    fn scratch_abandoned_mid_epoch_decodes_bit_identically() {
        let mut cfg = DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0));
        cfg.rate_plan =
            RatePlan::from_bps(100.0, &[2_000.0, 5_000.0, 10_000.0, 20_000.0]).expect("plan");
        let obs = ObsContext::disabled();
        let b = epoch(&[(2_000.0, Complex::new(0.9, 0.35), 0.0, 24)]);
        let fresh = run(&cfg, &obs, None, &b, &mut DecodeScratch::default()).0;
        assert!(!fresh.streams.is_empty(), "test premise: epoch B decodes");
        let fresh = bit_pattern(&fresh);

        // Epoch A stops after the slots stage: several streams' state is
        // left behind, since a lone stream has no foreign edges.
        let a = epoch(&[
            (5_000.0, Complex::new(0.9, 0.35), 40e-6, 80),
            (10_000.0, Complex::new(-0.4, 0.7), 70e-6, 180),
            (2_000.0, Complex::new(0.5, -0.6), 133e-6, 36),
        ]);
        let mut scratch = DecodeScratch::default();
        let mut ctx = EpochContext::new(&cfg, &a, &mut scratch);
        edges(&mut ctx);
        folding(&mut ctx);
        slots(&mut ctx);
        assert!(
            ctx.tracked.len() >= 2,
            "test premise: epoch A tracks several streams"
        );

        for pass in ["first", "second"] {
            let (decode, _) = run(&cfg, &obs, None, &b, &mut scratch);
            assert_eq!(
                bit_pattern(&decode),
                fresh,
                "{pass} decode on the abandoned scratch is not bit-identical"
            );
        }
    }

    /// Bits that toggle at every `stride`-th slot from `skew`, with the
    /// bits at `flips` inverted: each flip moves one edge off the shared
    /// sub-harmonic grid, which is the carve's evidence.
    fn pulsed_stride_bits(n: usize, stride: usize, skew: usize, flips: &[usize]) -> BitVec {
        let mut level = false;
        let mut raw: Vec<bool> = (0..n)
            .map(|k| {
                if k % stride == skew {
                    level = !level;
                }
                level
            })
            .collect();
        for &f in flips {
            raw[f] = !raw[f];
        }
        raw.into_iter().collect()
    }

    /// How a decode's carve re-runs treated the slot units they met.
    #[derive(Debug, Default)]
    struct UnitCounts {
        /// Units whose track the re-track replaced.
        dropped: usize,
        /// Units the re-run slots passes computed (the dropped ones, and
        /// those whose foreign-edge membership changed).
        recomputed: usize,
        /// Units the re-run slots passes kept.
        kept: usize,
    }

    /// Decodes `signal` through the same stage calls as [`run`]. With
    /// `recompute` every slots pass starts from no units, so every unit is
    /// recomputed; without it the runner's reuse applies.
    fn decode_by_stages(
        cfg: &DecoderConfig,
        signal: &[Complex],
        recompute: bool,
    ) -> (EpochDecode, UnitCounts) {
        let mut scratch = DecodeScratch::default();
        let mut ctx = EpochContext::new(cfg, signal, &mut scratch);
        edges(&mut ctx);
        folding(&mut ctx);
        let mut counts = UnitCounts::default();
        let mut reentries = 0usize;
        loop {
            if recompute {
                ctx.units.clear();
            }
            if reentries > 0 {
                counts.dropped += ctx.units.iter().filter(|u| u.is_none()).count();
            }
            slots(&mut ctx);
            if reentries > 0 {
                for unit in ctx.units.iter().flatten() {
                    if unit.analysis.is_some() {
                        counts.kept += 1;
                    } else {
                        counts.recomputed += 1;
                    }
                }
            }
            separation(&mut ctx);
            decode(&mut ctx);
            let requests = carve(&mut ctx);
            if requests.is_empty() || reentries == MAX_REENTRIES {
                break;
            }
            reentries += 1;
            for req in &requests {
                apply_carve(&mut ctx, req);
            }
            check_tracked(&ctx.tracked);
        }
        (ctx.into_decode(), counts)
    }

    /// A carve re-run keeps the units its re-track leaves alone. That must
    /// decode exactly as recomputing every unit on every pass does.
    #[test]
    fn carve_reruns_keep_units_bit_identically() {
        let mut cfg = DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0));
        cfg.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 15_000.0]).expect("plan");
        // The sub-harmonic fusion pair (10 kbps toggling every 2nd slot,
        // 15 kbps every 3rd, both an edge per 200 µs) that the carve
        // splits; a 5 kbps tag whose slot grid sits next to edges the
        // carves claim, so their new owner changes its foreign-edge list;
        // and a 10 kbps tag that no carve touches.
        let mut flips_a = vec![0, 1];
        flips_a.extend((1..10).map(|j| 20 * j + 1));
        let flips_b: Vec<usize> = (1..10).map(|j| 30 * j + 4).collect();
        let pattern = |n: usize, f: fn(usize) -> bool| -> BitVec { (0..n).map(f).collect() };
        let signal = epoch_of(&[
            (
                10_000.0,
                Complex::new(0.09, 0.05),
                0.0,
                pulsed_stride_bits(200, 2, 0, &flips_a),
            ),
            (
                15_000.0,
                Complex::new(-0.06, 0.08),
                0.0,
                pulsed_stride_bits(300, 3, 2, &flips_b),
            ),
            (
                5_000.0,
                Complex::new(0.04, -0.1),
                107e-6,
                pattern(100, |k| k == 0 || (k * 7 + k / 5) % 3 == 0),
            ),
            (
                10_000.0,
                Complex::new(0.1, 0.02),
                53e-6,
                pattern(200, |k| k == 0 || (k * 5 + k / 7) % 3 == 1),
            ),
        ]);

        let obs = ObsContext::disabled();
        let (by_run, _) = run(&cfg, &obs, None, &signal, &mut DecodeScratch::default());
        assert!(
            by_run
                .provenance
                .streams
                .iter()
                .any(|sp| sp.carve.as_ref().is_some_and(|c| c.accepted)),
            "test premise: a carve is accepted: {:?}",
            by_run.provenance
        );
        let (by_stages, counts) = decode_by_stages(&cfg, &signal, false);
        assert!(
            counts.dropped >= 1 && counts.recomputed > counts.dropped && counts.kept >= 1,
            "test premise: the re-run recomputes a replaced track's unit and \
             one whose foreign edges changed, and keeps another: {counts:?}"
        );
        let (full, _) = decode_by_stages(&cfg, &signal, true);
        for (name, other) in [("stage calls", &by_stages), ("full recompute", &full)] {
            assert_eq!(bit_pattern(&by_run), bit_pattern(other), "{name}: outputs");
            assert_eq!(
                format!("{:?}", by_run.provenance),
                format!("{:?}", other.provenance),
                "{name}: provenance"
            );
        }
    }
}
