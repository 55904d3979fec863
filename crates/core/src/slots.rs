//! Stage 3 — per-slot IQ differentials with cross-stream masking.
//!
//! §3.1 prescribes averaging "a set of points between the previous edge to
//! the current edge" on each side of an edge. Once streams are tracked we
//! know where *every* claimed edge in the epoch sits, so the averaging
//! windows for one stream's slot can skip samples near other streams'
//! edges — the one place where the linear-combination cancellation of
//! §3.1 breaks (a neighbour's edge inside the window shifts the mean).
//! This is pure reader-side bookkeeping, exactly in the spirit of pushing
//! all complexity to the reader.
//!
//! Hot-path layout: the caller builds the epoch-wide [`PrefixSums`] and the
//! edge→owner index **once** ([`edge_owners`]) and computes each stream's
//! foreign-edge list **once** ([`foreign_edges`]); [`slot_differentials`]
//! and [`slot_cleanliness`] then consume those shared views. The old
//! signatures rebuilt the prefix sums and the foreign list per call — an
//! O(streams × samples) rescan this decomposition removes.

use crate::config::DecoderConfig;
use crate::edges::{EdgeEvent, PrefixSums};
use crate::streams::TrackedStream;
use lf_types::Complex;

/// Builds the epoch-wide edge→owner index: `owner[i]` is the index (into
/// `streams`) of the accepted stream whose tracker matched edge `i`, or
/// `None` for an orphan. Matched sets are disjoint across accepted
/// streams, so the map is well-defined. Build it once per epoch and share
/// it across every [`foreign_edges`] call.
pub fn edge_owners(streams: &[TrackedStream], n_edges: usize) -> Vec<Option<usize>> {
    let mut owner = Vec::new();
    edge_owners_into(streams, n_edges, &mut owner);
    owner
}

/// As [`edge_owners`], but reusing a caller-owned buffer.
pub fn edge_owners_into(streams: &[TrackedStream], n_edges: usize, out: &mut Vec<Option<usize>>) {
    out.clear();
    out.resize(n_edges, None);
    for (si, s) in streams.iter().enumerate() {
        for &m in s.matched.iter().flatten() {
            if let Some(slot) = out.get_mut(m) {
                *slot = Some(si);
            }
        }
    }
}

/// The slot-differential observations of one stream: `diffs[k]` is the IQ
/// differential across slot boundary `k` (≈ +e for a rising edge, −e
/// falling, ~0 for no toggle). `foreign` is the stream's foreign-edge list
/// from [`foreign_edges`], `sums` the shared epoch prefix-sum table.
pub fn slot_differentials(
    sums: &PrefixSums,
    stream: &TrackedStream,
    foreign: &[(f64, Complex)],
    cfg: &DecoderConfig,
) -> Vec<Complex> {
    let guard = cfg.edge_width.ceil() + 1.0;
    // §3.1 averages "a set of points between the previous edge to the
    // current edge": use (almost) the whole flat half-period on each side
    // — maximal noise averaging, never straddling the adjacent boundary.
    // Everything is prefix-sum based, so wide windows cost nothing.
    let w = ((stream.period_est / 2.0 - 2.0 * guard).floor() as usize).clamp(2, 4096) as f64;

    stream
        .slot_times
        .iter()
        .map(|&t| {
            let after = sums.mean((t + guard) as isize, (t + guard + w) as isize);
            let before = sums.mean((t - guard - w) as isize, (t - guard) as isize);
            let mut diff = after - before;
            // Foreign-edge cancellation: another tag’s level shift inside
            // the averaging span contaminates the differential by a known,
            // position-dependent fraction of that edge’s own measured step
            // vector — subtract it. (Reader-side successive interference
            // cancellation; the foreign steps were measured in stage 1.)
            let lo = t - guard - w;
            let hi = t + guard + w;
            let start = foreign.partition_point(|f| f.0 < lo);
            for &(p, step) in foreign[start..].iter() {
                if p > hi {
                    break;
                }
                let phi = if p <= t - guard {
                    1.0 - ((t - guard) - p) / w
                } else if p < t + guard {
                    1.0
                } else {
                    ((t + guard + w) - p) / w
                };
                diff -= step.scale(phi.clamp(0.0, 1.0));
            }
            diff
        })
        .collect()
}

/// Per-slot cleanliness: `false` when a *foreign* edge sits so close to
/// the slot boundary (inside the guard/straddle region) that the
/// differential carries its full step. Cancellation subtracts the
/// measured step, but the residual is that measurement’s own error, so
/// the cluster-model stage still prefers to fit on unaffected slots.
/// `foreign` is the same list [`slot_differentials`] consumes.
pub fn slot_cleanliness(
    stream: &TrackedStream,
    foreign: &[(f64, Complex)],
    cfg: &DecoderConfig,
) -> Vec<bool> {
    let radius = cfg.edge_width.ceil() + 1.0 + 2.0 * cfg.edge_width;
    stream
        .slot_times
        .iter()
        .map(|&t| {
            let start = foreign.partition_point(|f| f.0 < t - radius);
            !foreign.get(start).is_some_and(|&(f, _)| f <= t + radius)
        })
        .collect()
}

/// The (time, measured step) of every edge that is *foreign* to the stream
/// at index `stream_index` — the ones its differential must cancel:
///
/// * edges owned (matched) by **other** accepted streams
///   (`owner[i] == Some(j)`, `j != stream_index`);
/// * **orphan** edges (`owner[i] == None`) far from this stream’s slot
///   grid — unexplained level shifts, cancelled conservatively.
///
/// Orphan edges *near* a slot boundary are companions: in a merged
/// collision only the strongest of the coincident edges is matched, and
/// the others are the second tag’s half of exactly the transition the
/// 9-cluster separation wants to see. Cancelling them would reduce the
/// slot differential to one tag’s edge and destroy the lattice.
pub fn foreign_edges(
    stream: &TrackedStream,
    stream_index: usize,
    all_edges: &[EdgeEvent],
    owner: &[Option<usize>],
    cfg: &DecoderConfig,
) -> Vec<(f64, Complex)> {
    let mut out = Vec::new();
    foreign_edges_into(stream, stream_index, all_edges, owner, cfg, &mut out);
    out
}

/// As [`foreign_edges`], but reusing a caller-owned buffer.
pub fn foreign_edges_into(
    stream: &TrackedStream,
    stream_index: usize,
    all_edges: &[EdgeEvent],
    owner: &[Option<usize>],
    cfg: &DecoderConfig,
    out: &mut Vec<(f64, Complex)>,
) {
    let test = ForeignTest::new(stream, stream_index, cfg);
    out.clear();
    for (i, e) in all_edges.iter().enumerate() {
        if test.is_foreign(owner.get(i).copied().flatten(), e.time) {
            out.push((e.time, e.diff));
        }
    }
}

/// The per-edge membership test behind [`foreign_edges`] for one stream:
/// an edge's membership depends only on its owner, its time and the
/// stream's slot grid. The decode runner also uses it to tell whether an
/// edge whose owner changed between carve re-runs changes the stream's
/// foreign list.
pub(crate) struct ForeignTest<'a> {
    stream: &'a TrackedStream,
    stream_index: usize,
    companion_radius: f64,
}

impl<'a> ForeignTest<'a> {
    /// The test for `stream`, at index `stream_index` of the epoch's
    /// tracked streams.
    pub(crate) fn new(stream: &'a TrackedStream, stream_index: usize, cfg: &DecoderConfig) -> Self {
        ForeignTest {
            stream,
            stream_index,
            companion_radius: (2.0 * cfg.edge_width).max(stream.period_est / 64.0) + cfg.edge_width,
        }
    }

    /// Whether an edge at `time` owned by `owner` is foreign to the
    /// stream (rather than its own or an orphan companion).
    pub(crate) fn is_foreign(&self, owner: Option<usize>, time: f64) -> bool {
        match owner {
            Some(si) => si != self.stream_index,
            None => {
                // Orphan: companion if near the slot grid.
                let slot_times = &self.stream.slot_times;
                let idx = slot_times.partition_point(|&t| t < time);
                let near = [idx.wrapping_sub(1), idx]
                    .iter()
                    .filter_map(|&j| slot_times.get(j))
                    .any(|&t| (t - time).abs() <= self.companion_radius);
                !near
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_types::{BitRate, SampleRate};

    fn cfg() -> DecoderConfig {
        DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0))
    }

    /// A tracked stream with regular slot boundaries.
    fn stream(offset: f64, period: f64, n_slots: usize) -> TrackedStream {
        TrackedStream {
            rate: BitRate::from_multiple(100).unwrap(),
            rate_bps: 10_000.0,
            nominal_period: period,
            period_est: period,
            offset,
            slot_times: (0..n_slots).map(|k| offset + k as f64 * period).collect(),
            matched: vec![None; n_slots],
            residual_std: 0.0,
            fold: crate::provenance::FoldProvenance::default(),
        }
    }

    /// NRZ signal of `bits` with instant edges at boundaries (edge width 0
    /// keeps the expected differentials exact).
    fn nrz_signal(bits: &[bool], offset: f64, period: f64, h: Complex, n: usize) -> Vec<Complex> {
        let mut sig = vec![Complex::ZERO; n];
        for (t, s) in sig.iter_mut().enumerate() {
            let k = ((t as f64 - offset) / period).floor();
            let level = if k < 0.0 {
                false
            } else {
                *bits.get(k as usize).unwrap_or(&false)
            };
            if level {
                *s += h;
            }
        }
        sig
    }

    #[test]
    fn clean_stream_differentials_form_three_values() {
        let h = Complex::new(0.1, 0.05);
        let bits = [true, false, false, true, true, false];
        let sig = nrz_signal(&bits, 100.0, 100.0, h, 1000);
        let st = stream(100.0, 100.0, 6);
        let diffs = slot_differentials(&PrefixSums::new(&sig), &st, &[], &cfg());
        assert_eq!(diffs.len(), 6);
        // Slot 0: rise (+h); slot 1: fall (−h); slot 2: flat (0);
        // slot 3: rise; slot 4: flat; slot 5: fall.
        assert!(diffs[0].approx_eq(h, 1e-9));
        assert!(diffs[1].approx_eq(-h, 1e-9));
        assert!(diffs[2].approx_eq(Complex::ZERO, 1e-9));
        assert!(diffs[3].approx_eq(h, 1e-9));
        assert!(diffs[4].approx_eq(Complex::ZERO, 1e-9));
        assert!(diffs[5].approx_eq(-h, 1e-9));
    }

    #[test]
    fn foreign_edge_in_window_corrupts_unmasked_but_not_masked() {
        let h = Complex::new(0.1, 0.0);
        let hb = Complex::new(0.0, 0.2);
        // Stream A: flat (no toggle) around boundary t=500.
        // Tag B toggles at t=485 — inside A's "before" window
        // ([500−4−25, 500−4] with period 100 → w=25).
        let mut sig = vec![Complex::ZERO; 1000];
        for (t, s) in sig.iter_mut().enumerate() {
            *s += h; // A reflecting throughout (flat slot)
            if t >= 485 {
                *s += hb;
            }
        }
        let st = stream(500.0, 100.0, 1);
        let sums = PrefixSums::new(&sig);
        // Without knowledge of B's edge: the differential is pulled toward
        // hb (the "after" window has full hb, the "before" only part).
        let unmasked = slot_differentials(&sums, &st, &[], &cfg());
        assert!(
            unmasked[0].abs() > 0.03,
            "expected corruption: {}",
            unmasked[0]
        );
        // With B's edge claimed by another stream, masking recovers a
        // near-zero differential.
        let b_edge = EdgeEvent {
            time: 485.0,
            diff: hb,
            strength: hb.abs(),
        };
        let foreign = foreign_edges(&st, 0, &[b_edge], &[Some(1)], &cfg());
        assert_eq!(foreign.len(), 1);
        let masked = slot_differentials(&sums, &st, &foreign, &cfg());
        assert!(
            masked[0].abs() < unmasked[0].abs() / 3.0,
            "masking did not help: {} vs {}",
            masked[0],
            unmasked[0]
        );
    }

    #[test]
    fn cancellation_is_position_weighted() {
        // A foreign step deep in the before-window contributes only a
        // fraction of its vector; cancellation must subtract exactly that
        // fraction, recovering ~0 for a slot with no own transition.
        let hb = Complex::new(0.0, 0.2);
        let mut sig = vec![Complex::ZERO; 400];
        for (t, s) in sig.iter_mut().enumerate() {
            if t >= 160 {
                *s += hb; // foreign tag turns on at 160
            }
        }
        let st = stream(200.0, 100.0, 1); // own boundary at 200, no own edge
        let sums = PrefixSums::new(&sig);
        let corrupted = slot_differentials(&sums, &st, &[], &cfg());
        let cancelled = slot_differentials(&sums, &st, &[(160.0, hb)], &cfg());
        assert!(
            corrupted[0].abs() > 5.0 * cancelled[0].abs().max(1e-6),
            "cancellation did not help: {} vs {}",
            corrupted[0],
            cancelled[0]
        );
        assert!(cancelled[0].abs() < 0.02, "residual {}", cancelled[0]);
    }

    #[test]
    fn boundary_slots_clamp_to_signal() {
        let sig = vec![Complex::ONE; 100];
        let st = stream(0.0, 50.0, 3); // slot at 0 and at 100 touch the ends
        let diffs = slot_differentials(&PrefixSums::new(&sig), &st, &[], &cfg());
        assert_eq!(diffs.len(), 3);
        assert!(diffs.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn own_edges_are_not_masked() {
        // The stream's own matched edge at a boundary must not appear in
        // its foreign list (and so not be cancelled out of its own
        // differential).
        let h = Complex::new(0.1, 0.0);
        let bits = [true];
        let sig = nrz_signal(&bits, 100.0, 100.0, h, 300);
        let mut st = stream(100.0, 100.0, 1);
        let own_edge = EdgeEvent {
            time: 100.0,
            diff: h,
            strength: h.abs(),
        };
        st.matched = vec![Some(0)];
        let owner = edge_owners(std::slice::from_ref(&st), 1);
        assert_eq!(owner, vec![Some(0)]);
        let foreign = foreign_edges(&st, 0, &[own_edge], &owner, &cfg());
        assert!(foreign.is_empty());
        let diffs = slot_differentials(&PrefixSums::new(&sig), &st, &foreign, &cfg());
        assert!(diffs[0].approx_eq(h, 1e-9));
    }

    #[test]
    fn orphans_near_the_grid_are_companions_far_ones_are_foreign() {
        let st = stream(100.0, 100.0, 4); // boundaries at 100..400
        let h = Complex::new(0.05, 0.0);
        let mk = |time: f64| EdgeEvent {
            time,
            diff: h,
            strength: h.abs(),
        };
        // Orphan right on a boundary → companion (kept out of the list);
        // orphan mid-slot → cancelled as foreign.
        let edges = [mk(201.0), mk(250.0)];
        let foreign = foreign_edges(&st, 0, &edges, &[None, None], &cfg());
        assert_eq!(foreign.len(), 1);
        assert!((foreign[0].0 - 250.0).abs() < 1e-12);
    }

    #[test]
    fn edge_owners_indexes_all_streams() {
        let mut a = stream(100.0, 100.0, 3);
        let mut b = stream(150.0, 100.0, 3);
        a.matched = vec![Some(0), None, Some(2)];
        b.matched = vec![None, Some(1), None];
        let owner = edge_owners(&[a, b], 4);
        assert_eq!(owner, vec![Some(0), Some(1), Some(0), None]);
    }

    #[test]
    fn edge_owners_into_ignores_a_longer_dirty_buffer() {
        // A buffer left longer, and filled, by a larger earlier epoch must
        // come back exactly as a fresh one: the decode runner compares
        // owner arrays between carve re-runs, so a stale entry would flip
        // its reuse decisions.
        let mut big_a = stream(100.0, 100.0, 6);
        let mut big_b = stream(150.0, 100.0, 6);
        big_a.matched = (0..6).map(|k| Some(2 * k)).collect();
        big_b.matched = (0..6).map(|k| Some(2 * k + 1)).collect();
        let mut buf = Vec::new();
        edge_owners_into(&[big_a, big_b], 12, &mut buf);
        assert!(buf.iter().all(Option::is_some), "premise: dirty buffer");

        let mut a = stream(100.0, 100.0, 3);
        a.matched = vec![None, Some(2), None];
        let small = [a];
        edge_owners_into(&small, 4, &mut buf);
        assert_eq!(buf, edge_owners(&small, 4));
    }

    #[test]
    fn cleanliness_flags_only_straddling_foreign_edges() {
        let st = stream(100.0, 100.0, 3);
        let hb = Complex::new(0.0, 0.1);
        // One foreign edge right at boundary 200, one far from any.
        let foreign = [(201.0, hb), (350.0, hb)];
        let clean = slot_cleanliness(&st, &foreign, &cfg());
        assert_eq!(clean, vec![true, false, true]);
    }
}
