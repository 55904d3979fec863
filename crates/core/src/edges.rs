//! Stage 1 — reliable edge detection (§3.1).
//!
//! Amplitude alone is brittle: "the background is high when many other
//! nodes are transmitting, and changes continually". The paper's fix is the
//! *IQ vector differential*: `ΔS(t) = S(t+) − S(t−)` with both sides
//! averaged over the flat regions adjacent to the edge. Because the
//! combined signal is (to first approximation) a linear sum, every other
//! tag's contribution is identical on both sides of an edge it did not
//! toggle — the subtraction cancels the background exactly, leaving the
//! toggling tag's `±h` plus averaged-down noise.
//!
//! Implementation: prefix sums give O(1) windowed means; candidate edges
//! are local maxima of the differential magnitude above a robust
//! (median + k·MAD) threshold, at least an edge-width apart.

use crate::config::DecoderConfig;
use crate::provenance::{AdmissionGate, AdmissionRecord};
use lf_dsp::peaks::find_peaks;
use lf_dsp::stats::median_inplace;
use lf_types::{Complex, IqBuffer};

/// A detected candidate edge.
#[derive(Debug, Clone, Copy)]
pub struct EdgeEvent {
    /// Sample index of the edge centre.
    pub time: f64,
    /// The IQ differential across the edge (≈ ±h of the toggling tag, or a
    /// sum of ±h's for a collision).
    pub diff: Complex,
    /// Magnitude of `diff` (cached; used for ranking and thresholds).
    pub strength: f64,
}

/// Prefix sums over a complex signal, for O(1) range means.
///
/// Built **once per epoch** (inside the pipeline's reusable
/// [`DecodeScratch`](crate::DecodeScratch)) and borrowed by both the edges
/// and slots stages — the slots stage used to rebuild this 60k-entry table
/// for every one of ~26 tracked streams. The `no-epoch-rescan` xtask lint
/// rule enforces that discipline: production code may not call
/// [`PrefixSums::new`] outside the epoch-context setup.
/// The table is stored as a split [`IqBuffer`] (structure-of-arrays): the
/// differential loop of [`detect_edges`] reads the two prefix channels
/// with plain contiguous loads. Componentwise accumulation makes the
/// split layout bitwise identical to the old `Vec<Complex>` table
/// (DESIGN.md §15).
#[derive(Debug, Clone)]
pub struct PrefixSums {
    sums: IqBuffer,
}

impl Default for PrefixSums {
    /// A table over zero samples; [`PrefixSums::rebuild`] before use.
    fn default() -> Self {
        let mut sums = IqBuffer::new();
        sums.push(Complex::ZERO);
        PrefixSums { sums }
    }
}

impl PrefixSums {
    /// Builds the table over `signal`. Hot-path code should hold one table
    /// per epoch and [`PrefixSums::rebuild`] it instead of constructing
    /// anew (see the `no-epoch-rescan` lint rule).
    pub fn new(signal: &[Complex]) -> Self {
        let mut table = PrefixSums::default();
        table.rebuild(signal);
        table
    }

    /// Recomputes the table over `signal`, reusing the allocation.
    ///
    /// The two channels accumulate in independent scalar chains written
    /// straight into the resized buffers — `Complex` addition is
    /// componentwise, so each chain performs exactly the adds the old
    /// `acc += s; push(acc)` loop performed on that component and the
    /// table is bitwise identical; splitting the chains halves the
    /// rebuild's serial add-latency bound and drops the per-sample
    /// `Vec::push` bounds checks.
    pub fn rebuild(&mut self, signal: &[Complex]) {
        self.sums.resize_zeroed(signal.len() + 1);
        let (re, im) = self.sums.channels_mut();
        re[0] = 0.0;
        im[0] = 0.0;
        let mut acc_re = 0.0f64;
        let mut acc_im = 0.0f64;
        for (k, s) in signal.iter().enumerate() {
            acc_re += s.re;
            acc_im += s.im;
            re[k + 1] = acc_re;
            im[k + 1] = acc_im;
        }
    }

    /// Number of signal samples the table covers.
    pub fn n_samples(&self) -> usize {
        self.sums.len().saturating_sub(1)
    }

    /// The split prefix channels (length `n_samples() + 1`, leading zero),
    /// for structure-of-arrays loops.
    pub fn channels(&self) -> (&[f64], &[f64]) {
        self.sums.channels()
    }

    /// Mean of `signal[lo..hi]`, clamped to bounds; zero when empty.
    pub fn mean(&self, lo: isize, hi: isize) -> Complex {
        let n = self.sums.len().saturating_sub(1) as isize;
        let lo = lo.clamp(0, n) as usize;
        let hi = hi.clamp(0, n) as usize;
        if lo >= hi {
            return Complex::ZERO;
        }
        (self.sums.get(hi) - self.sums.get(lo)).scale(1.0 / (hi - lo) as f64)
    }
}

/// The differential at sample `t`: mean of `w` samples starting `g` after
/// `t`, minus mean of `w` samples ending `g` before `t`.
pub(crate) fn differential_at(sums: &PrefixSums, t: f64, guard: f64, window: usize) -> Complex {
    let t = t.round() as isize;
    let g = guard.ceil() as isize;
    let w = window as isize;
    sums.mean(t + g, t + g + w) - sums.mean(t - g - w, t - g)
}

/// Detects candidate edges over the whole capture.
///
/// Convenience entry point that builds its own prefix-sum table and
/// scratch; the pipeline threads a per-epoch table and reusable buffers
/// through [`detect_edges_with`] instead.
pub fn detect_edges(signal: &[Complex], cfg: &DecoderConfig) -> Vec<EdgeEvent> {
    let sums = PrefixSums::new(signal); // one-shot entry point: xtask: allow(no-epoch-rescan)
    detect_edges_with(
        &sums,
        cfg,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
    )
}

/// Detects candidate edges using a pre-built prefix-sum table and two
/// reusable scratch buffers (`msq` for the squared-magnitude series,
/// `select` for the quickselect workspace), recording admission-cascade
/// rejections (a too-short capture, an energy-free differential) into
/// `admission`.
///
/// The hot loop works on **squared** magnitudes — the per-sample `sqrt`
/// (via `hypot` in `Complex::abs`) was ~a third of the stage cost. The
/// threshold statistics and the peak cutoff are mapped so the result is
/// exactly what thresholding the sqrt series would produce: order
/// statistics commute with the monotone `sqrt`, and the peak predicate
/// `msq >= sqrt_cutoff(T)` is equivalent to `sqrt(msq) >= T` (see
/// [`sqrt_cutoff`]). Only surviving peaks pay a `sqrt`/`hypot`.
pub(crate) fn detect_edges_with(
    sums: &PrefixSums,
    cfg: &DecoderConfig,
    msq: &mut Vec<f64>,
    select: &mut Vec<f64>,
    admission: &mut Vec<AdmissionRecord>,
) -> Vec<EdgeEvent> {
    let n = sums.n_samples();
    if n < 4 * cfg.detect_window {
        admission.push(AdmissionRecord {
            gate: AdmissionGate::EpochTooShort,
            round: 0,
            rate_bps: None,
            observed: n as f64,
            required: (4 * cfg.detect_window) as f64,
        });
        return Vec::new();
    }
    // Guard of half an edge width keeps the averaging windows on the flat
    // regions on either side of the ramp. The kernel zeroes a margin at
    // both ends: there the before/after windows would clamp to nothing and
    // the "differential" would be the raw signal level — a fake edge the
    // size of the environment reflection.
    let guard = (cfg.edge_width / 2.0).ceil();
    let (pre, pim) = sums.channels();
    diff_msq_into(pre, pim, guard as usize, cfg.detect_window, msq);
    // Two-part threshold: the robust (median + k·MAD) floor handles noisy
    // captures; the relative floor handles nearly noise-free ones, where
    // MAD collapses to ~0 and floating-point dust would otherwise read as
    // peaks. 3 % of the strongest differential keeps tags within a ~30×
    // amplitude range (≈1–5 m spread under the d⁻⁴ law) detectable.
    let max_msq = msq.iter().copied().fold(0.0_f64, f64::max);
    if max_msq <= 0.0 {
        // Admission gate: no differential energy anywhere — an all-silent
        // or constant capture. Thresholding and peak finding on an
        // all-zero series provably return nothing.
        admission.push(AdmissionRecord {
            gate: AdmissionGate::EpochNoEdgeEnergy,
            round: 0,
            rate_bps: None,
            observed: max_msq,
            required: f64::MIN_POSITIVE,
        });
        return Vec::new();
    }
    let max_mag = max_msq.sqrt();
    let threshold =
        robust_threshold_of_sqrt(msq, select, cfg.detect_threshold_k).max(0.03 * max_mag);
    let min_dist = cfg.edge_width.ceil() as usize;
    find_peaks(msq, sqrt_cutoff(threshold), min_dist.max(1))
        .into_iter()
        .map(|p| {
            let diff = differential_at(sums, p.index as f64, guard, cfg.detect_window);
            EdgeEvent {
                time: p.index as f64,
                diff,
                strength: diff.abs(),
            }
        })
        .collect()
}

/// The squared-magnitude differential series of edge detection (§3.1).
///
/// `re`/`im` are the split *prefix-sum* arrays of one epoch (length
/// `n + 1`, leading zero). For every sample `t` in
/// `[guard + window, n - guard - window)` this computes the windowed-mean
/// IQ differential across `t` and writes its squared magnitude to
/// `out[t]`; samples inside the margins get `0.0` (their averaging windows
/// would clamp and the "differential" would be the raw reflection level).
///
/// Bitwise identical to `differential_at(sums, t, guard, window)
/// .norm_sqr()`: the same subtractions and the same `1/w` scaling, in the
/// same order, over the same prefix sums.
fn diff_msq_into(re: &[f64], im: &[f64], guard: usize, window: usize, out: &mut Vec<f64>) {
    assert_eq!(re.len(), im.len(), "re/im prefix length mismatch");
    assert!(window > 0, "window must be positive");
    let n = re.len().saturating_sub(1);
    out.clear();
    out.resize(n, 0.0);
    let (g, w) = (guard, window);
    let lo = g + w;
    let Some(hi) = n.checked_sub(lo) else {
        return;
    };
    let inv = 1.0 / w as f64;
    // hot-kernel begin (no-aos-hotloop: SoA slices only in this region)
    for t in lo..hi {
        let a_re = (re[t + g + w] - re[t + g]) * inv;
        let a_im = (im[t + g + w] - im[t + g]) * inv;
        let b_re = (re[t - g] - re[t - g - w]) * inv;
        let b_im = (im[t - g] - im[t - g - w]) * inv;
        let d_re = a_re - b_re;
        let d_im = a_im - b_im;
        out[t] = d_re * d_re + d_im * d_im;
    }
    // hot-kernel end
}

/// `median + k·MAD·1.4826` of the element-wise square roots of `msq`,
/// without materializing the sqrt series: the median of `sqrt(x)` is the
/// sqrt of the median of `x` (order statistics commute with monotone
/// maps), so only the deviation pass — whose MAD does *not* commute
/// through squaring — takes one `sqrt` per sample.
fn robust_threshold_of_sqrt(msq: &[f64], select: &mut Vec<f64>, k: f64) -> f64 {
    if msq.is_empty() {
        return 0.0;
    }
    select.clear();
    select.extend_from_slice(msq);
    let mid = select.len() / 2;
    let odd = select.len() % 2 == 1;
    let med = {
        let (lower, m, _) = select.select_nth_unstable_by(mid, f64::total_cmp);
        if odd {
            m.sqrt()
        } else {
            let hi = m.sqrt();
            let lo = lower
                .iter()
                .copied()
                .max_by(f64::total_cmp)
                .unwrap_or(*m)
                .sqrt();
            0.5 * (lo + hi)
        }
    };
    select.clear();
    select.extend(msq.iter().map(|&v| (v.sqrt() - med).abs()));
    let mad = median_inplace(select);
    med + k * mad * 1.4826
}

/// The smallest non-negative `f64` whose square root reaches `t`, so that
/// `msq >= sqrt_cutoff(t)` holds exactly when `msq.sqrt() >= t`. IEEE
/// `sqrt` is correctly rounded (hence monotone), so the boundary sits
/// within a few ulps of `t*t`; a short bit-level walk pins it down.
fn sqrt_cutoff(t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let mut y = t * t;
    if !y.is_finite() {
        return f64::INFINITY;
    }
    for _ in 0..8 {
        if y <= 0.0 {
            break;
        }
        let down = f64::from_bits(y.to_bits() - 1);
        if down.sqrt() >= t {
            y = down;
        } else {
            break;
        }
    }
    for _ in 0..8 {
        if y.sqrt() >= t {
            break;
        }
        y = f64::from_bits(y.to_bits() + 1);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_types::SampleRate;

    fn cfg() -> DecoderConfig {
        DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0))
    }

    /// A signal with a linear 3-sample ramp step of `h` at each given time
    /// (alternating direction), plus a constant background.
    fn steps(n: usize, times: &[usize], h: Complex, background: Complex) -> Vec<Complex> {
        let mut sig = vec![background; n];
        let mut level = 0.0;
        let mut idx = 0;
        for (t, s) in sig.iter_mut().enumerate() {
            while idx < times.len() && t >= times[idx] + 3 {
                level = 1.0 - level;
                idx += 1;
            }
            let state = if idx < times.len() && t >= times[idx] {
                let frac = (t - times[idx]) as f64 / 3.0;
                level + (1.0 - 2.0 * level) * frac
            } else {
                level
            };
            *s = background + h.scale(state);
        }
        sig
    }

    #[test]
    fn single_edge_detected_with_correct_differential() {
        let h = Complex::new(0.1, 0.06);
        let sig = steps(200, &[100], h, Complex::new(0.4, -0.2));
        let edges = detect_edges(&sig, &cfg());
        assert_eq!(edges.len(), 1);
        assert!((edges[0].time - 101.0).abs() <= 2.0);
        assert!(edges[0].diff.approx_eq(h, 0.02), "diff {}", edges[0].diff);
    }

    #[test]
    fn rising_and_falling_differentials_have_opposite_signs() {
        let h = Complex::new(0.1, 0.06);
        let sig = steps(400, &[100, 250], h, Complex::ZERO);
        let edges = detect_edges(&sig, &cfg());
        assert_eq!(edges.len(), 2);
        assert!(edges[0].diff.approx_eq(h, 0.02));
        assert!(edges[1].diff.approx_eq(-h, 0.02));
    }

    #[test]
    fn background_step_from_other_tag_cancels() {
        // Tag A toggles at 100; tag B (the "background") is mid-reflection
        // the whole time — B's constant contribution must cancel out of
        // A's differential exactly.
        let ha = Complex::new(0.08, 0.02);
        let hb = Complex::new(-0.3, 0.25); // strong background tag
        let mut sig = steps(300, &[100], ha, Complex::ZERO);
        for s in sig.iter_mut() {
            *s += hb; // B reflecting throughout
        }
        let edges = detect_edges(&sig, &cfg());
        assert_eq!(edges.len(), 1);
        assert!(edges[0].diff.approx_eq(ha, 0.02));
    }

    #[test]
    fn interleaved_edges_from_two_tags_separate() {
        let ha = Complex::new(0.1, 0.0);
        let hb = Complex::new(0.0, 0.1);
        let sig_a = steps(600, &[100, 300, 500], ha, Complex::ZERO);
        let sig_b = steps(600, &[200, 400], hb, Complex::ZERO);
        let combined: Vec<Complex> = sig_a.iter().zip(&sig_b).map(|(&a, &b)| a + b).collect();
        let edges = detect_edges(&combined, &cfg());
        assert_eq!(edges.len(), 5);
        // Each detected differential points along the right tag's h.
        for e in &edges {
            let along_a = e.diff.re.abs() > e.diff.im.abs();
            let t = e.time as usize;
            let is_a_edge = [100usize, 300, 500].iter().any(|&x| t.abs_diff(x) < 10);
            assert_eq!(along_a, is_a_edge, "edge at {t} attributed wrongly");
        }
    }

    #[test]
    fn noise_alone_produces_no_edges() {
        // Deterministic pseudo-noise (no real edges).
        let sig: Vec<Complex> = (0..1000)
            .map(|k| {
                let x = (k as f64 * 12.9898).sin() * 43758.5453;
                let y = (k as f64 * 78.233).sin() * 12543.123;
                Complex::new((x - x.floor() - 0.5) * 0.01, (y - y.floor() - 0.5) * 0.01)
            })
            .collect();
        let edges = detect_edges(&sig, &cfg());
        assert!(
            edges.len() <= 2,
            "spurious edges from pure noise: {}",
            edges.len()
        );
    }

    #[test]
    fn too_short_signal_is_empty() {
        assert!(detect_edges(&[Complex::ZERO; 4], &cfg()).is_empty());
    }

    #[test]
    fn prefix_sums_mean_matches_direct() {
        let sig: Vec<Complex> = (0..10).map(|k| Complex::new(k as f64, -1.0)).collect();
        let sums = PrefixSums::new(&sig);
        assert!(sums.mean(2, 5).approx_eq(Complex::new(3.0, -1.0), 1e-12));
        assert_eq!(sums.mean(5, 5), Complex::ZERO);
        assert!(sums.mean(-10, 2).approx_eq(Complex::new(0.5, -1.0), 1e-12));
        assert_eq!(sums.n_samples(), 10);
    }

    #[test]
    fn rebuild_matches_new_and_reuses() {
        let a: Vec<Complex> = (0..50).map(|k| Complex::new(k as f64, 0.5)).collect();
        let b: Vec<Complex> = (0..20).map(|k| Complex::new(-1.0, k as f64)).collect();
        let mut reused = PrefixSums::new(&a);
        reused.rebuild(&b);
        let fresh = PrefixSums::new(&b);
        assert_eq!(reused.n_samples(), fresh.n_samples());
        for lo in 0..20 {
            for hi in lo..=20 {
                let m1 = reused.mean(lo as isize, hi as isize);
                let m2 = fresh.mean(lo as isize, hi as isize);
                assert_eq!(m1.re.to_bits(), m2.re.to_bits());
                assert_eq!(m1.im.to_bits(), m2.im.to_bits());
            }
        }
        let empty = PrefixSums::default();
        assert_eq!(empty.n_samples(), 0);
        assert_eq!(empty.mean(0, 5), Complex::ZERO);
    }

    /// `sqrt_cutoff(t)` must be the *exact* boundary: its sqrt reaches
    /// `t`, its predecessor's does not.
    #[test]
    fn sqrt_cutoff_is_the_exact_boundary() {
        let mut t = 1.734e-9_f64;
        for _ in 0..2000 {
            let y = sqrt_cutoff(t);
            assert!(y.sqrt() >= t, "t={t:e}: sqrt({y:e}) < t");
            if y > 0.0 {
                let below = f64::from_bits(y.to_bits() - 1);
                assert!(below.sqrt() < t, "t={t:e}: cutoff {y:e} not minimal");
            }
            t *= 1.0137;
        }
        assert_eq!(sqrt_cutoff(0.0).to_bits(), 0);
        assert_eq!(sqrt_cutoff(-1.0).to_bits(), 0);
    }

    /// The differential kernel zeroes both margins and, inside them,
    /// matches the `PrefixSums::mean` spelling of the differential bit for
    /// bit.
    #[test]
    fn diff_msq_margins_are_zero_and_interior_matches_differential_at() {
        let mut st = 0x9e37_79b9_7f4a_7c15_u64;
        let mut noise = || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            (st >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let n = 300;
        let sig: Vec<Complex> = (0..n).map(|_| Complex::new(noise(), noise())).collect();
        let sums = PrefixSums::new(&sig);
        let (re, im) = sums.channels();
        let (g, w) = (2usize, 4usize);
        let mut got = Vec::new();
        diff_msq_into(re, im, g, w, &mut got);
        assert_eq!(got.len(), n);
        for t in 0..(g + w) {
            assert_eq!(got[t].to_bits(), 0);
            assert_eq!(got[n - 1 - t].to_bits(), 0);
        }
        for (t, v) in got.iter().enumerate().take(n - g - w).skip(g + w) {
            let want = differential_at(&sums, t as f64, g as f64, w).norm_sqr();
            assert_eq!(v.to_bits(), want.to_bits(), "t={t}");
        }
    }

    #[test]
    fn diff_msq_handles_degenerate_sizes() {
        let mut out = Vec::new();
        diff_msq_into(&[0.0], &[0.0], 3, 5, &mut out);
        assert!(out.is_empty());
        // Margin swallows the whole series: all zeros.
        let re = vec![0.0; 9];
        diff_msq_into(&re, &re, 3, 5, &mut out);
        assert_eq!(out, vec![0.0; 8]);
    }

    /// The scratch-threaded squared-domain path must return exactly what
    /// the convenience wrapper returns, with dirty reused buffers.
    #[test]
    fn detect_edges_with_matches_wrapper() {
        let h = Complex::new(0.1, 0.06);
        let sig = steps(700, &[100, 260, 430, 600], h, Complex::new(0.3, -0.1));
        let expected = detect_edges(&sig, &cfg());
        let sums = PrefixSums::new(&sig);
        let mut msq = vec![7.0; 3];
        let mut select = vec![-2.0; 9000];
        let mut admission = Vec::new();
        let got = detect_edges_with(&sums, &cfg(), &mut msq, &mut select, &mut admission);
        assert!(admission.is_empty(), "healthy capture hit a gate");
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.time.to_bits(), e.time.to_bits());
            assert_eq!(g.diff.re.to_bits(), e.diff.re.to_bits());
            assert_eq!(g.diff.im.to_bits(), e.diff.im.to_bits());
            assert_eq!(g.strength.to_bits(), e.strength.to_bits());
        }
    }
}
