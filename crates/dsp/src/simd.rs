//! Runtime-dispatched SIMD kernel with a bit-identical scalar fallback.
//!
//! One hot loop earns a vector variant: the nearest-centroid assignment of
//! k-means, which the separation stage runs over every slot differential
//! of a busy epoch. It operates on structure-of-arrays `&[f64]` slices
//! (see [`lf_types::IqBuffer`] and DESIGN.md §15) so the vector variant
//! can use plain unaligned loads instead of gathers. The other
//! elementwise loops of the decode path (the edge stage's differential
//! and sqrt-deviation passes, the peak scan's sub-threshold skip) are
//! plain scalar code next to their callers: at paper scale they are
//! memory-bound, and vectorizing them saves about 1 ns/sample, below
//! what any end-to-end metric resolves.
//!
//! **Determinism policy (DESIGN.md §15):** the kernel has exactly one
//! observable result. The AVX-512 variant performs the *same* IEEE-754
//! operations as the scalar spelling — elementwise add/sub/mul, never FMA
//! (which contracts two roundings into one) — so scalar and vector
//! outputs are bit-identical on every input, pinned by the
//! `simd_equivalence` proptests and asserted again by the golden decode
//! digest. Backend selection can therefore never change a decode.
//!
//! Selection order: the `simd` cargo feature must be on (default), the
//! target must be x86_64, the build must not be under Miri (Miri cannot
//! execute vendor intrinsics), the process-wide scalar override must be
//! off, and `avx512f` must be detected at runtime. Anything else runs the
//! scalar fallback.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide kill switch for the vector kernel (used by the
/// equivalence tests and available to operators chasing a suspected
/// miscompile). `true` forces the kernel onto its scalar fallback.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or un-forces) the kernel onto its scalar fallback,
/// process-wide. Outputs are bit-identical either way; this only changes
/// which instructions produce them.
pub fn set_scalar_override(force: bool) {
    // ordering: Relaxed suffices — the flag is an independent boolean with
    // no data published alongside it; readers only need to eventually see
    // the store, and the equivalence tests toggle it on a single thread.
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Which kernel implementation [`active_backend`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar fallbacks (always available; the reference
    /// spelling every other backend is pinned against).
    Scalar,
    /// 8-lane f64 kernels using AVX-512F.
    Avx512f,
}

/// Resolves the backend the kernel will use for the current call.
pub fn active_backend() -> Backend {
    #[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
    {
        // ordering: Relaxed suffices — the flag guards no other memory;
        // either backend produces bit-identical outputs, so a stale read
        // only changes which instructions compute them.
        if !FORCE_SCALAR.load(Ordering::Relaxed) && is_x86_feature_detected!("avx512f") {
            return Backend::Avx512f;
        }
    }
    Backend::Scalar
}

/// Nearest-centroid assignment (k-means inner loop, §3.3): for every point
/// `(pre[i], pim[i])`, finds the centroid `(cre[j], cim[j])` minimizing
/// the squared distance `(px-cx)² + (py-cy)²` and writes the *first*
/// minimizing index to `idx[i]` and its distance to `dist[i]`.
///
/// First-minimum semantics match `Iterator::min_by(f64::total_cmp)` over
/// finite distances: the running best is replaced only on a strict `<`.
/// With no centroids every point gets index 0 and distance `+∞`.
pub fn nearest_centroid_into(
    pre: &[f64],
    pim: &[f64],
    cre: &[f64],
    cim: &[f64],
    idx: &mut Vec<u32>,
    dist: &mut Vec<f64>,
) {
    assert_eq!(pre.len(), pim.len(), "point re/im length mismatch");
    assert_eq!(cre.len(), cim.len(), "centroid re/im length mismatch");
    idx.clear();
    idx.resize(pre.len(), 0);
    dist.clear();
    dist.resize(pre.len(), f64::INFINITY);
    if cre.is_empty() {
        return;
    }
    match active_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
        Backend::Avx512f => x86::nearest_centroid(pre, pim, cre, cim, idx, dist),
        _ => nearest_centroid_scalar(pre, pim, cre, cim, idx, dist),
    }
}

/// Scalar reference for [`nearest_centroid_into`].
// hot-kernel begin (no-aos-hotloop: SoA slices only in this region)
fn nearest_centroid_scalar(
    pre: &[f64],
    pim: &[f64],
    cre: &[f64],
    cim: &[f64],
    idx: &mut [u32],
    dist: &mut [f64],
) {
    for i in 0..pre.len() {
        let (px, py) = (pre[i], pim[i]);
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (j, (&cx, &cy)) in cre.iter().zip(cim).enumerate() {
            let dx = px - cx;
            let dy = py - cy;
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = j as u32;
            }
        }
        idx[i] = best;
        dist[i] = best_d;
    }
}
// hot-kernel end

/// AVX-512F variant. The loop performs the same IEEE operations as its
/// scalar reference, lane by lane; the tail re-enters the scalar spelling.
#[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::{
        __m512d, _mm512_cmp_pd_mask, _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_mul_pd,
        _mm512_set1_epi64, _mm512_set1_pd, _mm512_storeu_pd, _mm512_sub_pd, _CMP_LT_OQ,
    };

    const LANES: usize = 8;

    /// Re-asserts CPU support (a cached atomic load), then enters the
    /// vector kernel. The dispatcher only routes here after detection, so
    /// the assert is a backstop that keeps this entry point sound.
    pub(super) fn nearest_centroid(
        pre: &[f64],
        pim: &[f64],
        cre: &[f64],
        cim: &[f64],
        idx: &mut [u32],
        dist: &mut [f64],
    ) {
        assert!(is_x86_feature_detected!("avx512f"), "avx512f not available");
        // SAFETY: avx512f verified above; the dispatcher sizes `idx` and
        // `dist` to `pre.len()` and rejects empty centroid sets.
        unsafe { nearest_centroid_avx512(pre, pim, cre, cim, idx, dist) }
    }

    /// Plain vector add, named to make the no-FMA policy greppable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn _mm512_add_pd_exact(a: __m512d, b: __m512d) -> __m512d {
        core::arch::x86_64::_mm512_add_pd(a, b)
    }

    /// # Safety
    /// Caller must have verified `avx512f`; `idx`/`dist` must be
    /// `pre.len()` long, `cre`/`cim` non-empty and equal-length.
    #[target_feature(enable = "avx512f")]
    unsafe fn nearest_centroid_avx512(
        pre: &[f64],
        pim: &[f64],
        cre: &[f64],
        cim: &[f64],
        idx: &mut [u32],
        dist: &mut [f64],
    ) {
        // SAFETY: point loads and the dist store touch [i, i + 8) with
        // i + LANES <= pre.len() == pim.len() == dist.len() == idx.len();
        // the best-index vector is spilled through a fixed [i64; 8].
        unsafe {
            let n = pre.len();
            let mut i = 0;
            while i + LANES <= n {
                let px = _mm512_loadu_pd(pre.as_ptr().add(i));
                let py = _mm512_loadu_pd(pim.as_ptr().add(i));
                let mut best_d = _mm512_set1_pd(f64::INFINITY);
                let mut best_i = _mm512_set1_epi64(0);
                for (j, (&cx, &cy)) in cre.iter().zip(cim).enumerate() {
                    let dx = _mm512_sub_pd(px, _mm512_set1_pd(cx));
                    let dy = _mm512_sub_pd(py, _mm512_set1_pd(cy));
                    let d = _mm512_add_pd_exact(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
                    // Strict `<` keeps the first minimum, like the scalar.
                    let better = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, best_d);
                    best_d = _mm512_mask_blend_pd(better, best_d, d);
                    best_i = core::arch::x86_64::_mm512_mask_blend_epi64(
                        better,
                        best_i,
                        _mm512_set1_epi64(j as i64),
                    );
                }
                _mm512_storeu_pd(dist.as_mut_ptr().add(i), best_d);
                let mut lanes = [0i64; LANES];
                core::arch::x86_64::_mm512_storeu_si512(lanes.as_mut_ptr().cast(), best_i);
                for (k, &l) in lanes.iter().enumerate() {
                    idx[i + k] = l as u32;
                }
                i += LANES;
            }
            super::nearest_centroid_scalar(
                &pre[i..],
                &pim[i..],
                cre,
                cim,
                &mut idx[i..],
                &mut dist[i..],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_override_round_trips() {
        let initial = active_backend();
        set_scalar_override(true);
        assert_eq!(active_backend(), Backend::Scalar);
        set_scalar_override(false);
        assert_eq!(active_backend(), initial);
    }

    #[test]
    fn no_centroids_leave_every_point_unassigned() {
        let (mut idx, mut dist) = (Vec::new(), Vec::new());
        nearest_centroid_into(&[1.0], &[1.0], &[], &[], &mut idx, &mut dist);
        assert_eq!(idx, vec![0]);
        assert_eq!(dist, vec![f64::INFINITY]);
    }

    #[test]
    fn nearest_centroid_keeps_first_minimum_on_ties() {
        // Two identical centroids: every point must resolve to index 0.
        let pre: Vec<f64> = (0..20).map(|k| k as f64).collect();
        let pim = vec![0.5; 20];
        let (mut idx, mut dist) = (Vec::new(), Vec::new());
        nearest_centroid_into(&pre, &pim, &[3.0, 3.0], &[0.0, 0.0], &mut idx, &mut dist);
        assert!(idx.iter().all(|&j| j == 0));
        assert!(dist.iter().all(|d| d.is_finite()));
    }
}
