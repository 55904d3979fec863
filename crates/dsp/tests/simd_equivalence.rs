//! Bit-identity pinning of the SoA/SIMD hot kernel against its scalar
//! reference, in the style of `hotpath_equivalence`.
//!
//! The kernel in `lf_dsp::simd` carries the contract that the
//! runtime-dispatched backend is *bitwise* identical to the scalar
//! spelling — the golden decode digest depends on it. The proptest
//! drives it over randomized inputs twice, once with
//! `set_scalar_override(true)` and once dispatched, and compares outputs
//! by exact bit pattern (`to_bits`), not tolerance. The batched
//! multi-period fold is pinned the same way against repeated
//! single-period folds.

use std::sync::Mutex;

use lf_dsp::fold::{FoldSpec, FoldTable, FoldedHistogram};
use lf_dsp::simd::{nearest_centroid_into, set_scalar_override};
use proptest::prelude::*;

/// The scalar override is process-global: without serialization, a
/// sibling test flipping it mid-comparison would silently run both legs
/// on the same backend (the assertion would still hold — both backends
/// are identical — but the test would stop exercising the SIMD path).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once forced-scalar and once dispatched, returning both
/// results, with the override held stable for the duration.
fn on_both_backends<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = BACKEND_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_scalar_override(true);
    let scalar = f();
    set_scalar_override(false);
    let dispatched = f();
    (scalar, dispatched)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nearest-centroid assignment: first-minimum index and exact squared
    /// distance agree between backends for every point, including ties
    /// (duplicate centroids) and the empty-centroid degenerate case.
    #[test]
    fn nearest_centroid_bit_identical(
        pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..200),
        cents_raw in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..10),
        dup in any::<bool>(),
    ) {
        let mut cents = cents_raw;
        if dup && !cents.is_empty() {
            // Exercise the tie path: a duplicated centroid must still
            // yield the *first* minimizing index on both backends.
            let first = cents[0];
            cents.push(first);
        }
        let pre: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let pim: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let cre: Vec<f64> = cents.iter().map(|c| c.0).collect();
        let cim: Vec<f64> = cents.iter().map(|c| c.1).collect();
        let (scalar, dispatched) = on_both_backends(|| {
            let mut idx = Vec::new();
            let mut dist = Vec::new();
            nearest_centroid_into(&pre, &pim, &cre, &cim, &mut idx, &mut dist);
            (idx, dist)
        });
        prop_assert_eq!(scalar.0, dispatched.0);
        prop_assert_eq!(bits(&scalar.1), bits(&dispatched.1));
    }

    /// The batched multi-period fold is bit-identical to k separate
    /// single-period folds over the same table — bins, counts, and
    /// periods — for random event sets with retired entries and random
    /// per-spec window bounds.
    #[test]
    fn batched_fold_matches_repeated_folds(
        events in proptest::collection::vec(
            (0.0f64..100_000.0, 0.0f64..10.0, 0u32..100),
            1..400,
        ),
        raw_specs in proptest::collection::vec(
            (5.0f64..5_000.0, 1usize..128, 0.0f64..120_000.0),
            1..6,
        ),
    ) {
        let times: Vec<f64> = events.iter().map(|e| e.0).collect();
        let weights: Vec<f64> = events.iter().map(|e| e.1).collect();
        let mut table = FoldTable::new(times, weights);
        for (i, e) in events.iter().enumerate() {
            // ~15 % of events retired, so the `active` filter is live.
            if e.2 < 15 {
                table.retire(i);
            }
        }
        let specs: Vec<FoldSpec> = raw_specs
            .iter()
            .map(|&(period, nbins, t_max)| FoldSpec { period, nbins, t_max })
            .collect();

        let mut batched: Vec<FoldedHistogram> = Vec::new();
        table.fold_many_within_to(&specs, &mut batched);
        prop_assert!(batched.len() >= specs.len());

        let mut single = FoldedHistogram::default();
        for (spec, out) in specs.iter().zip(&batched) {
            table.fold_within_to(spec.period, spec.nbins, spec.t_max, &mut single);
            prop_assert_eq!(single.period.to_bits(), out.period.to_bits());
            prop_assert_eq!(bits(&single.bins), bits(&out.bins));
            prop_assert_eq!(&single.counts, &out.counts);
        }
    }
}
