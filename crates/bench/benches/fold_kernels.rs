//! Criterion benches of the SoA/SIMD nearest-centroid kernel and the
//! batched multi-period fold at ci-scenario sizes (60 k samples, 8 tags,
//! ~26 tracked streams, hundreds of edges per epoch).
//!
//! The kernel is swept twice — scalar fallback vs the runtime-dispatched
//! backend (`set_scalar_override`) — so the vector speedup stays visible
//! as its own number instead of being folded into the whole-pipeline
//! medians. The fold sweep compares k repeated single-period folds
//! against one `fold_many_within_to` batch over the same edge set at the
//! candidate-period counts the tracker actually tries per round.
//! Outputs are bit-identical across variants by construction (pinned by
//! the dsp equivalence suites); these benches measure only time.

use criterion::{criterion_group, criterion_main, Criterion};
use lf_bench::standard_fixture;
use lf_core::config::DecoderConfig;
use lf_core::edges::detect_edges;
use lf_dsp::fold::{FoldSpec, FoldTable, FoldedHistogram};
use lf_dsp::simd::{nearest_centroid_into, set_scalar_override};
use lf_sim::experiments::Scale;
use std::hint::black_box;

fn decoder_cfg(fix: &lf_bench::Fixture) -> DecoderConfig {
    let mut cfg = DecoderConfig::at_sample_rate(fix.scenario.sample_rate);
    cfg.rate_plan = fix.scenario.rate_plan.clone();
    cfg
}

/// Runs `f` once with the dispatched backend and once forced scalar,
/// registering `name_simd` / `name_scalar`.
fn sweep_backends(c: &mut Criterion, name: &str, mut f: impl FnMut()) {
    for (suffix, force) in [("simd", false), ("scalar", true)] {
        set_scalar_override(force);
        c.bench_function(&format!("{name}_{suffix}"), |b| b.iter(&mut f));
    }
    set_scalar_override(false);
}

/// Nearest-centroid assignment at separation-stage size: every slot
/// differential of a busy epoch against a 9-point collision lattice.
fn bench_nearest_centroid(c: &mut Criterion) {
    // ~2.6 k slot differentials (26 streams × ~100 slots) vs 9 centroids.
    let n_points = 2_600usize;
    let pre: Vec<f64> = (0..n_points).map(|i| (i as f64 * 0.37).sin()).collect();
    let pim: Vec<f64> = (0..n_points).map(|i| (i as f64 * 0.61).cos()).collect();
    let cre: Vec<f64> = (0..9).map(|j| (j as f64 - 4.0) / 4.0).collect();
    let cim: Vec<f64> = (0..9).map(|j| ((j * 7) % 9) as f64 / 9.0 - 0.5).collect();
    let mut idx = Vec::new();
    let mut dist = Vec::new();
    sweep_backends(c, "fold_kernels_nearest_centroid_2600x9", || {
        nearest_centroid_into(
            black_box(&pre),
            black_box(&pim),
            &cre,
            &cim,
            &mut idx,
            &mut dist,
        );
    });
}

/// Repeated single-period folds vs one batched multi-period pass over the
/// same edge set, at the candidate-period counts the tracker tries per
/// gather round.
fn bench_batched_fold(c: &mut Criterion) {
    let fix = standard_fixture(Scale::Quick, 8, 1);
    let cfg = decoder_cfg(&fix);
    let edges = detect_edges(&fix.signal, &cfg);
    assert!(!edges.is_empty(), "fixture produced no edges");
    let times: Vec<f64> = edges.iter().map(|e| e.time).collect();
    let n_samples = fix.signal.len() as f64;
    let table = FoldTable::with_unit_weights(times);
    for n_periods in [2usize, 4, 8] {
        let specs: Vec<FoldSpec> = (0..n_periods)
            .map(|k| {
                let period = 40.0 * (k + 1) as f64;
                FoldSpec {
                    period,
                    nbins: (period.round() as usize).max(1),
                    t_max: n_samples,
                }
            })
            .collect();
        let mut outs: Vec<FoldedHistogram> = Vec::new();
        c.bench_function(&format!("fold_kernels_fold_repeated_x{n_periods}"), |b| {
            b.iter(|| {
                if outs.len() < specs.len() {
                    outs.resize_with(specs.len(), FoldedHistogram::default);
                }
                for (spec, out) in specs.iter().zip(outs.iter_mut()) {
                    table.fold_within_to(spec.period, spec.nbins, spec.t_max, black_box(out));
                }
            });
        });
        c.bench_function(&format!("fold_kernels_fold_batched_x{n_periods}"), |b| {
            b.iter(|| {
                table.fold_many_within_to(black_box(&specs), &mut outs);
            });
        });
    }
}

criterion_group!(benches, bench_nearest_centroid, bench_batched_fold);
criterion_main!(benches);
