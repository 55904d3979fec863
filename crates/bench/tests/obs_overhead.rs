//! Overhead guard for the observability layer: every instrumentation
//! hook in the pipeline (`span!` scopes, registry counters, provenance
//! assembly) must be a near-free no-op when the [`ObsContext`] is
//! disabled. A [`Decoder::new`] decoder *is* the disabled path — this
//! test pins that it is not measurably slower than the fully
//! instrumented decoder, i.e. the hooks themselves cost nothing and all
//! real cost sits behind the enabled check.
//!
//! Methodology: interleaved min-of-samples. Each sample times a batch of
//! decodes; taking the minimum over several interleaved samples strips
//! scheduler noise (the minimum is the cleanest observation of the true
//! cost, and both paths get the same thermal/cache environment). The
//! disabled path genuinely does less work, so `min(disabled)` exceeding
//! `min(enabled)` by more than the 1% tolerance means the disabled
//! fast-path check broke.

use lf_bench::standard_fixture;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::Decoder;
use lf_core::DecodeScratch;
use lf_obs::ObsContext;
use lf_sim::experiments::Scale;
use std::time::{Duration, Instant};

/// Minimum interleaved samples before the bounds are consulted.
const MIN_SAMPLES: usize = 7;
/// Hard cap on samples: a persistent regression fails here; scheduler
/// noise (which only ever *inflates* a minimum) gets time to wash out.
const MAX_SAMPLES: usize = 35;
const DECODES_PER_SAMPLE: usize = 4;

/// Times one batch of decodes on the path's own warm scratch (as a
/// reader worker decodes), so the comparison is instrumentation cost only.
fn time_batch(
    decoder: &Decoder,
    scratch: &mut DecodeScratch,
    signal: &[lf_types::Complex],
) -> Duration {
    let t0 = Instant::now();
    for _ in 0..DECODES_PER_SAMPLE {
        let (decode, _) = decoder.decode_timed_with(signal, scratch);
        assert!(!decode.streams.is_empty(), "fixture must decode");
    }
    t0.elapsed()
}

#[test]
fn disabled_obs_is_free() {
    let fix = standard_fixture(Scale::Quick, 4, 1);
    let cfg = || {
        let mut c = DecoderConfig::at_sample_rate(fix.scenario.sample_rate);
        c.rate_plan = fix.scenario.rate_plan.clone();
        c
    };
    let disabled = Decoder::new(cfg());
    let enabled = Decoder::with_obs(cfg(), ObsContext::new());
    let mut disabled_scratch = DecodeScratch::default();
    let mut enabled_scratch = DecodeScratch::default();

    // Warm-up: page in both code paths, the allocator, and the scratches.
    time_batch(&disabled, &mut disabled_scratch, &fix.signal);
    time_batch(&enabled, &mut enabled_scratch, &fix.signal);

    // Adaptive sampling: each minimum is monotone nonincreasing, so extra
    // samples can only move a noisy observation *toward* the true cost —
    // noise can delay a pass but never manufacture one. A genuine
    // regression stays above the bound for all MAX_SAMPLES and fails.
    let mut t_disabled = Duration::MAX;
    let mut t_enabled = Duration::MAX;
    let in_bounds = |d: Duration, e: Duration| {
        d.as_secs_f64() <= e.as_secs_f64() * 1.01 && e.as_secs_f64() <= d.as_secs_f64() * 1.05
    };
    for sample in 0..MAX_SAMPLES {
        t_disabled = t_disabled.min(time_batch(&disabled, &mut disabled_scratch, &fix.signal));
        t_enabled = t_enabled.min(time_batch(&enabled, &mut enabled_scratch, &fix.signal));
        if sample + 1 >= MIN_SAMPLES && in_bounds(t_disabled, t_enabled) {
            break;
        }
    }

    let overhead = t_enabled.as_secs_f64() / t_disabled.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0;
    println!(
        "obs overhead: disabled {:.3} ms, instrumented {:.3} ms per batch \
         ({:+.2}% instrumented vs disabled)",
        t_disabled.as_secs_f64() * 1e3,
        t_enabled.as_secs_f64() * 1e3,
        overhead * 100.0,
    );

    // The guard: the disabled path may cost at most 1% relative to the
    // instrumented one. (It should in fact be the *faster* of the two —
    // this fires when the disabled fast-path check stops short-circuiting
    // and the hooks start doing work unconditionally.)
    assert!(
        t_disabled.as_secs_f64() <= t_enabled.as_secs_f64() * 1.01,
        "disabled observability path is >1% slower than the instrumented one: \
         disabled {t_disabled:?} vs enabled {t_enabled:?}"
    );

    // And the enabled-path budget: with metric handles pre-resolved once
    // per decoder (no registry lookups, no name formatting per epoch),
    // full instrumentation may cost at most 5% over the disabled path.
    // This fires when a per-epoch name lookup sneaks back into the hot
    // path.
    assert!(
        t_enabled.as_secs_f64() <= t_disabled.as_secs_f64() * 1.05,
        "instrumented decode is >5% slower than disabled: \
         enabled {t_enabled:?} vs disabled {t_disabled:?}"
    );
}
