//! # lf-bench
//!
//! The benchmark and reproduction harness:
//!
//! * `repro` (binary) — regenerates **every table and figure** of the
//!   paper's evaluation and prints them as fixed-width tables. Run
//!   `cargo run --release -p lf-bench --bin repro -- all` for the full
//!   paper-scale pass (minutes), or `-- all --quick` for the scaled-down
//!   pass (seconds). Individual experiments: `-- fig8`, `-- table2`, …
//! * `pipeline` (Criterion bench) — wall-clock cost of the decode
//!   pipeline's stages on a standard 8-tag capture, for performance
//!   regression tracking.
//! * `figures` (Criterion bench) — wall-clock cost of representative
//!   experiment kernels (one Fig. 8 point, one Fig. 12 point, one Fig. 14
//!   point), so reproduction runtime stays visible.
//!
//! This crate holds shared fixture builders used by both benches.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::print_stdout, clippy::print_stderr)]

use lf_core::config::DecodeStages;
use lf_sim::experiments::common::{standard_scenario, ThroughputParams};
use lf_sim::experiments::Scale;
use lf_sim::scenario::Scenario;
use lf_sim::simulate::synthesize_epoch;
use lf_types::Complex;

/// A pre-synthesized standard capture: `n` tags at the scale's common
/// rate, one epoch, plus the scenario that produced it.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The scenario.
    pub scenario: Scenario,
    /// The raw IQ capture.
    pub signal: Vec<Complex>,
}

/// Builds the standard fixture used by the pipeline benches.
pub fn standard_fixture(scale: Scale, n_tags: usize, seed: u64) -> Fixture {
    let p = ThroughputParams::for_scale(scale);
    let scenario = standard_scenario(&p, n_tags, p.rate_bps, seed);
    let (signal, _) = synthesize_epoch(&scenario, 0);
    Fixture { scenario, signal }
}

/// The decode-stage configurations benchmarked by name.
pub fn stage_configs() -> [(&'static str, DecodeStages); 3] {
    [
        ("edge", DecodeStages::edge_only()),
        ("edge+iq", DecodeStages::edge_iq()),
        ("edge+iq+error", DecodeStages::full()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let f = standard_fixture(Scale::Quick, 4, 1);
        assert_eq!(f.signal.len(), f.scenario.epoch_samples);
        assert_eq!(f.scenario.tags.len(), 4);
    }

    #[test]
    fn stage_configs_cover_fig9() {
        let cfgs = stage_configs();
        assert_eq!(cfgs.len(), 3);
        assert!(!cfgs[0].1.iq_separation);
        assert!(cfgs[2].1.error_correction);
    }
}
