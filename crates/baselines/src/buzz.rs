//! The Buzz baseline (§2.2, Eq. 1): linear signal separation.
//!
//! Buzz has every tag transmit in lock-step; the received symbol is
//! `y = d·h·b` — a random known combination matrix times the diagonal of
//! channel coefficients times the bit vector. The reader estimates `h`
//! once (compressive-sensing in the original; a dedicated estimation
//! phase here), then collects `m` randomized measurements per bit round
//! and inverts.
//!
//! Our decoder is regularized least squares over the real-stacked complex
//! system, followed by decode-and-subtract refinement (the discrete {0,1}
//! alphabet lets confident bits be pinned and removed, which is how Buzz
//! gets away with `m < n` at good SNR), and a rateless loop: if the
//! residual stays high, more measurements are requested — exactly the
//! "once a combination with low error is determined, nodes move on"
//! behaviour.
//!
//! The two structural weaknesses the paper calls out are both visible
//! here: (1) everything runs at one lock-step rate, so the tags need
//! matched clocks and FIFOs; (2) decoding uses `h` estimated earlier — the
//! Fig. 1 channel dynamics (people, rotation, coupling) silently corrupt
//! it, which the `stale_channel` tests and the Fig. 1 experiment exercise.

use lf_dsp::linalg::Matrix;
use lf_types::{BitVec, Complex};
use rand::Rng;

/// Buzz protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct BuzzConfig {
    /// Lock-step chip rate in bps (paper: 100 kbps).
    pub chip_rate_bps: f64,
    /// Initial measurements per bit round, as a fraction of the population
    /// (decode-and-subtract lets this sit below 1.0).
    pub initial_meas_frac: f64,
    /// Maximum measurements per bit round, as a multiple of the
    /// population, before the round is abandoned (rateless cap).
    pub max_meas_factor: f64,
    /// Residual (per measurement, relative to signal scale) below which a
    /// round is accepted.
    pub residual_threshold: f64,
    /// Channel-estimation chips spent per tag per epoch.
    pub est_chips_per_tag: f64,
    /// Probability a tag transmits in a given measurement (the `d`
    /// matrix's density).
    pub mix_density: f64,
}

impl BuzzConfig {
    /// Defaults reproducing the paper's reported Buzz operating point
    /// (§4.2 reproduces Buzz at 100 kbps, 96-bit messages).
    pub fn paper_default() -> Self {
        BuzzConfig {
            chip_rate_bps: 100_000.0,
            initial_meas_frac: 0.5,
            max_meas_factor: 3.0,
            residual_threshold: 0.15,
            est_chips_per_tag: 4.0,
            mix_density: 0.5,
        }
    }
}

/// The outcome of one Buzz message exchange.
#[derive(Debug, Clone)]
pub struct BuzzOutcome {
    /// Decoded message per tag.
    pub decoded: Vec<BitVec>,
    /// Total chips spent (estimation + measurements).
    pub chips_used: usize,
    /// Wall-clock airtime.
    pub airtime_secs: f64,
    /// Bit rounds that hit the rateless cap.
    pub failed_rounds: usize,
}

impl BuzzOutcome {
    /// Aggregate goodput: correct payload bits per second of airtime.
    pub fn aggregate_goodput_bps(&self, truth: &[BitVec]) -> f64 {
        let correct: usize = self
            .decoded
            .iter()
            .zip(truth)
            .map(|(d, t)| t.len().saturating_sub(d.hamming_distance(t)))
            .sum();
        correct as f64 / self.airtime_secs
    }
}

/// A Buzz network: `n` tags with (true) channel coefficients.
#[derive(Debug, Clone)]
pub struct BuzzNetwork {
    h_true: Vec<Complex>,
    cfg: BuzzConfig,
}

impl BuzzNetwork {
    /// Builds a network from the tags' channel coefficients.
    pub fn new(cfg: BuzzConfig, h: Vec<Complex>) -> Self {
        assert!(!h.is_empty(), "need at least one tag");
        BuzzNetwork { h_true: h, cfg }
    }

    /// Number of tags.
    pub fn n_tags(&self) -> usize {
        self.h_true.len()
    }

    /// Runs one lock-step message exchange: every tag transmits `bits[i]`
    /// (all equal length). `h_est` is what the reader *believes* the
    /// channel is — pass the true coefficients for a fresh estimate, or a
    /// stale copy to reproduce the Fig. 1 failure mode. `noise_sigma` is
    /// per-component AWGN on each measurement.
    pub fn exchange<R: Rng>(
        &self,
        bits: &[BitVec],
        h_est: &[Complex],
        noise_sigma: f64,
        rng: &mut R,
    ) -> BuzzOutcome {
        let n = self.n_tags();
        assert_eq!(bits.len(), n, "one message per tag");
        assert_eq!(h_est.len(), n);
        let len = bits[0].len();
        assert!(
            bits.iter().all(|b| b.len() == len),
            "lock-step requires equal message lengths"
        );
        let cfg = &self.cfg;
        let m0 = ((cfg.initial_meas_frac * n as f64).ceil() as usize).max(2);
        let m_max = ((cfg.max_meas_factor * n as f64).ceil() as usize).max(m0 + 2);
        let scale = self.h_true.iter().map(|h| h.abs()).sum::<f64>() / n as f64;

        let mut decoded: Vec<BitVec> = vec![BitVec::with_capacity(len); n];
        let mut chips = (cfg.est_chips_per_tag * n as f64).ceil() as usize;
        let mut failed_rounds = 0usize;

        for bit_idx in 0..len {
            let b_true: Vec<f64> = bits.iter().map(|b| b[bit_idx] as u8 as f64).collect();
            let mut mixes: Vec<Vec<f64>> = Vec::new();
            let mut ys: Vec<Complex> = Vec::new();
            let best: Option<Vec<bool>>;
            let mut m = m0;
            loop {
                while mixes.len() < m {
                    // Random {0,1} mixing row, known to the reader. A row
                    // that samples nobody is uninformative; a tag no row
                    // samples is invisible (its column is zero and the
                    // ridge silently drives its estimate to 0) — so each
                    // new row is repaired to include one not-yet-covered
                    // tag while any remain.
                    let mut row: Vec<f64> = (0..n)
                        .map(|_| (rng.gen::<f64>() < cfg.mix_density) as u8 as f64)
                        .collect();
                    if let Some(uncovered) = (0..n)
                        .find(|&i| row[i] == 0.0 && mixes.iter().all(|r: &Vec<f64>| r[i] == 0.0))
                    {
                        row[uncovered] = 1.0;
                    }
                    if row.iter().all(|&v| v == 0.0) {
                        row[rng.gen_range(0..n)] = 1.0;
                    }
                    // Measurement uses the TRUE channel.
                    let mut y = Complex::ZERO;
                    for i in 0..n {
                        y += self.h_true[i].scale(row[i] * b_true[i]);
                    }
                    y += Complex::new(noise_sigma * std_normal(rng), noise_sigma * std_normal(rng));
                    mixes.push(row);
                    ys.push(y);
                }
                if let Some(b) = solve_round(&mixes, &ys, h_est, scale, cfg.residual_threshold) {
                    best = Some(b);
                    break;
                }
                if m >= m_max {
                    failed_rounds += 1;
                    // Accept the best-effort LS estimate at the cap.
                    best = solve_round(&mixes, &ys, h_est, scale, f64::INFINITY);
                    break;
                }
                m = (m + (n / 4).max(1)).min(m_max);
            }
            let b = best.unwrap_or_else(|| vec![false; n]);
            for (i, bit) in b.iter().enumerate() {
                decoded[i].push(*bit);
            }
            chips += mixes.len();
        }

        let airtime_secs = chips as f64 / cfg.chip_rate_bps;
        BuzzOutcome {
            decoded,
            chips_used: chips,
            airtime_secs,
            failed_rounds,
        }
    }
}

/// Solves one bit round: regularized stacked-real least squares, then
/// decode-and-subtract: round the most confident bit, substitute, repeat.
/// Returns `None` when the final residual exceeds `residual_threshold`
/// (relative to `scale`).
fn solve_round(
    mixes: &[Vec<f64>],
    ys: &[Complex],
    h_est: &[Complex],
    scale: f64,
    residual_threshold: f64,
) -> Option<Vec<bool>> {
    let n = h_est.len();
    let m = mixes.len();
    // Build the 2m×n real system: rows are [Re(d·h); Im(d·h)].
    let mut data = Vec::with_capacity(2 * m * n);
    for row in mixes {
        for i in 0..n {
            data.push(row[i] * h_est[i].re);
        }
    }
    for row in mixes {
        for i in 0..n {
            data.push(row[i] * h_est[i].im);
        }
    }
    let a = Matrix::from_rows(2 * m, n, data);
    let mut rhs: Vec<f64> = ys.iter().map(|y| y.re).collect();
    rhs.extend(ys.iter().map(|y| y.im));

    let ridge = (0.05 * scale).powi(2) + 1e-9;
    let x = a.least_squares(&rhs, ridge).ok()?;

    // Decode-and-subtract: iteratively pin the most confident coordinate.
    // The smallest confidence margin seen at pin time gates acceptance:
    // with m < n an ambiguous (wrong) solution can reproduce the
    // measurements, but it betrays itself through coordinates hovering
    // near the 0.5 decision boundary.
    let mut fixed: Vec<Option<bool>> = vec![None; n];
    let mut min_margin = f64::INFINITY;
    let mut x = x;
    for _ in 0..n {
        // Most confident unfixed coordinate = farthest from 0.5.
        let (idx, &val) = x
            .iter()
            .enumerate()
            .filter(|(i, _)| fixed[*i].is_none())
            .max_by(|a, b| (a.1 - 0.5).abs().total_cmp(&(b.1 - 0.5).abs()))?;
        min_margin = min_margin.min((val - 0.5).abs());
        fixed[idx] = Some(x[idx] >= 0.5);
        // Re-solve the reduced system with fixed coordinates substituted.
        let free: Vec<usize> = (0..n).filter(|&i| fixed[i].is_none()).collect();
        if free.is_empty() {
            break;
        }
        let mut data = Vec::with_capacity(2 * m * free.len());
        let mut rhs2 = Vec::with_capacity(2 * m);
        for (part, ys_part) in [(0, ys), (1, ys)] {
            for (row, y) in mixes.iter().zip(ys_part) {
                let mut acc = if part == 0 { y.re } else { y.im };
                for i in 0..n {
                    if let Some(b) = fixed[i] {
                        let hv = if part == 0 { h_est[i].re } else { h_est[i].im };
                        acc -= row[i] * hv * (b as u8 as f64);
                    }
                }
                rhs2.push(acc);
                for &i in &free {
                    let hv = if part == 0 { h_est[i].re } else { h_est[i].im };
                    data.push(row[i] * hv);
                }
            }
        }
        let a2 = Matrix::from_rows(2 * m, free.len(), data);
        let Ok(sol) = a2.least_squares(&rhs2, ridge) else {
            break;
        };
        for (j, &i) in free.iter().enumerate() {
            x[i] = sol[j];
        }
    }
    let b: Vec<bool> = (0..n).map(|i| fixed[i].unwrap_or(x[i] >= 0.5)).collect();

    // Residual check against the measurements.
    let mut residual = 0.0;
    for (row, y) in mixes.iter().zip(ys) {
        let mut pred = Complex::ZERO;
        for i in 0..n {
            pred += h_est[i].scale(row[i] * (b[i] as u8 as f64));
        }
        residual += (pred - *y).norm_sqr();
    }
    let rms = (residual / m as f64).sqrt();
    let accepted = rms <= residual_threshold * scale
        && (residual_threshold.is_infinite() || min_margin >= 0.25);
    accepted.then_some(b)
}

fn std_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn coefficients(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Complex::from_polar(
                    rng.gen_range(0.05..0.15),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )
            })
            .collect()
    }

    fn messages(n: usize, len: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen::<bool>()).collect())
            .collect()
    }

    #[test]
    fn clean_channel_decodes_exactly() {
        let h = coefficients(8, 1);
        let net = BuzzNetwork::new(BuzzConfig::paper_default(), h.clone());
        let msgs = messages(8, 32, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let out = net.exchange(&msgs, &h, 0.002, &mut rng);
        for (d, t) in out.decoded.iter().zip(&msgs) {
            assert_eq!(d, t);
        }
        assert_eq!(out.failed_rounds, 0);
    }

    #[test]
    fn goodput_is_well_below_lf_scale() {
        // Fig. 8: Buzz lands an order of magnitude below n×rate.
        let n = 16;
        let h = coefficients(n, 4);
        let net = BuzzNetwork::new(BuzzConfig::paper_default(), h.clone());
        let msgs = messages(n, 96, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let out = net.exchange(&msgs, &h, 0.002, &mut rng);
        let goodput = out.aggregate_goodput_bps(&msgs);
        assert!(
            (80_000.0..400_000.0).contains(&goodput),
            "Buzz 16-tag goodput {goodput} bps out of plausible band"
        );
    }

    #[test]
    fn stale_channel_causes_errors() {
        // Rotate every coefficient by 35°: the Fig. 1 tag-rotation case.
        let n = 8;
        let h = coefficients(n, 7);
        let stale: Vec<Complex> = h
            .iter()
            .map(|&c| c * Complex::from_polar(1.0, 0.6))
            .collect();
        let net = BuzzNetwork::new(BuzzConfig::paper_default(), h);
        let msgs = messages(n, 48, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let fresh = net.exchange(&msgs, &stale, 0.002, &mut rng);
        let errors: usize = fresh
            .decoded
            .iter()
            .zip(&msgs)
            .map(|(d, t)| d.hamming_distance(t))
            .sum();
        assert!(
            errors > 10,
            "stale channel should corrupt the decode, got {errors} errors"
        );
    }

    #[test]
    fn noise_forces_more_measurements() {
        let n = 8;
        let h = coefficients(n, 10);
        let net = BuzzNetwork::new(BuzzConfig::paper_default(), h.clone());
        let msgs = messages(n, 24, 11);
        let mut rng_a = StdRng::seed_from_u64(12);
        let mut rng_b = StdRng::seed_from_u64(12);
        let quiet = net.exchange(&msgs, &h, 0.001, &mut rng_a);
        let loud = net.exchange(&msgs, &h, 0.03, &mut rng_b);
        assert!(
            loud.chips_used >= quiet.chips_used,
            "quiet {} vs loud {}",
            quiet.chips_used,
            loud.chips_used
        );
    }

    #[test]
    fn single_tag_network_works() {
        let h = coefficients(1, 13);
        let net = BuzzNetwork::new(BuzzConfig::paper_default(), h.clone());
        let msgs = messages(1, 16, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let out = net.exchange(&msgs, &h, 0.002, &mut rng);
        assert_eq!(out.decoded[0], msgs[0]);
    }

    #[test]
    #[should_panic(expected = "equal message lengths")]
    fn unequal_messages_rejected() {
        let h = coefficients(2, 16);
        let net = BuzzNetwork::new(BuzzConfig::paper_default(), h.clone());
        let msgs = vec![BitVec::from_u64(1, 8), BitVec::from_u64(1, 4)];
        let mut rng = StdRng::seed_from_u64(17);
        let _ = net.exchange(&msgs, &h, 0.0, &mut rng);
    }
}
