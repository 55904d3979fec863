//! Channel-coefficient dynamics (Fig. 1).
//!
//! §2.2 demonstrates three processes that change channel coefficients and
//! therefore break protocols that must re-estimate them (Buzz):
//!
//! * **People movement** (Fig. 1a) — multipath fading as a person walks
//!   around a stationary tag: slow, large-swing amplitude and phase wander.
//! * **Tag rotation** (Fig. 1b) — the tag antenna's dipole pattern sweeps
//!   through nulls as the tag rotates in place.
//! * **Near-field coupling** (Fig. 1c) — two tags within ~5 cm couple
//!   through their antennas, perturbing *both* coefficients; at ~1 m they
//!   are independent.
//!
//! LF-Backscatter itself only needs coefficients "relatively stable during
//! an epoch" (§3.4) — epochs are milliseconds while these processes evolve
//! over seconds, which is exactly the asymmetry the experiments probe.

use lf_types::Complex;
use rand::Rng;
use std::f64::consts::TAU;
use std::sync::Arc;

/// A time-varying channel coefficient.
pub trait CoeffProcess: Send + Sync {
    /// The coefficient at time `t` seconds from the start of the capture.
    fn coeff_at(&self, t: f64) -> Complex;
}

/// A constant coefficient: a static deployment with nothing moving.
#[derive(Debug, Clone, Copy)]
pub struct StaticChannel(pub Complex);

impl CoeffProcess for StaticChannel {
    fn coeff_at(&self, _t: f64) -> Complex {
        self.0
    }
}

/// Multipath fading from people moving near the tag (Fig. 1a): a sum of
/// slow sinusoidal fading components in amplitude plus a phase wander.
#[derive(Debug, Clone)]
pub struct PeopleMovement {
    base: Complex,
    /// (relative amplitude, frequency Hz, phase) fading components.
    components: Vec<(f64, f64, f64)>,
    /// (radians, frequency Hz, phase) of the phase wander.
    phase_wander: (f64, f64, f64),
}

impl PeopleMovement {
    /// A representative walking-person process: fading components at
    /// fractions of a hertz (human walking speed ≈ 1 m/s moves through a
    /// 33 cm standing-wave pattern in fractions of a second) with randomly
    /// drawn phases. Swings reach ±60 % of the base amplitude, matching the
    /// magnitude of the excursions in Fig. 1a.
    pub fn typical<R: Rng>(base: Complex, rng: &mut R) -> Self {
        let mut phases = || rng.gen_range(0.0..TAU);
        PeopleMovement {
            base,
            components: vec![
                (0.35, 0.31, phases()),
                (0.20, 0.73, phases()),
                (0.10, 1.42, phases()),
            ],
            phase_wander: (0.7, 0.21, phases()),
        }
    }
}

impl CoeffProcess for PeopleMovement {
    fn coeff_at(&self, t: f64) -> Complex {
        let amp: f64 = 1.0
            + self
                .components
                .iter()
                .map(|&(a, f, p)| a * (TAU * f * t + p).sin())
                .sum::<f64>();
        let (pr, pf, pp) = self.phase_wander;
        let phase = pr * (TAU * pf * t + pp).sin();
        self.base.scale(amp.max(0.05)) * Complex::from_polar(1.0, phase)
    }
}

/// Tag rotation in place (Fig. 1b): the linear-dipole gain pattern
/// `|cos θ|` sweeps through nulls as the tag rotates at `omega` rad/s,
/// while the reflection phase advances with orientation.
#[derive(Debug, Clone, Copy)]
pub struct TagRotation {
    base: Complex,
    /// Rotation rate in rad/s.
    pub omega: f64,
    /// Initial orientation in radians.
    pub theta0: f64,
    /// Floor of the gain pattern (real antennas never null completely).
    pub pattern_floor: f64,
}

impl TagRotation {
    /// A tag rotating at `omega` rad/s from orientation `theta0`.
    pub fn new(base: Complex, omega: f64, theta0: f64) -> Self {
        TagRotation {
            base,
            omega,
            theta0,
            pattern_floor: 0.12,
        }
    }
}

impl CoeffProcess for TagRotation {
    fn coeff_at(&self, t: f64) -> Complex {
        let theta = self.theta0 + self.omega * t;
        let gain = self.pattern_floor + (1.0 - self.pattern_floor) * theta.cos().abs();
        self.base.scale(gain) * Complex::from_polar(1.0, 0.5 * theta.sin())
    }
}

/// Shared state of a coupled tag pair (Fig. 1c).
#[derive(Debug)]
struct CouplingInner {
    base: [Complex; 2],
    /// Separation in metres as a function of time.
    separation: Separation,
    /// Coupling strength at contact.
    kappa0: f64,
    /// e-folding distance of the near field, metres.
    d0: f64,
    /// Phase of the coupled re-radiation.
    psi: f64,
}

/// Separation profile of the tag pair.
#[derive(Debug, Clone, Copy)]
pub enum Separation {
    /// Tags stay `d` metres apart.
    Constant(f64),
    /// Tags approach linearly from `from` to `to` metres over `duration`
    /// seconds, then hold (the Fig. 1c experiment: "two tags were placed
    /// far apart, and then brought closer together").
    LinearApproach {
        /// Starting separation (m).
        from: f64,
        /// Final separation (m).
        to: f64,
        /// Time to travel from `from` to `to` (s).
        duration: f64,
    },
}

impl Separation {
    fn at(&self, t: f64) -> f64 {
        match *self {
            Separation::Constant(d) => d,
            Separation::LinearApproach { from, to, duration } => {
                if t >= duration {
                    to
                } else {
                    from + (to - from) * (t / duration)
                }
            }
        }
    }
}

/// Near-field coupling between two tags: each tag's effective coefficient
/// gains a contribution re-radiated through the other's antenna, with
/// strength `κ(d) = κ0·exp(−d/d0)` — negligible at 1 m, strong at 5 cm,
/// matching Fig. 1c.
#[derive(Debug, Clone)]
pub struct NearFieldCoupling {
    inner: Arc<CouplingInner>,
}

impl NearFieldCoupling {
    /// Builds the coupled pair model. `kappa0` defaults well at 0.6 and
    /// `d0` at 0.04 m (the near field of a 915 MHz dipole is λ/2π ≈ 5 cm).
    pub fn new(base1: Complex, base2: Complex, separation: Separation) -> Self {
        NearFieldCoupling {
            inner: Arc::new(CouplingInner {
                base: [base1, base2],
                separation,
                kappa0: 0.6,
                d0: 0.04,
                psi: 1.1,
            }),
        }
    }

    /// Coupling strength at time `t`.
    pub fn kappa_at(&self, t: f64) -> f64 {
        let d = self.inner.separation.at(t);
        self.inner.kappa0 * (-d / self.inner.d0).exp()
    }

    /// The coefficient of tag `idx` (0 or 1) at time `t`.
    pub fn coeff_of(&self, idx: usize, t: f64) -> Complex {
        assert!(idx < 2);
        let k = self.kappa_at(t);
        let own = self.inner.base[idx];
        let other = self.inner.base[1 - idx];
        // Detuning of the own antenna plus parasitic re-radiation via the
        // neighbour, both scaled by the near-field strength.
        own * Complex::from_polar(1.0 - 0.4 * k, 0.0)
            + (other * Complex::from_polar(k, self.inner.psi))
    }

    /// Splits the pair into two `CoeffProcess` handles sharing state, one
    /// per tag, for use with the air synthesizer.
    pub fn split(self) -> (CoupledTag, CoupledTag) {
        (
            CoupledTag {
                pair: self.clone(),
                idx: 0,
            },
            CoupledTag { pair: self, idx: 1 },
        )
    }
}

/// One side of a [`NearFieldCoupling`] pair.
#[derive(Debug, Clone)]
pub struct CoupledTag {
    pair: NearFieldCoupling,
    idx: usize,
}

impl CoeffProcess for CoupledTag {
    fn coeff_at(&self, t: f64) -> Complex {
        self.pair.coeff_of(self.idx, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const H: Complex = Complex { re: 0.1, im: 0.05 };

    #[test]
    fn static_channel_is_constant() {
        let c = StaticChannel(H);
        assert_eq!(c.coeff_at(0.0), H);
        assert_eq!(c.coeff_at(100.0), H);
    }

    #[test]
    fn people_movement_varies_substantially_over_seconds() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = PeopleMovement::typical(H, &mut rng);
        let h0 = p.coeff_at(0.0);
        let mut max_dev: f64 = 0.0;
        for k in 0..1200 {
            let t = k as f64 * 0.01;
            max_dev = max_dev.max(p.coeff_at(t).distance(h0));
        }
        // Fig. 1a shows excursions comparable to the signal itself.
        assert!(
            max_dev > 0.3 * H.abs(),
            "movement too tame: {max_dev} vs base {}",
            H.abs()
        );
    }

    #[test]
    fn people_movement_is_stable_within_an_epoch() {
        // §3.4's assumption: coefficients are stable over a few ms.
        let mut rng = StdRng::seed_from_u64(2);
        let p = PeopleMovement::typical(H, &mut rng);
        let h0 = p.coeff_at(1.0);
        for k in 0..50 {
            let t = 1.0 + k as f64 * 1e-4; // 5 ms window
            assert!(
                p.coeff_at(t).distance(h0) < 0.02 * H.abs(),
                "coefficient moved within an epoch"
            );
        }
    }

    #[test]
    fn rotation_sweeps_through_near_nulls() {
        let r = TagRotation::new(H, 1.0, 0.0);
        let mut min_amp = f64::INFINITY;
        let mut max_amp: f64 = 0.0;
        for k in 0..1000 {
            let a = r.coeff_at(k as f64 * 0.01).abs();
            min_amp = min_amp.min(a);
            max_amp = max_amp.max(a);
        }
        assert!(max_amp / min_amp > 4.0, "rotation pattern too flat");
        assert!(min_amp > 0.0, "pattern must not null completely");
    }

    #[test]
    fn coupling_negligible_far_strong_near() {
        let h2 = Complex::new(-0.08, 0.06);
        // ~1 m apart: coefficients essentially the bases (Fig. 1c's flat
        // region).
        let far = NearFieldCoupling::new(H, h2, Separation::Constant(1.0));
        assert!(far.coeff_of(0, 0.0).distance(H) < 1e-3 * H.abs());
        // 5 cm apart: both coefficients visibly perturbed.
        let near = NearFieldCoupling::new(H, h2, Separation::Constant(0.05));
        assert!(near.coeff_of(0, 0.0).distance(H) > 0.1 * H.abs());
        assert!(near.coeff_of(1, 0.0).distance(h2) > 0.1 * h2.abs());
    }

    #[test]
    fn approach_transitions_from_independent_to_coupled() {
        let h2 = Complex::new(-0.08, 0.06);
        let pair = NearFieldCoupling::new(
            H,
            h2,
            Separation::LinearApproach {
                from: 1.0,
                to: 0.05,
                duration: 6.0,
            },
        );
        let early = pair.coeff_of(0, 0.0);
        let late = pair.coeff_of(0, 10.0);
        assert!(early.distance(H) < late.distance(H));
        // Holds after the approach completes.
        assert!(pair
            .coeff_of(0, 10.0)
            .approx_eq(pair.coeff_of(0, 12.0), 1e-12));
    }

    #[test]
    fn split_handles_share_state() {
        let h2 = Complex::new(-0.08, 0.06);
        let pair = NearFieldCoupling::new(H, h2, Separation::Constant(0.05));
        let expect0 = pair.coeff_of(0, 1.0);
        let expect1 = pair.coeff_of(1, 1.0);
        let (a, b) = pair.split();
        assert!(a.coeff_at(1.0).approx_eq(expect0, 0.0));
        assert!(b.coeff_at(1.0).approx_eq(expect1, 0.0));
    }
}
