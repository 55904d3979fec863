//! Sample-rate, time, and decibel conversions.
//!
//! The whole point of the paper's asymmetry argument is the ratio between
//! the reader's sample rate (25 Msps) and the tags' bitrates (≤ 250 kbps):
//! "less than 1% of the time-domain samples contain useful information"
//! (§1). Converting between the two domains correctly — and in exactly one
//! place — keeps that bookkeeping honest across crates.

/// A duration expressed in seconds. Thin wrapper so function signatures say
/// what they mean; the simulation deals in fractional microseconds, so
/// `std::time::Duration`'s nanosecond integer granularity is not a good fit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Duration(f64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration from seconds. Panics on negative or non-finite
    /// input — durations are lengths.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        Duration(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Duration::from_secs(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Duration::from_secs(us * 1e-6)
    }

    /// The duration in seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The duration in milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The duration in microseconds.
    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::ops::Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 * rhs)
    }
}

/// A receiver sampling rate in samples per second.
///
/// The paper's USRP N210 reader samples at 25 Msps ([`SampleRate::USRP_N210`]).
/// Tests run at lower rates to stay fast in debug builds; everything in the
/// pipeline is expressed relative to this rate, so the decode logic is
/// identical at any rate.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SampleRate(f64);

impl SampleRate {
    /// The USRP N210 capture rate used throughout the paper: 25 Msps.
    pub const USRP_N210: SampleRate = SampleRate(25_000_000.0);

    /// Creates a sample rate from samples/second. Panics on non-positive or
    /// non-finite input.
    pub fn from_sps(sps: f64) -> Self {
        assert!(
            sps.is_finite() && sps > 0.0,
            "sample rate must be finite and positive, got {sps}"
        );
        SampleRate(sps)
    }

    /// Creates a sample rate from mega-samples/second.
    pub fn from_msps(msps: f64) -> Self {
        SampleRate::from_sps(msps * 1e6)
    }

    /// Samples per second.
    #[inline]
    pub fn sps(self) -> f64 {
        self.0
    }

    /// Converts a duration to a (fractional) number of samples.
    #[inline]
    pub fn samples_in(self, d: Duration) -> f64 {
        d.secs() * self.0
    }

    /// Converts a duration to a whole number of samples, rounding to
    /// nearest.
    #[inline]
    pub fn samples_in_rounded(self, d: Duration) -> usize {
        (d.secs() * self.0).round() as usize
    }

    /// Converts a sample index to the time of that sample.
    #[inline]
    pub fn time_of(self, sample: f64) -> Duration {
        Duration::from_secs(sample / self.0)
    }

    /// Samples per bit at a given bitrate (the paper's worked example: at
    /// 25 Msps and 100 kbps, 250 samples/bit).
    #[inline]
    pub fn samples_per_bit(self, bitrate_bps: f64) -> f64 {
        self.0 / bitrate_bps
    }
}

/// Converts a power ratio in decibels to a linear ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to decibels.
#[inline]
pub fn linear_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Converts a power in watts to dBm.
#[inline]
pub fn watts_to_dbm(watts: f64) -> f64 {
    10.0 * (watts / 1e-3).log10()
}

/// Converts a power in dBm to watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    1e-3 * 10f64.powf(dbm / 10.0)
}

/// Speed of light in m/s — used by the radar-equation link budget (§5.4).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Converts a carrier frequency in Hz to a wavelength in metres.
#[inline]
pub fn wavelength(freq_hz: f64) -> f64 {
    SPEED_OF_LIGHT / freq_hz
}

/// Feet → metres (the paper quotes ranges in feet in §5.4).
#[inline]
pub fn feet_to_meters(feet: f64) -> f64 {
    feet * 0.3048
}

/// Metres → feet.
#[inline]
pub fn meters_to_feet(meters: f64) -> f64 {
    meters / 0.3048
}

#[cfg(test)]
mod tests {
    // Tests assert bit-exact values deliberately: the conversions under
    // test must be exact, not approximate.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn duration_units_agree() {
        let d = Duration::from_millis(2.5);
        assert!((d.secs() - 0.0025).abs() < 1e-15);
        assert!((d.micros() - 2500.0).abs() < 1e-9);
        assert_eq!(Duration::from_micros(1500.0).millis(), 1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = Duration::from_secs(-1.0);
    }

    #[test]
    fn paper_oversampling_example() {
        // §2.4: USRP at 25 Msps, tag at 100 kbps → 250 samples per bit.
        let fs = SampleRate::USRP_N210;
        assert_eq!(fs.samples_per_bit(100_000.0), 250.0);
        // An edge is ~3 samples wide → 83 edges can be interleaved per bit.
        assert_eq!((fs.samples_per_bit(100_000.0) / 3.0).floor(), 83.0);
    }

    #[test]
    fn sample_time_round_trip() {
        let fs = SampleRate::from_msps(2.5);
        let d = Duration::from_micros(400.0);
        assert_eq!(fs.samples_in_rounded(d), 1000);
        assert!((fs.time_of(1000.0).micros() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn db_round_trip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 20.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-12);
        }
        assert!((db_to_linear(3.0) - 1.9952623).abs() < 1e-6);
    }

    #[test]
    fn dbm_round_trip() {
        assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-12);
        assert!((watts_to_dbm(1e-3) - 0.0).abs() < 1e-12);
        assert!((watts_to_dbm(dbm_to_watts(17.5)) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn wavelength_at_915mhz() {
        // The Moo operates in 902–928 MHz; λ at 915 MHz ≈ 32.8 cm.
        let lambda = wavelength(915e6);
        assert!((lambda - 0.3276).abs() < 1e-3);
    }

    #[test]
    fn feet_meters_round_trip() {
        assert!((meters_to_feet(feet_to_meters(10.0)) - 10.0).abs() < 1e-12);
        assert!((feet_to_meters(10.0) - 3.048).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(1.0) + Duration::from_millis(2.0);
        assert!((d.millis() - 3.0).abs() < 1e-12);
        assert!(((Duration::from_millis(2.0) * 2.5).millis() - 5.0).abs() < 1e-12);
    }
}
