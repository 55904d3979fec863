//! Structure-of-arrays IQ storage.
//!
//! The decode hot path (edge detection, folding, k-means assignment) is
//! memory-bound: an array-of-structs `&[Complex]` interleaves I and Q, so
//! an 8-lane SIMD load of eight consecutive `re` components would need a
//! gather. [`IqBuffer`] keeps the two channels in separate contiguous
//! `Vec<f64>`s so hot loops (the edge differential in `lf-core`, the
//! nearest-centroid kernel in `lf-dsp`) can issue plain unaligned loads.
//! The split view is built once per epoch (alongside the prefix-sum
//! table, held in the decoder's scratch) and borrowed everywhere below —
//! see DESIGN.md §15 for the layout discipline and the `no-aos-hotloop`
//! lint that keeps per-sample `Complex` field access out of the designated
//! kernels.

use crate::complex::Complex;

/// A split (structure-of-arrays) view of an IQ sample series: `re[i]` and
/// `im[i]` are the in-phase and quadrature components of sample `i`.
///
/// The two vectors always have equal length. Splitting and re-joining are
/// exact: each component is moved bit-for-bit, so any componentwise
/// computation over an `IqBuffer` is bitwise identical to the same
/// computation over the `&[Complex]` it was built from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IqBuffer {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl IqBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        IqBuffer::default()
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// True when the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// The in-phase channel.
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The quadrature channel.
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Both channels at once, for kernels that take `(re, im)` slices.
    pub fn channels(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutable access to both channels at once, for fill-in-place
    /// rebuilds that write the channels directly instead of pushing
    /// sample by sample.
    pub fn channels_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Resizes both channels to `len` samples, zero-filling any growth.
    /// Retained samples keep their values — callers that overwrite the
    /// whole buffer afterwards (the prefix-sum rebuild) pay no
    /// re-initialization cost on reuse.
    pub fn resize_zeroed(&mut self, len: usize) {
        self.re.resize(len, 0.0);
        self.im.resize(len, 0.0);
    }

    /// Drops all samples, keeping the allocations.
    pub fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    /// Reserves room for `additional` more samples in both channels.
    pub fn reserve(&mut self, additional: usize) {
        self.re.reserve(additional);
        self.im.reserve(additional);
    }

    /// Appends one sample.
    #[inline]
    pub fn push(&mut self, z: Complex) {
        self.re.push(z.re);
        self.im.push(z.im);
    }

    /// Sample `i`, re-joined. Panics when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Complex {
        Complex::new(self.re[i], self.im[i])
    }

    /// Rebuilds the buffer as a split copy of `signal`, reusing the
    /// allocations. Component order is preserved exactly.
    pub fn rebuild_from(&mut self, signal: &[Complex]) {
        self.clear();
        self.reserve(signal.len());
        for &z in signal {
            self.re.push(z.re);
            self.im.push(z.im);
        }
    }

    /// Builds a split copy of `signal`.
    pub fn from_samples(signal: &[Complex]) -> Self {
        let mut buf = IqBuffer::new();
        buf.rebuild_from(signal);
        buf
    }
}

#[cfg(test)]
mod tests {
    // Split/rejoin must be exact, so the assertions compare bits.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn split_round_trips_bitwise() {
        let sig: Vec<Complex> = (0..64)
            .map(|k| Complex::new((k as f64).sin() * 1e-3, -(k as f64).cos()))
            .collect();
        let buf = IqBuffer::from_samples(&sig);
        assert_eq!(buf.len(), sig.len());
        for (i, &z) in sig.iter().enumerate() {
            assert_eq!(buf.re()[i].to_bits(), z.re.to_bits());
            assert_eq!(buf.im()[i].to_bits(), z.im.to_bits());
            assert_eq!(buf.get(i), z);
        }
    }

    #[test]
    fn rebuild_reuses_and_matches_fresh() {
        let a: Vec<Complex> = (0..50).map(|k| Complex::new(k as f64, 0.5)).collect();
        let b: Vec<Complex> = (0..20).map(|k| Complex::new(-1.0, k as f64)).collect();
        let mut reused = IqBuffer::from_samples(&a);
        reused.rebuild_from(&b);
        assert_eq!(reused, IqBuffer::from_samples(&b));
        reused.clear();
        assert!(reused.is_empty());
        assert_eq!(reused.len(), 0);
    }

    #[test]
    fn resize_and_channels_mut_fill_matches_push() {
        let sig: Vec<Complex> = (0..33)
            .map(|k| Complex::new(k as f64 * 0.3, -k as f64))
            .collect();
        let mut pushed = IqBuffer::new();
        for &z in &sig {
            pushed.push(z);
        }
        let mut filled = IqBuffer::new();
        filled.resize_zeroed(sig.len());
        {
            let (re, im) = filled.channels_mut();
            for (k, &z) in sig.iter().enumerate() {
                re[k] = z.re;
                im[k] = z.im;
            }
        }
        assert_eq!(filled, pushed);
        // Shrinking keeps the prefix, growing zero-fills.
        filled.resize_zeroed(2);
        assert_eq!(filled.len(), 2);
        assert_eq!(filled.get(1), sig[1]);
        filled.resize_zeroed(4);
        assert_eq!(filled.get(3), Complex::ZERO);
    }

    #[test]
    fn push_and_channels_agree() {
        let mut buf = IqBuffer::new();
        buf.reserve(2);
        buf.push(Complex::new(1.0, 2.0));
        buf.push(Complex::new(-3.0, 4.0));
        let (re, im) = buf.channels();
        assert_eq!(re, &[1.0, -3.0]);
        assert_eq!(im, &[2.0, 4.0]);
    }
}
