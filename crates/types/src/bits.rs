//! Bit vectors and bit-level utilities.
//!
//! Tags clock out raw bits (§3.6: "LF-Backscatter clocks out bits as and
//! when they are sampled"); frames, EPC identifiers, and decoder outputs are
//! all sequences of bits. A `Vec<bool>` wrapper keeps the code honest about
//! bit order (MSB-first, matching EPC Gen 2 serialization).

use std::fmt;
use std::ops::Index;

/// A growable sequence of bits, MSB-first within bytes.
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BitVec {
    bits: Vec<bool>,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        BitVec { bits: Vec::new() }
    }

    /// Creates a bit vector with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        BitVec {
            bits: Vec::with_capacity(n),
        }
    }

    /// Creates a bit vector from a slice of bytes, MSB of `bytes[0]` first.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut bits = Vec::with_capacity(bytes.len() * 8);
        for &b in bytes {
            for k in (0..8).rev() {
                bits.push((b >> k) & 1 == 1);
            }
        }
        BitVec { bits }
    }

    /// Parses a string of `'0'`/`'1'` characters (other characters are
    /// ignored, so `"1010 1100"` is accepted).
    pub fn from_str_binary(s: &str) -> Self {
        BitVec {
            bits: s
                .chars()
                .filter_map(|c| match c {
                    '0' => Some(false),
                    '1' => Some(true),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends all bits of another vector.
    pub fn extend_from(&mut self, other: &BitVec) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// Returns the bit at `idx`, or `None` past the end.
    pub fn get(&self, idx: usize) -> Option<bool> {
        self.bits.get(idx).copied()
    }

    /// The underlying bool slice.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// Packs the bits into bytes, MSB-first, zero-padding the final byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; self.bits.len().div_ceil(8)];
        for (i, &b) in self.bits.iter().enumerate() {
            if b {
                bytes[i / 8] |= 1 << (7 - i % 8);
            }
        }
        bytes
    }

    /// Number of bit positions where `self` and `other` differ, comparing
    /// the overlapping prefix and counting missing positions as errors.
    /// This is the bit-error count the BER experiments use (Fig. 14): a
    /// truncated decode is charged for every bit it failed to produce.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        let common = self.bits.len().min(other.bits.len());
        let diff = self.bits[..common]
            .iter()
            .zip(&other.bits[..common])
            .filter(|(a, b)| a != b)
            .count();
        diff + self.bits.len().max(other.bits.len()) - common
    }

    /// A sub-range of bits as a new vector. Panics if the range is out of
    /// bounds.
    pub fn slice(&self, start: usize, end: usize) -> BitVec {
        BitVec {
            bits: self.bits[start..end].to_vec(),
        }
    }

    /// Number of `1` bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Interprets the first ≤64 bits as a big-endian unsigned integer.
    /// Panics if the vector holds more than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(self.bits.len() <= 64, "too many bits for u64");
        self.bits.iter().fold(0u64, |acc, &b| (acc << 1) | b as u64)
    }

    /// Builds a vector from the low `n` bits of `value`, MSB-first.
    pub fn from_u64(value: u64, n: usize) -> BitVec {
        assert!(n <= 64);
        BitVec {
            bits: (0..n).rev().map(|k| (value >> k) & 1 == 1).collect(),
        }
    }
}

impl Index<usize> for BitVec {
    type Output = bool;
    fn index(&self, idx: usize) -> &bool {
        &self.bits[idx]
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for &b in &self.bits {
            write!(f, "{}", b as u8)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", b as u8)?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec {
            bits: iter.into_iter().collect(),
        }
    }
}

impl From<Vec<bool>> for BitVec {
    fn from(bits: Vec<bool>) -> Self {
        BitVec { bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let v = BitVec::from_bytes(&[0xA5, 0x3C]);
        assert_eq!(v.len(), 16);
        assert_eq!(v.to_string(), "1010010100111100");
        assert_eq!(v.to_bytes(), vec![0xA5, 0x3C]);
    }

    #[test]
    fn partial_byte_padding() {
        let v = BitVec::from_str_binary("101");
        assert_eq!(v.to_bytes(), vec![0b1010_0000]);
    }

    #[test]
    fn parse_ignores_whitespace() {
        let v = BitVec::from_str_binary("10 01_1");
        assert_eq!(v.as_slice(), &[true, false, false, true, true]);
    }

    #[test]
    fn hamming_distance_counts_length_mismatch() {
        let a = BitVec::from_str_binary("10110");
        let b = BitVec::from_str_binary("10011");
        assert_eq!(a.hamming_distance(&b), 2);
        let short = BitVec::from_str_binary("101");
        assert_eq!(a.hamming_distance(&short), 2); // 0 diffs + 2 missing
        assert_eq!(short.hamming_distance(&a), 2); // symmetric
    }

    #[test]
    fn u64_round_trip() {
        let v = BitVec::from_u64(0b1011_0010, 8);
        assert_eq!(v.to_string(), "10110010");
        assert_eq!(v.to_u64(), 0b1011_0010);
        assert_eq!(BitVec::from_u64(5, 3).to_u64(), 5);
    }

    #[test]
    fn push_and_extend() {
        let mut v = BitVec::new();
        v.push(true);
        v.push(false);
        let mut w = BitVec::from_str_binary("11");
        w.extend_from(&v);
        assert_eq!(w.to_string(), "1110");
        assert_eq!(w.count_ones(), 3);
    }

    #[test]
    fn slice_and_index() {
        let v = BitVec::from_str_binary("110010");
        assert_eq!(v.slice(2, 5).to_string(), "001");
        assert!(v[0]);
        assert!(!v[2]);
        assert_eq!(v.get(6), None);
    }

    #[test]
    fn iterator_collect() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_string(), "101");
        let round: Vec<bool> = v.iter().collect();
        assert_eq!(round, vec![true, false, true]);
    }
}
