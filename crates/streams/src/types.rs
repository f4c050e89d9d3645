//! The bitvector stream payload.
//!
//! SAM distinguishes three stream types (paper Section 3.2): coordinate
//! streams (`crd`), reference streams (`ref`) and value streams (`vals`);
//! the executors carry those as plain `u32` / `f64` payloads of
//! [`Token`](crate::Token). Section 4.3 adds bitvector streams as an
//! alternative compression protocol, whose payload is [`BitVec`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// A bitvector token covering `width` coordinates starting at coordinate
/// `base` (paper Section 4.3).
///
/// Bit `i` of `bits` is set when coordinate `base + i` has a nonempty
/// sub-tree. The paper's bitvector converter packs `b` coordinates into one
/// such token, which lets downstream merge blocks process `b` positions per
/// cycle.
///
/// This is the type the bitvector blocks compute with. A stream token
/// carries its three fields, not the struct (`sam_sim`'s
/// `Payload::Bits { base, width, bits }`), which keeps every token at 16
/// bytes.
///
/// ```
/// use sam_streams::BitVec;
/// let bv = BitVec::from_coords(0, 4, [0u32, 2u32]);
/// assert_eq!(bv.popcount(), 2);
/// assert_eq!(bv.iter_coords().collect::<Vec<_>>(), vec![0, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BitVec {
    /// First coordinate covered by this token.
    pub base: u32,
    /// Number of coordinates covered (at most 64).
    pub width: u8,
    /// Occupancy bits; bit `i` corresponds to coordinate `base + i`.
    pub bits: u64,
}

impl BitVec {
    /// Builds a bitvector token covering `[base, base + width)` from the
    /// coordinates in `coords` that fall inside that window.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn from_coords<I>(base: u32, width: u8, coords: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        assert!(width > 0 && width <= 64, "bitvector width must be in 1..=64");
        let mut bits = 0u64;
        for c in coords {
            if c >= base && c < base + width as u32 {
                bits |= 1u64 << (c - base);
            }
        }
        BitVec { base, width, bits }
    }

    /// Number of occupied coordinates in this token.
    pub fn popcount(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Iterator over the occupied coordinates, in increasing order.
    pub fn iter_coords(&self) -> impl Iterator<Item = u32> + '_ {
        let base = self.base;
        let bits = self.bits;
        (0..self.width as u32).filter_map(move |i| if (bits >> i) & 1 == 1 { Some(base + i) } else { None })
    }

    /// Bitwise intersection of two aligned tokens (same base and width).
    ///
    /// # Panics
    ///
    /// Panics when the tokens are not aligned.
    pub fn intersect(&self, other: &BitVec) -> BitVec {
        assert_eq!((self.base, self.width), (other.base, other.width), "misaligned bitvector tokens");
        BitVec { base: self.base, width: self.width, bits: self.bits & other.bits }
    }

    /// Bitwise union of two aligned tokens (same base and width).
    ///
    /// # Panics
    ///
    /// Panics when the tokens are not aligned.
    pub fn union(&self, other: &BitVec) -> BitVec {
        assert_eq!((self.base, self.width), (other.base, other.width), "misaligned bitvector tokens");
        BitVec { base: self.base, width: self.width, bits: self.bits | other.bits }
    }

    /// True when no coordinate in the window is occupied.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bv@{}[", self.base)?;
        for i in (0..self.width).rev() {
            write!(f, "{}", (self.bits >> i) & 1)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_from_coords_and_queries() {
        let bv = BitVec::from_coords(4, 8, [4u32, 6, 11, 20]);
        assert_eq!(bv.popcount(), 3);
        assert_eq!(bv.iter_coords().collect::<Vec<_>>(), vec![4, 6, 11]);
    }

    #[test]
    fn bitvec_set_ops() {
        let a = BitVec::from_coords(0, 8, [0u32, 2, 4]);
        let b = BitVec::from_coords(0, 8, [2u32, 3, 4]);
        assert_eq!(a.intersect(&b).iter_coords().collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(a.union(&b).iter_coords().collect::<Vec<_>>(), vec![0, 2, 3, 4]);
        assert!(!a.is_empty());
        assert!(BitVec::from_coords(0, 8, std::iter::empty::<u32>()).is_empty());
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn bitvec_misaligned_intersect_panics() {
        let a = BitVec::from_coords(0, 8, [0u32]);
        let b = BitVec::from_coords(8, 8, [8u32]);
        let _ = a.intersect(&b);
    }

    #[test]
    fn bitvec_display() {
        let bv = BitVec::from_coords(0, 4, [0u32, 2]);
        assert_eq!(format!("{bv}"), "bv@0[0101]");
    }
}
