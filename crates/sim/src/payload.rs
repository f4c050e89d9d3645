//! Dynamically typed token payloads used inside the simulator.
//!
//! SAM distinguishes coordinate, reference, value and bitvector streams. The
//! simulator keeps all channels homogeneous by carrying a [`Payload`] sum
//! type; blocks assert the payload kind they expect, so wiring mistakes fail
//! loudly during simulation rather than silently producing wrong data.
//!
//! Every stream of every backend moves [`SimToken`]s, so the payload's size
//! is the token's: a bitvector word is carried as its three fields inline,
//! not as a [`BitVec`], which lets the enum tag sit beside them and keeps a
//! token (and the `Option` a stream read returns) at 16 bytes.

use sam_streams::{BitVec, Token};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The payload of one simulator token.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// A coordinate.
    Crd(u32),
    /// A reference (position in the next level or the values array).
    Ref(u32),
    /// A tensor value.
    Val(f64),
    /// A bitvector word (Section 4.3 stream protocol): the fields of a
    /// [`BitVec`], which [`tok::bits`] spreads and
    /// [`Payload::expect_bits`] rebuilds.
    Bits {
        /// First coordinate covered by the word.
        base: u32,
        /// Number of coordinates covered (at most 64).
        width: u8,
        /// Occupancy bits; bit `i` is coordinate `base + i`.
        bits: u64,
    },
}

impl Payload {
    /// The coordinate carried by this payload.
    ///
    /// # Panics
    ///
    /// Panics when the payload is not a coordinate.
    #[inline]
    pub fn expect_crd(self) -> u32 {
        match self {
            Payload::Crd(c) => c,
            other => panic!("expected a coordinate payload, found {other:?}"),
        }
    }

    /// The reference carried by this payload.
    ///
    /// # Panics
    ///
    /// Panics when the payload is not a reference.
    #[inline]
    pub fn expect_ref(self) -> u32 {
        match self {
            Payload::Ref(r) => r,
            other => panic!("expected a reference payload, found {other:?}"),
        }
    }

    /// The value carried by this payload.
    ///
    /// # Panics
    ///
    /// Panics when the payload is not a value.
    #[inline]
    pub fn expect_val(self) -> f64 {
        match self {
            Payload::Val(v) => v,
            other => panic!("expected a value payload, found {other:?}"),
        }
    }

    /// The bitvector word carried by this payload.
    ///
    /// # Panics
    ///
    /// Panics when the payload is not a bitvector word.
    pub fn expect_bits(self) -> BitVec {
        match self {
            Payload::Bits { base, width, bits } => BitVec { base, width, bits },
            other => panic!("expected a bitvector payload, found {other:?}"),
        }
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Crd(c) => write!(f, "c{c}"),
            Payload::Ref(r) => write!(f, "r{r}"),
            Payload::Val(v) => write!(f, "{v}"),
            Payload::Bits { .. } => write!(f, "{}", self.expect_bits()),
        }
    }
}

/// What a primitive's token rule found wrong with its input tokens. It
/// names no block or node: the simulator names the block that observed it
/// ([`SimulationError::Fault`](crate::SimulationError::Fault)), the fast
/// backend the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// The input streams are structurally misaligned: their heads disagree,
    /// a stream ended without a done token, or a token carries the wrong
    /// payload.
    Misaligned,
    /// A reference left the bounds of the values or of a level's fibers.
    /// (A `u32`, as a reference token carries it, keeps a rule's
    /// `Result<SimToken, Fault>` at a token's 16 bytes.)
    RefOutOfBounds(u32),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Misaligned => write!(f, "structurally misaligned streams"),
            Fault::RefOutOfBounds(r) => write!(f, "reference {r} out of bounds"),
        }
    }
}

/// A simulator token: the SAM token algebra over dynamic payloads.
pub type SimToken = Token<Payload>;

// A wider payload widens every stream on every backend; `Option<SimToken>`
// is what a stream read returns.
const _: () = assert!(std::mem::size_of::<SimToken>() == 16);
const _: () = assert!(std::mem::size_of::<Option<SimToken>>() == 16);
const _: () = assert!(std::mem::size_of::<Result<SimToken, Fault>>() == 16);

/// Convenience constructors for simulator tokens.
pub mod tok {
    use super::{Payload, SimToken};
    use sam_streams::{BitVec, Token};

    /// A coordinate data token.
    pub fn crd(c: u32) -> SimToken {
        Token::Val(Payload::Crd(c))
    }

    /// A reference data token.
    pub fn rf(r: u32) -> SimToken {
        Token::Val(Payload::Ref(r))
    }

    /// A value data token.
    pub fn val(v: f64) -> SimToken {
        Token::Val(Payload::Val(v))
    }

    /// A bitvector data token.
    pub fn bits(b: BitVec) -> SimToken {
        Token::Val(Payload::Bits { base: b.base, width: b.width, bits: b.bits })
    }

    /// A stop token of the given level.
    pub fn stop(level: u8) -> SimToken {
        Token::Stop(level)
    }

    /// The empty token.
    pub fn empty() -> SimToken {
        Token::Empty
    }

    /// The done token.
    pub fn done() -> SimToken {
        Token::Done
    }
}

#[cfg(test)]
mod tests {
    use super::tok;
    use super::*;

    #[test]
    fn expect_accessors() {
        assert_eq!(Payload::Crd(3).expect_crd(), 3);
        assert_eq!(Payload::Ref(4).expect_ref(), 4);
        assert_eq!(Payload::Val(2.5).expect_val(), 2.5);
        let b = BitVec::from_coords(0, 8, [1u32, 2]);
        assert_eq!(tok::bits(b).value().map(Payload::expect_bits), Some(b));
    }

    #[test]
    #[should_panic(expected = "expected a coordinate")]
    fn expect_crd_panics_on_val() {
        Payload::Val(1.0).expect_crd();
    }

    #[test]
    #[should_panic(expected = "expected a reference")]
    fn expect_ref_panics_on_crd() {
        Payload::Crd(1).expect_ref();
    }

    #[test]
    #[should_panic(expected = "expected a value")]
    fn expect_val_panics_on_ref() {
        Payload::Ref(1).expect_val();
    }

    #[test]
    fn token_constructors() {
        assert!(tok::done().is_done());
        assert!(tok::stop(2).is_stop());
        assert!(tok::empty().is_empty_token());
        assert_eq!(tok::crd(7).value(), Some(Payload::Crd(7)));
        assert_eq!(tok::val(1.5).value(), Some(Payload::Val(1.5)));
        assert_eq!(tok::rf(2).value(), Some(Payload::Ref(2)));
    }

    #[test]
    fn display() {
        assert_eq!(Payload::Crd(1).to_string(), "c1");
        assert_eq!(Payload::Ref(2).to_string(), "r2");
        assert_eq!(Payload::Val(0.5).to_string(), "0.5");
    }

    /// Words at both ends of the coordinate range, each with bit 63 set.
    fn words() -> Vec<BitVec> {
        let mut words = Vec::new();
        for base in [0, u32::MAX - 63] {
            for width in [1u8, 8, 64] {
                words.push(BitVec { base, width, bits: 1 << 63 | 1 });
            }
        }
        words
    }

    #[test]
    fn a_bitvector_word_round_trips_through_a_token() {
        for b in words() {
            let t = tok::bits(b);
            assert!(matches!(t.value(), Some(p) if p.expect_bits() == b), "{b:?} -> {t:?}");
        }
    }

    #[test]
    fn a_bitvector_payload_prints_as_its_word() {
        for b in words() {
            assert!(matches!(tok::bits(b).value(), Some(p) if p.to_string() == b.to_string()));
        }
        let b = BitVec::from_coords(4, 8, [5u32, 11]);
        assert!(matches!(tok::bits(b).value(), Some(p) if p.to_string() == "bv@4[10000010]"));
    }
}
