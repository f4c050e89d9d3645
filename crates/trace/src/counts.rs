//! Per-node token counts split by token type.

use sam_sim::payload::{Payload, SimToken};
use sam_streams::Token;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Counts of the tokens a node emitted, split by token type.
///
/// Data tokens are split by payload kind (the executor's streams carry the
/// simulator's dynamically typed [`Payload`]); control tokens by the SAM
/// token algebra. `skip` counts every token observed on an intersecter's
/// skip lanes — those channels exist only on the cycle backend (the fast
/// backends fuse skip edges into gallop scans), so `skip` is zero there.
///
/// Each emitted token lands in exactly one bucket, so [`TokenCounts::total`]
/// over all nodes of a run equals the run's aggregate token count.
///
/// ```
/// use sam_trace::TokenCounts;
/// use sam_sim::payload::tok;
///
/// let mut c = TokenCounts::default();
/// c.record(&tok::crd(3));
/// c.record(&tok::val(1.5));
/// c.record(&tok::stop(0));
/// c.record(&tok::done());
/// assert_eq!(c.total(), 4);
/// assert_eq!(c.data(), 2);
/// assert_eq!(c.control(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TokenCounts {
    /// Value data tokens.
    pub val: u64,
    /// Coordinate data tokens.
    pub crd: u64,
    /// Reference data tokens.
    pub refs: u64,
    /// Bitvector data tokens (Section 4.3 stream protocol).
    pub bits: u64,
    /// Hierarchical stop tokens.
    pub stop: u64,
    /// Empty (`N`) tokens.
    pub empty: u64,
    /// Done tokens.
    pub done: u64,
    /// Tokens on intersecter skip lanes (cycle backend only).
    pub skip: u64,
}

impl TokenCounts {
    /// Records one token by its type.
    ///
    /// Inlined because the fast backend classifies every stored token
    /// through this as its producer finishes; an out-of-line call per
    /// token is the difference between ~3% and ~13% tracing overhead.
    #[inline]
    pub fn record(&mut self, token: &SimToken) {
        match token {
            Token::Val(Payload::Val(_)) => self.val += 1,
            Token::Val(Payload::Crd(_)) => self.crd += 1,
            Token::Val(Payload::Ref(_)) => self.refs += 1,
            Token::Val(Payload::Bits { .. }) => self.bits += 1,
            Token::Stop(_) => self.stop += 1,
            Token::Empty => self.empty += 1,
            Token::Done => self.done += 1,
        }
    }

    /// Records one token carried by a skip lane. Skip-lane traffic is
    /// bucketed wholesale (data and control alike) because the lane's whole
    /// purpose is out-of-band: it carries "jump ahead" hints, not stream
    /// content.
    #[inline]
    pub fn record_skip(&mut self, _token: &SimToken) {
        self.skip += 1;
    }

    /// Total tokens recorded, over every bucket.
    pub fn total(&self) -> u64 {
        self.val + self.crd + self.refs + self.bits + self.stop + self.empty + self.done + self.skip
    }

    /// Data tokens (value + coordinate + reference + bitvector).
    pub fn data(&self) -> u64 {
        self.val + self.crd + self.refs + self.bits
    }

    /// Control tokens (stop + empty + done).
    pub fn control(&self) -> u64 {
        self.stop + self.empty + self.done
    }
}

impl Add for TokenCounts {
    type Output = TokenCounts;
    fn add(self, rhs: TokenCounts) -> TokenCounts {
        TokenCounts {
            val: self.val + rhs.val,
            crd: self.crd + rhs.crd,
            refs: self.refs + rhs.refs,
            bits: self.bits + rhs.bits,
            stop: self.stop + rhs.stop,
            empty: self.empty + rhs.empty,
            done: self.done + rhs.done,
            skip: self.skip + rhs.skip,
        }
    }
}

impl AddAssign for TokenCounts {
    fn add_assign(&mut self, rhs: TokenCounts) {
        *self = *self + rhs;
    }
}

impl fmt::Display for TokenCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "val={} crd={} ref={} bits={} stop={} empty={} done={} skip={}",
            self.val, self.crd, self.refs, self.bits, self.stop, self.empty, self.done, self.skip
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::tok;
    use sam_streams::BitVec;

    #[test]
    fn every_token_lands_in_exactly_one_bucket() {
        let mut c = TokenCounts::default();
        c.record(&tok::crd(1));
        c.record(&tok::rf(2));
        c.record(&tok::val(0.5));
        c.record(&tok::bits(BitVec::from_coords(0, 8, [1u32])));
        c.record(&tok::bits(BitVec { base: u32::MAX - 63, width: 64, bits: 1 << 63 }));
        c.record(&tok::stop(1));
        c.record(&tok::empty());
        c.record(&tok::done());
        assert_eq!(c.total(), 8);
        assert_eq!(c.data(), 5);
        assert_eq!(c.control(), 3);
        assert_eq!(c.crd, 1);
        assert_eq!(c.refs, 1);
        assert_eq!(c.val, 1);
        assert_eq!(c.bits, 2);
        assert_eq!(c.skip, 0);
    }

    #[test]
    fn skip_lane_tokens_are_bucketed_wholesale() {
        let mut c = TokenCounts::default();
        c.record_skip(&tok::crd(4));
        c.record_skip(&tok::done());
        assert_eq!(c.skip, 2);
        assert_eq!(c.total(), 2);
        assert_eq!(c.data(), 0);
    }

    #[test]
    fn add_combines_bucketwise() {
        let mut a = TokenCounts::default();
        a.record(&tok::crd(1));
        let mut b = TokenCounts::default();
        b.record(&tok::stop(0));
        b.record_skip(&tok::crd(9));
        let c = a + b;
        assert_eq!(c.total(), 3);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
        assert_eq!(c.to_string(), "val=0 crd=1 ref=0 bits=0 stop=1 empty=0 done=0 skip=1");
    }
}
