//! The repeater (Definition 3.4, Figures 4 and 6).

use sam_sim::{Fault, SimToken};
use sam_streams::Token;

/// A repeater: each reference of the reference stream, repeated once for
/// every data token of the matching fiber of the coordinate stream.
///
/// The output mirrors the coordinate stream's fiber structure: a data token
/// becomes the current reference, and `Empty` and control tokens pass
/// through. The reference stream's stops are redundant with the coordinate
/// stream's higher-level stops and are absorbed.
///
/// The rule pairs the two streams by counting *fibers* on both sides, so
/// its output depends only on the two streams, never on how far either runs
/// ahead: every reference owns one coordinate fiber, and a reference-stream
/// stop that does not directly follow a reference is an empty fiber
/// upstream, which the coordinate stream answers with a stop of its own and
/// no reference. Feed it coordinate tokens with
/// [`coordinate`](Self::coordinate), and reference tokens with
/// [`reference`](Self::reference) whenever it asks for one; the cycle block
/// also reads one ahead while it holds none.
///
/// At the coordinate stream's done token the rule asks for the rest of the
/// reference stream: it must account for exactly the fibers the coordinates
/// closed, then end with its own done token. A reference past the last
/// fiber, a fiber with no reference, or a reference stream that ends
/// without its done token is misaligned.
///
/// ```text
///  coordinates: D, S0, 9, 8, 6, 2, 0   (the vector b in Figure 6)
///  references:  D, 0                    (the scalar c's root reference)
///  output:      D, S0, 0, 0, 0, 0, 0
/// ```
#[derive(Debug, Default)]
pub struct Repeat {
    /// The reference being repeated.
    current: Option<SimToken>,
    /// The fiber the current reference belongs to.
    fiber: u64,
    /// Fibers accounted for on the reference stream so far.
    ref_fibers: u64,
    /// Fibers closed on the coordinate stream so far.
    crd_fibers: u64,
    /// Whether the last reference-stream token was a reference, whose
    /// trailing stop the coordinate stream has merged into its own.
    ref_open: bool,
    /// Whether the reference stream's done token was read.
    refs_done: bool,
}

impl Repeat {
    /// Whether the rule takes a reference-stream token now: it holds no
    /// reference and the reference stream has not ended.
    #[inline(always)]
    pub(crate) fn wants_ref(&self) -> bool {
        self.current.is_none() && !self.refs_done
    }

    /// Takes the next reference-stream token.
    #[inline(always)]
    pub fn reference(&mut self, t: SimToken) {
        match t {
            Token::Val(_) | Token::Empty => {
                // A reference whose (empty) fiber the coordinate stream
                // already closed has nothing to repeat over.
                if self.ref_fibers >= self.crd_fibers {
                    self.current = Some(t);
                    self.fiber = self.ref_fibers;
                }
                self.ref_fibers += 1;
                self.ref_open = true;
            }
            Token::Stop(_) => {
                // On its own it stands for a fiber with no reference.
                if !self.ref_open {
                    self.ref_fibers += 1;
                }
                self.ref_open = false;
            }
            Token::Done => self.refs_done = true,
        }
    }

    /// The output token for coordinate token `t`, or `None` when the rule
    /// needs another reference-stream token first: `t` is a data token whose
    /// reference has not been read yet, or the done token before the
    /// reference stream's own. Read one with [`reference`](Self::reference)
    /// and call again. A data token after the reference stream's done token
    /// has no reference and is misaligned, and so is a done token the
    /// reference stream does not end with (see the type's docs).
    #[inline(always)]
    pub fn coordinate(&mut self, t: SimToken) -> Result<Option<SimToken>, Fault> {
        match t {
            Token::Val(_) => match self.current {
                Some(r) => Ok(Some(r)),
                None if self.refs_done => Err(Fault::Misaligned),
                None => Ok(None),
            },
            Token::Done if !self.refs_done => Ok(None),
            Token::Done if self.ref_fibers != self.crd_fibers => Err(Fault::Misaligned),
            Token::Stop(_) => {
                // The next fiber repeats the next reference. One read ahead,
                // while this stop was still to come, stays.
                if self.fiber <= self.crd_fibers {
                    self.current = None;
                }
                self.crd_fibers += 1;
                Ok(Some(t))
            }
            Token::Empty | Token::Done => Ok(Some(t)),
        }
    }
}
