//! The SAM token algebra.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single token on a SAM stream (paper Section 3.2).
///
/// Streams are sequences of tokens transmitting one fibertree level, where
///
/// * [`Token::Val`] carries a payload (a coordinate, reference, value or
///   bitvector),
/// * [`Token::Stop`]`(n)` marks the end of a fiber; the level `n` encodes how
///   many enclosing fibers end at the same point (the "hierarchical stop
///   token" of Figure 1d),
/// * [`Token::Empty`] (the paper's `N` token) is produced by union merges for
///   operands that have no coordinate at an output position, and
/// * [`Token::Done`] terminates the stream.
///
/// ```
/// use sam_streams::Token;
/// let t: Token<u32> = Token::Stop(1);
/// assert_eq!(t.stop_level(), Some(1));
/// assert_eq!(Token::Val(2u32).value(), Some(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Token<T> {
    /// A data (non-control) token.
    Val(T),
    /// Hierarchical fiber-boundary marker; `Stop(0)` ends the innermost fiber.
    Stop(u8),
    /// The empty token `N`, standing in for an absent operand.
    Empty,
    /// End of stream.
    Done,
}

impl<T> Token<T> {
    /// True only for [`Token::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, Token::Done)
    }

    /// True only for [`Token::Stop`].
    pub fn is_stop(&self) -> bool {
        matches!(self, Token::Stop(_))
    }

    /// True only for [`Token::Empty`].
    pub fn is_empty_token(&self) -> bool {
        matches!(self, Token::Empty)
    }

    /// The stop level, if this is a stop token.
    pub fn stop_level(&self) -> Option<u8> {
        match self {
            Token::Stop(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload, if this is a data token.
    pub fn value(self) -> Option<T> {
        match self {
            Token::Val(v) => Some(v),
            _ => None,
        }
    }

    /// A reference to the payload, if this is a data token.
    pub fn value_ref(&self) -> Option<&T> {
        match self {
            Token::Val(v) => Some(v),
            _ => None,
        }
    }

    /// Maps the payload type while preserving control tokens.
    ///
    /// ```
    /// use sam_streams::Token;
    /// let t = Token::Val(3u32).map(f64::from);
    /// assert_eq!(t, Token::Val(3.0));
    /// assert_eq!(Token::<u32>::Stop(2).map(f64::from), Token::Stop(2));
    /// ```
    pub fn map<U, F: FnOnce(T) -> U>(self, f: F) -> Token<U> {
        match self {
            Token::Val(v) => Token::Val(f(v)),
            Token::Stop(n) => Token::Stop(n),
            Token::Empty => Token::Empty,
            Token::Done => Token::Done,
        }
    }
}

impl<T: fmt::Display> fmt::Display for Token<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Val(v) => write!(f, "{v}"),
            Token::Stop(n) => write!(f, "S{n}"),
            Token::Empty => write!(f, "N"),
            Token::Done => write!(f, "D"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let v: Token<u32> = Token::Val(1u32);
        assert!(Token::<u32>::Done.is_done());
        assert!(Token::<u32>::Stop(3).is_stop());
        assert!(Token::<u32>::Empty.is_empty_token());
        assert_eq!(Token::<u32>::Stop(3).stop_level(), Some(3));
        assert_eq!(v.stop_level(), None);
    }

    #[test]
    fn value_extraction() {
        assert_eq!(Token::Val(2.5).value(), Some(2.5));
        assert_eq!(Token::<f64>::Done.value(), None);
        assert_eq!(Token::Val(4u32).value_ref(), Some(&4u32));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(format!("{}", Token::Val(7u32)), "7");
        assert_eq!(format!("{}", Token::<u32>::Stop(1)), "S1");
        assert_eq!(format!("{}", Token::<u32>::Empty), "N");
        assert_eq!(format!("{}", Token::<u32>::Done), "D");
    }
}
