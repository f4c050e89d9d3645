//! The level scanner's stop rule (Definition 3.1, Section 3.3).

use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;
use sam_tensor::level::Level;

/// What one token of a level scanner's reference input does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// Opens fiber `Some(f)` of the level, or no fiber for an `Empty`
    /// reference (a unioner's missing operand); its entries go out, then
    /// the stop [`closing_stop`] picks.
    Fiber(Option<usize>),
    /// A bare `Stop(n)`: `stop(n + 1)` goes out on both streams.
    Stop(u8),
    /// The done token: done goes out on both streams.
    Done,
}

/// The scanner's rule for input token `t` over `level`. A reference past
/// the level's last fiber is out of bounds, and any payload but a reference
/// is misaligned.
#[inline]
pub fn scan(level: &Level, t: SimToken) -> Result<Scan, Fault> {
    match t {
        Token::Val(Payload::Ref(r)) if (r as usize) < level.num_fibers() => Ok(Scan::Fiber(Some(r as usize))),
        Token::Val(Payload::Ref(r)) => Err(Fault::RefOutOfBounds(r)),
        Token::Val(_) => Err(Fault::Misaligned),
        Token::Empty => Ok(Scan::Fiber(None)),
        Token::Stop(n) => Ok(Scan::Stop(n + 1)),
        Token::Done => Ok(Scan::Done),
    }
}

/// The level of the stop that closes a fiber, given `next`, the input token
/// after the one that opened it. A `Stop(n)` there closes outer fibers at
/// the same point: the fiber closes with `stop(n + 1)`, which absorbs it
/// (`Some(n + 1)`; the caller consumes `next`). Any other token opens the
/// next item, and the fiber closes with `stop(0)` (`None`).
#[inline]
pub fn closing_stop(next: SimToken) -> Option<u8> {
    match next {
        Token::Stop(n) => Some(n + 1),
        _ => None,
    }
}
