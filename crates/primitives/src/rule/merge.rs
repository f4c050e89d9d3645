//! The mergers: intersection and union (Definitions 3.2 and 3.3).

use sam_sim::payload::tok;
use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;
use std::cmp::Ordering;

/// What a merger does with the heads of its two operands: which of them go
/// — a head is a coordinate and its reference — and what goes out on its
/// coordinate output and its two reference outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Merge {
    /// Both heads go, and the coordinate and the two references go out: a
    /// coordinate both operands hold, the stop that closes both fibers, or
    /// done.
    Both([SimToken; 3]),
    /// Operand `side`'s head goes alone, and `out` goes out: on the unioner,
    /// a coordinate only that operand holds, with `Empty` for the other
    /// reference.
    Emit { side: usize, out: [SimToken; 3] },
    /// Operand `side`'s head goes alone, and nothing goes out. When it is a
    /// coordinate the intersecter drops below the other operand's
    /// coordinate, `lead` is that coordinate: every coordinate of the fiber
    /// below it drops too, the skip target of Section 4.2.
    Drop { side: usize, lead: Option<u32> },
}

/// The intersecter's rule or, if `UNION`, the unioner's, for coordinate
/// heads `crd` and reference heads `rf`, operand 0 first. Two equal
/// coordinates go out with both references. A coordinate only one operand
/// holds — below the other's, or against the stop or done that ended the
/// other's fiber — goes out on the unioner with `Empty` for the other
/// reference, and is dropped by the intersecter. An `Empty` is skipped on
/// its own side, and so is a stop against a done. Two stops close both
/// fibers with the higher level; two dones end the merge. Any payload but a
/// coordinate on a coordinate input is misaligned.
#[inline(always)]
pub fn merge<const UNION: bool>(crd: [SimToken; 2], rf: [SimToken; 2]) -> Result<Merge, Fault> {
    // A coordinate only operand `side` holds, below `lead` if the other
    // operand's head is a coordinate.
    let alone = |side: usize, lead: Option<u32>| match (UNION, side) {
        (true, 0) => Merge::Emit { side, out: [crd[0], rf[0], tok::empty()] },
        (true, _) => Merge::Emit { side, out: [crd[1], tok::empty(), rf[1]] },
        (false, _) => Merge::Drop { side, lead },
    };
    Ok(match crd {
        [Token::Val(Payload::Crd(a)), Token::Val(Payload::Crd(b))] => match a.cmp(&b) {
            Ordering::Equal => Merge::Both([crd[0], rf[0], rf[1]]),
            Ordering::Less => alone(0, Some(b)),
            Ordering::Greater => alone(1, Some(a)),
        },
        [Token::Empty, _] | [Token::Stop(_), Token::Done] => Merge::Drop { side: 0, lead: None },
        [_, Token::Empty] | [Token::Done, Token::Stop(_)] => Merge::Drop { side: 1, lead: None },
        [Token::Val(Payload::Crd(_)), Token::Stop(_) | Token::Done] => alone(0, None),
        [Token::Stop(_) | Token::Done, Token::Val(Payload::Crd(_))] => alone(1, None),
        [Token::Stop(a), Token::Stop(b)] => Merge::Both([tok::stop(a.max(b)); 3]),
        [Token::Done, Token::Done] => Merge::Both([tok::done(); 3]),
        _ => return Err(Fault::Misaligned),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair of head kinds, on both rules: the heads that go, what
    /// goes out and the skip target.
    #[test]
    fn every_pair_of_heads_has_one_answer() {
        let (c1, c2) = (tok::crd(1), tok::crd(2));
        let (r, s) = (tok::rf(7), tok::rf(9));
        let (n, stop, done) = (tok::empty(), tok::stop(0), tok::done());
        let (drop, emit) =
            (|side, lead| Ok(Merge::Drop { side, lead }), |side, out| Ok(Merge::Emit { side, out }));
        for (heads, intersect, union) in [
            ([c1, c1], Ok(Merge::Both([c1, r, s])), Ok(Merge::Both([c1, r, s]))),
            ([c1, c2], drop(0, Some(2)), emit(0, [c1, r, n])),
            ([c2, c1], drop(1, Some(2)), emit(1, [c1, n, s])),
            ([c1, stop], drop(0, None), emit(0, [c1, r, n])),
            ([done, c1], drop(1, None), emit(1, [c1, n, s])),
            ([n, c1], drop(0, None), drop(0, None)),
            ([n, n], drop(0, None), drop(0, None)),
            ([c1, n], drop(1, None), drop(1, None)),
            ([stop, done], drop(0, None), drop(0, None)),
            ([done, stop], drop(1, None), drop(1, None)),
            ([tok::stop(1), stop], Ok(Merge::Both([tok::stop(1); 3])), Ok(Merge::Both([tok::stop(1); 3]))),
            ([done, done], Ok(Merge::Both([done; 3])), Ok(Merge::Both([done; 3]))),
            ([tok::rf(1), c1], Err(Fault::Misaligned), Err(Fault::Misaligned)),
            ([stop, tok::val(1.0)], Err(Fault::Misaligned), Err(Fault::Misaligned)),
        ] {
            assert_eq!(merge::<false>(heads, [r, s]), intersect, "intersect {heads:?}");
            assert_eq!(merge::<true>(heads, [r, s]), union, "union {heads:?}");
        }
    }
}
