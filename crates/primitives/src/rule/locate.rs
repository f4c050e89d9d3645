//! The locator (Definition 4.1).

use sam_sim::payload::tok;
use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;
use sam_tensor::level::Level;

/// The locator's three tokens — coordinate, pass-through reference,
/// located reference — for one aligned `(coordinate, reference)` pair: the
/// coordinate looked up in `level`'s fiber named by the reference, or
/// `Empty` on all three outputs when it is absent (or either input is
/// `Empty`), so the downstream streams stay aligned. Stops take the higher
/// level. A reference past `level`'s last fiber is out of bounds; any other
/// pair is misaligned.
#[inline]
pub fn locate(level: &Level, crd: SimToken, rf: SimToken) -> Result<[SimToken; 3], Fault> {
    Ok(match (crd, rf) {
        (Token::Val(Payload::Crd(c)), Token::Val(Payload::Ref(r))) => {
            if r as usize >= level.num_fibers() {
                return Err(Fault::RefOutOfBounds(r));
            }
            match level.locate(r as usize, c) {
                Some(child) => [tok::crd(c), tok::rf(r), tok::rf(child as u32)],
                None => [tok::empty(); 3],
            }
        }
        (Token::Empty, _) | (_, Token::Empty) => [tok::empty(); 3],
        (Token::Stop(nc), Token::Stop(nr)) => [tok::stop(nc.max(nr)); 3],
        (Token::Done, Token::Done) => [tok::done(); 3],
        _ => return Err(Fault::Misaligned),
    })
}
