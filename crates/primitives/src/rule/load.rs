//! The array in load mode (Definition 3.5) and the constant source.

use sam_sim::payload::tok;
use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;

/// The array's value for one reference token. An `Empty` reference (a
/// unioner's missing operand) and control tokens pass through, so a
/// downstream ALU reads the empty slot as zero.
#[inline(always)]
pub fn load(vals: &[f64], t: SimToken) -> Result<SimToken, Fault> {
    match t {
        Token::Val(Payload::Ref(r)) => {
            vals.get(r as usize).map(|&v| tok::val(v)).ok_or(Fault::RefOutOfBounds(r))
        }
        Token::Val(_) => Err(Fault::Misaligned),
        control => Ok(control),
    }
}

/// The constant source's token for one token of its shape stream: `value`
/// for every data token, empty and control tokens mirrored.
#[inline(always)]
pub fn constant(value: f64, t: SimToken) -> SimToken {
    match t {
        Token::Val(_) => tok::val(value),
        control => control,
    }
}
