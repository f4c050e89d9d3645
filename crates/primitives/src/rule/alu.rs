//! The ALU (Definition 3.6).

use sam_sim::payload::tok;
use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;

/// The arithmetic operation an ALU applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction (first operand minus second).
    Sub,
    /// Multiplication.
    Mul,
}

impl AluOp {
    #[inline(always)]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            AluOp::Add => a + b,
            AluOp::Sub => a - b,
            AluOp::Mul => a * b,
        }
    }
}

/// The ALU's token for one aligned pair of input tokens: `Empty` reads as
/// zero, stops take the higher level. Any other pair is misaligned.
#[inline(always)]
pub fn alu(op: AluOp, a: SimToken, b: SimToken) -> Result<SimToken, Fault> {
    Ok(match (a, b) {
        (Token::Val(Payload::Val(x)), Token::Val(Payload::Val(y))) => tok::val(op.apply(x, y)),
        (Token::Val(_) | Token::Empty, Token::Val(_) | Token::Empty) => {
            tok::val(op.apply(zero_if_empty(a)?, zero_if_empty(b)?))
        }
        (Token::Stop(na), Token::Stop(nb)) => tok::stop(na.max(nb)),
        (Token::Done, Token::Done) => tok::done(),
        _ => return Err(Fault::Misaligned),
    })
}

/// The value of a value or `Empty` token.
#[inline(always)]
fn zero_if_empty(t: SimToken) -> Result<f64, Fault> {
    match t {
        Token::Val(Payload::Val(v)) => Ok(v),
        Token::Empty => Ok(0.0),
        _ => Err(Fault::Misaligned),
    }
}
