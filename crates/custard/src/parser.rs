//! Parser for textual tensor index notation.
//!
//! The accepted grammar mirrors the TACO/Custard input language:
//!
//! ```text
//! statement := tensor '(' indices? ')' '=' expr
//! expr      := term (('+' | '-') term)*
//! term      := factor ('*' factor)*
//! factor    := number | tensor '(' indices? ')' | '(' expr ')'
//! ```
//!
//! Reduction variables (those not appearing on the left-hand side) are
//! wrapped in an explicit `Reduce` node at the top of the right-hand side,
//! matching Einsum semantics; additive terms that do not mention a reduction
//! variable stay outside the reduction (e.g. the residual expression).
//!
//! An expression string is outside input (a service query carries one), and
//! the parser, the left-deep tree it builds and every pass over that tree
//! recurse once per parenthesis and once per operand. So both are bounded
//! ([`MAX_NESTING`], [`MAX_OPERANDS`]) far above any Table 1 expression
//! (three operands, one level), and a literal must be a finite number.

use sam_tensor::expr::{Assignment, Expr, IndexVar};
use std::fmt;

/// The deepest parenthesis nesting [`parse`] accepts.
pub const MAX_NESTING: usize = 64;

/// The most operands (tensor accesses and literals) a right-hand side may
/// have.
pub const MAX_OPERANDS: usize = 256;

/// What kind of input a [`ParseError`] rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text is not a statement of the grammar.
    Syntax,
    /// Parentheses nest deeper than [`MAX_NESTING`].
    TooDeep,
    /// The right-hand side has more than [`MAX_OPERANDS`] operands.
    TooManyOperands,
    /// A numeric literal is not a finite `f64` (it overflows to infinity).
    NonFiniteLiteral,
}

/// An error produced while parsing tensor index notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What kind of input was rejected.
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Parentheses open around the current position.
    depth: usize,
    /// Operands of the right-hand side parsed so far.
    operands: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input: input.as_bytes(), pos: 0, depth: 0, operands: 0 }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        self.error_of(ParseErrorKind::Syntax, message)
    }

    fn error_of<T>(&self, kind: ParseErrorKind, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { kind, message: message.into(), position: self.pos })
    }

    /// Counts one more operand, rejecting the one past [`MAX_OPERANDS`].
    fn operand(&mut self) -> Result<(), ParseError> {
        self.operands += 1;
        if self.operands > MAX_OPERANDS {
            return self.error_of(
                ParseErrorKind::TooManyOperands,
                format!("more than {MAX_OPERANDS} operands in one expression"),
            );
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.error(format!("expected `{}`", byte as char))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len()
            && (self.input[self.pos].is_ascii_alphanumeric() || self.input[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.error("expected an identifier");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("ascii").to_string())
    }

    fn access(&mut self) -> Result<(String, Vec<IndexVar>), ParseError> {
        let name = self.ident()?;
        let mut indices = Vec::new();
        if self.eat(b'(') && !self.eat(b')') {
            loop {
                let idx = self.ident()?;
                if idx.len() != 1 {
                    return self.error(format!("index variables must be single letters, got `{idx}`"));
                }
                indices.push(idx.chars().next().expect("nonempty"));
                if self.eat(b')') {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok((name, indices))
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(b'(') => {
                if self.depth == MAX_NESTING {
                    return self.error_of(
                        ParseErrorKind::TooDeep,
                        format!("parentheses nest deeper than {MAX_NESTING} levels"),
                    );
                }
                self.expect(b'(')?;
                self.depth += 1;
                let e = self.expr()?;
                self.expect(b')')?;
                self.depth -= 1;
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() => {
                self.operand()?;
                let start = self.pos;
                while self.pos < self.input.len()
                    && (self.input[self.pos].is_ascii_digit() || self.input[self.pos] == b'.')
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii");
                match text.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(Expr::Literal(v)),
                    Ok(_) => Err(ParseError {
                        kind: ParseErrorKind::NonFiniteLiteral,
                        message: format!("numeric literal `{text}` is not a finite number"),
                        position: start,
                    }),
                    Err(_) => self.error(format!("bad numeric literal `{text}`")),
                }
            }
            Some(_) => {
                self.operand()?;
                let (name, indices) = self.access()?;
                Ok(Expr::Access { tensor: name, indices })
            }
            None => self.error("unexpected end of input"),
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.factor()?;
        while self.peek() == Some(b'*') {
            self.expect(b'*')?;
            let rhs = self.factor()?;
            e = e.mul(rhs);
        }
        Ok(e)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.expect(b'+')?;
                    let rhs = self.term()?;
                    e = e.add(rhs);
                }
                Some(b'-') => {
                    self.expect(b'-')?;
                    let rhs = self.term()?;
                    e = e.sub(rhs);
                }
                _ => break,
            }
        }
        Ok(e)
    }
}

/// Wraps every maximal sub-expression that mentions reduction variables in a
/// `Reduce` node. Terms of a sum that do not mention a reduction variable
/// stay outside (the residual/MatTransMul pattern).
fn apply_reductions(expr: Expr, reduction_vars: &[IndexVar]) -> Expr {
    if reduction_vars.is_empty() {
        return expr;
    }
    match expr {
        Expr::Add(a, b) => {
            let a = apply_reductions(*a, reduction_vars);
            let b = apply_reductions(*b, reduction_vars);
            a.add(b)
        }
        Expr::Sub(a, b) => {
            let a = apply_reductions(*a, reduction_vars);
            let b = apply_reductions(*b, reduction_vars);
            a.sub(b)
        }
        other => {
            let used: Vec<IndexVar> =
                reduction_vars.iter().copied().filter(|v| other.index_vars().contains(v)).collect();
            if used.is_empty() {
                other
            } else {
                Expr::Reduce { vars: used, body: Box::new(other) }
            }
        }
    }
}

/// Parses a tensor index notation statement such as
/// `"X(i,j) = B(i,k) * C(k,j)"`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending token: a
/// [`ParseErrorKind::Syntax`] error, or one of the bounds in the module
/// docs.
///
/// ```
/// let a = custard::parse("x(i) = B(i,j) * c(j)").unwrap();
/// assert_eq!(a.target, "x");
/// assert_eq!(a.reduction_vars(), vec!['j']);
/// ```
pub fn parse(text: &str) -> Result<Assignment, ParseError> {
    let mut p = Parser::new(text);
    let (target, target_indices) = p.access()?;
    p.expect(b'=')?;
    let rhs = p.expr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return p.error("trailing input after expression");
    }
    let target_str: String = target_indices.iter().collect();
    let assignment = Assignment::new(&target, &target_str, rhs);
    let reduction_vars = assignment.reduction_vars();
    let rhs = apply_reductions(assignment.rhs, &reduction_vars);
    Ok(Assignment { target: assignment.target, target_indices: assignment.target_indices, rhs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_tensor::expr::table1;

    #[test]
    fn parses_spmm() {
        let a = parse("X(i,j) = B(i,k) * C(k,j)").unwrap();
        assert_eq!(a, table1::spmm());
    }

    #[test]
    fn parses_residual_with_partial_reduction() {
        let a = parse("x(i) = b(i) - C(i,j) * d(j)").unwrap();
        assert_eq!(a, table1::residual());
    }

    #[test]
    fn parses_scalar_output_and_additions() {
        let a = parse("chi() = B(i,j,k) * C(i,j,k)").unwrap();
        assert_eq!(a, table1::inner_prod());
        let m = parse("X(i,j) = B(i,j) + C(i,j)").unwrap();
        assert_eq!(m, table1::mm_add());
    }

    #[test]
    fn parses_parentheses_and_literals() {
        let a = parse("x(i) = 2 * (b(i) + c(i))").unwrap();
        assert!(matches!(a.rhs, Expr::Mul(..)));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("x(i) =").is_err());
        assert!(parse("x(i) = B(i,").is_err());
        assert!(parse("x(ij) = B(ij)").is_err());
        assert!(parse("x(i) = b(i) extra").is_err());
        let err = parse("x(i) = $").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        assert_eq!(err.kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn bounds_hold_exactly_at_their_constants() {
        let nested = |depth: usize| format!("x(i) = {}b(i){}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!((err.kind, err.position), (ParseErrorKind::TooDeep, 7 + MAX_NESTING));

        let sum = |n: usize| format!("x(i) = {}", vec!["b(i)"; n].join(" + "));
        assert!(parse(&sum(MAX_OPERANDS)).is_ok());
        assert_eq!(parse(&sum(MAX_OPERANDS + 1)).unwrap_err().kind, ParseErrorKind::TooManyOperands);

        assert!(parse(&format!("x(i) = {} * b(i)", "9".repeat(308))).is_ok());
        let err = parse(&format!("x(i) = {} * b(i)", "9".repeat(309))).unwrap_err();
        assert_eq!((err.kind, err.position), (ParseErrorKind::NonFiniteLiteral, 7));
    }

    #[test]
    fn all_table1_expressions_roundtrip() {
        for (name, text) in [
            ("SpMV", "x(i) = B(i,j) * c(j)"),
            ("SpM*SpM", "X(i,j) = B(i,k) * C(k,j)"),
            ("SDDMM", "X(i,j) = B(i,j) * C(i,k) * D(j,k)"),
            ("TTV", "X(i,j) = B(i,j,k) * c(k)"),
            ("TTM", "X(i,j,k) = B(i,j,l) * C(k,l)"),
            ("MTTKRP", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)"),
            ("Plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)"),
        ] {
            let parsed = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!parsed.to_string().is_empty());
        }
    }
}
