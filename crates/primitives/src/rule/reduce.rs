//! The reducers (Definition 3.7).

use sam_sim::payload::tok;
use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;
use std::collections::BTreeMap;

/// A scalar reducer (order 0): sums each innermost fiber of its value
/// stream into one value. An empty fiber sums to an explicit zero, so the
/// output stays aligned with the outer coordinate streams feeding the
/// writers.
#[derive(Debug, Default)]
pub struct ScalarReduce {
    acc: f64,
}

impl ScalarReduce {
    /// Takes one value-stream token and emits what it closes: nothing for a
    /// value or `Empty`, the sum and then the stop one level down for a
    /// stop (only the sum for `stop(0)`), the done token for done.
    #[inline(always)]
    pub fn step(&mut self, t: SimToken, mut emit: impl FnMut(SimToken)) -> Result<(), Fault> {
        match t {
            Token::Val(Payload::Val(v)) => self.acc += v,
            Token::Val(_) => return Err(Fault::Misaligned),
            Token::Empty => {}
            Token::Stop(n) => {
                emit(tok::val(std::mem::take(&mut self.acc)));
                if n > 0 {
                    emit(tok::stop(n - 1));
                }
            }
            Token::Done => emit(tok::done()),
        }
        Ok(())
    }
}

/// A vector reducer (order 1, Figure 7): accumulates `(coordinate, value)`
/// pairs across inner fibers and emits the deduplicated, sorted fiber when
/// a stop of level ≥ 1 closes the accumulation.
#[derive(Debug, Default)]
pub struct VectorReduce {
    acc: BTreeMap<u32, f64>,
}

impl VectorReduce {
    /// Takes one aligned `(coordinate, value)` pair and emits the
    /// `[coordinate, value]` token pairs it closes: the accumulated fiber
    /// and `stop(n - 1)` for `stop(n)`, `n ≥ 1`; whatever is accumulated
    /// and then the done tokens for done. A pair with an `Empty` side is
    /// skipped; any other pair that is not two data, two stop or two done
    /// tokens is misaligned.
    #[inline]
    pub fn step(
        &mut self,
        crd: SimToken,
        val: SimToken,
        mut emit: impl FnMut([SimToken; 2]),
    ) -> Result<(), Fault> {
        match (crd, val) {
            (Token::Val(Payload::Crd(c)), Token::Val(Payload::Val(v))) => {
                *self.acc.entry(c).or_insert(0.0) += v
            }
            (Token::Empty, _) | (_, Token::Empty) => {}
            (Token::Stop(nc), Token::Stop(nv)) => {
                let n = nc.max(nv);
                if n > 0 {
                    self.flush(&mut emit);
                    emit([tok::stop(n - 1); 2]);
                }
            }
            (Token::Done, Token::Done) => {
                self.flush(&mut emit);
                emit([tok::done(); 2]);
            }
            _ => return Err(Fault::Misaligned),
        }
        Ok(())
    }

    fn flush(&mut self, emit: &mut impl FnMut([SimToken; 2])) {
        for (c, v) in std::mem::take(&mut self.acc) {
            emit([tok::crd(c), tok::val(v)]);
        }
    }
}

/// A matrix reducer (order 2, outer-product dataflows): accumulates
/// `(outer, inner, value)` triples and emits the accumulated matrix when
/// the stream ends. The outer coordinate stream carries one coordinate per
/// inner fiber; the inner coordinate and value streams are aligned.
#[derive(Debug, Default)]
pub struct MatrixReduce {
    acc: BTreeMap<(u32, u32), f64>,
    /// The outer coordinate of the inner fiber being read.
    outer: Option<u32>,
}

impl MatrixReduce {
    /// Offered the outer stream's head: takes it, returning `true`, if it is
    /// a coordinate while no inner fiber is open.
    #[inline]
    pub fn open(&mut self, outer: SimToken) -> Result<bool, Fault> {
        if self.outer.is_some() {
            return Ok(false);
        }
        match outer {
            Token::Val(Payload::Crd(c)) => {
                self.outer = Some(c);
                Ok(true)
            }
            Token::Val(_) => Err(Fault::Misaligned),
            _ => Ok(false),
        }
    }

    /// Takes one aligned `(inner coordinate, value)` pair, returning whether
    /// it did: `false`, with nothing changed, for a data pair while no
    /// outer coordinate is open (see [`MatrixReduce::open`]). A stop closes
    /// the inner fiber and its outer coordinate. Done emits the accumulated
    /// matrix as `[outer, inner, value]` token triples, one per entry — the
    /// outer coordinate with the first entry of its fiber, `Empty` with the
    /// others — each fiber closed by a stop, then the done tokens. A pair
    /// with an `Empty` side is skipped; any other pair that is not two
    /// data, two stop or two done tokens is misaligned.
    #[inline]
    pub fn step(
        &mut self,
        inner: SimToken,
        val: SimToken,
        mut emit: impl FnMut([SimToken; 3]),
    ) -> Result<bool, Fault> {
        match (inner, val) {
            (Token::Val(Payload::Crd(i)), Token::Val(Payload::Val(v))) => {
                let Some(o) = self.outer else { return Ok(false) };
                *self.acc.entry((o, i)).or_insert(0.0) += v;
            }
            (Token::Empty, _) | (_, Token::Empty) => {}
            (Token::Stop(_), Token::Stop(_)) => self.outer = None,
            (Token::Done, Token::Done) => {
                self.flush(&mut emit);
                emit([tok::done(); 3]);
            }
            _ => return Err(Fault::Misaligned),
        }
        Ok(true)
    }

    /// Emits the accumulated matrix: each outer fiber's entries, the last
    /// closed by `stop(0)` on the inner and value streams and `Empty` on the
    /// outer one, the matrix's last by `stop(1)` and `stop(0)`.
    fn flush(&mut self, emit: &mut impl FnMut([SimToken; 3])) {
        let mut by_outer: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
        for ((o, i), v) in std::mem::take(&mut self.acc) {
            by_outer.entry(o).or_default().push((i, v));
        }
        let n = by_outer.len();
        if n == 0 {
            emit([tok::stop(1); 3]);
        }
        for (idx, (o, inners)) in by_outer.into_iter().enumerate() {
            let last_fiber = idx + 1 == n;
            let m = inners.len();
            for (jdx, (i, v)) in inners.into_iter().enumerate() {
                // The outer coordinate accompanies the first element of its
                // fiber; the others carry an empty slot, so the streams stay
                // aligned one token per cycle.
                emit([if jdx == 0 { tok::crd(o) } else { tok::empty() }, tok::crd(i), tok::val(v)]);
                if jdx + 1 == m {
                    // Fiber boundaries appear on the inner coordinate and
                    // value outputs; the outer coordinate output is a single
                    // top-level fiber, so it only receives the final stop.
                    if last_fiber {
                        emit([tok::stop(0), tok::stop(1), tok::stop(1)]);
                    } else {
                        emit([tok::empty(), tok::stop(0), tok::stop(0)]);
                    }
                }
            }
        }
    }
}
