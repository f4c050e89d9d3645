//! The reducers (Definition 3.7).

use sam_sim::payload::tok;
use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;

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
/// a stop of level ≥ 1 closes the accumulation. The pairs go into one run,
/// in arrival order, reused from fiber to fiber; a flush stable-sorts it by
/// coordinate and sums each coordinate's values from zero in arrival order.
#[derive(Debug, Default)]
pub struct VectorReduce {
    run: Vec<(u32, f64)>,
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
            (Token::Val(Payload::Crd(c)), Token::Val(Payload::Val(v))) => self.run.push((c, v)),
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
        self.run.sort_by_key(|&(c, _)| c);
        for cell in self.run.chunk_by(|x, y| x.0 == y.0) {
            emit([tok::crd(cell[0].0), tok::val(sum(cell.iter().map(|&(_, v)| v)))]);
        }
        self.run.clear();
    }
}

/// One coordinate's values summed from zero in arrival order: the sum a
/// per-coordinate accumulator starting at `0.0` reaches.
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |acc, v| acc + v)
}

/// A matrix reducer (order 2, outer-product dataflows): accumulates
/// `(outer, inner, value)` triples and emits the accumulated matrix when
/// the stream ends. The outer coordinate stream carries one coordinate per
/// inner fiber; the inner coordinate and value streams are aligned. The
/// triples go into one run, in arrival order; the flush stable-sorts it by
/// `(outer, inner)` and sums each cell's values from zero in arrival order.
#[derive(Debug, Default)]
pub struct MatrixReduce {
    run: Vec<(u32, u32, f64)>,
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
                self.run.push((o, i, v));
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
        self.run.sort_by_key(|&(o, i, _)| (o, i));
        let mut fibers = self.run.chunk_by(|x, y| x.0 == y.0).peekable();
        if fibers.peek().is_none() {
            emit([tok::stop(1); 3]);
        }
        while let Some(fiber) = fibers.next() {
            for (jdx, cell) in fiber.chunk_by(|x, y| x.1 == y.1).enumerate() {
                // The outer coordinate accompanies the first element of its
                // fiber; the others carry an empty slot, so the streams stay
                // aligned one token per cycle.
                let outer = if jdx == 0 { tok::crd(cell[0].0) } else { tok::empty() };
                emit([outer, tok::crd(cell[0].1), tok::val(sum(cell.iter().map(|&(.., v)| v)))]);
            }
            // Fiber boundaries appear on the inner coordinate and value
            // outputs; the outer coordinate output is a single top-level
            // fiber, so it only receives the final stop.
            if fibers.peek().is_none() {
                emit([tok::stop(0), tok::stop(1), tok::stop(1)]);
            } else {
                emit([tok::empty(), tok::stop(0), tok::stop(0)]);
            }
        }
        self.run.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A fixed linear congruential generator: the same streams on every run.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, below: u32) -> u32 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) % u64::from(below)) as u32
        }

        /// How many inner fibers an outer one holds: 0–3, and now and then
        /// 20–49, so that a flush sorts a run long enough for an unstable sort
        /// to reorder equal coordinates.
        fn wide(&mut self) -> u32 {
            if self.next(8) == 0 {
                20 + self.next(30)
            } else {
                self.next(4)
            }
        }

        /// A value that is rarely an integer: fractions, signed zeros, and
        /// magnitudes whose sum depends on the order it is taken in.
        fn value(&mut self) -> f64 {
            const PALETTE: [f64; 9] = [1e16, 1.0, -1e16, 0.1, 0.2, -0.3, -0.0, 1e-300, 3.5];
            match self.next(3) {
                0 => PALETTE[self.next(PALETTE.len() as u32) as usize],
                _ => (f64::from(self.next(2001)) - 1000.0) / 7.0,
            }
        }
    }

    /// A token as compared here: values by their bits.
    fn key(t: &SimToken) -> String {
        match t {
            Token::Val(Payload::Val(v)) => format!("val {:#018x}", v.to_bits()),
            t => format!("{t:?}"),
        }
    }

    fn keys<const N: usize>(out: &[[SimToken; N]]) -> Vec<[String; N]> {
        out.iter().map(|ts| ts.each_ref().map(key)).collect()
    }

    /// The vector reducer as a per-coordinate accumulator: a tree that
    /// each value is added into as it arrives.
    fn vector_model(pairs: &[[SimToken; 2]]) -> Vec<[SimToken; 2]> {
        let (mut acc, mut out) = (BTreeMap::new(), Vec::new());
        let flush = |acc: &mut BTreeMap<u32, f64>, out: &mut Vec<_>| {
            for (c, v) in std::mem::take(acc) {
                out.push([tok::crd(c), tok::val(v)]);
            }
        };
        for &[c, v] in pairs {
            match (c, v) {
                (Token::Val(Payload::Crd(c)), Token::Val(Payload::Val(v))) => {
                    *acc.entry(c).or_insert(0.0) += v
                }
                (Token::Stop(n), _) if n > 0 => {
                    flush(&mut acc, &mut out);
                    out.push([tok::stop(n - 1); 2]);
                }
                (Token::Done, _) => {
                    flush(&mut acc, &mut out);
                    out.push([tok::done(); 2]);
                }
                _ => {}
            }
        }
        out
    }

    /// The matrix reducer as a per-cell accumulator, emitted by outer fiber
    /// at done.
    fn matrix_model(cells: &[(u32, u32, f64)]) -> Vec<[SimToken; 3]> {
        let mut acc = BTreeMap::new();
        for &(o, i, v) in cells {
            *acc.entry((o, i)).or_insert(0.0) += v;
        }
        let mut by_outer: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
        for ((o, i), v) in acc {
            by_outer.entry(o).or_default().push((i, v));
        }
        let mut out = Vec::new();
        if by_outer.is_empty() {
            out.push([tok::stop(1); 3]);
        }
        let n = by_outer.len();
        for (k, (o, inners)) in by_outer.into_iter().enumerate() {
            for (j, &(i, v)) in inners.iter().enumerate() {
                out.push([if j == 0 { tok::crd(o) } else { tok::empty() }, tok::crd(i), tok::val(v)]);
            }
            out.push(if k + 1 == n {
                [tok::stop(0), tok::stop(1), tok::stop(1)]
            } else {
                [tok::empty(), tok::stop(0), tok::stop(0)]
            });
        }
        out.push([tok::done(); 3]);
        out
    }

    /// A random order-1 input: outer fibers of [`Lcg::wide`] inner fibers of 0–5 entries,
    /// whose coordinates repeat from one inner fiber to the next, with now
    /// and then an `Empty` pair; inner fibers closed by `stop(0)`, outer ones
    /// by `stop(1)`, and the stream by `stop(2)` or, now and then, by nothing
    /// but its done token.
    fn vector_input(rng: &mut Lcg) -> Vec<[SimToken; 2]> {
        let mut pairs = Vec::new();
        let outers = rng.next(4);
        for o in 0..outers {
            let inners = rng.wide();
            for i in 0..inners {
                let mut c = 0;
                for _ in 0..rng.next(6) {
                    c += rng.next(3);
                    pairs.push(if rng.next(10) == 0 {
                        [tok::empty(); 2]
                    } else {
                        [tok::crd(c), tok::val(rng.value())]
                    });
                    c += 1;
                }
                let level = if i + 1 < inners {
                    0
                } else if o + 1 < outers {
                    1
                } else {
                    2
                };
                if level < 2 || rng.next(4) > 0 {
                    pairs.push([tok::stop(level); 2]);
                }
            }
            if inners == 0 {
                pairs.push([tok::stop(if o + 1 < outers { 1 } else { 2 }); 2]);
            }
        }
        pairs.push([tok::done(); 2]);
        pairs
    }

    fn reduce_vector(pairs: &[[SimToken; 2]]) -> Vec<[SimToken; 2]> {
        let (mut reduce, mut out) = (VectorReduce::default(), Vec::new());
        for &[c, v] in pairs {
            assert_eq!(reduce.step(c, v, |o| out.push(o)), Ok(()));
        }
        out
    }

    /// An inner fiber of an order-2 input: `(inner coordinate, value)`.
    type Inner = Vec<(u32, f64)>;

    /// Streams the matrix reducer's three inputs carry for `fibers`, a list
    /// of outer fibers of `(outer coordinate, inner fiber)`, and drives the
    /// rule over them as the stored transfer function does: the outer
    /// coordinate is offered before each inner pair and its stop taken
    /// after the inner stop that closes the same fiber.
    fn reduce_matrix(fibers: &[Vec<(u32, Inner)>]) -> Vec<[SimToken; 3]> {
        let (mut outer, mut inner) = (Vec::new(), Vec::new());
        for (k, fiber) in fibers.iter().enumerate() {
            let level = u8::from(k + 1 == fibers.len());
            for (j, (o, entries)) in fiber.iter().enumerate() {
                outer.push(tok::crd(*o));
                inner.extend(entries.iter().map(|&(i, v)| [tok::crd(i), tok::val(v)]));
                inner.push([tok::stop(if j + 1 < fiber.len() { 0 } else { level + 1 }); 2]);
            }
            if fiber.is_empty() {
                inner.push([tok::stop(level + 1); 2]);
            }
            outer.push(tok::stop(level));
        }
        outer.push(tok::done());
        inner.push([tok::done(); 2]);
        let (mut reduce, mut out, mut head) = (MatrixReduce::default(), Vec::new(), 0);
        for [i, v] in inner {
            if reduce.open(outer[head]) == Ok(true) {
                head += 1;
            }
            assert_eq!(reduce.step(i, v, |o| out.push(o)), Ok(true));
            if i.is_stop() && outer[head].is_stop() {
                head += 1;
            }
        }
        out
    }

    #[test]
    fn the_vector_reducer_sums_as_a_per_coordinate_accumulator() {
        let mut rng = Lcg(36);
        let (mut repeated, mut empty_fibers, mut flushes) = (0, 0, 0);
        for _ in 0..2000 {
            let pairs = vector_input(&mut rng);
            let want = vector_model(&pairs);
            assert_eq!(keys(&reduce_vector(&pairs)), keys(&want), "{pairs:?}");
            // Entries folded into another one of the same coordinate.
            let data = |out: &[[SimToken; 2]]| out.iter().filter(|[c, _]| c.value().is_some()).count();
            repeated += data(&pairs) - data(&want);
            empty_fibers += pairs.windows(2).filter(|w| w[0][0].is_stop() && w[1][0].is_stop()).count();
            flushes += want.iter().filter(|[c, _]| c.is_stop() || c.is_done()).count();
        }
        assert!(repeated > 1000, "coordinates must repeat across inner fibers: {repeated}");
        assert!(empty_fibers > 200, "inner fibers must be empty: {empty_fibers}");
        assert!(flushes > 2000, "fibers must flush at a stop and at done: {flushes}");
    }

    #[test]
    fn the_matrix_reducer_sums_as_a_per_cell_accumulator() {
        let mut rng = Lcg(37);
        for _ in 0..2000 {
            let fibers: Vec<Vec<(u32, Inner)>> = (0..rng.next(4))
                .map(|_| {
                    (0..rng.wide())
                        .map(|_| {
                            let mut c = 0;
                            let entries = (0..rng.next(5))
                                .map(|_| {
                                    c += 1 + rng.next(2);
                                    (c, rng.value())
                                })
                                .collect();
                            (rng.next(4), entries)
                        })
                        .collect()
                })
                .collect();
            let cells: Vec<_> = fibers
                .iter()
                .flatten()
                .flat_map(|(o, entries)| entries.iter().map(|&(i, v)| (*o, i, v)))
                .collect();
            assert_eq!(keys(&reduce_matrix(&fibers)), keys(&matrix_model(&cells)), "{fibers:?}");
        }
    }

    /// `1e16 + 1 = 1e16` in `f64`: the three values sum to 0 in arrival
    /// order and to 1 in any order that adds `1.0` last.
    #[test]
    fn values_are_summed_in_arrival_order() {
        let pairs: Vec<_> = [1e16, 1.0, -1e16]
            .iter()
            .flat_map(|&v| [[tok::crd(3), tok::val(v)], [tok::stop(0); 2]])
            .chain([[tok::stop(1); 2], [tok::done(); 2]])
            .collect();
        let out = reduce_vector(&pairs);
        assert_eq!(keys(&out[..1]), keys(&[[tok::crd(3), tok::val(0.0)]]));
        assert_eq!(keys(&out), keys(&vector_model(&pairs)));
        let fibers = [vec![(2, vec![(3, 1e16)]), (2, vec![(3, 1.0)])], vec![(2, vec![(3, -1e16)])]];
        let out = reduce_matrix(&fibers);
        assert_eq!(keys(&out[..1]), keys(&[[tok::crd(2), tok::crd(3), tok::val(0.0)]]));
    }
}
