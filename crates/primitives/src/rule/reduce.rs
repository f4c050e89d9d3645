//! The reducer (Definition 3.7), one rule for every order.

use sam_sim::payload::tok;
use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;

/// A reducer of order `N` (Definition 3.7): it sums the values of each
/// fiber it reduces into one cell per key of `N` coordinates — a scalar for
/// `N = 0`, a vector for `N = 1` (Figure 7), a matrix for `N = 2`
/// (outer-product dataflows).
///
/// It reads `N` coordinate streams, outer first, and a value stream. The
/// innermost coordinate stream is aligned with the values; for `N = 2` the
/// outer one carries one coordinate per inner fiber, and its stops close
/// the outer fibers.
///
/// Each data pair goes into the run, in arrival order. A stop of level
/// `m ≥ N` closes the reduced fiber and flushes the run: its cells in key
/// order, each summed from `0.0` in arrival order, then coordinate output
/// `k` closed by `stop(m − N + k)` and the values by `stop(m − 1)` (no stop
/// when `m = 0`). For `N = 0` the run is the one empty key, so an empty
/// fiber sums to an explicit zero and the output stays aligned with the
/// outer coordinate streams feeding the writers. For `N = 2` the outer
/// coordinate goes out with the first entry of its fiber and `Empty` with
/// the others, and fibers are separated by `[Empty, stop(0), stop(0)]`.
/// Done flushes whatever an order of 1 or more holds, then goes out on
/// every output; an order-0 fiber is closed by its stop alone.
#[derive(Debug)]
pub struct Reduce<const N: usize> {
    /// For `N = 0`, the run: the one empty key's values summed from `0.0`
    /// in arrival order.
    sum: f64,
    /// For `N ≥ 1`, the run: each data pair's key and value since the last
    /// flush, in arrival order.
    run: Vec<([u32; N], f64)>,
    /// The key of the next data pair. For `N = 2` its first coordinate is
    /// the outer one of the inner fiber being read.
    key: [u32; N],
    /// Whether the inner fiber being read has its outer coordinate: always
    /// for `N < 2`.
    open: bool,
}

impl<const N: usize> Default for Reduce<N> {
    fn default() -> Self {
        const { assert!(N <= 2, "a key of up to two coordinates") };
        Reduce { sum: 0.0, run: Vec::new(), key: [0; N], open: N < 2 }
    }
}

/// What [`Reduce::step`] took of the heads it was offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Took<const N: usize> {
    /// Per coordinate input, outer first: whether its head was taken.
    pub crd: [bool; N],
    /// Whether the value input's head was taken.
    pub val: bool,
}

impl<const N: usize> Reduce<N> {
    /// Offered the head of each coordinate input, outer first, and of the
    /// value input (`None` where none is there), takes what it can, hands
    /// `emit` what that closes — `(coordinates, value)`, a token per
    /// output — and reports what it took. The innermost coordinate and the
    /// value go together, and a pair with an `Empty` side is skipped; any
    /// other pair that is not two data, two stop or two done tokens is
    /// misaligned. For `N = 2` the outer coordinate of an inner fiber is
    /// taken as soon as it is there. A data pair or a `stop(0)` waits for
    /// it, a higher stop for the outer stop behind it, and done for the
    /// outer done; an outer head that is there and is not the one awaited
    /// is misaligned.
    #[inline(always)]
    pub fn step(
        &mut self,
        crd: [Option<SimToken>; N],
        val: Option<SimToken>,
        mut emit: impl FnMut([SimToken; N], SimToken),
    ) -> Result<Took<N>, Fault> {
        let mut took = Took { crd: [false; N], val: false };
        let outer = if N > 1 { crd[0] } else { None };
        if N > 1 && !self.open {
            if let Some(Token::Val(p)) = outer {
                self.key[0] = coordinate(p)?;
                self.open = true;
                took.crd[0] = true;
            }
        }
        // For `N = 0` the value stands in for the innermost coordinate.
        let (Some(c), Some(v)) = (crd.last().copied().unwrap_or(val), val) else { return Ok(took) };
        let pair = match (c, v) {
            (_, Token::Val(Payload::Val(x))) if N == 0 => Pair::Data(0, x),
            (Token::Val(Payload::Crd(c)), Token::Val(Payload::Val(x))) => Pair::Data(c, x),
            (Token::Empty, _) | (_, Token::Empty) => Pair::Skip,
            (Token::Stop(nc), Token::Stop(nv)) => Pair::Stop(nc.max(nv)),
            (Token::Done, Token::Done) => Pair::Done,
            _ => return Err(Fault::Misaligned),
        };
        if N > 1 {
            let ready = match pair {
                Pair::Skip => true,
                Pair::Data(..) | Pair::Stop(0) => self.open,
                // The outer token behind a coordinate taken now is not
                // in sight yet.
                Pair::Stop(_) => !took.crd[0] && matches!(outer, Some(Token::Stop(_))),
                Pair::Done => !took.crd[0] && matches!(outer, Some(Token::Done)),
            };
            if !ready {
                return match outer {
                    Some(_) if !took.crd[0] => Err(Fault::Misaligned),
                    _ => Ok(took),
                };
            }
            if let Pair::Stop(m) = pair {
                took.crd[0] |= m > 0;
                self.open = false;
            }
            if let Pair::Done = pair {
                took.crd[0] = true;
            }
        }
        match pair {
            Pair::Data(c, x) => {
                if let Some(inner) = self.key.last_mut() {
                    *inner = c;
                }
                self.push(x);
            }
            Pair::Skip => {}
            Pair::Stop(m) => {
                if usize::from(m) >= N {
                    self.flush(&mut emit);
                    if m > 0 {
                        emit(std::array::from_fn(|k| tok::stop(m - (N - k) as u8)), tok::stop(m - 1));
                    }
                }
            }
            Pair::Done => {
                if N > 0 {
                    self.flush(&mut emit);
                }
                emit([tok::done(); N], tok::done());
            }
        }
        took.val = true;
        if let Some(inner) = took.crd.last_mut() {
            *inner = true;
        }
        Ok(took)
    }

    /// Puts a data pair's value into the run under the current key.
    #[inline(always)]
    fn push(&mut self, v: f64) {
        if N == 0 {
            self.sum += v;
        } else {
            self.run.push((self.key, v));
        }
    }

    /// Emits the run's cells in key order, each summed from `0.0` in
    /// arrival order, and empties the run. For `N = 0` an empty fiber sums
    /// to an explicit zero.
    #[inline(always)]
    fn flush(&mut self, emit: &mut impl FnMut([SimToken; N], SimToken)) {
        if N == 0 {
            emit(self.key.map(tok::crd), tok::val(std::mem::take(&mut self.sum)));
        } else {
            self.flush_run(emit);
        }
    }

    /// [`Reduce::flush`] for `N ≥ 1`; out of line, so that it stays out of
    /// the loops that inline the step.
    #[inline(never)]
    fn flush_run(&mut self, emit: &mut impl FnMut([SimToken; N], SimToken)) {
        self.run.sort_by_key(|&(key, _)| rank(key));
        // The coordinates above the innermost one: each opens a fiber.
        let outer = N.saturating_sub(1);
        let mut prev: Option<[u32; N]> = None;
        for cell in self.run.chunk_by(|x, y| x.0 == y.0) {
            let key = cell[0].0;
            let opens = |k: usize| prev.is_none_or(|prev| prev[..=k] != key[..=k]);
            if prev.is_some() && (0..outer).any(opens) {
                emit(
                    std::array::from_fn(|k| if k < outer { tok::empty() } else { tok::stop(0) }),
                    tok::stop(0),
                );
            }
            let crd =
                std::array::from_fn(|k| if k >= outer || opens(k) { tok::crd(key[k]) } else { tok::empty() });
            emit(crd, tok::val(cell.iter().fold(0.0, |acc, &(_, v)| acc + v)));
            prev = Some(key);
        }
        self.run.clear();
    }
}

/// A data pair, as [`Reduce::step`] reads it.
#[derive(Clone, Copy)]
enum Pair {
    /// The innermost coordinate (`0` for `N = 0`, which has none) and the
    /// value.
    Data(u32, f64),
    Skip,
    Stop(u8),
    Done,
}

/// A key's place in key order: its coordinates side by side, the outer
/// one high. A `u64` compares as fast as a key's coordinates can be.
#[inline(always)]
fn rank<const N: usize>(key: [u32; N]) -> u64 {
    key.iter().fold(0, |rank, &c| rank << 32 | u64::from(c))
}

/// The coordinate a payload carries; any other payload is misaligned.
#[inline(always)]
fn coordinate(p: Payload) -> Result<u32, Fault> {
    match p {
        Payload::Crd(c) => Ok(c),
        _ => Err(Fault::Misaligned),
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
        let [crd, val] = [0, 1].map(|k| pairs.iter().map(|p| p[k]).collect::<Vec<_>>());
        // A fault leaves no output, which no model's output equals.
        reduce([&crd], &val).unwrap_or_default().into_iter().map(|([c], v)| [c, v]).collect()
    }

    /// An inner fiber of an order-2 input: `(inner coordinate, value)`.
    type Inner = Vec<(u32, f64)>;

    /// Streams the matrix reducer's three inputs carry for `fibers`, a list
    /// of outer fibers of `(outer coordinate, inner fiber)`, and the rule's
    /// output over them.
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
        let [i, v] = [0, 1].map(|k| inner.iter().map(|p| p[k]).collect::<Vec<_>>());
        reduce([&outer, &i], &v).unwrap_or_default().into_iter().map(|([o, i], v)| [o, i, v]).collect()
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

    /// Runs the rule over stored streams as the fast backend's transfer
    /// function does: offered every input's head, a step takes one at
    /// least, and the run ends with every stream read to its done token.
    fn reduce<const N: usize>(
        crd: [&[SimToken]; N],
        val: &[SimToken],
    ) -> Result<Vec<([SimToken; N], SimToken)>, Fault> {
        let (mut rule, mut out, mut at, mut next) = (Reduce::<N>::default(), Vec::new(), [0; N], 0usize);
        while val.get(next.wrapping_sub(1)).is_none_or(|t| !t.is_done()) {
            let heads = std::array::from_fn(|k| crd[k].get(at[k]).copied());
            let took = rule.step(heads, val.get(next).copied(), |c, v| out.push((c, v)))?;
            assert!(took.val || took.crd.contains(&true), "a step over stored streams takes a head");
            (0..N).for_each(|k| at[k] += usize::from(took.crd[k]));
            next += usize::from(took.val);
        }
        assert_eq!(at, crd.map(<[_]>::len), "every coordinate stream is read to its end");
        Ok(out)
    }

    /// A token row as compared here: values by their bits.
    fn rows<const N: usize>(out: &[([SimToken; N], SimToken)]) -> Vec<Vec<String>> {
        out.iter().map(|(c, v)| c.iter().chain([v]).map(key).collect()).collect()
    }

    /// The reducer of order `N` as a per-cell accumulator: a tree that each
    /// value of `val` is added into as it arrives, under its key in `keys`,
    /// emitted at each stop of level `m ≥ N` and, for `N ≥ 1`, at done.
    fn model<const N: usize>(val: &[SimToken], keys: &[Option<[u32; N]>]) -> Vec<([SimToken; N], SimToken)> {
        let (mut acc, mut out) = (BTreeMap::new(), Vec::new());
        let flush = |acc: &mut BTreeMap<[u32; N], f64>, out: &mut Vec<_>| {
            if N == 0 {
                acc.entry([0; N]).or_insert(0.0);
            }
            let cells: Vec<_> = std::mem::take(acc).into_iter().collect();
            for (j, &(key, v)) in cells.iter().enumerate() {
                // For `N = 2`: whether the cell is the first of its outer
                // coordinate's fiber.
                let first = j == 0 || cells[j - 1].0.first() != key.first();
                if N == 2 && j > 0 && first {
                    out.push((std::array::from_fn(|k| [tok::empty(), tok::stop(0)][k]), tok::stop(0)));
                }
                let crd = std::array::from_fn(|k| {
                    if N == 2 && k == 0 && !first {
                        tok::empty()
                    } else {
                        tok::crd(key[k])
                    }
                });
                out.push((crd, tok::val(v)));
            }
        };
        for (&t, key) in val.iter().zip(keys) {
            match t {
                Token::Val(Payload::Val(v)) => *acc.entry(key.unwrap_or([u32::MAX; N])).or_insert(0.0) += v,
                Token::Stop(m) if usize::from(m) >= N => {
                    flush(&mut acc, &mut out);
                    if m > 0 {
                        out.push((
                            std::array::from_fn(|k| tok::stop(m + k as u8 - N as u8)),
                            tok::stop(m - 1),
                        ));
                    }
                }
                Token::Done => {
                    if N > 0 {
                        flush(&mut acc, &mut out);
                    }
                    out.push(([tok::done(); N], tok::done()));
                }
                _ => {}
            }
        }
        out
    }

    /// A random input of the reducer of order `N`: the streams of a
    /// fibertree of `above` levels over the reduced level and `N` under it,
    /// the last holding the values.
    struct Input<const N: usize> {
        /// The `N` lowest levels' coordinate streams, outer first.
        crd: Vec<Vec<SimToken>>,
        val: Vec<SimToken>,
        /// Each value's key — its coordinates on the `N` lowest levels —
        /// beside the value stream.
        keys: Vec<Option<[u32; N]>>,
    }

    /// The fibertree of an [`Input`], as it is generated: a stream per
    /// level.
    struct Tree<const N: usize> {
        levels: Vec<Vec<SimToken>>,
        above: usize,
        /// The bottom level's values and keys, in order.
        cells: Vec<(f64, [u32; N])>,
        path: Vec<u32>,
    }

    impl<const N: usize> Tree<N> {
        fn input(rng: &mut Lcg, above: usize) -> Input<N> {
            let levels = vec![Vec::new(); above + 1 + N];
            let mut tree = Tree { levels, above, cells: Vec::new(), path: Vec::new() };
            tree.fiber(rng, 0);
            tree.levels.iter_mut().for_each(|s| s.push(tok::done()));
            let Tree { mut levels, cells, .. } = tree;
            let mut cells = cells.into_iter();
            let (val, keys) = levels[levels.len() - 1]
                .iter()
                .map(|t| match t {
                    Token::Val(_) => cells.next().map_or((*t, None), |(v, key)| (tok::val(v), Some(key))),
                    _ => (*t, None),
                })
                .unzip();
            levels.drain(..levels.len() - N);
            Input { crd: levels, val, keys }
        }

        /// A fiber at depth `d`: 0–3 entries, or [`Lcg::wide`] on the
        /// reduced level; a bottom entry is now and then preceded by an
        /// `Empty`. Coordinates ascend in a fiber and, under the reduced
        /// level, repeat from one fiber to the next.
        fn fiber(&mut self, rng: &mut Lcg, d: usize) {
            let bottom = d + 1 == self.levels.len();
            let entries = if d == self.above { rng.wide() } else { rng.next(4) };
            let mut c = 0;
            for _ in 0..entries {
                c += if d > self.above { rng.next(3) } else { 1 + rng.next(3) };
                self.levels[d].push(tok::crd(c));
                self.path.push(c);
                if bottom {
                    if rng.next(10) == 0 {
                        let at = self.levels[d].len() - 1;
                        self.levels[d].insert(at, tok::empty());
                    }
                    let key = std::array::from_fn(|k| self.path[self.path.len() - N + k]);
                    self.cells.push((rng.value(), key));
                } else {
                    self.fiber(rng, d + 1);
                }
                self.path.pop();
                c += 1;
            }
            // The fiber's stop, which on every level below closes the last
            // fiber under it or, if it has none, stands alone.
            self.levels[d].push(tok::stop(0));
            for (l, level) in self.levels.iter_mut().enumerate().skip(d + 1) {
                let stop = tok::stop((l - d) as u8);
                match level.last_mut() {
                    Some(last) if entries > 0 => *last = stop,
                    _ => level.push(stop),
                }
            }
        }
    }

    /// The reducer of order `N` against the per-cell model, over
    /// reductions under 0–2 outer levels, so that a flush is closed by a
    /// stop above `N`: one generator for every order.
    fn reduces_as_a_per_cell_accumulator<const N: usize>(seed: u64) -> Result<(), Fault> {
        let mut rng = Lcg(seed);
        let (mut repeated, mut under_outer, mut empty) = (0, 0, 0);
        for round in 0..1500 {
            let Input { crd, val, keys } = Tree::<N>::input(&mut rng, round % 3);
            let want = model(&val, &keys);
            let got = reduce::<N>(std::array::from_fn(|k| &crd[k][..]), &val)?;
            assert_eq!(rows(&got), rows(&want), "order {N}: {crd:?} {val:?}");
            let data =
                |out: &[([SimToken; N], SimToken)]| out.iter().filter(|(_, v)| v.value().is_some()).count();
            repeated += keys.iter().flatten().count().saturating_sub(data(&want));
            under_outer += val.iter().filter(|t| t.stop_level().is_some_and(|m| usize::from(m) > N)).count();
            empty += want.iter().filter(|(_, v)| *v == tok::val(0.0)).count();
        }
        assert!(repeated > 1000, "order {N}: keys must repeat within a reduced fiber: {repeated}");
        assert!(under_outer > 1000, "order {N}: reductions must sit under outer fibers: {under_outer}");
        assert!(N > 0 || empty > 200, "order 0: empty fibers must sum to an explicit zero: {empty}");
        Ok(())
    }

    #[test]
    fn the_scalar_reducer_sums_as_a_per_cell_accumulator() -> Result<(), Fault> {
        reduces_as_a_per_cell_accumulator::<0>(46)
    }

    #[test]
    fn the_vector_reducer_sums_as_a_per_cell_accumulator() -> Result<(), Fault> {
        reduces_as_a_per_cell_accumulator::<1>(47)
    }

    #[test]
    fn the_matrix_reducer_sums_as_a_per_cell_accumulator() -> Result<(), Fault> {
        reduces_as_a_per_cell_accumulator::<2>(48)
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
