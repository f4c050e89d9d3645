//! Per-primitive transfer functions over whole stored streams.
//!
//! Every function here consumes its input streams strictly left to right
//! (with at most one token of lookahead) and appends to its output streams
//! strictly in order. The fast backend's walk (`crate::fast`) drives them,
//! one call per node, with what the node's plan record resolved (its
//! storage level, values, constant or ALU operation, each tensor read at
//! its binding's position): an input is a [`SliceSource`], a cursor over a
//! finished `Vec<SimToken>` whose `None` means the stream ended, and an
//! output is a plain `Vec<SimToken>`.
//!
//! Every primitive has no code here but its loop: each calls its token rule
//! in [`sam_primitives::rule`], the one its cycle block calls too. The
//! intersecter and the unioner are one merge walk (`run_merge`) over
//! [`rule::merge`], reading each operand a fiber at a time — a fused
//! scanner ([`crate::plan::FusedScan`], never stored, only tallied) through
//! a `FiberReader`, which calls the scanner's stop rule, stored streams
//! through a `StoredReader`, which cuts them at their stops — and merging
//! each pair over a [`FiberView`] per side: the storage of a `Compressed` or
//! `Dense` level, any other level's fiber copied out, or the stored slices.
//! The rule decides every pair of heads and makes every token; the walk
//! decides only how far a trailing side moves: one position, a gallop, or a
//! probe of the index of a long fiber one side re-delivers ([`Locate`]).
//! `run_scanner` drains whole fibers through the same `FiberReader`. The
//! reducer of every order is one loop, `run_reducer::<N>`, over
//! [`Reduce<N>`](rule::Reduce): it offers the rule every stream's head and
//! advances the streams whose heads it took. The array, constant, ALU,
//! locator, both writers and the repeater's coordinate side are one loop,
//! `lockstep::<I, O>`, the stored form of the cycle blocks' one timing
//! ([`sam_primitives::Lockstep`]): a token of every input per step.
//!
//! A merger pushes its output one position at a time into a [`Region`]:
//! its fusion region, which stores the streams read outside it and runs
//! its members over the positions. A transfer function reports a [`Fault`]
//! without naming the node; the walk names it when it turns the fault into
//! an [`ExecError`].

use crate::bind::Inputs;
use crate::fast::Spares;
use crate::plan::Transfer;
use sam_primitives::root_stream;
use sam_primitives::rule::{self, AluOp, CoordDrop, Merge, Reduce, Scan};
use sam_sim::payload::{tok, Payload};
use sam_sim::{Fault, SimToken};
use sam_streams::Token;
use sam_tensor::level::{CompressedLevel, DenseLevel, FiberEntry, Level};
use sam_trace::TokenCounts;
use std::borrow::Cow;

/// A cursor over a finished, stored stream: the reading half of a node's
/// input.
#[derive(Clone)]
pub(crate) struct SliceSource<'a> {
    tokens: &'a [SimToken],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    pub(crate) fn new(tokens: &'a [SimToken]) -> Self {
        SliceSource { tokens, pos: 0 }
    }

    /// The next token, or `None` when the stream ends (producer finished or
    /// failed without a done token).
    fn next(&mut self) -> Option<SimToken> {
        let t = self.tokens.get(self.pos).copied();
        self.pos += 1;
        t
    }

    /// The next token without consuming it.
    fn peek(&self) -> Option<SimToken> {
        self.peek_nth(0)
    }

    /// The token `n` after the next one, without consuming anything.
    fn peek_nth(&self, n: usize) -> Option<SimToken> {
        self.tokens.get(self.pos + n).copied()
    }
}

/// Runs node `op` over its input sources, pushing to its output sinks,
/// reading the tensors it names by position in `inputs`. A writer writes
/// into arrays taken from `spares` and sets its output level in `levels`,
/// or the output values in `vals`.
pub(crate) fn eval_node(
    op: &Transfer,
    inputs: &Inputs,
    srcs: &mut [SliceSource<'_>],
    outs: &mut [Vec<SimToken>],
    spares: &mut Spares,
    levels: &mut [Option<CompressedLevel>],
    vals: &mut Option<Vec<f64>>,
) -> Result<(), Fault> {
    match *op {
        Transfer::Root => {
            outs[0].extend(root_stream());
        }
        Transfer::Scan { tensor, level, .. } => {
            let [crd, rf] = ports(outs)?;
            run_scanner(inputs.at(tensor).level(level), srcs[0].clone(), crd, rf)?;
        }
        Transfer::Repeat => {
            let [crd_in, ref_in] = ports(srcs)?;
            let mut rule = rule::Repeat::default();
            lockstep(std::slice::from_mut(crd_in), outs, |[t]| Ok([repeat(&mut rule, ref_in, t)?]))?;
        }
        Transfer::Locate { tensor, level, .. } => {
            let level = inputs.at(tensor).level(level);
            lockstep(srcs, outs, |[c, r]| rule::locate(level, c, r))?;
        }
        Transfer::Array { tensor } => {
            let vals = inputs.at(tensor).vals();
            lockstep(srcs, outs, |[t]| Ok([rule::load(vals, t)?]))?;
        }
        Transfer::Const { value } => {
            lockstep(srcs, outs, |[t]| Ok([rule::constant(value, t)]))?;
        }
        Transfer::Alu { op } => {
            lockstep(srcs, outs, |[x, y]| Ok([rule::alu(op, x, y)?]))?;
        }
        Transfer::Reduce { order } => match order {
            0 => run_reducer::<0>(srcs, outs)?,
            1 => run_reducer::<1>(srcs, outs)?,
            _ => run_reducer::<2>(srcs, outs)?,
        },
        Transfer::Drop => {
            let [outer, inner] = ports(srcs)?;
            run_dropper(outer, inner, outs)?;
        }
        Transfer::WriteVals => {
            let mut write = spares.val_writer();
            lockstep(srcs, outs, |[t]| write.step(t).map(|()| []))?;
            *vals = Some(write.finish());
        }
        Transfer::WriteLevel { dim, output, .. } => {
            let mut write = spares.level_writer(dim);
            lockstep(srcs, outs, |[t]| write.step(t).map(|()| []))?;
            // A level writer of another tensor than the values writer's
            // writes no level of the output.
            if let Some(level) = output {
                levels[level] = Some(write.finish());
            }
        }
    }
    Ok(())
}

/// A node's `N` ports, or misaligned when it has another number.
fn ports<T, const N: usize>(ports: &mut [T]) -> Result<&mut [T; N], Fault> {
    ports.try_into().map_err(|_| Fault::Misaligned)
}

/// One item of a merger operand, or of a level scanner's input: a fiber and
/// the stop that follows it on the output streams, or the end of the stream.
enum FiberItem<F> {
    /// The fiber's entries, then `stop(stop)`.
    Fiber { fiber: F, stop: u8 },
    /// The done token.
    Done,
}

/// A level scanner's input side: [`rule::scan`] and [`rule::closing_stop`]
/// (Definition 3.1, Section 3.3) over the scanner's reference input, one
/// [`FiberItem`] per reference. A `Val` reference is fiber `Some(f)` and an
/// `Empty` one `None`, each closed by `stop(n + 1)` when a lookahead
/// `Stop(n)` closes outer fibers at the same point, else by `stop(0)`; a
/// bare `Stop(n)` is `None` closed by `stop(n + 1)`. It tallies what a
/// standalone scanner emits for the item on its two output streams — `n`
/// coordinate and `n` reference tokens for a fiber of `n` entries, two
/// stops per item, two done tokens — whether or not anybody materializes
/// them. `run_scanner` and the merge walk both read through it.
pub(crate) struct FiberReader<'a> {
    level: &'a Level,
    input: SliceSource<'a>,
    /// Tokens the scanner emits for the items read so far, by class.
    emitted: TokenCounts,
}

impl<'a> FiberReader<'a> {
    /// A scanner over `level`, reading fiber references from `input` (the
    /// scanner node's reference input stream).
    pub(crate) fn new(level: &'a Level, input: SliceSource<'a>) -> Self {
        FiberReader { level, input, emitted: TokenCounts::default() }
    }

    /// The next item, or the rule's fault. An input that ends without a
    /// done token is misaligned.
    fn next(&mut self) -> Result<FiberItem<Option<usize>>, Fault> {
        let token = self.input.next().ok_or(Fault::Misaligned)?;
        let (fiber, stop) = match rule::scan(self.level, token)? {
            Scan::Fiber(fiber) => {
                if let Some(f) = fiber {
                    let len = self.level.fiber_len(f) as u64;
                    self.emitted.crd += len;
                    self.emitted.refs += len;
                }
                match self.input.peek().and_then(rule::closing_stop) {
                    Some(stop) => {
                        self.input.next();
                        (fiber, stop)
                    }
                    None => (fiber, 0),
                }
            }
            Scan::Stop(stop) => (None, stop),
            Scan::Done => {
                self.emitted.done += 2;
                return Ok(FiberItem::Done);
            }
        };
        self.emitted.stop += 2;
        Ok(FiberItem::Fiber { fiber, stop })
    }

    /// The reader with its fibers copied out of the level: for a `Bitvector`
    /// level, and for any level beside a stored operand.
    fn any(&mut self) -> (&mut Self, impl Fn(Option<usize>) -> Vec<FiberEntry> + 'a) {
        let level = self.level;
        (self, move |fiber| fiber.map_or_else(Vec::new, |f| level.fiber(f)))
    }
}

/// Level scanner transfer function: every fiber the input references,
/// drained whole into the node's two output streams, then its stop.
fn run_scanner(
    level: &Level,
    input: SliceSource<'_>,
    crd: &mut Vec<SimToken>,
    rf: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut items = FiberReader::new(level, input);
    loop {
        let stop = match items.next()? {
            FiberItem::Fiber { fiber, stop } => {
                match level {
                    Level::Compressed(l) => drain(CompressedFiber::new(l, fiber), crd, rf),
                    Level::Dense(l) => drain(DenseFiber::new(l, fiber), crd, rf),
                    Level::Bitvector(_) => drain(fiber.map_or_else(Vec::new, |f| level.fiber(f)), crd, rf),
                }
                stop
            }
            FiberItem::Done => {
                crd.push(tok::done());
                rf.push(tok::done());
                return Ok(());
            }
        };
        crd.push(tok::stop(stop));
        rf.push(tok::stop(stop));
    }
}

/// Pushes every entry of `fiber` to the scanner's two output streams.
fn drain<V: FiberView>(fiber: V, crd: &mut Vec<SimToken>, rf: &mut Vec<SimToken>) {
    crd.extend((0..fiber.len()).map(|pos| tok::crd(fiber.coord(pos))));
    rf.extend((0..fiber.len()).map(|pos| fiber.child(pos)));
}

/// The stored form of the lockstep timing
/// ([`sam_primitives::Lockstep`]): `step` — the rule of an array, a
/// constant, an ALU, a locator, a writer or a repeater's coordinate side —
/// over `I` aligned stored streams, a token of each at a time, up to and
/// including their done tokens, each call's `O` tokens pushed onto `outs`.
/// Ports of another number, or a stream that ends first, are misaligned.
/// Out of line: inlined into `eval_node`, the loop read MMAdd 10 % slower.
#[inline(never)]
fn lockstep<const I: usize, const O: usize>(
    srcs: &mut [SliceSource<'_>],
    outs: &mut [Vec<SimToken>],
    mut step: impl FnMut([SimToken; I]) -> Result<[SimToken; O], Fault>,
) -> Result<(), Fault> {
    let (srcs, outs) = (ports::<_, I>(srcs)?, ports::<_, O>(outs)?);
    loop {
        let mut heads = [tok::done(); I];
        for (head, src) in heads.iter_mut().zip(srcs.iter_mut()) {
            *head = src.next().ok_or(Fault::Misaligned)?;
        }
        for (out, t) in outs.iter_mut().zip(step(heads)?) {
            out.push(t);
        }
        if heads.iter().all(SimToken::is_done) {
            return Ok(());
        }
    }
}

/// The repeater's output token for coordinate token `t`: [`rule::Repeat`],
/// fed the references of `refs` as it asks for them. A reference stream
/// that ends without a done token is misaligned.
#[inline(always)]
fn repeat(rule: &mut rule::Repeat, refs: &mut SliceSource<'_>, t: SimToken) -> Result<SimToken, Fault> {
    match rule.coordinate(t)? {
        Some(out) => Ok(out),
        None => repeat_next(rule, refs, t),
    }
}

/// [`repeat`] for the first data token of a fiber, or the done token, which
/// reads references until the rule answers: out of line, so that the
/// region's loop over the other tokens stays small.
#[inline(never)]
fn repeat_next(rule: &mut rule::Repeat, refs: &mut SliceSource<'_>, t: SimToken) -> Result<SimToken, Fault> {
    loop {
        rule.reference(refs.next().ok_or(Fault::Misaligned)?);
        if let Some(out) = rule.coordinate(t)? {
            return Ok(out);
        }
    }
}

/// One fiber of a merger operand as the merge reads it: entries at
/// positions `0..len()`, coordinates increasing. A missing fiber (an
/// `Empty` reference, a bare stop) is a view of no entries.
trait FiberView {
    /// Number of entries.
    fn len(&self) -> usize;
    /// The coordinate of entry `pos`.
    fn coord(&self, pos: usize) -> u32;
    /// The reference token of entry `pos`.
    fn child(&self, pos: usize) -> SimToken;
    /// The first position at or after `from` whose coordinate is at least
    /// `target`, or `len()`.
    fn gallop(&self, from: usize, target: u32) -> usize;
}

/// A compressed fiber: its slice `crd[seg[f]..seg[f + 1]]` of the
/// coordinate array; an entry's child is its position in the whole array.
#[derive(Clone, Copy)]
struct CompressedFiber<'a> {
    crd: &'a [u32],
    base: usize,
}

impl<'a> CompressedFiber<'a> {
    fn new(level: &'a CompressedLevel, fiber: Option<usize>) -> Self {
        let (base, end) = fiber.map_or((0, 0), |f| (level.seg[f], level.seg[f + 1]));
        CompressedFiber { crd: &level.crd[base..end], base }
    }

    /// Where the fiber starts and how long it is: equal for two views of the
    /// same level exactly when they hold the same entries.
    fn key(&self) -> (usize, usize) {
        (self.base, self.crd.len())
    }
}

impl FiberView for CompressedFiber<'_> {
    fn len(&self) -> usize {
        self.crd.len()
    }

    fn coord(&self, pos: usize) -> u32 {
        self.crd[pos]
    }

    fn child(&self, pos: usize) -> SimToken {
        tok::rf((self.base + pos) as u32)
    }

    fn gallop(&self, from: usize, target: u32) -> usize {
        from + self.crd[from..].partition_point(|&c| c < target)
    }
}

/// A dense fiber: every coordinate of `0..size` at the position equal to
/// it; fiber `f`'s child of coordinate `c` is `f·size + c`.
struct DenseFiber {
    size: usize,
    base: usize,
}

impl DenseFiber {
    fn new(level: &DenseLevel, fiber: Option<usize>) -> Self {
        let (size, base) = fiber.map_or((0, 0), |f| (level.size, f * level.size));
        DenseFiber { size, base }
    }
}

impl FiberView for DenseFiber {
    fn len(&self) -> usize {
        self.size
    }

    fn coord(&self, pos: usize) -> u32 {
        pos as u32
    }

    fn child(&self, pos: usize) -> SimToken {
        tok::rf((self.base + pos) as u32)
    }

    fn gallop(&self, from: usize, target: u32) -> usize {
        (target as usize).clamp(from, self.size)
    }
}

/// A fiber of any level, copied out of it ([`Level::fiber`]).
impl FiberView for Vec<FiberEntry> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn coord(&self, pos: usize) -> u32 {
        self[pos].coord
    }

    fn child(&self, pos: usize) -> SimToken {
        tok::rf(self[pos].child as u32)
    }

    fn gallop(&self, from: usize, target: u32) -> usize {
        from + self[from..].partition_point(|e| e.coord < target)
    }
}

/// A fiber of a stored operand: the aligned slices of its coordinate and
/// reference streams, copied without their `Empty` positions when it has
/// some.
struct StoredFiber<'a> {
    crd: Cow<'a, [SimToken]>,
    rf: Cow<'a, [SimToken]>,
}

impl FiberView for StoredFiber<'_> {
    fn len(&self) -> usize {
        self.crd.len()
    }

    fn coord(&self, pos: usize) -> u32 {
        coord_of(&self.crd[pos])
    }

    fn child(&self, pos: usize) -> SimToken {
        self.rf[pos]
    }

    fn gallop(&self, from: usize, target: u32) -> usize {
        from + self.crd[from..].partition_point(|t| coord_of(t) < target)
    }
}

/// The coordinate of a token in a [`StoredFiber`], which [`StoredReader`]
/// lets only coordinates into.
fn coord_of(t: &SimToken) -> u32 {
    match t {
        Token::Val(Payload::Crd(c)) => *c,
        _ => u32::MAX,
    }
}

/// A merger operand read a fiber at a time.
trait Fibers {
    type Fiber: FiberView;
    /// The next fiber and the stop that closes it, or the end.
    fn next_fiber(&mut self) -> Result<FiberItem<Self::Fiber>, Fault>;
}

/// A fused scanner's reader with the view its level's fibers open as.
impl<V: FiberView, F: Fn(Option<usize>) -> V> Fibers for (&mut FiberReader<'_>, F) {
    type Fiber = V;

    #[inline]
    fn next_fiber(&mut self) -> Result<FiberItem<V>, Fault> {
        Ok(match self.0.next()? {
            FiberItem::Fiber { fiber, stop } => FiberItem::Fiber { fiber: (self.1)(fiber), stop },
            FiberItem::Done => FiberItem::Done,
        })
    }
}

/// A stored operand's `(crd, ref)` streams, cut at each stop into one
/// fiber. An `Empty` coordinate (a locator's miss) is skipped with its
/// reference, on its own side, as the cycle-level mergers skip it.
pub(crate) struct StoredReader<'a> {
    crd: &'a [SimToken],
    rf: &'a [SimToken],
    pos: usize,
}

impl<'a> StoredReader<'a> {
    pub(crate) fn new(crd: &'a [SimToken], rf: &'a [SimToken]) -> Self {
        StoredReader { crd, rf, pos: 0 }
    }
}

impl<'a> Fibers for StoredReader<'a> {
    type Fiber = StoredFiber<'a>;

    /// The entries up to the next stop and that stop, or the done token. A
    /// coordinate stream that ends without one, carries a non-coordinate
    /// payload or data right before its done token, or a reference stream
    /// shorter than it, is misaligned.
    fn next_fiber(&mut self) -> Result<FiberItem<StoredFiber<'a>>, Fault> {
        let (start, mut end, mut empties) = (self.pos, self.pos, false);
        let stop = loop {
            match self.crd.get(end) {
                Some(Token::Val(Payload::Crd(_))) => {}
                Some(Token::Empty) => empties = true,
                Some(&Token::Stop(n)) => break Some(n),
                Some(Token::Done) if end == start => break None,
                _ => return Err(Fault::Misaligned),
            }
            end += 1;
        };
        // The reference stream advances in lockstep, through the stop.
        let rf = &self.rf.get(start..=end).ok_or(Fault::Misaligned)?[..end - start];
        let crd = &self.crd[start..end];
        self.pos = end + 1;
        let Some(stop) = stop else { return Ok(FiberItem::Done) };
        let kept = |s: &'a [SimToken]| -> Cow<'a, [SimToken]> {
            if empties {
                s.iter().zip(crd).filter(|(_, c)| !c.is_empty_token()).map(|(&t, _)| t).collect()
            } else {
                Cow::Borrowed(s)
            }
        };
        Ok(FiberItem::Fiber { fiber: StoredFiber { crd: kept(crd), rf: kept(rf) }, stop })
    }
}

/// One operand of a merger.
pub(crate) enum Operand<'a> {
    /// The operand's scanner, fused: its level, read through the scanner's
    /// input.
    Scan(FiberReader<'a>),
    /// Stored streams, which somebody else reads too.
    Stored(StoredReader<'a>),
}

impl Operand<'_> {
    /// What a fused scanner emitted or skipped; `None` for stored streams,
    /// whose tokens were counted when their producer ran.
    pub(crate) fn emitted(&self) -> Option<TokenCounts> {
        match self {
            Operand::Scan(reader) => Some(reader.emitted),
            Operand::Stored(_) => None,
        }
    }
}

/// How many positions a fusion region buffers before its members run, at
/// most: a block of every register fits in the first-level cache.
const BLOCK: usize = 128;
/// How many positions a region's first block holds. The registers double
/// after each full block up to [`BLOCK`], so a walk that pushes a few
/// positions never fills a register file it does not use.
const FIRST_BLOCK: usize = 8;
/// How a fusion-region member computes its tokens, and the registers it
/// reads: 0–2 hold the root's coordinate and two reference tokens, `3 + k`
/// the tokens member `k` computed.
pub(crate) enum Step<'a> {
    /// An array in load mode over its values.
    Array { vals: &'a [f64], input: usize },
    /// A constant source.
    Const { value: f64, input: usize },
    /// An ALU.
    Alu { op: AluOp, a: usize, b: usize },
    /// A repeater: its coordinate input is a register, its reference
    /// input a stored stream.
    Repeat { rule: rule::Repeat, refs: SliceSource<'a>, crd: usize },
    /// A scalar reducer (order 0). It emits zero to two tokens a position,
    /// so no member reads it.
    Reduce { reduce: Reduce<0>, input: usize },
}

/// `steps`, emptied, as a list of steps over another lifetime, in the same
/// allocation: collecting a `Vec`'s own iterator into a `Vec` whose element
/// has the same layout reuses the buffer. A region's step list borrows the
/// run's inputs; its allocation outlives the run.
pub(crate) fn recycled<'b>(steps: Vec<Step<'_>>) -> Vec<Step<'b>> {
    steps.into_iter().map_while(|_| None).collect()
}

impl Step<'_> {
    /// Computes the member's tokens for the `n` positions of the block in
    /// `regs`, `width` tokens a register, in order, handing each to `write`
    /// with its position. The rules are `#[inline(always)]`: called out of
    /// line once a token, a repeater or an ALU costs a region most of what
    /// it saves.
    fn map(
        &mut self,
        regs: &[SimToken],
        width: usize,
        n: usize,
        mut write: impl FnMut(usize, SimToken),
    ) -> Result<(), Fault> {
        let block = |r: usize| regs[r * width..r * width + n].iter().enumerate();
        match self {
            Step::Array { vals, input } => {
                for (i, &t) in block(*input) {
                    write(i, rule::load(vals, t)?);
                }
            }
            Step::Const { value, input } => {
                for (i, &t) in block(*input) {
                    write(i, rule::constant(*value, t));
                }
            }
            Step::Alu { op, a, b } => {
                for ((i, &x), (_, &y)) in block(*a).zip(block(*b)) {
                    write(i, rule::alu(*op, x, y)?);
                }
            }
            Step::Repeat { rule, refs, crd } => {
                for (i, &t) in block(*crd) {
                    write(i, repeat(rule, refs, t)?);
                }
            }
            Step::Reduce { reduce, input } => {
                for (i, &t) in block(*input) {
                    reduce.step([], Some(t), |[], o| write(i, o))?;
                }
            }
        }
        Ok(())
    }
}

/// One output stream of a fusion region's node: counted, classified when
/// the run is traced, and stored only when somebody outside the region
/// reads it.
#[derive(Debug, Default)]
pub(crate) struct RegionPort {
    /// The stream, for a port read outside the region.
    pub(crate) stored: Option<Vec<SimToken>>,
    /// How many tokens the port carried.
    pub(crate) len: u64,
    /// The same tokens by class, when the region classifies them.
    pub(crate) tally: TokenCounts,
}

impl RegionPort {
    fn new(stored: bool, spares: &mut Spares) -> Self {
        RegionPort { stored: stored.then(|| spares.take()), ..RegionPort::default() }
    }

    /// Counts what the port carried since the last count: the stored
    /// stream's new tail, or else `block`, the register the tokens went to.
    fn count(&mut self, block: &[SimToken], classify: bool) {
        let RegionPort { stored, len, tally } = self;
        let fresh = match stored {
            Some(stream) => &stream[*len as usize..],
            None => block,
        };
        if classify {
            fresh.iter().for_each(|t| tally.record(t));
        }
        *len += fresh.len() as u64;
    }
}

/// Where a merger's walk sends its output, one position at a time — a
/// match's coordinate and the two operands' references, or one stop or done
/// on all three streams — with the merger's fusion region
/// ([`crate::plan::Plan::region_members`]), which may have no members. The
/// root's positions are buffered a block at a time; each member then
/// computes its block of tokens from its producers' blocks, in topological
/// order, with the same step function its stored transfer function loops
/// over. Every member but a reducer is one token in, one token out, so the
/// `i`-th token of every register belongs to the same position, as it
/// would in the stored streams. A stream that leaves the region is written
/// straight to its stored stream, every other one to its register only.
/// Every stream is counted, and classified when the run is traced, so each
/// node's counts are what storing it would have counted.
pub(crate) struct Region<'a> {
    classify: bool,
    root: [RegionPort; 3],
    steps: Vec<Step<'a>>,
    outs: Vec<RegionPort>,
    /// `width` tokens per register; a stored port's register goes unused,
    /// and a memberless region that stores all three root ports has none.
    regs: Vec<SimToken>,
    /// Positions the current block holds: [`FIRST_BLOCK`], doubled after
    /// each full block up to [`BLOCK`].
    width: usize,
    /// Positions buffered so far in the current block.
    filled: usize,
}

impl<'a> Region<'a> {
    /// A region with no members yet, storing the root ports marked in
    /// `root_stored` and classifying every token it counts if `classify`.
    /// Its stored streams and its registers are buffers from `spares`.
    pub(crate) fn new(root_stored: [bool; 3], classify: bool, spares: &mut Spares) -> Self {
        let mut region = Region {
            classify,
            root: root_stored.map(|stored| RegionPort::new(stored, spares)),
            steps: recycled(std::mem::take(&mut spares.steps)),
            outs: std::mem::take(&mut spares.ports),
            regs: Vec::new(),
            width: FIRST_BLOCK,
            filled: 0,
        };
        if root_stored != [true; 3] {
            region.registers(3, spares);
        }
        region
    }

    /// Sizes the register file for `registers` registers of the current
    /// width, in a buffer from `spares` if it has none yet.
    fn registers(&mut self, registers: usize, spares: &mut Spares) {
        if self.regs.capacity() == 0 {
            self.regs = spares.take();
        }
        self.regs.resize(registers * self.width, tok::done());
    }

    /// Appends a member, evaluated after every member appended before it;
    /// its tokens land in register `3 + k` for the `k`-th member. A
    /// reducer's output, which no member reads, is always stored.
    pub(crate) fn push_member(&mut self, step: Step<'a>, stored: bool, spares: &mut Spares) {
        let stored = stored || matches!(step, Step::Reduce { .. });
        self.steps.push(step);
        self.outs.push(RegionPort::new(stored, spares));
        self.registers(3 + self.steps.len(), spares);
    }

    /// The root's three ports and each member's output port, in the order
    /// the members were appended; the registers and the emptied step list
    /// go back to `spares`, and so should the port list once it is read.
    pub(crate) fn finish(self, spares: &mut Spares) -> ([RegionPort; 3], Vec<RegionPort>) {
        spares.give(self.regs);
        spares.steps = recycled(self.steps);
        (self.root, self.outs)
    }

    /// Takes the three tokens of one position. A member's fault ends the
    /// walk.
    #[inline]
    fn push(&mut self, position: [SimToken; 3]) -> Result<(), Fault> {
        let at = self.filled;
        for (k, t) in position.into_iter().enumerate() {
            // A root port is read either by one member or outside the
            // region only.
            match &mut self.root[k].stored {
                Some(stream) => stream.push(t),
                None => self.regs[k * self.width + at] = t,
            }
        }
        self.filled += 1;
        // The done position is the walk's last.
        if self.filled == self.width || position[0].is_done() {
            self.flush()?;
        }
        Ok(())
    }

    /// Runs every member over the buffered block, then widens the registers
    /// for the next one. Out of line, so that the walk's loop, which calls
    /// it once a block, stays small.
    #[inline(never)]
    fn flush(&mut self) -> Result<(), Fault> {
        let (n, width, classify) = (std::mem::take(&mut self.filled), self.width, self.classify);
        for (r, port) in self.root.iter_mut().enumerate() {
            port.count(self.regs.get(r * width..r * width + n).unwrap_or_default(), classify);
        }
        for (k, (step, port)) in self.steps.iter_mut().zip(&mut self.outs).enumerate() {
            let (ins, reg) = self.regs.split_at_mut((3 + k) * width);
            let reg = &mut reg[..n];
            match &mut port.stored {
                Some(stream) => step.map(ins, width, n, |_, t| stream.push(t))?,
                None => step.map(ins, width, n, |i, t| reg[i] = t)?,
            }
            port.count(reg, classify);
        }
        if n == width && width < BLOCK {
            // A full block: the walk goes on. Every register has been read,
            // so the wider file starts empty.
            self.width = 2 * width;
            self.regs.resize(self.regs.len() / width * self.width, tok::done());
        }
        Ok(())
    }
}

/// Merges fibers `a` and `b` as [`rule::merge`] says (Definitions 3.2 and
/// 3.3) until either ends, and returns where each side stopped. A coordinate
/// the rule drops below the other side's (the intersecter's mismatch)
/// gallops its side to that coordinate: every coordinate between drops too.
#[inline]
fn merge_fibers<const UNION: bool, A: FiberView, B: FiberView>(
    a: &A,
    b: &B,
    out: &mut Region<'_>,
) -> Result<[usize; 2], Fault> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match rule::merge::<UNION>([tok::crd(a.coord(i)), tok::crd(b.coord(j))], [a.child(i), b.child(j)])? {
            Merge::Both(position) => {
                out.push(position)?;
                (i, j) = (i + 1, j + 1);
            }
            Merge::Emit { side, out: position } => {
                out.push(position)?;
                (i, j) = if side == 0 { (i + 1, j) } else { (i, j + 1) };
            }
            Merge::Drop { side: 0, lead } => i = lead.map_or(i + 1, |lead| a.gallop(i + 1, lead)),
            Merge::Drop { lead, .. } => j = lead.map_or(j + 1, |lead| b.gallop(j + 1, lead)),
        }
    }
    Ok([i, j])
}

/// Entries `from..` of operand `SIDE`'s fiber against `partner`, the stop or
/// done after the other operand's entries, each as [`rule::merge`] says: the
/// unioner emits it, the intersecter drops it — and with it the rest of the
/// fiber, since the partner does not move. Inlined, so that the rule folds
/// on the partner's kind, which every caller knows.
#[inline(always)]
fn rest<const UNION: bool, const SIDE: usize, V: FiberView>(
    fiber: &V,
    from: usize,
    partner: SimToken,
    out: &mut Region<'_>,
) -> Result<(), Fault> {
    for pos in from..fiber.len() {
        let (mut crd, mut rf) = ([partner; 2], [partner; 2]);
        crd[SIDE] = tok::crd(fiber.coord(pos));
        rf[SIDE] = fiber.child(pos);
        match rule::merge::<UNION>(crd, rf)? {
            Merge::Both(position) | Merge::Emit { out: position, .. } => out.push(position)?,
            Merge::Drop { .. } => break,
        }
    }
    Ok(())
}

/// The merge walk. When both sides hold a fiber, `merge` ([`merge_fibers`],
/// or [`Locate::merge`]) merges them until either ends; the rest of each
/// fiber then meets the token after the other side's entries ([`rest`]),
/// and the two tokens after the entries meet each other as [`rule::merge`]
/// says: two stops close all three outputs with the higher level and open
/// the next pair, a stop against a done opens that side's next item, and
/// two dones end the walk. A fused scanner's reader tallies its own stream,
/// so the counts do not depend on what the other side held.
fn fiber_walk<const UNION: bool, A: Fibers, B: Fibers>(
    a: &mut A,
    b: &mut B,
    out: &mut Region<'_>,
    mut merge: impl FnMut(&A::Fiber, &B::Fiber, &mut Region<'_>) -> Result<[usize; 2], Fault>,
) -> Result<(), Fault> {
    let (mut ia, mut ib) = (a.next_fiber()?, b.next_fiber()?);
    loop {
        let ends = match (&ia, &ib) {
            (FiberItem::Fiber { fiber: fa, stop: sa }, FiberItem::Fiber { fiber: fb, stop: sb }) => {
                let ends = [tok::stop(*sa), tok::stop(*sb)];
                let [i, j] = merge(fa, fb, out)?;
                rest::<UNION, 0, _>(fa, i, ends[1], out)?;
                rest::<UNION, 1, _>(fb, j, ends[0], out)?;
                ends
            }
            (FiberItem::Fiber { fiber, stop }, FiberItem::Done) => {
                rest::<UNION, 0, _>(fiber, 0, tok::done(), out)?;
                [tok::stop(*stop), tok::done()]
            }
            (FiberItem::Done, FiberItem::Fiber { fiber, stop }) => {
                rest::<UNION, 1, _>(fiber, 0, tok::done(), out)?;
                [tok::done(), tok::stop(*stop)]
            }
            (FiberItem::Done, FiberItem::Done) => [tok::done(); 2],
        };
        let pop = match rule::merge::<UNION>(ends, ends)? {
            Merge::Both(position) => {
                out.push(position)?;
                [!position[0].is_done(); 2]
            }
            // Two control tokens never emit alone.
            Merge::Emit { side, .. } | Merge::Drop { side, .. } => [side == 0, side == 1],
        };
        if pop == [false; 2] {
            return Ok(());
        }
        if pop[0] {
            ia = a.next_fiber()?;
        }
        if pop[1] {
            ib = b.next_fiber()?;
        }
    }
}

/// Intersecter (Definition 3.2) or, if `UNION`, unioner (Definition 3.3)
/// transfer function: the merge walk over the two operands' fibers. Two
/// fused scanners over `Compressed` / `Dense` levels merge straight over
/// the levels' storage — an intersecter of two `Compressed` levels locating
/// into a fiber one side re-delivers ([`Locate`]) — and any other fused
/// level's fibers are copied out of it one at a time. Returns how many
/// fiber pairs were merged by locating.
pub(crate) fn run_merge<const UNION: bool>(
    a: &mut Operand<'_>,
    b: &mut Operand<'_>,
    out: &mut Region<'_>,
) -> Result<usize, Fault> {
    let mut located = 0;
    match (a, b) {
        (Operand::Scan(x), Operand::Scan(y)) => match (x.level, y.level) {
            (Level::Compressed(l), Level::Compressed(m)) => {
                let mut locate = Locate::new([l.dim, m.dim]);
                fiber_walk::<UNION, _, _>(
                    &mut (x, |f| CompressedFiber::new(l, f)),
                    &mut (y, |f| CompressedFiber::new(m, f)),
                    out,
                    |fa, fb, out| {
                        if UNION {
                            merge_fibers::<UNION, _, _>(fa, fb, out)
                        } else {
                            locate.merge(fa, fb, out)
                        }
                    },
                )?;
                located = locate.located;
            }
            (Level::Compressed(l), Level::Dense(m)) => fiber_walk::<UNION, _, _>(
                &mut (x, |f| CompressedFiber::new(l, f)),
                &mut (y, |f| DenseFiber::new(m, f)),
                out,
                merge_fibers::<UNION, _, _>,
            )?,
            (Level::Dense(l), Level::Compressed(m)) => fiber_walk::<UNION, _, _>(
                &mut (x, |f| DenseFiber::new(l, f)),
                &mut (y, |f| CompressedFiber::new(m, f)),
                out,
                merge_fibers::<UNION, _, _>,
            )?,
            (Level::Dense(l), Level::Dense(m)) => fiber_walk::<UNION, _, _>(
                &mut (x, |f| DenseFiber::new(l, f)),
                &mut (y, |f| DenseFiber::new(m, f)),
                out,
                merge_fibers::<UNION, _, _>,
            )?,
            _ => fiber_walk::<UNION, _, _>(&mut x.any(), &mut y.any(), out, merge_fibers::<UNION, _, _>)?,
        },
        (Operand::Scan(x), Operand::Stored(y)) => {
            fiber_walk::<UNION, _, _>(&mut x.any(), y, out, merge_fibers::<UNION, _, _>)?
        }
        (Operand::Stored(x), Operand::Scan(y)) => {
            fiber_walk::<UNION, _, _>(x, &mut y.any(), out, merge_fibers::<UNION, _, _>)?
        }
        (Operand::Stored(x), Operand::Stored(y)) => {
            fiber_walk::<UNION, _, _>(x, y, out, merge_fibers::<UNION, _, _>)?
        }
    }
    Ok(located)
}

/// The fewest entries a fiber must hold for the intersecter to index it.
/// Below it, building the index costs more than the merges it saves:
/// MTTKRP's `intersect(l: T,G)`, a `G(j,:)` of ~10 entries re-delivered
/// ~5.5 times, ran slower indexed.
const LOCATE_FLOOR: usize = 32;

/// Fused locating on the host (Figure 11) for an intersecter of two fused
/// `Compressed` operands. Where one side re-delivers the fiber it opened
/// for the previous pair — a repeater upstream hands its scanner the same
/// reference — that fiber's coordinates are indexed once, and each pair is
/// merged by walking the other fiber in order and probing the index: the
/// same matches in the same order as [`merge_fibers`], so the same tokens.
/// The rule: a side is located into when its fiber is no shorter than the
/// other side's and either is the fiber already indexed or repeats the
/// previous pair's and holds at least [`LOCATE_FLOOR`] entries.
struct Locate<'a> {
    /// Each side's level dimension, which sizes the index.
    dims: [usize; 2],
    /// Each side's fiber in the previous pair ([`CompressedFiber::key`]).
    last: [(usize, usize); 2],
    /// The indexed fiber and its side.
    held: Option<(usize, CompressedFiber<'a>)>,
    /// Coordinate → 1 + its position in the held fiber, 0 for a coordinate
    /// the fiber lacks. Allocated on the first repeat and, when the held
    /// fiber changes, cleared entry by entry.
    index: Vec<u32>,
    /// Pairs merged by probing.
    located: usize,
}

impl<'a> Locate<'a> {
    fn new(dims: [usize; 2]) -> Self {
        Locate { dims, last: [(0, 0); 2], held: None, index: Vec::new(), located: 0 }
    }

    /// Intersects `a` and `b`, by probing where the rule says so; returns
    /// where each side stopped, as [`merge_fibers`] does.
    #[inline]
    fn merge(
        &mut self,
        a: &CompressedFiber<'a>,
        b: &CompressedFiber<'a>,
        out: &mut Region<'_>,
    ) -> Result<[usize; 2], Fault> {
        let (pair, keys) = ([a, b], [a.key(), b.key()]);
        let held = self.held.map(|(side, fiber)| (side, fiber.key()));
        let side = (0..2).find(|&s| {
            let len = pair[s].len();
            len >= pair[1 - s].len()
                && (held == Some((s, keys[s])) || (keys[s] == self.last[s] && len >= LOCATE_FLOOR))
        });
        self.last = keys;
        let Some(side) = side else { return merge_fibers::<false, _, _>(a, b, out) };
        self.located += 1;
        self.hold(side, *pair[side]);
        if side == 0 {
            probe::<false>(&self.index, a, b, out)?;
        } else {
            probe::<true>(&self.index, b, a, out)?;
        }
        Ok([a.len(), b.len()])
    }

    /// Makes `fiber`, of operand `side`, the indexed one.
    fn hold(&mut self, side: usize, fiber: CompressedFiber<'a>) {
        if matches!(self.held, Some((s, held)) if s == side && held.key() == fiber.key()) {
            return;
        }
        if let Some((_, old)) = self.held {
            old.crd.iter().for_each(|&c| self.index[c as usize] = 0);
        }
        // A coordinate past the dimension still gets its slot.
        let need = fiber.crd.last().map_or(0, |&c| c as usize + 1).max(self.dims[side]);
        if self.index.len() < need {
            self.index.resize(need, 0);
        }
        for (pos, &c) in fiber.crd.iter().enumerate() {
            self.index[c as usize] = pos as u32 + 1;
        }
        self.held = Some((side, fiber));
    }
}

/// Intersects `held`, whose coordinates `index` holds, with `other` by
/// walking `other` in order and probing: each match is pushed as
/// [`rule::merge`] says for two equal coordinates, with the references in
/// operand order, `held`'s second if `SWAP`.
#[inline]
fn probe<const SWAP: bool>(
    index: &[u32],
    held: &CompressedFiber<'_>,
    other: &CompressedFiber<'_>,
    out: &mut Region<'_>,
) -> Result<(), Fault> {
    for (pos, &c) in other.crd.iter().enumerate() {
        let at = index.get(c as usize).copied().unwrap_or(0);
        if at > 0 {
            let (h, o) = (held.child(at as usize - 1), other.child(pos));
            let rf = if SWAP { [o, h] } else { [h, o] };
            if let Merge::Both(position) = rule::merge::<false>([tok::crd(c); 2], rf)? {
                out.push(position)?;
            }
        }
    }
    Ok(())
}

/// Reducer transfer function (Definition 3.7) of order `N`, over its `N`
/// coordinate streams and its value stream: [`Reduce`], offered every
/// stream's head, until it takes the value stream's done token. A step that
/// takes nothing waits for a token the finished streams never deliver.
fn run_reducer<const N: usize>(
    srcs: &mut [SliceSource<'_>],
    outs: &mut [Vec<SimToken>],
) -> Result<(), Fault> {
    let (Some((val_src, crd_srcs)), Some((val_out, crd_outs))) =
        (srcs.split_last_mut(), outs.split_last_mut())
    else {
        return Err(Fault::Misaligned);
    };
    let (crd_srcs, crd_outs) = (ports::<_, N>(crd_srcs)?, ports::<_, N>(crd_outs)?);
    let mut reduce = Reduce::<N>::default();
    loop {
        let val = val_src.peek();
        let took = reduce.step(std::array::from_fn(|k| crd_srcs[k].peek()), val, |crd, v| {
            for (out, t) in crd_outs.iter_mut().zip(crd) {
                out.push(t);
            }
            val_out.push(v);
        })?;
        for (src, took) in crd_srcs.iter_mut().zip(took.crd) {
            src.pos += usize::from(took);
        }
        if took.val {
            val_src.pos += 1;
            if val.is_some_and(|t| t.is_done()) {
                return Ok(());
            }
        } else if !took.crd.contains(&true) {
            return Err(Fault::Misaligned);
        }
    }
}

/// Coordinate dropper transfer function (Definition 3.9, Figure 8). An
/// inner stream that ends without a done token is misaligned.
fn run_dropper(
    outer: &mut SliceSource<'_>,
    inner: &mut SliceSource<'_>,
    outs: &mut [Vec<SimToken>],
) -> Result<(), Fault> {
    let mut drop = CoordDrop::default();
    let mut emit = |port: usize, t: SimToken| outs[port].push(t);
    while let Some(t) = inner.next() {
        match t {
            Token::Stop(level) => {
                let head = outer.peek().ok_or(Fault::Misaligned)?;
                for _ in 0..drop.close(level, head, outer.peek_nth(1), &mut emit) {
                    outer.next();
                }
            }
            Token::Done => {
                while let Some(o) = outer.next() {
                    if o.is_done() {
                        break;
                    }
                    drop.rest(o, &mut emit);
                }
                drop.finish(&mut emit);
                return Ok(());
            }
            _ => drop.data(t),
        }
    }
    Err(Fault::Misaligned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use sam_tensor::level::{BitvectorLevel, DenseLevel};
    use sam_tensor::{LevelFormat, Tensor, TensorFormat};

    const DIM: u32 = 2000;

    #[derive(Debug, Clone, Copy)]
    enum Format {
        Compressed,
        Dense,
        Bitvector,
    }

    /// A level of `format` holding `fibers`. A dense level stores every
    /// coordinate of every fiber whatever `fibers` lists.
    fn level_of(format: Format, word_width: u8, fibers: &[Vec<u32>]) -> Level {
        match format {
            Format::Compressed => {
                let mut level = CompressedLevel::builder(DIM as usize);
                for fiber in fibers {
                    fiber.iter().for_each(|&c| level.push_coord(c));
                    level.end_fiber();
                }
                Level::Compressed(level.finish())
            }
            Format::Dense => Level::Dense(DenseLevel::new(DIM as usize, fibers.len())),
            Format::Bitvector => {
                Level::Bitvector(BitvectorLevel::from_fibers(DIM as usize, word_width, fibers))
            }
        }
    }

    /// `n` distinct coordinates of `lo..hi` in increasing order (all of them
    /// when the range is shorter), by selection sampling.
    fn sample(rng: &mut StdRng, lo: u32, hi: u32, n: usize) -> Vec<u32> {
        let mut need = n.min((hi - lo) as usize);
        let mut picked = Vec::with_capacity(need);
        for c in lo..hi {
            if rng.gen_range(0..(hi - c) as usize) < need {
                picked.push(c);
                need -= 1;
            }
        }
        picked
    }

    /// One pair of fibers the intersecter will merge: a short side of 1–8
    /// coordinates against a long side `skew` times that, placed so the
    /// short side ends before, at or after the long side's last coordinate,
    /// or in a disjoint range; either side may be empty instead.
    fn fiber_pair(rng: &mut StdRng, empty_bias: f64) -> [Vec<u32>; 2] {
        let short_n = rng.gen_range(1usize..9);
        let long_n = short_n * [1, 2, 10, 100, 2000][rng.gen_range(0usize..5)];
        let half = DIM / 2;
        let (mut short, mut long) = match rng.gen_range(0u32..5) {
            0 => (sample(rng, 0, DIM, short_n), sample(rng, 0, DIM, long_n)),
            1 => (sample(rng, 0, half, short_n), sample(rng, half, DIM, long_n)),
            2 => (sample(rng, half, DIM, short_n), sample(rng, 0, half, long_n)),
            3 => (sample(rng, 0, half, short_n), sample(rng, 0, DIM, long_n)),
            _ => {
                // Both sides end on the same, matching, coordinate.
                let (mut s, mut l) = (sample(rng, 0, half, short_n), sample(rng, 0, half, long_n));
                let last = rng.gen_range(half..DIM);
                s.push(last);
                l.push(last);
                (s, l)
            }
        };
        if rng.gen::<f64>() < empty_bias {
            short.clear();
        }
        if rng.gen::<f64>() < empty_bias / 2.0 {
            long.clear();
        }
        if rng.gen::<f64>() < 0.5 {
            [short, long]
        } else {
            [long, short]
        }
    }

    /// Both operands of one random intersection: a level each, and the
    /// two-level reference streams that drive their scanners through the
    /// same fiber pairs in the same nesting.
    struct Case {
        levels: [Level; 2],
        refs: [Vec<SimToken>; 2],
    }

    fn case(rng: &mut StdRng, formats: [Format; 2]) -> Case {
        let empty_bias = [0.0, 0.15, 0.6][rng.gen_range(0usize..3)];
        // In half the cases a repeater upstream hands one side the same
        // reference for 2–8 slots running, against a new fiber on the other
        // side each time (MTTKRP's `intersect(k: T,F)`). Half the
        // repeated fibers are long enough for the walk to locate into them.
        // A run is broken now and then by an `Empty` reference, or by an
        // empty inner fiber's bare stop; after a run, the side sometimes
        // returns to one of its earlier fibers.
        let repeats = rng.gen::<f64>() < 0.5;
        // The reference streams' shape: outer fibers of inner fibers of
        // slots, each slot one fiber pair. Either list may be empty. A
        // repeated reference runs through longer inner fibers.
        let most_slots = if repeats { 6 } else { 4 };
        let shape: Vec<Vec<usize>> = (0..rng.gen_range(0usize..4))
            .map(|_| (0..rng.gen_range(0usize..4)).map(|_| rng.gen_range(0..most_slots)).collect())
            .collect();
        let slots: usize = shape.iter().flatten().sum();
        // Each operand's distinct fibers, and which of them each slot reads.
        let mut fibers = [Vec::with_capacity(slots), Vec::with_capacity(slots)];
        let mut reads = [Vec::with_capacity(slots), Vec::with_capacity(slots)];
        // The repeated side and how many more slots read its last fiber.
        let mut run = (0, 0);
        for _ in 0..slots {
            for (o, fiber) in fiber_pair(rng, empty_bias).into_iter().enumerate() {
                let read = match reads[o].last() {
                    Some(&last) if o == run.0 && run.1 > 0 => last,
                    Some(_) if repeats && o == run.0 && rng.gen::<f64>() < 0.3 => {
                        rng.gen_range(0..fibers[o].len())
                    }
                    _ => {
                        fibers[o].push(fiber);
                        fibers[o].len() - 1
                    }
                };
                reads[o].push(read);
            }
            if run.1 > 0 {
                run.1 -= 1;
            } else if repeats {
                run = (rng.gen_range(0usize..2), rng.gen_range(1usize..8));
                if rng.gen::<f64>() < 0.5 {
                    let long = rng.gen_range(LOCATE_FLOOR..4 * LOCATE_FLOOR);
                    let last = reads[run.0][reads[run.0].len() - 1];
                    fibers[run.0][last] = sample(rng, 0, DIM, long);
                }
            }
        }
        // Now and then one operand is an entirely empty level.
        if rng.gen::<f64>() < 0.1 {
            fibers[rng.gen_range(0usize..2)].iter_mut().for_each(Vec::clear);
        }
        // Each operand stores its fibers in its own order.
        let orders = fibers.each_ref().map(|fibers| {
            let mut order: Vec<usize> = (0..fibers.len()).collect();
            order.shuffle(rng);
            order
        });
        let word_width = [8, 64][rng.gen_range(0usize..2)];
        let levels = [0, 1].map(|o| {
            let mut stored = vec![Vec::new(); fibers[o].len()];
            for (fiber, &at) in orders[o].iter().enumerate() {
                stored[at].clone_from(&fibers[o][fiber]);
            }
            level_of(formats[o], word_width, &stored)
        });
        let mut refs = [Vec::new(), Vec::new()];
        let mut slot = 0;
        for outer in &shape {
            for (i, &inner) in outer.iter().enumerate() {
                for _ in 0..inner {
                    // An upstream unioner hands one side an empty token
                    // where only the other side has the fiber.
                    let empties = if repeats { 0.1 } else { 0.05 };
                    let absent = if rng.gen::<f64>() < empties { rng.gen_range(0usize..2) } else { 2 };
                    for o in 0..2 {
                        refs[o].push(if o == absent {
                            tok::empty()
                        } else {
                            tok::rf(orders[o][reads[o][slot]] as u32)
                        });
                    }
                    slot += 1;
                }
                let level = u8::from(i + 1 == outer.len());
                refs.iter_mut().for_each(|r| r.push(tok::stop(level)));
            }
            if outer.is_empty() {
                refs.iter_mut().for_each(|r| r.push(tok::stop(1)));
            }
        }
        refs.iter_mut().for_each(|r| r.push(tok::done()));
        Case { levels, refs }
    }

    /// The `(crd, ref)` streams a standalone scanner stores. On an input
    /// that ends without a done token the scanner stores what came before
    /// and reports the misalignment.
    fn stored(level: &Level, refs: &[SimToken]) -> [Vec<SimToken>; 2] {
        let (mut crd, mut rf) = (Vec::new(), Vec::new());
        let drained = run_scanner(level, SliceSource::new(refs), &mut crd, &mut rf);
        let truncated = !matches!(refs.last(), Some(Token::Done));
        assert_eq!(drained, if truncated { Err(Fault::Misaligned) } else { Ok(()) });
        [crd, rf]
    }

    fn streams(stored: &[Vec<SimToken>; 2]) -> Operand<'_> {
        Operand::Stored(StoredReader::new(&stored[0], &stored[1]))
    }

    fn scan<'a>(level: &'a Level, refs: &'a [SimToken]) -> Operand<'a> {
        Operand::Scan(FiberReader::new(level, SliceSource::new(refs)))
    }

    type Outputs = [Vec<SimToken>; 3];

    /// The merger as the fast backend runs it, into a memberless region
    /// that stores all three streams (and so holds no registers).
    fn merge(union: bool, a: &mut Operand<'_>, b: &mut Operand<'_>) -> Result<Outputs, Fault> {
        Ok(merge_located(union, a, b)?.0)
    }

    /// [`merge`]'s streams, and how many fiber pairs the walk merged by
    /// locating.
    fn merge_located(
        union: bool,
        a: &mut Operand<'_>,
        b: &mut Operand<'_>,
    ) -> Result<(Outputs, usize), Fault> {
        let mut spares = Spares::default();
        let mut region = Region::new([true; 3], false, &mut spares);
        assert!(region.regs.is_empty(), "a region that stores every port has no registers");
        let located = if union {
            run_merge::<true>(a, b, &mut region)?
        } else {
            run_merge::<false>(a, b, &mut region)?
        };
        let (root, _) = region.finish(&mut spares);
        Ok((root.map(|port| port.stored.unwrap_or_default()), located))
    }

    /// The cycle-level block — `Unioner` if `union`, else `Intersecter` —
    /// over two operands' stored `(crd, ref)` streams, run to completion
    /// on the simulator.
    fn cycle(union: bool, a: &[Vec<SimToken>; 2], b: &[Vec<SimToken>; 2]) -> Outputs {
        cycle_block(&[&a[0], &b[0], &a[1], &b[1]], |i, [oc, o0, o1]| {
            let (crd, rf) = ([i[0], i[1]], [i[2], i[3]]);
            if union {
                Box::new(sam_primitives::Unioner::new("union", crd, rf, oc, [o0, o1]))
            } else {
                Box::new(sam_primitives::Intersecter::new("intersect", crd, rf, oc, [o0, o1]))
            }
        })
    }

    /// `block` alone on the simulator over preloaded `inputs`, run to
    /// completion; the history of each of its `outputs` channels.
    fn cycle_block<const N: usize>(
        inputs: &[&[SimToken]],
        block: impl FnOnce(&[sam_sim::ChannelId], [sam_sim::ChannelId; N]) -> Box<dyn sam_sim::Block>,
    ) -> [Vec<SimToken>; N] {
        let mut sim = sam_sim::Simulator::new();
        let ins: Vec<_> = inputs.iter().map(|_| sim.add_channel("in")).collect();
        let outs = [(); N].map(|()| sim.add_channel("out"));
        for (&channel, stream) in ins.iter().zip(inputs) {
            sim.preload(channel, stream.iter().copied());
        }
        outs.iter().for_each(|&c| sim.record(c));
        sim.add_block(block(&ins, outs));
        assert!(sim.run(1 << 26).is_ok(), "the cycle-level block finishes");
        outs.map(|c| sim.history(c).to_vec())
    }

    /// A fused scanner's tally is what the driver would have counted for
    /// the standalone scanner's stored streams, class by class.
    fn assert_tally(operand: &Operand<'_>, stored: &[Vec<SimToken>; 2], what: &str) {
        assert_eq!(operand.emitted(), Some(counts_of(&stored.concat())), "{what}: tally");
    }

    /// `stored` with an `Empty` token at random positions of both streams,
    /// inside its fibers (as a locator emits for a miss): none before the
    /// done token, which follows a stop.
    fn with_empties(rng: &mut StdRng, stored: &[Vec<SimToken>; 2]) -> [Vec<SimToken>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        for (pos, &t) in stored[0].iter().enumerate() {
            if !t.is_done() && rng.gen::<f64>() < 0.2 {
                out.iter_mut().for_each(|s| s.push(tok::empty()));
            }
            out[0].push(t);
            out[1].push(stored[1][pos]);
        }
        out
    }

    /// `refs` ended early: cut right after one of its stops (so every fiber
    /// before the cut closes as it did), or before its first token.
    fn ended_early(rng: &mut StdRng, refs: &[SimToken]) -> Vec<SimToken> {
        let stops: Vec<usize> = (0..refs.len()).filter(|&i| refs[i].is_stop()).map(|i| i + 1).collect();
        let cut = rng.gen_range(0..stops.len() + 1);
        let cut = if cut == 0 { 0 } else { stops[cut - 1] };
        let mut early = refs[..cut].to_vec();
        early.push(tok::done());
        early
    }

    /// The cycle-level `Intersecter` and `Unioner` over stored streams are
    /// the reference. The merge walk must produce their streams token for
    /// token, for both rules, over every format pair and every mix of
    /// fused and stored operands, and each fused scanner's tally its
    /// counts. In some rounds one operand's stored streams carry `Empty`
    /// tokens inside their fibers (only a stored operand can), and in some
    /// one operand ends early. Two fused `Compressed` operands are
    /// intersected by locating wherever a side re-delivers a long fiber.
    #[test]
    fn the_fiber_walk_equals_the_cycle_mergers_token_for_token() -> Result<(), Fault> {
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        let mut rng = StdRng::seed_from_u64(19);
        let (mut matched, mut repeated, mut emptied, mut early, mut located) = (0, 0, 0, 0, 0);
        for fa in formats {
            for fb in formats {
                // Two fused `Compressed` operands are the ones the walk
                // locates into: more rounds, for more re-delivered fibers.
                let rounds =
                    if matches!((fa, fb), (Format::Compressed, Format::Compressed)) { 160 } else { 40 };
                for round in 0..rounds {
                    let Case { levels: [la, lb], refs: [mut ra, mut rb] } = case(&mut rng, [fa, fb]);
                    if rng.gen::<f64>() < 0.2 {
                        let side = if rng.gen_range(0usize..2) == 0 { &mut ra } else { &mut rb };
                        *side = ended_early(&mut rng, side);
                        early += 1;
                    }
                    repeated += [&ra, &rb]
                        .iter()
                        .map(|r| {
                            let refs: Vec<_> = r.iter().filter(|t| matches!(t, Token::Val(_))).collect();
                            refs.windows(2).filter(|w| w[0] == w[1]).count()
                        })
                        .sum::<usize>();
                    let clean = [stored(&la, &ra), stored(&lb, &rb)];
                    // The side whose stored streams carry empty tokens, if any.
                    let dirty = (rng.gen::<f64>() < 0.3).then(|| rng.gen_range(0usize..2));
                    let mut held = clean.clone();
                    if let Some(side) = dirty {
                        held[side] = with_empties(&mut rng, &clean[side]);
                        emptied += held[side][0].iter().filter(|t| t.is_empty_token()).count();
                    }
                    for union in [false, true] {
                        let what = format!("{fa:?} x {fb:?}, round {round}, union {union}");
                        let want = cycle(union, &held[0], &held[1]);
                        if !union {
                            matched += want[0].iter().filter(|t| matches!(t, Token::Val(_))).count();
                        }
                        assert_eq!(
                            merge(union, &mut streams(&held[0]), &mut streams(&held[1]))?,
                            want,
                            "{what}: stored x stored"
                        );
                        if dirty != Some(0) {
                            let (mut a, mut b) = (scan(&la, &ra), streams(&held[1]));
                            assert_eq!(merge(union, &mut a, &mut b)?, want, "{what}: fused x stored");
                            assert_tally(&a, &clean[0], &what);
                            assert_eq!(
                                b.emitted(),
                                None,
                                "{what}: stored streams are counted by their producer"
                            );
                        }
                        if dirty != Some(1) {
                            let (mut a, mut b) = (streams(&held[0]), scan(&lb, &rb));
                            assert_eq!(merge(union, &mut a, &mut b)?, want, "{what}: stored x fused");
                            assert_tally(&b, &clean[1], &what);
                        }
                        if dirty.is_none() {
                            let (mut a, mut b) = (scan(&la, &ra), scan(&lb, &rb));
                            let (got, pairs) = merge_located(union, &mut a, &mut b)?;
                            assert_eq!(got, want, "{what}: fused x fused");
                            located += pairs;
                            assert_tally(&a, &clean[0], &what);
                            assert_tally(&b, &clean[1], &what);
                        }
                    }
                }
            }
        }
        assert!(matched > 1000, "the generator must produce intersections that match: {matched}");
        assert!(repeated > 200, "the generator must repeat references as a repeater does: {repeated}");
        assert!(emptied > 100, "stored fibers must hold empty tokens: {emptied}");
        assert!(early > 20, "operands must end early: {early}");
        assert!(located > 60, "the walk must locate into re-delivered fibers: {located}");
        Ok(())
    }

    /// The index belongs to one operand's level: a fiber of the other
    /// level that starts and ends at the same positions as the indexed one
    /// holds other coordinates, and is indexed afresh when its side
    /// re-delivers it.
    #[test]
    fn each_operand_locates_into_its_own_fiber() -> Result<(), Fault> {
        let (evens, odds) = ((0..40).map(|c| 2 * c).collect(), (0..40).map(|c| 2 * c + 1).collect());
        let la = level_of(Format::Compressed, 8, &[evens, vec![1, 3], vec![5, 7]]);
        let lb = level_of(Format::Compressed, 8, &[odds, vec![2, 4], vec![6, 8]]);
        // Operand 0 re-delivers its fiber 0, then operand 1 its fiber 0.
        let pairs = [(0, 1), (0, 2), (1, 0), (2, 0)];
        let refs = |side: fn(&(u32, u32)) -> u32| -> Vec<SimToken> {
            pairs.iter().map(|p| tok::rf(side(p))).chain([tok::stop(0), tok::done()]).collect()
        };
        let (ra, rb) = (refs(|p| p.0), refs(|p| p.1));
        let want = cycle(false, &stored(&la, &ra), &stored(&lb, &rb));
        let (got, located) = merge_located(false, &mut scan(&la, &ra), &mut scan(&lb, &rb))?;
        assert_eq!(got, want);
        assert_eq!(located, 2, "the second and the fourth pair are located");
        assert_eq!(got[0].iter().filter(|t| matches!(t, Token::Val(_))).count(), 8);
        Ok(())
    }

    /// A reference stream that ends without a done token — on either side,
    /// before or after the other side's done — is misaligned on the walk
    /// over fused scanners and on the walk over their stored streams alike.
    #[test]
    fn a_truncated_reference_stream_is_misaligned_on_both_walks() {
        let full = vec![tok::rf(0), tok::rf(1), tok::stop(0), tok::done()];
        let cut = vec![tok::rf(0), tok::rf(1), tok::stop(0)];
        let done = vec![tok::done()];
        let cases = [
            (cut.clone(), full.clone()),
            (full.clone(), cut.clone()),
            (done.clone(), cut.clone()),
            (cut, done),
            (Vec::new(), full.clone()),
            (full, Vec::new()),
        ];
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        for fa in formats {
            for fb in formats {
                let fibers_of = [vec![1, 4, 9], vec![0, 4]];
                let (la, lb) = (level_of(fa, 8, &fibers_of), level_of(fb, 8, &fibers_of));
                for (k, (ra, rb)) in cases.iter().enumerate() {
                    for union in [false, true] {
                        let what = format!("{fa:?} x {fb:?}, case {k}, union {union}");
                        let (sa, sb) = (stored(&la, ra), stored(&lb, rb));
                        let stored_walk = merge(union, &mut streams(&sa), &mut streams(&sb));
                        assert_eq!(stored_walk, Err(Fault::Misaligned), "{what}: stored-stream walk");
                        let walked = merge(union, &mut scan(&la, ra), &mut scan(&lb, rb));
                        assert_eq!(walked, Err(Fault::Misaligned), "{what}: fused walk");
                    }
                }
            }
        }
    }

    /// The merge of two operands' stored streams by the set definitions:
    /// their fibers pair up in order, and each pair goes out as the
    /// coordinates both fibers hold (the intersecter) or either holds (the
    /// unioner, `Empty` for the reference of the side that lacks it), then
    /// the higher of the two stops. A fiber whose partner stream has ended
    /// goes out on the unioner without a stop; done ends all three streams.
    fn by_sets(union: bool, a: &[Vec<SimToken>; 2], b: &[Vec<SimToken>; 2]) -> Outputs {
        use std::collections::BTreeMap;
        let fibers = |[crd, rf]: &[Vec<SimToken>; 2]| {
            let (mut fibers, mut fiber) = (Vec::new(), BTreeMap::new());
            for (c, r) in crd.iter().zip(rf) {
                match *c {
                    Token::Val(Payload::Crd(c)) => {
                        fiber.insert(c, *r);
                    }
                    Token::Stop(n) => fibers.push((std::mem::take(&mut fiber), n)),
                    _ => {}
                }
            }
            fibers
        };
        let (fa, fb) = (fibers(a), fibers(b));
        let mut out: Outputs = Default::default();
        let mut push = |position: [SimToken; 3]| out.iter_mut().zip(position).for_each(|(s, t)| s.push(t));
        let none = (BTreeMap::new(), 0);
        for k in 0..fa.len().max(fb.len()) {
            let (x, y) = (fa.get(k).unwrap_or(&none), fb.get(k).unwrap_or(&none));
            let mut held: Vec<u32> = x.0.keys().chain(y.0.keys()).copied().collect();
            held.sort_unstable();
            held.dedup();
            for c in held {
                let (r0, r1) = (x.0.get(&c), y.0.get(&c));
                if union || (r0.is_some() && r1.is_some()) {
                    push([tok::crd(c), *r0.unwrap_or(&tok::empty()), *r1.unwrap_or(&tok::empty())]);
                }
            }
            if k < fa.len().min(fb.len()) {
                push([tok::stop(x.1.max(y.1)); 3]);
            }
        }
        push([tok::done(); 3]);
        out
    }

    /// `stored` with an `Empty` token on both streams before every token
    /// but the done.
    fn empty_before_each(stored: &[Vec<SimToken>; 2]) -> [Vec<SimToken>; 2] {
        stored.each_ref().map(|s| {
            s.iter().flat_map(|&t| if t.is_done() { vec![t] } else { vec![tok::empty(), t] }).collect()
        })
    }

    /// Bounded-exhaustive: every pair of coordinate sets over a dimension
    /// of 4 — and a `Dense` level, which holds every coordinate — as the
    /// operands of both mergers, in streams of one fiber (`x` against `y`)
    /// and of two (`x`, `y` against `y`, `x`), with neither operand or one
    /// of them ending early. The cycle blocks, over the stored streams with
    /// and without an `Empty` before every token of one side, and the fiber
    /// walk, over every mix of fused and stored operands, must produce the
    /// set definitions ([`by_sets`]) token for token.
    #[test]
    fn the_mergers_are_the_set_definitions_over_every_pair_of_small_sets() -> Result<(), Fault> {
        const N: u32 = 4;
        // A set is a bit mask of `0..N`. `None` is every coordinate: an
        // operand whose first fiber it is is a dense level.
        let level = |fibers: &[Option<u32>]| match fibers[0] {
            None => Level::Dense(DenseLevel::new(N as usize, fibers.len())),
            Some(_) => {
                let mut level = CompressedLevel::builder(N as usize);
                for set in fibers.iter().map(|s| s.unwrap_or((1 << N) - 1)) {
                    (0..N).filter(|c| set >> c & 1 == 1).for_each(|c| level.push_coord(c));
                    level.end_fiber();
                }
                Level::Compressed(level.finish())
            }
        };
        let sets: Vec<Option<u32>> = (0..1 << N).map(Some).chain([None]).collect();
        for &x in &sets {
            for &y in &sets {
                for fibers in [[vec![x], vec![y]], [vec![x, y], vec![y, x]]] {
                    let levels = fibers.each_ref().map(|f| level(f));
                    let refs = fibers.each_ref().map(|f| {
                        (0..f.len() as u32)
                            .map(tok::rf)
                            .chain([tok::stop(0), tok::done()])
                            .collect::<Vec<_>>()
                    });
                    // Neither operand ends early, or one keeps only the
                    // fibers before its last.
                    for early in [None, Some(0), Some(1)] {
                        let mut refs = refs.clone();
                        if let Some(side) = early {
                            let keep = fibers[side].len() - 1;
                            refs[side] =
                                (0..keep as u32).map(tok::rf).chain([tok::stop(0), tok::done()]).collect();
                            if keep == 0 {
                                refs[side] = vec![tok::done()];
                            }
                        }
                        let [la, lb] = &levels;
                        let [ra, rb] = &refs;
                        let clean = [stored(la, ra), stored(lb, rb)];
                        for union in [false, true] {
                            let what = format!("{fibers:?}, {early:?} ends early, union {union}");
                            let want = by_sets(union, &clean[0], &clean[1]);
                            assert_eq!(cycle(union, &clean[0], &clean[1]), want, "{what}: cycle");
                            for side in 0..2 {
                                let mut dirty = clean.clone();
                                dirty[side] = empty_before_each(&clean[side]);
                                assert_eq!(
                                    cycle(union, &dirty[0], &dirty[1]),
                                    want,
                                    "{what}: cycle, empties on {side}"
                                );
                                let walked = merge(union, &mut streams(&dirty[0]), &mut streams(&dirty[1]))?;
                                assert_eq!(walked, want, "{what}: stored x stored, empties on {side}");
                            }
                            let walks = [
                                (
                                    merge(union, &mut streams(&clean[0]), &mut streams(&clean[1]))?,
                                    "stored x stored",
                                ),
                                (merge(union, &mut scan(la, ra), &mut streams(&clean[1]))?, "fused x stored"),
                                (merge(union, &mut streams(&clean[0]), &mut scan(lb, rb))?, "stored x fused"),
                                (merge(union, &mut scan(la, ra), &mut scan(lb, rb))?, "fused x fused"),
                            ];
                            for (walked, how) in walks {
                                assert_eq!(walked, want, "{what}: {how}");
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A one-level tensor `name` over `level`, its values a pattern over
    /// `salt`.
    fn tensor_of(name: &str, level: &Level, salt: usize) -> Tensor {
        let format = match level {
            Level::Dense(_) => LevelFormat::Dense,
            Level::Compressed(_) => LevelFormat::Compressed,
            Level::Bitvector(l) => LevelFormat::Bitvector { word_width: l.word_width },
        };
        let vals = (0..level.num_children()).map(|i| ((i * 7 + salt) % 13) as f64 - 4.0).collect();
        Tensor::from_parts(
            name,
            vec![DIM as usize],
            TensorFormat::new(vec![format]),
            vec![level.clone()],
            vals,
        )
    }

    /// A node's `N` output streams, and the level and the values a writer
    /// wrote.
    type Stored<const N: usize> = ([Vec<SimToken>; N], Option<CompressedLevel>, Option<Vec<f64>>);

    /// What `eval_node` makes of `op` over stored `ins`, reading the
    /// tensors of `inputs`.
    fn stored_node<const N: usize>(
        op: Transfer,
        inputs: &Inputs,
        ins: &[&[SimToken]],
    ) -> Result<Stored<N>, Fault> {
        let mut srcs: Vec<_> = ins.iter().map(|s| SliceSource::new(s)).collect();
        let (mut outs, mut levels, mut vals) = ([(); N].map(|()| Vec::new()), [None], None);
        eval_node(&op, inputs, &mut srcs, &mut outs, &mut Spares::default(), &mut levels, &mut vals)?;
        let [level] = levels;
        Ok((outs, level, vals))
    }

    /// The 120 rounds of operand pairs the stored-versus-cycle tests run,
    /// every pair of formats: each round's name and its case.
    fn rounds() -> impl Iterator<Item = (String, Case)> {
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        let mut rng = StdRng::seed_from_u64(35);
        (0..120).map(move |round| {
            let pair = [formats[round % 3], formats[(round / 3) % 3]];
            (format!("{pair:?}, round {round}"), case(&mut rng, pair))
        })
    }

    /// The stored scanner and repeater call the rules their cycle blocks
    /// call, at another pace: the scanner drains a fiber at a time, and the
    /// repeater reads a reference only when a coordinate needs one, where
    /// the block reads one a cycle whenever it holds none. Both must
    /// produce the blocks' streams token for token, over every format and
    /// over reference streams that repeat a reference and hold empty ones.
    #[test]
    fn the_stored_scanner_and_repeater_equal_their_cycle_blocks() -> Result<(), Fault> {
        let mut repeated = 0;
        for (what, Case { levels: [la, lb], refs: [ra, rb] }) in rounds() {
            let (sa, sb) = (stored(&la, &ra), stored(&lb, &rb));
            let level = std::sync::Arc::new(la);
            let scanned = cycle_block(&[&ra], |i, [c, r]| {
                Box::new(sam_primitives::LevelScanner::new("scan", level, i[0], c, r))
            });
            assert_eq!(scanned, sa, "{what}: scanner");

            // A repeater over the intersection's coordinates, repeating the
            // references that drove operand `a`'s scanner.
            let [oc, ..] = merge(false, &mut streams(&sa), &mut streams(&sb))?;
            let ([rep], ..) = stored_node(Transfer::Repeat, &Inputs::new(), &[&oc, &ra])?;
            let [cycled] = cycle_block(&[&oc, &ra], |i, [o]| {
                Box::new(sam_primitives::Repeater::new("repeat", i[0], i[1], o))
            });
            assert_eq!(rep, cycled, "{what}: repeater");
            let refs: Vec<_> = rep.iter().filter(|t| matches!(t, Token::Val(_))).collect();
            repeated += refs.windows(2).filter(|w| w[0] == w[1]).count();
        }
        assert!(repeated > 50, "the repeater must repeat references: {repeated}");
        Ok(())
    }

    /// The array, the constant, the ALU, the locator and the writers are
    /// one stored loop and one cycle shell over the same rules. Every
    /// stored form must produce its block's streams token for token, over
    /// every format and over the intersection's matched references.
    #[test]
    fn the_stored_loops_equal_their_cycle_blocks() -> Result<(), Fault> {
        use sam_primitives::writer::{level_sink, val_sink};
        let (mut located, mut missed) = (0, 0);
        for (what, Case { levels: [la, lb], refs: [ra, rb] }) in rounds() {
            let (sa, sb) = (stored(&la, &ra), stored(&lb, &rb));
            let [oc, o0, o1] = merge(false, &mut streams(&sa), &mut streams(&sb))?;

            // Arrays over both operands' matched references, their product
            // with a constant, and the writers of the product's level and
            // values.
            let inputs = Inputs::new().tensor(tensor_of("a", &la, 1)).tensor(tensor_of("b", &lb, 2));
            let ([x], ..) = stored_node(Transfer::Array { tensor: 0 }, &inputs, &[&o0])?;
            let [cycled] = cycle_block(&[&o0], |i, [o]| {
                Box::new(sam_primitives::val_array("array", inputs.at(0).vals().to_vec(), i[0], o))
            });
            assert_eq!(x, cycled, "{what}: array");
            let ([y], ..) = stored_node(Transfer::Array { tensor: 1 }, &inputs, &[&o1])?;
            let ([c], ..) = stored_node(Transfer::Const { value: 0.5 }, &inputs, &[&o0])?;
            let [cycled] =
                cycle_block(&[&o0], |i, [o]| Box::new(sam_primitives::const_val("const", 0.5, i[0], o)));
            assert_eq!(c, cycled, "{what}: constant");
            let ([m], ..) = stored_node(Transfer::Alu { op: AluOp::Mul }, &inputs, &[&x, &y])?;
            let ([z], ..) = stored_node(Transfer::Alu { op: AluOp::Sub }, &inputs, &[&m, &c])?;
            let [cycled] = cycle_block(&[&m, &c], |i, [o]| {
                Box::new(sam_primitives::alu("alu", AluOp::Sub, [i[0], i[1]], o))
            });
            assert_eq!(z, cycled, "{what}: ALU");
            let write_level = Transfer::WriteLevel { dim: DIM as usize, index: 'i', output: Some(0) };
            let (_, level_written, _) = stored_node::<0>(write_level, &inputs, &[&oc])?;
            let sink = level_sink();
            cycle_block::<0>(&[&oc], |i, []| {
                Box::new(sam_primitives::level_writer("w", DIM as usize, i[0], sink.clone()))
            });
            assert_eq!(level_written, sink.lock().map_or(None, |s| s.clone()), "{what}: level writer");
            let (_, _, vals_written) = stored_node::<0>(Transfer::WriteVals, &inputs, &[&z])?;
            let sink = val_sink();
            cycle_block::<0>(&[&z], |i, []| Box::new(sam_primitives::val_writer("v", i[0], sink.clone())));
            assert_eq!(vals_written, sink.lock().map_or(None, |s| s.clone()), "{what}: values writer");

            // A locator looking operand `b`'s coordinates up in the fibers
            // of operand `a` that their slots drove.
            let ([to_a], ..) = stored_node(Transfer::Repeat, &Inputs::new(), &[&sb[0], &ra])?;
            let locate = Transfer::Locate { tensor: 0, level: 0, index: 'i' };
            let (stored_loc, ..) = stored_node::<3>(locate, &inputs, &[&sb[0], &to_a])?;
            let level = std::sync::Arc::new(la);
            let cycled = cycle_block(&[&sb[0], &to_a], |i, outs| {
                Box::new(sam_primitives::locator("locate", level, [i[0], i[1]], outs))
            });
            assert_eq!(stored_loc, cycled, "{what}: locator");
            let hits = stored_loc[2].iter().filter(|t| matches!(t, Token::Val(_))).count();
            located += hits;
            missed += sb[0].iter().filter(|t| matches!(t, Token::Val(_))).count() - hits;
        }
        assert!(located > 500 && missed > 500, "the locator must hit and miss: {located}, {missed}");
        Ok(())
    }

    /// Every kind the stored lockstep loop runs finds an input that ends
    /// before its done token misaligned, whichever input it is; so does
    /// the repeater's reference side, which ends before a reference a
    /// coordinate needs. The whole streams run.
    #[test]
    fn a_stored_input_that_ends_before_done_is_misaligned() {
        let level = level_of(Format::Compressed, 8, &[vec![1, 4, 9]]);
        let inputs = Inputs::new().tensor(tensor_of("a", &level, 0));
        let (crd, rf, val) = (tok::crd(4), tok::rf(0), tok::val(2.0));
        let cases: [(Transfer, &[SimToken], usize); 7] = [
            (Transfer::Array { tensor: 0 }, &[rf], 1),
            (Transfer::Const { value: 1.0 }, &[val], 1),
            (Transfer::Alu { op: AluOp::Add }, &[val, val], 1),
            (Transfer::Locate { tensor: 0, level: 0, index: 'i' }, &[crd, rf], 3),
            (Transfer::WriteVals, &[val], 0),
            (Transfer::WriteLevel { dim: 8, index: 'i', output: Some(0) }, &[crd], 0),
            (Transfer::Repeat, &[crd, rf], 1),
        ];
        for (op, heads, outputs) in cases {
            let run = |ins: &[Vec<SimToken>]| {
                let mut srcs: Vec<_> = ins.iter().map(|s| SliceSource::new(s)).collect();
                let mut outs = vec![Vec::new(); outputs];
                eval_node(&op, &inputs, &mut srcs, &mut outs, &mut Spares::default(), &mut [None], &mut None)
            };
            let whole: Vec<_> = heads.iter().map(|&t| vec![t, tok::stop(0), tok::done()]).collect();
            assert_eq!(run(&whole), Ok(()), "{op:?}");
            for k in 0..heads.len() {
                let mut cut = whole.clone();
                // The repeater reads its first reference for the coordinate.
                let keep = if matches!(op, Transfer::Repeat) && k == 1 { 0 } else { 2 };
                cut[k].truncate(keep);
                assert_eq!(run(&cut), Err(Fault::Misaligned), "{op:?}, input {k} cut");
            }
        }
    }

    /// At the coordinate stream's done token the repeater's reference stream
    /// must have accounted for exactly the fibers the coordinates closed,
    /// then end: a reference past the last fiber, a fiber with no reference
    /// and a reference stream with no done token are misaligned, in the
    /// stored loop as in the cycle block, which share the rule.
    #[test]
    fn a_repeaters_reference_stream_ends_with_its_coordinates() {
        let crd = [tok::crd(1), tok::crd(3), tok::stop(0), tok::crd(0), tok::stop(1), tok::done()];
        let one_empty = [tok::crd(1), tok::crd(3), tok::stop(0), tok::stop(1), tok::done()];
        let three =
            [tok::crd(1), tok::crd(3), tok::stop(0), tok::crd(0), tok::stop(0), tok::stop(1), tok::done()];
        let (rf, done) = ([tok::rf(7), tok::rf(9), tok::stop(0)], [tok::done()]);
        let cases = [
            (&crd[..], [&rf[..], &done].concat(), Ok(())),
            (&one_empty[..], [&rf[..], &done].concat(), Ok(())),
            (&crd[..], [&rf[..2], &[tok::rf(4)], &rf[2..], &done].concat(), Err(Fault::Misaligned)),
            (&three[..], [&rf[..], &done].concat(), Err(Fault::Misaligned)),
            (&crd[..], rf.to_vec(), Err(Fault::Misaligned)),
        ];
        for (coords, refs, expected) in cases {
            let run = stored_node::<1>(Transfer::Repeat, &Inputs::new(), &[coords, &refs]).map(|_| ());
            assert_eq!(run, expected, "{coords:?} over {refs:?}");
        }
    }

    /// Every scanner path on one bad input against one good one: the
    /// standalone scanner, and the merge walk against a stored operand and
    /// against a fused one.
    fn scanner_faults(format: Format, bad: &[SimToken]) -> Vec<Result<(), Fault>> {
        let level = level_of(format, 8, &[vec![1, 4, 9]]);
        let good = [tok::rf(0), tok::stop(0), tok::done()];
        let (mut crd, mut rf) = (Vec::new(), Vec::new());
        let sg = stored(&level, &good);
        vec![
            run_scanner(&level, SliceSource::new(bad), &mut crd, &mut rf),
            merge(false, &mut scan(&level, bad), &mut streams(&sg)).map(|_| ()),
            merge(false, &mut scan(&level, bad), &mut scan(&level, &good)).map(|_| ()),
        ]
    }

    #[test]
    fn a_reference_past_the_level_is_out_of_bounds_on_every_scanner_path() {
        for format in [Format::Compressed, Format::Dense, Format::Bitvector] {
            let seen = scanner_faults(format, &[tok::rf(0), tok::rf(1), tok::stop(0), tok::done()]);
            assert_eq!(seen, vec![Err(Fault::RefOutOfBounds(1)); 3], "{format:?}");
        }
    }

    #[test]
    fn a_non_reference_payload_on_a_scanner_input_is_misaligned() {
        for format in [Format::Compressed, Format::Dense, Format::Bitvector] {
            for bad in [tok::crd(0), tok::val(1.0)] {
                let seen = scanner_faults(format, &[bad, tok::stop(0), tok::done()]);
                assert_eq!(seen, vec![Err(Fault::Misaligned); 3], "{format:?}, {bad:?}");
            }
        }
    }

    /// `1 +` the highest reference in `stream`: how many values an array
    /// over it needs.
    fn values_for(stream: &[SimToken], salt: usize) -> Vec<f64> {
        let refs = stream.iter().filter_map(|t| match t {
            Token::Val(Payload::Ref(r)) => Some(*r as usize + 1),
            _ => None,
        });
        (0..refs.max().unwrap_or(0)).map(|i| ((i * 7 + salt) % 13) as f64 - 4.0).collect()
    }

    /// An array's stored transfer function over `vals`, as `eval_node`
    /// runs it.
    fn array(vals: &[f64], input: &[SimToken], out: &mut Vec<SimToken>) -> Result<(), Fault> {
        lockstep(&mut [SliceSource::new(input)], std::slice::from_mut(out), |[t]| Ok([rule::load(vals, t)?]))
    }

    /// An ALU's or a repeater's stored transfer function.
    fn binary(op: Transfer, a: &[SimToken], b: &[SimToken], out: &mut Vec<SimToken>) -> Result<(), Fault> {
        let ([stream], ..) = stored_node(op, &Inputs::new(), &[a, b])?;
        *out = stream;
        Ok(())
    }

    fn counts_of(stream: &[SimToken]) -> TokenCounts {
        let mut counts = TokenCounts::default();
        stream.iter().for_each(|t| counts.record(t));
        counts
    }

    /// A region port carried exactly `want`: as many tokens, of the same
    /// classes, and — when it is stored — the same stream.
    fn assert_port(port: &RegionPort, want: &[SimToken], what: &str) {
        assert_eq!(port.len, want.len() as u64, "{what}: count");
        assert_eq!(port.tally, counts_of(want), "{what}: tally");
        if let Some(stream) = &port.stored {
            assert_eq!(stream, want, "{what}: stored stream");
        }
    }

    /// A fusion region of the shape the benchmark's SDDMM and MTTKRP run —
    /// a repeater over the root's coordinates whose references repeat, two
    /// arrays over the root's references and one over the repeater, two
    /// ALUs and a scalar reducer — must equal the stored transfer functions
    /// chained over stored streams, token for token, on both intersect
    /// walks and over stored operands; and each member's count and tally
    /// must be what classifying its stored stream counts. A second region
    /// stores what leaves it mid-chain: an unread root port and an ALU.
    #[test]
    fn a_fusion_region_equals_the_stored_chain_token_for_token() -> Result<(), Fault> {
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        let mut rng = StdRng::seed_from_u64(32);
        let (mut matched, mut repeated) = (0, 0);
        for round in 0..360 {
            let pair = [formats[round % 3], formats[(round / 3) % 3]];
            let fused = round % 4 != 3;
            let what = format!("{pair:?}, fused {fused}, round {round}");
            let Case { levels: [la, lb], refs: [ra, rb] } = case(&mut rng, pair);
            let (sa, sb) = (stored(&la, &ra), stored(&lb, &rb));
            let [oc, o0, o1] = merge(false, &mut streams(&sa), &mut streams(&sb))?;
            matched += oc.iter().filter(|t| matches!(t, Token::Val(_))).count();

            // The stored chain.
            let run = |f: &mut dyn FnMut(&mut Vec<SimToken>) -> Result<(), Fault>| {
                let mut out = Vec::new();
                f(&mut out).map(|()| out)
            };
            let src = SliceSource::new;
            let rep = run(&mut |out| binary(Transfer::Repeat, &oc, &ra, out))?;
            let (va, vb, vr) = (values_for(&o0, 1), values_for(&o1, 2), values_for(&rep, 3));
            let x = run(&mut |out| array(&va, &o0, out))?;
            let y = run(&mut |out| array(&vb, &o1, out))?;
            let z = run(&mut |out| array(&vr, &rep, out))?;
            let m = run(&mut |out| binary(Transfer::Alu { op: AluOp::Mul }, &x, &y, out))?;
            let a = run(&mut |out| binary(Transfer::Alu { op: AluOp::Sub }, &m, &z, out))?;
            let r = run(&mut |out| run_reducer::<0>(&mut [src(&a)], std::slice::from_mut(out)))?;
            let refs: Vec<_> = rep.iter().filter(|t| matches!(t, Token::Val(_))).collect();
            repeated += refs.windows(2).filter(|w| w[0] == w[1]).count();

            let operands = || {
                if fused {
                    (scan(&la, &ra), scan(&lb, &rb))
                } else {
                    (streams(&sa), streams(&sb))
                }
            };
            // Registers: 0–2 the root's, then one per member in order.
            let spares = &mut Spares::default();
            let mut region = Region::new([false; 3], true, spares);
            let repeater = Step::Repeat { rule: rule::Repeat::default(), refs: src(&ra), crd: 0 };
            region.push_member(repeater, false, spares);
            region.push_member(Step::Array { vals: &va, input: 1 }, false, spares);
            region.push_member(Step::Array { vals: &vb, input: 2 }, false, spares);
            region.push_member(Step::Array { vals: &vr, input: 3 }, false, spares);
            region.push_member(Step::Alu { op: AluOp::Mul, a: 4, b: 5 }, false, spares);
            region.push_member(Step::Alu { op: AluOp::Sub, a: 7, b: 6 }, false, spares);
            region.push_member(Step::Reduce { reduce: Reduce::default(), input: 8 }, false, spares);
            let (mut a_op, mut b_op) = operands();
            run_merge::<false>(&mut a_op, &mut b_op, &mut region)?;
            let (root, ports) = region.finish(spares);
            for (port, want) in root.iter().zip([&oc, &o0, &o1]) {
                assert!(port.stored.is_none(), "{what}: a root port a member reads is not stored");
                assert_port(port, want, &format!("{what}: root"));
            }
            for (k, (port, want)) in ports.iter().zip([&rep, &x, &y, &z, &m, &a, &r]).enumerate() {
                assert_eq!(port.stored.is_some(), k == 6, "{what}: only the reducer's output is stored");
                assert_port(port, want, &format!("{what}: member {k}"));
            }

            let mut region = Region::new([true, false, false], true, spares);
            region.push_member(Step::Array { vals: &va, input: 1 }, false, spares);
            region.push_member(Step::Array { vals: &vb, input: 2 }, false, spares);
            region.push_member(Step::Alu { op: AluOp::Mul, a: 3, b: 4 }, true, spares);
            let (mut a_op, mut b_op) = operands();
            run_merge::<false>(&mut a_op, &mut b_op, &mut region)?;
            let (root, ports) = region.finish(spares);
            assert_eq!(root[0].stored.as_ref(), Some(&oc), "{what}: a stored root port");
            assert_eq!(ports[2].stored.as_ref(), Some(&m), "{what}: a stored member");
            for (port, want) in ports.iter().zip([&x, &y, &m]) {
                assert_port(port, want, &format!("{what}: mid-chain"));
            }
        }
        assert!(matched > 1000, "the generator must produce intersections that match: {matched}");
        assert!(repeated > 200, "the repeater must repeat references: {repeated}");
        Ok(())
    }

    /// A fault inside a region ends the walk with the member's fault, as the
    /// stored chain reports it: an array reading past its values.
    #[test]
    fn a_member_fault_ends_the_region_walk() -> Result<(), Fault> {
        let level = level_of(Format::Compressed, 8, &[vec![1, 4, 9]]);
        let refs = [tok::rf(0), tok::stop(0), tok::done()];
        let short = [1.0, 2.0];
        let spares = &mut Spares::default();
        let mut region = Region::new([false; 3], false, spares);
        region.push_member(Step::Array { vals: &short, input: 1 }, true, spares);
        let walked = run_merge::<false>(&mut scan(&level, &refs), &mut scan(&level, &refs), &mut region);
        assert_eq!(walked, Err(Fault::RefOutOfBounds(2)));
        let (sa, sb) = (stored(&level, &refs), stored(&level, &refs));
        let [_, o0, _] = merge(false, &mut streams(&sa), &mut streams(&sb))?;
        assert_eq!(array(&short, &o0, &mut Vec::new()), Err(Fault::RefOutOfBounds(2)));
        Ok(())
    }

    /// An order-0 fiber that no stop closes adds no sum at done: the stored
    /// loop and the cycle block emit only the done token, and the block
    /// finishes.
    #[test]
    fn an_unclosed_scalar_fiber_adds_no_sum_at_done() {
        let input = [tok::val(1.0), tok::done()];
        let mut stored = Vec::new();
        let run = run_reducer::<0>(&mut [SliceSource::new(&input)], std::slice::from_mut(&mut stored));
        assert_eq!((run, &stored[..]), (Ok(()), &[tok::done()][..]));
        let mut sim = sam_sim::Simulator::new();
        let [i, o] = ["in", "out"].map(|n| sim.add_channel(n));
        sim.record(o);
        sim.add_block(Box::new(sam_primitives::Reducer::<0>::new("sum", [], i, [], o)));
        sim.preload(i, input);
        let report = sim.run(100);
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(sim.history(o), stored);
    }
}
