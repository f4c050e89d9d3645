//! Per-primitive transfer functions over whole stored streams.
//!
//! Every function here consumes its input streams strictly left to right
//! (with at most one token of lookahead) and appends to its output streams
//! strictly in order. The fast backend's walk (`crate::fast`) drives them,
//! one call per node: an input is a [`SliceSource`], a cursor over a
//! finished `Vec<SimToken>` whose `None` means the stream ended, and an
//! output is a plain `Vec<SimToken>`.
//!
//! A level scanner reads its input through one `FiberReader`, the one
//! place Section 3.3's stop rule is written: each reference becomes a fiber
//! item carrying the stop that closes it, and the reader tallies what a
//! standalone scanner would emit for it. It has three users. An
//! intersecter whose operands are both fused scanners
//! ([`crate::plan::FusedScan`] — the scanners' streams are then never
//! stored, only tallied) over `Compressed` or `Dense` levels walks the two
//! readers item by item and merges each fiber pair whole, straight over
//! the levels' storage (a [`FiberView`] per side), pushing tokens only for
//! the matches. Any other intersecter operand pair — a stored stream, a
//! `Bitvector` level — walks one `(crd, ref)` pair at a time, a fused
//! operand through a [`GallopScan`] built on the reader. `run_scanner`
//! drains whole fibers into two stored streams for every scanner somebody
//! else reads too.
//!
//! The intersecter pushes its output one position at a time into a
//! [`Positions`]: three stored streams, or a [`Region`] that runs the
//! intersecter's fusion region over the positions. An array, ALU,
//! constant, repeater or scalar reducer is written once, as a per-token
//! step function; its stored transfer function loops it over a whole
//! stream, and a region calls it on each block of positions.
//!
//! The transfer functions themselves mirror the `sam-primitives` block
//! semantics token for token (see the paper definitions cited on each), so
//! the cycle backend and the fast backend compute identical streams from
//! the same [`Plan`](crate::Plan). They report a [`Fault`] without naming
//! the node; the walk names it when it turns the fault into an
//! [`ExecError`].

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::plan::Plan;
use sam_core::graph::{NodeId, NodeKind};
use sam_primitives::{root_stream, AluOp};
use sam_sim::payload::{tok, Payload};
use sam_sim::SimToken;
use sam_streams::Token;
use sam_tensor::level::{CompressedLevel, DenseLevel, Level};
use sam_trace::TokenCounts;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// What a transfer function found wrong with its input streams. It does not
/// name the node: the walk does, once, when it converts the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The input streams are structurally misaligned: a stream ended
    /// without a done token, or a token carries the wrong payload.
    Misaligned,
    /// A reference left the bounds of the level's fibers or of the values.
    /// (A `u32`, as a reference token carries it, keeps a step function's
    /// `Result<SimToken, Fault>` at a token's 16 bytes.)
    RefOutOfBounds(u32),
}

impl Fault {
    /// The error of node `label` observing this fault.
    pub(crate) fn at(self, label: String) -> ExecError {
        match self {
            Fault::Misaligned => ExecError::Misaligned { label },
            Fault::RefOutOfBounds(reference) => {
                ExecError::RefOutOfBounds { label, reference: reference as usize }
            }
        }
    }
}

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
        self.tokens.get(self.pos).copied()
    }
}

/// The tensor data a writer node hands back to the driver.
pub(crate) enum WriterOutput {
    /// One compressed output level (a non-values level writer).
    Level(CompressedLevel),
    /// The output values array (the values writer).
    Vals(Vec<f64>),
}

/// Everything one node evaluation needs besides its streams: the resolved
/// tensor level / values / ALU op / writer dimension from the plan.
pub(crate) struct NodeJob<'a> {
    pub(crate) kind: &'a NodeKind,
    level: Option<&'a Level>,
    vals: Option<&'a [f64]>,
    alu: Option<AluOp>,
    constant: Option<f64>,
    writer_dim: usize,
}

/// The storage level a scanner (or locator) node reads, resolved from the
/// plan's tensor binding — what a fused scanner's [`GallopScan`] walks.
pub(crate) fn scanner_level<'a>(plan: &Plan, inputs: &'a Inputs, id: NodeId) -> &'a Level {
    let (NodeKind::LevelScanner { tensor, .. } | NodeKind::Locator { tensor, .. }) =
        &plan.graph().nodes()[id.0]
    else {
        unreachable!("only scanners and locators read a storage level")
    };
    inputs.get(tensor).expect("validated binding").level(plan.scan_level(id))
}

impl<'a> NodeJob<'a> {
    /// Resolves the plan- and input-side context of `id` for evaluation.
    pub(crate) fn build(plan: &'a Plan, inputs: &'a Inputs, id: NodeId) -> NodeJob<'a> {
        let kind = &plan.graph().nodes()[id.0];
        let mut job = NodeJob { kind, level: None, vals: None, alu: None, constant: None, writer_dim: 0 };
        match kind {
            NodeKind::LevelScanner { .. } | NodeKind::Locator { .. } => {
                job.level = Some(scanner_level(plan, inputs, id));
            }
            NodeKind::Array { tensor } => {
                job.vals = Some(inputs.get(tensor).expect("validated binding").vals());
            }
            NodeKind::Alu { .. } => job.alu = Some(plan.alu_op(id)),
            NodeKind::ConstVal { .. } => job.constant = Some(plan.const_val(id)),
            NodeKind::LevelWriter { vals, .. } if !vals => job.writer_dim = plan.writer_dim(id),
            _ => {}
        }
        job
    }
}

/// Runs one node over its input sources, pushing to its output sinks.
/// Writers return their collected output instead of streaming.
pub(crate) fn eval_node(
    job: &NodeJob<'_>,
    srcs: &mut [SliceSource<'_>],
    outs: &mut [Vec<SimToken>],
) -> Result<Option<WriterOutput>, Fault> {
    match job.kind {
        NodeKind::Root { .. } => {
            for t in root_stream() {
                outs[0].push(t);
            }
        }
        NodeKind::LevelScanner { .. } => {
            let [crd, rf] = outs else { unreachable!("scanner has two outputs") };
            run_scanner(job.level.expect("scanner level"), srcs[0].clone(), crd, rf)?;
        }
        NodeKind::Repeater { .. } => {
            let [crd_in, ref_in] = srcs else { unreachable!("repeater has two inputs") };
            run_repeater(crd_in, ref_in.clone(), &mut outs[0])?;
        }
        NodeKind::Unioner { .. } => {
            let [c0, c1, r0, r1] = srcs else { unreachable!("unioner has four inputs") };
            let [oc, o0, o1] = outs else { unreachable!("unioner has three outputs") };
            run_union(c0, c1, r0, r1, oc, o0, o1)?;
        }
        NodeKind::Locator { .. } => {
            let [crd, rf] = srcs else { unreachable!("locator has two inputs") };
            let [oc, pass, located] = outs else { unreachable!("locator has three outputs") };
            run_locator(job.level.expect("locator level"), crd, rf, oc, pass, located)?;
        }
        NodeKind::Array { .. } => {
            run_array(job.vals.expect("array values"), &mut srcs[0], &mut outs[0])?;
        }
        NodeKind::ConstVal { .. } => {
            run_const(job.constant.expect("validated constant"), &mut srcs[0], &mut outs[0])?;
        }
        NodeKind::Alu { .. } => {
            let [a, b] = srcs else { unreachable!("ALU has two inputs") };
            run_alu(job.alu.expect("validated ALU"), a, b, &mut outs[0])?;
        }
        NodeKind::Reducer { order } => match order {
            0 => run_reduce_scalar(&mut srcs[0], &mut outs[0]),
            1 => {
                let [crd, val] = srcs else { unreachable!("vector reducer has two inputs") };
                let [oc, ov] = outs else { unreachable!("vector reducer has two outputs") };
                run_reduce_vector(crd, val, oc, ov)?;
            }
            _ => {
                let [outer, inner, val] = srcs else { unreachable!("matrix reducer has three inputs") };
                let [oo, oi, ov] = outs else { unreachable!("matrix reducer has three outputs") };
                run_reduce_matrix(outer, inner, val, oo, oi, ov)?;
            }
        },
        NodeKind::CoordDropper { .. } => {
            let [outer, inner] = srcs else { unreachable!("dropper has two inputs") };
            let [oo, oi] = outs else { unreachable!("dropper has two outputs") };
            run_dropper(outer, inner, oo, oi)?;
        }
        NodeKind::LevelWriter { vals, .. } => {
            return Ok(Some(if *vals {
                WriterOutput::Vals(run_val_writer(&mut srcs[0]))
            } else {
                WriterOutput::Level(run_level_writer(job.writer_dim, &mut srcs[0]))
            }));
        }
        // The walk runs every intersecter itself (its operands may be fused
        // scanners, its outputs a fusion region); the rest are rejected
        // during planning.
        NodeKind::Intersecter { .. }
        | NodeKind::Parallelizer
        | NodeKind::Serializer
        | NodeKind::BitvectorConverter => unreachable!("not evaluated through here"),
    }
    Ok(None)
}

/// Reads the crd/ref token pair at one position of a merged operand; the
/// two streams of an operand always advance in lockstep.
fn fetch_pair(crd: &mut SliceSource<'_>, rf: &mut SliceSource<'_>) -> Option<(SimToken, SimToken)> {
    let c = crd.next()?;
    let r = rf.next()?;
    Some((c, r))
}

/// Pushes `t` to each output stream of a three-output node.
fn push3(t: SimToken, a: &mut Vec<SimToken>, b: &mut Vec<SimToken>, c: &mut Vec<SimToken>) {
    a.push(t);
    b.push(t);
    c.push(t);
}

/// One reference a level scanner reads off its input stream, with the stop
/// that follows it on both output streams (Definition 3.1, stop rule of
/// Section 3.3).
#[derive(Debug, Clone, Copy)]
enum FiberItem {
    /// A `Val` reference to fiber `Some(f)` or an `Empty` one (`None`): the
    /// fiber's entries, then `stop(stop)`, where `stop` is `n + 1` when a
    /// lookahead `Stop(n)` closed outer fibers at the same point, else 0.
    Fiber { fiber: Option<usize>, stop: u8 },
    /// A bare `Stop(n)` on the input: `stop(n + 1)` and nothing else.
    Stop(u8),
    /// The input's done token.
    Done,
}

impl FiberItem {
    /// The level of the stop this item ends with; `Done` ends with none.
    fn stop(self) -> u8 {
        match self {
            FiberItem::Fiber { stop, .. } | FiberItem::Stop(stop) => stop,
            FiberItem::Done => 0,
        }
    }
}

/// A level scanner's input side, and the one place its stop rule is
/// written: reads [`FiberItem`]s off the reference stream, checks each
/// reference against the level, and tallies what a standalone scanner
/// emits for the item on its two output streams — `n` coordinate and `n`
/// reference tokens for a fiber of `n` entries, two stops per item, two
/// done tokens — whether or not anybody materializes them. `GallopScan`,
/// `run_scanner` and the fiber walk all read through it.
struct FiberReader<'a> {
    level: &'a Level,
    input: SliceSource<'a>,
    /// Tokens the scanner emits for the items read so far, by class.
    emitted: TokenCounts,
}

impl<'a> FiberReader<'a> {
    fn new(level: &'a Level, input: SliceSource<'a>) -> Self {
        FiberReader { level, input, emitted: TokenCounts::default() }
    }

    /// The next item. An input that ends without a done token or carries
    /// a non-reference payload is misaligned; a reference past the level's
    /// last fiber is out of bounds.
    fn next(&mut self) -> Result<FiberItem, Fault> {
        let token = self.input.next().ok_or(Fault::Misaligned)?;
        if token.is_done() {
            self.emitted.done += 2;
            return Ok(FiberItem::Done);
        }
        self.emitted.stop += 2;
        let fiber = match token {
            Token::Val(Payload::Ref(r)) if r as usize >= self.level.num_fibers() => {
                return Err(Fault::RefOutOfBounds(r))
            }
            Token::Val(Payload::Ref(r)) => {
                let len = self.level.fiber_len(r as usize) as u64;
                self.emitted.crd += len;
                self.emitted.refs += len;
                Some(r as usize)
            }
            Token::Empty => None,
            Token::Stop(n) => return Ok(FiberItem::Stop(n + 1)),
            _ => return Err(Fault::Misaligned),
        };
        // One-token lookahead upgrades the trailing stop when the input
        // closes outer fibers at the same point.
        let stop = match self.input.peek() {
            Some(Token::Stop(n)) => {
                self.input.next();
                n + 1
            }
            _ => 0,
        };
        Ok(FiberItem::Fiber { fiber, stop })
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
            FiberItem::Fiber { fiber: Some(f), stop } => {
                match level {
                    Level::Compressed(l) => drain(CompressedFiber::new(l, f), crd, rf),
                    Level::Dense(l) => drain(DenseFiber::new(l, f), crd, rf),
                    Level::Bitvector(_) => {
                        for e in level.fiber(f) {
                            crd.push(tok::crd(e.coord));
                            rf.push(tok::rf(e.child as u32));
                        }
                    }
                }
                stop
            }
            FiberItem::Fiber { fiber: None, stop } | FiberItem::Stop(stop) => stop,
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

/// Runs a one-token-in, one-token-out step function over a whole stored
/// stream, up to and including its done token: the stored form of every
/// member of a fusion region but the reducer.
fn map_stream(
    input: &mut SliceSource<'_>,
    out: &mut Vec<SimToken>,
    mut step: impl FnMut(SimToken) -> Result<SimToken, Fault>,
) -> Result<(), Fault> {
    while let Some(t) = input.next() {
        out.push(step(t)?);
        if t.is_done() {
            break;
        }
    }
    Ok(())
}

/// Repeater transfer function (Definition 3.4): [`Repeat::step`] over the
/// whole coordinate stream.
fn run_repeater(
    crd_in: &mut SliceSource<'_>,
    ref_in: SliceSource<'_>,
    out: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut repeat = Repeat::new(ref_in);
    map_stream(crd_in, out, |t| repeat.step(t))
}

/// A repeater's state between coordinate tokens: its reference input and
/// the reference it is repeating.
///
/// The coordinate stream sits one fibertree level below the reference
/// stream, so their structures correlate: every coordinate-stream *fiber*
/// (even an empty one) corresponds to one reference data token, and every
/// coordinate stop of level `n >= 1` additionally closes the reference
/// stream's own fiber, consuming its (single, hierarchical) stop token.
/// Walking that correspondence reproduces the cycle-level block's output
/// without emulating its tick timing.
pub(crate) struct Repeat<'a> {
    refs: SliceSource<'a>,
    current: Option<SimToken>,
}

impl<'a> Repeat<'a> {
    /// A repeater reading its references from `refs`.
    pub(crate) fn new(refs: SliceSource<'a>) -> Self {
        Repeat { refs, current: None }
    }

    /// The output token for one coordinate token.
    #[inline(always)]
    fn step(&mut self, t: SimToken) -> Result<SimToken, Fault> {
        Ok(match t {
            Token::Val(_) => match self.current {
                Some(r) => r,
                // The current fiber's reference: the next data token.
                None => match self.refs.next() {
                    Some(r @ (Token::Val(_) | Token::Empty)) => *self.current.insert(r),
                    _ => return Err(Fault::Misaligned),
                },
            },
            Token::Empty => tok::empty(),
            Token::Stop(n) => {
                if self.current.is_none() {
                    // An empty fiber still consumes its reference, unless
                    // this bare stop only closes outer levels (the
                    // reference stream then carries a stop here itself).
                    if let Some(Token::Val(_) | Token::Empty) = self.refs.peek() {
                        self.refs.next();
                    }
                }
                self.current = None;
                if n > 0 {
                    // The reference stream's own fiber closes with it.
                    if let Some(Token::Stop(_)) = self.refs.peek() {
                        self.refs.next();
                    }
                }
                tok::stop(n)
            }
            Token::Done => tok::done(),
        })
    }
}

/// The fiber a [`GallopScan`] is walking: `pos` is the cursor the skip
/// requests gallop forward, and `stop` the stop that closes the fiber once
/// the cursor reaches `len`. An `Empty` reference opens fiber 0 with `len`
/// 0, so nothing ever reads the level through it.
#[derive(Clone, Copy)]
struct OpenFiber {
    fiber: usize,
    pos: usize,
    len: usize,
    stop: u8,
}

/// The level scanner (Definition 3.1) as a lazy producer of `(crd, ref)`
/// token pairs, for an intersecter operand the fiber walk cannot take: a
/// fused scanner against stored streams, or over a `Bitvector` level.
///
/// One stop rule, three users: `GallopScan`, `run_scanner` and the fiber
/// walk all read the scanner's input through one `FiberReader`, which also
/// keeps the tally. Fused into an intersecter operand the scanner is pulled
/// pair by pair and nothing is stored. The intersecter never walks the
/// coordinates it cannot match: [`GallopScan::skip_to`] gallops the open
/// fiber's cursor to a target coordinate and [`GallopScan::skip_rest`]
/// jumps it to the fiber's end. Dense levels jump in O(1), compressed
/// levels binary-search, so a skewed intersection costs the short side's
/// length (times a logarithm), not the long side's.
///
/// How the host walks is not what the SAM graph moves. A standalone scanner
/// would have emitted one coordinate and one reference token for every
/// entry, so the reader tallies a fiber's whole length when it opens it:
/// once the walk has finished, `emitted` is exactly what classifying the
/// two drained streams would have counted, skipped entries included.
pub(crate) struct GallopScan<'a> {
    items: FiberReader<'a>,
    /// The fiber being walked; `None` between fibers.
    open: Option<OpenFiber>,
}

impl<'a> GallopScan<'a> {
    /// A scanner over `level`, pulling fiber references from `input` (the
    /// scanner node's reference input stream).
    pub(crate) fn new(level: &'a Level, input: SliceSource<'a>) -> Self {
        GallopScan { items: FiberReader::new(level, input), open: None }
    }

    /// Gallops the open fiber's cursor to the first entry whose coordinate
    /// is at least `target`. Requests between fibers are stale (the fiber
    /// already ended) and ignored, like the cycle-level block.
    fn skip_to(&mut self, target: u32) {
        if let Some(open) = &mut self.open {
            if open.pos < open.len {
                open.pos = self.items.level.gallop_from(open.fiber, open.pos, target);
            }
        }
    }

    /// Jumps the open fiber's cursor to the fiber's end, so the next pair
    /// is the fiber's stop. A no-op between fibers.
    fn skip_rest(&mut self) {
        if let Some(open) = &mut self.open {
            open.pos = open.len;
        }
    }

    /// The next `(crd, ref)` token pair.
    fn next_pair(&mut self) -> Result<(SimToken, SimToken), Fault> {
        loop {
            if let Some(open) = &mut self.open {
                if open.pos < open.len {
                    let e = self.items.level.entry_at(open.fiber, open.pos);
                    open.pos += 1;
                    return Ok((tok::crd(e.coord), tok::rf(e.child as u32)));
                }
                let s = tok::stop(open.stop);
                self.open = None;
                return Ok((s, s));
            }
            let s = match self.items.next()? {
                FiberItem::Fiber { fiber, stop } => {
                    let len = fiber.map_or(0, |f| self.items.level.fiber_len(f));
                    self.open = Some(OpenFiber { fiber: fiber.unwrap_or(0), pos: 0, len, stop });
                    continue;
                }
                FiberItem::Stop(n) => tok::stop(n),
                FiberItem::Done => tok::done(),
            };
            return Ok((s, s));
        }
    }
}

/// One operand of an intersecter: either stored crd/ref streams (somebody
/// else reads them too, so the scanner ran standalone) or the operand's
/// scanner itself, fused. Only a fused scanner has a cursor to move, so the
/// two skips are no-ops on stored streams, which step token by token.
pub(crate) enum IntersectOperand<'a> {
    /// Stored streams; fetching steps token by token.
    Streams {
        /// The operand's coordinate stream.
        crd: SliceSource<'a>,
        /// The operand's reference stream.
        rf: SliceSource<'a>,
    },
    /// A fused scanner, walked fiber by fiber or pulled pair by pair.
    Scan(GallopScan<'a>),
}

impl IntersectOperand<'_> {
    /// The next `(crd, ref)` pair; a stream that ends without a done token
    /// is misaligned.
    fn fetch(&mut self) -> Result<(SimToken, SimToken), Fault> {
        match self {
            IntersectOperand::Streams { crd, rf } => fetch_pair(crd, rf).ok_or(Fault::Misaligned),
            IntersectOperand::Scan(scan) => scan.next_pair(),
        }
    }

    /// Skips to the first coordinate of the in-flight fiber at or past
    /// `target`.
    fn skip_to(&mut self, target: u32) {
        if let IntersectOperand::Scan(scan) = self {
            scan.skip_to(target);
        }
    }

    /// Skips what is left of the in-flight fiber.
    fn skip_rest(&mut self) {
        if let IntersectOperand::Scan(scan) = self {
            scan.skip_rest();
        }
    }

    /// What a fused scanner emitted or skipped; `None` for stored streams,
    /// whose tokens were counted when their producer ran.
    pub(crate) fn emitted(&self) -> Option<TokenCounts> {
        match self {
            IntersectOperand::Streams { .. } => None,
            IntersectOperand::Scan(scan) => Some(scan.items.emitted),
        }
    }
}

/// One fiber of a `Compressed` or `Dense` level as the fiber walk and the
/// standalone scanner read it from storage: entries at positions
/// `0..len()`, coordinates increasing.
trait FiberView {
    /// Number of entries.
    fn len(&self) -> usize;
    /// The coordinate of entry `pos`.
    fn coord(&self, pos: usize) -> u32;
    /// The reference token of entry `pos`: its child position.
    fn child(&self, pos: usize) -> SimToken;
    /// The first position at or after `from` whose coordinate is at least
    /// `target`, or `len()` ([`Level::gallop_from`] without the dispatch).
    fn gallop(&self, from: usize, target: u32) -> usize;
}

/// A compressed fiber: its slice `crd[seg[f]..seg[f + 1]]` of the
/// coordinate array; an entry's child is its position in the whole array.
struct CompressedFiber<'a> {
    crd: &'a [u32],
    base: usize,
}

impl<'a> CompressedFiber<'a> {
    fn new(level: &'a CompressedLevel, fiber: usize) -> Self {
        let base = level.seg[fiber];
        CompressedFiber { crd: &level.crd[base..level.seg[fiber + 1]], base }
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
    fn new(level: &DenseLevel, fiber: usize) -> Self {
        DenseFiber { size: level.size, base: fiber * level.size }
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

/// Where an intersecter's walk sends its output, one position at a time. A
/// position is one token on each of the three output streams: a match's
/// coordinate and the two operands' references, or one stop or done on
/// all three.
pub(crate) trait Positions {
    /// Takes the three tokens of one position. A fault ends the walk.
    fn push(&mut self, crd: SimToken, r0: SimToken, r1: SimToken) -> Result<(), Fault>;

    /// A control position: `t` on all three streams.
    fn push_all(&mut self, t: SimToken) -> Result<(), Fault> {
        self.push(t, t, t)
    }
}

/// The stored output: the three streams, appended to.
pub(crate) struct Stored<'o>(pub(crate) [&'o mut Vec<SimToken>; 3]);

impl Positions for Stored<'_> {
    #[inline]
    fn push(&mut self, crd: SimToken, r0: SimToken, r1: SimToken) -> Result<(), Fault> {
        let [oc, o0, o1] = &mut self.0;
        oc.push(crd);
        o0.push(r0);
        o1.push(r1);
        Ok(())
    }
}

/// How many positions a fusion region buffers before its members run: a
/// block of every register fits in the first-level cache.
const BLOCK: usize = 128;

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
    Repeat { repeat: Repeat<'a>, crd: usize },
    /// A scalar reducer. It emits zero to two tokens a position, so no
    /// member reads it.
    Reduce { reduce: ScalarReduce, input: usize },
}

impl Step<'_> {
    /// Computes the member's tokens for the `n` positions of the block in
    /// `regs`, in order, handing each to `write` with its position. The
    /// step functions are `#[inline(always)]`: called out of line once a
    /// token, a repeater or an ALU costs a region most of what it saves.
    fn map(
        &mut self,
        regs: &[SimToken],
        n: usize,
        mut write: impl FnMut(usize, SimToken),
    ) -> Result<(), Fault> {
        let block = |r: usize| regs[r * BLOCK..r * BLOCK + n].iter().enumerate();
        match self {
            Step::Array { vals, input } => {
                for (i, &t) in block(*input) {
                    write(i, array_step(vals, t)?);
                }
            }
            Step::Const { value, input } => {
                for (i, &t) in block(*input) {
                    write(i, const_step(*value, t));
                }
            }
            Step::Alu { op, a, b } => {
                for ((i, &x), (_, &y)) in block(*a).zip(block(*b)) {
                    write(i, alu_step(*op, x, y)?);
                }
            }
            Step::Repeat { repeat, crd } => {
                for (i, &t) in block(*crd) {
                    write(i, repeat.step(t)?);
                }
            }
            Step::Reduce { reduce, input } => {
                for (i, &t) in block(*input) {
                    reduce.step(t, |o| write(i, o));
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
    fn new(stored: bool) -> Self {
        RegionPort { stored: stored.then(Vec::new), ..RegionPort::default() }
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

/// An intersecter with its fusion region
/// ([`crate::plan::Plan::region_members`]). The root's positions are
/// buffered a block at a time; each member then computes its block of
/// tokens from its producers' blocks, in topological order, with the same
/// step function its stored transfer function loops over. Every member but
/// a reducer is one token in, one token out, so the `i`-th token of every
/// register belongs to the same position, as it would in the stored
/// streams. A stream that leaves the region is written straight to its
/// stored stream, every other one to its register only. Every stream is
/// counted, and classified when the run is traced, so each node's counts
/// are what storing it would have counted.
pub(crate) struct Region<'a> {
    classify: bool,
    root: [RegionPort; 3],
    steps: Vec<Step<'a>>,
    outs: Vec<RegionPort>,
    /// `BLOCK` tokens per register; a stored port's register goes unused.
    regs: Vec<SimToken>,
    /// Positions buffered so far in the current block.
    filled: usize,
}

impl<'a> Region<'a> {
    /// A region with no members yet, storing the root ports marked in
    /// `root_stored` and classifying every token it counts if `classify`.
    pub(crate) fn new(root_stored: [bool; 3], classify: bool) -> Self {
        Region {
            classify,
            root: root_stored.map(RegionPort::new),
            steps: Vec::new(),
            outs: Vec::new(),
            regs: vec![tok::done(); 3 * BLOCK],
            filled: 0,
        }
    }

    /// Appends a member, evaluated after every member appended before it;
    /// its tokens land in register `3 + k` for the `k`-th member. A
    /// reducer's output, which no member reads, is always stored.
    pub(crate) fn push_member(&mut self, step: Step<'a>, stored: bool) {
        let stored = stored || matches!(step, Step::Reduce { .. });
        self.steps.push(step);
        self.outs.push(RegionPort::new(stored));
        self.regs.resize(self.regs.len() + BLOCK, tok::done());
    }

    /// The root's three ports and each member's output port, in the order
    /// the members were appended.
    pub(crate) fn finish(self) -> ([RegionPort; 3], Vec<RegionPort>) {
        (self.root, self.outs)
    }

    /// Runs every member over the buffered block. Out of line, so that the
    /// walk's loop, which calls it once a block, stays small.
    #[inline(never)]
    fn flush(&mut self) -> Result<(), Fault> {
        let (n, classify) = (std::mem::take(&mut self.filled), self.classify);
        for (r, port) in self.root.iter_mut().enumerate() {
            port.count(&self.regs[r * BLOCK..r * BLOCK + n], classify);
        }
        for (k, (step, port)) in self.steps.iter_mut().zip(&mut self.outs).enumerate() {
            let (ins, reg) = self.regs.split_at_mut((3 + k) * BLOCK);
            let reg = &mut reg[..n];
            match &mut port.stored {
                Some(stream) => step.map(ins, n, |_, t| stream.push(t))?,
                None => step.map(ins, n, |i, t| reg[i] = t)?,
            }
            port.count(reg, classify);
        }
        Ok(())
    }
}

impl Positions for Region<'_> {
    #[inline]
    fn push(&mut self, crd: SimToken, r0: SimToken, r1: SimToken) -> Result<(), Fault> {
        let at = self.filled;
        for (k, t) in [crd, r0, r1].into_iter().enumerate() {
            // A root port is read either by one member or outside the
            // region only.
            match &mut self.root[k].stored {
                Some(stream) => stream.push(t),
                None => self.regs[k * BLOCK + at] = t,
            }
        }
        self.filled += 1;
        // The done position is the walk's last.
        if self.filled == BLOCK || crd.is_done() {
            self.flush()?;
        }
        Ok(())
    }
}

/// Intersects fibers `a` and `b`, galloping the trailing side on every
/// mismatch and pushing tokens only for the matches.
fn merge_fibers<A: FiberView, B: FiberView>(a: A, b: B, out: &mut impl Positions) -> Result<(), Fault> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ca, cb) = (a.coord(i), b.coord(j));
        match ca.cmp(&cb) {
            Ordering::Equal => {
                out.push(tok::crd(ca), a.child(i), b.child(j))?;
                i += 1;
                j += 1;
            }
            Ordering::Less => i = a.gallop(i + 1, cb),
            Ordering::Greater => j = b.gallop(j + 1, ca),
        }
    }
    Ok(())
}

/// The fiber walk, over two readers whose levels `open_a` / `open_b` turn a
/// fiber index into a [`FiberView`]. Items pair up: `(Done, Done)` ends all
/// three outputs; a `Done` on one side waits while the other side advances
/// and pushes nothing; any other pair merges the two fibers when both
/// exist, then closes all three outputs with the higher of the two stops.
/// Each reader tallies its own stream, so the counts do not depend on what
/// the other side held.
fn fiber_walk<A: FiberView, B: FiberView>(
    a: &mut FiberReader<'_>,
    open_a: impl Fn(usize) -> A,
    b: &mut FiberReader<'_>,
    open_b: impl Fn(usize) -> B,
    out: &mut impl Positions,
) -> Result<(), Fault> {
    let (mut ia, mut ib) = (a.next()?, b.next()?);
    loop {
        match (ia, ib) {
            (FiberItem::Done, FiberItem::Done) => return out.push_all(tok::done()),
            (FiberItem::Done, _) => ib = b.next()?,
            (_, FiberItem::Done) => ia = a.next()?,
            _ => {
                if let (FiberItem::Fiber { fiber: Some(fa), .. }, FiberItem::Fiber { fiber: Some(fb), .. }) =
                    (ia, ib)
                {
                    merge_fibers(open_a(fa), open_b(fb), out)?;
                }
                out.push_all(tok::stop(ia.stop().max(ib.stop())))?;
                (ia, ib) = (a.next()?, b.next()?);
            }
        }
    }
}

/// The fiber walk when it applies — both operands are fresh fused scanners
/// over `Compressed` or `Dense` levels — else `None`, with nothing read or
/// pushed.
fn walk_fibers(
    a: &mut IntersectOperand<'_>,
    b: &mut IntersectOperand<'_>,
    out: &mut impl Positions,
) -> Option<Result<(), Fault>> {
    let (IntersectOperand::Scan(a), IntersectOperand::Scan(b)) = (a, b) else { return None };
    let (a, b) = (&mut a.items, &mut b.items);
    Some(match (a.level, b.level) {
        (Level::Compressed(x), Level::Compressed(y)) => {
            fiber_walk(a, |f| CompressedFiber::new(x, f), b, |f| CompressedFiber::new(y, f), out)
        }
        (Level::Compressed(x), Level::Dense(y)) => {
            fiber_walk(a, |f| CompressedFiber::new(x, f), b, |f| DenseFiber::new(y, f), out)
        }
        (Level::Dense(x), Level::Compressed(y)) => {
            fiber_walk(a, |f| DenseFiber::new(x, f), b, |f| CompressedFiber::new(y, f), out)
        }
        (Level::Dense(x), Level::Dense(y)) => {
            fiber_walk(a, |f| DenseFiber::new(x, f), b, |f| DenseFiber::new(y, f), out)
        }
        _ => return None,
    })
}

/// Intersecter transfer function (Definition 3.2): a two-finger merge that
/// walks the short side. Two fused scanners over `Compressed` / `Dense`
/// levels take the fiber walk; any other operand pair walks pairs.
pub(crate) fn run_intersect(
    a: &mut IntersectOperand<'_>,
    b: &mut IntersectOperand<'_>,
    out: &mut impl Positions,
) -> Result<(), Fault> {
    match walk_fibers(a, b, out) {
        Some(walked) => walked,
        None => walk_pairs(a, b, out),
    }
}

/// The pair walk: one `(crd, ref)` pair at a time. On a mismatch the
/// trailing operand skips to the leading one's coordinate, and once one
/// operand's fiber has ended the other skips the rest of its own — neither
/// can match anything on the way. Whether the graph wires a Section 4.2
/// skip lane does not matter here: a fused scanner tallies what it skipped,
/// so the streams and every count are those of the plain merge over stored
/// streams.
fn walk_pairs(
    a: &mut IntersectOperand<'_>,
    b: &mut IntersectOperand<'_>,
    out: &mut impl Positions,
) -> Result<(), Fault> {
    let mut ta = a.fetch()?;
    let mut tb = b.fetch()?;
    loop {
        match (ta.0, tb.0) {
            (Token::Val(pa), Token::Val(pb)) => {
                let ca = pa.expect_crd();
                let cb = pb.expect_crd();
                if ca == cb {
                    out.push(tok::crd(ca), ta.1, tb.1)?;
                    ta = a.fetch()?;
                    tb = b.fetch()?;
                } else if ca < cb {
                    // The trailing side gallops straight to the coordinate
                    // the leading side is waiting at.
                    a.skip_to(cb);
                    ta = a.fetch()?;
                } else {
                    b.skip_to(ca);
                    tb = b.fetch()?;
                }
            }
            // The other side's fiber is over: the tail of this one is dead.
            (Token::Val(_), Token::Stop(_) | Token::Done) => {
                a.skip_rest();
                ta = a.fetch()?;
            }
            (Token::Stop(_) | Token::Done, Token::Val(_)) => {
                b.skip_rest();
                tb = b.fetch()?;
            }
            (Token::Val(_) | Token::Empty, _) => ta = a.fetch()?,
            (_, Token::Empty) => tb = b.fetch()?,
            (Token::Stop(na), Token::Stop(nb)) => {
                out.push_all(tok::stop(na.max(nb)))?;
                ta = a.fetch()?;
                tb = b.fetch()?;
            }
            (Token::Done, Token::Done) => return out.push_all(tok::done()),
            (Token::Stop(_), Token::Done) => ta = a.fetch()?,
            (Token::Done, Token::Stop(_)) => tb = b.fetch()?,
        }
    }
}

/// Unioner transfer function (Definition 3.3).
fn run_union(
    c0: &mut SliceSource<'_>,
    c1: &mut SliceSource<'_>,
    r0: &mut SliceSource<'_>,
    r1: &mut SliceSource<'_>,
    oc: &mut Vec<SimToken>,
    o0: &mut Vec<SimToken>,
    o1: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
    let mut b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
    loop {
        match (a.0, b.0) {
            (Token::Val(pa), Token::Val(pb)) => {
                let ca = pa.expect_crd();
                let cb = pb.expect_crd();
                if ca == cb {
                    oc.push(tok::crd(ca));
                    o0.push(a.1);
                    o1.push(b.1);
                    a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
                    b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
                } else if ca < cb {
                    oc.push(tok::crd(ca));
                    o0.push(a.1);
                    o1.push(tok::empty());
                    a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
                } else {
                    oc.push(tok::crd(cb));
                    o0.push(tok::empty());
                    o1.push(b.1);
                    b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
                }
            }
            (Token::Val(pa), _) => {
                oc.push(tok::crd(pa.expect_crd()));
                o0.push(a.1);
                o1.push(tok::empty());
                a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
            }
            (_, Token::Val(pb)) => {
                oc.push(tok::crd(pb.expect_crd()));
                o0.push(tok::empty());
                o1.push(b.1);
                b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
            }
            (Token::Empty, _) => {
                a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
            }
            (_, Token::Empty) => {
                b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
            }
            (Token::Stop(na), Token::Stop(nb)) => {
                push3(tok::stop(na.max(nb)), oc, o0, o1);
                a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
                b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
            }
            (Token::Done, Token::Done) => {
                push3(tok::done(), oc, o0, o1);
                break;
            }
            (Token::Stop(_), Token::Done) => {
                a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
            }
            (Token::Done, Token::Stop(_)) => {
                b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
            }
        }
    }
    Ok(())
}

/// Locator transfer function (Definition 4.1).
fn run_locator(
    level: &Level,
    crd: &mut SliceSource<'_>,
    rf: &mut SliceSource<'_>,
    oc: &mut Vec<SimToken>,
    pass: &mut Vec<SimToken>,
    located: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    loop {
        let (Some(c), Some(r)) = (crd.next(), rf.next()) else {
            return Err(Fault::Misaligned);
        };
        match (c, r) {
            (Token::Val(pc), Token::Val(pr)) => {
                let coord = pc.expect_crd();
                let fiber = pr.expect_ref() as usize;
                match level.locate(fiber, coord) {
                    Some(child) => {
                        oc.push(tok::crd(coord));
                        pass.push(tok::rf(fiber as u32));
                        located.push(tok::rf(child as u32));
                    }
                    None => {
                        push3(tok::empty(), oc, pass, located);
                    }
                }
            }
            (Token::Empty, _) | (_, Token::Empty) => {
                push3(tok::empty(), oc, pass, located);
            }
            (Token::Stop(nc), Token::Stop(nr)) => {
                push3(tok::stop(nc.max(nr)), oc, pass, located);
            }
            (Token::Done, Token::Done) => {
                push3(tok::done(), oc, pass, located);
                break;
            }
            _ => return Err(Fault::Misaligned),
        }
    }
    Ok(())
}

/// Array-in-load-mode transfer function (Definition 3.5).
fn run_array(vals: &[f64], input: &mut SliceSource<'_>, out: &mut Vec<SimToken>) -> Result<(), Fault> {
    map_stream(input, out, |t| array_step(vals, t))
}

/// The array's output token for one reference token.
#[inline(always)]
fn array_step(vals: &[f64], t: SimToken) -> Result<SimToken, Fault> {
    match t {
        Token::Val(p) => {
            let r = p.expect_ref();
            vals.get(r as usize).map(|&v| tok::val(v)).ok_or(Fault::RefOutOfBounds(r))
        }
        control => Ok(control),
    }
}

/// Constant-source transfer function: one scalar per data token of the
/// shape stream, empty and control tokens mirrored through.
fn run_const(value: f64, input: &mut SliceSource<'_>, out: &mut Vec<SimToken>) -> Result<(), Fault> {
    map_stream(input, out, |t| Ok(const_step(value, t)))
}

/// The constant source's output token for one shape token.
#[inline(always)]
fn const_step(value: f64, t: SimToken) -> SimToken {
    match t {
        Token::Val(_) => tok::val(value),
        control => control,
    }
}

/// ALU transfer function (Definition 3.6): [`alu_step`] over two aligned
/// streams, which must end together.
fn run_alu(
    op: AluOp,
    a: &mut SliceSource<'_>,
    b: &mut SliceSource<'_>,
    out: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    loop {
        let (Some(ta), Some(tb)) = (a.next(), b.next()) else {
            return Err(Fault::Misaligned);
        };
        out.push(alu_step(op, ta, tb)?);
        if ta.is_done() {
            return Ok(());
        }
    }
}

/// The ALU's output token for one aligned pair of input tokens: empty
/// tokens read as zero, stops take the higher level.
#[inline(always)]
fn alu_step(op: AluOp, a: SimToken, b: SimToken) -> Result<SimToken, Fault> {
    let apply = |x: f64, y: f64| match op {
        AluOp::Add => x + y,
        AluOp::Sub => x - y,
        AluOp::Mul => x * y,
    };
    Ok(match (a, b) {
        (Token::Val(pa), Token::Val(pb)) => tok::val(apply(pa.expect_val(), pb.expect_val())),
        (Token::Val(pa), Token::Empty) => tok::val(apply(pa.expect_val(), 0.0)),
        (Token::Empty, Token::Val(pb)) => tok::val(apply(0.0, pb.expect_val())),
        (Token::Empty, Token::Empty) => tok::val(apply(0.0, 0.0)),
        (Token::Stop(na), Token::Stop(nb)) => tok::stop(na.max(nb)),
        (Token::Done, Token::Done) => tok::done(),
        _ => return Err(Fault::Misaligned),
    })
}

/// Scalar reducer transfer function (Definition 3.7, order 0):
/// [`ScalarReduce::step`] over the whole value stream.
fn run_reduce_scalar(input: &mut SliceSource<'_>, out: &mut Vec<SimToken>) {
    let mut reduce = ScalarReduce::default();
    while let Some(t) = input.next() {
        reduce.step(t, |o| out.push(o));
        if t.is_done() {
            break;
        }
    }
}

/// A scalar reducer's running sum. An empty fiber sums to an explicit
/// zero, so the value stream stays aligned with the outer coordinate
/// streams feeding the writers.
#[derive(Debug, Default)]
pub(crate) struct ScalarReduce {
    acc: f64,
}

impl ScalarReduce {
    /// Consumes one value-stream token, emitting what it closes: nothing
    /// for a value, the sum (and the stop one level down) for a stop.
    #[inline(always)]
    fn step(&mut self, t: SimToken, mut emit: impl FnMut(SimToken)) {
        match t {
            Token::Val(p) => self.acc += p.expect_val(),
            Token::Empty => {}
            Token::Stop(n) => {
                emit(tok::val(std::mem::take(&mut self.acc)));
                if n > 0 {
                    emit(tok::stop(n - 1));
                }
            }
            Token::Done => emit(tok::done()),
        }
    }
}

/// Vector reducer transfer function (Definition 3.7, order 1 / Figure 7).
fn run_reduce_vector(
    crd: &mut SliceSource<'_>,
    val: &mut SliceSource<'_>,
    oc: &mut Vec<SimToken>,
    ov: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    let flush = |acc: &mut BTreeMap<u32, f64>,
                 closing: Option<u8>,
                 oc: &mut Vec<SimToken>,
                 ov: &mut Vec<SimToken>| {
        for (c, v) in std::mem::take(acc) {
            oc.push(tok::crd(c));
            ov.push(tok::val(v));
        }
        if let Some(level) = closing {
            oc.push(tok::stop(level));
            ov.push(tok::stop(level));
        }
    };
    loop {
        let (Some(c), Some(v)) = (crd.next(), val.next()) else {
            return Err(Fault::Misaligned);
        };
        match (c, v) {
            (Token::Val(pc), Token::Val(pv)) => {
                *acc.entry(pc.expect_crd()).or_insert(0.0) += pv.expect_val();
            }
            (Token::Empty, _) | (_, Token::Empty) => {}
            (Token::Stop(nc), Token::Stop(nv)) => {
                let n = nc.max(nv);
                if n > 0 {
                    flush(&mut acc, Some(n - 1), oc, ov);
                }
            }
            (Token::Done, Token::Done) => {
                if !acc.is_empty() {
                    flush(&mut acc, None, oc, ov);
                }
                oc.push(tok::done());
                ov.push(tok::done());
                break;
            }
            _ => return Err(Fault::Misaligned),
        }
    }
    Ok(())
}

/// Matrix reducer transfer function (Definition 3.7, order 2).
fn run_reduce_matrix(
    outer: &mut SliceSource<'_>,
    inner: &mut SliceSource<'_>,
    val: &mut SliceSource<'_>,
    oo: &mut Vec<SimToken>,
    oi: &mut Vec<SimToken>,
    ov: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut acc: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut current_outer: Option<u32> = None;
    loop {
        if current_outer.is_none() {
            if let Some(Token::Val(p)) = outer.peek() {
                outer.next();
                current_outer = Some(p.expect_crd());
            }
        }
        let (Some(c), Some(v)) = (inner.next(), val.next()) else {
            return Err(Fault::Misaligned);
        };
        match (c, v) {
            (Token::Val(pc), Token::Val(pv)) => {
                let o = current_outer.ok_or(Fault::Misaligned)?;
                *acc.entry((o, pc.expect_crd())).or_insert(0.0) += pv.expect_val();
            }
            (Token::Empty, _) | (_, Token::Empty) => {}
            (Token::Stop(_), Token::Stop(_)) => {
                current_outer = None;
                if let Some(Token::Stop(_)) = outer.peek() {
                    outer.next();
                }
            }
            (Token::Done, Token::Done) => {
                while let Some(t) = outer.next() {
                    if t.is_done() {
                        break;
                    }
                }
                flush_matrix(&mut acc, Some(1), oo, oi, ov);
                push3(tok::done(), oo, oi, ov);
                break;
            }
            _ => return Err(Fault::Misaligned),
        }
    }
    Ok(())
}

/// Emits the accumulated matrix exactly like the cycle-level reducer block.
fn flush_matrix(
    acc: &mut BTreeMap<(u32, u32), f64>,
    closing_stop: Option<u8>,
    oo: &mut Vec<SimToken>,
    oi: &mut Vec<SimToken>,
    ov: &mut Vec<SimToken>,
) {
    let mut by_outer: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
    for ((o, i), v) in std::mem::take(acc) {
        by_outer.entry(o).or_default().push((i, v));
    }
    let n = by_outer.len();
    for (idx, (o, inners)) in by_outer.into_iter().enumerate() {
        let last_fiber = idx + 1 == n;
        let m = inners.len();
        for (jdx, (i, v)) in inners.into_iter().enumerate() {
            oo.push(if jdx == 0 { tok::crd(o) } else { tok::empty() });
            oi.push(tok::crd(i));
            ov.push(tok::val(v));
            if jdx + 1 == m {
                let level = if last_fiber { closing_stop.unwrap_or(1) } else { 0 };
                oo.push(if last_fiber { tok::stop(level.saturating_sub(1)) } else { tok::empty() });
                oi.push(tok::stop(level));
                ov.push(tok::stop(level));
            }
        }
    }
    if n == 0 {
        if let Some(level) = closing_stop {
            push3(tok::stop(level), oo, oi, ov);
        }
    }
}

/// A sink adapter merging consecutive stop tokens by keeping the higher
/// level (the Figure 8 upgrade rule the dropper outputs follow).
struct MergeSink<'a> {
    inner: &'a mut Vec<SimToken>,
    pending: Option<SimToken>,
}

impl<'a> MergeSink<'a> {
    fn new(inner: &'a mut Vec<SimToken>) -> Self {
        MergeSink { inner, pending: None }
    }

    fn push(&mut self, t: SimToken) {
        if let (Some(Token::Stop(prev)), Token::Stop(new_level)) = (self.pending, t) {
            self.pending = Some(Token::Stop(prev.max(new_level)));
            return;
        }
        if let Some(prev) = self.pending.take() {
            self.inner.push(prev);
        }
        self.pending = Some(t);
    }

    fn finish(mut self) {
        if let Some(prev) = self.pending.take() {
            self.inner.push(prev);
        }
    }
}

/// Coordinate dropper transfer function (Definition 3.9, Figure 8).
fn run_dropper(
    outer: &mut SliceSource<'_>,
    inner: &mut SliceSource<'_>,
    out_outer: &mut Vec<SimToken>,
    out_inner: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut mo = MergeSink::new(out_outer);
    let mut mi = MergeSink::new(out_inner);
    let mut fiber: Vec<SimToken> = Vec::new();
    let mut effectual = false;
    while let Some(t) = inner.next() {
        match t {
            Token::Val(p) => {
                effectual |= match p {
                    Payload::Val(v) => v != 0.0,
                    _ => true,
                };
                fiber.push(t);
            }
            Token::Empty => {}
            Token::Stop(level) => {
                let Some(outer_tok) = outer.peek() else {
                    return Err(Fault::Misaligned);
                };
                match outer_tok {
                    Token::Val(_) => {
                        outer.next();
                        if effectual {
                            for ft in fiber.drain(..) {
                                mi.push(ft);
                            }
                            mi.push(tok::stop(level));
                            mo.push(outer_tok);
                        } else {
                            fiber.clear();
                            if level > 0 {
                                mi.push(tok::stop(level));
                            }
                        }
                        if level > 0 {
                            if let Some(Token::Stop(no)) = outer.peek() {
                                outer.next();
                                mo.push(tok::stop(no));
                            } else {
                                mo.push(tok::stop(level - 1));
                            }
                        }
                        effectual = false;
                    }
                    Token::Stop(_) | Token::Empty | Token::Done => {
                        mi.push(tok::stop(level));
                        if matches!(outer_tok, Token::Stop(_)) {
                            outer.next();
                            mo.push(outer_tok);
                        }
                        effectual = false;
                        fiber.clear();
                    }
                }
            }
            Token::Done => {
                while let Some(o) = outer.next() {
                    if o.is_done() {
                        break;
                    }
                    mo.push(o);
                }
                mi.push(tok::done());
                mo.push(tok::done());
                break;
            }
        }
    }
    mo.finish();
    mi.finish();
    Ok(())
}

/// Level-writer transfer function (Definition 3.8).
fn run_level_writer(dim: usize, input: &mut SliceSource<'_>) -> CompressedLevel {
    let mut coords: Vec<u32> = Vec::new();
    let mut seg: Vec<usize> = vec![0];
    while let Some(t) = input.next() {
        match t {
            Token::Val(p) => coords.push(p.expect_crd()),
            Token::Empty => {}
            Token::Stop(_) => seg.push(coords.len()),
            Token::Done => break,
        }
    }
    if *seg.last().expect("nonempty") != coords.len() {
        seg.push(coords.len());
    }
    CompressedLevel::new(dim, seg, coords)
}

/// Values-writer transfer function: empty tokens store explicit zeros.
fn run_val_writer(input: &mut SliceSource<'_>) -> Vec<f64> {
    let mut vals = Vec::new();
    while let Some(t) = input.next() {
        match t {
            Token::Val(p) => vals.push(p.expect_val()),
            Token::Empty => vals.push(0.0),
            Token::Stop(_) => {}
            Token::Done => break,
        }
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use sam_tensor::level::{BitvectorLevel, DenseLevel};

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
        // In a third of the cases a repeater upstream hands one side the
        // same reference for 2–5 slots running, against a new fiber on the
        // other side each time (MTTKRP's `intersect(k: T,F)`).
        let repeats = rng.gen::<f64>() < 0.3;
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
                if o != run.0 || run.1 == 0 {
                    fibers[o].push(fiber);
                }
                reads[o].push(fibers[o].len() - 1);
            }
            if run.1 > 0 {
                run.1 -= 1;
            } else if repeats {
                run = (rng.gen_range(0usize..2), rng.gen_range(1usize..5));
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
                    let absent = if rng.gen::<f64>() < 0.05 { rng.gen_range(0usize..2) } else { 2 };
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

    fn streams(stored: &[Vec<SimToken>; 2]) -> IntersectOperand<'_> {
        IntersectOperand::Streams { crd: SliceSource::new(&stored[0]), rf: SliceSource::new(&stored[1]) }
    }

    fn scan<'a>(level: &'a Level, refs: &'a [SimToken]) -> IntersectOperand<'a> {
        IntersectOperand::Scan(GallopScan::new(level, SliceSource::new(refs)))
    }

    type Outputs = [Vec<SimToken>; 3];

    /// The intersecter as the fast backend runs it.
    fn intersect(a: &mut IntersectOperand<'_>, b: &mut IntersectOperand<'_>) -> Result<Outputs, Fault> {
        let [mut oc, mut o0, mut o1] = [Vec::new(), Vec::new(), Vec::new()];
        run_intersect(a, b, &mut Stored([&mut oc, &mut o0, &mut o1]))?;
        Ok([oc, o0, o1])
    }

    /// The pair walk, whatever the operands.
    fn pairs(a: &mut IntersectOperand<'_>, b: &mut IntersectOperand<'_>) -> Result<Outputs, Fault> {
        let [mut oc, mut o0, mut o1] = [Vec::new(), Vec::new(), Vec::new()];
        walk_pairs(a, b, &mut Stored([&mut oc, &mut o0, &mut o1]))?;
        Ok([oc, o0, o1])
    }

    /// The fiber walk; `None` where it does not apply.
    fn fibers(a: &mut IntersectOperand<'_>, b: &mut IntersectOperand<'_>) -> Option<Result<Outputs, Fault>> {
        let [mut oc, mut o0, mut o1] = [Vec::new(), Vec::new(), Vec::new()];
        let walked = walk_fibers(a, b, &mut Stored([&mut oc, &mut o0, &mut o1]));
        walked.map(|walked| walked.map(|()| [oc, o0, o1]))
    }

    fn has_bitvector(formats: [Format; 2]) -> bool {
        formats.iter().any(|f| matches!(f, Format::Bitvector))
    }

    /// A fused scanner's tally is what the driver would have counted for
    /// the standalone scanner's stored streams, class by class.
    fn assert_tally(operand: &IntersectOperand<'_>, stored: &[Vec<SimToken>; 2], what: &str) {
        let mut want = TokenCounts::default();
        stored.iter().flatten().for_each(|t| want.record(t));
        assert_eq!(operand.emitted(), Some(want), "{what}: tally");
    }

    /// The pair walk over two stored streams is the reference: the fiber
    /// walk (both fused, compressed / dense), the galloped pair walk over
    /// two fused scans (every format pair) and both fused-against-stored
    /// mixes must produce its streams token for token, and each fused
    /// scan's tally its counts.
    #[test]
    fn the_galloped_walk_equals_the_stored_stream_walk_token_for_token() -> Result<(), Fault> {
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        let mut rng = StdRng::seed_from_u64(19);
        let (mut matched, mut repeated) = (0, 0);
        for fa in formats {
            for fb in formats {
                for round in 0..40 {
                    let what = format!("{fa:?} x {fb:?}, round {round}");
                    let Case { levels: [la, lb], refs: [ra, rb] } = case(&mut rng, [fa, fb]);
                    repeated += [&ra, &rb]
                        .iter()
                        .map(|r| {
                            let refs: Vec<_> = r.iter().filter(|t| matches!(t, Token::Val(_))).collect();
                            refs.windows(2).filter(|w| w[0] == w[1]).count()
                        })
                        .sum::<usize>();
                    let (sa, sb) = (stored(&la, &ra), stored(&lb, &rb));
                    let want = pairs(&mut streams(&sa), &mut streams(&sb))?;
                    matched += want[0].iter().filter(|t| matches!(t, Token::Val(_))).count();

                    if !has_bitvector([fa, fb]) {
                        let (mut a, mut b) = (scan(&la, &ra), scan(&lb, &rb));
                        assert_eq!(fibers(&mut a, &mut b), Some(Ok(want.clone())), "{what}: fiber walk");
                        assert_tally(&a, &sa, &what);
                        assert_tally(&b, &sb, &what);
                    }

                    let (mut a, mut b) = (scan(&la, &ra), scan(&lb, &rb));
                    assert_eq!(pairs(&mut a, &mut b)?, want, "{what}: galloped pair walk");
                    assert_tally(&a, &sa, &what);
                    assert_tally(&b, &sb, &what);

                    let (mut a, mut b) = (scan(&la, &ra), streams(&sb));
                    assert_eq!(intersect(&mut a, &mut b)?, want, "{what}: fused against stored");
                    assert_tally(&a, &sa, &what);
                    assert_eq!(b.emitted(), None, "{what}: stored streams are counted by their producer");

                    let (mut a, mut b) = (streams(&sa), scan(&lb, &rb));
                    assert_eq!(intersect(&mut a, &mut b)?, want, "{what}: stored against fused");
                    assert_tally(&b, &sb, &what);
                }
            }
        }
        assert!(matched > 1000, "the generator must produce intersections that match: {matched}");
        assert!(repeated > 200, "the generator must repeat references as a repeater does: {repeated}");
        Ok(())
    }

    /// The differential test above only proves the fiber walk right where
    /// it runs; this pins where it runs: both operands fused and neither
    /// level a bitvector. Anywhere else the dispatch reads and pushes
    /// nothing, so the pair walk that follows sees fresh operands. The
    /// operand streams differ in shape here, as the generator's never do:
    /// one side closes deeper (the outputs take the higher stop), or ends
    /// while the other still has fibers (which push nothing).
    #[test]
    fn the_fiber_merge_takes_two_fused_compressed_or_dense_scans_only() -> Result<(), Fault> {
        let fibers_of = [vec![1, 4, 9], vec![0, 4]];
        let refs = [tok::rf(1), tok::rf(0), tok::stop(0), tok::done()];
        let deeper = [tok::rf(0), tok::rf(1), tok::stop(1), tok::done()];
        let done = [tok::done()];
        let shapes: [(&[SimToken], &[SimToken]); 4] =
            [(&refs, &refs), (&refs, &deeper), (&deeper, &refs), (&done, &refs)];
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        for fa in formats {
            for fb in formats {
                let (la, lb) = (level_of(fa, 8, &fibers_of), level_of(fb, 8, &fibers_of));
                for (shape, (ra, rb)) in shapes.into_iter().enumerate() {
                    let (sa, sb) = (stored(&la, ra), stored(&lb, rb));
                    let want = pairs(&mut streams(&sa), &mut streams(&sb))?;
                    let mut operands = [
                        (scan(&la, ra), scan(&lb, rb)),
                        (scan(&la, ra), streams(&sb)),
                        (streams(&sa), scan(&lb, rb)),
                        (streams(&sa), streams(&sb)),
                    ];
                    for (k, (a, b)) in operands.iter_mut().enumerate() {
                        let what = format!("{fa:?} x {fb:?}, shape {shape}, operands {k}");
                        match fibers(a, b) {
                            Some(walked) => {
                                assert!(k == 0 && !has_bitvector([fa, fb]), "{what}: walked fibers");
                                assert_eq!(walked?, want, "{what}");
                            }
                            None => {
                                assert!(k > 0 || has_bitvector([fa, fb]), "{what}: did not walk fibers");
                                assert_eq!(intersect(a, b)?, want, "{what}: the operands are untouched");
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A reference stream that ends without a done token — on either side,
    /// before or after the other side's done — is misaligned on the fiber
    /// walk and on the pair walk over the stored streams alike.
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
        let formats = [Format::Compressed, Format::Dense];
        for fa in formats {
            for fb in formats {
                let fibers_of = [vec![1, 4, 9], vec![0, 4]];
                let (la, lb) = (level_of(fa, 8, &fibers_of), level_of(fb, 8, &fibers_of));
                for (k, (ra, rb)) in cases.iter().enumerate() {
                    let what = format!("{fa:?} x {fb:?}, case {k}");
                    let (sa, sb) = (stored(&la, ra), stored(&lb, rb));
                    let stored_walk = pairs(&mut streams(&sa), &mut streams(&sb));
                    assert_eq!(stored_walk, Err(Fault::Misaligned), "{what}: stored-stream walk");
                    let walked = fibers(&mut scan(&la, ra), &mut scan(&lb, rb));
                    assert_eq!(walked, Some(Err(Fault::Misaligned)), "{what}: fiber walk");
                }
            }
        }
    }

    /// Every scanner path on one bad input against one good one: the
    /// standalone scanner, the galloped pair walk (fused against stored)
    /// and, where it applies, the fiber walk.
    fn scanner_faults(format: Format, bad: &[SimToken]) -> Vec<Result<(), Fault>> {
        let level = level_of(format, 8, &[vec![1, 4, 9]]);
        let good = [tok::rf(0), tok::stop(0), tok::done()];
        let (mut crd, mut rf) = (Vec::new(), Vec::new());
        let mut seen = vec![run_scanner(&level, SliceSource::new(bad), &mut crd, &mut rf)];
        let sg = stored(&level, &good);
        seen.push(intersect(&mut scan(&level, bad), &mut streams(&sg)).map(|_| ()));
        if !has_bitvector([format, format]) {
            seen.extend(fibers(&mut scan(&level, bad), &mut scan(&level, &good)).map(|w| w.map(|_| ())));
        }
        seen
    }

    #[test]
    fn a_reference_past_the_level_is_out_of_bounds_on_every_scanner_path() {
        for format in [Format::Compressed, Format::Dense, Format::Bitvector] {
            let seen = scanner_faults(format, &[tok::rf(0), tok::rf(1), tok::stop(0), tok::done()]);
            let paths = if matches!(format, Format::Bitvector) { 2 } else { 3 };
            assert_eq!(seen, vec![Err(Fault::RefOutOfBounds(1)); paths], "{format:?}");
        }
    }

    #[test]
    fn a_non_reference_payload_on_a_scanner_input_is_misaligned() {
        for format in [Format::Compressed, Format::Dense, Format::Bitvector] {
            for bad in [tok::crd(0), tok::val(1.0)] {
                let seen = scanner_faults(format, &[bad, tok::stop(0), tok::done()]);
                let paths = if matches!(format, Format::Bitvector) { 2 } else { 3 };
                assert_eq!(seen, vec![Err(Fault::Misaligned); paths], "{format:?}, {bad:?}");
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
            let [oc, o0, o1] = pairs(&mut streams(&sa), &mut streams(&sb))?;
            matched += oc.iter().filter(|t| matches!(t, Token::Val(_))).count();

            // The stored chain.
            let run = |f: &mut dyn FnMut(&mut Vec<SimToken>) -> Result<(), Fault>| {
                let mut out = Vec::new();
                f(&mut out).map(|()| out)
            };
            let src = SliceSource::new;
            let rep = run(&mut |out| run_repeater(&mut src(&oc), src(&ra), out))?;
            let (va, vb, vr) = (values_for(&o0, 1), values_for(&o1, 2), values_for(&rep, 3));
            let x = run(&mut |out| run_array(&va, &mut src(&o0), out))?;
            let y = run(&mut |out| run_array(&vb, &mut src(&o1), out))?;
            let z = run(&mut |out| run_array(&vr, &mut src(&rep), out))?;
            let m = run(&mut |out| run_alu(AluOp::Mul, &mut src(&x), &mut src(&y), out))?;
            let a = run(&mut |out| run_alu(AluOp::Sub, &mut src(&m), &mut src(&z), out))?;
            let r = run(&mut |out| {
                run_reduce_scalar(&mut src(&a), out);
                Ok(())
            })?;
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
            let mut region = Region::new([false; 3], true);
            region.push_member(Step::Repeat { repeat: Repeat::new(src(&ra)), crd: 0 }, false);
            region.push_member(Step::Array { vals: &va, input: 1 }, false);
            region.push_member(Step::Array { vals: &vb, input: 2 }, false);
            region.push_member(Step::Array { vals: &vr, input: 3 }, false);
            region.push_member(Step::Alu { op: AluOp::Mul, a: 4, b: 5 }, false);
            region.push_member(Step::Alu { op: AluOp::Sub, a: 7, b: 6 }, false);
            region.push_member(Step::Reduce { reduce: ScalarReduce::default(), input: 8 }, false);
            let (mut a_op, mut b_op) = operands();
            run_intersect(&mut a_op, &mut b_op, &mut region)?;
            let (root, ports) = region.finish();
            for (port, want) in root.iter().zip([&oc, &o0, &o1]) {
                assert!(port.stored.is_none(), "{what}: a root port a member reads is not stored");
                assert_port(port, want, &format!("{what}: root"));
            }
            for (k, (port, want)) in ports.iter().zip([&rep, &x, &y, &z, &m, &a, &r]).enumerate() {
                assert_eq!(port.stored.is_some(), k == 6, "{what}: only the reducer's output is stored");
                assert_port(port, want, &format!("{what}: member {k}"));
            }

            let mut region = Region::new([true, false, false], true);
            region.push_member(Step::Array { vals: &va, input: 1 }, false);
            region.push_member(Step::Array { vals: &vb, input: 2 }, false);
            region.push_member(Step::Alu { op: AluOp::Mul, a: 3, b: 4 }, true);
            let (mut a_op, mut b_op) = operands();
            run_intersect(&mut a_op, &mut b_op, &mut region)?;
            let (root, ports) = region.finish();
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
        let mut region = Region::new([false; 3], false);
        region.push_member(Step::Array { vals: &short, input: 1 }, true);
        let walked = run_intersect(&mut scan(&level, &refs), &mut scan(&level, &refs), &mut region);
        assert_eq!(walked, Err(Fault::RefOutOfBounds(2)));
        let (sa, sb) = (stored(&level, &refs), stored(&level, &refs));
        let [_, o0, _] = pairs(&mut streams(&sa), &mut streams(&sb))?;
        assert_eq!(
            run_array(&short, &mut SliceSource::new(&o0), &mut Vec::new()),
            Err(Fault::RefOutOfBounds(2))
        );
        Ok(())
    }
}
