//! Per-primitive transfer functions over whole stored streams.
//!
//! Every function here consumes its input streams strictly left to right
//! (with at most one token of lookahead) and appends to its output streams
//! strictly in order. The fast backend's walk (`crate::fast`) drives them,
//! one call per node: an input is a [`SliceSource`], a cursor over a
//! finished `Vec<SimToken>` whose `None` means the stream ended, and an
//! output is a plain `Vec<SimToken>`.
//!
//! A level scanner has one definition, [`GallopScan`], and two uses: an
//! intersecter pulls `(crd, ref)` pairs from it directly when the planner
//! fused the scanner into that operand ([`crate::plan::FusedScan`] — the
//! scanner's streams are then never stored, only tallied), and
//! `run_scanner` drains it into two sinks for every scanner somebody else
//! reads too.
//!
//! An intersecter whose operands are both fused scanners over `Compressed`
//! or `Dense` levels merges a whole fiber pair at a time, straight over
//! the levels' storage (a [`FiberView`] per side), and pushes tokens only
//! for the matches; every other operand pair — a stored stream, a
//! `Bitvector` level — walks one `(crd, ref)` pair at a time.
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
    /// The input streams are structurally misaligned.
    Misaligned,
    /// A value-array reference left the bounds of the values.
    RefOutOfBounds(usize),
}

impl Fault {
    /// The error of node `label` observing this fault.
    pub(crate) fn at(self, label: String) -> ExecError {
        match self {
            Fault::Misaligned => ExecError::Misaligned { label },
            Fault::RefOutOfBounds(reference) => ExecError::RefOutOfBounds { label, reference },
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
            run_scanner(job.level.expect("scanner level"), srcs[0].clone(), crd, rf);
        }
        NodeKind::Repeater { .. } => {
            let [crd_in, ref_in] = srcs else { unreachable!("repeater has two inputs") };
            run_repeater(crd_in, ref_in, &mut outs[0])?;
        }
        NodeKind::Intersecter { .. } => {
            // Operands with a fused scanner are run through `run_intersect`
            // by the walk itself, not through here; the trailing skip output
            // ports stay silent in the fast backend.
            let [c0, c1, r0, r1] = srcs else { unreachable!("intersecter has four inputs") };
            let [oc, o0, o1, ..] = outs else { unreachable!("intersecter has five outputs") };
            run_intersect(
                &mut IntersectOperand::Streams { crd: c0.clone(), rf: r0.clone() },
                &mut IntersectOperand::Streams { crd: c1.clone(), rf: r1.clone() },
                oc,
                o0,
                o1,
            )?;
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
            run_const(job.constant.expect("validated constant"), &mut srcs[0], &mut outs[0]);
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
        NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter => {
            unreachable!("rejected during planning")
        }
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

/// Level scanner transfer function: drains the one scanner definition,
/// [`GallopScan`], into the node's two output streams.
fn run_scanner(level: &Level, input: SliceSource<'_>, crd: &mut Vec<SimToken>, rf: &mut Vec<SimToken>) {
    let mut scan = GallopScan::new(level, input);
    while let Some((c, r)) = scan.next_pair() {
        crd.push(c);
        rf.push(r);
    }
}

/// Repeater transfer function (Definition 3.4).
///
/// The coordinate stream sits one fibertree level below the reference
/// stream, so their structures correlate: every coordinate-stream *fiber*
/// (even an empty one) corresponds to one reference data token, and every
/// coordinate stop of level `n >= 1` additionally closes the reference
/// stream's own fiber, consuming its (single, hierarchical) stop token.
/// Walking that correspondence reproduces the cycle-level block's output
/// without emulating its tick timing.
fn run_repeater(
    crd_in: &mut SliceSource<'_>,
    ref_in: &mut SliceSource<'_>,
    out: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut current: Option<SimToken> = None;
    while let Some(t) = crd_in.next() {
        match t {
            Token::Val(_) => {
                if current.is_none() {
                    // The current fiber's reference: the next data token.
                    match ref_in.next() {
                        Some(r @ (Token::Val(_) | Token::Empty)) => current = Some(r),
                        _ => return Err(Fault::Misaligned),
                    }
                }
                out.push(current.expect("just fetched"));
            }
            Token::Empty => out.push(tok::empty()),
            Token::Stop(n) => {
                if current.is_none() {
                    // An empty fiber still consumes its reference, unless
                    // this bare stop only closes outer levels (the
                    // reference stream then carries a stop here itself).
                    if let Some(Token::Val(_) | Token::Empty) = ref_in.peek() {
                        ref_in.next();
                    }
                }
                current = None;
                if n > 0 {
                    // The reference stream's own fiber closes with it.
                    if let Some(Token::Stop(_)) = ref_in.peek() {
                        ref_in.next();
                    }
                }
                out.push(tok::stop(n));
            }
            Token::Done => {
                out.push(tok::done());
                break;
            }
        }
    }
    Ok(())
}

/// The scan progress of a [`GallopScan`], mirroring the cycle-level
/// scanner's state machine.
#[derive(Clone, Copy)]
enum GallopState {
    /// Waiting for the next input reference token.
    Idle,
    /// Walking the entries of fiber `fiber`; `pos` is the cursor the skip
    /// requests gallop forward. The fiber stays addressable at `pos == len`
    /// after its last entry went out (the fiber merge reads it there); the
    /// next pull turns that into the trailing stop.
    Emitting { fiber: usize, pos: usize, len: usize },
    /// The fiber ended; the trailing stop's level depends on the next input
    /// token (Section 3.3's hierarchical rule).
    NeedStop,
    /// The done pair was emitted.
    Finished,
}

/// The level scanner (Definition 3.1, stop rule of Section 3.3) as a lazy
/// producer of `(crd, ref)` token pairs.
///
/// Fused into an intersecter operand it is pulled pair by pair and nothing
/// is stored. The intersecter never walks the coordinates it cannot match:
/// [`GallopScan::skip_to`] gallops the in-flight fiber cursor to a target
/// coordinate and [`GallopScan::skip_rest`] jumps it to the fiber's end.
/// Dense levels jump in O(1), compressed levels binary-search, so a skewed
/// intersection costs the short side's length (times a logarithm), not the
/// long side's. When both operands are fused scans over `Compressed` or
/// `Dense` levels the intersecter does not pull pairs inside a fiber at
/// all: [`merge_open_fibers`] merges the rest of both open fibers over the
/// levels' storage and jumps both cursors to the end, and only the stops
/// between fibers come through [`GallopScan::next_pair`].
///
/// How the host walks is not what the SAM graph moves. A standalone scanner
/// would have emitted one coordinate and one reference token for every
/// entry, so the tally counts a cursor jump of `to - pos` entries as
/// `to - pos` tokens of each: `emitted` is always exactly what classifying
/// the two drained streams would have counted, whether or not anybody
/// materialized the tokens.
pub(crate) struct GallopScan<'a> {
    level: &'a Level,
    input: SliceSource<'a>,
    state: GallopState,
    /// Tokens emitted or skipped so far on both output streams, by class.
    emitted: TokenCounts,
}

impl<'a> GallopScan<'a> {
    /// A scanner over `level`, pulling fiber references from `input` (the
    /// scanner node's reference input stream).
    pub(crate) fn new(level: &'a Level, input: SliceSource<'a>) -> Self {
        GallopScan { level, input, state: GallopState::Idle, emitted: TokenCounts::default() }
    }

    /// The tokens a standalone scanner would have emitted so far on both
    /// output streams, by class — exactly what classifying the two stored
    /// streams would have counted, skipped entries included.
    pub(crate) fn emitted(&self) -> TokenCounts {
        self.emitted
    }

    /// Gallops the current fiber's cursor to the first entry whose
    /// coordinate is at least `target`. Requests outside a fiber are stale
    /// (the fiber already ended) and ignored, like the cycle-level block.
    fn skip_to(&mut self, target: u32) {
        if let GallopState::Emitting { fiber, pos, .. } = self.state {
            self.jump_to(self.level.gallop_from(fiber, pos, target));
        }
    }

    /// Jumps the current fiber's cursor to the fiber's end, so the next
    /// pair is the fiber's stop. A no-op outside a fiber.
    fn skip_rest(&mut self) {
        if let GallopState::Emitting { len, .. } = self.state {
            self.jump_to(len);
        }
    }

    /// Moves the in-flight fiber's cursor forward to `to`, counting the
    /// entries jumped over as the coordinate and reference tokens a
    /// standalone scanner would have emitted for them.
    fn jump_to(&mut self, to: usize) {
        if let GallopState::Emitting { pos, .. } = &mut self.state {
            let skipped = (to - *pos) as u64;
            self.emitted.crd += skipped;
            self.emitted.refs += skipped;
            *pos = to;
        }
    }

    /// The next `(crd, ref)` token pair, or `None` after the stream ends.
    fn next_pair(&mut self) -> Option<(SimToken, SimToken)> {
        loop {
            match self.state {
                GallopState::Emitting { fiber, pos, len } => {
                    if pos < len {
                        let e = self.level.entry_at(fiber, pos);
                        self.state = GallopState::Emitting { fiber, pos: pos + 1, len };
                        self.emitted.crd += 1;
                        self.emitted.refs += 1;
                        return Some((tok::crd(e.coord), tok::rf(e.child as u32)));
                    }
                    self.state = GallopState::NeedStop;
                }
                GallopState::NeedStop => {
                    self.state = GallopState::Idle;
                    self.emitted.stop += 2;
                    // One-token lookahead upgrades the trailing stop when the
                    // input closes outer fibers at the same point.
                    if let Some(Token::Stop(n)) = self.input.peek() {
                        self.input.next();
                        return Some((tok::stop(n + 1), tok::stop(n + 1)));
                    }
                    return Some((tok::stop(0), tok::stop(0)));
                }
                GallopState::Idle => match self.input.next()? {
                    Token::Val(p) => {
                        let fiber = p.expect_ref() as usize;
                        let len = self.level.fiber_len(fiber);
                        self.state = if len == 0 {
                            GallopState::NeedStop
                        } else {
                            GallopState::Emitting { fiber, pos: 0, len }
                        };
                    }
                    Token::Empty => self.state = GallopState::NeedStop,
                    Token::Stop(n) => {
                        self.emitted.stop += 2;
                        return Some((tok::stop(n + 1), tok::stop(n + 1)));
                    }
                    Token::Done => {
                        self.state = GallopState::Finished;
                        self.emitted.done += 2;
                        return Some((tok::done(), tok::done()));
                    }
                },
                GallopState::Finished => return None,
            }
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
    /// A fused scanner, pulled pair by pair and skipped forward on request.
    Scan(GallopScan<'a>),
}

impl IntersectOperand<'_> {
    fn fetch(&mut self) -> Option<(SimToken, SimToken)> {
        match self {
            IntersectOperand::Streams { crd, rf } => fetch_pair(crd, rf),
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
            IntersectOperand::Scan(scan) => Some(scan.emitted()),
        }
    }
}

/// One fiber of a `Compressed` or `Dense` level as the fiber merge reads it
/// from storage: entries at positions `0..len()`, coordinates increasing.
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

/// Intersects fiber `a` from position `i` and fiber `b` from position `j`
/// to their ends, galloping the trailing side on every mismatch and
/// pushing tokens only for the matches.
fn merge_fibers<A: FiberView, B: FiberView>(
    a: A,
    mut i: usize,
    b: B,
    mut j: usize,
    oc: &mut Vec<SimToken>,
    o0: &mut Vec<SimToken>,
    o1: &mut Vec<SimToken>,
) {
    while i < a.len() && j < b.len() {
        let (ca, cb) = (a.coord(i), b.coord(j));
        match ca.cmp(&cb) {
            Ordering::Equal => {
                oc.push(tok::crd(ca));
                o0.push(a.child(i));
                o1.push(b.child(j));
                i += 1;
                j += 1;
            }
            Ordering::Less => i = a.gallop(i + 1, cb),
            Ordering::Greater => j = b.gallop(j + 1, ca),
        }
    }
}

/// The whole-fiber intersection: when both operands are fused scans inside
/// an open fiber of a `Compressed` or `Dense` level, merges the rest of
/// both fibers — from the entries just pulled, one before each cursor —
/// and jumps both cursors to their fiber's end, tallying what is left of
/// each fiber exactly as [`GallopScan::skip_rest`] does. Returns `false`
/// and touches nothing for any other operand pair, which the caller walks
/// one pair at a time.
fn merge_open_fibers(
    a: &mut IntersectOperand<'_>,
    b: &mut IntersectOperand<'_>,
    oc: &mut Vec<SimToken>,
    o0: &mut Vec<SimToken>,
    o1: &mut Vec<SimToken>,
) -> bool {
    let (IntersectOperand::Scan(a), IntersectOperand::Scan(b)) = (a, b) else { return false };
    let (
        GallopState::Emitting { fiber: fa, pos: pa, len: la },
        GallopState::Emitting { fiber: fb, pos: pb, len: lb },
    ) = (a.state, b.state)
    else {
        return false;
    };
    let (i, j) = (pa - 1, pb - 1);
    match (a.level, b.level) {
        (Level::Compressed(x), Level::Compressed(y)) => {
            merge_fibers(CompressedFiber::new(x, fa), i, CompressedFiber::new(y, fb), j, oc, o0, o1);
        }
        (Level::Compressed(x), Level::Dense(y)) => {
            merge_fibers(CompressedFiber::new(x, fa), i, DenseFiber::new(y, fb), j, oc, o0, o1);
        }
        (Level::Dense(x), Level::Compressed(y)) => {
            merge_fibers(DenseFiber::new(x, fa), i, CompressedFiber::new(y, fb), j, oc, o0, o1);
        }
        (Level::Dense(x), Level::Dense(y)) => {
            merge_fibers(DenseFiber::new(x, fa), i, DenseFiber::new(y, fb), j, oc, o0, o1);
        }
        _ => return false,
    }
    a.jump_to(la);
    b.jump_to(lb);
    true
}

/// Intersecter transfer function (Definition 3.2): a two-finger merge that
/// walks the short side. Two fused scans over `Compressed` / `Dense` levels
/// merge a whole fiber pair at a time ([`merge_open_fibers`]); otherwise
/// the walk takes one pair at a time: on a mismatch the trailing operand
/// skips to the leading one's coordinate, and once one operand's fiber has
/// ended the other skips the rest of its own — neither can match anything
/// on the way. Whether the graph wires a Section 4.2 skip lane does not
/// matter here: a fused scanner tallies what it skipped, so the streams and
/// every count are those of the plain merge over stored streams.
pub(crate) fn run_intersect(
    a: &mut IntersectOperand<'_>,
    b: &mut IntersectOperand<'_>,
    oc: &mut Vec<SimToken>,
    o0: &mut Vec<SimToken>,
    o1: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let mut ta = a.fetch().ok_or(Fault::Misaligned)?;
    let mut tb = b.fetch().ok_or(Fault::Misaligned)?;
    loop {
        match (ta.0, tb.0) {
            (Token::Val(pa), Token::Val(pb)) => {
                if merge_open_fibers(a, b, oc, o0, o1) {
                    // Both fibers are merged: the next pulls are their stops.
                    ta = a.fetch().ok_or(Fault::Misaligned)?;
                    tb = b.fetch().ok_or(Fault::Misaligned)?;
                    continue;
                }
                let ca = pa.expect_crd();
                let cb = pb.expect_crd();
                if ca == cb {
                    oc.push(tok::crd(ca));
                    o0.push(ta.1);
                    o1.push(tb.1);
                    ta = a.fetch().ok_or(Fault::Misaligned)?;
                    tb = b.fetch().ok_or(Fault::Misaligned)?;
                } else if ca < cb {
                    // The trailing side gallops straight to the coordinate
                    // the leading side is waiting at.
                    a.skip_to(cb);
                    ta = a.fetch().ok_or(Fault::Misaligned)?;
                } else {
                    b.skip_to(ca);
                    tb = b.fetch().ok_or(Fault::Misaligned)?;
                }
            }
            // The other side's fiber is over: the tail of this one is dead.
            (Token::Val(_), Token::Stop(_) | Token::Done) => {
                a.skip_rest();
                ta = a.fetch().ok_or(Fault::Misaligned)?;
            }
            (Token::Stop(_) | Token::Done, Token::Val(_)) => {
                b.skip_rest();
                tb = b.fetch().ok_or(Fault::Misaligned)?;
            }
            (Token::Val(_) | Token::Empty, _) => {
                ta = a.fetch().ok_or(Fault::Misaligned)?;
            }
            (_, Token::Empty) => {
                tb = b.fetch().ok_or(Fault::Misaligned)?;
            }
            (Token::Stop(na), Token::Stop(nb)) => {
                let s = tok::stop(na.max(nb));
                oc.push(s);
                o0.push(s);
                o1.push(s);
                ta = a.fetch().ok_or(Fault::Misaligned)?;
                tb = b.fetch().ok_or(Fault::Misaligned)?;
            }
            (Token::Done, Token::Done) => {
                oc.push(tok::done());
                o0.push(tok::done());
                o1.push(tok::done());
                break;
            }
            (Token::Stop(_), Token::Done) => {
                ta = a.fetch().ok_or(Fault::Misaligned)?;
            }
            (Token::Done, Token::Stop(_)) => {
                tb = b.fetch().ok_or(Fault::Misaligned)?;
            }
        }
    }
    Ok(())
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
                let s = tok::stop(na.max(nb));
                oc.push(s);
                o0.push(s);
                o1.push(s);
                a = fetch_pair(c0, r0).ok_or(Fault::Misaligned)?;
                b = fetch_pair(c1, r1).ok_or(Fault::Misaligned)?;
            }
            (Token::Done, Token::Done) => {
                oc.push(tok::done());
                o0.push(tok::done());
                o1.push(tok::done());
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
                        oc.push(tok::empty());
                        pass.push(tok::empty());
                        located.push(tok::empty());
                    }
                }
            }
            (Token::Empty, _) | (_, Token::Empty) => {
                oc.push(tok::empty());
                pass.push(tok::empty());
                located.push(tok::empty());
            }
            (Token::Stop(nc), Token::Stop(nr)) => {
                let s = tok::stop(nc.max(nr));
                oc.push(s);
                pass.push(s);
                located.push(s);
            }
            (Token::Done, Token::Done) => {
                oc.push(tok::done());
                pass.push(tok::done());
                located.push(tok::done());
                break;
            }
            _ => return Err(Fault::Misaligned),
        }
    }
    Ok(())
}

/// Array-in-load-mode transfer function (Definition 3.5).
fn run_array(vals: &[f64], input: &mut SliceSource<'_>, out: &mut Vec<SimToken>) -> Result<(), Fault> {
    while let Some(t) = input.next() {
        match t {
            Token::Val(p) => {
                let r = p.expect_ref() as usize;
                if r >= vals.len() {
                    return Err(Fault::RefOutOfBounds(r));
                }
                out.push(tok::val(vals[r]));
            }
            Token::Empty => out.push(tok::empty()),
            Token::Stop(n) => out.push(tok::stop(n)),
            Token::Done => {
                out.push(tok::done());
                break;
            }
        }
    }
    Ok(())
}

/// Constant-source transfer function: one scalar per data token of the
/// shape stream, empty and control tokens mirrored through.
fn run_const(value: f64, input: &mut SliceSource<'_>, out: &mut Vec<SimToken>) {
    while let Some(t) = input.next() {
        match t {
            Token::Val(_) => out.push(tok::val(value)),
            Token::Empty => out.push(tok::empty()),
            Token::Stop(n) => out.push(tok::stop(n)),
            Token::Done => {
                out.push(tok::done());
                break;
            }
        }
    }
}

/// ALU transfer function (Definition 3.6): empty tokens read as zero.
fn run_alu(
    op: AluOp,
    a: &mut SliceSource<'_>,
    b: &mut SliceSource<'_>,
    out: &mut Vec<SimToken>,
) -> Result<(), Fault> {
    let apply = |x: f64, y: f64| match op {
        AluOp::Add => x + y,
        AluOp::Sub => x - y,
        AluOp::Mul => x * y,
    };
    loop {
        let (Some(ta), Some(tb)) = (a.next(), b.next()) else {
            return Err(Fault::Misaligned);
        };
        match (ta, tb) {
            (Token::Val(pa), Token::Val(pb)) => out.push(tok::val(apply(pa.expect_val(), pb.expect_val()))),
            (Token::Val(pa), Token::Empty) => out.push(tok::val(apply(pa.expect_val(), 0.0))),
            (Token::Empty, Token::Val(pb)) => out.push(tok::val(apply(0.0, pb.expect_val()))),
            (Token::Empty, Token::Empty) => out.push(tok::val(apply(0.0, 0.0))),
            (Token::Stop(na), Token::Stop(nb)) => out.push(tok::stop(na.max(nb))),
            (Token::Done, Token::Done) => {
                out.push(tok::done());
                break;
            }
            _ => return Err(Fault::Misaligned),
        }
    }
    Ok(())
}

/// Scalar reducer transfer function (Definition 3.7, order 0). An empty
/// fiber sums to an explicit zero, so the value stream stays aligned with
/// the outer coordinate streams feeding the writers.
fn run_reduce_scalar(input: &mut SliceSource<'_>, out: &mut Vec<SimToken>) {
    let mut acc = 0.0;
    while let Some(t) = input.next() {
        match t {
            Token::Val(p) => acc += p.expect_val(),
            Token::Empty => {}
            Token::Stop(n) => {
                out.push(tok::val(acc));
                acc = 0.0;
                if n > 0 {
                    out.push(tok::stop(n - 1));
                }
            }
            Token::Done => {
                out.push(tok::done());
                break;
            }
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
                oo.push(tok::done());
                oi.push(tok::done());
                ov.push(tok::done());
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
            oo.push(tok::stop(level));
            oi.push(tok::stop(level));
            ov.push(tok::stop(level));
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
        // The reference streams' shape: outer fibers of inner fibers of
        // slots, each slot one fiber pair. Either list may be empty.
        let shape: Vec<Vec<usize>> = (0..rng.gen_range(0usize..4))
            .map(|_| (0..rng.gen_range(0usize..4)).map(|_| rng.gen_range(0usize..4)).collect())
            .collect();
        let slots: usize = shape.iter().flatten().sum();
        let mut fibers = [Vec::with_capacity(slots), Vec::with_capacity(slots)];
        for _ in 0..slots {
            let [a, b] = fiber_pair(rng, empty_bias);
            fibers[0].push(a);
            fibers[1].push(b);
        }
        // Now and then one operand is an entirely empty level.
        if rng.gen::<f64>() < 0.1 {
            fibers[rng.gen_range(0usize..2)].iter_mut().for_each(Vec::clear);
        }
        // Each operand stores its fibers in its own order.
        let orders = [0, 1].map(|_| {
            let mut order: Vec<usize> = (0..slots).collect();
            order.shuffle(rng);
            order
        });
        let word_width = [8, 64][rng.gen_range(0usize..2)];
        let levels = [0, 1].map(|o| {
            let mut stored = vec![Vec::new(); slots];
            for (slot, &at) in orders[o].iter().enumerate() {
                stored[at].clone_from(&fibers[o][slot]);
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
                            tok::rf(orders[o][slot] as u32)
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

    /// The `(crd, ref)` streams a standalone scanner stores.
    fn stored(level: &Level, refs: &[SimToken]) -> [Vec<SimToken>; 2] {
        let (mut crd, mut rf) = (Vec::new(), Vec::new());
        run_scanner(level, SliceSource::new(refs), &mut crd, &mut rf);
        [crd, rf]
    }

    fn streams(stored: &[Vec<SimToken>; 2]) -> IntersectOperand<'_> {
        IntersectOperand::Streams { crd: SliceSource::new(&stored[0]), rf: SliceSource::new(&stored[1]) }
    }

    fn scan<'a>(level: &'a Level, refs: &'a [SimToken]) -> IntersectOperand<'a> {
        IntersectOperand::Scan(GallopScan::new(level, SliceSource::new(refs)))
    }

    fn intersect<'a>(
        a: &mut IntersectOperand<'a>,
        b: &mut IntersectOperand<'a>,
    ) -> Result<[Vec<SimToken>; 3], Fault> {
        let [mut oc, mut o0, mut o1] = [Vec::new(), Vec::new(), Vec::new()];
        run_intersect(a, b, &mut oc, &mut o0, &mut o1)?;
        Ok([oc, o0, o1])
    }

    /// A fused scanner's tally is what the driver would have counted for
    /// the standalone scanner's stored streams, class by class.
    fn assert_tally(operand: &IntersectOperand<'_>, stored: &[Vec<SimToken>; 2], what: &str) {
        let mut want = TokenCounts::default();
        stored.iter().flatten().for_each(|t| want.record(t));
        assert_eq!(operand.emitted(), Some(want), "{what}: tally");
    }

    /// The pair walk over two stored streams is the reference: the fiber
    /// merge (both fused, compressed / dense), the galloped pair walk (a
    /// bitvector side) and every fused-against-stored mix must produce its
    /// streams token for token, and each fused scan's tally its counts.
    #[test]
    fn the_galloped_walk_equals_the_stored_stream_walk_token_for_token() -> Result<(), Fault> {
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        let mut rng = StdRng::seed_from_u64(19);
        let mut matched = 0;
        for fa in formats {
            for fb in formats {
                for round in 0..40 {
                    let what = format!("{fa:?} x {fb:?}, round {round}");
                    let Case { levels: [la, lb], refs: [ra, rb] } = case(&mut rng, [fa, fb]);
                    let (sa, sb) = (stored(&la, &ra), stored(&lb, &rb));
                    let want = intersect(&mut streams(&sa), &mut streams(&sb))?;
                    matched += want[0].iter().filter(|t| matches!(t, Token::Val(_))).count();

                    let (mut a, mut b) = (scan(&la, &ra), scan(&lb, &rb));
                    assert_eq!(intersect(&mut a, &mut b)?, want, "{what}: both fused");
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
        Ok(())
    }

    /// The differential test above only proves the merge right where it
    /// runs; this pins where it runs: two fused scans over compressed or
    /// dense levels, nothing else.
    #[test]
    fn the_fiber_merge_takes_two_fused_compressed_or_dense_scans_only() {
        let fibers = [vec![1, 4, 9]];
        let refs = [tok::rf(0), tok::stop(0), tok::done()];
        let formats = [Format::Compressed, Format::Dense, Format::Bitvector];
        for fa in formats {
            for fb in formats {
                let (la, lb) = (level_of(fa, 8, &fibers), level_of(fb, 8, &fibers));
                let sb = stored(&lb, &refs);
                let mut pairs = [(scan(&la, &refs), scan(&lb, &refs)), (scan(&la, &refs), streams(&sb))];
                for (k, (a, b)) in pairs.iter_mut().enumerate() {
                    // Open both first fibers, as the intersecter's first pulls do.
                    assert!(a.fetch().is_some() && b.fetch().is_some());
                    let [mut oc, mut o0, mut o1] = [Vec::new(), Vec::new(), Vec::new()];
                    let merged = merge_open_fibers(a, b, &mut oc, &mut o0, &mut o1);
                    let bitvector = matches!(fa, Format::Bitvector) || matches!(fb, Format::Bitvector);
                    assert_eq!(merged, k == 0 && !bitvector, "{fa:?} x {fb:?}, pair {k}");
                    assert_eq!(oc.is_empty(), !merged, "{fa:?} x {fb:?}, pair {k}: pushes only if merged");
                }
            }
        }
    }
}
