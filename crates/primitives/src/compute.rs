//! Computation blocks: ALUs and reducers (paper Definitions 3.6 and 3.7).

use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context, SimToken};
use sam_streams::Token;
use std::collections::{BTreeMap, VecDeque};

/// The arithmetic operation performed by an [`Alu`].
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
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            AluOp::Add => a + b,
            AluOp::Sub => a - b,
            AluOp::Mul => a * b,
        }
    }
}

/// A streaming two-input ALU (Definition 3.6).
///
/// Consumes two aligned value streams and produces one value stream,
/// treating empty (`N`) tokens as zeros. Control tokens of the two inputs
/// must agree and are passed through.
#[derive(Debug)]
pub struct Alu {
    name: String,
    op: AluOp,
    in_val: [ChannelId; 2],
    out_val: ChannelId,
    done: bool,
}

impl Alu {
    /// Creates an ALU applying `op`.
    pub fn new(name: impl Into<String>, op: AluOp, in_val: [ChannelId; 2], out_val: ChannelId) -> Self {
        Alu { name: name.into(), op, in_val, out_val, done: false }
    }
}

impl Block for Alu {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let (Some(a), Some(b)) = (ctx.peek(self.in_val[0]).cloned(), ctx.peek(self.in_val[1]).cloned())
        else {
            return ctx.stall();
        };
        match (a, b) {
            (Token::Val(pa), Token::Val(pb)) => {
                ctx.pop(self.in_val[0]);
                ctx.pop(self.in_val[1]);
                ctx.push(self.out_val, tok::val(self.op.apply(pa.expect_val(), pb.expect_val())));
                BlockStatus::Busy
            }
            (Token::Val(pa), Token::Empty) => {
                ctx.pop(self.in_val[0]);
                ctx.pop(self.in_val[1]);
                ctx.push(self.out_val, tok::val(self.op.apply(pa.expect_val(), 0.0)));
                BlockStatus::Busy
            }
            (Token::Empty, Token::Val(pb)) => {
                ctx.pop(self.in_val[0]);
                ctx.pop(self.in_val[1]);
                ctx.push(self.out_val, tok::val(self.op.apply(0.0, pb.expect_val())));
                BlockStatus::Busy
            }
            (Token::Empty, Token::Empty) => {
                ctx.pop(self.in_val[0]);
                ctx.pop(self.in_val[1]);
                ctx.push(self.out_val, tok::val(self.op.apply(0.0, 0.0)));
                BlockStatus::Busy
            }
            (Token::Stop(na), Token::Stop(nb)) => {
                debug_assert_eq!(na, nb, "ALU inputs must have matching fiber structure");
                ctx.pop(self.in_val[0]);
                ctx.pop(self.in_val[1]);
                ctx.push(self.out_val, tok::stop(na.max(nb)));
                BlockStatus::Busy
            }
            (Token::Done, Token::Done) => {
                ctx.pop(self.in_val[0]);
                ctx.pop(self.in_val[1]);
                ctx.push(self.out_val, tok::done());
                self.done = true;
                BlockStatus::Done
            }
            // Structural mismatches: wait for the lagging side.
            _ => BlockStatus::Busy,
        }
    }
}

/// A constant-value source: re-emits one scalar for every data token of its
/// shape input stream.
///
/// The shape stream is normally a fork of the value stream the constant
/// combines with in a downstream [`Alu`]; empty (`N`) tokens pass through as
/// empty (the position is absent either way) and control tokens mirror, so
/// the constant stream is always structurally aligned with its sibling.
#[derive(Debug)]
pub struct ConstVal {
    name: String,
    value: f64,
    input: ChannelId,
    output: ChannelId,
    done: bool,
}

impl ConstVal {
    /// Creates a constant source emitting `value`.
    pub fn new(name: impl Into<String>, value: f64, input: ChannelId, output: ChannelId) -> Self {
        ConstVal { name: name.into(), value, input, output, done: false }
    }
}

impl Block for ConstVal {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let Some(t) = ctx.pop(self.input) else {
            return ctx.stall();
        };
        match t {
            Token::Val(_) => {
                ctx.push(self.output, tok::val(self.value));
                BlockStatus::Busy
            }
            Token::Empty => {
                ctx.push(self.output, tok::empty());
                BlockStatus::Busy
            }
            Token::Stop(n) => {
                ctx.push(self.output, tok::stop(n));
                BlockStatus::Busy
            }
            Token::Done => {
                ctx.push(self.output, tok::done());
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

/// A reducer of configurable accumulation order (Definition 3.7).
///
/// * order 0 (scalar): sums each innermost fiber of its value stream into a
///   single value — an explicit zero for an empty fiber, so the output stays
///   aligned with the outer coordinate streams,
/// * order 1 (vector): accumulates `(coordinate, value)` pairs across inner
///   fibers and emits a deduplicated, sorted fiber whenever a stop of level
///   ≥ 1 closes the accumulation (Figure 7),
/// * order 2 (matrix): accumulates `(outer, inner, value)` triples and emits
///   the accumulated matrix when the stream ends (used by outer-product
///   dataflows).
#[derive(Debug)]
pub struct Reducer {
    name: String,
    order: usize,
    in_crd: Vec<ChannelId>,
    in_val: ChannelId,
    out_crd: Vec<ChannelId>,
    out_val: ChannelId,
    // Scalar state.
    acc: f64,
    // Vector state.
    vec_acc: BTreeMap<u32, f64>,
    // Matrix state.
    mat_acc: BTreeMap<(u32, u32), f64>,
    current_outer: Option<u32>,
    // Pending emissions, one per cycle: (crd tokens per output, val token).
    pending: VecDeque<(Vec<SimToken>, SimToken)>,
    done: bool,
}

impl Reducer {
    /// Creates a scalar reducer (order 0).
    pub fn scalar(name: impl Into<String>, in_val: ChannelId, out_val: ChannelId) -> Self {
        Self::new(name, 0, vec![], in_val, vec![], out_val)
    }

    /// Creates a vector reducer (order 1).
    pub fn vector(
        name: impl Into<String>,
        in_crd: ChannelId,
        in_val: ChannelId,
        out_crd: ChannelId,
        out_val: ChannelId,
    ) -> Self {
        Self::new(name, 1, vec![in_crd], in_val, vec![out_crd], out_val)
    }

    /// Creates a matrix reducer (order 2). The first coordinate channel is
    /// the outer level (one coordinate per inner fiber), the second the inner
    /// level (aligned with the value stream).
    pub fn matrix(
        name: impl Into<String>,
        in_crd: [ChannelId; 2],
        in_val: ChannelId,
        out_crd: [ChannelId; 2],
        out_val: ChannelId,
    ) -> Self {
        Self::new(name, 2, in_crd.to_vec(), in_val, out_crd.to_vec(), out_val)
    }

    fn new(
        name: impl Into<String>,
        order: usize,
        in_crd: Vec<ChannelId>,
        in_val: ChannelId,
        out_crd: Vec<ChannelId>,
        out_val: ChannelId,
    ) -> Self {
        assert!(order <= 2, "reducers of order {order} are not supported");
        Reducer {
            name: name.into(),
            order,
            in_crd,
            in_val,
            out_crd,
            out_val,
            acc: 0.0,
            vec_acc: BTreeMap::new(),
            mat_acc: BTreeMap::new(),
            current_outer: None,
            pending: VecDeque::new(),
            done: false,
        }
    }

    /// Queues one output element.
    fn queue(&mut self, crds: Vec<SimToken>, val: SimToken) {
        debug_assert_eq!(crds.len(), self.out_crd.len());
        self.pending.push_back((crds, val));
    }

    fn flush_pending(&mut self, ctx: &mut Context) -> bool {
        if let Some((crds, val)) = self.pending.pop_front() {
            for (chan, t) in self.out_crd.iter().zip(crds) {
                ctx.push(*chan, t);
            }
            ctx.push(self.out_val, val);
            true
        } else {
            false
        }
    }

    fn flush_vector(&mut self, closing_stop: Option<u8>) {
        let acc = std::mem::take(&mut self.vec_acc);
        for (c, v) in acc {
            self.queue(vec![tok::crd(c)], tok::val(v));
        }
        if let Some(level) = closing_stop {
            self.queue(vec![tok::stop(level)], tok::stop(level));
        }
    }

    fn flush_matrix(&mut self, closing_stop: Option<u8>) {
        let acc = std::mem::take(&mut self.mat_acc);
        let mut by_outer: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
        for ((o, i), v) in acc {
            by_outer.entry(o).or_default().push((i, v));
        }
        let n = by_outer.len();
        for (idx, (o, inners)) in by_outer.into_iter().enumerate() {
            let last_fiber = idx + 1 == n;
            let m = inners.len();
            for (jdx, (i, v)) in inners.into_iter().enumerate() {
                let last_inner = jdx + 1 == m;
                // The outer coordinate accompanies the first element of its
                // fiber; subsequent elements carry an empty slot on the outer
                // coordinate output so that streams stay aligned one token
                // per cycle.
                let outer_tok = if jdx == 0 { tok::crd(o) } else { tok::empty() };
                self.queue(vec![outer_tok, tok::crd(i)], tok::val(v));
                if last_inner {
                    // Fiber boundaries appear on the inner coordinate and
                    // value outputs; the outer coordinate output is a single
                    // top-level fiber, so it only receives the final stop.
                    let level = if last_fiber { closing_stop.unwrap_or(1) } else { 0 };
                    let outer_boundary =
                        if last_fiber { tok::stop(level.saturating_sub(1)) } else { tok::empty() };
                    self.queue(vec![outer_boundary, tok::stop(level)], tok::stop(level));
                }
            }
        }
        if n == 0 {
            if let Some(level) = closing_stop {
                self.queue(vec![tok::stop(level), tok::stop(level)], tok::stop(level));
            }
        }
    }
}

impl Block for Reducer {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done && self.pending.is_empty() {
            return BlockStatus::Done;
        }
        // Drain pending emissions first, one per cycle. (Neither return
        // below is a stall: the first follows a push, the second waits on
        // no channel.)
        if self.flush_pending(ctx) {
            if self.pending.is_empty() && self.done {
                return BlockStatus::Done;
            }
            return BlockStatus::Busy;
        }
        if self.done {
            return BlockStatus::Busy;
        }

        match self.order {
            0 => self.tick_scalar(ctx),
            1 => self.tick_vector(ctx),
            _ => self.tick_matrix(ctx),
        }
    }
}

impl Reducer {
    fn tick_scalar(&mut self, ctx: &mut Context) -> BlockStatus {
        let Some(t) = ctx.peek(self.in_val).cloned() else {
            return ctx.stall();
        };
        ctx.pop(self.in_val);
        match t {
            Token::Val(p) => {
                self.acc += p.expect_val();
                BlockStatus::Busy
            }
            Token::Empty => BlockStatus::Busy,
            Token::Stop(n) => {
                ctx.push(self.out_val, tok::val(self.acc));
                self.acc = 0.0;
                if n > 0 {
                    self.queue(vec![], tok::stop(n - 1));
                }
                BlockStatus::Busy
            }
            Token::Done => {
                ctx.push(self.out_val, tok::done());
                self.done = true;
                BlockStatus::Done
            }
        }
    }

    fn tick_vector(&mut self, ctx: &mut Context) -> BlockStatus {
        let (Some(c), Some(v)) = (ctx.peek(self.in_crd[0]).cloned(), ctx.peek(self.in_val).cloned()) else {
            return ctx.stall();
        };
        match (c, v) {
            (Token::Val(pc), Token::Val(pv)) => {
                ctx.pop(self.in_crd[0]);
                ctx.pop(self.in_val);
                *self.vec_acc.entry(pc.expect_crd()).or_insert(0.0) += pv.expect_val();
                BlockStatus::Busy
            }
            (Token::Empty, _) | (_, Token::Empty) => {
                ctx.pop(self.in_crd[0]);
                ctx.pop(self.in_val);
                BlockStatus::Busy
            }
            (Token::Stop(nc), Token::Stop(nv)) => {
                debug_assert_eq!(nc, nv, "reducer inputs must have matching structure");
                ctx.pop(self.in_crd[0]);
                ctx.pop(self.in_val);
                let n = nc.max(nv);
                if n == 0 {
                    // End of one inner fiber: keep accumulating.
                } else {
                    // The accumulation scope closed: emit the reduced fiber.
                    self.flush_vector(Some(n - 1));
                }
                BlockStatus::Busy
            }
            (Token::Done, Token::Done) => {
                ctx.pop(self.in_crd[0]);
                ctx.pop(self.in_val);
                if !self.vec_acc.is_empty() {
                    self.flush_vector(None);
                }
                self.queue(vec![tok::done()], tok::done());
                self.done = true;
                BlockStatus::Busy
            }
            _ => BlockStatus::Busy,
        }
    }

    fn tick_matrix(&mut self, ctx: &mut Context) -> BlockStatus {
        // Keep the current outer coordinate up to date.
        if self.current_outer.is_none() {
            if let Some(Token::Val(p)) = ctx.peek(self.in_crd[0]).cloned() {
                ctx.pop(self.in_crd[0]);
                self.current_outer = Some(p.expect_crd());
            }
        }
        // (A tick that fetched the outer coordinate above has popped, so
        // neither wait below is a stall.)
        let (Some(c), Some(v)) = (ctx.peek(self.in_crd[1]).cloned(), ctx.peek(self.in_val).cloned()) else {
            return ctx.stall();
        };
        match (c, v) {
            (Token::Val(pc), Token::Val(pv)) => {
                let Some(outer) = self.current_outer else {
                    return ctx.stall();
                };
                ctx.pop(self.in_crd[1]);
                ctx.pop(self.in_val);
                *self.mat_acc.entry((outer, pc.expect_crd())).or_insert(0.0) += pv.expect_val();
                BlockStatus::Busy
            }
            (Token::Empty, _) | (_, Token::Empty) => {
                ctx.pop(self.in_crd[1]);
                ctx.pop(self.in_val);
                BlockStatus::Busy
            }
            (Token::Stop(_), Token::Stop(_)) => {
                ctx.pop(self.in_crd[1]);
                ctx.pop(self.in_val);
                // End of one inner fiber: the next fiber belongs to the next
                // outer coordinate. Consume the outer stream's stop tokens
                // opportunistically.
                self.current_outer = None;
                if let Some(Token::Stop(_)) = ctx.peek(self.in_crd[0]) {
                    ctx.pop(self.in_crd[0]);
                }
                BlockStatus::Busy
            }
            (Token::Done, Token::Done) => {
                ctx.pop(self.in_crd[1]);
                ctx.pop(self.in_val);
                while let Some(t) = ctx.peek(self.in_crd[0]) {
                    let finished = t.is_done();
                    ctx.pop(self.in_crd[0]);
                    if finished {
                        break;
                    }
                }
                self.flush_matrix(Some(1));
                self.queue(vec![tok::done(), tok::done()], tok::done());
                self.done = true;
                BlockStatus::Busy
            }
            _ => BlockStatus::Busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::Simulator;

    fn vals(tokens: &[SimToken]) -> Vec<f64> {
        tokens.iter().filter_map(|t| t.value_ref().map(|p| p.expect_val())).collect()
    }

    fn crds(tokens: &[SimToken]) -> Vec<u32> {
        tokens.iter().filter_map(|t| t.value_ref().map(|p| p.expect_crd())).collect()
    }

    #[test]
    fn alu_multiplies_and_handles_empty() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Alu::new("mul", AluOp::Mul, [a, b], out)));
        sim.preload(a, vec![tok::val(2.0), tok::val(3.0), Token::Empty, tok::stop(0), tok::done()]);
        sim.preload(b, vec![tok::val(5.0), Token::Empty, tok::val(7.0), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(vals(sim.history(out)), vec![10.0, 0.0, 0.0]);
        assert!(sim.history(out).iter().any(|t| t.is_stop()));
    }

    #[test]
    fn alu_add_and_sub() {
        for (op, expect) in [(AluOp::Add, 7.0), (AluOp::Sub, 3.0)] {
            let mut sim = Simulator::new();
            let a = sim.add_channel("a");
            let b = sim.add_channel("b");
            let out = sim.add_channel("out");
            sim.record(out);
            sim.add_block(Box::new(Alu::new("alu", op, [a, b], out)));
            sim.preload(a, vec![tok::val(5.0), tok::stop(0), tok::done()]);
            sim.preload(b, vec![tok::val(2.0), tok::stop(0), tok::done()]);
            sim.run(100).unwrap();
            assert_eq!(vals(sim.history(out)), vec![expect]);
        }
    }

    #[test]
    fn scalar_reducer_sums_inner_fibers() {
        // Value stream ((1), (2, 3), (4, 5)) reduces to (1, 5, 9).
        let mut sim = Simulator::new();
        let input = sim.add_channel("in");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Reducer::scalar("red", input, out)));
        sim.preload(
            input,
            vec![
                tok::val(1.0),
                tok::stop(0),
                tok::val(2.0),
                tok::val(3.0),
                tok::stop(0),
                tok::val(4.0),
                tok::val(5.0),
                tok::stop(1),
                tok::done(),
            ],
        );
        sim.run(100).unwrap();
        assert_eq!(vals(sim.history(out)), vec![1.0, 5.0, 9.0]);
        // The level-1 stop is demoted to level 0.
        assert_eq!(sim.history(out).iter().filter(|t| t.stop_level() == Some(0)).count(), 1);
    }

    #[test]
    fn scalar_reducer_policy_on_empty_fiber() {
        // ((1, 2), ()) reduces to (3, 0): the empty fiber is an explicit zero.
        let mut sim = Simulator::new();
        let input = sim.add_channel("in");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Reducer::scalar("red", input, out)));
        sim.preload(input, vec![tok::val(1.0), tok::val(2.0), tok::stop(0), tok::stop(1), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(vals(sim.history(out)), vec![3.0, 0.0]);
    }

    #[test]
    fn figure7_vector_reducer() {
        // Paper Figure 7: accumulate the columns of the Figure 1 matrix.
        let mut sim = Simulator::new();
        let in_crd = sim.add_channel("in_crd");
        let in_val = sim.add_channel("in_val");
        let out_crd = sim.add_channel("out_crd");
        let out_val = sim.add_channel("out_val");
        sim.record(out_crd);
        sim.record(out_val);
        sim.add_block(Box::new(Reducer::vector("red", in_crd, in_val, out_crd, out_val)));
        sim.preload(
            in_crd,
            vec![
                tok::crd(1),
                tok::stop(0),
                tok::crd(0),
                tok::crd(2),
                tok::stop(0),
                tok::crd(1),
                tok::crd(3),
                tok::stop(1),
                tok::done(),
            ],
        );
        sim.preload(
            in_val,
            vec![
                tok::val(1.0),
                tok::stop(0),
                tok::val(2.0),
                tok::val(3.0),
                tok::stop(0),
                tok::val(4.0),
                tok::val(5.0),
                tok::stop(1),
                tok::done(),
            ],
        );
        sim.run(100).unwrap();
        assert_eq!(crds(sim.history(out_crd)), vec![0, 1, 2, 3]);
        assert_eq!(vals(sim.history(out_val)), vec![2.0, 5.0, 3.0, 5.0]);
        assert_eq!(sim.history(out_crd).iter().filter(|t| t.is_stop()).count(), 1);
    }

    #[test]
    fn vector_reducer_deduplicates_multiple_groups() {
        // Two accumulation groups separated by a level-1 stop.
        let mut sim = Simulator::new();
        let in_crd = sim.add_channel("in_crd");
        let in_val = sim.add_channel("in_val");
        let out_crd = sim.add_channel("out_crd");
        let out_val = sim.add_channel("out_val");
        sim.record(out_crd);
        sim.record(out_val);
        sim.add_block(Box::new(Reducer::vector("red", in_crd, in_val, out_crd, out_val)));
        sim.preload(
            in_crd,
            vec![
                tok::crd(2),
                tok::stop(0),
                tok::crd(2),
                tok::stop(1),
                tok::crd(0),
                tok::stop(2),
                tok::done(),
            ],
        );
        sim.preload(
            in_val,
            vec![
                tok::val(1.0),
                tok::stop(0),
                tok::val(10.0),
                tok::stop(1),
                tok::val(7.0),
                tok::stop(2),
                tok::done(),
            ],
        );
        sim.run(100).unwrap();
        assert_eq!(crds(sim.history(out_crd)), vec![2, 0]);
        assert_eq!(vals(sim.history(out_val)), vec![11.0, 7.0]);
    }

    #[test]
    fn matrix_reducer_accumulates_outer_products() {
        // Two outer-product contributions to the same (i, j) cell.
        let mut sim = Simulator::new();
        let in_i = sim.add_channel("in_i");
        let in_j = sim.add_channel("in_j");
        let in_val = sim.add_channel("in_val");
        let out_i = sim.add_channel("out_i");
        let out_j = sim.add_channel("out_j");
        let out_val = sim.add_channel("out_val");
        sim.record(out_i);
        sim.record(out_j);
        sim.record(out_val);
        sim.add_block(Box::new(Reducer::matrix("red", [in_i, in_j], in_val, [out_i, out_j], out_val)));
        // k=0 contributes (i=1, j=2) -> 3.0; k=1 contributes (1,2) -> 4.0 and (1,3) -> 5.0.
        sim.preload(in_i, vec![tok::crd(1), tok::stop(0), tok::crd(1), tok::stop(1), tok::done()]);
        sim.preload(
            in_j,
            vec![tok::crd(2), tok::stop(0), tok::crd(2), tok::crd(3), tok::stop(1), tok::done()],
        );
        sim.preload(
            in_val,
            vec![tok::val(3.0), tok::stop(0), tok::val(4.0), tok::val(5.0), tok::stop(1), tok::done()],
        );
        sim.run(200).unwrap();
        assert_eq!(crds(sim.history(out_j)), vec![2, 3]);
        assert_eq!(vals(sim.history(out_val)), vec![7.0, 5.0]);
        // The outer coordinate 1 appears once, with an empty filler for the
        // second element of its fiber.
        let outer: Vec<u32> = crds(sim.history(out_i));
        assert_eq!(outer, vec![1]);
    }
}
