//! Computation blocks: ALUs, the constant source and reducers (paper
//! Definitions 3.6 and 3.7). Each block is the timing of its rule in
//! [`crate::rule`].

use crate::rule::{self, AluOp, MatrixReduce, ScalarReduce, VectorReduce};
use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context, Fault, SimToken};
use sam_streams::Token;
use std::collections::VecDeque;

/// A streaming two-input ALU (Definition 3.6, [`rule::alu`]): one aligned
/// pair of value tokens in and one value token out per cycle.
#[derive(Debug)]
pub struct Alu {
    name: String,
    op: AluOp,
    in_val: [ChannelId; 2],
    out_val: ChannelId,
}

impl Alu {
    /// Creates an ALU applying `op`.
    pub fn new(name: impl Into<String>, op: AluOp, in_val: [ChannelId; 2], out_val: ChannelId) -> Self {
        Alu { name: name.into(), op, in_val, out_val }
    }
}

impl Block for Alu {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        let (Some(a), Some(b)) = (ctx.peek(self.in_val[0]).copied(), ctx.peek(self.in_val[1]).copied())
        else {
            return ctx.stall();
        };
        match rule::alu(self.op, a, b) {
            Ok(v) => {
                ctx.pop(self.in_val[0]);
                ctx.pop(self.in_val[1]);
                ctx.push(self.out_val, v);
                crate::status(v.is_done())
            }
            Err(fault) => BlockStatus::Fault(fault),
        }
    }
}

/// A constant-value source ([`rule::constant`]): re-emits one scalar for
/// every data token of its shape input stream, one token per cycle.
///
/// The shape stream is normally a fork of the value stream the constant
/// combines with in a downstream [`Alu`], so the constant stream is always
/// structurally aligned with its sibling.
#[derive(Debug)]
pub struct ConstVal {
    name: String,
    value: f64,
    input: ChannelId,
    output: ChannelId,
}

impl ConstVal {
    /// Creates a constant source emitting `value`.
    pub fn new(name: impl Into<String>, value: f64, input: ChannelId, output: ChannelId) -> Self {
        ConstVal { name: name.into(), value, input, output }
    }
}

impl Block for ConstVal {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        let Some(t) = ctx.pop(self.input) else {
            return ctx.stall();
        };
        let v = rule::constant(self.value, t);
        ctx.push(self.output, v);
        crate::status(v.is_done())
    }
}

/// A reducer of accumulation order 0 (scalar, [`ScalarReduce`]), 1 (vector,
/// [`VectorReduce`]) or 2 (matrix, [`MatrixReduce`]), Definition 3.7.
///
/// It pops one token per input per cycle and emits at most one token per
/// output per cycle: the scalar reducer pushes a fiber's sum in the cycle
/// that reads the closing stop and queues the stop one level down for the
/// next; the vector and matrix reducers queue everything a token closes.
/// A queued token goes out before anything more is read.
#[derive(Debug)]
pub struct Reducer {
    name: String,
    /// The coordinate inputs (outer first), then the value input.
    ins: Vec<ChannelId>,
    /// The coordinate outputs (outer first), then the value output.
    outs: Vec<ChannelId>,
    rule: Order,
    /// Emissions waiting for a cycle, a token per output (the first
    /// `outs.len()` of each entry).
    pending: VecDeque<[SimToken; 3]>,
    done: bool,
}

/// A [`Reducer`]'s rule.
#[derive(Debug)]
enum Order {
    Scalar(ScalarReduce),
    Vector(VectorReduce),
    Matrix(MatrixReduce),
}

impl Reducer {
    /// Creates a scalar reducer (order 0).
    pub fn scalar(name: impl Into<String>, in_val: ChannelId, out_val: ChannelId) -> Self {
        Self::new(name, Order::Scalar(ScalarReduce::default()), vec![in_val], vec![out_val])
    }

    /// Creates a vector reducer (order 1).
    pub fn vector(
        name: impl Into<String>,
        in_crd: ChannelId,
        in_val: ChannelId,
        out_crd: ChannelId,
        out_val: ChannelId,
    ) -> Self {
        Self::new(name, Order::Vector(VectorReduce::default()), vec![in_crd, in_val], vec![out_crd, out_val])
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
        let [io, ii] = in_crd;
        let [oo, oi] = out_crd;
        Self::new(name, Order::Matrix(MatrixReduce::default()), vec![io, ii, in_val], vec![oo, oi, out_val])
    }

    fn new(name: impl Into<String>, rule: Order, ins: Vec<ChannelId>, outs: Vec<ChannelId>) -> Self {
        Reducer { name: name.into(), ins, outs, rule, pending: VecDeque::new(), done: false }
    }

    /// One cycle's work once nothing is queued.
    fn read(&mut self, ctx: &mut Context) -> Result<BlockStatus, Fault> {
        let Reducer { ins, outs, rule, pending, done, .. } = self;
        let queue = |p: &mut VecDeque<_>, t: &[SimToken]| {
            let mut entry = [tok::done(); 3];
            entry[..t.len()].copy_from_slice(t);
            p.push_back(entry);
        };
        match rule {
            Order::Scalar(rule) => {
                let Some(t) = ctx.pop(ins[0]) else {
                    return Ok(ctx.stall());
                };
                let mut first = true;
                rule.step(t, |v| {
                    if std::mem::take(&mut first) {
                        ctx.push(outs[0], v);
                    } else {
                        queue(pending, &[v]);
                    }
                })?;
                *done = t.is_done();
                return Ok(crate::status(*done));
            }
            Order::Vector(rule) => {
                let (Some(c), Some(v)) = (ctx.peek(ins[0]).copied(), ctx.peek(ins[1]).copied()) else {
                    return Ok(ctx.stall());
                };
                rule.step(c, v, |t| queue(pending, &t))?;
                ctx.pop(ins[0]);
                ctx.pop(ins[1]);
                *done = c.is_done() && v.is_done();
            }
            Order::Matrix(rule) => {
                // Take the next inner fiber's outer coordinate if it is
                // there. (A tick that took it has popped, so neither wait
                // below is a stall.)
                if let Some(&o) = ctx.peek(ins[0]) {
                    if rule.open(o)? {
                        ctx.pop(ins[0]);
                    }
                }
                let (Some(i), Some(v)) = (ctx.peek(ins[1]).copied(), ctx.peek(ins[2]).copied()) else {
                    return Ok(ctx.stall());
                };
                if !rule.step(i, v, |t| queue(pending, &t))? {
                    // A data pair waits for its outer coordinate.
                    return Ok(ctx.stall());
                }
                ctx.pop(ins[1]);
                ctx.pop(ins[2]);
                match (i, v) {
                    // The outer stream's stop closing the same fiber, if it
                    // has arrived.
                    (Token::Stop(_), Token::Stop(_)) => {
                        if let Some(Token::Stop(_)) = ctx.peek(ins[0]) {
                            ctx.pop(ins[0]);
                        }
                    }
                    // Whatever of the outer stream has arrived, up to its
                    // done token.
                    (Token::Done, Token::Done) => {
                        while let Some(o) = ctx.pop(ins[0]) {
                            if o.is_done() {
                                break;
                            }
                        }
                        *done = true;
                    }
                    _ => {}
                }
            }
        }
        // A vector or matrix reducer pushes nothing in the cycle it reads.
        Ok(BlockStatus::Busy)
    }
}

impl Block for Reducer {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        // Drain pending emissions first, one per cycle.
        if let Some(entry) = self.pending.pop_front() {
            for (&out, t) in self.outs.iter().zip(entry) {
                ctx.push(out, t);
            }
            return crate::status(self.done && self.pending.is_empty());
        }
        if self.done {
            return BlockStatus::Done;
        }
        self.read(ctx).unwrap_or_else(BlockStatus::Fault)
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

    /// Heads that cannot line up end the run with the block's fault, in the
    /// cycle that reads them.
    #[test]
    fn misaligned_heads_fault_instead_of_spinning() {
        let fault = |sim: &mut Simulator| match sim.run(1000) {
            Err(sam_sim::SimulationError::Fault { cycle, block, fault }) => (cycle, block, fault),
            other => panic!("expected a fault, got {other:?}"),
        };
        // An ALU whose operands close their fibers at different points.
        let mut sim = Simulator::new();
        let [a, b, out] = ["a", "b", "out"].map(|n| sim.add_channel(n));
        sim.add_block(Box::new(Alu::new("mul", AluOp::Mul, [a, b], out)));
        sim.preload(a, vec![tok::val(2.0), tok::val(3.0), tok::stop(0), tok::done()]);
        sim.preload(b, vec![tok::val(5.0), tok::stop(0), tok::done()]);
        assert_eq!(fault(&mut sim), (1, "mul".into(), Fault::Misaligned));

        // A vector reducer whose coordinate stream outlasts its values.
        let mut sim = Simulator::new();
        let [c, v, oc, ov] = ["c", "v", "oc", "ov"].map(|n| sim.add_channel(n));
        sim.add_block(Box::new(Reducer::vector("red", c, v, oc, ov)));
        sim.preload(c, vec![tok::crd(0), tok::crd(1), tok::stop(1), tok::done()]);
        sim.preload(v, vec![tok::val(1.0), tok::stop(1), tok::done()]);
        assert_eq!(fault(&mut sim), (1, "red".into(), Fault::Misaligned));

        // A matrix reducer whose value stream carries a coordinate.
        let mut sim = Simulator::new();
        let [i, j, v, oi, oj, ov] = ["i", "j", "v", "oi", "oj", "ov"].map(|n| sim.add_channel(n));
        sim.add_block(Box::new(Reducer::matrix("red", [i, j], v, [oi, oj], ov)));
        sim.preload(i, vec![tok::crd(1), tok::stop(0), tok::done()]);
        sim.preload(j, vec![tok::crd(2), tok::stop(1), tok::done()]);
        sim.preload(v, vec![tok::crd(3), tok::stop(1), tok::done()]);
        assert_eq!(fault(&mut sim), (0, "red".into(), Fault::Misaligned));

        // A scalar reducer fed references.
        let mut sim = Simulator::new();
        let [input, out] = ["in", "out"].map(|n| sim.add_channel(n));
        sim.add_block(Box::new(Reducer::scalar("sum", input, out)));
        sim.preload(input, vec![tok::rf(0), tok::stop(0), tok::done()]);
        assert_eq!(fault(&mut sim), (0, "sum".into(), Fault::Misaligned));
    }
}
