//! Computation blocks: ALUs, the constant source and the reducer (paper
//! Definitions 3.6 and 3.7). Each block is the timing of its rule in
//! [`crate::rule`]: the ALU and the constant run theirs in [`Lockstep`],
//! and one reducer block, [`Reducer<N>`], serves every order.

use crate::rule::{self, AluOp, Reduce};
use crate::Lockstep;
use sam_sim::{Block, BlockStatus, ChannelId, Context, Fault, SimToken};
use std::collections::VecDeque;

/// A streaming two-input ALU (Definition 3.6) applying `op` ([`rule::alu`]):
/// one aligned pair of value tokens in and one value token out per cycle.
pub fn alu(name: impl Into<String>, op: AluOp, in_val: [ChannelId; 2], out_val: ChannelId) -> impl Block {
    Lockstep::new(name, in_val, [out_val], move |[a, b]| Ok([rule::alu(op, a, b)?]))
}

/// A constant-value source ([`rule::constant`]): re-emits `value` for every
/// data token of its shape input stream, one token per cycle.
///
/// The shape stream is normally a fork of the value stream the constant
/// combines with in a downstream [`alu`], so the constant stream is always
/// structurally aligned with its sibling.
pub fn const_val(name: impl Into<String>, value: f64, input: ChannelId, output: ChannelId) -> impl Block {
    Lockstep::new(name, [input], [output], move |[t]| Ok([rule::constant(value, t)]))
}

/// A reducer of order `N` (Definition 3.7): the timing of [`Reduce`].
///
/// It takes at most one token per input and emits at most one token per
/// output per cycle. Order 0 pushes a fiber's sum in the cycle that reads
/// the closing stop and queues the stop one level down for the next; the
/// higher orders queue everything a token closes. A queued token goes out
/// before anything more is read.
#[derive(Debug)]
pub struct Reducer<const N: usize> {
    name: String,
    /// The coordinate inputs, outer first, and the value input.
    ins: ([ChannelId; N], ChannelId),
    /// The coordinate outputs, outer first, and the value output.
    outs: ([ChannelId; N], ChannelId),
    rule: Reduce<N>,
    /// Emissions waiting for a cycle, a token per output.
    pending: VecDeque<([SimToken; N], SimToken)>,
    done: bool,
}

impl<const N: usize> Reducer<N> {
    /// Creates a reducer of order `N` reading `in_crd`, outer first, and
    /// `in_val`, and writing `out_crd` and `out_val` likewise.
    pub fn new(
        name: impl Into<String>,
        in_crd: [ChannelId; N],
        in_val: ChannelId,
        out_crd: [ChannelId; N],
        out_val: ChannelId,
    ) -> Self {
        Reducer {
            name: name.into(),
            ins: (in_crd, in_val),
            outs: (out_crd, out_val),
            rule: Reduce::default(),
            pending: VecDeque::new(),
            done: false,
        }
    }

    /// One cycle's work once nothing is queued: steps the rule until it
    /// takes the value input's head or nothing, popping what it takes. (A
    /// step that takes only an outer coordinate has not seen the head
    /// behind it.)
    fn read(&mut self, ctx: &mut Context) -> Result<BlockStatus, Fault> {
        let Reducer { ins: (in_crd, in_val), outs: (_, out_val), rule, pending, .. } = self;
        let mut now = N == 0;
        loop {
            let mut crd = [None; N];
            for (head, &c) in crd.iter_mut().zip(in_crd.iter()) {
                *head = ctx.peek(c).copied();
            }
            // Order 0 reads one input, whose head the rule always takes.
            let val = if N == 0 { ctx.pop(*in_val) } else { ctx.peek(*in_val).copied() };
            let took = rule.step(crd, val, |crd, v| {
                if std::mem::take(&mut now) {
                    ctx.push(*out_val, v);
                } else {
                    pending.push_back((crd, v));
                }
            })?;
            for (&c, took) in in_crd.iter().zip(took.crd) {
                if took {
                    ctx.pop(c);
                }
            }
            if took.val {
                if N > 0 {
                    ctx.pop(*in_val);
                }
                self.done = val.is_some_and(|v| v.is_done());
                // Done once the done token is out: order 0 has pushed it,
                // the others queue it.
                return Ok(crate::status(self.done && pending.is_empty()));
            }
            if !took.crd.contains(&true) {
                return Ok(ctx.stall());
            }
        }
    }
}

impl<const N: usize> Block for Reducer<N> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        // Drain pending emissions first, one per cycle.
        if let Some((crd, val)) = self.pending.pop_front() {
            for (&out, t) in self.outs.0.iter().zip(crd) {
                ctx.push(out, t);
            }
            ctx.push(self.outs.1, val);
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
    use sam_sim::payload::tok;
    use sam_sim::Simulator;
    use sam_streams::Token;

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
        sim.add_block(Box::new(alu("mul", AluOp::Mul, [a, b], out)));
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
            sim.add_block(Box::new(alu("alu", op, [a, b], out)));
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
        sim.add_block(Box::new(Reducer::<0>::new("red", [], input, [], out)));
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
        sim.add_block(Box::new(Reducer::<0>::new("red", [], input, [], out)));
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
        sim.add_block(Box::new(Reducer::<1>::new("red", [in_crd], in_val, [out_crd], out_val)));
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
        sim.add_block(Box::new(Reducer::<1>::new("red", [in_crd], in_val, [out_crd], out_val)));
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
        sim.add_block(Box::new(Reducer::<2>::new("red", [in_i, in_j], in_val, [out_i, out_j], out_val)));
        // k=0 contributes (i=1, j=2) -> 3.0; k=1 contributes (1,2) -> 4.0 and (1,3) -> 5.0.
        sim.preload(in_i, vec![tok::crd(1), tok::stop(0), tok::crd(1), tok::stop(1), tok::done()]);
        sim.preload(
            in_j,
            vec![tok::crd(2), tok::stop(1), tok::crd(2), tok::crd(3), tok::stop(2), tok::done()],
        );
        sim.preload(
            in_val,
            vec![tok::val(3.0), tok::stop(1), tok::val(4.0), tok::val(5.0), tok::stop(2), tok::done()],
        );
        sim.run(200).unwrap();
        // The outer coordinate 1 appears once, with an empty filler for the
        // second element of its fiber.
        assert_eq!(sim.history(out_i), [tok::crd(1), Token::Empty, tok::stop(0), tok::done()]);
        assert_eq!(sim.history(out_j), [tok::crd(2), tok::crd(3), tok::stop(1), tok::done()]);
        assert_eq!(sim.history(out_val), [tok::val(7.0), tok::val(5.0), tok::stop(1), tok::done()]);
    }

    /// A matrix reduction under an outer loop flushes at each stop that
    /// closes the reduced fiber, not only at done.
    #[test]
    fn matrix_reducer_flushes_each_reduced_fiber() -> Result<(), sam_sim::SimulationError> {
        let mut sim = Simulator::new();
        let [i, j, v, oi, oj, ov] = ["i", "j", "v", "oi", "oj", "ov"].map(|n| sim.add_channel(n));
        for c in [oi, oj, ov] {
            sim.record(c);
        }
        sim.add_block(Box::new(Reducer::<2>::new("red", [i, j], v, [oi, oj], ov)));
        // Outer fiber l=0: k=0 holds (i=1: j=2), (i=3: j=0); k=1 holds
        // (i=1: j=2). Outer fiber l=1: one k without entries.
        sim.preload(
            i,
            vec![
                tok::crd(1),
                tok::crd(3),
                tok::stop(0),
                tok::crd(1),
                tok::stop(1),
                tok::stop(2),
                tok::done(),
            ],
        );
        let inner = |x: fn(u32) -> SimToken| {
            vec![x(2), tok::stop(0), x(0), tok::stop(1), x(2), tok::stop(2), tok::stop(3), tok::done()]
        };
        sim.preload(j, inner(tok::crd));
        sim.preload(v, inner(|c| tok::val(f64::from(c) + 0.5)));
        sim.run(200)?;
        let e = Token::Empty;
        assert_eq!(sim.history(oi), [tok::crd(1), e, tok::crd(3), tok::stop(0), tok::stop(1), tok::done()]);
        assert_eq!(
            sim.history(oj),
            [tok::crd(2), tok::stop(0), tok::crd(0), tok::stop(1), tok::stop(2), tok::done()]
        );
        assert_eq!(
            sim.history(ov),
            [tok::val(5.0), tok::stop(0), tok::val(0.5), tok::stop(1), tok::stop(2), tok::done()]
        );
        Ok(())
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
        sim.add_block(Box::new(alu("mul", AluOp::Mul, [a, b], out)));
        sim.preload(a, vec![tok::val(2.0), tok::val(3.0), tok::stop(0), tok::done()]);
        sim.preload(b, vec![tok::val(5.0), tok::stop(0), tok::done()]);
        assert_eq!(fault(&mut sim), (1, "mul".into(), Fault::Misaligned));

        // A vector reducer whose coordinate stream outlasts its values.
        let mut sim = Simulator::new();
        let [c, v, oc, ov] = ["c", "v", "oc", "ov"].map(|n| sim.add_channel(n));
        sim.add_block(Box::new(Reducer::<1>::new("red", [c], v, [oc], ov)));
        sim.preload(c, vec![tok::crd(0), tok::crd(1), tok::stop(1), tok::done()]);
        sim.preload(v, vec![tok::val(1.0), tok::stop(1), tok::done()]);
        assert_eq!(fault(&mut sim), (1, "red".into(), Fault::Misaligned));

        // A matrix reducer whose value stream carries a coordinate.
        let mut sim = Simulator::new();
        let [i, j, v, oi, oj, ov] = ["i", "j", "v", "oi", "oj", "ov"].map(|n| sim.add_channel(n));
        sim.add_block(Box::new(Reducer::<2>::new("red", [i, j], v, [oi, oj], ov)));
        sim.preload(i, vec![tok::crd(1), tok::stop(0), tok::done()]);
        sim.preload(j, vec![tok::crd(2), tok::stop(1), tok::done()]);
        sim.preload(v, vec![tok::crd(3), tok::stop(1), tok::done()]);
        assert_eq!(fault(&mut sim), (0, "red".into(), Fault::Misaligned));

        // A scalar reducer fed references.
        let mut sim = Simulator::new();
        let [input, out] = ["in", "out"].map(|n| sim.add_channel(n));
        sim.add_block(Box::new(Reducer::<0>::new("sum", [], input, [], out)));
        sim.preload(input, vec![tok::rf(0), tok::stop(0), tok::done()]);
        assert_eq!(fault(&mut sim), (0, "sum".into(), Fault::Misaligned));
    }
}
