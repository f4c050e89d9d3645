//! The lockstep timing shared by the array (paper Definition 3.5), the
//! constant source, the ALU (3.6), the locator (4.1) and the writers (3.8):
//! one token from every input and one onto every output per cycle.

use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context, Fault, SimToken};
use std::fmt;

/// A cycle block of `I` inputs and `O` outputs that, each cycle its inputs
/// all hold a token, hands their heads to `step` — the primitive's token
/// rule — pops them and pushes the `O` tokens the rule returns. It waits
/// while any head is missing, reports done in the cycle it takes its
/// inputs' done tokens, and a rule's fault ends the run.
pub struct Lockstep<F, const I: usize, const O: usize> {
    name: String,
    ins: [ChannelId; I],
    outs: [ChannelId; O],
    step: F,
}

impl<F, const I: usize, const O: usize> Lockstep<F, I, O>
where
    F: FnMut([SimToken; I]) -> Result<[SimToken; O], Fault> + Send + 'static,
{
    /// Creates a block reading `ins` and writing `outs` through `step`.
    pub fn new(name: impl Into<String>, ins: [ChannelId; I], outs: [ChannelId; O], step: F) -> Self {
        Lockstep { name: name.into(), ins, outs, step }
    }
}

impl<F, const I: usize, const O: usize> fmt::Debug for Lockstep<F, I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lockstep")
            .field("name", &self.name)
            .field("ins", &self.ins)
            .field("outs", &self.outs)
            .finish_non_exhaustive()
    }
}

impl<F, const I: usize, const O: usize> Block for Lockstep<F, I, O>
where
    F: FnMut([SimToken; I]) -> Result<[SimToken; O], Fault> + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        // Every input is looked at, so a stalled block wakes on any of
        // them. A lone input's head is taken as it is read: nothing else
        // can hold it back, and a fault ends the run. The heads are
        // gathered before any is checked: one loop that stored them and a
        // flag read the ALU 5 % slower (its heads went through the stack).
        let mut heads = [None; I];
        for (head, &c) in heads.iter_mut().zip(&self.ins) {
            *head = if I == 1 { ctx.pop(c) } else { ctx.peek(c).copied() };
        }
        let mut taken = [tok::done(); I];
        for (t, head) in taken.iter_mut().zip(heads) {
            match head {
                Some(head) => *t = head,
                None => return ctx.stall(),
            }
        }
        let out = match (self.step)(taken) {
            Ok(out) => out,
            Err(fault) => return BlockStatus::Fault(fault),
        };
        if I > 1 {
            for &c in &self.ins {
                ctx.pop(c);
            }
        }
        for (&c, t) in self.outs.iter().zip(out) {
            ctx.push(c, t);
        }
        crate::status(taken.iter().all(SimToken::is_done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::{SimulationError, Simulator};

    /// A block missing one input's head reports `Stalled`, so it is ticked
    /// once and then sleeps, and pops nothing.
    #[test]
    fn a_missing_head_stalls_and_pops_nothing() {
        let mut sim = Simulator::new();
        let [a, b, out] = ["a", "b", "out"].map(|n| sim.add_channel(n));
        sim.record(out);
        sim.add_block(Box::new(Lockstep::new("pair", [a, b], [out], |[x, _]| Ok([x]))));
        sim.preload(a, [tok::crd(1), tok::done()]);
        assert!(matches!(sim.run(100), Err(SimulationError::Deadlock { .. })));
        assert_eq!(sim.block_ticks(0), 1);
        assert_eq!(sim.channel(a).len(), 2);
        assert!(sim.history(out).is_empty());
    }
}
