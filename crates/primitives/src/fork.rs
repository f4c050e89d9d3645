//! Stream fan-out.
//!
//! Paper figures draw one stream feeding several consumers implicitly; a
//! simulator channel has exactly one reader, so the cycle backend inserts a
//! [`Fork`] wherever the planner found more than one consumer on a port.

use sam_sim::{Block, BlockStatus, ChannelId, Context};
use sam_streams::Token;

/// Copies every token of its input to each of its outputs.
#[derive(Debug)]
pub struct Fork {
    name: String,
    input: ChannelId,
    outputs: Vec<ChannelId>,
    done: bool,
}

impl Fork {
    /// Creates a fork with the given outputs.
    pub fn new(name: impl Into<String>, input: ChannelId, outputs: Vec<ChannelId>) -> Self {
        Fork { name: name.into(), input, outputs, done: false }
    }
}

impl Block for Fork {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let Some(t) = ctx.peek(self.input).cloned() else {
            return ctx.stall();
        };
        ctx.pop(self.input);
        for &o in &self.outputs {
            ctx.push(o, t);
        }
        if matches!(t, Token::Done) {
            self.done = true;
            BlockStatus::Done
        } else {
            BlockStatus::Busy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::tok;
    use sam_sim::Simulator;

    #[test]
    fn fork_duplicates_streams() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        let c = sim.add_channel("c");
        sim.add_block(Box::new(Fork::new("f", a, vec![b, c])));
        sim.record(b);
        sim.record(c);
        sim.preload(a, vec![tok::crd(1), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(sim.history(b), sim.history(c));
        assert_eq!(sim.history(b).len(), 3);
    }
}
