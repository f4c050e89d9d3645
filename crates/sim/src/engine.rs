//! The simulation engine: block scheduling, cycle counting and reporting.

use crate::channel::{Channel, ChannelId};
use crate::payload::SimToken;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a block reports after one cycle of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStatus {
    /// The block may still produce or consume tokens.
    Busy,
    /// The block has propagated its done tokens and will never act again.
    Done,
}

/// A SAM dataflow block as seen by the simulator.
///
/// A block is ticked once per cycle until it reports [`BlockStatus::Done`].
/// During a tick it should consume at most one token per input port and
/// produce at most one token per output port (the paper's fully pipelined
/// model); blocks that need to emit bursts spread them over several cycles.
pub trait Block: Send {
    /// Diagnostic name shown in error messages and reports.
    fn name(&self) -> &str;

    /// Performs one cycle of work.
    fn tick(&mut self, ctx: &mut Context) -> BlockStatus;
}

/// The per-cycle view a block gets of its channels.
pub struct Context<'a> {
    channels: &'a mut [Channel],
    /// The current cycle number.
    pub cycle: u64,
    /// Number of push/pop operations performed this cycle (progress tracking).
    ops: u64,
}

impl fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("channels", &self.channels.len())
            .field("cycle", &self.cycle)
            .field("ops", &self.ops)
            .finish()
    }
}

impl<'a> Context<'a> {
    fn new(channels: &'a mut [Channel], cycle: u64) -> Self {
        Context { channels, cycle, ops: 0 }
    }

    /// Looks at the next token of a channel without consuming it.
    pub fn peek(&self, id: ChannelId) -> Option<&SimToken> {
        self.channels[id.0].peek()
    }

    /// Looks `n` tokens ahead on a channel.
    pub fn peek_nth(&self, id: ChannelId, n: usize) -> Option<&SimToken> {
        self.channels[id.0].peek_nth(n)
    }

    /// Consumes the next token of a channel.
    pub fn pop(&mut self, id: ChannelId) -> Option<SimToken> {
        let t = self.channels[id.0].pop();
        if t.is_some() {
            self.ops += 1;
        }
        t
    }

    /// Whether a channel can accept another token this cycle.
    pub fn can_push(&self, id: ChannelId) -> bool {
        self.channels[id.0].can_push()
    }

    /// Pushes a token into a channel.
    ///
    /// # Panics
    ///
    /// Panics when the channel is a full bounded channel.
    pub fn push(&mut self, id: ChannelId, token: SimToken) {
        self.channels[id.0].push(token);
        self.ops += 1;
    }

    /// Number of tokens currently queued on a channel.
    pub fn queued(&self, id: ChannelId) -> usize {
        self.channels[id.0].len()
    }
}

/// An error terminating a simulation abnormally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimulationError {
    /// The graph stopped making progress before every block finished —
    /// usually a wiring bug or an unsatisfiable bounded-channel cycle.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Names of blocks that were still busy.
        busy_blocks: Vec<String>,
    },
    /// The cycle limit was reached.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::Deadlock { cycle, busy_blocks } => {
                write!(f, "deadlock at cycle {cycle}; busy blocks: {}", busy_blocks.join(", "))
            }
            SimulationError::CycleLimit { limit } => write!(f, "cycle limit of {limit} reached"),
        }
    }
}

impl std::error::Error for SimulationError {}

/// Summary of a completed simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total cycles until every block reported done.
    pub cycles: u64,
    /// Number of blocks simulated.
    pub blocks: usize,
    /// Number of channels simulated.
    pub channels: usize,
    /// Total tokens pushed across all channels.
    pub total_tokens: u64,
}

/// The streaming dataflow simulator.
///
/// ```
/// use sam_sim::{Simulator, Block, BlockStatus, Context, ChannelId};
/// use sam_sim::payload::tok;
///
/// // A block that copies its input to its output.
/// struct Copy { input: ChannelId, output: ChannelId, done: bool }
/// impl Block for Copy {
///     fn name(&self) -> &str { "copy" }
///     fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
///         if self.done { return BlockStatus::Done; }
///         if let Some(t) = ctx.pop(self.input) {
///             self.done = t.is_done();
///             ctx.push(self.output, t);
///         }
///         if self.done { BlockStatus::Done } else { BlockStatus::Busy }
///     }
/// }
///
/// let mut sim = Simulator::new();
/// let a = sim.add_channel("a");
/// let b = sim.add_channel("b");
/// sim.record(b);
/// sim.add_block(Box::new(Copy { input: a, output: b, done: false }));
/// sim.preload(a, [tok::crd(1), tok::stop(0), tok::done()]);
/// let report = sim.run(1000).unwrap();
/// assert_eq!(report.cycles, 3);
/// assert_eq!(sim.history(b).len(), 3);
/// ```
#[derive(Default)]
pub struct Simulator {
    channels: Vec<Channel>,
    blocks: Vec<(Box<dyn Block>, bool)>,
    cycles: u64,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("channels", &self.channels.len())
            .field("blocks", &self.blocks.len())
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Adds an unbounded channel and returns its id.
    pub fn add_channel(&mut self, name: impl Into<String>) -> ChannelId {
        self.channels.push(Channel::new(name));
        ChannelId(self.channels.len() - 1)
    }

    /// Adds a bounded channel with the given capacity.
    pub fn add_bounded_channel(&mut self, name: impl Into<String>, capacity: usize) -> ChannelId {
        self.channels.push(Channel::bounded(name, capacity));
        ChannelId(self.channels.len() - 1)
    }

    /// Enables full token recording on a channel (see [`Simulator::history`]).
    pub fn record(&mut self, id: ChannelId) {
        self.channels[id.0].record();
    }

    /// Adds a block to the schedule.
    pub fn add_block(&mut self, block: Box<dyn Block>) {
        self.blocks.push((block, false));
    }

    /// Pre-loads tokens into a channel before the simulation starts (used for
    /// root reference streams and for testing blocks in isolation).
    pub fn preload<I: IntoIterator<Item = SimToken>>(&mut self, id: ChannelId, tokens: I) {
        for t in tokens {
            self.channels[id.0].push(t);
        }
    }

    /// Number of blocks added so far.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of channels added so far.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Cycles elapsed in the last [`Simulator::run`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Immutable access to a channel (for statistics).
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.0]
    }

    /// The recorded token history of a channel.
    ///
    /// # Panics
    ///
    /// Panics if [`Simulator::record`] was not called for the channel.
    pub fn history(&self, id: ChannelId) -> &[SimToken] {
        let channel = &self.channels[id.0];
        channel.history().unwrap_or_else(|| panic!("channel `{}` was not recorded", channel.name()))
    }

    /// Runs until every block reports done.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::Deadlock`] when no progress is made during
    /// a cycle while blocks are still busy, or
    /// [`SimulationError::CycleLimit`] when `max_cycles` elapse first.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimReport, SimulationError> {
        let mut cycle = 0u64;
        let mut idle_cycles = 0u32;
        loop {
            if self.blocks.iter().all(|(_, done)| *done) {
                break;
            }
            if cycle >= max_cycles {
                self.cycles = cycle;
                return Err(SimulationError::CycleLimit { limit: max_cycles });
            }
            let mut progress = 0u64;
            let mut transitions = 0u64;
            for (block, done) in &mut self.blocks {
                if *done {
                    continue;
                }
                let mut ctx = Context::new(&mut self.channels, cycle);
                let status = block.tick(&mut ctx);
                progress += ctx.ops;
                if status == BlockStatus::Done {
                    *done = true;
                    transitions += 1;
                }
            }
            cycle += 1;
            if progress == 0 && transitions == 0 && !self.blocks.iter().all(|(_, done)| *done) {
                // Blocks may legitimately spend a bounded number of cycles in
                // internal state transitions; a long run of cycles with no
                // channel activity at all means the graph is wedged.
                idle_cycles += 1;
                if idle_cycles > 16 {
                    self.cycles = cycle;
                    return Err(SimulationError::Deadlock {
                        cycle,
                        busy_blocks: self
                            .blocks
                            .iter()
                            .filter(|(_, done)| !done)
                            .map(|(b, _)| b.name().to_string())
                            .collect(),
                    });
                }
            } else {
                idle_cycles = 0;
            }
        }
        self.cycles = cycle;
        Ok(SimReport {
            cycles: cycle,
            blocks: self.blocks.len(),
            channels: self.channels.len(),
            total_tokens: self.channels.iter().map(Channel::total_pushed).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::tok;

    /// Forwards tokens from input to output, one per cycle.
    struct Forward {
        input: ChannelId,
        output: ChannelId,
        done: bool,
    }

    impl Block for Forward {
        fn name(&self) -> &str {
            "forward"
        }
        fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
            if self.done {
                return BlockStatus::Done;
            }
            if ctx.can_push(self.output) {
                if let Some(t) = ctx.pop(self.input) {
                    self.done = t.is_done();
                    ctx.push(self.output, t);
                }
            }
            if self.done {
                BlockStatus::Done
            } else {
                BlockStatus::Busy
            }
        }
    }

    /// A block that never finishes and never touches a channel.
    struct Stuck;
    impl Block for Stuck {
        fn name(&self) -> &str {
            "stuck"
        }
        fn tick(&mut self, _ctx: &mut Context) -> BlockStatus {
            BlockStatus::Busy
        }
    }

    #[test]
    fn pipeline_of_two_forwards() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        let c = sim.add_channel("c");
        sim.record(c);
        sim.add_block(Box::new(Forward { input: a, output: b, done: false }));
        sim.add_block(Box::new(Forward { input: b, output: c, done: false }));
        sim.preload(a, [tok::crd(0), tok::crd(1), tok::stop(0), tok::done()]);
        let report = sim.run(100).unwrap();
        assert_eq!(sim.history(c), &[tok::crd(0), tok::crd(1), tok::stop(0), tok::done()]);
        // Fully pipelined: 4 tokens, back-to-back blocks scheduled in order
        // finish in 4 cycles (the second block sees each token the same cycle).
        assert_eq!(report.cycles, 4);
        assert_eq!(report.blocks, 2);
        assert_eq!(report.channels, 3);
        assert!(report.total_tokens >= 8);
    }

    #[test]
    fn deadlock_detection() {
        let mut sim = Simulator::new();
        sim.add_block(Box::new(Stuck));
        let err = sim.run(100).unwrap_err();
        assert!(matches!(err, SimulationError::Deadlock { .. }));
        assert!(err.to_string().contains("stuck"));
    }

    #[test]
    fn cycle_limit() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        sim.add_block(Box::new(Forward { input: a, output: b, done: false }));
        // Keep the block busy forever by never sending done.
        sim.preload(a, (0..1000).map(tok::crd));
        let err = sim.run(10).unwrap_err();
        assert_eq!(err, SimulationError::CycleLimit { limit: 10 });
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_bounded_channel("b", 1);
        let c = sim.add_channel("c");
        sim.record(c);
        sim.add_block(Box::new(Forward { input: a, output: b, done: false }));
        sim.add_block(Box::new(Forward { input: b, output: c, done: false }));
        sim.preload(a, [tok::crd(0), tok::crd(1), tok::crd(2), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(sim.history(c).len(), 4);
    }

    #[test]
    #[should_panic(expected = "was not recorded")]
    fn history_requires_record() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let _ = sim.history(a);
    }
}
