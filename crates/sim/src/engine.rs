//! The simulation engine: block scheduling, cycle counting and reporting.

use crate::channel::{Channel, ChannelId};
use crate::payload::{Fault, SimToken};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a block reports after one cycle of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStatus {
    /// The block may still produce or consume tokens: tick it again next
    /// cycle. Always a safe answer.
    Busy,
    /// This tick pushed nothing, popped nothing and assigned none of the
    /// block's fields, so ticking it again is pointless until a channel it
    /// examined *in this tick* changes. The block sleeps until one does.
    Stalled,
    /// The block has propagated its done tokens and will never act again.
    Done,
    /// The block's token rule rejected its input tokens: the run ends
    /// with [`SimulationError::Fault`] naming the block.
    Fault(Fault),
}

/// A SAM dataflow block as seen by the simulator.
///
/// A block is ticked every cycle while it reports [`BlockStatus::Busy`],
/// sleeps after [`BlockStatus::Stalled`] until a channel it examined in that
/// tick is pushed into, and is never ticked again after
/// [`BlockStatus::Done`]; [`BlockStatus::Fault`] ends the run.
/// During a tick it should consume at most one token per input port and
/// produce at most one token per output port (the paper's fully pipelined
/// model); blocks that need to emit bursts spread them over several cycles.
///
/// A tick must be a function of the block's own fields and of the channels
/// it examines through the [`Context`] — that is what makes skipping a
/// stalled block exact: re-run before one of those channels changed, it
/// would repeat the same nothing. Hence the rule for `Stalled`: report it
/// only from a tick that so far has pushed nothing, popped nothing **and
/// assigned no field**. [`Context::stall`] checks the first two (and the
/// engine rejects a `Stalled` tick that touched a channel); the third is the
/// author's to check. A tick that advances a counter, a cursor or a state
/// machine without touching a channel reports `Busy`.
pub trait Block: Send {
    /// Diagnostic name shown in error messages and reports.
    fn name(&self) -> &str;

    /// Performs one cycle of work.
    fn tick(&mut self, ctx: &mut Context) -> BlockStatus;
}

/// The per-cycle view a block gets of its channels.
///
/// Every look at a channel (`peek`, `peek_nth`, `pop`) stamps the ticking
/// block on it as its reader, which is how a channel learns whom to wake
/// when a token is pushed.
pub struct Context<'a> {
    channels: &'a mut [Channel],
    /// The engine's ready set, one bit per block.
    ready: &'a mut [u64],
    /// Index of the block being ticked.
    block: usize,
    /// The current cycle number.
    pub cycle: u64,
    /// Number of push/pop operations performed this tick (progress tracking).
    ops: u64,
}

/// Marks `block` ready in a ready set.
fn wake(ready: &mut [u64], block: usize) {
    ready[block / 64] |= 1 << (block % 64);
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

impl Context<'_> {
    /// Looks at the next token of a channel without consuming it.
    pub fn peek(&mut self, id: ChannelId) -> Option<&SimToken> {
        let channel = &mut self.channels[id.0];
        channel.attach_reader(self.block);
        channel.peek()
    }

    /// Looks `n` tokens ahead on a channel.
    pub fn peek_nth(&mut self, id: ChannelId, n: usize) -> Option<&SimToken> {
        let channel = &mut self.channels[id.0];
        channel.attach_reader(self.block);
        channel.peek_nth(n)
    }

    /// Consumes the next token of a channel.
    pub fn pop(&mut self, id: ChannelId) -> Option<SimToken> {
        let channel = &mut self.channels[id.0];
        channel.attach_reader(self.block);
        let t = channel.pop();
        if t.is_some() {
            self.ops += 1;
        }
        t
    }

    /// Pushes a token into a channel and wakes its reader.
    pub fn push(&mut self, id: ChannelId, token: SimToken) {
        let channel = &mut self.channels[id.0];
        channel.push(token);
        if let Some(reader) = channel.reader() {
            wake(self.ready, reader);
        }
        self.ops += 1;
    }

    /// The status of a tick that found nothing to do and assigned no field:
    /// [`BlockStatus::Stalled`] when it also touched no channel, else
    /// [`BlockStatus::Busy`] (see [`Block`] for the rule).
    pub fn stall(&self) -> BlockStatus {
        if self.ops == 0 {
            BlockStatus::Stalled
        } else {
            BlockStatus::Busy
        }
    }
}

/// An error terminating a simulation abnormally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimulationError {
    /// The graph stopped making progress before every block finished —
    /// usually a wiring bug.
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
    /// A block's token rule rejected the tokens at its inputs.
    Fault {
        /// Cycle in which the block observed the fault.
        cycle: u64,
        /// Name of the block.
        block: String,
        /// What the rule found.
        fault: Fault,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::Deadlock { cycle, busy_blocks } => {
                write!(f, "deadlock at cycle {cycle}; busy blocks: {}", busy_blocks.join(", "))
            }
            SimulationError::CycleLimit { limit } => write!(f, "cycle limit of {limit} reached"),
            SimulationError::Fault { cycle, block, fault } => {
                write!(f, "block `{block}` found {fault} at cycle {cycle}")
            }
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
///         // Nothing to copy: sleep until `input` is pushed into.
///         let Some(t) = ctx.pop(self.input) else { return ctx.stall() };
///         self.done = t.is_done();
///         ctx.push(self.output, t);
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
    blocks: Vec<Slot>,
    cycles: u64,
}

/// A scheduled block and what the engine has seen of it.
struct Slot {
    block: Box<dyn Block>,
    /// Ticks run so far.
    ticks: u64,
    /// Cycles elapsed when the block reported [`BlockStatus::Done`].
    done_cycle: Option<u64>,
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

    /// Adds a channel and returns its id.
    pub fn add_channel(&mut self, name: impl Into<String>) -> ChannelId {
        self.channels.push(Channel::new(name));
        ChannelId(self.channels.len() - 1)
    }

    /// Enables full token recording on a channel (see [`Simulator::history`]).
    pub fn record(&mut self, id: ChannelId) {
        self.channels[id.0].record();
    }

    /// Adds a block to the schedule.
    pub fn add_block(&mut self, block: Box<dyn Block>) {
        self.blocks.push(Slot { block, ticks: 0, done_cycle: None });
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

    /// Cycles elapsed in the last [`Simulator::run`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Ticks the `block`-th added block has run. A block is not ticked
    /// while it is stalled, so against [`Simulator::cycles`] this is the
    /// share of the run the block was not waiting on a channel.
    pub fn block_ticks(&self, block: usize) -> u64 {
        self.blocks[block].ticks
    }

    /// Cycles elapsed when the `block`-th added block reported
    /// [`BlockStatus::Done`]; `None` while it has not.
    pub fn block_done_cycle(&self, block: usize) -> Option<u64> {
        self.blocks[block].done_cycle
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
    /// Each cycle ticks the ready blocks in the order they were added. A
    /// block woken by an earlier block runs in the same cycle, one woken by a
    /// later block (a feedback edge) in the next: a token is visible to its
    /// reader exactly when it would be if every block were ticked every
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::Fault`] when a block reports a fault,
    /// [`SimulationError::Deadlock`] when no progress is made during a cycle
    /// while blocks are still busy, or [`SimulationError::CycleLimit`] when
    /// `max_cycles` elapse first.
    ///
    /// # Panics
    ///
    /// Panics when a block reports [`BlockStatus::Stalled`] from a tick that
    /// pushed or popped a token.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimReport, SimulationError> {
        let mut ready = vec![0u64; self.blocks.len().div_ceil(64)];
        (0..self.blocks.len()).for_each(|block| wake(&mut ready, block));
        let mut remaining = self.blocks.iter().filter(|slot| slot.done_cycle.is_none()).count();
        let mut cycle = 0u64;
        let mut idle_cycles = 0u32;
        while remaining > 0 {
            if cycle >= max_cycles {
                self.cycles = cycle;
                return Err(SimulationError::CycleLimit { limit: max_cycles });
            }
            let mut progress = 0u64;
            let mut transitions = 0u64;
            for word in 0..ready.len() {
                // Re-read the word after every tick: the tick may have woken
                // a later block of this word, which then runs this cycle.
                let mut visited = 0u64;
                while let Some(bit) = lowest_set(ready[word] & !visited) {
                    visited = u64::MAX >> (63 - bit);
                    let index = word * 64 + bit;
                    let slot = &mut self.blocks[index];
                    if slot.done_cycle.is_some() {
                        // Woken by a push it will never read.
                        ready[word] &= !(1 << bit);
                        continue;
                    }
                    let mut ctx = Context {
                        channels: &mut self.channels,
                        ready: &mut ready,
                        block: index,
                        cycle,
                        ops: 0,
                    };
                    let status = slot.block.tick(&mut ctx);
                    let ops = ctx.ops;
                    slot.ticks += 1;
                    progress += ops;
                    match status {
                        BlockStatus::Busy => {}
                        BlockStatus::Stalled => {
                            assert!(
                                ops == 0,
                                "block `{}` reported Stalled from a tick with {ops} channel operations",
                                slot.block.name()
                            );
                            ready[word] &= !(1 << bit);
                        }
                        BlockStatus::Done => {
                            slot.done_cycle = Some(cycle + 1);
                            ready[word] &= !(1 << bit);
                            remaining -= 1;
                            transitions += 1;
                        }
                        BlockStatus::Fault(fault) => {
                            self.cycles = cycle + 1;
                            return Err(SimulationError::Fault {
                                cycle,
                                block: slot.block.name().to_string(),
                                fault,
                            });
                        }
                    }
                }
            }
            cycle += 1;
            if progress == 0 && transitions == 0 && remaining > 0 {
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
                            .filter(|slot| slot.done_cycle.is_none())
                            .map(|slot| slot.block.name().to_string())
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

/// Index of the lowest set bit of `word`.
fn lowest_set(word: u64) -> Option<usize> {
    (word != 0).then(|| word.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::tok;

    /// Forwards tokens from input to output, one per cycle; sleeps while
    /// the input is empty.
    struct Forward {
        input: ChannelId,
        output: ChannelId,
        done: bool,
    }

    impl Forward {
        fn boxed(input: ChannelId, output: ChannelId) -> Box<Self> {
            Box::new(Forward { input, output, done: false })
        }
    }

    impl Block for Forward {
        fn name(&self) -> &str {
            "forward"
        }
        fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
            if self.done {
                return BlockStatus::Done;
            }
            let Some(t) = ctx.pop(self.input) else {
                return ctx.stall();
            };
            self.done = t.is_done();
            ctx.push(self.output, t);
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

    /// Counts down one per tick without touching a channel — every tick
    /// assigns a field, so every tick is `Busy` — then sends a done token.
    struct Countdown {
        left: u32,
        output: ChannelId,
    }
    impl Block for Countdown {
        fn name(&self) -> &str {
            "countdown"
        }
        fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
            self.left -= 1;
            if self.left > 0 {
                return BlockStatus::Busy;
            }
            ctx.push(self.output, tok::done());
            BlockStatus::Done
        }
    }

    #[test]
    fn pipeline_of_two_forwards() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        let c = sim.add_channel("c");
        sim.record(c);
        sim.add_block(Forward::boxed(a, b));
        sim.add_block(Forward::boxed(b, c));
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

    /// A consumer asleep on an empty channel and woken by an earlier-indexed
    /// producer consumes in the cycle of the push; woken by a later-indexed
    /// one (a feedback edge), in the next.
    #[test]
    fn a_woken_reader_runs_this_cycle_after_an_earlier_writer_and_next_cycle_after_a_later_one() {
        // Three idle cycles, then a done token: the consumer goes to sleep
        // in cycle 0 and the push of cycle 3 has to wake it.
        let run = |consumer_first: bool| {
            let mut sim = Simulator::new();
            let b = sim.add_channel("b");
            let c = sim.add_channel("c");
            let (producer, consumer) = if consumer_first { (1, 0) } else { (0, 1) };
            for block in 0..2 {
                if block == producer {
                    sim.add_block(Box::new(Countdown { left: 4, output: b }));
                } else {
                    sim.add_block(Forward::boxed(b, c));
                }
            }
            let cycles = sim.run(100).map(|report| report.cycles);
            (cycles, sim.block_ticks(consumer), sim.block_done_cycle(consumer))
        };
        // Two ticks either way: the one that put it to sleep, the one that
        // consumed.
        assert_eq!(run(false), (Ok(4), 2, Some(4)));
        assert_eq!(run(true), (Ok(5), 2, Some(5)));
    }

    #[test]
    fn deadlock_detection() {
        let mut sim = Simulator::new();
        sim.add_block(Box::new(Stuck));
        let err = sim.run(100).unwrap_err();
        assert!(matches!(err, SimulationError::Deadlock { .. }));
        assert!(err.to_string().contains("stuck"));
    }

    /// A graph whose live blocks are all asleep is the same deadlock, at the
    /// same cycle, that spinning on them reported.
    #[test]
    fn a_graph_of_stalled_blocks_deadlocks_at_the_cycle_a_full_sweep_did() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        let c = sim.add_channel("c");
        let d = sim.add_channel("d");
        sim.add_block(Forward::boxed(a, b));
        sim.add_block(Forward::boxed(b, c));
        sim.add_block(Box::new(Countdown { left: 2, output: d }));
        // One token and no done: both forwards move it in cycle 0, the
        // countdown finishes in cycle 1, nothing ever happens again.
        sim.preload(a, [tok::crd(0)]);
        let err = sim.run(100).unwrap_err();
        assert_eq!(
            err,
            SimulationError::Deadlock { cycle: 19, busy_blocks: vec!["forward".into(), "forward".into()] }
        );
        assert_eq!(sim.cycles(), 19);
        assert_eq!((sim.block_ticks(0), sim.block_ticks(1), sim.block_ticks(2)), (2, 2, 2));
    }

    #[test]
    fn cycle_limit() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        sim.add_block(Forward::boxed(a, b));
        // Keep the block busy forever by never sending done.
        sim.preload(a, (0..1000).map(tok::crd));
        let err = sim.run(10).unwrap_err();
        assert_eq!(err, SimulationError::CycleLimit { limit: 10 });
    }

    /// A fault ends the run at once, naming the block and the cycle.
    #[test]
    fn a_fault_ends_the_run_naming_the_block() {
        struct Picky(ChannelId);
        impl Block for Picky {
            fn name(&self) -> &str {
                "picky"
            }
            fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
                match ctx.pop(self.0) {
                    Some(t) if t.is_stop() => BlockStatus::Fault(Fault::Misaligned),
                    Some(_) => BlockStatus::Busy,
                    None => ctx.stall(),
                }
            }
        }
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        sim.add_block(Box::new(Picky(a)));
        sim.preload(a, [tok::crd(0), tok::crd(1), tok::stop(0), tok::done()]);
        let err = sim.run(100).unwrap_err();
        assert_eq!(err, SimulationError::Fault { cycle: 2, block: "picky".into(), fault: Fault::Misaligned });
        assert_eq!(sim.cycles(), 3);
    }

    #[test]
    #[should_panic(expected = "reported Stalled from a tick with 1 channel operations")]
    fn a_stalled_tick_that_touched_a_channel_is_rejected() {
        struct Liar(ChannelId);
        impl Block for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
                ctx.push(self.0, tok::crd(0));
                BlockStatus::Stalled
            }
        }
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        sim.add_block(Box::new(Liar(a)));
        let _ = sim.run(10);
    }

    /// A push into a channel whose reader already finished wakes nobody: the
    /// reader is not ticked again and is not counted out a second time.
    #[test]
    fn a_push_to_a_finished_reader_neither_ticks_it_nor_ends_the_run_early() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let b = sim.add_channel("b");
        let c = sim.add_channel("c");
        // Reads `b`, finishes on the preloaded done token in cycle 0 ...
        sim.add_block(Forward::boxed(b, c));
        // ... while the later writer keeps filling `b` for three cycles.
        sim.add_block(Forward::boxed(a, b));
        sim.preload(b, [tok::done()]);
        sim.preload(a, [tok::crd(0), tok::crd(1), tok::done()]);
        assert_eq!(sim.run(100).map(|report| report.cycles), Ok(3));
        assert_eq!((sim.block_ticks(0), sim.block_done_cycle(0)), (1, Some(1)));
        assert_eq!((sim.block_ticks(1), sim.block_done_cycle(1)), (3, Some(3)));
    }

    #[test]
    #[should_panic(expected = "was not recorded")]
    fn history_requires_record() {
        let mut sim = Simulator::new();
        let a = sim.add_channel("a");
        let _ = sim.history(a);
    }
}
