//! Level writers: tensor construction (paper Definition 3.8). Each block is
//! the timing of its rule in [`crate::rule`].

use crate::rule::{LevelWrite, ValWrite};
use sam_sim::{Block, BlockStatus, ChannelId, Context};
use sam_tensor::level::CompressedLevel;
use std::sync::{Arc, Mutex};

/// Shared sink receiving the level data a [`LevelWriter`] produces.
///
/// The writer builds a compressed level (segment + coordinate arrays); the
/// caller keeps a clone of the sink and reads the level after the simulation
/// has quiesced.
pub type LevelWriterSink = Arc<Mutex<Option<CompressedLevel>>>;

/// Shared sink receiving the values a [`ValWriter`] stores.
pub type ValWriterSink = Arc<Mutex<Option<Vec<f64>>>>;

/// Creates an empty level-writer sink.
pub fn level_sink() -> LevelWriterSink {
    Arc::new(Mutex::new(None))
}

/// Creates an empty value-writer sink.
pub fn val_sink() -> ValWriterSink {
    Arc::new(Mutex::new(None))
}

/// Writes one coordinate stream into a compressed level in memory
/// (Definition 3.8, [`LevelWrite`]), one token per cycle. The done token
/// publishes the level to the sink.
#[derive(Debug)]
pub struct LevelWriter {
    name: String,
    dim: usize,
    in_crd: ChannelId,
    sink: LevelWriterSink,
    rule: LevelWrite,
}

impl LevelWriter {
    /// Creates a compressed level writer for a dimension of size `dim`.
    pub fn new(name: impl Into<String>, dim: usize, in_crd: ChannelId, sink: LevelWriterSink) -> Self {
        LevelWriter { name: name.into(), dim, in_crd, sink, rule: LevelWrite::new(dim) }
    }
}

impl Block for LevelWriter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        let Some(t) = ctx.pop(self.in_crd) else {
            return ctx.stall();
        };
        if let Err(fault) = self.rule.step(t) {
            return BlockStatus::Fault(fault);
        }
        if t.is_done() {
            *self.sink.lock().expect("poisoned level sink") =
                Some(std::mem::replace(&mut self.rule, LevelWrite::new(self.dim)).finish());
        }
        crate::status(t.is_done())
    }
}

/// Writes a value stream into a values array ([`ValWrite`]), one token per
/// cycle. The done token publishes the values to the sink.
#[derive(Debug)]
pub struct ValWriter {
    name: String,
    in_val: ChannelId,
    sink: ValWriterSink,
    rule: ValWrite,
}

impl ValWriter {
    /// Creates a values writer.
    pub fn new(name: impl Into<String>, in_val: ChannelId, sink: ValWriterSink) -> Self {
        ValWriter { name: name.into(), in_val, sink, rule: ValWrite::default() }
    }
}

impl Block for ValWriter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        let Some(t) = ctx.pop(self.in_val) else {
            return ctx.stall();
        };
        if let Err(fault) = self.rule.step(t) {
            return BlockStatus::Fault(fault);
        }
        if t.is_done() {
            *self.sink.lock().expect("poisoned value sink") = Some(std::mem::take(&mut self.rule).finish());
        }
        crate::status(t.is_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::tok;
    use sam_sim::Simulator;
    use sam_streams::Token;

    #[test]
    fn level_writer_builds_compressed_level() {
        let mut sim = Simulator::new();
        let c = sim.add_channel("crd");
        let sink = level_sink();
        sim.add_block(Box::new(LevelWriter::new("Xj", 4, c, sink.clone())));
        sim.preload(
            c,
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
        sim.run(100).unwrap();
        let level = sink.lock().unwrap().clone().unwrap();
        assert_eq!(level.seg, vec![0, 1, 3, 5]);
        assert_eq!(level.crd, vec![1, 0, 2, 1, 3]);
    }

    #[test]
    fn level_writer_handles_empty_fibers() {
        let mut sim = Simulator::new();
        let c = sim.add_channel("crd");
        let sink = level_sink();
        sim.add_block(Box::new(LevelWriter::new("X", 4, c, sink.clone())));
        sim.preload(c, vec![tok::crd(2), tok::stop(0), tok::stop(0), tok::crd(3), tok::stop(1), tok::done()]);
        sim.run(100).unwrap();
        let level = sink.lock().unwrap().clone().unwrap();
        assert_eq!(level.seg, vec![0, 1, 1, 2]);
        assert_eq!(level.crd, vec![2, 3]);
    }

    #[test]
    fn val_writer_collects_values_and_zeros() {
        let mut sim = Simulator::new();
        let v = sim.add_channel("val");
        let sink = val_sink();
        sim.add_block(Box::new(ValWriter::new("Xvals", v, sink.clone())));
        sim.preload(v, vec![tok::val(1.5), Token::Empty, tok::val(2.5), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(sink.lock().unwrap().clone().unwrap(), vec![1.5, 0.0, 2.5]);
    }

    #[test]
    fn scalar_result_written() {
        let mut sim = Simulator::new();
        let v = sim.add_channel("val");
        let sink = val_sink();
        sim.add_block(Box::new(ValWriter::new("chi", v, sink.clone())));
        sim.preload(v, vec![tok::val(42.0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(sink.lock().unwrap().clone().unwrap(), vec![42.0]);
    }
}
