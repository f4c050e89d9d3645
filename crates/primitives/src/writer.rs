//! Level writers: tensor construction (paper Definition 3.8).

use sam_sim::{Block, BlockStatus, ChannelId, Context};
use sam_streams::Token;
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
/// (Definition 3.8). Every stop token closes the fiber being written; the
/// done token finalizes the level and publishes it to the sink.
#[derive(Debug)]
pub struct LevelWriter {
    name: String,
    dim: usize,
    in_crd: ChannelId,
    sink: LevelWriterSink,
    coords: Vec<u32>,
    seg: Vec<usize>,
    done: bool,
}

impl LevelWriter {
    /// Creates a compressed level writer for a dimension of size `dim`.
    pub fn new(name: impl Into<String>, dim: usize, in_crd: ChannelId, sink: LevelWriterSink) -> Self {
        LevelWriter { name: name.into(), dim, in_crd, sink, coords: Vec::new(), seg: vec![0], done: false }
    }
}

impl Block for LevelWriter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let Some(t) = ctx.peek(self.in_crd).cloned() else {
            return ctx.stall();
        };
        ctx.pop(self.in_crd);
        match t {
            Token::Val(p) => {
                self.coords.push(p.expect_crd());
                BlockStatus::Busy
            }
            Token::Empty => BlockStatus::Busy,
            Token::Stop(_) => {
                self.seg.push(self.coords.len());
                BlockStatus::Busy
            }
            Token::Done => {
                if *self.seg.last().expect("nonempty") != self.coords.len() {
                    self.seg.push(self.coords.len());
                }
                let level = CompressedLevel::new(
                    self.dim,
                    std::mem::take(&mut self.seg),
                    std::mem::take(&mut self.coords),
                );
                *self.sink.lock().expect("poisoned level sink") = Some(level);
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

/// Writes a value stream into a values array (the store mode of the array
/// block wrapped by a level writer, Definition 3.8). Empty tokens store an
/// explicit zero; stop tokens carry no data.
#[derive(Debug)]
pub struct ValWriter {
    name: String,
    in_val: ChannelId,
    sink: ValWriterSink,
    vals: Vec<f64>,
    done: bool,
}

impl ValWriter {
    /// Creates a values writer.
    pub fn new(name: impl Into<String>, in_val: ChannelId, sink: ValWriterSink) -> Self {
        ValWriter { name: name.into(), in_val, sink, vals: Vec::new(), done: false }
    }
}

impl Block for ValWriter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let Some(t) = ctx.peek(self.in_val).cloned() else {
            return ctx.stall();
        };
        ctx.pop(self.in_val);
        match t {
            Token::Val(p) => {
                self.vals.push(p.expect_val());
                BlockStatus::Busy
            }
            Token::Empty => {
                self.vals.push(0.0);
                BlockStatus::Busy
            }
            Token::Stop(_) => BlockStatus::Busy,
            Token::Done => {
                *self.sink.lock().expect("poisoned value sink") = Some(std::mem::take(&mut self.vals));
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::tok;
    use sam_sim::Simulator;

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
