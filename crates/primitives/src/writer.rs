//! Level writers: tensor construction (paper Definition 3.8). Each block is
//! its rule in [`crate::rule`] run in [`Lockstep`].

use crate::rule::{LevelWrite, ValWrite};
use crate::Lockstep;
use sam_sim::{Block, ChannelId};
use sam_tensor::level::CompressedLevel;
use std::sync::{Arc, Mutex};

/// Shared sink receiving the level data a [`level_writer`] produces.
///
/// The writer builds a compressed level (segment + coordinate arrays); the
/// caller keeps a clone of the sink and reads the level after the simulation
/// has quiesced.
pub type LevelWriterSink = Arc<Mutex<Option<CompressedLevel>>>;

/// Shared sink receiving the values a [`val_writer`] stores.
pub type ValWriterSink = Arc<Mutex<Option<Vec<f64>>>>;

/// Creates an empty level-writer sink.
pub fn level_sink() -> LevelWriterSink {
    Arc::new(Mutex::new(None))
}

/// Creates an empty value-writer sink.
pub fn val_sink() -> ValWriterSink {
    Arc::new(Mutex::new(None))
}

/// Writes one coordinate stream into a compressed level in memory for a
/// dimension of size `dim` (Definition 3.8, [`LevelWrite`]), one token per
/// cycle. The done token publishes the level to the sink.
pub fn level_writer(
    name: impl Into<String>,
    dim: usize,
    in_crd: ChannelId,
    sink: LevelWriterSink,
) -> impl Block {
    let mut rule = LevelWrite::new(dim);
    Lockstep::new(name, [in_crd], [], move |[t]| {
        rule.step(t)?;
        if t.is_done() {
            *sink.lock().expect("poisoned level sink") =
                Some(std::mem::replace(&mut rule, LevelWrite::new(dim)).finish());
        }
        Ok([])
    })
}

/// Writes a value stream into a values array ([`ValWrite`]), one token per
/// cycle. The done token publishes the values to the sink.
pub fn val_writer(name: impl Into<String>, in_val: ChannelId, sink: ValWriterSink) -> impl Block {
    let mut rule = ValWrite::default();
    Lockstep::new(name, [in_val], [], move |[t]| {
        rule.step(t)?;
        if t.is_done() {
            *sink.lock().expect("poisoned value sink") = Some(std::mem::take(&mut rule).finish());
        }
        Ok([])
    })
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
        sim.add_block(Box::new(level_writer("Xj", 4, c, sink.clone())));
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
        sim.add_block(Box::new(level_writer("X", 4, c, sink.clone())));
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
        sim.add_block(Box::new(val_writer("Xvals", v, sink.clone())));
        sim.preload(v, vec![tok::val(1.5), Token::Empty, tok::val(2.5), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(sink.lock().unwrap().clone().unwrap(), vec![1.5, 0.0, 2.5]);
    }

    #[test]
    fn scalar_result_written() {
        let mut sim = Simulator::new();
        let v = sim.add_channel("val");
        let sink = val_sink();
        sim.add_block(Box::new(val_writer("chi", v, sink.clone())));
        sim.preload(v, vec![tok::val(42.0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(sink.lock().unwrap().clone().unwrap(), vec![42.0]);
    }
}
