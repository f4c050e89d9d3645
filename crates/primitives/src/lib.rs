//! # sam-primitives
//!
//! The SAM dataflow blocks (paper Sections 3 and 4), implemented against the
//! `sam-sim` [`Block`](sam_sim::Block) interface.
//!
//! Core blocks (Section 3):
//!
//! * [`LevelScanner`] — tensor iteration over dense and compressed levels
//!   (Definition 3.1), with optional coordinate skipping (Section 4.2),
//! * [`Intersecter`] and [`Unioner`] — stream merging (Definitions 3.2, 3.3),
//! * [`Repeater`] — broadcasting (Definition 3.4),
//! * [`val_array`] — the array block in load mode (Definition 3.5), and
//!   [`const_val`], the constant source,
//! * [`alu`] — streaming arithmetic (Definition 3.6),
//! * [`Reducer`] — accumulation of order 0, 1 or 2: scalar, vector or
//!   matrix (Definition 3.7),
//! * [`level_writer`] / [`val_writer`] — tensor construction (Definition 3.8),
//! * [`CoordDropper`] — result cleanup (Definition 3.9),
//! * [`Fork`] — the stream fan-out paper figures draw implicitly.
//!
//! Optimization blocks (Section 4):
//!
//! * [`locator`] — iterate-locate intersection (Definition 4.1),
//! * [`BitvectorScanner`], [`BitvectorIntersecter`], [`BitvectorVecMul`],
//!   [`BitTreeVecMul`] — the bitvector stream protocol (Section 4.3), wired
//!   by hand for Figure 13.
//!
//! One rule per primitive: the scanner, merger, repeater, array, constant,
//! ALU, locator, reducer, dropper and writer blocks are timing shells over
//! their token rules in [`rule`], which the fast backend (`sam-exec`) calls
//! too. [`Intersecter`] and [`Unioner`] are one shell, [`merge::Merger`],
//! over [`rule::merge`]. The array, constant, ALU, locator and writers share
//! one timing, [`Lockstep`] — a token from every input and a token onto
//! every output per cycle — so each is a constructor that hands its rule to
//! that one shell. A rule's [`Fault`](sam_sim::Fault) ends the
//! simulation with [`SimulationError::Fault`](sam_sim::SimulationError::Fault)
//! naming the block. The bitvector blocks have no fast form.

pub mod array;
pub mod bitvector;
pub mod compute;
pub mod dropper;
pub mod fork;
pub mod lockstep;
pub mod merge;
pub mod repeat;
pub mod rule;
pub mod scanner;
pub mod source;
pub mod writer;

pub use array::{locator, val_array};
pub use bitvector::{BitTreeVecMul, BitvectorIntersecter, BitvectorScanner, BitvectorVecMul};
pub use compute::{alu, const_val, Reducer};
pub use dropper::CoordDropper;
pub use fork::Fork;
pub use lockstep::Lockstep;
pub use merge::{Intersecter, Unioner};
pub use repeat::Repeater;
pub use rule::AluOp;
pub use scanner::LevelScanner;
pub use source::root_stream;
pub use writer::{level_writer, val_writer, LevelWriterSink, ValWriterSink};

/// The status of a block's tick once it has or has not sent its done token.
fn status(done: bool) -> sam_sim::BlockStatus {
    if done {
        sam_sim::BlockStatus::Done
    } else {
        sam_sim::BlockStatus::Busy
    }
}
