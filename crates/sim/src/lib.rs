//! # sam-sim
//!
//! The cycle-approximate streaming dataflow simulator that SAM graphs are
//! lowered onto (paper Section 6).
//!
//! The simulator models a SAM graph as a set of [`Block`]s connected by
//! [`Channel`]s. Every simulated cycle each block that can move gets one
//! [`Block::tick`] call during which it may consume at most one token per
//! input port and produce at most one token per output port — the paper's
//! "fully pipelined, every primitive produces one token each cycle" model.
//! A block that reports [`BlockStatus::Stalled`] — its tick touched no
//! channel and changed nothing — is left out of the schedule until a
//! channel it examined in that tick changes; since such a tick would repeat
//! the same nothing, cycle counts are those of ticking every block every
//! cycle. Channels are unbounded (the paper's infinite-queue assumption).
//!
//! A channel counts the tokens it carries ([`Channel::total_pushed`]) and,
//! on request, logs them ([`Simulator::record`] / [`Simulator::history`]).
//! Per-kind token statistics are not kept here: the Figure 14
//! stream-composition study reads `sam_trace::TokenCounts` off a traced
//! cycle-backend run, and a channel's idle slots are the run's cycles minus
//! the tokens it carried.

pub mod channel;
pub mod engine;
pub mod payload;

pub use channel::{Channel, ChannelId};
pub use engine::{Block, BlockStatus, Context, SimReport, SimulationError, Simulator};
pub use payload::{Fault, Payload, SimToken};
