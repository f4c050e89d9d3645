//! The token rule of every primitive whose cycle block and fast-backend
//! form compute the same tokens in the same order: the level scanner's
//! stop rule, the intersecter and the unioner, the repeater, the array in
//! load mode and the constant source, the ALU, the locator, the reducer
//! (one rule, [`Reduce`], for orders 0, 1 and 2), the coordinate dropper
//! and the level and value writers.
//!
//! Each rule is written once, here, as a function of the tokens at the
//! primitive's inputs (and of its state, for the repeater, the reducers,
//! the dropper and the writers), and reports a [`Fault`](sam_sim::Fault)
//! instead of panicking or waiting on tokens that can never line up. A
//! rule takes tokens, never a channel or a stream: whether a missing token
//! is "not yet" or "never" is the caller's to know. Both backends call it:
//! a cycle block in [`crate::scanner`], [`crate::merge`], [`crate::repeat`],
//! [`crate::compute`] or [`crate::dropper`] keeps only its timing — it
//! waits for its inputs, pops them, calls the rule and pushes the result or
//! queues it one token per cycle — and the array, constant, ALU, locator
//! and writers ([`crate::array`], [`crate::compute`], [`crate::writer`])
//! share one timing, [`crate::Lockstep`]. The fast backend loops the rule
//! over whole stored streams, over a fused scanner's reference stream,
//! over the fibers a merger pairs up, or over a fusion region's blocks of
//! positions. The rules are `#[inline]`, so that a fusion region's call
//! across the crate boundary still compiles into its loop. How far the
//! merge walk moves a trailing operand is that walk's algorithm, not the
//! rule.

mod alu;
mod drop;
mod load;
mod locate;
mod merge;
mod reduce;
mod repeat;
mod scan;
mod write;

pub use alu::{alu, AluOp};
pub use drop::CoordDrop;
pub use load::{constant, load};
pub use locate::locate;
pub use merge::{merge, Merge};
pub use reduce::{Reduce, Took};
pub use repeat::Repeat;
pub use scan::{closing_stop, scan, Scan};
pub use write::{LevelWrite, ValWrite};
