//! # sam-streams
//!
//! The token and stream substrate of the Sparse Abstract Machine (SAM).
//!
//! SAM transports tensors between dataflow blocks as *streams*: sequences of
//! tokens that carry one fibertree level at a time, with hierarchical *stop*
//! tokens marking fiber boundaries, *empty* tokens marking missing operands
//! produced by union merges, and a single *done* token terminating the stream
//! (paper Section 3.2).
//!
//! This crate defines:
//!
//! * [`Token`] — the token algebra shared by every stream type,
//! * the payload newtypes [`Crd`], [`Ref`], [`Val`] and [`BitVec`],
//! * [`Stream`] — an owned, finished stream with constructors from and
//!   conversions to nested lists ([`Nested`]),
//! * [`TokenStats`] — per-kind token counting used by the Figure 14
//!   experiment, and
//! * [`analysis`] — the level-based vs. point-based encoding comparison of
//!   paper Section 3.8.
//!
//! # Example
//!
//! ```
//! use sam_streams::{Stream, Token};
//!
//! // The coordinate stream for the two fibers (1,) and (0, 2):
//! let s: Stream<u32> = Stream::from_nested(&vec![vec![1u32], vec![0, 2]].into());
//! assert_eq!(
//!     s.tokens(),
//!     &[
//!         Token::Val(1),
//!         Token::Stop(0),
//!         Token::Val(0),
//!         Token::Val(2),
//!         Token::Stop(1),
//!         Token::Done,
//!     ]
//! );
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod fiber;
pub mod nested;
pub mod stats;
pub mod stream;
pub mod token;
pub mod types;

pub use nested::Nested;
pub use stats::{TokenKind, TokenStats};
pub use stream::Stream;
pub use token::Token;
pub use types::{BitVec, Crd, Ref, Val};
