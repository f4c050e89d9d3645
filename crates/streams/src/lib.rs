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
//! * [`Token`] — the token algebra shared by every stream type, and
//! * [`BitVec`] — the bitvector stream payload of Section 4.3.
//!
//! Counting tokens by kind is not done here: `sam_trace::TokenCounts` is the
//! one taxonomy, filled by every backend on a traced run. Section 3.8's
//! level-based vs point-based comparison is read from such a run
//! (`samrepro stream_analysis`), not modelled.
//!
//! # Example
//!
//! ```
//! use sam_streams::Token;
//!
//! // The coordinate stream for the two fibers (1,) and (0, 2):
//! let s: Vec<Token<u32>> =
//!     vec![Token::Val(1), Token::Stop(0), Token::Val(0), Token::Val(2), Token::Stop(1), Token::Done];
//! assert_eq!(s.iter().filter(|t| t.value().is_none()).count(), 3);
//! ```

#![warn(missing_docs)]

pub mod token;
pub mod types;

pub use token::Token;
pub use types::BitVec;
