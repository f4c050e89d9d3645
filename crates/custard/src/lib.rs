//! # custard
//!
//! The Custard compiler (paper Section 5): from tensor index notation, a
//! format language and a scheduling language down to SAM dataflow graphs.
//!
//! The pipeline mirrors the paper's Figure 10:
//!
//! 1. [`parse`] turns textual tensor index notation
//!    (`"X(i,j) = B(i,k) * C(k,j)"`) into the shared
//!    [`Assignment`](sam_tensor::expr::Assignment) AST,
//! 2. [`Schedule`] (the `reorder` directive) and [`Formats`] fix the
//!    dataflow order and per-tensor level formats, producing
//!    [`ConcreteIndexNotation`] ([`ConcreteIndexNotation::try_new`] rejects
//!    an order that is not a permutation of the index variables with a
//!    [`ReorderError`]),
//! 3. [`lower_exec`] builds the SAM graph that runs: tensor paths, level
//!    scanners, repeaters, intersecters/unioners, the compute tree (ALUs and
//!    reducers) and the level writers, every stream wired port to port
//!    (a [`SamGraph`](sam_core::SamGraph) any `sam-exec` backend executes and
//!    [`SamGraph::to_dot`](sam_core::SamGraph::to_dot) prints).
//!
//! [`lower()`] is the schematic: the node multiset Figure 10 places for an
//! expression, unwired. It is what the Table 1 primitive composition and the
//! Table 2 ablation count.
//!
//! [`graphs`] is the catalog of paper kernels the figures and the pinned
//! counts run: [`lower_exec`]'s graphs at each figure's formats and loop
//! order, except for the few it cannot derive yet, which are wired by hand.

pub mod ablation;
pub mod cin;
pub mod exec_lower;
pub mod graphs;
pub mod lower;
pub mod parser;

pub use ablation::{ablation_study, AblationRow, ExpressionCorpus};
pub use cin::{ConcreteIndexNotation, Formats, ReorderError, Schedule};
pub use exec_lower::{lower_exec, ExecutableKernel, LowerExecError};
pub use lower::lower;
pub use parser::{parse, ParseError, ParseErrorKind, MAX_NESTING, MAX_OPERANDS};
