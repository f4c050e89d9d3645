//! # sam-core
//!
//! The SAM graph intermediate representation: the IR, its builder and the
//! catalog of paper kernels written in it. Nothing here executes a graph;
//! `sam-exec` binds one to a backend.
//!
//! * [`graph`] — the [`SamGraph`] IR: typed nodes for every
//!   SAM primitive, edges carrying stream kinds, primitive counting
//!   (Table 1 / Table 2) and Graphviz DOT export. This is the
//!   LLVM-like interface the paper positions between the Custard compiler
//!   and hardware backends.
//! * [`build`] — [`GraphBuilder`]: ergonomic
//!   construction of *executable* graphs whose edges carry explicit port
//!   annotations, the form `sam-exec` plans and runs.
//! * [`graphs`] — the paper's kernels (Figures 11–14 and Table 1), each
//!   expressed once as an executable graph and runnable on every `sam-exec`
//!   backend, plus the plain-data legends of the figures that pick among
//!   them ([`graphs::SpmmDataflow`], [`graphs::SddmmVariant`],
//!   [`graphs::VecFormat`]).

pub mod build;
pub mod graph;
pub mod graphs;

pub use build::GraphBuilder;
pub use graph::{NodeKind, PortKind, PrimitiveCounts, SamGraph, StreamKind};
