//! # sam-core
//!
//! The SAM graph intermediate representation: the IR and its builder.
//! Nothing here executes a graph; `sam-exec` binds one to a backend, and
//! `custard` builds the graphs that run (its `graphs` module is the catalog
//! of paper kernels).
//!
//! * [`graph`] — the [`SamGraph`] IR: typed nodes for every
//!   SAM primitive, edges carrying stream kinds, primitive counting
//!   (Table 1 / Table 2) and Graphviz DOT export. This is the
//!   LLVM-like interface the paper positions between the Custard compiler
//!   and hardware backends.
//! * [`build`] — [`GraphBuilder`]: ergonomic
//!   construction of *executable* graphs whose edges carry explicit port
//!   annotations, the form `sam-exec` plans and runs.
//!
//! A graph allocates per graph, not per edge: an edge the builder wires
//! stores no name, and [`SamGraph::edge_label`] derives one from the port it
//! was wired to when it is printed ([`graph::EdgeLabel`]); node kinds share
//! one [`graph::Name`] per distinct tensor name; and a graph's clones share
//! its nodes and edges until one of them is edited.

pub mod build;
pub mod graph;

pub use build::GraphBuilder;
pub use graph::{NodeKind, PortKind, PrimitiveCounts, SamGraph, StreamKind};
