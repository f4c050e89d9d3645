//! # sam
//!
//! Umbrella crate for the Sparse Abstract Machine (SAM) reproduction. It
//! re-exports the workspace crates so examples and downstream users can pull
//! everything from one place:
//!
//! * [`streams`] — the token algebra and the bitvector payload,
//! * [`tensor`] — fibertrees, formats, synthetic data and the dense oracle,
//! * [`primitives`] — the SAM dataflow blocks,
//! * [`sim`] — the cycle-approximate simulator,
//! * [`core`] — the SAM graph IR and graph builder,
//! * [`trace`] — the observability layer (trace sinks, per-node profiles,
//!   Chrome trace export),
//! * [`exec`] — the graph-driven execution engine (the `ExecRequest` entry
//!   point, planner and plan cache, plus the cycle-approximate, fast
//!   functional and finite-memory tiled backends),
//! * [`serve`] — the resident tensor service (operand corpus, async query
//!   submission, per-query backend routing),
//! * [`memory`] — the finite-memory parameters and the counters a tiled
//!   run reports,
//! * [`tiles`] — the tiling subsystem (tile extraction, schedules with
//!   sparse tile skipping, LLB cache model, tile-merge reduction),
//! * [`custard`] — the compiler from tensor index notation to SAM graphs,
//!   and the catalog of paper kernels it (mostly) derives.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and
//! `examples/custard_compile.rs` for the compile → IR → execute pipeline.

pub use custard;
pub use sam_core as core;
pub use sam_exec as exec;
pub use sam_memory as memory;
pub use sam_primitives as primitives;
pub use sam_serve as serve;
pub use sam_sim as sim;
pub use sam_streams as streams;
pub use sam_tensor as tensor;
pub use sam_tiles as tiles;
pub use sam_trace as trace;
