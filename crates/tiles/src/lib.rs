//! # sam-tiles
//!
//! The tiling subsystem of the paper's Section 6.4 study ("Modeling
//! Hardware with Finite Constraints", Figure 15): everything needed to run
//! a SAM dataflow graph over tensors far larger than any on-chip buffer by
//! cutting them into `tile x tile` sub-tensors, scheduling the tile tuples
//! with ExTensor-style *sparse tile skipping*, and merging the per-tile
//! partial outputs back into one result.
//!
//! The crate is tile mechanics: it knows fibertrees
//! ([`sam_tensor::Tensor`]) and names no graph type. The tile schedule —
//! which index variables are tiled, how each cut tensor's storage levels map
//! onto them, which tensors' empty tiles license skipping a whole tile
//! tuple, and the grid, window and key arithmetic on it — is one
//! crate-private record of `sam-exec`, derived from a kernel's plan by
//! binding position. The `TiledBackend` there composes these pieces with the
//! fast functional executor to produce *measured* finite-memory counters
//! ([`sam_memory::MemoryCounters`]), which `samrepro fig15` prints:
//!
//! * [`extract`] — cuts any level hierarchy (dense, compressed, bitvector)
//!   into a [`TileGrid`] of its nonempty tiles in one depth-first pass over
//!   the stored levels, straight into each tile's level arrays — a tile is
//!   the window of what its parent stores, explicit zeros included — and
//!   shares a tensor one window covers as its only tile, uncut;
//! * [`llb`] — an LRU model of the last-level buffer that turns the tile
//!   access sequence into measured DRAM traffic, occupancy high-water marks
//!   and capacity-spill counts;
//! * [`merge`] — the tile-merge reducer: logs the levels and values each
//!   tile's writers wrote (offset back into global coordinates), orders the
//!   log with a stable radix sort, and rebuilds the canonical CSF output,
//!   bit-identical to an untiled run on exactly summed values.

#![warn(missing_docs)]

pub mod extract;
pub mod llb;
pub mod merge;

pub use extract::{Misplaced, TileGrid};
pub use llb::LlbModel;
pub use merge::TileMerger;
