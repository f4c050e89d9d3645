//! # sam-memory
//!
//! The finite-memory parameters and counters of the paper's Section 6.4
//! study ("Modeling Hardware with Finite Constraints", Figure 15).
//!
//! SAM itself is an abstract machine with unbounded resources; to model a
//! concrete accelerator the paper layers a two-level memory hierarchy (a
//! last-level buffer and per-PE buffers), a DRAM bandwidth, fixed-size tiles
//! and ExTensor-style *sparse tile skipping* on top of the dataflow graphs.
//! [`MemoryConfig`] holds those parameters; `sam-exec`'s `TiledBackend`
//! tiles and runs a kernel under them and reports what it did as
//! [`MemoryCounters`]. Figure 15 (`samrepro fig15`) prints those counters.

use serde::{Deserialize, Serialize};

/// Hardware parameters of the modelled accelerator (paper Section 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// DRAM bandwidth in bytes per second.
    pub dram_bandwidth_bytes_per_s: f64,
    /// Clock frequency in Hz used to convert time into cycles.
    pub frequency_hz: f64,
    /// Last-level buffer capacity in bytes.
    pub llb_bytes: usize,
    /// Processing-element tile size (tiles are `tile x tile`).
    pub tile: usize,
    /// Bytes per stored nonzero (value plus coordinate metadata).
    pub bytes_per_nonzero: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        // The parameters quoted in Section 6.4.
        MemoryConfig {
            dram_bandwidth_bytes_per_s: 68.256e9,
            frequency_hz: 1.0e9,
            llb_bytes: 17 * 1024 * 1024,
            tile: 128,
            bytes_per_nonzero: 12,
        }
    }
}

/// *Measured* finite-memory counters recorded by an executor backend that
/// actually tiles and runs a kernel under a [`MemoryConfig`] budget (the
/// `TiledBackend` of `sam-exec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoryCounters {
    /// Bytes fetched from (operand tiles missing the LLB) or written back to
    /// (the final output) DRAM.
    pub dram_bytes: u64,
    /// High-water mark of bytes resident in the last-level buffer.
    pub llb_peak_bytes: u64,
    /// Tile tuples enumerated by the schedule.
    pub tiles_visited: u64,
    /// Tile tuples skipped because a structurally required operand tile was
    /// empty (ExTensor-style sparse tile skipping).
    pub tiles_skipped: u64,
    /// Tile tuples actually executed.
    pub tiles_executed: u64,
    /// Tiles evicted from the LLB to make room (capacity spills).
    pub spill_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_parameters() {
        let c = MemoryConfig::default();
        assert!((c.dram_bandwidth_bytes_per_s - 68.256e9).abs() < 1e6);
        assert_eq!(c.llb_bytes, 17 * 1024 * 1024);
        assert_eq!(c.tile, 128);
    }
}
