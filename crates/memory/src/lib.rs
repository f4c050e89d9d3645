//! # sam-memory
//!
//! Finite-memory and tiling model for the paper's Section 6.4 study
//! ("Modeling Hardware with Finite Constraints", Figure 15).
//!
//! SAM itself is an abstract machine with unbounded resources; to model a
//! concrete accelerator the paper layers a two-level memory hierarchy (a
//! last-level buffer and per-PE buffers), a DRAM bandwidth, fixed-size tiles
//! and ExTensor-style *sparse tile skipping* on top of the dataflow graphs.
//! This crate reproduces that model analytically for SpM*SpM on uniformly
//! random matrices with a fixed number of nonzeros, which is exactly the
//! synthetic study of the ExTensor paper that Figure 15 recreates.

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

/// The outcome of modelling one SpM*SpM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TiledSpmmEstimate {
    /// Matrix dimension (square matrices).
    pub dim: usize,
    /// Nonzeros per operand matrix.
    pub nnz: usize,
    /// Number of tiles along one dimension.
    pub grid: usize,
    /// Expected number of nonempty tiles per operand.
    pub nonempty_tiles: f64,
    /// Expected number of tile pairs that survive sparse tile skipping.
    pub effectual_tile_pairs: f64,
    /// Modelled DRAM traffic in bytes.
    pub dram_bytes: f64,
    /// Modelled runtime in cycles.
    pub cycles: f64,
}

/// *Measured* finite-memory counters recorded by an executor backend that
/// actually tiles and runs a kernel under a [`MemoryConfig`] budget (the
/// `TiledBackend` of `sam-exec`). The analytic twin of each field lives in
/// [`TiledSpmmEstimate`]; [`compare_with_model`] lines the two up.
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

/// A measured execution lined up against the closed-form Section 6.4 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelComparison {
    /// The analytic estimate.
    pub analytic: TiledSpmmEstimate,
    /// The measured counters.
    pub measured: MemoryCounters,
    /// Measured cycle estimate (from the tiled backend).
    pub measured_cycles: f64,
    /// measured / analytic DRAM traffic (1.0 = model exact).
    pub dram_ratio: f64,
    /// measured / analytic cycles (1.0 = model exact).
    pub cycle_ratio: f64,
}

/// Lines up a measured tiled run against [`model_tiled_spmm`]'s analytic
/// estimate for the same configuration, the validation step that turns
/// Figure 15 from a formula into an experiment.
pub fn compare_with_model(
    analytic: TiledSpmmEstimate,
    measured: MemoryCounters,
    measured_cycles: f64,
) -> ModelComparison {
    let ratio = |m: f64, a: f64| if a > 0.0 { m / a } else { f64::INFINITY };
    ModelComparison {
        analytic,
        measured,
        measured_cycles,
        dram_ratio: ratio(measured.dram_bytes as f64, analytic.dram_bytes),
        cycle_ratio: ratio(measured_cycles, analytic.cycles),
    }
}

/// Models tiled SpM*SpM between two uniformly random square matrices of
/// dimension `dim` with `nnz` nonzeros each (the Figure 15 x-axis sweep).
///
/// The model captures the three regimes the paper describes:
///
/// * at small dimensions nearly every tile is nonempty, so runtime grows with
///   the number of tiles that must be streamed and multiplied;
/// * as the dimension grows, tiles empty out and sparse tile skipping removes
///   tile pairs, so runtime falls;
/// * at large dimensions runtime saturates at the cost of streaming the
///   operands once from DRAM.
pub fn model_tiled_spmm(dim: usize, nnz: usize, config: &MemoryConfig) -> TiledSpmmEstimate {
    assert!(dim > 0, "dimension must be positive");
    let grid = dim.div_ceil(config.tile);
    let tiles = (grid * grid) as f64;
    let nnz_f = nnz as f64;
    // Expected occupancy with nnz nonzeros thrown uniformly into `tiles` bins.
    let nonempty_tiles = tiles * (1.0 - (1.0 - 1.0 / tiles).powf(nnz_f));
    let nnz_per_tile = nnz_f / nonempty_tiles.max(1.0);
    // Probability that a given (i, k) tile of B is nonempty.
    let p_nonempty = nonempty_tiles / tiles;
    // A tile pair (B_ik, C_kj) is fetched only when both tiles are nonempty
    // (coarse sparse tile skipping) and only produces work when the two
    // tiles share at least one k coordinate (fine-grained skipping inside
    // the tile-sequencing graph). For uniformly random placement the latter
    // probability is 1 - exp(-nnzB * nnzC / tile).
    let match_probability = 1.0 - (-(nnz_per_tile * nnz_per_tile) / config.tile as f64).exp();
    let effectual_tile_pairs = (grid as f64).powi(3) * p_nonempty * p_nonempty * match_probability;

    // Compute time: one cycle per token the dataflow actually moves. The
    // machine (TiledBackend) executes every tile tuple whose operand tiles
    // are both nonempty — coarse occupancy skipping, without the
    // fine-grained k-matching the `match_probability` term models — so the
    // token traffic scales with the *fetched* pairs, not the effectual
    // ones.
    let fetched_tile_pairs = (grid as f64).powi(3) * p_nonempty * p_nonempty;
    // Per fetched pair, fit against the measured `MemoryCounters`/token
    // counts of the 256–768 sweep `sam-bench`'s Figure 15 test runs (the
    // old `2*nnz + 8` term undercounted the dataflow ~200x because it
    // ignored rescans and control tokens):
    //  * every occupied row of the B tile rescans the C tile's k-level
    //    fiber through the repeat/scan/intersect trio (~3 tokens per fiber
    //    entry per row) — the dominant quadratic rescan term;
    //  * every stored entry streams through the scan -> intersect ->
    //    array -> ALU -> reduce chain (~8 tokens);
    //  * the ~20 blocks of the Gustavson graph each open and close their
    //    streams (roots, stops, dones: ~90 control tokens per pair).
    let tile_f = config.tile as f64;
    let occupied_rows = tile_f * (1.0 - (1.0 - 1.0 / tile_f).powf(nnz_per_tile));
    let tokens_per_pair = 3.0 * occupied_rows * occupied_rows + 8.0 * nnz_per_tile + 90.0;
    let compute_cycles = fetched_tile_pairs * tokens_per_pair;

    // Memory time: every effectual tile pair streams both operand tiles from
    // the LLB; operand tiles are refetched from DRAM once per row of tiles
    // unless the whole operand fits in the LLB.
    let bytes_per_tile = nnz_per_tile * config.bytes_per_nonzero as f64;
    let operand_bytes = nnz_f * config.bytes_per_nonzero as f64;
    let llb_resident = 2.0 * operand_bytes <= config.llb_bytes as f64;
    let refetch_factor = if llb_resident { 1.0 } else { (grid as f64).sqrt().max(1.0) };
    let dram_bytes = 2.0 * operand_bytes * refetch_factor + effectual_tile_pairs * bytes_per_tile * 0.25;
    let memory_cycles = dram_bytes / config.dram_bandwidth_bytes_per_s * config.frequency_hz;

    // Tile-sequencing overhead: the outer SAM graph co-iterates both
    // operands' tile-coordinate lists and checks occupancy metadata for
    // every tile (mirrors the measured counter: two grids, each walked).
    let sequencing_cycles = 2.0 * (2.0 * nonempty_tiles + tiles * 0.5);

    TiledSpmmEstimate {
        dim,
        nnz,
        grid,
        nonempty_tiles,
        effectual_tile_pairs,
        dram_bytes,
        cycles: compute_cycles.max(memory_cycles) + sequencing_cycles,
    }
}

/// Sweeps the Figure 15 configuration space: dimensions 1024..=15720 in steps
/// of 1336 for each nonzero count in `nnz_list`.
pub fn figure15_sweep(nnz_list: &[usize], config: &MemoryConfig) -> Vec<TiledSpmmEstimate> {
    let mut out = Vec::new();
    for &nnz in nnz_list {
        let mut dim = 1024;
        while dim <= 15720 {
            out.push(model_tiled_spmm(dim, nnz, config));
            dim += 1336;
        }
    }
    out
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

    #[test]
    fn sweep_reproduces_three_regimes() {
        let config = MemoryConfig::default();
        // The compute term is fit to the measured TiledBackend, which skips
        // on coarse tile occupancy only (no fine-grained k-matching), so
        // tiles must empty out further before runtime falls: the three
        // regimes sit at a sparser operand than the paper's fine-skipping
        // machine shows them at.
        let sweep: Vec<_> = figure15_sweep(&[2000], &config);
        assert_eq!(sweep.len(), 12);
        let cycles: Vec<f64> = sweep.iter().map(|e| e.cycles).collect();
        // Regime 1: runtime rises from the smallest dimension to the peak.
        let peak_idx = cycles
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("nonempty")
            .0;
        assert!(peak_idx >= 1, "peak at index {peak_idx}");
        assert!(cycles[peak_idx] > cycles[0]);
        // Regime 2/3: runtime falls after the peak and flattens at the end.
        assert!(cycles[cycles.len() - 1] < cycles[peak_idx]);
        let tail_ratio = cycles[cycles.len() - 1] / cycles[cycles.len() - 2];
        assert!(tail_ratio < 1.05, "tail should saturate, ratio {tail_ratio}");
    }

    #[test]
    fn more_nonzeros_cost_more_cycles() {
        let config = MemoryConfig::default();
        let small = model_tiled_spmm(8000, 5000, &config);
        let large = model_tiled_spmm(8000, 50000, &config);
        assert!(large.cycles > small.cycles);
        assert!(large.nonempty_tiles > small.nonempty_tiles);
    }

    #[test]
    fn tile_grid_tracks_dimension() {
        let config = MemoryConfig::default();
        let e = model_tiled_spmm(1024, 10000, &config);
        assert_eq!(e.grid, 8);
        assert!(e.effectual_tile_pairs > 0.0);
        assert!(e.dram_bytes > 0.0);
    }

    #[test]
    fn comparison_computes_ratios() {
        let config = MemoryConfig::default();
        let analytic = model_tiled_spmm(2048, 10000, &config);
        let measured = MemoryCounters {
            dram_bytes: analytic.dram_bytes as u64 * 2,
            llb_peak_bytes: 1024,
            tiles_visited: 100,
            tiles_skipped: 40,
            tiles_executed: 60,
            spill_events: 0,
        };
        let cmp = compare_with_model(analytic, measured, analytic.cycles * 0.5);
        assert!((cmp.dram_ratio - 2.0).abs() < 0.01);
        assert!((cmp.cycle_ratio - 0.5).abs() < 1e-9);
        assert_eq!(cmp.measured.tiles_executed, 60);
    }
}
