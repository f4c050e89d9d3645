//! The tiled finite-memory backend: the paper's Section 6.4 machine, run
//! tile by tile.
//!
//! Where [`FastBackend`](crate::FastBackend) assumes the whole operand set
//! fits wherever streams live, [`TiledBackend`] executes under a
//! [`MemoryConfig`] budget: operands are cut into `tile x tile` sub-tensors
//! by `sam-tiles`, a tile schedule enumerates the tile tuples of the
//! kernel's iteration space with ExTensor-style sparse tile skipping, each
//! surviving tuple runs the ordinary fast executor over its tile operands,
//! one tuple at a time, and a tile-merge reducer accumulates the partial
//! outputs. A tensor one window covers is bound whole, uncut. A tile is only
//! a coarser coordinate level, so every tuple walks the run's own plan: the
//! run plans once, whatever its tile shapes. Every tuple's walk runs in one
//! workspace the run keeps: it starts from the stream buffers, register
//! files, stream table and writer arrays the tuple before it grew, and the
//! run frees them before its merge. A tuple's partial output is never a
//! tensor: the merger reads its writers' levels and values where they were
//! written, once they are checked to form one tree, and hands the arrays
//! back to the workspace for the next tuple's writers. The tile
//! access sequence drives an LRU model of the last-level buffer, so the run
//! reports *measured* counters ([`MemoryCounters`]) — DRAM bytes moved, LLB
//! occupancy high-water mark, tiles skipped and capacity spills — which
//! `samrepro fig15` prints.
//!
//! The tile schedule is one record derived from the plan (the crate-private
//! `schedule` module), by binding position and variable number, and is
//! structure-preserving:
//! on inputs whose partial sums are exact (e.g. integer-valued data), a
//! tiled run is bit-identical to an untiled run, at any tile size.
//!
//! ```
//! use custard::graphs;
//! use custard::graphs::SpmmDataflow;
//! use sam_exec::{ExecRequest, Inputs, TiledBackend};
//! use sam_tensor::{synth, CooTensor, TensorFormat};
//!
//! // Integer-valued operands make tiled partial sums exact.
//! let int = |coo: &CooTensor| {
//!     CooTensor::from_entries(
//!         coo.shape().to_vec(),
//!         coo.entries().iter().map(|(p, v)| (p.clone(), (v * 4.0).round())).collect(),
//!     )
//!     .unwrap()
//! };
//! let b = int(&synth::random_matrix_sparsity(40, 32, 0.9, 1));
//! let c = int(&synth::random_matrix_sparsity(32, 40, 0.9, 2));
//! let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
//! let graph = graphs::spmm(SpmmDataflow::LinearCombination);
//! let untiled = ExecRequest::new(&graph, &inputs).run().unwrap();
//! let tiled =
//!     ExecRequest::new(&graph, &inputs).executor(&TiledBackend::with_tile(8)).run().unwrap();
//! assert_eq!(untiled.output.unwrap(), tiled.output.unwrap());
//! let mem = tiled.memory.unwrap();
//! assert!(mem.dram_bytes > 0 && mem.tiles_executed > 0);
//! ```

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::fast::{define_nodes, walk, Workspace};
use crate::plan::Plan;
use crate::schedule::{tile_schedule, Cut};
use crate::{check_output, Execution, Executor};
use sam_memory::{MemoryConfig, MemoryCounters};
use sam_tensor::level::{BitvectorLevel, CompressedLevel, DenseLevel, Level};
use sam_tensor::Tensor;
use sam_tiles::{LlbModel, Misplaced, TileGrid, TileMerger};
use sam_trace::{ExecProfile, TokenCounts, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// Executes plans tile by tile under a finite-memory budget, recording
/// measured DRAM/LLB counters on the [`Execution`].
#[derive(Debug, Clone)]
pub struct TiledBackend {
    config: MemoryConfig,
    skipping: bool,
}

impl Default for TiledBackend {
    fn default() -> Self {
        TiledBackend::new(MemoryConfig::default())
    }
}

impl TiledBackend {
    /// A backend over the given hardware parameters (tile size, LLB
    /// capacity, DRAM bandwidth, bytes per stored entry).
    pub fn new(config: MemoryConfig) -> Self {
        TiledBackend { config, skipping: true }
    }

    /// The paper's default configuration with the tile size overridden —
    /// the knob the equivalence suite sweeps.
    pub fn with_tile(tile: usize) -> Self {
        TiledBackend::new(MemoryConfig { tile: tile.max(1), ..MemoryConfig::default() })
    }

    /// Enables or disables ExTensor-style sparse tile skipping (on by
    /// default). With skipping off, every tile tuple with any nonempty
    /// operand executes — the baseline `fig15` measures the skipping win
    /// against.
    pub fn with_skipping(mut self, on: bool) -> Self {
        self.skipping = on;
        self
    }
}

impl Executor for TiledBackend {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn run_traced(
        &self,
        plan: &Plan,
        inputs: &Inputs,
        trace: &dyn TraceSink,
    ) -> Result<Execution, ExecError> {
        plan.check_inputs(inputs)?;
        let start = Instant::now();
        let tracing = trace.enabled();
        // Inner tile runs share the outer sink (per-node counters accumulate
        // across tuples) but their spans are replaced by one per tile tuple.
        let tile_sink = TileSink { inner: trace };
        // Every tuple walks `plan`: its nodes are defined, and their labels
        // formatted, once per run.
        let labels = define_nodes(plan, trace);
        let schedule = tile_schedule(plan, inputs, self.config.tile);
        let cuts = &schedule.cuts;
        // Each phase (cut, tuple loop, merge) is a span on the `tiles` track,
        // and inside the loop each executed tuple's bind, walk and absorb.
        let phase = Phases { trace, start, tracing };

        // Cut every tensor the schedule windows into its tile grid.
        let cut_start = phase.now();
        let grids: Vec<TileGrid> = cuts
            .iter()
            .enumerate()
            .map(|(ti, cut)| {
                let tensor = inputs.at(cut.tensor);
                TileGrid::build(tensor, schedule.level_tile_sizes(ti, tensor)).map_err(
                    |Misplaced { level }| {
                        // Named after the node a misplaced coordinate reaches
                        // first, or the tensor if no node reads its level.
                        let label = cut.levels[level].reader.map(|id| plan.node_label(id));
                        ExecError::Misaligned {
                            label: label.unwrap_or_else(|| plan.binding_name(cut.tensor).to_string()),
                        }
                    },
                )
            })
            .collect::<Result<_, _>>()?;
        phase.record("cut", cut_start);

        let bytes_per_entry = self.config.bytes_per_nonzero as u64;
        let mut llb = LlbModel::new(self.config.llb_bytes as u64);
        let mut counters = MemoryCounters::default();
        let mut merger = TileMerger::new();
        let mut scalar_sum = 0.0f64;
        let mut tokens = 0u64;
        // Per cut, the empty tiles bound so far, by shape: only a window on
        // the grid's far edge along a level is narrower, so there are few.
        let mut empty: Vec<Vec<(Vec<usize>, Arc<Tensor>)>> = vec![Vec::new(); cuts.len()];
        let mut shape: Vec<usize> = Vec::new();

        // Offsets of the output writers' variables, refreshed per tuple.
        let mut offsets: Vec<u32> = Vec::with_capacity(schedule.writer_vars.len());

        // Row-major enumeration of the variable tile tuple space. The
        // tuple and the key/tile buffers are reused across tuples: large
        // sweeps visit millions.
        let tuples_start = phase.now();
        let grid = schedule.tuple_space();
        let mut tuple = vec![0usize; grid.len()];
        let mut keys: Vec<Vec<u32>> = vec![Vec::new(); cuts.len()];
        let mut found: Vec<Option<&Arc<Tensor>>> = vec![None; cuts.len()];
        // Each executed tuple rebinds every tensor the schedule tiles; the
        // scalars behind `ConstVal` sources ride along unchanged.
        let mut tile_inputs = inputs.clone();
        let mut ws = Workspace::default();
        for n in 0..grid.iter().product::<usize>() {
            if n > 0 {
                // Odometer step: the last variable varies fastest.
                let mut d = grid.len() - 1;
                while tuple[d] + 1 == grid[d] {
                    tuple[d] = 0;
                    d -= 1;
                }
                tuple[d] += 1;
            }
            counters.tiles_visited += 1;

            let bind_start = phase.now();
            for ti in 0..cuts.len() {
                schedule.tile_key_into(ti, &tuple, &mut keys[ti]);
                found[ti] = grids[ti].get_shared(&keys[ti]);
            }
            let skip =
                if self.skipping && cuts.iter().zip(&found).any(|(cut, tile)| cut.skips && tile.is_none()) {
                    // A structurally required operand tile is empty: the
                    // tuple provably contributes no output entries.
                    true
                } else {
                    // With every operand tile empty nothing can flow at
                    // all; always safe, and it keeps the skip-free
                    // baseline from executing pure-vacuum tuples.
                    found.iter().all(Option::is_none)
                };
            if skip {
                counters.tiles_skipped += 1;
                continue;
            }

            counters.tiles_executed += 1;
            // Fetch the operand tiles through the modelled LLB.
            for (ti, tile) in found.iter().enumerate() {
                if let Some(tile) = tile {
                    let bytes = tile.vals().len() as u64 * bytes_per_entry;
                    llb.access((ti, grids[ti].linear_key(&keys[ti])), bytes);
                }
            }

            // Bind the tile operands (materializing empty tiles for
            // operands outside the skip set). Tiles are shared into
            // the input set in place — a refcount bump per tuple, not a
            // deep copy.
            for (ti, (key, &Cut { tensor, .. })) in keys.iter().zip(cuts).enumerate() {
                let tile: Arc<Tensor> = match found[ti] {
                    Some(t) => Arc::clone(t),
                    None => {
                        let bound = inputs.at(tensor);
                        shape.clear();
                        shape.extend(key.iter().zip(grids[ti].tile_sizes()).enumerate().map(
                            |(d, (&k, &size))| size.min(bound.level(d).dimension() - k as usize * size),
                        ));
                        let tiles = &mut empty[ti];
                        match tiles.iter().find(|(s, _)| *s == shape) {
                            Some((_, t)) => Arc::clone(t),
                            None => {
                                let t = Arc::new(empty_tile(bound, &shape));
                                tiles.push((shape.clone(), Arc::clone(&t)));
                                t
                            }
                        }
                    }
                };
                tile_inputs.rebind_at(tensor, tile);
            }

            // Run the tuple and absorb its partial output straight from
            // its writers' arrays, which then go back to the workspace.
            // `TileMerger` accumulation and the float sums it feeds are
            // order-sensitive: canonical tuple order is what keeps a tiled
            // run bit-identical to an untiled one.
            phase.record("bind", bind_start);
            let tile_start = phase.now();
            let written = walk(plan, &tile_inputs, &tile_sink, &labels, &mut ws)?;
            if let Some(t0) = tile_start {
                let (at, dur) = ((t0 - start).as_nanos() as u64, t0.elapsed().as_nanos() as u64);
                trace.record_span("tiles", &format!("tile{tuple:?}"), at, dur);
            }
            tokens += written.tokens;
            if written.levels.is_empty() {
                scalar_sum += written.vals.iter().sum::<f64>();
            } else {
                offsets.clear();
                offsets.extend(schedule.writer_vars.iter().map(|&v| schedule.window_start(&tuple, v)));
                let absorb_start = phase.now();
                check_output(&written.levels, &written.vals)?;
                merger.absorb(&written.levels, &written.vals, &offsets);
                phase.record("absorb", absorb_start);
            }
            ws.recycle(written);
        }
        phase.record("tuples", tuples_start);
        // The walks' spare buffers are freed before the merge allocates the
        // output.
        drop(ws);

        // The merged output streams back to DRAM once.
        let merge_start = phase.now();
        let (output, vals) = if plan.level_writers().is_empty() {
            (None, vec![scalar_sum])
        } else {
            let (tensor, vals) = merger.finish(plan.output_name(), plan.output_shape().to_vec());
            llb.write_through(vals.len() as u64 * bytes_per_entry);
            (Some(tensor), vals)
        };
        phase.record("merge", merge_start);

        counters.dram_bytes = llb.dram_bytes();
        counters.llb_peak_bytes = llb.peak_bytes();
        counters.spill_events = llb.evictions();

        // A cycle estimate from the run's own counts: compute is one token
        // per cycle plus a fixed per-tuple pipeline
        // overhead, memory is DRAM traffic over bandwidth, and the tile
        // sequencing graph pays for walking the operand tile catalogs.
        let compute = tokens as f64 + 8.0 * counters.tiles_executed as f64;
        let memory_cycles =
            counters.dram_bytes as f64 / self.config.dram_bandwidth_bytes_per_s * self.config.frequency_hz;
        let sequencing: f64 =
            grids.iter().map(|g| 2.0 * g.nonempty() as f64 + 0.5 * g.total_tiles() as f64).sum();
        let cycles = (compute.max(memory_cycles) + sequencing).round() as u64;

        Ok(Execution {
            backend: self.name(),
            output,
            vals,
            cycles: Some(cycles),
            blocks: plan.graph().len(),
            channels: plan.channels().len(),
            tokens,
            memory: Some(counters),
            elapsed: start.elapsed(),
            profile: trace.snapshot(),
        })
    }
}

/// Records the tiled run's phases as spans on the `tiles` track, relative
/// to the run's `start`; an untraced run reads no clock.
struct Phases<'a> {
    trace: &'a dyn TraceSink,
    start: Instant,
    tracing: bool,
}

impl Phases<'_> {
    /// When a phase starts, if the run is traced.
    fn now(&self) -> Option<Instant> {
        self.tracing.then(Instant::now)
    }

    /// Records the phase `name` that began at `began` and ends now.
    fn record(&self, name: &str, began: Option<Instant>) {
        if let Some(t0) = began {
            let at = (t0 - self.start).as_nanos() as u64;
            self.trace.record_span("tiles", name, at, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Forwards per-node counters from inner tile runs to the outer sink while
/// suppressing the inner per-node spans — their timestamps are relative to
/// each tuple's own start, so they would overlap meaninglessly on a shared
/// timeline. The backend emits one span per executed tile tuple instead.
struct TileSink<'a> {
    inner: &'a dyn TraceSink,
}

impl TraceSink for TileSink<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn record_tokens(&self, node: usize, counts: TokenCounts) {
        self.inner.record_tokens(node, counts);
    }
    fn record_invocations(&self, node: usize, n: u64) {
        self.inner.record_invocations(node, n);
    }
    fn record_node_wall(&self, node: usize, ns: u64) {
        self.inner.record_node_wall(node, ns);
    }
    fn record_span(&self, _track: &str, _name: &str, _start_ns: u64, _dur_ns: u64) {}
    fn snapshot(&self) -> Option<ExecProfile> {
        None
    }
}

/// An empty tile of `bound`, `shape[level]` coordinates along each storage
/// level, under its name and in its format — what a non-skippable operand
/// binds when its window holds no stored entries. Built level by level, as
/// `Tensor::from_coo` builds an empty tensor, since a window may span no
/// coordinate: each level holds one fiber per child of the level above it.
fn empty_tile(bound: &Tensor, shape: &[usize]) -> Tensor {
    let mut fibers = 1;
    let levels = bound.levels().iter().zip(shape).map(|(level, &dim)| {
        let empty = match level {
            Level::Dense(_) => Level::Dense(DenseLevel::new(dim, fibers)),
            Level::Compressed(_) => {
                Level::Compressed(CompressedLevel { dim, seg: vec![0; fibers + 1], crd: Vec::new() })
            }
            Level::Bitvector(b) => {
                Level::Bitvector(BitvectorLevel::from_fibers(dim, b.word_width, &vec![Vec::new(); fibers]))
            }
        };
        fibers = empty.num_children();
        empty
    });
    let levels: Vec<Level> = levels.collect();
    let mut logical_shape = vec![0usize; shape.len()];
    for (level, &m) in bound.format().mode_order().iter().enumerate() {
        logical_shape[m] = shape[level];
    }
    // A dense leaf level stores every slot, each an explicit zero.
    Tensor::from_parts(bound.name(), logical_shape, bound.format().clone(), levels, vec![0.0; fibers])
}

#[cfg(test)]
mod tests {
    use super::*;
    use custard::graphs;
    use sam_tensor::{synth, CooTensor, LevelFormat, TensorFormat};
    use std::sync::{Mutex, PoisonError};

    fn int_coo(coo: &CooTensor) -> CooTensor {
        CooTensor::from_entries(
            coo.shape().to_vec(),
            coo.entries().iter().map(|(p, v)| (p.clone(), (v * 4.0).round())).collect(),
        )
        .unwrap()
    }

    /// An empty tile is the tensor `from_coo` builds of no entries, in every
    /// level format, and exists where a window spans no coordinate.
    #[test]
    fn an_empty_tile_is_what_from_coo_builds_of_no_entries() {
        let bitvector = LevelFormat::Bitvector { word_width: 4 };
        let formats = [
            TensorFormat::dense(2),
            TensorFormat::csr(),
            TensorFormat::dcsr(),
            TensorFormat::dcsc(),
            TensorFormat::new(vec![LevelFormat::Dense, bitvector]),
            TensorFormat::new(vec![bitvector, LevelFormat::Compressed]),
        ];
        let coo = synth::random_matrix_sparsity(6, 5, 0.5, 50);
        for format in formats {
            let bound = Tensor::from_coo("B", &coo, format.clone());
            let logical = [3, 2];
            let shape: Vec<usize> = format.mode_order().iter().map(|&m| logical[m]).collect();
            let expect = Tensor::from_coo("B", &CooTensor::new(logical.to_vec()), format.clone());
            assert_eq!(empty_tile(&bound, &shape), expect, "{format:?}");
            let zero: Vec<usize> = format.mode_order().iter().map(|&m| [3, 0][m]).collect();
            assert_eq!(empty_tile(&bound, &zero).shape(), [3, 0], "{format:?}");
        }
    }

    #[test]
    fn skipping_reduces_dram_traffic_without_changing_results() {
        let b = int_coo(&synth::random_matrix_nnz(64, 64, 60, 51));
        let c = int_coo(&synth::random_matrix_nnz(64, 64, 60, 52));
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
        let graph = graphs::spmm(custard::graphs::SpmmDataflow::LinearCombination);
        // An LLB far smaller than the working set: executing needless tile
        // tuples now costs real refetch traffic, which skipping avoids.
        let config = MemoryConfig { tile: 8, llb_bytes: 256, ..MemoryConfig::default() };
        let run = |backend: &TiledBackend| {
            crate::ExecRequest::new(&graph, &inputs).executor(backend).run().unwrap()
        };
        let skip = run(&TiledBackend::new(config));
        let noskip = run(&TiledBackend::new(config).with_skipping(false));
        assert_eq!(skip.output, noskip.output);
        let (sm, nm) = (skip.memory.unwrap(), noskip.memory.unwrap());
        assert!(sm.tiles_skipped > nm.tiles_skipped);
        assert!(sm.tiles_executed < nm.tiles_executed);
        assert!(
            sm.dram_bytes < nm.dram_bytes,
            "skipping must cut DRAM traffic: {} vs {}",
            sm.dram_bytes,
            nm.dram_bytes
        );
    }

    #[test]
    fn tiny_llb_spills_while_a_big_one_holds_the_working_set() {
        let b = int_coo(&synth::random_matrix_sparsity(48, 48, 0.7, 53));
        let c = int_coo(&synth::random_matrix_sparsity(48, 48, 0.7, 54));
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
        let graph = graphs::spmm(custard::graphs::SpmmDataflow::LinearCombination);
        let tiny = MemoryConfig { tile: 8, llb_bytes: 256, ..MemoryConfig::default() };
        let big = MemoryConfig { tile: 8, ..MemoryConfig::default() };
        let run = |backend: &TiledBackend| {
            crate::ExecRequest::new(&graph, &inputs).executor(backend).run().unwrap()
        };
        let small_run = run(&TiledBackend::new(tiny));
        let big_run = run(&TiledBackend::new(big));
        assert_eq!(small_run.output, big_run.output, "LLB size must not change results");
        let (sm, bm) = (small_run.memory.unwrap(), big_run.memory.unwrap());
        assert!(sm.spill_events > 0, "a 256-byte LLB must spill");
        assert_eq!(bm.spill_events, 0, "the paper-sized LLB holds this working set");
        assert!(sm.dram_bytes > bm.dram_bytes, "spilling refetches tiles");
        assert!(bm.llb_peak_bytes <= big.llb_bytes as u64);
    }

    /// Collects the names of the `tiles` spans it is handed, enabled or not.
    struct TileSpans {
        enabled: bool,
        names: Mutex<Vec<String>>,
    }

    impl TraceSink for TileSpans {
        fn enabled(&self) -> bool {
            self.enabled
        }

        fn record_span(&self, track: &str, name: &str, _start_ns: u64, _dur_ns: u64) {
            if track == "tiles" {
                self.names.lock().unwrap_or_else(PoisonError::into_inner).push(name.to_string());
            }
        }
    }

    #[test]
    fn a_traced_run_records_its_phases_and_an_untraced_one_nothing() -> Result<(), ExecError> {
        let b = int_coo(&synth::random_matrix_nnz(32, 32, 40, 55));
        let c = int_coo(&synth::random_matrix_nnz(32, 32, 40, 56));
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
        let graph = graphs::spmm(custard::graphs::SpmmDataflow::LinearCombination);
        let run = |enabled| -> Result<(usize, Vec<String>), ExecError> {
            let sink = TileSpans { enabled, names: Default::default() };
            let backend = TiledBackend::with_tile(8);
            let run = crate::ExecRequest::new(&graph, &inputs).executor(&backend).traced(&sink).run()?;
            let executed = run.memory.map_or(0, |m| m.tiles_executed as usize);
            Ok((executed, sink.names.into_inner().unwrap_or_else(PoisonError::into_inner)))
        };

        let (executed, names) = run(true)?;
        let count = |name: &str| names.iter().filter(|n| *n == name).count();
        let phases: Vec<&String> =
            names.iter().filter(|n| ["cut", "tuples", "merge"].contains(&n.as_str())).collect();
        assert_eq!(phases, ["cut", "tuples", "merge"], "one span per phase, in run order");
        assert!(executed > 1);
        assert_eq!(
            names.iter().filter(|n| n.starts_with("tile[")).count(),
            executed,
            "one walk span a tuple"
        );
        assert_eq!(count("absorb"), executed, "one absorb span per tuple output");
        assert_eq!(count("bind"), executed, "one bind span per executed tuple");
        assert_eq!(names.len(), 3 + 3 * executed, "{names:?}");

        assert_eq!(run(false)?, (executed, Vec::new()), "an untraced run records no span");
        Ok(())
    }
}
