//! The Figure 15 finite-memory study, measured: tiled SpM*SpM on the
//! `TiledBackend` across matrix dimensions for a fixed nonzero budget. As
//! the dimension grows, tiles empty out and sparse tile skipping removes
//! more of the tile tuples the schedule visits.
use sam::custard::graphs::{self, SpmmDataflow};
use sam::exec::{ExecRequest, Inputs, TiledBackend};
use sam::memory::MemoryConfig;
use sam::tensor::{synth, TensorFormat};

fn main() {
    let config = MemoryConfig::default();
    let nnz = 5000;
    println!(
        "Tiled SpM*SpM on TiledBackend ({} GB/s DRAM, {} MiB LLB, {}x{} tiles), nnz={nnz} per operand",
        config.dram_bandwidth_bytes_per_s / 1e9,
        config.llb_bytes / (1024 * 1024),
        config.tile,
        config.tile
    );
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let backend = TiledBackend::new(config);
    for dim in [1024, 2048, 4096, 8192] {
        let b = synth::random_matrix_nnz(dim, dim, nnz, 1);
        let c = synth::random_matrix_nnz(dim, dim, nnz, 2);
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
        let run = ExecRequest::new(&graph, &inputs).executor(&backend).run().expect("tiled run");
        let mem = run.memory.expect("tiled runs report memory counters");
        println!(
            "  dim {dim:>5}: {:>7} tiles executed, {:>7} skipped, {:>8} DRAM bytes, {:>9} cycles",
            mem.tiles_executed,
            mem.tiles_skipped,
            mem.dram_bytes,
            run.cycles.expect("tiled runs estimate cycles")
        );
    }
}
