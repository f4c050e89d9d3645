//! # sam-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! (Section 6) is regenerated by a function in this crate and printed by
//! `samrepro <target>`. Host wall-clock performance is not measured here;
//! that is `sambench/` at the repository root.
//!
//! | Artifact | Function | `samrepro` target |
//! |----------|----------|-------------------|
//! | Table 1  | [`table1_report`] | `table1` |
//! | Table 2  | [`table2_report`] | `table2` |
//! | Figure 11 | [`figure11_report`] | `fig11` |
//! | Figure 12 | [`figure12_report`] | `fig12` |
//! | Figure 13 | [`figure13_report`] | `fig13` |
//! | Figure 14 | [`figure14_report`] | `fig14` |
//! | Figure 15 | [`figure15_measured_report`], [`figure15_skipping_study`] | `fig15` |
//! | Section 3.8 stream analysis | [`stream_analysis_report`] | `stream_analysis` |
//! | Executor cross-check | [`executor_report`] | `table1` |
//!
//! Every simulated cycle count comes from a `custard::graphs` graph run
//! through `sam-exec` on the [`CycleBackend`]. The two bitvector columns of
//! Figure 13 are the exception: their blocks have no IR node yet, so they use
//! the hand-wired runs in `sam_primitives::bitvector`. Figure 15's counters
//! and cycles come from runs on the [`TiledBackend`], and Section 3.8's
//! level-based token counts from Figure 14's identity runs; nothing here
//! prints a closed-form estimate.

use custard::graphs::{self, SddmmVariant, SpmmDataflow, VecFormat};
use custard::{
    ablation_study, lower, lower_exec, parse, ConcreteIndexNotation, ExpressionCorpus, Formats, Schedule,
};
use sam_core::graph::{NodeKind, SamGraph};
use sam_exec::{
    CountersSink, CycleBackend, ExecRequest, Execution, FastBackend, Inputs, TiledBackend, TokenCounts,
};
use sam_memory::{MemoryConfig, MemoryCounters};
use sam_primitives::bitvector::{bit_tree_vec_mul, bitvector_vec_mul};
use sam_tensor::expr::table1;
use sam_tensor::reference::Environment;
use sam_tensor::suitesparse::{table3_catalog, MatrixInfo};
use sam_tensor::synth;
use sam_tensor::{CooTensor, Tensor, TensorFormat};

/// A single-value tensor standing in for a zero-index scalar operand.
fn scalar_operand(value: f64) -> CooTensor {
    CooTensor::from_entries(vec![1], vec![(vec![0], value)]).expect("scalar operand")
}

/// Table 1: SAM primitive counts for the twelve paper expressions, produced
/// by lowering each expression with Custard.
pub fn table1_report() -> String {
    let mut out = String::new();
    out.push_str("Table 1: SAM primitive composition (Custard-lowered graphs)\n");
    out.push_str(&format!(
        "{:<14} {:>5} {:>7} {:>9} {:>6} {:>4} {:>7} {:>8} {:>6} {:>6}\n",
        "Name", "Scan", "Repeat", "Intersect", "Union", "ALU", "Reduce", "CrdDrop", "LvlWr", "Array"
    ));
    for (name, assignment) in table1::all() {
        let schedule = if name == "SpM*SpM" { Schedule::new().reorder("ikj") } else { Schedule::new() };
        let cin = ConcreteIndexNotation::new(assignment, &schedule, Formats::new());
        let c = lower(&cin).primitive_counts();
        out.push_str(&format!(
            "{:<14} {:>5} {:>7} {:>9} {:>6} {:>4} {:>7} {:>8} {:>6} {:>6}\n",
            name,
            c.level_scan,
            c.repeat,
            c.intersect,
            c.union,
            c.alu,
            c.reduce,
            c.crd_drop,
            c.level_write,
            c.array
        ));
    }
    out
}

/// One Table 1 expression case: display name, expression text and named
/// COO operands sized for `dim`.
type Case = (&'static str, &'static str, Vec<(&'static str, CooTensor)>);

/// The Table 1 expression corpus the executor cross-check (and `samprof`'s
/// expression mode) draw from, with operands sized by `dim`.
fn expression_cases(dim: usize) -> Vec<Case> {
    vec![
        (
            "VecElemMul",
            "x(i) = b(i) * c(i)",
            vec![
                ("b", synth::random_vector(8 * dim, 2 * dim, 81)),
                ("c", synth::random_vector(8 * dim, 2 * dim, 82)),
            ],
        ),
        (
            "VecElemAdd",
            "x(i) = b(i) + c(i)",
            vec![
                ("b", synth::random_vector(8 * dim, 2 * dim, 83)),
                ("c", synth::random_vector(8 * dim, 2 * dim, 84)),
            ],
        ),
        (
            "SpMV",
            "x(i) = B(i,j) * c(j)",
            vec![
                ("B", synth::random_matrix_sparsity(dim, dim, 0.95, 85)),
                ("c", synth::random_vector(dim, dim / 2, 86)),
            ],
        ),
        (
            "SpM*SpM",
            "X(i,j) = B(i,k) * C(k,j)",
            vec![
                ("B", synth::random_matrix_sparsity(dim, dim / 2, 0.95, 87)),
                ("C", synth::random_matrix_sparsity(dim / 2, dim, 0.95, 88)),
            ],
        ),
        (
            "SDDMM",
            "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
            vec![
                ("B", synth::random_matrix_sparsity(dim / 2, dim / 2, 0.95, 89)),
                ("C", synth::random_matrix_sparsity(dim / 2, 8, 0.0, 90)),
                ("D", synth::random_matrix_sparsity(dim / 2, 8, 0.0, 91)),
            ],
        ),
        ("Identity", "X(i,j) = B(i,j)", vec![("B", synth::random_matrix_sparsity(dim, dim, 0.9, 92))]),
        (
            "Residual",
            "x(i) = b(i) - C(i,j) * d(j)",
            vec![
                ("b", synth::random_vector(dim, dim / 3, 93)),
                ("C", synth::random_matrix_sparsity(dim, dim, 0.95, 94)),
                ("d", synth::random_vector(dim, dim / 3, 95)),
            ],
        ),
        (
            "MatTransMul",
            "x(i) = alpha * B(j,i) * c(j) + beta * d(i)",
            vec![
                ("alpha", scalar_operand(2.0)),
                ("B", synth::random_matrix_sparsity(dim, dim, 0.95, 96)),
                ("c", synth::random_vector(dim, dim / 3, 97)),
                ("beta", scalar_operand(-3.0)),
                ("d", synth::random_vector(dim, dim / 3, 98)),
            ],
        ),
        (
            "Plus3",
            "X(i,j) = B(i,j) + C(i,j) + D(i,j)",
            vec![
                ("B", synth::random_matrix_sparsity(dim, dim, 0.9, 99)),
                ("C", synth::random_matrix_sparsity(dim, dim, 0.9, 100)),
                ("D", synth::random_matrix_sparsity(dim, dim, 0.9, 101)),
            ],
        ),
    ]
}

/// Lowers one Table 1 expression case through Custard into an executable
/// graph with its operands bound, returning the graph and inputs ready for
/// any backend.
fn lower_case(name: &str, text: &str, operands: &[(&'static str, CooTensor)]) -> (SamGraph, Inputs) {
    let assignment = parse(text).expect("valid expression");
    let schedule = if name == "SpM*SpM" { Schedule::new().reorder("ikj") } else { Schedule::new() };
    let cin = ConcreteIndexNotation::new(assignment, &schedule, Formats::new());
    let kernel = lower_exec(&cin).expect("executable lowering");
    let mut inputs = Inputs::new();
    for (op_name, coo) in operands {
        // Zero-index scalar operands carry no derived storage format; they
        // bind as single-value vectors. Indexed operands missing from the
        // derived formats are a wiring typo and panic.
        let fmt = match kernel.formats.iter().find(|(n, _)| n == op_name) {
            Some((_, f)) => f.clone(),
            None if kernel.scalars.iter().any(|s| s == op_name) => TensorFormat::dense_vec(),
            None => panic!("operand `{op_name}` missing from derived formats"),
        };
        inputs = inputs.coo(op_name, coo, fmt);
    }
    (kernel.graph, inputs)
}

/// Looks up a Table 1 expression by its display name (case-insensitive,
/// e.g. `SpMV` or `Residual`), lowers it through Custard and binds
/// `dim`-sized operands. `None` for names outside the corpus; the valid
/// names are the first column of [`executor_report`].
pub fn table1_case(name: &str, dim: usize) -> Option<(SamGraph, Inputs)> {
    expression_cases(dim)
        .into_iter()
        .find(|(n, ..)| n.eq_ignore_ascii_case(name))
        .map(|(n, text, operands)| lower_case(n, text, &operands))
}

/// The Table 1 expression names [`table1_case`] accepts.
pub fn table1_case_names() -> Vec<&'static str> {
    expression_cases(8).into_iter().map(|(n, ..)| n).collect()
}

/// Catalog kernels [`kernel_case`] accepts — operands big enough that
/// per-node timing is meaningful but small enough for the cycle backend.
/// The `_skew` variants pit a dense matrix row against a very sparse
/// vector, so one scanner dominates the run — the case coordinate skipping
/// (`spmv_skip`) erases. Shared by `samprof` and `samlint`.
pub const PROFILE_KERNELS: &[&str] =
    &["vecmul", "vecmul_skew", "identity", "spmv", "spmv_skew", "spmv_skip", "spmm", "sddmm", "mttkrp"];

/// Looks up a named catalog kernel (see [`PROFILE_KERNELS`]) and binds its
/// standard synthetic operands. `None` for names outside the set.
pub fn kernel_case(name: &str) -> Option<(SamGraph, Inputs)> {
    // The skew pair: an 80%-dense 400x2000 matrix co-iterated against a
    // 12-nonzero vector.
    let skew = || {
        let m = synth::random_matrix_sparsity(400, 2000, 0.2, 58);
        let sv = synth::random_vector(2000, 12, 59);
        (m, sv)
    };
    Some(match name {
        "vecmul" => {
            (
                graphs::vec_elem_mul(true),
                Inputs::new()
                    .coo("b", &synth::random_vector(4000, 1200, 21), TensorFormat::sparse_vec())
                    .coo("c", &synth::random_vector(4000, 1100, 22), TensorFormat::sparse_vec()),
            )
        }
        "vecmul_skew" => {
            (
                graphs::vec_elem_mul(true),
                Inputs::new()
                    .coo("b", &synth::random_vector(4000, 3600, 23), TensorFormat::sparse_vec())
                    .coo("c", &synth::random_vector(4000, 40, 24), TensorFormat::sparse_vec()),
            )
        }
        "identity" => (
            graphs::identity(),
            Inputs::new().coo("B", &synth::random_matrix_sparsity(256, 256, 0.9, 25), TensorFormat::dcsr()),
        ),
        "spmv" => {
            let (m, _) = skew();
            (
                graphs::spmv(),
                Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo(
                    "c",
                    &synth::random_vector(2000, 900, 20),
                    TensorFormat::dense_vec(),
                ),
            )
        }
        "spmv_skew" | "spmv_skip" => {
            let (m, sv) = skew();
            let graph =
                if name == "spmv_skip" { graphs::spmv_with_skip() } else { graphs::spmv_coiteration() };
            (
                graph,
                Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
            )
        }
        "spmm" => (
            graphs::spmm(SpmmDataflow::LinearCombination),
            Inputs::new()
                .coo("B", &synth::random_matrix_sparsity(128, 128, 0.9, 26), TensorFormat::dcsr())
                .coo("C", &synth::random_matrix_sparsity(128, 128, 0.9, 27), TensorFormat::dcsr()),
        ),
        "sddmm" => (
            graphs::sddmm_coiteration(),
            Inputs::new()
                .coo("B", &synth::random_matrix_sparsity(128, 128, 0.95, 28), TensorFormat::dcsr())
                .coo("C", &synth::dense_matrix(128, 16, 29), TensorFormat::dense(2))
                .coo("D", &synth::dense_matrix(128, 16, 30), TensorFormat::dense(2)),
        ),
        "mttkrp" => (
            graphs::mttkrp(),
            Inputs::new()
                .coo("B", &synth::random_tensor3([48, 24, 16], 3000, 31), TensorFormat::csf(3))
                .coo("C", &synth::random_matrix_sparsity(20, 24, 0.5, 32), TensorFormat::dcsc())
                .coo("D", &synth::random_matrix_sparsity(20, 16, 0.5, 33), TensorFormat::dcsc()),
        ),
        _ => return None,
    })
}

/// Compile → IR → execute: each core expression is lowered by Custard to an
/// executable graph and run through `sam-exec` on both backends; the row
/// reports cycle-backend cycles, per-backend wall-clock time and whether
/// both results match the dense reference evaluator.
pub fn executor_report(scale: usize) -> String {
    let dim = scaled(200, scale);
    let mut out = String::new();
    out.push_str("Custard -> SamGraph -> sam-exec: one graph, two backends\n");
    out.push_str(&format!(
        "{:<12} {:<34} {:>10} {:>12} {:>12} {:>8}\n",
        "Name", "Expression", "cycles", "cycle time", "fast time", "match"
    ));
    for (name, text, operands) in expression_cases(dim) {
        let assignment = parse(text).expect("valid expression");
        let (graph, inputs) = lower_case(name, text, &operands);
        let mut env = Environment::new();
        for (op_name, coo) in &operands {
            env.insert(op_name, Tensor::from_coo(op_name, coo, TensorFormat::dense(coo.order())).to_dense());
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).expect("reference evaluation");
        let cycle = run_cycle(&graph, &inputs);
        let fast = ExecRequest::new(&graph, &inputs).executor(&FastBackend::new()).run().expect("fast run");
        let ok = cycle.output.as_ref().expect("tensor").to_dense().approx_eq(&expect)
            && fast.output.as_ref().expect("tensor").to_dense().approx_eq(&expect);
        out.push_str(&format!(
            "{:<12} {:<34} {:>10} {:>12} {:>12} {:>8}\n",
            name,
            text,
            cycles_of(&cycle),
            format!("{:.2?}", cycle.elapsed),
            format!("{:.2?}", fast.elapsed),
            if ok { "yes" } else { "NO" }
        ));
    }
    out
}

/// Table 2: expressions lost when a SAM primitive is removed, over the
/// synthetic expression corpus.
pub fn table2_report() -> String {
    let corpus = ExpressionCorpus::generate();
    let rows = ablation_study(&corpus);
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2: ablation over {} distinct / {} weighted expressions\n",
        corpus.unique_count(),
        corpus.total_count()
    ));
    out.push_str(&format!(
        "{:<34} {:>8} {:>9} {:>9} {:>8}\n",
        "SAM Primitive Removed", "Unique", "All", "Unique %", "All %"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>8} {:>9} {:>8.2} {:>8.2}\n",
            r.removed, r.unique_lost, r.all_lost, r.unique_percent, r.all_percent
        ));
    }
    out
}

/// Runs one catalog graph over its operands on the cycle backend: the one
/// door every simulated figure goes through.
fn run_cycle(graph: &SamGraph, inputs: &Inputs) -> Execution {
    ExecRequest::new(graph, inputs).executor(&CycleBackend).run().expect("cycle run")
}

fn cycles_of(run: &Execution) -> u64 {
    run.cycles.expect("the cycle backend reports cycles")
}

/// A figure's dimension divided by the caller's `scale`, floored so extreme
/// scales still satisfy the synthetic generators' preconditions (nonzero
/// dimensions, nnz <= dim).
fn scaled(size: usize, scale: usize) -> usize {
    (size / scale.max(1)).max(8)
}

/// Simulated cycles of SDDMM with sparse `B` (I x J) and dense `C` (I x K),
/// `D` (J x K) in one Figure 11 variant. The unfused variant is two graphs
/// back to back — the dense product `T = C * D^T`, then `B` sampling `T` —
/// and costs the sum of both.
fn sddmm_cycles(b: &CooTensor, c: &CooTensor, d: &CooTensor, variant: SddmmVariant) -> u64 {
    let fused = |graph: SamGraph| {
        let inputs = Inputs::new().coo("B", b, TensorFormat::dcsr()).coo("C", c, TensorFormat::dense(2)).coo(
            "D",
            d,
            TensorFormat::dense(2),
        );
        cycles_of(&run_cycle(&graph, &inputs))
    };
    match variant {
        SddmmVariant::FusedCoiteration => fused(graphs::sddmm_coiteration()),
        SddmmVariant::FusedLocating => fused(graphs::sddmm_locating()),
        SddmmVariant::Unfused => {
            let (fc, fd) = SpmmDataflow::InnerProduct.operand_formats();
            let product = run_cycle(
                &graphs::spmm(SpmmDataflow::InnerProduct),
                &Inputs::new().coo("B", c, fc).coo("C", &d.permuted(&[1, 0]), fd),
            );
            let t = product.output.as_ref().expect("tensor output").to_coo();
            let sample = run_cycle(
                &graphs::mat_elem_mul_locating(),
                &Inputs::new().coo("B", b, TensorFormat::dcsr()).coo("T", &t, TensorFormat::dense(2)),
            );
            cycles_of(&product) + cycles_of(&sample)
        }
    }
}

/// Figure 11: fused vs. unfused vs. fused-locating SDDMM cycles for
/// K in {1, 10, 100} on a 95% sparse 250x250 sample matrix.
pub fn figure11_report(scale: usize) -> String {
    let (i, j) = (scaled(250, scale), scaled(250, scale));
    let mut out = String::new();
    out.push_str("Figure 11: SDDMM cycles (rows: K; columns: algorithm)\n");
    out.push_str(&format!("{:>6} {:>16} {:>16} {:>16}\n", "K", "Unfused", "Fused locating", "Fused coiter"));
    for k in [1usize, 10, 100] {
        let b = synth::random_matrix_sparsity(i, j, 0.95, 41);
        let c = synth::dense_matrix(i, k, 42);
        let d = synth::dense_matrix(j, k, 43);
        let unfused = sddmm_cycles(&b, &c, &d, SddmmVariant::Unfused);
        let locating = sddmm_cycles(&b, &c, &d, SddmmVariant::FusedLocating);
        let coiter = sddmm_cycles(&b, &c, &d, SddmmVariant::FusedCoiteration);
        out.push_str(&format!("{:>6} {:>16} {:>16} {:>16}\n", k, unfused, locating, coiter));
    }
    out
}

/// Runs SpM*SpM in one of the six `ijk` orders of Figure 12: the order's
/// dataflow graph, on transposed operands for the mirrored orders
/// (`X^T = C^T B^T`, so their output is `X^T`). `None` for any other string.
fn spmm_in_order(b: &CooTensor, c: &CooTensor, order: &str) -> Option<Execution> {
    let (dataflow, mirrored) = SpmmDataflow::from_order(order)?;
    let (fb, fc) = dataflow.operand_formats();
    let inputs = if mirrored {
        Inputs::new().coo("B", &c.permuted(&[1, 0]), fb).coo("C", &b.permuted(&[1, 0]), fc)
    } else {
        Inputs::new().coo("B", b, fb).coo("C", c, fc)
    };
    Some(run_cycle(&graphs::spmm(dataflow), &inputs))
}

/// Figure 12: SpM*SpM cycles for all six iteration orders on 95% sparse
/// matrices with I = J = 250, K = 100 (scaled down by `scale` for tests).
pub fn figure12_report(scale: usize) -> String {
    let (i, j, k) = (scaled(250, scale), scaled(250, scale), scaled(100, scale));
    let b = synth::random_matrix_sparsity(i, k, 0.95, 51);
    let c = synth::random_matrix_sparsity(k, j, 0.95, 52);
    let mut out = String::new();
    out.push_str("Figure 12: SpM*SpM cycles per iteration order\n");
    out.push_str(&format!("{:>6} {:>14}\n", "Order", "Cycles"));
    for order in ["ijk", "jik", "ikj", "jki", "kij", "kji"] {
        let run = spmm_in_order(&b, &c, order).expect("one of the six ijk orders");
        out.push_str(&format!("{:>6} {:>14}\n", order, cycles_of(&run)));
    }
    out
}

/// Simulated cycles of `x(i) = b(i) * c(i)` over two `dim`-vectors in one
/// Figure 13 configuration.
fn vecmul_cycles(b: &CooTensor, c: &CooTensor, dim: usize, format: VecFormat) -> u64 {
    let flat = |graph: SamGraph, fmt: TensorFormat| {
        cycles_of(&run_cycle(&graph, &Inputs::new().coo("b", b, fmt.clone()).coo("c", c, fmt)))
    };
    match format {
        VecFormat::Dense => flat(graphs::vec_elem_mul(false), TensorFormat::dense_vec()),
        VecFormat::Crd => flat(graphs::vec_elem_mul(true), TensorFormat::sparse_vec()),
        VecFormat::CrdSkip => flat(graphs::vec_elem_mul_with_skip(true), TensorFormat::sparse_vec()),
        VecFormat::CrdSplit { split } => {
            // The vector reshaped into `split` chunks; the last chunk is
            // partially filled when the split does not divide the dimension
            // (the paper's 2000-element vectors with a split factor of 64).
            let chunk = dim.div_ceil(split) as u32;
            let reshaped = |t: &CooTensor| {
                let entries = t.entries().iter().map(|(p, v)| (vec![p[0] / chunk, p[0] % chunk], *v));
                CooTensor::from_entries(vec![split, chunk as usize], entries.collect()).expect("in bounds")
            };
            let inputs = Inputs::new().coo("B", &reshaped(b), TensorFormat::csf(2)).coo(
                "C",
                &reshaped(c),
                TensorFormat::csf(2),
            );
            cycles_of(&run_cycle(&graphs::mat_elem_mul(), &inputs))
        }
        VecFormat::Bv { width } => bitvector_vec_mul(b, c, width).expect("bitvector run").1,
        VecFormat::BvSplit { width } => bit_tree_vec_mul(b, c, width).expect("bit-tree run").1,
    }
}

/// Figure 13: element-wise sparse vector multiply cycles across storage and
/// acceleration configurations: (a) sparsity sweep on uniformly random
/// vectors, (b) run-length sweep, (c) block-size sweep.
pub fn figure13_report(dim: usize) -> String {
    let formats = VecFormat::figure13_set();
    let mut out = String::new();
    let header = |title: &str| {
        let mut h = format!("{title}\n{:>10}", "x");
        for f in &formats {
            h.push_str(&format!(" {:>14}", f.label()));
        }
        h.push('\n');
        h
    };
    let row = |x: usize, b: &CooTensor, c: &CooTensor| {
        let mut r = format!("{x:>10}");
        for f in &formats {
            r.push_str(&format!(" {:>14}", vecmul_cycles(b, c, dim, *f)));
        }
        r.push('\n');
        r
    };

    out.push_str(&header("Figure 13a: cycles vs number of nonzeros (uniform random)"));
    for nnz in [20usize, 50, 100, 200, 400, 800].into_iter().filter(|n| 2 * n <= dim) {
        out.push_str(&row(nnz, &synth::random_vector(dim, nnz, 61), &synth::random_vector(dim, nnz, 62)));
    }

    out.push_str(&header("Figure 13b: cycles vs run length (runs pattern, 400 nonzeros)"));
    for run in [1usize, 2, 4, 8, 16, 32, 64, 100] {
        let (b, c) = synth::runs_vector_pair(dim, 400.min(dim / 4), run, 63);
        out.push_str(&row(run, &b, &c));
    }

    out.push_str(&header("Figure 13c: cycles vs block size (blocks pattern, 400 nonzeros)"));
    for block in [1usize, 2, 4, 8, 16, 32, 64, 100] {
        let (b, c) = synth::blocks_vector_pair(dim, 400.min(dim / 4), block, 64);
        out.push_str(&row(block, &b, &c));
    }
    out
}

/// One traced cycle run of the matrix identity and the tokens on its three
/// level-based streams: the quantities Figure 14 plots and Section 3.8 sums.
struct IdentityStreams {
    run: Execution,
    /// The outer (`i`) scanner's coordinate stream.
    outer: TokenCounts,
    /// The inner (`j`) scanner's coordinate stream.
    inner: TokenCounts,
    /// The array node's value stream.
    vals: TokenCounts,
}

impl IdentityStreams {
    /// Every token the level-based encoding of the matrix moved, control
    /// tokens included.
    fn level_tokens(&self) -> u64 {
        self.outer.total() + self.inner.total() + self.vals.total()
    }
}

/// Runs the matrix identity over `b` on the cycle backend, traced.
///
/// A traced run counts every token each node emitted. `graphs::identity`
/// has no forks, and a scanner's coordinate and reference outputs carry the
/// same control tokens (Definition 3.1), so the coordinate stream is the
/// node's `crd` tokens plus half its control tokens; the array node has
/// one output, its value stream. Every other cycle of the run a channel was
/// idle ([`idle_slots`]).
fn identity_stream_stats(b: &CooTensor) -> IdentityStreams {
    let graph = graphs::identity();
    let inputs = Inputs::new().coo("B", b, TensorFormat::dcsr());
    let sink = CountersSink::new();
    let run = ExecRequest::new(&graph, &inputs)
        .executor(&CycleBackend)
        .traced(&sink)
        .run()
        .expect("traced cycle run");
    let profile = run.profile.as_ref().expect("traced runs attach a profile");
    let tokens_of = |is: &dyn Fn(&NodeKind) -> bool| {
        let node = graph.nodes().iter().position(is).expect("the identity graph has the node");
        profile.nodes[node].tokens
    };
    let crd_stream = |index: char| {
        let TokenCounts { crd, stop, empty, done, .. } =
            tokens_of(&|n| matches!(n, NodeKind::LevelScanner { index: i, .. } if *i == index));
        TokenCounts { crd, stop: stop / 2, empty: empty / 2, done: done / 2, ..TokenCounts::default() }
    };
    let (outer, inner) = (crd_stream('i'), crd_stream('j'));
    let vals = tokens_of(&|n| matches!(n, NodeKind::Array { .. }));
    IdentityStreams { run, outer, inner, vals }
}

/// The Table 3 matrices with at most `max_nnz` nonzeros, each instantiated
/// and run through [`identity_stream_stats`]: the one set of runs Figure 14
/// and Section 3.8 both read.
fn table3_identity_runs(max_nnz: usize) -> impl Iterator<Item = (MatrixInfo, IdentityStreams)> {
    table3_catalog().into_iter().filter(move |info| info.nnz <= max_nnz).map(|info| {
        let streams = identity_stream_stats(&info.instantiate(71));
        (info, streams)
    })
}

/// The cycles of `run` during which a channel that carried `stream` carried
/// nothing: a channel moves at most one token a cycle.
fn idle_slots(run: &Execution, stream: &TokenCounts) -> u64 {
    cycles_of(run) - stream.total()
}

/// Figure 14: token-kind breakdown of the outer and inner coordinate streams
/// of the matrix identity expression over the Table 3 matrix catalog.
///
/// `max_nnz` bounds the instantiated matrix size so tests stay fast;
/// `samrepro fig14` uses `usize::MAX` to cover the full catalog.
pub fn figure14_report(max_nnz: usize) -> String {
    let mut out = String::new();
    out.push_str("Figure 14: identity-expression stream composition (fractions of channel slots)\n");
    out.push_str(&format!(
        "{:<14} {:>9} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}\n",
        "Matrix", "nnz", "o.idle", "o.done", "o.stop", "o.data", "i.idle", "i.done", "i.stop", "i.data"
    ));
    for (info, IdentityStreams { run, outer: o, inner: i, .. }) in table3_identity_runs(max_nnz) {
        let frac = |slots: u64| slots as f64 / cycles_of(&run).max(1) as f64;
        out.push_str(&format!(
            "{:<14} {:>9} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}\n",
            info.name,
            info.nnz,
            frac(idle_slots(&run, &o)),
            frac(o.done),
            frac(o.stop),
            frac(o.crd),
            frac(idle_slots(&run, &i)),
            frac(i.done),
            frac(i.stop),
            frac(i.crd),
        ));
    }
    out
}

/// Figure 15, measured: runs the synthetic ExTensor SpM*SpM sweep on the
/// `TiledBackend`, with constant-nnz uniformly random operands per the
/// paper. One `(dim, nnz, counters, cycles)` per (nnz, dim) pair, in sweep
/// order.
pub fn figure15_measured_points(
    dims: &[usize],
    nnz_list: &[usize],
    config: &MemoryConfig,
) -> Vec<(usize, usize, MemoryCounters, u64)> {
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let backend = TiledBackend::new(*config);
    let mut out = Vec::new();
    for &nnz in nnz_list {
        for &dim in dims {
            let b = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0001 ^ dim as u64);
            let c = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0002 ^ dim as u64);
            let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
            let run = ExecRequest::new(&graph, &inputs).executor(&backend).run().expect("tiled run");
            let memory = run.memory.expect("tiled runs report memory counters");
            out.push((dim, nnz, memory, run.cycles.expect("tiled runs estimate cycles")));
        }
    }
    out
}

/// Figure 15 (measured): [`figure15_measured_points`] as a table of executed
/// tiles, the share of visited tile tuples skipped, DRAM bytes and cycles.
pub fn figure15_measured_report(dims: &[usize], nnz_list: &[usize], config: &MemoryConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 15 (measured): tiled SpM*SpM on TiledBackend, tile={} llb={}KiB\n",
        config.tile,
        config.llb_bytes / 1024
    ));
    out.push_str(&format!(
        "{:>8} {:>8} {:>7} {:>7} | {:>12} | {:>12}\n",
        "dim", "nnz", "exec", "skip%", "dram (meas)", "cyc (meas)"
    ));
    for (dim, nnz, mem, cycles) in figure15_measured_points(dims, nnz_list, config) {
        let skip_pct = 100.0 * mem.tiles_skipped as f64 / (mem.tiles_visited as f64).max(1.0);
        out.push_str(&format!(
            "{:>8} {:>8} {:>7} {:>6.1}% | {:>12} | {:>12}\n",
            dim, nnz, mem.tiles_executed, skip_pct, mem.dram_bytes, cycles
        ));
    }
    out
}

/// The sparse-tile-skipping ablation: one Figure 15 configuration executed
/// with and without ExTensor-style skipping, under an LLB deliberately
/// smaller than the operand working set so needless tile fetches cost real
/// DRAM traffic. Returns the report plus both counter sets (skipping, then
/// not).
pub fn figure15_skipping_study(
    dim: usize,
    nnz: usize,
    config: &MemoryConfig,
) -> (String, MemoryCounters, MemoryCounters) {
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let b = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0003);
    let c = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0004);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
    let skip =
        ExecRequest::new(&graph, &inputs).executor(&TiledBackend::new(*config)).run().expect("tiled run");
    let noskip = ExecRequest::new(&graph, &inputs)
        .executor(&TiledBackend::new(*config).with_skipping(false))
        .run()
        .expect("tiled run");
    assert_eq!(skip.output, noskip.output, "skipping must not change results");
    let (sm, nm) = (skip.memory.expect("counters"), noskip.memory.expect("counters"));
    let mut out = String::new();
    out.push_str(&format!(
        "Sparse tile skipping at dim={dim} nnz={nnz} (llb={}KiB):\n",
        config.llb_bytes / 1024
    ));
    out.push_str(&format!(
        "{:>10} {:>10} {:>10} {:>12} {:>12} {:>10}\n",
        "", "executed", "skipped", "dram bytes", "llb peak", "evictions"
    ));
    for (name, m) in [("skip", &sm), ("no-skip", &nm)] {
        out.push_str(&format!(
            "{:>10} {:>10} {:>10} {:>12} {:>12} {:>10}\n",
            name, m.tiles_executed, m.tiles_skipped, m.dram_bytes, m.llb_peak_bytes, m.spill_events
        ));
    }
    let saved = nm.dram_bytes.saturating_sub(sm.dram_bytes);
    out.push_str(&format!(
        "skipping saves {:.1}% of DRAM traffic ({} of {} bytes)\n",
        100.0 * saved as f64 / (nm.dram_bytes as f64).max(1.0),
        saved,
        nm.dram_bytes,
    ));
    (out, sm, nm)
}

/// Section 3.8: level-based vs point-based stream token counts over the
/// Table 3 catalog.
pub fn stream_analysis_report() -> String {
    stream_analysis_table(usize::MAX)
}

/// [`stream_analysis_report`] over the Table 3 matrices with at most
/// `max_nnz` nonzeros. The level-based count is read from the Figure 14
/// identity run: the outer and inner coordinate streams plus the value
/// stream, control tokens included. The point-based count is `3 * nnz` by
/// definition: one `(i, j, value)` triple per nonzero and no control
/// tokens. `nnz/row` averages over the rows the run found nonempty.
fn stream_analysis_table(max_nnz: usize) -> String {
    let mut out = String::new();
    out.push_str("Section 3.8: level-based vs point-based stream token counts\n");
    out.push_str("level = identity run's outer crd + inner crd + value streams; point = 3 * nnz\n");
    out.push_str(&format!(
        "{:<14} {:>10} {:>14} {:>14} {:>12}\n",
        "Matrix", "nnz/row", "level tokens", "point tokens", "level wins"
    ));
    for (info, streams) in table3_identity_runs(max_nnz) {
        let (nnr, nnz) = (streams.outer.crd, streams.inner.crd);
        let (level, point) = (streams.level_tokens(), 3 * nnz);
        out.push_str(&format!(
            "{:<14} {:>10.2} {:>14} {:>14} {:>12}\n",
            info.name,
            nnz as f64 / nnr.max(1) as f64,
            level,
            point,
            level <= point
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reports_have_expected_rows() {
        let t1 = table1_report();
        assert_eq!(t1.lines().count(), 2 + 12);
        assert!(t1.contains("MTTKRP"));
        let t2 = table2_report();
        assert_eq!(t2.lines().count(), 2 + 12);
        assert!(t2.contains("Multiplier"));
    }

    #[test]
    fn executor_reports_run_and_verify() {
        let report = executor_report(8);
        assert!(report.contains("SpM*SpM"));
        assert!(report.contains("yes"));
        assert!(!report.contains(" NO"));
    }

    #[test]
    fn small_figure_reports_run() {
        let f12 = figure12_report(10);
        assert_eq!(f12.lines().count(), 2 + 6);
        let f13 = figure13_report(512);
        assert!(f13.contains("Figure 13a"));
        assert!(f13.contains("BV"));
        let f14 = figure14_report(200);
        assert_eq!(f14.lines().count(), 2 + 4);
        let sa = stream_analysis_table(200);
        assert_eq!(sa.lines().count(), 3 + 4);
        assert!(sa.contains("LFAT5"));
    }

    /// The level-based streams of the identity run hold exactly
    /// `3·nnr + 2·nnz + 4` tokens: the outer stream `nnr` coordinates, one
    /// stop and a done; the inner and value streams `nnz` data tokens, one
    /// stop per nonempty row and a done each. `nnr` counts the rows the COO
    /// populates, so rows the instantiation left empty cost nothing.
    #[test]
    fn identity_run_obeys_the_exact_level_count() {
        let mut with_empty_rows = Vec::new();
        for (info, streams) in table3_identity_runs(1260) {
            let coo = info.instantiate(71);
            let nnr =
                coo.entries().iter().map(|(p, _)| p[0]).collect::<std::collections::BTreeSet<_>>().len();
            let nnz = coo.nnz();
            assert_eq!(streams.level_tokens() as usize, 3 * nnr + 2 * nnz + 4, "{}", info.name);
            if nnr < info.rows {
                with_empty_rows.push(info.name);
            }
        }
        assert_eq!(with_empty_rows, ["LFAT5", "ch4-4-b1", "ch7-6-b1"]);
    }

    /// `scale` is a public argument: past the figure's own size the operands
    /// floor at a small nonzero dimension instead of panicking in `synth`.
    #[test]
    fn figure_reports_survive_extreme_scales() {
        assert_eq!(figure11_report(1000).lines().count(), 2 + 3);
        assert_eq!(figure12_report(1000).lines().count(), 2 + 6);
        assert!(spmm_in_order(&synth::dense_matrix(2, 2, 1), &synth::dense_matrix(2, 2, 2), "zzz").is_none());
    }

    fn dense_of(t: &CooTensor) -> sam_tensor::DenseTensor {
        Tensor::from_coo("t", t, TensorFormat::dense(t.order())).to_dense()
    }

    #[test]
    fn transposed_orders_match_reference() {
        let b = synth::random_matrix_sparsity(15, 12, 0.8, 3);
        let c = synth::random_matrix_sparsity(12, 10, 0.8, 4);
        let mut env = Environment::new();
        env.insert("B", dense_of(&b));
        env.insert("C", dense_of(&c));
        env.bind_dims(&table1::spmm(), &[]);
        let expect = env.evaluate(&table1::spmm()).unwrap();
        for order in ["ijk", "jik", "ikj", "jki", "kij", "kji"] {
            let x = spmm_in_order(&b, &c, order).unwrap().output.unwrap().to_coo();
            // The mirrored orders compute X^T.
            let x = if SpmmDataflow::from_order(order).unwrap().1 { x.permuted(&[1, 0]) } else { x };
            assert!(dense_of(&x).approx_eq(&expect), "order {order} disagreed");
        }
    }

    #[test]
    fn gustavson_beats_inner_product_on_sparse_inputs() {
        let b = synth::random_matrix_sparsity(60, 40, 0.95, 5);
        let c = synth::random_matrix_sparsity(40, 60, 0.95, 6);
        let rows = cycles_of(&spmm_in_order(&b, &c, "ikj").unwrap());
        let inner = cycles_of(&spmm_in_order(&b, &c, "ijk").unwrap());
        assert!(rows < inner, "Gustavson ({rows}) should beat inner product ({inner})");
    }

    #[test]
    fn fusion_beats_unfused_on_sparse_samples() {
        let (i, j, k) = (40, 40, 4);
        let b = synth::random_matrix_sparsity(i, j, 0.95, 5);
        let c = synth::dense_matrix(i, k, 6);
        let d = synth::dense_matrix(j, k, 7);
        let fused = sddmm_cycles(&b, &c, &d, SddmmVariant::FusedLocating);
        let unfused = sddmm_cycles(&b, &c, &d, SddmmVariant::Unfused);
        assert!(fused < unfused, "fused ({fused}) should beat unfused ({unfused})");
    }

    #[test]
    fn locating_beats_coiteration_for_small_k() {
        let (i, j, k) = (60, 60, 1);
        let b = synth::random_matrix_sparsity(i, j, 0.95, 8);
        let c = synth::dense_matrix(i, k, 9);
        let d = synth::dense_matrix(j, k, 10);
        let locating = sddmm_cycles(&b, &c, &d, SddmmVariant::FusedLocating);
        let coiter = sddmm_cycles(&b, &c, &d, SddmmVariant::FusedCoiteration);
        assert!(locating < coiter, "locating ({locating}) should beat coiteration ({coiter})");
    }

    #[test]
    fn skipping_helps_on_runs() {
        let dim = 2048;
        let (b, c) = synth::runs_vector_pair(dim, 400, 50, 3);
        let plain = vecmul_cycles(&b, &c, dim, VecFormat::Crd);
        let skipped = vecmul_cycles(&b, &c, dim, VecFormat::CrdSkip);
        assert!(skipped < plain, "skip {skipped} should beat plain {plain}");
    }

    #[test]
    fn dense_costs_track_dimension() {
        let dim = 512;
        let b = synth::random_vector(dim, 10, 1);
        let c = synth::random_vector(dim, 10, 2);
        let dense = vecmul_cycles(&b, &c, dim, VecFormat::Dense);
        let sparse = vecmul_cycles(&b, &c, dim, VecFormat::Crd);
        assert!(dense > sparse);
        assert!(dense as usize >= dim);
    }

    #[test]
    fn outer_stream_is_mostly_idle() {
        // Matching the paper's observation: the outer scanner finishes early
        // and sits idle while the inner level streams its coordinates.
        let b = synth::random_matrix_sparsity(50, 50, 0.9, 22);
        let IdentityStreams { run, outer, inner, .. } = identity_stream_stats(&b);
        let idle_frac = idle_slots(&run, &outer) as f64 / cycles_of(&run) as f64;
        assert!(idle_frac > 0.4, "idle fraction {idle_frac}");
        // The inner stream's control overhead is dominated by stop tokens.
        assert!(inner.stop >= inner.done);
        assert_eq!(inner.crd as usize, run.output.unwrap().nnz());
    }

    #[test]
    fn spmv_handles_empty_rows() {
        // Only two rows are populated; DCSR skips the rest.
        let b = CooTensor::from_entries(
            vec![6, 4],
            vec![(vec![1, 0], 2.0), (vec![1, 3], 3.0), (vec![4, 2], 5.0)],
        )
        .unwrap();
        let c = synth::random_vector(4, 4, 1);
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
        let x = run_cycle(&graphs::spmv(), &inputs).output.unwrap().to_dense();
        let dense_c = dense_of(&c);
        assert!((x.at(&[1]) - (2.0 * dense_c.at(&[0]) + 3.0 * dense_c.at(&[3]))).abs() < 1e-9);
        assert!((x.at(&[4]) - 5.0 * dense_c.at(&[2])).abs() < 1e-9);
        assert_eq!(x.at(&[0]), 0.0);
    }

    #[test]
    fn figure15_measured_runs_and_skipping_pays() {
        // Small dimensions with a tile and LLB scaled to match (about two
        // seconds in a debug build).
        let config = MemoryConfig { tile: 32, llb_bytes: 16 * 1024, ..MemoryConfig::default() };
        let report = figure15_measured_report(&[256, 512, 768], &[2000], &config);
        assert_eq!(report.lines().count(), 2 + 3);
        assert!(report.contains("dram (meas)"));

        let study_config = MemoryConfig { tile: 16, llb_bytes: 512, ..MemoryConfig::default() };
        let (study, skip, noskip) = figure15_skipping_study(96, 60, &study_config);
        assert!(study.contains("skipping saves"));
        assert!(skip.tiles_skipped > 0, "a sparse sweep must skip tiles");
        assert!(skip.dram_bytes < noskip.dram_bytes, "skipping must cut DRAM traffic");
    }
}
