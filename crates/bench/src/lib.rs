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
//! | Figure 15 | [`figure15_report`], [`figure15_measured_report`], [`figure15_skipping_study`] | `fig15` |
//! | Section 3.8 stream analysis | [`stream_analysis_report`] | `stream_analysis` |
//! | Executor cross-check | [`executor_report`] | `table1` |
//! | Figure 13 via the executor | [`figure13_exec_report`] | `fig13` |

use custard::{
    ablation_study, lower, lower_exec, parse, ConcreteIndexNotation, ExpressionCorpus, Formats, Schedule,
};
use sam_core::graph::SamGraph;
use sam_core::kernels::identity::identity;
use sam_core::kernels::sddmm::{sddmm, SddmmVariant};
use sam_core::kernels::spmm::{spmm_order, SpmmDataflow};
use sam_core::kernels::vecmul::{vec_elem_mul, VecFormat};
use sam_exec::{CycleBackend, ExecRequest, Executor, FastBackend, Inputs, Plan, TiledBackend};
use sam_memory::{compare_with_model, figure15_sweep, model_tiled_spmm, MemoryConfig, MemoryCounters};
use sam_streams::analysis::{
    break_even_nnz_per_row, compare_encodings, MatrixShapeStats, WORST_CASE_CONTROL_FRACTION,
};
use sam_tensor::expr::table1;
use sam_tensor::reference::Environment;
use sam_tensor::suitesparse::table3_catalog;
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
    use sam_core::graphs;
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
            sam_core::graphs::spmm(SpmmDataflow::LinearCombination),
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

/// Every hand-written kernel of `sam_core::graphs`, by display name — the
/// structural lint sweep `samlint --all` walks this.
pub fn graph_catalog() -> Vec<(&'static str, SamGraph)> {
    use sam_core::graphs;
    use sam_core::kernels::spmm::SpmmDataflow as D;
    vec![
        ("vec_elem_mul(dense)", graphs::vec_elem_mul(false)),
        ("vec_elem_mul(compressed)", graphs::vec_elem_mul(true)),
        ("vec_elem_mul_with_skip(dense)", graphs::vec_elem_mul_with_skip(false)),
        ("vec_elem_mul_with_skip(compressed)", graphs::vec_elem_mul_with_skip(true)),
        ("identity", graphs::identity()),
        ("spmv", graphs::spmv()),
        ("spmv_coiteration", graphs::spmv_coiteration()),
        ("spmv_with_skip", graphs::spmv_with_skip()),
        ("spmm(linear-combination)", graphs::spmm(D::LinearCombination)),
        ("spmm(inner-product)", graphs::spmm(D::InnerProduct)),
        ("spmm(outer-product)", graphs::spmm(D::OuterProduct)),
        ("spmm_with_skip", graphs::spmm_with_skip(D::LinearCombination)),
        ("mttkrp", graphs::mttkrp()),
        ("residual", graphs::residual()),
        ("mat_trans_mul", graphs::mat_trans_mul()),
        ("plus3", graphs::plus3()),
        ("sddmm_coiteration", graphs::sddmm_coiteration()),
        ("sddmm_with_skip", graphs::sddmm_with_skip()),
    ]
}

/// Compile → IR → execute: each core expression is lowered by Custard to an
/// executable graph and run through `sam-exec` on both backends; the row
/// reports cycle-backend cycles, per-backend wall-clock time and whether
/// both results match the dense reference evaluator.
pub fn executor_report(scale: usize) -> String {
    let s = scale.max(1);
    // Floor the problem size so extreme scales still satisfy the synthetic
    // generators' preconditions (nnz <= dim, nonzero dimensions).
    let dim = (200 / s).max(8);
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
        let cycle =
            ExecRequest::new(&graph, &inputs).executor(&CycleBackend::default()).run().expect("cycle run");
        let fast =
            ExecRequest::new(&graph, &inputs).executor(&FastBackend::default()).run().expect("fast run");
        let ok = cycle.output.as_ref().expect("tensor").to_dense().approx_eq(&expect)
            && fast.output.as_ref().expect("tensor").to_dense().approx_eq(&expect);
        out.push_str(&format!(
            "{:<12} {:<34} {:>10} {:>12} {:>12} {:>8}\n",
            name,
            text,
            cycle.cycles.expect("cycle backend reports cycles"),
            format!("{:.2?}", cycle.elapsed),
            format!("{:.2?}", fast.elapsed),
            if ok { "yes" } else { "NO" }
        ));
    }
    out
}

/// Figure 13 through the executor: the element-wise vector multiply graph
/// (one per storage configuration) planned once per data point and run on
/// both backends across a sparsity sweep. Backend disagreements are
/// reported in the `match` column rather than aborting the sweep.
pub fn figure13_exec_report(dim: usize) -> String {
    let mut out = String::new();
    out.push_str("Figure 13 (executor): x(i) = b(i) * c(i) as one graph on two backends\n");
    out.push_str(&format!(
        "{:>10} {:>8} {:>14} {:>14} {:>14} {:>14} {:>8}\n",
        "nnz", "format", "cycles", "tokens", "cycle time", "fast time", "match"
    ));
    let graphs =
        [(true, sam_core::graphs::vec_elem_mul(true)), (false, sam_core::graphs::vec_elem_mul(false))];
    for nnz in [20usize, 50, 100, 200, 400, 800].into_iter().filter(|n| 2 * n <= dim) {
        let b = synth::random_vector(dim, nnz, 61);
        let c = synth::random_vector(dim, nnz, 62);
        for (compressed, graph) in &graphs {
            let fmt = if *compressed { TensorFormat::sparse_vec() } else { TensorFormat::dense_vec() };
            let inputs = Inputs::new().coo("b", &b, fmt.clone()).coo("c", &c, fmt);
            let plan = Plan::build(graph, &inputs).expect("plan");
            let cycle = CycleBackend::default().run(&plan, &inputs).expect("cycle run");
            let fast = FastBackend::serial().run(&plan, &inputs).expect("fast run");
            out.push_str(&format!(
                "{:>10} {:>8} {:>14} {:>14} {:>14} {:>14} {:>8}\n",
                nnz,
                if *compressed { "Crd" } else { "Dense" },
                cycle.cycles.expect("cycles"),
                fast.tokens,
                format!("{:.2?}", cycle.elapsed),
                format!("{:.2?}", fast.elapsed),
                if cycle.output == fast.output { "yes" } else { "NO" },
            ));
        }
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

/// Figure 11: fused vs. unfused vs. fused-locating SDDMM cycles for
/// K in {1, 10, 100} on a 95% sparse 250x250 sample matrix.
pub fn figure11_report(scale: usize) -> String {
    let (i, j) = (250 / scale.max(1), 250 / scale.max(1));
    let mut out = String::new();
    out.push_str("Figure 11: SDDMM cycles (rows: K; columns: algorithm)\n");
    out.push_str(&format!("{:>6} {:>16} {:>16} {:>16}\n", "K", "Unfused", "Fused locating", "Fused coiter"));
    for k in [1usize, 10, 100] {
        let b = synth::random_matrix_sparsity(i, j, 0.95, 41);
        let c = synth::dense_matrix(i, k, 42);
        let d = synth::dense_matrix(j, k, 43);
        let unfused = sddmm(&b, &c, &d, SddmmVariant::Unfused).cycles;
        let locating = sddmm(&b, &c, &d, SddmmVariant::FusedLocating).cycles;
        let coiter = sddmm(&b, &c, &d, SddmmVariant::FusedCoiteration).cycles;
        out.push_str(&format!("{:>6} {:>16} {:>16} {:>16}\n", k, unfused, locating, coiter));
    }
    out
}

/// Figure 12: SpM*SpM cycles for all six iteration orders on 95% sparse
/// matrices with I = J = 250, K = 100 (scaled down by `scale` for tests).
pub fn figure12_report(scale: usize) -> String {
    let s = scale.max(1);
    let (i, j, k) = (250 / s, 250 / s, 100 / s);
    let b = synth::random_matrix_sparsity(i, k, 0.95, 51);
    let c = synth::random_matrix_sparsity(k, j, 0.95, 52);
    let mut out = String::new();
    out.push_str("Figure 12: SpM*SpM cycles per iteration order\n");
    out.push_str(&format!("{:>6} {:>14}\n", "Order", "Cycles"));
    for order in ["ijk", "jik", "ikj", "jki", "kij", "kji"] {
        let cycles = spmm_order(&b, &c, order).cycles;
        out.push_str(&format!("{:>6} {:>14}\n", order, cycles));
    }
    out
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

    out.push_str(&header("Figure 13a: cycles vs number of nonzeros (uniform random)"));
    for nnz in [20usize, 50, 100, 200, 400, 800].into_iter().filter(|n| 2 * n <= dim) {
        let b = synth::random_vector(dim, nnz, 61);
        let c = synth::random_vector(dim, nnz, 62);
        out.push_str(&format!("{:>10}", nnz));
        for f in &formats {
            out.push_str(&format!(" {:>14}", vec_elem_mul(&b, &c, dim, *f).cycles));
        }
        out.push('\n');
    }

    out.push_str(&header("Figure 13b: cycles vs run length (runs pattern, 400 nonzeros)"));
    for run in [1usize, 2, 4, 8, 16, 32, 64, 100] {
        let (b, c) = synth::runs_vector_pair(dim, 400.min(dim / 4), run, 63);
        out.push_str(&format!("{:>10}", run));
        for f in &formats {
            out.push_str(&format!(" {:>14}", vec_elem_mul(&b, &c, dim, *f).cycles));
        }
        out.push('\n');
    }

    out.push_str(&header("Figure 13c: cycles vs block size (blocks pattern, 400 nonzeros)"));
    for block in [1usize, 2, 4, 8, 16, 32, 64, 100] {
        let (b, c) = synth::blocks_vector_pair(dim, 400.min(dim / 4), block, 64);
        out.push_str(&format!("{:>10}", block));
        for f in &formats {
            out.push_str(&format!(" {:>14}", vec_elem_mul(&b, &c, dim, *f).cycles));
        }
        out.push('\n');
    }
    out
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
    for info in table3_catalog() {
        if info.nnz > max_nnz {
            continue;
        }
        let coo = info.instantiate(71);
        let result = identity(&coo);
        let o = result.outer_stats;
        let i = result.inner_stats;
        let frac = |n: u64, total: u64| n as f64 / total.max(1) as f64;
        out.push_str(&format!(
            "{:<14} {:>9} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}\n",
            info.name,
            info.nnz,
            frac(o.idle, o.total()),
            frac(o.done, o.total()),
            frac(o.stop, o.total()),
            frac(o.non_control, o.total()),
            frac(i.idle, i.total()),
            frac(i.done, i.total()),
            frac(i.stop, i.total()),
            frac(i.non_control, i.total()),
        ));
    }
    out
}

/// Figure 15: the ExTensor-style finite-memory SpM*SpM study.
pub fn figure15_report() -> String {
    let config = MemoryConfig::default();
    let sweep = figure15_sweep(&[5000, 10000, 25000, 50000], &config);
    let mut out = String::new();
    out.push_str("Figure 15: tiled SpM*SpM runtime (cycles) across dimension sizes\n");
    out.push_str(&format!(
        "{:>8} {:>8} {:>16} {:>16} {:>16}\n",
        "dim", "nnz", "nonempty tiles", "tile pairs", "cycles"
    ));
    for e in sweep {
        out.push_str(&format!(
            "{:>8} {:>8} {:>16.1} {:>16.1} {:>16.0}\n",
            e.dim, e.nnz, e.nonempty_tiles, e.effectual_tile_pairs, e.cycles
        ));
    }
    out
}

/// Figure 15, measured: runs the synthetic ExTensor SpM*SpM sweep for real
/// on the `TiledBackend` — constant-nnz uniformly random operands per the
/// paper — and lines every point up against the closed-form `sam_memory`
/// estimate. One [`ModelComparison`](sam_memory::ModelComparison) per
/// (nnz, dim) pair, in sweep order.
pub fn figure15_measured_points(
    dims: &[usize],
    nnz_list: &[usize],
    config: &MemoryConfig,
) -> Vec<sam_memory::ModelComparison> {
    let graph = sam_core::graphs::spmm(SpmmDataflow::LinearCombination);
    let backend = TiledBackend::new(*config);
    let mut out = Vec::new();
    for &nnz in nnz_list {
        for &dim in dims {
            let b = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0001 ^ dim as u64);
            let c = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0002 ^ dim as u64);
            let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
            let run = ExecRequest::new(&graph, &inputs).executor(&backend).run().expect("tiled run");
            out.push(compare_with_model(
                model_tiled_spmm(dim, nnz, config),
                run.memory.expect("tiled runs report memory counters"),
                run.cycles.expect("tiled runs estimate cycles") as f64,
            ));
        }
    }
    out
}

/// Renders [`figure15_measured_points`] as the Figure 15 (measured) table.
/// The `ratio` columns are measured / analytic; 1.0 means the model
/// predicted the machine exactly.
pub fn figure15_measured_report(dims: &[usize], nnz_list: &[usize], config: &MemoryConfig) -> String {
    figure15_measured_table(&figure15_measured_points(dims, nnz_list, config), config)
}

/// [`figure15_measured_report`] over an already-measured sweep, so callers
/// that also need the raw points (this crate's cycle-ratio test) run the
/// tiled executor once.
pub fn figure15_measured_table(points: &[sam_memory::ModelComparison], config: &MemoryConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 15 (measured): tiled SpM*SpM on TiledBackend, tile={} llb={}KiB\n",
        config.tile,
        config.llb_bytes / 1024
    ));
    out.push_str(&format!(
        "{:>8} {:>8} {:>7} {:>7} | {:>12} {:>12} {:>6} | {:>12} {:>12} {:>6}\n",
        "dim",
        "nnz",
        "exec",
        "skip%",
        "dram (meas)",
        "dram (model)",
        "ratio",
        "cyc (meas)",
        "cyc (model)",
        "ratio"
    ));
    for cmp in points {
        let mem = cmp.measured;
        let skip_pct = 100.0 * mem.tiles_skipped as f64 / (mem.tiles_visited as f64).max(1.0);
        out.push_str(&format!(
            "{:>8} {:>8} {:>7} {:>6.1}% | {:>12} {:>12.0} {:>6.2} | {:>12} {:>12.0} {:>6.2}\n",
            cmp.analytic.dim,
            cmp.analytic.nnz,
            mem.tiles_executed,
            skip_pct,
            mem.dram_bytes,
            cmp.analytic.dram_bytes,
            cmp.dram_ratio,
            cmp.measured_cycles,
            cmp.analytic.cycles,
            cmp.cycle_ratio,
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
    let graph = sam_core::graphs::spmm(SpmmDataflow::LinearCombination);
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

/// Section 3.8: level-based vs point-based stream encoding comparison over
/// the Table 3 catalog.
pub fn stream_analysis_report() -> String {
    let mut out = String::new();
    out.push_str("Section 3.8: level-based vs point-based stream token counts\n");
    out.push_str(&format!(
        "break-even nonzeros per row (worst-case control fraction): {:.2}\n",
        break_even_nnz_per_row(WORST_CASE_CONTROL_FRACTION)
    ));
    out.push_str(&format!(
        "{:<14} {:>10} {:>14} {:>14} {:>12}\n",
        "Matrix", "nnz/row", "level tokens", "point tokens", "level wins"
    ));
    for info in table3_catalog() {
        let stats = MatrixShapeStats::new(info.rows as u64, info.rows.min(info.nnz) as u64, info.nnz as u64);
        let cmp = compare_encodings(stats, WORST_CASE_CONTROL_FRACTION);
        out.push_str(&format!(
            "{:<14} {:>10.2} {:>14.0} {:>14.0} {:>12}\n",
            info.name,
            stats.avg_nnz_per_row(),
            cmp.level_based_tokens,
            cmp.point_based_tokens,
            cmp.level_based_wins()
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
        let f13 = figure13_exec_report(128);
        assert!(f13.contains("Crd"));
        assert!(f13.contains("Dense"));
        assert!(!f13.contains(" NO"));
    }

    #[test]
    fn small_figure_reports_run() {
        let f12 = figure12_report(10);
        assert_eq!(f12.lines().count(), 2 + 6);
        let f13 = figure13_report(512);
        assert!(f13.contains("Figure 13a"));
        assert!(f13.contains("BV"));
        let f14 = figure14_report(200);
        assert!(f14.lines().count() >= 2 + 4);
        let f15 = figure15_report();
        assert_eq!(f15.lines().count(), 2 + 4 * 12);
        let sa = stream_analysis_report();
        assert!(sa.contains("rail507"));
    }

    #[test]
    fn figure15_measured_runs_and_skipping_pays() {
        // Small dimensions with a tile and LLB scaled to match (about two
        // seconds in a debug build).
        let config = MemoryConfig { tile: 32, llb_bytes: 16 * 1024, ..MemoryConfig::default() };
        let points = figure15_measured_points(&[256, 512, 768], &[2000], &config);
        let report = figure15_measured_table(&points, &config);
        assert_eq!(report.lines().count(), 2 + 3);
        assert!(report.contains("dram (meas)"));
        // The analytic compute-cycle model must track the measured machine
        // within a sane band at every point (the pre-refit term undercounted
        // ~20x at these sizes).
        for cmp in &points {
            assert!(
                (0.25..=4.0).contains(&cmp.cycle_ratio),
                "measured/analytic cycle ratio {:.2} at dim={} escapes [0.25, 4]",
                cmp.cycle_ratio,
                cmp.analytic.dim
            );
        }

        let study_config = MemoryConfig { tile: 16, llb_bytes: 512, ..MemoryConfig::default() };
        let (study, skip, noskip) = figure15_skipping_study(96, 60, &study_config);
        assert!(study.contains("skipping saves"));
        assert!(skip.tiles_skipped > 0, "a sparse sweep must skip tiles");
        assert!(skip.dram_bytes < noskip.dram_bytes, "skipping must cut DRAM traffic");
    }
}
