//! Workspace-level integration tests: the paper's kernels are exercised
//! through the umbrella crate — catalog graph, `ExecRequest`, cycle backend —
//! and checked against the dense reference evaluator, the Custard-lowered
//! graphs are checked for structural sanity, and the graph catalog is
//! executed on both `sam-exec` backends with results cross-checked against
//! each other and the dense reference.
use custard::{lower, lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
use sam::core::SamGraph;
use sam::custard::graphs::{self, SpmmDataflow, VecFormat};
use sam::exec::{CycleBackend, ExecRequest, Execution, Executor, FastBackend, Inputs};
use sam::primitives::bitvector::{bit_tree_vec_mul, bitvector_vec_mul};
use sam::tensor::expr::table1;
use sam::tensor::reference::Environment;
use sam::tensor::{synth, CooTensor, Tensor, TensorFormat};

fn run_cycle(graph: &SamGraph, inputs: &Inputs) -> Execution {
    ExecRequest::new(graph, inputs).executor(&CycleBackend).run().unwrap()
}

fn spmv_inputs(b: &CooTensor, c: &CooTensor) -> Inputs {
    Inputs::new().coo("B", b, TensorFormat::dcsr()).coo("c", c, TensorFormat::dense_vec())
}

/// SpM*SpM in one of Figure 12's six `ijk` orders: the order's dataflow
/// graph, run on transposed operands and transposed back for the mirrored
/// orders (`X^T = C^T B^T`). Returns `X` and the simulated cycles.
fn spmm_in_order(b: &CooTensor, c: &CooTensor, order: &str) -> (Tensor, u64) {
    let (dataflow, mirrored) = SpmmDataflow::from_order(order).unwrap();
    let (fb, fc) = dataflow.operand_formats();
    let inputs = if mirrored {
        Inputs::new().coo("B", &c.permuted(&[1, 0]), fb).coo("C", &b.permuted(&[1, 0]), fc)
    } else {
        Inputs::new().coo("B", b, fb).coo("C", c, fc)
    };
    let run = run_cycle(&graphs::spmm(dataflow), &inputs);
    let x = run.output.unwrap();
    let x =
        if mirrored { Tensor::from_coo("X", &x.to_coo().permuted(&[1, 0]), TensorFormat::dcsr()) } else { x };
    (x, run.cycles.unwrap())
}

/// `x(i) = b(i) * c(i)` in one Figure 13 configuration, as a flat vector.
fn vec_elem_mul(b: &CooTensor, c: &CooTensor, dim: usize, format: VecFormat) -> Tensor {
    let flat = |graph: SamGraph, fmt: TensorFormat| {
        run_cycle(&graph, &Inputs::new().coo("b", b, fmt.clone()).coo("c", c, fmt)).output.unwrap()
    };
    match format {
        VecFormat::Dense => flat(graphs::vec_elem_mul(false), TensorFormat::dense_vec()),
        VecFormat::Crd => flat(graphs::vec_elem_mul(true), TensorFormat::sparse_vec()),
        VecFormat::CrdSkip => flat(graphs::vec_elem_mul_with_skip(true), TensorFormat::sparse_vec()),
        VecFormat::CrdSplit { split } => {
            // Reshape into [split, chunk], multiply level by level, flatten back.
            let chunk = dim.div_ceil(split) as u32;
            let reshaped = |t: &CooTensor| {
                let entries =
                    t.entries().iter().map(|(p, v)| (vec![p[0] / chunk, p[0] % chunk], *v)).collect();
                CooTensor::from_entries(vec![split, chunk as usize], entries).unwrap()
            };
            let inputs = Inputs::new().coo("B", &reshaped(b), TensorFormat::csf(2)).coo(
                "C",
                &reshaped(c),
                TensorFormat::csf(2),
            );
            let x = run_cycle(&graphs::mat_elem_mul(), &inputs).output.unwrap();
            let entries = x.points().into_iter().map(|(p, v)| (vec![p[0] * chunk + p[1]], v)).collect();
            Tensor::from_coo(
                "x",
                &CooTensor::from_entries(vec![dim], entries).unwrap(),
                TensorFormat::sparse_vec(),
            )
        }
        VecFormat::Bv { width } => bitvector_vec_mul(b, c, width).unwrap().0,
        VecFormat::BvSplit { width } => bit_tree_vec_mul(b, c, width).unwrap().0,
    }
}

#[test]
fn spmv_end_to_end_matches_oracle() {
    let b = synth::random_matrix_sparsity(50, 35, 0.92, 100);
    let c = synth::random_vector(35, 35, 101);
    let result = run_cycle(&graphs::spmv(), &spmv_inputs(&b, &c));
    let mut env = Environment::new();
    env.insert("B", Tensor::from_coo("B", &b, TensorFormat::dense(2)).to_dense());
    env.insert("c", Tensor::from_coo("c", &c, TensorFormat::dense_vec()).to_dense());
    env.bind_dims(&table1::spmv(), &[]);
    let expect = env.evaluate(&table1::spmv()).unwrap();
    assert!(result.output.unwrap().to_dense().approx_eq(&expect));
}

#[test]
fn every_spmm_order_is_functionally_identical() {
    let b = synth::random_matrix_sparsity(30, 20, 0.9, 102);
    let c = synth::random_matrix_sparsity(20, 25, 0.9, 103);
    let reference = spmm_in_order(&b, &c, "ikj").0.to_dense();
    for order in ["ijk", "jik", "jki", "kij", "kji"] {
        let out = spmm_in_order(&b, &c, order).0.to_dense();
        assert!(out.approx_eq(&reference), "order {order} diverged");
    }
}

#[test]
fn dataflow_order_changes_cycles_but_not_results() {
    let b = synth::random_matrix_sparsity(80, 40, 0.95, 104);
    let c = synth::random_matrix_sparsity(40, 80, 0.95, 105);
    let (inner, inner_cycles) = spmm_in_order(&b, &c, "ijk");
    let (rows, rows_cycles) = spmm_in_order(&b, &c, "ikj");
    assert!(rows_cycles < inner_cycles, "Gustavson should win on sparse inputs");
    assert!(inner.approx_eq(&rows));
}

#[test]
fn figure13_formats_agree_on_runs_and_blocks_data() {
    let dim = 1024;
    for (b, c) in [synth::runs_vector_pair(dim, 200, 8, 106), synth::blocks_vector_pair(dim, 200, 8, 107)] {
        let reference = vec_elem_mul(&b, &c, dim, VecFormat::Crd).to_dense();
        for fmt in VecFormat::figure13_set() {
            let out = vec_elem_mul(&b, &c, dim, fmt).to_dense();
            assert!(out.approx_eq(&reference), "format {} diverged", fmt.label());
        }
    }
}

/// Every kernel graph in the catalog runs on both backends; FastBackend ==
/// CycleBackend == dense reference.
#[test]
fn every_kernel_graph_agrees_across_backends_and_reference() {
    let b = synth::random_matrix_sparsity(20, 16, 0.88, 200);
    let c = synth::random_matrix_sparsity(16, 18, 0.88, 201);
    let vb = synth::random_vector(120, 30, 202);
    let vc = synth::random_vector(120, 35, 203);
    let dense_c = synth::dense_matrix(20, 5, 204);
    let dense_d = synth::dense_matrix(16, 5, 205);
    let sv = synth::random_vector(16, 16, 206);

    let spmm = |dataflow: SpmmDataflow| {
        let (fb, fc) = dataflow.operand_formats();
        (graphs::spmm(dataflow), Inputs::new().coo("B", &b, fb).coo("C", &c, fc), "X(i,j) = B(i,k) * C(k,j)")
    };
    let cases: Vec<(SamGraph, Inputs, &str)> = vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
            "x(i) = b(i) * c(i)",
        ),
        (graphs::identity(), Inputs::new().coo("B", &b, TensorFormat::dcsr()), "X(i,j) = B(i,j)"),
        (graphs::spmv(), spmv_inputs(&b, &sv), "x(i) = B(i,j) * c(j)"),
        spmm(SpmmDataflow::LinearCombination),
        spmm(SpmmDataflow::InnerProduct),
        spmm(SpmmDataflow::OuterProduct),
        (
            graphs::sddmm_coiteration(),
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &dense_c, TensorFormat::dense(2)).coo(
                "D",
                &dense_d,
                TensorFormat::dense(2),
            ),
            "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
        ),
    ];

    for (graph, inputs, text) in cases {
        // Dense reference for this expression over the bound operands.
        let assignment = parse(text).unwrap();
        let mut env = Environment::new();
        for (name, tensor) in inputs.iter() {
            env.insert(name, tensor.to_dense());
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).unwrap();

        let cycle = ExecRequest::new(&graph, &inputs)
            .executor(&CycleBackend)
            .run()
            .unwrap_or_else(|e| panic!("{}: cycle backend failed: {e}", graph.name));
        let fast = ExecRequest::new(&graph, &inputs)
            .executor(&FastBackend::new())
            .run()
            .unwrap_or_else(|e| panic!("{}: fast backend failed: {e}", graph.name));
        let cycle_out = cycle.output.expect("tensor output");
        let fast_out = fast.output.expect("tensor output");
        assert_eq!(cycle_out, fast_out, "{}: backends disagree structurally", graph.name);
        assert!(
            cycle_out.to_dense().approx_eq(&expect),
            "{}: executor output diverged from the dense reference",
            graph.name
        );
        assert!(cycle.cycles.expect("cycle count") > 0);
    }
}

/// The custard pipeline end-to-end: compile SpMV from notation, execute on
/// both backends, compare with the catalog's hand-written SpMV graph.
#[test]
fn compiled_spmv_agrees_with_hand_kernel() {
    let b = synth::random_matrix_sparsity(40, 30, 0.92, 210);
    let c = synth::random_vector(30, 30, 211);
    let hand = run_cycle(&graphs::spmv(), &spmv_inputs(&b, &c)).output.unwrap().to_dense();

    let assignment = parse("x(i) = B(i,j) * c(j)").unwrap();
    let cin = ConcreteIndexNotation::new(
        assignment,
        &Schedule::new(),
        Formats::new().set("c", TensorFormat::dense_vec()),
    );
    let kernel = lower_exec(&cin).unwrap();
    let mut inputs = Inputs::new();
    for (name, fmt) in &kernel.formats {
        let coo = if name == "B" { &b } else { &c };
        inputs = inputs.coo(name, coo, fmt.clone());
    }
    for backend in [&CycleBackend as &dyn Executor, &FastBackend::new()] {
        let run = ExecRequest::new(&kernel.graph, &inputs).executor(backend).run().unwrap();
        assert!(
            run.output.unwrap().to_dense().approx_eq(&hand),
            "{} backend disagreed with the hand-written graph",
            backend.name()
        );
    }
}

/// The fast backend moves strictly fewer or equal tokens than the cycle
/// backend (no fork duplication) while producing the same tensor.
#[test]
fn fast_backend_is_leaner_than_cycle_backend() {
    let b = synth::random_matrix_sparsity(30, 25, 0.9, 220);
    let c = synth::random_matrix_sparsity(25, 30, 0.9, 221);
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
    let cycle = ExecRequest::new(&graph, &inputs).executor(&CycleBackend).run().unwrap();
    let fast = ExecRequest::new(&graph, &inputs).executor(&FastBackend::new()).run().unwrap();
    assert_eq!(cycle.output.unwrap(), fast.output.unwrap());
    assert!(fast.tokens <= cycle.tokens, "fast={} cycle={}", fast.tokens, cycle.tokens);
}

#[test]
fn custard_counts_are_stable_across_schedules() {
    let a = parse("X(i,j) = B(i,k) * C(k,j)").unwrap();
    for order in ["ijk", "ikj", "kij"] {
        let cin = ConcreteIndexNotation::new(a.clone(), &Schedule::new().reorder(order), Formats::new());
        let counts = lower(&cin).primitive_counts();
        assert_eq!(counts.level_scan, 4, "order {order}");
        assert_eq!(counts.alu, 1);
        assert_eq!(counts.array, 2);
    }
}
