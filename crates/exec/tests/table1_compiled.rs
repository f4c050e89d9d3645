//! The compile-to-machine completeness gate: every Table 1 expression
//! string that `custard` parses must lower through `lower_exec`, run on the
//! cycle backend, the fast backend and the tiled
//! finite-memory backend, and agree *exactly* with the dense reference
//! evaluator. Operands are integer-valued so every partial sum is exact and
//! "agree" can mean equality, not tolerance.

mod common;

use custard::{parse, ConcreteIndexNotation, Formats, Schedule};
use sam_exec::{CycleBackend, ExecRequest, FastBackend, Inputs, TiledBackend};
use sam_memory::MemoryConfig;
use sam_tensor::reference::Environment;
use sam_tensor::{synth, CooTensor, Tensor, TensorFormat};

/// Rounds a synthetic tensor's values to small integers so floating-point
/// sums are exact across backends, tilings and the dense reference.
fn int_coo(coo: &CooTensor) -> CooTensor {
    CooTensor::from_entries(
        coo.shape().to_vec(),
        coo.entries().iter().map(|(p, v)| (p.clone(), (v * 8.0).round() - 3.0)).collect(),
    )
    .unwrap()
}

struct Case {
    name: &'static str,
    text: &'static str,
    order: Option<&'static str>,
    formats: Formats,
    operands: Vec<(&'static str, CooTensor)>,
    scalars: Vec<(&'static str, f64)>,
}

impl Case {
    fn new(name: &'static str, text: &'static str, operands: Vec<(&'static str, CooTensor)>) -> Case {
        Case { name, text, order: None, formats: Formats::new(), operands, scalars: Vec::new() }
    }

    fn order(mut self, order: &'static str) -> Case {
        self.order = Some(order);
        self
    }

    fn formats(mut self, formats: Formats) -> Case {
        self.formats = formats;
        self
    }

    fn scalar(mut self, name: &'static str, value: f64) -> Case {
        self.scalars.push((name, value));
        self
    }
}

/// The whole Table 1 catalog as expression strings, with integer operands
/// sized so the cycle backend stays CI-fast.
fn table1_cases() -> Vec<Case> {
    let b_m = int_coo(&synth::random_matrix_sparsity(14, 11, 0.8, 901));
    let c_m = int_coo(&synth::random_matrix_sparsity(11, 12, 0.8, 902));
    let sq_b = int_coo(&synth::random_matrix_sparsity(12, 10, 0.75, 903));
    let sq_c = int_coo(&synth::random_matrix_sparsity(12, 10, 0.75, 904));
    let sq_d = int_coo(&synth::random_matrix_sparsity(12, 10, 0.75, 905));
    let vec_b = int_coo(&synth::random_vector(30, 9, 906));
    let vec_c = int_coo(&synth::random_vector(30, 11, 907));
    let t3_b = int_coo(&synth::random_tensor3([6, 5, 7], 50, 908));
    let t3_c = int_coo(&synth::random_tensor3([6, 5, 7], 50, 909));

    vec![
        Case::new(
            "SpMV",
            "x(i) = B(i,j) * c(j)",
            vec![("B", b_m.clone()), ("c", int_coo(&synth::random_vector(11, 8, 910)))],
        ),
        Case::new(
            "SpM*SpM (inner)",
            "X(i,j) = B(i,k) * C(k,j)",
            vec![("B", b_m.clone()), ("C", c_m.clone())],
        )
        .order("ijk"),
        Case::new(
            "SpM*SpM (gustavson)",
            "X(i,j) = B(i,k) * C(k,j)",
            vec![("B", b_m.clone()), ("C", c_m.clone())],
        )
        .order("ikj"),
        Case::new("SpM*SpM (outer)", "X(i,j) = B(i,k) * C(k,j)", vec![("B", b_m.clone()), ("C", c_m)])
            .order("kij"),
        // Dense factor formats: the compiled i and j intersections are
        // sparse-x-dense, so the lowering's skip heuristic wires Section 4.2
        // feedback edges that every backend then has to honor.
        Case::new(
            "SDDMM",
            "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
            vec![
                ("B", int_coo(&synth::random_matrix_sparsity(10, 9, 0.75, 911))),
                ("C", int_coo(&synth::dense_matrix(10, 4, 912))),
                ("D", int_coo(&synth::dense_matrix(9, 4, 913))),
            ],
        )
        .formats(Formats::new().set("C", TensorFormat::dense(2)).set("D", TensorFormat::dense(2))),
        Case::new("InnerProd", "chi() = B(i,j,k) * C(i,j,k)", vec![("B", t3_b.clone()), ("C", t3_c.clone())]),
        Case::new(
            "TTV",
            "X(i,j) = B(i,j,k) * c(k)",
            vec![("B", t3_b.clone()), ("c", int_coo(&synth::random_vector(7, 5, 914)))],
        ),
        Case::new(
            "TTM",
            "X(i,j,k) = B(i,j,l) * C(k,l)",
            vec![("B", t3_b.clone()), ("C", int_coo(&synth::random_matrix_sparsity(8, 7, 0.6, 915)))],
        ),
        Case::new(
            "MTTKRP",
            "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)",
            vec![
                ("B", int_coo(&synth::random_tensor3([5, 4, 6], 30, 916))),
                ("C", int_coo(&synth::random_matrix_sparsity(5, 4, 0.5, 917))),
                ("D", int_coo(&synth::random_matrix_sparsity(5, 6, 0.5, 918))),
            ],
        ),
        Case::new(
            "Residual",
            "x(i) = b(i) - C(i,j) * d(j)",
            vec![
                ("b", int_coo(&synth::random_vector(14, 6, 919))),
                ("C", int_coo(&synth::random_matrix_sparsity(14, 11, 0.7, 920))),
                ("d", int_coo(&synth::random_vector(11, 7, 921))),
            ],
        ),
        Case::new(
            "MatTransMul",
            "x(i) = alpha * B(j,i) * c(j) + beta * d(i)",
            vec![
                ("B", int_coo(&synth::random_matrix_sparsity(13, 10, 0.7, 922))),
                ("c", int_coo(&synth::random_vector(13, 7, 923))),
                ("d", int_coo(&synth::random_vector(10, 6, 924))),
            ],
        )
        .scalar("alpha", 2.0)
        .scalar("beta", -3.0),
        Case::new("MMAdd", "X(i,j) = B(i,j) + C(i,j)", vec![("B", sq_b.clone()), ("C", sq_c.clone())]),
        Case::new("Plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", vec![("B", sq_b), ("C", sq_c), ("D", sq_d)]),
        Case::new("Plus2", "X(i,j,k) = B(i,j,k) + C(i,j,k)", vec![("B", t3_b), ("C", t3_c)]),
        // Not Table 1 rows, but the Figure 13/14 kernels.
        Case::new("VecElemMul", "x(i) = b(i) * c(i)", vec![("b", vec_b.clone()), ("c", vec_c.clone())]),
        Case::new("VecElemAdd", "x(i) = b(i) + c(i)", vec![("b", vec_b), ("c", vec_c)]),
        Case::new(
            "Identity",
            "X(i,j) = B(i,j)",
            vec![("B", int_coo(&synth::random_matrix_sparsity(12, 10, 0.8, 925)))],
        ),
    ]
}

#[test]
fn every_table1_expression_compiles_and_runs_on_every_backend() {
    let mut fused_scanners = 0;
    for case in table1_cases() {
        let assignment = parse(case.text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", case.name));
        let schedule = match case.order {
            Some(o) => Schedule::new().reorder(o),
            None => Schedule::new(),
        };
        let cin = ConcreteIndexNotation::new(assignment.clone(), &schedule, case.formats.clone());
        let kernel = custard::lower_exec(&cin)
            .unwrap_or_else(|e| panic!("{}: `{}` failed to lower: {e}", case.name, case.text));

        // Bind operands with the formats the lowering derived, scalars as
        // single-value tensors; mirror everything densely for the oracle.
        let mut inputs = Inputs::new();
        let mut env = Environment::new();
        for (name, coo) in &case.operands {
            let fmt = kernel
                .formats
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{}: operand `{name}` missing from derived formats", case.name))
                .1
                .clone();
            inputs = inputs.coo(name, coo, fmt);
            env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(coo.order())).to_dense());
        }
        for &(name, value) in &case.scalars {
            assert!(
                kernel.scalars.iter().any(|s| s == name),
                "{}: `{name}` should be reported as a scalar operand",
                case.name
            );
            inputs = inputs.scalar(name, value);
            env.insert_scalar(name, value);
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).expect("reference evaluation");

        // Every compiled kernel, bound to its real operands, is completely
        // clean under the static verifier — no errors and no lints.
        let bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
        let report = sam_verify::verify_bound(&kernel.graph, &bindings);
        assert!(
            report.diagnostics.is_empty(),
            "{}: compiled kernel must verify clean:\n{}",
            case.name,
            report.render()
        );

        let serial = ExecRequest::new(&kernel.graph, &inputs)
            .executor(&FastBackend::new())
            .run()
            .unwrap_or_else(|e| panic!("{}: fast-serial failed: {e}", case.name));
        match &serial.output {
            Some(out) => assert_eq!(
                out.to_dense().data(),
                expect.data(),
                "{}: fast-serial diverged from the dense reference",
                case.name
            ),
            None => assert_eq!(serial.vals, expect.data(), "{}: scalar result diverged", case.name),
        }

        // The cycle backend must be bit-identical to the fast one.
        let cycle = ExecRequest::new(&kernel.graph, &inputs)
            .executor(&CycleBackend)
            .run()
            .unwrap_or_else(|e| panic!("{}: cycle failed: {e}", case.name));
        assert_eq!(cycle.output, serial.output, "{}: cycle diverged from fast-serial", case.name);
        assert_eq!(cycle.vals, serial.vals, "{}: cycle raw values diverged", case.name);

        // The tiled finite-memory backend agrees with the dense reference
        // at a tile size that actually cuts these operands.
        let tiled = TiledBackend::new(MemoryConfig { tile: 4, llb_bytes: 2048, ..MemoryConfig::default() });
        let run = ExecRequest::new(&kernel.graph, &inputs)
            .executor(&tiled)
            .run()
            .unwrap_or_else(|e| panic!("{}: tiled run failed: {e}", case.name));
        match &run.output {
            Some(out) => assert_eq!(
                out.to_dense().data(),
                expect.data(),
                "{}: tiled run diverged from the dense reference",
                case.name
            ),
            None => assert_eq!(run.vals, expect.data(), "{}: tiled scalar result diverged", case.name),
        }

        // Scanners the fast backend fuses into their intersecter are
        // tallied, not stored; the tally is what the cycle backend counts.
        fused_scanners += common::assert_fused_counts_match_cycle(case.name, &kernel.graph, &inputs).0;
    }
    assert!(fused_scanners >= 10, "compiled intersections fuse their scanners, only {fused_scanners} did");
}

/// The compiled lowering emits Section 4.2 skip edges exactly where the
/// format heuristic says so, and they pay: the skip lowering moves fewer
/// tokens than the same graph with its skip edges stripped on skewed
/// sparse-x-dense inputs while computing the identical result.
#[test]
fn compiled_skip_edges_reduce_tokens_on_sparse_by_dense() {
    use sam_core::graph::StreamKind;

    let a = parse("x(i) = B(i,j) * c(j)").unwrap();
    let formats = Formats::new().set("c", TensorFormat::dense_vec());
    let cin = ConcreteIndexNotation::new(a, &Schedule::new(), formats);
    let skip = custard::lower_exec(&cin).unwrap();
    assert!(skip.graph.edges().iter().any(|e| e.kind == StreamKind::Skip));
    let mut plain = skip.graph.clone();
    plain.edges_mut().retain(|e| e.kind != StreamKind::Skip);

    // Hypersparse rows against a dense vector: galloping skips almost all
    // of the dense scan.
    let b = synth::random_matrix_nnz(80, 4000, 240, 931);
    let c = synth::random_vector(4000, 4000, 932);
    let inputs = Inputs::new()
        .coo("B", &b, skip.formats.iter().find(|(n, _)| n == "B").unwrap().1.clone())
        .coo("c", &c, TensorFormat::dense_vec());
    let with_skip = ExecRequest::new(&skip.graph, &inputs).executor(&FastBackend::new()).run().unwrap();
    let without = ExecRequest::new(&plain, &inputs).executor(&FastBackend::new()).run().unwrap();
    assert_eq!(with_skip.output, without.output, "skip lowering changed the result");
    assert!(
        with_skip.tokens * 4 < without.tokens,
        "compiled skip edges should cut token traffic by far more than 4x: {} (skip) vs {} (plain)",
        with_skip.tokens,
        without.tokens
    );
}
