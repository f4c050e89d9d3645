//! The compile → IR → execute pipeline: Custard-compiled expressions run
//! through `sam-exec` on both backends and match the dense reference
//! evaluator, with no graph written by hand.

use custard::{lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
use sam_exec::{
    BackendSpec, CycleBackend, ExecError, ExecRequest, Executor, FastBackend, Inputs, PlanError, TiledBackend,
};
use sam_tensor::reference::Environment;
use sam_tensor::{synth, CooTensor, Tensor, TensorFormat};

/// Compiles `text` under `schedule`/`formats`, binds the named COO operands
/// with the storage formats the lowering derived, runs both backends, and
/// checks each result against the dense reference evaluator.
fn check(text: &str, schedule: &Schedule, formats: Formats, operands: &[(&str, &CooTensor)]) {
    let assignment = parse(text).expect("valid tensor index notation");
    let cin = ConcreteIndexNotation::new(assignment.clone(), schedule, formats);
    let kernel = lower_exec(&cin).unwrap_or_else(|e| panic!("lowering `{text}` failed: {e}"));

    let mut inputs = Inputs::new();
    let mut env = Environment::new();
    for (name, coo) in operands {
        let fmt = &kernel.formats.iter().find(|(n, _)| n == name).expect("operand in formats").1;
        inputs = inputs.coo(name, coo, fmt.clone());
        env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(coo.order())).to_dense());
    }
    env.bind_dims(&assignment, &[]);
    let expect = env.evaluate(&assignment).expect("reference evaluation");

    for backend in [&CycleBackend as &dyn Executor, &FastBackend::new()] {
        let run = ExecRequest::new(&kernel.graph, &inputs)
            .executor(backend)
            .run()
            .unwrap_or_else(|e| panic!("`{text}` on {}: {e}", backend.name()));
        let out = run.output.unwrap_or_else(|| panic!("`{text}` produced no tensor"));
        assert!(
            out.to_dense().approx_eq(&expect),
            "`{text}` on {} diverged from the dense reference",
            backend.name()
        );
    }
}

#[test]
fn compiled_spmv_executes_on_both_backends() {
    let b = synth::random_matrix_sparsity(25, 18, 0.9, 21);
    let c = synth::random_vector(18, 12, 22);
    check("x(i) = B(i,j) * c(j)", &Schedule::new(), Formats::new(), &[("B", &b), ("c", &c)]);
    // Dense vector storage, as `graphs::spmv` binds it.
    let dense_c = Formats::new().set("c", TensorFormat::dense_vec());
    check("x(i) = B(i,j) * c(j)", &Schedule::new(), dense_c, &[("B", &b), ("c", &c)]);
}

#[test]
fn compiled_spmm_executes_in_all_three_dataflows() {
    let b = synth::random_matrix_sparsity(14, 10, 0.85, 23);
    let c = synth::random_matrix_sparsity(10, 12, 0.85, 24);
    for order in ["ijk", "ikj", "kij"] {
        check(
            "X(i,j) = B(i,k) * C(k,j)",
            &Schedule::new().reorder(order),
            Formats::new(),
            &[("B", &b), ("C", &c)],
        );
    }
}

#[test]
fn compiled_sddmm_executes() {
    let (i, j, k) = (10, 9, 3);
    let b = synth::random_matrix_sparsity(i, j, 0.8, 25);
    let c = synth::dense_matrix(i, k, 26);
    let d = synth::dense_matrix(j, k, 27);
    let formats = Formats::new().set("C", TensorFormat::dense(2)).set("D", TensorFormat::dense(2));
    check("X(i,j) = B(i,j) * C(i,k) * D(j,k)", &Schedule::new(), formats, &[("B", &b), ("C", &c), ("D", &d)]);
}

#[test]
fn compiled_elementwise_and_additive_kernels_execute() {
    let b = synth::random_vector(60, 15, 28);
    let c = synth::random_vector(60, 18, 29);
    check("x(i) = b(i) * c(i)", &Schedule::new(), Formats::new(), &[("b", &b), ("c", &c)]);
    check("x(i) = b(i) + c(i)", &Schedule::new(), Formats::new(), &[("b", &b), ("c", &c)]);

    let mb = synth::random_matrix_sparsity(12, 9, 0.8, 30);
    let mc = synth::random_matrix_sparsity(12, 9, 0.8, 31);
    check("X(i,j) = B(i,j) * C(i,j)", &Schedule::new(), Formats::new(), &[("B", &mb), ("C", &mc)]);
    check("X(i,j) = B(i,j) + C(i,j)", &Schedule::new(), Formats::new(), &[("B", &mb), ("C", &mc)]);
}

/// Non-left-deep expression trees associate correctly: `B - (C - D)` must
/// not compile to `(B - C) - D`. The textual parser is left-associative,
/// so this builds the right-nested tree through the Expr API directly.
/// All operands share both variables — the older mixed-rank variant
/// (`B(i,j) - (c(i) - d(j))`) has a broadcast addend whose true output is
/// denser than the union iteration space, which the lowering now rejects
/// with `LowerExecError::BroadcastAddend` instead of miscompiling.
#[test]
fn right_nested_subtraction_associates_correctly() {
    use sam_tensor::expr::{Assignment, Expr};
    {
        // The rejected mixed-rank shape, pinned down.
        use custard::LowerExecError;
        let rhs = Expr::access("B", "ij").sub(Expr::access("c", "i").sub(Expr::access("d", "j")));
        let cin =
            ConcreteIndexNotation::new(Assignment::new("X", "ij", rhs), &Schedule::new(), Formats::new());
        assert_eq!(lower_exec(&cin).unwrap_err(), LowerExecError::BroadcastAddend { index: 'i' });
    }
    let rhs = Expr::access("B", "ij").sub(Expr::access("C", "ij").sub(Expr::access("D", "ij")));
    let assignment = Assignment::new("X", "ij", rhs);
    let cin = ConcreteIndexNotation::new(assignment.clone(), &Schedule::new(), Formats::new());
    let kernel = lower_exec(&cin).unwrap();

    let b = synth::random_matrix_sparsity(6, 5, 0.5, 50);
    let c = synth::random_matrix_sparsity(6, 5, 0.5, 51);
    let d = synth::random_matrix_sparsity(6, 5, 0.5, 52);
    let mut inputs = Inputs::new();
    let mut env = Environment::new();
    for (name, coo) in [("B", &b), ("C", &c), ("D", &d)] {
        let fmt = kernel.formats.iter().find(|(n, _)| n == name).unwrap().1.clone();
        inputs = inputs.coo(name, coo, fmt);
        env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(coo.order())).to_dense());
    }
    env.bind_dims(&assignment, &[]);
    let expect = env.evaluate(&assignment).unwrap();
    for backend in [&CycleBackend as &dyn Executor, &FastBackend::new()] {
        let run = ExecRequest::new(&kernel.graph, &inputs).executor(backend).run().unwrap();
        assert!(
            run.output.unwrap().to_dense().approx_eq(&expect),
            "right-nested subtraction diverged on the {} backend",
            backend.name()
        );
    }
}

/// Non-commutative subtraction through a union merge: with fully disjoint
/// sparsity, every output coordinate sees exactly one present operand, so a
/// backend that zero-fills the absent operand on the wrong side of the ALU
/// flips the sign of half the entries. Checked coordinate by coordinate
/// (not just against approx-eq) on every backend and thread count.
#[test]
fn subtraction_through_a_union_zero_fills_the_correct_side() {
    use sam_tensor::CooTensor;

    let dim = 12usize;
    // b holds +2 at even coordinates, c holds +3 at odd coordinates.
    let b = CooTensor::from_entries(vec![dim], (0..dim as u32).step_by(2).map(|i| (vec![i], 2.0)).collect())
        .unwrap();
    let c = CooTensor::from_entries(vec![dim], (1..dim as u32).step_by(2).map(|i| (vec![i], 3.0)).collect())
        .unwrap();

    let assignment = parse("x(i) = b(i) - c(i)").unwrap();
    let cin = ConcreteIndexNotation::new(assignment, &Schedule::new(), Formats::new());
    let kernel = lower_exec(&cin).unwrap();
    let inputs =
        Inputs::new().coo("b", &b, kernel.formats[0].1.clone()).coo("c", &c, kernel.formats[1].1.clone());

    for backend in [&CycleBackend as &dyn Executor, &FastBackend::new()] {
        let run = ExecRequest::new(&kernel.graph, &inputs).executor(backend).run().unwrap();
        let dense = run.output.expect("tensor output").to_dense();
        for i in 0..dim as u32 {
            let expect = if i % 2 == 0 { 2.0 } else { -3.0 };
            assert_eq!(
                dense.at(&[i]),
                expect,
                "x({i}) on {}: absent operand zero-filled on the wrong side of the subtraction",
                backend.name()
            );
        }
    }
}

#[test]
fn compiled_identity_executes() {
    let b = synth::random_matrix_sparsity(12, 10, 0.85, 32);
    check("X(i,j) = B(i,j)", &Schedule::new(), Formats::new(), &[("B", &b)]);
}

#[test]
fn compiled_higher_order_contractions_execute() {
    // TTV: X(i,j) = sum_k B(i,j,k) * c(k).
    let b3 = synth::random_tensor3([6, 5, 7], 40, 33);
    let c = synth::random_vector(7, 5, 34);
    check("X(i,j) = B(i,j,k) * c(k)", &Schedule::new(), Formats::new(), &[("B", &b3), ("c", &c)]);

    // MTTKRP: X(i,j) = sum_{k,l} B(i,k,l) * C(j,k) * D(j,l).
    let b = synth::random_tensor3([5, 4, 6], 30, 35);
    let cm = synth::random_matrix_sparsity(5, 4, 0.4, 36);
    let dm = synth::random_matrix_sparsity(5, 6, 0.4, 37);
    check(
        "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)",
        &Schedule::new(),
        Formats::new(),
        &[("B", &b), ("C", &cm), ("D", &dm)],
    );
}

/// An index variable bound at two sizes is a typed rejection on every
/// backend. `c` holds coordinate 12, beyond the dimension 8 that `b` gives
/// `i`: before the `dimension-mismatch` rule this planned, and the level
/// writer's `coordinate exceeds dimension` assertion panicked mid-run.
#[test]
fn an_index_variable_bound_at_two_sizes_is_rejected_on_every_backend() {
    let assignment = parse("x(i) = b(i) + c(i)").unwrap();
    let cin = ConcreteIndexNotation::new(assignment, &Schedule::new(), Formats::new());
    let kernel = lower_exec(&cin).unwrap();
    let b = CooTensor::from_entries(vec![8], vec![(vec![1], 1.0), (vec![5], 2.0)]).unwrap();
    let c = CooTensor::from_entries(vec![16], vec![(vec![5], 3.0), (vec![12], 4.0)]).unwrap();
    let mut inputs = Inputs::new();
    for (name, coo) in [("b", &b), ("c", &c)] {
        let format = &kernel.formats.iter().find(|(n, _)| n == name).expect("operand in formats").1;
        inputs = inputs.coo(name, coo, format.clone());
    }
    for spec in BackendSpec::all() {
        match ExecRequest::new(&kernel.graph, &inputs).backend(spec).uncached().run() {
            Err(ExecError::Plan(PlanError::Rejected { diagnostics })) => {
                assert_eq!(diagnostics.len(), 1, "{spec}: {diagnostics:?}");
                let d = &diagnostics[0];
                assert_eq!(d.rule, sam_verify::Rule::DimensionMismatch, "{spec}: {d}");
                for named in ["`b`", "`c`", "dimension 8", "dimension 16"] {
                    assert!(d.message.contains(named), "{spec}: `{named}` missing from: {d}");
                }
            }
            other => panic!("{spec}: expected a dimension-mismatch rejection, got {other:?}"),
        }
    }
}

/// A schedule whose output levels do not nest. `X(i,j) = B(i,j) + C(i,j)`
/// at `ji` iterates the output's variables out of its mode order, so its
/// writers' level below `i` does not hold one fiber per entry of the level
/// above it. That is a typed error on every backend: the fast and cycle
/// backends used to return a tensor whose `to_dense` panicked, and the
/// tiled backend panicked merging it.
#[test]
fn writers_that_disagree_on_the_output_tree_are_a_typed_error_on_every_backend() {
    let assignment = parse("X(i,j) = B(i,j) + C(i,j)").unwrap();
    let cin = ConcreteIndexNotation::new(assignment, &Schedule::new().reorder("ji"), Formats::new());
    let kernel = lower_exec(&cin).unwrap();
    let b = synth::random_matrix_sparsity(6, 5, 0.5, 31);
    let c = synth::random_matrix_sparsity(6, 5, 0.5, 32);
    let mut inputs = Inputs::new();
    for (name, coo) in [("B", &b), ("C", &c)] {
        let format = &kernel.formats.iter().find(|(n, _)| n == name).expect("operand in formats").1;
        inputs = inputs.coo(name, coo, format.clone());
    }
    for spec in BackendSpec::all() {
        match ExecRequest::new(&kernel.graph, &inputs).backend(spec).run() {
            Err(ExecError::Misaligned { label }) => assert_eq!(label, "output assembly", "{spec}"),
            other => panic!("{spec}: expected a misaligned output, got {other:?}"),
        }
    }
}

/// A matrix reduction under an outer loop: TTM at `iljk` reduces `l`
/// between the output variables `i` and `j`, and `X(l,i,j) = B(l,k,i) *
/// C(k,j)` at `lkij` reduces `k` under `l`. The matrix reducer flushes at
/// each stop that closes the reduced fiber, so both compute the dense
/// reference on every backend; while it flushed only at done, both were
/// `Misaligned` at "output assembly".
#[test]
fn a_matrix_reduction_under_an_outer_loop_computes_the_reference_on_every_backend() {
    let cases = [
        (
            "X(i,j,k) = B(i,j,l) * C(k,l)",
            "iljk",
            synth::random_tensor3([6, 5, 4], 40, 31),
            synth::random_matrix_sparsity(7, 4, 0.4, 32),
        ),
        (
            "X(l,i,j) = B(l,k,i) * C(k,j)",
            "lkij",
            synth::random_tensor3([4, 6, 5], 40, 33),
            synth::random_matrix_sparsity(6, 7, 0.4, 34),
        ),
    ];
    for (text, order, b, c) in cases {
        let assignment = parse(text).unwrap();
        let cin =
            ConcreteIndexNotation::new(assignment.clone(), &Schedule::new().reorder(order), Formats::new());
        let kernel = lower_exec(&cin).unwrap();
        let (mut inputs, mut env) = (Inputs::new(), Environment::new());
        for (name, coo) in [("B", &b), ("C", &c)] {
            let format = &kernel.formats.iter().find(|(n, _)| n == name).expect("operand in formats").1;
            inputs = inputs.coo(name, coo, format.clone());
            env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(coo.order())).to_dense());
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).expect("reference evaluation");
        for spec in BackendSpec::all() {
            let run = ExecRequest::new(&kernel.graph, &inputs).backend(spec).run();
            let out = run.unwrap_or_else(|e| panic!("`{text}` at `{order}` on {spec}: {e}"));
            let out = out.output.expect("a tensor");
            assert!(out.to_dense().approx_eq(&expect), "`{text}` at `{order}` on {spec} diverged");
        }
    }
}

/// An operand whose compressed level, built through its public fields,
/// holds a fiber whose coordinates descend: the identity kernel's level
/// writer receives them in that order. That is a typed error on every
/// backend (the tiled one's default tile covers the operand whole, so the
/// walk reads it uncut); the fast and cycle writers used to panic building
/// their level, and a tile cut that windows the operand subtracted past
/// zero.
#[test]
fn a_written_fiber_whose_coordinates_descend_is_a_typed_error() {
    use sam_tensor::level::{CompressedLevel, Level};
    let kernel = lower_exec(&ConcreteIndexNotation::new(
        parse("x(i) = b(i)").unwrap(),
        &Schedule::new(),
        Formats::new(),
    ))
    .unwrap();
    let level = Level::Compressed(CompressedLevel { dim: 8, seg: vec![0, 3], crd: vec![5, 2, 1] });
    let b = Tensor::from_parts("b", vec![8], TensorFormat::sparse_vec(), vec![level], vec![1.0, 2.0, 3.0]);
    let inputs = Inputs::new().tensor(b);
    for spec in BackendSpec::all() {
        let run = ExecRequest::new(&kernel.graph, &inputs).backend(spec).run();
        assert!(matches!(run, Err(ExecError::Misaligned { .. })), "{spec}: {run:?}");
    }
    // A tile that does not cover the operand cuts it, and the cut rejects
    // the fiber, naming the scanner that reads it.
    assert_every_tile_rejects(&kernel.graph, &inputs);
}

/// Every tiled run of `graph` over `inputs` at a tile that cuts its operand
/// is `ExecError::Misaligned`, naming the scanner the cut found the fault
/// under.
fn assert_every_tile_rejects(graph: &sam_core::graph::SamGraph, inputs: &Inputs) {
    for tile in [1, 2, 3] {
        let tiled = TiledBackend::with_tile(tile);
        let run = ExecRequest::new(graph, inputs).executor(&tiled).run();
        assert!(
            matches!(&run, Err(ExecError::Misaligned { label }) if label.contains("scan")),
            "tile {tile}: {run:?}"
        );
    }
}

/// An operand holding a coordinate past its level's dimension is a typed
/// error on every backend and at every tile: a cut used to drop the entry,
/// and the tiled run returned a tensor without it.
#[test]
fn a_coordinate_past_its_dimension_is_a_typed_error_at_every_tile() {
    use sam_tensor::level::{CompressedLevel, Level};
    let kernel = lower_exec(&ConcreteIndexNotation::new(
        parse("x(i) = b(i)").unwrap(),
        &Schedule::new(),
        Formats::new(),
    ))
    .unwrap();
    let level = Level::Compressed(CompressedLevel { dim: 8, seg: vec![0, 2], crd: vec![1, 9] });
    let b = Tensor::from_parts("b", vec![8], TensorFormat::sparse_vec(), vec![level], vec![1.0, 2.0]);
    let inputs = Inputs::new().tensor(b);
    for spec in BackendSpec::all() {
        let run = ExecRequest::new(&kernel.graph, &inputs).backend(spec).run();
        assert!(matches!(run, Err(ExecError::Misaligned { .. })), "{spec}: {run:?}");
    }
    assert_every_tile_rejects(&kernel.graph, &inputs);
}

/// An operand of `shape` with no entries, built from its parts (`from_coo`
/// takes no zero-size dimension): each level holds one fiber per entry of
/// the level above it, one below the root.
fn empty_operand(name: &str, shape: &[usize], format: &TensorFormat) -> Tensor {
    use sam_tensor::level::{CompressedLevel, DenseLevel, Level};
    let mut fibers = 1;
    let levels = format
        .mode_order()
        .iter()
        .zip(format.levels())
        .map(|(&mode, level)| {
            let dim = shape[mode];
            let built = if *level == sam_tensor::LevelFormat::Dense {
                Level::Dense(DenseLevel { size: dim, num_fibers: fibers })
            } else {
                Level::Compressed(CompressedLevel { dim, seg: vec![0; fibers + 1], crd: Vec::new() })
            };
            fibers = built.num_children();
            built
        })
        .collect();
    Tensor::from_parts(name, shape.to_vec(), format.clone(), levels, Vec::new())
}

/// A zero-size dimension: every tiled run, at tiles that cut the operands
/// and at the default, returns a result or a typed error, and where the
/// fast backend returns one, the tiled run returns the same values and
/// entries. A schedule used to hand the cut a tile size of 0, which panicked.
#[test]
fn a_zero_size_dimension_runs_tiled_as_it_runs_untiled() {
    // Residual's `b` holds an entry: its tile is bound beside empty tiles of
    // `C` and `d` that span no coordinate of `j`.
    type Operands = &'static [(&'static str, &'static [usize])];
    let cases: [(&str, Operands); 5] = [
        ("x(i) = b(i)", &[("b", &[0])]),
        ("x(i) = b(i) * c(i)", &[("b", &[0]), ("c", &[0])]),
        ("X(i,j) = B(i,j) + C(i,j)", &[("B", &[0, 3]), ("C", &[0, 3])]),
        ("chi() = B(i,j) * C(i,j)", &[("B", &[3, 0]), ("C", &[3, 0])]),
        ("x(i) = b(i) - C(i,j) * d(j)", &[("b", &[4]), ("C", &[4, 0]), ("d", &[0])]),
    ];
    for (text, operands) in cases {
        let cin = ConcreteIndexNotation::new(parse(text).unwrap(), &Schedule::new(), Formats::new());
        let kernel = lower_exec(&cin).unwrap();
        let mut inputs = Inputs::new();
        for &(name, shape) in operands {
            let format = &kernel.formats.iter().find(|(n, _)| n == name).expect("operand in formats").1;
            inputs = if shape.contains(&0) {
                inputs.tensor(empty_operand(name, shape, format))
            } else {
                let coo = CooTensor::from_entries(shape.to_vec(), vec![(vec![1; shape.len()], 2.0)]).unwrap();
                inputs.coo(name, &coo, format.clone())
            };
        }
        let fast = ExecRequest::new(&kernel.graph, &inputs).backend(BackendSpec::FastSerial).run();
        // `None` is the default tile, which covers every operand.
        for tile in [Some(1), Some(2), Some(4), None] {
            let tiled = tile.map_or_else(TiledBackend::default, TiledBackend::with_tile);
            let run = ExecRequest::new(&kernel.graph, &inputs).executor(&tiled).run();
            let Ok(fast) = &fast else { continue };
            let run = run.unwrap_or_else(|e| panic!("`{text}` at tile {tile:?}: {e}"));
            assert_eq!(run.vals, fast.vals, "`{text}` at tile {tile:?}");
            // `to_dense` cannot hold a zero-size dimension: compare the
            // shape and the points it would be built from.
            let dense = |out: &Option<Tensor>| out.as_ref().map(|t| (t.shape().to_vec(), t.points()));
            assert_eq!(dense(&run.output), dense(&fast.output), "`{text}` at tile {tile:?}");
        }
    }
}
