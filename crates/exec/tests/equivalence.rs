//! Cross-backend equivalence: every kernel graph in the `custard::graphs`
//! catalog is executed by the cycle backend and the fast backend, and the
//! results are bit-identical to each other and numerically equal to the
//! dense reference evaluator.

mod common;

use custard::graphs::{self, SpmmDataflow};
use sam_core::graph::SamGraph;
use sam_exec::{CycleBackend, ExecRequest, Executor, FastBackend, Inputs, Plan, TiledBackend};
use sam_tensor::expr::{table1, Assignment, Expr};
use sam_tensor::reference::Environment;
use sam_tensor::{synth, TensorFormat};

/// The whole kernel catalog with operands sized to stress multi-fiber
/// iteration while keeping the cycle backend fast enough for CI.
fn catalog() -> Vec<(SamGraph, Inputs, Assignment)> {
    let vb = synth::random_vector(150, 45, 301);
    let vc = synth::random_vector(150, 40, 302);
    let m = synth::random_matrix_sparsity(24, 18, 0.85, 303);
    let n = synth::random_matrix_sparsity(18, 21, 0.85, 304);
    let sv = synth::random_vector(18, 18, 305);
    let dense_c = synth::dense_matrix(24, 6, 306);
    let dense_d = synth::dense_matrix(18, 6, 307);
    let b3 = synth::random_tensor3([14, 8, 9], 160, 308);
    let fc = synth::random_matrix_sparsity(10, 8, 0.55, 309);
    let fd = synth::random_matrix_sparsity(10, 9, 0.55, 310);
    let m2 = synth::random_matrix_sparsity(24, 18, 0.7, 313);
    let dense_t = synth::dense_matrix(24, 18, 314);
    let spmm = |dataflow: SpmmDataflow| {
        let (fb, fc) = dataflow.operand_formats();
        (graphs::spmm(dataflow), Inputs::new().coo("B", &m, fb).coo("C", &n, fc), table1::spmm())
    };
    let sddmm_inputs = Inputs::new()
        .coo("B", &m, TensorFormat::dcsr())
        .coo("C", &dense_c, TensorFormat::dense(2))
        .coo("D", &dense_d, TensorFormat::dense(2));
    let elem_mul =
        |rhs: &str| Assignment::new("X", "ij", Expr::access("B", "ij").mul(Expr::access(rhs, "ij")));

    vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
            table1::vec_elem_mul(),
        ),
        (
            graphs::mat_elem_mul(),
            Inputs::new().coo("B", &m, TensorFormat::csf(2)).coo("C", &m2, TensorFormat::csf(2)),
            elem_mul("C"),
        ),
        (
            graphs::mat_elem_mul_locating(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("T", &dense_t, TensorFormat::dense(2)),
            elem_mul("T"),
        ),
        (graphs::identity(), Inputs::new().coo("B", &m, TensorFormat::dcsr()), table1::identity()),
        (
            graphs::spmv(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::dense_vec()),
            table1::spmv(),
        ),
        // The co-iteration SpMV dataflow (the skip twins' base graph) must
        // itself match the dense reference, so the skip acceptance test
        // compares against validated ground truth.
        (
            graphs::spmv_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
            table1::spmv(),
        ),
        spmm(SpmmDataflow::LinearCombination),
        spmm(SpmmDataflow::InnerProduct),
        spmm(SpmmDataflow::OuterProduct),
        (graphs::sddmm_coiteration(), sddmm_inputs.clone(), table1::sddmm()),
        (graphs::sddmm_locating(), sddmm_inputs, table1::sddmm()),
        (
            graphs::mttkrp(),
            // The factor matrices iterate k (resp. l) before j, so they are
            // bound transposed: DCSC of their logical (j,k) / (j,l) shapes.
            Inputs::new().coo("B", &b3, TensorFormat::csf(3)).coo("C", &fc, TensorFormat::dcsc()).coo(
                "D",
                &fd,
                TensorFormat::dcsc(),
            ),
            table1::mttkrp(),
        ),
    ]
}

#[test]
fn every_kernel_agrees_across_backends() {
    for (graph, inputs, assignment) in catalog() {
        // Dense reference over the same operands.
        let mut env = Environment::new();
        for (name, tensor) in inputs.iter() {
            env.insert(name, tensor.to_dense());
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).unwrap();

        let serial = ExecRequest::new(&graph, &inputs)
            .executor(&FastBackend::new())
            .run()
            .unwrap_or_else(|e| panic!("{}: serial fast run failed: {e}", graph.name));
        assert_eq!(serial.backend, "fast-serial");
        let serial_out = serial.output.expect("tensor output");
        assert!(
            serial_out.to_dense().approx_eq(&expect),
            "{}: serial fast output diverged from the dense reference",
            graph.name
        );

        let cycle = ExecRequest::new(&graph, &inputs)
            .executor(&CycleBackend)
            .run()
            .unwrap_or_else(|e| panic!("{}: cycle run failed: {e}", graph.name));
        assert_eq!(cycle.backend, "cycle");
        assert_eq!(
            cycle.output.expect("tensor output"),
            serial_out,
            "{}: cycle and fast backends disagree",
            graph.name
        );
    }
}

/// Execution reports the root-cause error, not a downstream symptom:
/// structurally misaligned streams surface as the observing node's own
/// error, named by its plan label (the one spelling every error uses).
#[test]
fn misaligned_streams_fail_as_the_observing_node() {
    use sam_core::build::GraphBuilder;
    use sam_core::graph::{NodeId, NodeKind};
    use sam_exec::ExecError;

    // A vector reducer whose coordinate stream (b's 32 coordinates) is far
    // longer than its value stream (c's 2 values): the pairwise walk hits
    // a data/stop mismatch partway through, after real tokens have already
    // flowed, which the planner legitimately cannot see.
    let mut g = GraphBuilder::new("bad");
    let rb = g.root("b");
    let (b_crd, _b_ref) = g.scan("b", 'i', true, rb);
    let rc = g.root("c");
    let (_c_crd, c_ref) = g.scan("c", 'i', true, rc);
    let c_vals = g.array("c", c_ref);
    let (x_crd, x_val) = g.reduce_vector(b_crd, c_vals);
    g.write_level("x", 'i', x_crd);
    g.write_vals("x", x_val);
    let mut graph = g.finish();
    // A display label of its own, as custard gives its merges, so the
    // kind's generic label cannot pass for it.
    let reducer = NodeId(
        graph.nodes().iter().position(|k| matches!(k, NodeKind::Reducer { .. })).expect("one reducer"),
    );
    graph.set_label(reducer, "reduce(i: b,c)");

    let b = synth::random_vector(64, 32, 311);
    let c = synth::random_vector(64, 2, 312);
    let inputs =
        Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
    let plan = Plan::build(&graph, &inputs).expect("the misalignment is invisible to planning");
    // The cycle reducer block reads the same heads through the same rule,
    // so every backend fails at the same node.
    let backends: [&dyn Executor; 3] = [&CycleBackend, &FastBackend::new(), &TiledBackend::with_tile(16)];
    for backend in backends {
        let run = backend.run(&plan, &inputs);
        let Err(ExecError::Misaligned { label }) = run else {
            panic!("{}: the run should fail on the misaligned reducer streams, got {run:?}", backend.name());
        };
        assert_eq!(label, plan.node_label(reducer), "{}: error should name the reducer", backend.name());
    }
}

/// A fault inside a fusion region is the stored walk's fault: the member
/// that observes it is named, not the intersecter whose walk evaluated it.
/// Here a repeater broadcasts one reference per nonzero of `d(i)` over the
/// fibers of SpMV's inner intersection, one per row of `B`: `d` has two
/// nonzeros and `B` more nonempty rows, so the repeater runs out of
/// references, which planning cannot see. The cycle backend, which fuses
/// nothing, names the same node.
#[test]
fn a_fault_inside_a_fusion_region_names_the_member() {
    use sam_core::build::GraphBuilder;
    use sam_core::graph::{NodeId, NodeKind};
    use sam_exec::ExecError;

    let mut g = GraphBuilder::new("misrepeated");
    let (rb, rc, rd) = (g.root("B"), g.root("c"), g.root("d"));
    let (bi, bi_ref) = g.scan("B", 'i', true, rb);
    let (bj, bj_ref) = g.scan("B", 'j', true, bi_ref);
    let c_rows = g.repeat("c", 'i', bi, rc);
    let (cj, cj_ref) = g.scan("c", 'j', true, c_rows);
    let (j, [at_b, at_c]) = g.intersect('j', [bj, cj], [bj_ref, cj_ref]);
    let (_, d_ref) = g.scan("d", 'i', true, rd);
    let d_rows = g.repeat("d", 'j', j, d_ref);
    let (bv, cv, dv) = (g.array("B", at_b), g.array("c", at_c), g.array("d", d_rows));
    let bc = g.alu("mul", bv, cv);
    let bcd = g.alu("mul", bc, dv);
    let x = g.reduce_scalar(bcd);
    g.write_level("x", 'i', bi);
    g.write_vals("x", x);
    let graph = g.finish();
    let position = |kind: fn(&NodeKind) -> bool| graph.nodes().iter().position(kind).map(NodeId);
    let inputs = Inputs::new()
        .coo("B", &synth::random_matrix_sparsity(6, 5, 0.3, 321), TensorFormat::dcsr())
        .coo("c", &synth::random_vector(5, 5, 322), TensorFormat::sparse_vec())
        .coo("d", &synth::random_vector(6, 2, 323), TensorFormat::sparse_vec());
    let plan = Plan::build(&graph, &inputs).expect("the misrepeat is invisible to planning");
    let isect = position(|k| matches!(k, NodeKind::Intersecter { .. })).expect("one intersecter");
    let repeater = position(|k| matches!(k, NodeKind::Repeater { tensor, .. } if tensor == "d"));
    assert!(repeater.is_some_and(|r| plan.region_members(isect).contains(&r)), "the repeater is fused");
    // The cycle repeater block pairs the same streams through the same
    // rule, so it reports the misalignment instead of waiting for a
    // reference that never comes.
    let backends: [&dyn Executor; 3] = [&CycleBackend, &FastBackend::new(), &TiledBackend::with_tile(16)];
    for backend in backends {
        let run = backend.run(&plan, &inputs);
        let Err(ExecError::Misaligned { label }) = run else {
            panic!("{}: the run should fail on the repeater's references, got {run:?}", backend.name());
        };
        assert_eq!(label, "repeat d over j", "{}: the error names the repeater", backend.name());
    }
}

/// Inputs that push a fused scanner through its corner states — no stored
/// entries at all, empty fibers between full ones, a `Dense` level, and
/// operands skewed enough that the walk gallops and jumps tails, two dense
/// factors intersected under skip-laned scanners — give the same output and
/// raw values on all three backends, one token total on the two that share
/// the walk, for every lane-free fused scanner the per-class token counts
/// the cycle backend's standalone scanner block reports, and for every
/// scanner with a skip lane no counts at all.
#[test]
fn edge_inputs_through_fused_scanners_agree_on_every_backend() {
    use custard::{lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
    use sam_core::graph::NodeKind;
    use sam_tensor::CooTensor;

    let compile = |text: &str, formats: Formats| {
        lower_exec(&ConcreteIndexNotation::new(parse(text).unwrap(), &Schedule::new(), formats)).unwrap()
    };
    let m = synth::random_matrix_sparsity(24, 18, 0.85, 303);
    let sv = synth::random_vector(18, 6, 305);
    // CSR keeps every row, so most of this matrix's column fibers are empty.
    let hollow = synth::random_matrix_nnz(40, 18, 9, 306);
    let spmv = compile("x(i) = B(i,j) * c(j)", Formats::new().set("B", TensorFormat::csr())).graph;
    let vb = synth::random_vector(64, 64, 307);
    let vc = synth::random_vector(64, 20, 308);
    // SpMV's shape in the benchmark: four nonzeros a row, all in the lower
    // half of the columns, against a 2000-vector.
    let rows = CooTensor::from_entries(
        vec![12, 2000],
        (0..12u32)
            .flat_map(|i| (0..4u32).map(move |k| (vec![i, (i * 37 + k * 251) % 1000], f64::from(k + 1))))
            .collect(),
    )
    .unwrap();
    let full = synth::random_vector(2000, 2000, 309);
    let above = CooTensor::from_entries(
        vec![2000],
        (1000..2000u32).map(|j| (vec![j], f64::from(j % 5 + 1))).collect(),
    )
    .unwrap();
    // MTTKRP with one factor ten times denser than the other: the tensor's
    // fibers are the short side against `C` and the long side against `D`.
    let mttkrp = compile("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", Formats::new());
    let mttkrp_inputs = [
        ("B", synth::random_tensor3([4, 40, 40], 120, 310)),
        ("C", synth::random_matrix_sparsity(5, 40, 0.1, 311)),
        ("D", synth::random_matrix_sparsity(5, 40, 0.91, 312)),
    ]
    .iter()
    .fold(Inputs::new(), |inputs, (name, coo)| {
        let (_, format) =
            mttkrp.formats.iter().find(|(n, _)| n == name).expect("a derived format per operand");
        inputs.coo(name, coo, format.clone())
    });

    // SDDMM as the benchmark compiles it: dense `P` and `Q`, so the `k`
    // intersection is dense against dense and the density-skew heuristic
    // wires skip lanes to the scanners at `i` and `j`.
    let sddmm = compile(
        "X(i,j) = A(i,j) * P(i,k) * Q(j,k)",
        Formats::new().set("P", TensorFormat::dense(2)).set("Q", TensorFormat::dense(2)),
    );
    let sddmm_inputs = [
        ("A", synth::random_matrix_sparsity(24, 18, 0.85, 313)),
        ("P", synth::dense_matrix(24, 5, 314)),
        ("Q", synth::dense_matrix(18, 5, 315)),
    ]
    .iter()
    .fold(Inputs::new(), |inputs, (name, coo)| {
        let (_, format) =
            sddmm.formats.iter().find(|(n, _)| n == name).expect("a derived format per operand");
        inputs.coo(name, coo, format.clone())
    });

    let cases: Vec<(&str, SamGraph, Inputs, usize)> = vec![
        (
            "an operand with zero stored entries",
            graphs::spmv_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo(
                "c",
                &CooTensor::new(vec![18]),
                TensorFormat::sparse_vec(),
            ),
            0,
        ),
        (
            "empty fibers",
            spmv.clone(),
            Inputs::new().coo("B", &hollow, TensorFormat::csr()).coo("c", &sv, TensorFormat::sparse_vec()),
            0,
        ),
        (
            "a dense level",
            graphs::vec_elem_mul(false),
            Inputs::new().coo("b", &vb, TensorFormat::dense_vec()).coo("c", &vc, TensorFormat::dense_vec()),
            0,
        ),
        (
            "short rows against a fully populated vector",
            spmv.clone(),
            Inputs::new().coo("B", &rows, TensorFormat::csr()).coo("c", &full, TensorFormat::sparse_vec()),
            0,
        ),
        (
            "a vector above every matrix column: the first probe gallops off the row's end",
            spmv,
            Inputs::new().coo("B", &rows, TensorFormat::csr()).coo("c", &above, TensorFormat::sparse_vec()),
            0,
        ),
        ("both operands galloping alternately at two nested levels", mttkrp.graph, mttkrp_inputs, 0),
        ("dense factors under skip-laned sparse rows: the benchmark's SDDMM", sddmm.graph, sddmm_inputs, 4),
    ];
    for (what, graph, inputs, want_lanes) in cases {
        let plan = Plan::build(&graph, &inputs).unwrap_or_else(|e| panic!("{what}: {e}"));
        let intersecters = plan
            .order()
            .iter()
            .filter(|id| matches!(graph.nodes()[id.0], NodeKind::Intersecter { .. }))
            .count();
        let cycle = CycleBackend.run(&plan, &inputs).unwrap_or_else(|e| panic!("{what}: {e}"));
        let backends: [&dyn Executor; 2] = [&FastBackend::new(), &TiledBackend::with_tile(1 << 20)];
        let mut tokens = None;
        for backend in backends {
            let run = backend
                .run(&plan, &inputs)
                .unwrap_or_else(|e| panic!("{what}: `{}` failed: {e}", backend.name()));
            assert_eq!(run.output, cycle.output, "{what}: `{}` output diverged", backend.name());
            assert_eq!(run.vals, cycle.vals, "{what}: `{}` raw values diverged", backend.name());
            // One tile covers every operand, so the tiled run is one walk.
            assert_eq!(*tokens.get_or_insert(run.tokens), run.tokens, "{what}: `{}` tokens", backend.name());
        }
        let fused = common::assert_fused_counts_match_cycle(what, &graph, &inputs).0;
        let lanes = plan.order().iter().filter_map(|&id| plan.fused_scan(id)).filter(|f| f.skip_lane).count();
        assert!(intersecters > 0, "{what}: the case must intersect something");
        assert_eq!(lanes, want_lanes, "{what}: scanners fused with a skip lane");
        assert_eq!(
            fused + lanes,
            2 * intersecters,
            "{what}: every operand of every intersecter should be a fused scanner"
        );
    }
}

/// The skip-enabled twins of the catalog kernels: `(skip-free graph,
/// skip graph, inputs)` triples over operands skewed enough that skipping
/// has something to do.
fn skip_twins() -> Vec<(SamGraph, SamGraph, Inputs)> {
    // One dense-ish vector against a hypersparse one: the Section 4.2 case.
    let vb = synth::random_vector(4000, 3600, 401);
    let vc = synth::random_vector(4000, 25, 402);
    let m = synth::random_matrix_sparsity(24, 18, 0.55, 403);
    let n = synth::random_matrix_sparsity(18, 21, 0.92, 404);
    let sv = synth::random_vector(18, 3, 405);
    let dense_c = synth::dense_matrix(24, 6, 406);
    let dense_d = synth::dense_matrix(18, 6, 407);
    let spmm = |dataflow: SpmmDataflow| {
        let (fb, fc) = dataflow.operand_formats();
        (
            graphs::spmm(dataflow),
            graphs::spmm_with_skip(dataflow),
            Inputs::new().coo("B", &m, fb).coo("C", &n, fc),
        )
    };

    vec![
        (
            graphs::vec_elem_mul(true),
            graphs::vec_elem_mul_with_skip(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
        ),
        (
            graphs::spmv_coiteration(),
            graphs::spmv_with_skip(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
        ),
        spmm(SpmmDataflow::LinearCombination),
        spmm(SpmmDataflow::InnerProduct),
        spmm(SpmmDataflow::OuterProduct),
        (
            graphs::sddmm_coiteration(),
            graphs::sddmm_with_skip(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("C", &dense_c, TensorFormat::dense(2)).coo(
                "D",
                &dense_d,
                TensorFormat::dense(2),
            ),
        ),
    ]
}

/// The acceptance gate for coordinate skipping: every skip graph computes
/// exactly what its skip-free twin computes, on the cycle backend and the
/// fast backend.
#[test]
fn skip_graphs_match_their_skip_free_twins_on_every_backend() {
    for (plain, with_skip, inputs) in skip_twins() {
        let reference = ExecRequest::new(&plain, &inputs)
            .executor(&FastBackend::new())
            .run()
            .unwrap_or_else(|e| panic!("{}: skip-free serial run failed: {e}", plain.name));
        let expect = reference.output.expect("tensor output");

        for (what, run) in [
            ("fast-serial", ExecRequest::new(&with_skip, &inputs).executor(&FastBackend::new()).run()),
            ("cycle", ExecRequest::new(&with_skip, &inputs).executor(&CycleBackend).run()),
        ] {
            let run = run.unwrap_or_else(|e| panic!("{}: {what} skip run failed: {e}", with_skip.name));
            assert_eq!(
                run.output.expect("tensor output"),
                expect,
                "{}: {what} skip run diverged from the skip-free twin",
                with_skip.name
            );
        }
    }
}

/// Fusion must actually pay: on skewed vectors, the fast serial backend
/// materializes far fewer tokens for the skip graph than for its twin,
/// because the fused scanners never emit the galloped-over coordinates.
#[test]
fn skip_fusion_reduces_materialized_tokens_on_skewed_inputs() {
    let vb = synth::random_vector(20_000, 18_000, 411);
    let vc = synth::random_vector(20_000, 40, 412);
    let inputs =
        Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec());
    let plain =
        ExecRequest::new(&graphs::vec_elem_mul(true), &inputs).executor(&FastBackend::new()).run().unwrap();
    let skip = ExecRequest::new(&graphs::vec_elem_mul_with_skip(true), &inputs)
        .executor(&FastBackend::new())
        .run()
        .unwrap();
    assert_eq!(plain.output.unwrap(), skip.output.unwrap());
    assert!(
        skip.tokens * 4 < plain.tokens,
        "skip fusion should cut token traffic by far more than 4x on skewed vectors: \
         {} (skip) vs {} (plain)",
        skip.tokens,
        plain.tokens
    );
}
