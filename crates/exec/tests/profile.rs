//! Observability invariants: per-node token counts from [`CountersSink`]
//! add up to [`Execution::tokens`] on all three backends for every kernel
//! in the catalog, scanners fused into their intersecter and the nodes of
//! every fusion region report the counts the cycle backend measures for
//! them, and traces carry the human-readable node labels the builder
//! attached.

mod common;

use custard::graphs::{self, SpmmDataflow};
use sam_core::graph::SamGraph;
use sam_exec::{CountersSink, CycleBackend, ExecProfile, Executor, FastBackend, Inputs, Plan, TiledBackend};
use sam_tensor::{synth, CooTensor, TensorFormat};

/// The kernel catalog from the equivalence suite, sized down slightly: each
/// entry is profiled on every backend.
fn catalog() -> Vec<(SamGraph, Inputs)> {
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
        (graphs::spmm(dataflow), Inputs::new().coo("B", &m, fb).coo("C", &n, fc))
    };
    let sddmm_inputs = Inputs::new()
        .coo("B", &m, TensorFormat::dcsr())
        .coo("C", &dense_c, TensorFormat::dense(2))
        .coo("D", &dense_d, TensorFormat::dense(2));
    let rb = synth::random_vector(24, 12, 315);
    let rd = synth::random_vector(18, 9, 316);
    let tc = synth::random_vector(24, 14, 317);
    let p = |seed| synth::random_matrix_sparsity(20, 16, 0.75, seed);

    vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
        ),
        (
            graphs::vec_elem_mul(false),
            Inputs::new().coo("b", &vb, TensorFormat::dense_vec()).coo("c", &vc, TensorFormat::dense_vec()),
        ),
        (
            graphs::vec_elem_mul_with_skip(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
        ),
        (
            graphs::vec_elem_mul_with_skip(false),
            Inputs::new().coo("b", &vb, TensorFormat::dense_vec()).coo("c", &vc, TensorFormat::dense_vec()),
        ),
        (graphs::identity(), Inputs::new().coo("B", &m, TensorFormat::dcsr())),
        (
            graphs::spmv(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::dense_vec()),
        ),
        (
            graphs::spmv_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
        ),
        (
            graphs::spmv_with_skip(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
        ),
        spmm(SpmmDataflow::LinearCombination),
        spmm(SpmmDataflow::InnerProduct),
        spmm(SpmmDataflow::OuterProduct),
        {
            let (fb, fc) = SpmmDataflow::LinearCombination.operand_formats();
            (
                graphs::spmm_with_skip(SpmmDataflow::LinearCombination),
                Inputs::new().coo("B", &m, fb).coo("C", &n, fc),
            )
        },
        (graphs::sddmm_coiteration(), sddmm_inputs.clone()),
        (graphs::sddmm_with_skip(), sddmm_inputs.clone()),
        (graphs::sddmm_locating(), sddmm_inputs),
        (
            graphs::mat_elem_mul(),
            Inputs::new().coo("B", &m, TensorFormat::csf(2)).coo("C", &m2, TensorFormat::csf(2)),
        ),
        (
            graphs::mat_elem_mul_locating(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("T", &dense_t, TensorFormat::dense(2)),
        ),
        (
            graphs::mttkrp(),
            Inputs::new().coo("B", &b3, TensorFormat::csf(3)).coo("C", &fc, TensorFormat::dcsc()).coo(
                "D",
                &fd,
                TensorFormat::dcsc(),
            ),
        ),
        (
            graphs::residual(),
            Inputs::new().coo("b", &rb, TensorFormat::sparse_vec()).coo("C", &m, TensorFormat::dcsr()).coo(
                "d",
                &rd,
                TensorFormat::sparse_vec(),
            ),
        ),
        (
            graphs::mat_trans_mul(),
            Inputs::new()
                .coo("B", &m, TensorFormat::dcsc())
                .coo("c", &tc, TensorFormat::sparse_vec())
                .coo("d", &sv, TensorFormat::sparse_vec())
                .scalar("alpha", 2.0)
                .scalar("beta", -3.0),
        ),
        (
            graphs::plus3(),
            Inputs::new()
                .coo("B", &p(318), TensorFormat::dcsr())
                .coo("C", &p(319), TensorFormat::dcsr())
                .coo("D", &p(320), TensorFormat::dcsr()),
        ),
    ]
}

fn profiled(backend: &dyn Executor, plan: &Plan, inputs: &Inputs) -> (u64, ExecProfile) {
    let sink = CountersSink::new();
    let run = backend.run_traced(plan, inputs, &sink).unwrap_or_else(|e| panic!("traced run failed: {e}"));
    let profile = run.profile.expect("traced runs attach a profile");
    (run.tokens, profile)
}

/// The per-node classification is exhaustive: summed over nodes it equals
/// the aggregate `Execution::tokens` the backend reports — on the fast and
/// cycle backends, for every catalog kernel.
#[test]
fn profile_totals_match_execution_tokens() {
    let backends: [&dyn Executor; 2] = [&FastBackend::new(), &CycleBackend];
    for (graph, inputs) in catalog() {
        let plan = Plan::build(&graph, &inputs).unwrap_or_else(|e| panic!("{}: {e}", graph.name));
        for backend in backends {
            let (tokens, profile) = profiled(backend, &plan, &inputs);
            assert_eq!(
                profile.total_tokens(),
                tokens,
                "{}: profile total diverges from Execution::tokens on `{}`",
                graph.name,
                backend.name()
            );
        }
    }
}

/// Fusion is invisible to the statistics: every catalog kernel's fused
/// scanners, fusion-region roots and region members report, on the fast
/// and tiled backends, what the cycle backend counts for the same node.
#[test]
fn fused_scanner_counts_match_the_cycle_backend() {
    let (mut scanners, mut members) = (0, 0);
    for (graph, inputs) in catalog() {
        let (fused, in_regions) = common::assert_fused_counts_match_cycle(&graph.name, &graph, &inputs);
        scanners += fused;
        members += in_regions;
    }
    assert!(scanners >= 10, "the catalog fuses scanners in most kernels, only {scanners} were checked");
    assert!(
        members >= 30,
        "most catalog kernels end in a fusion region, only {members} members were checked"
    );
}

/// The same for `custard`'s lowering of the benchmark's seven list kernels
/// (the expressions of `sambench/src/corpus.rs`, copied, not imported),
/// whose innermost regions hold repeaters and chains of ALUs.
#[test]
fn compiled_list_kernel_region_counts_match_the_cycle_backend() {
    use custard::{ConcreteIndexNotation, Formats, Schedule};

    let (n, rank, t) = (40, 4, 8);
    let operands: Vec<(&str, CooTensor)> = vec![
        ("A", synth::random_matrix_nnz(n, n, 160, 91)),
        ("B", synth::random_matrix_nnz(n, n, 160, 92)),
        ("v", synth::random_vector(n, n, 93)),
        ("w", synth::random_vector(n, n / 2, 94)),
        ("P", synth::dense_matrix(n, rank, 95)),
        ("Q", synth::dense_matrix(n, rank, 96)),
        ("T", synth::random_tensor3([t, t, t], 100, 97)),
        ("F", synth::random_matrix_nnz(t, t, 12, 98)),
        ("G", synth::random_matrix_nnz(t, t, 12, 99)),
        ("u", synth::random_vector(t, t, 100)),
    ];
    let kernels: [(&str, &str, Option<&str>, &[&str]); 7] = [
        ("spmv", "x(i) = A(i,j) * v(j)", None, &[]),
        ("spmspm", "X(i,j) = A(i,k) * B(k,j)", Some("ikj"), &[]),
        ("mmadd", "X(i,j) = A(i,j) + B(i,j)", None, &[]),
        ("sddmm", "X(i,j) = A(i,j) * P(i,k) * Q(j,k)", None, &["P", "Q"]),
        ("residual", "x(i) = w(i) - A(i,j) * v(j)", None, &[]),
        ("mttkrp", "X(i,j) = T(i,k,l) * F(j,k) * G(j,l)", None, &[]),
        ("ttv", "X(i,j) = T(i,j,k) * u(k)", None, &[]),
    ];
    let mut members = 0;
    for (name, text, order, dense) in kernels {
        let schedule = order.map_or_else(Schedule::new, |o| Schedule::new().reorder(o));
        let formats = dense.iter().fold(Formats::new(), |f, d| f.set(d, TensorFormat::dense(2)));
        let cin = ConcreteIndexNotation::new(custard::parse(text).unwrap(), &schedule, formats);
        let kernel = custard::lower_exec(&cin).unwrap();
        let inputs = kernel.formats.iter().fold(Inputs::new(), |inputs, (operand, format)| {
            let coo = &operands.iter().find(|(o, _)| o == operand).unwrap().1;
            inputs.coo(operand, coo, format.clone())
        });
        members += common::assert_fused_counts_match_cycle(name, &kernel.graph, &inputs).1;
    }
    // spmv 4, sddmm 7, residual 4, mttkrp 1 + 7, ttv 4.
    assert_eq!(members, 27, "the list kernels' fusion regions");
}

/// The tiled backend accumulates per-node counts across tile tuples; the
/// grand total still equals its aggregate token count.
#[test]
fn tiled_profile_totals_match_execution_tokens() {
    let int = |coo: &CooTensor| {
        CooTensor::from_entries(
            coo.shape().to_vec(),
            coo.entries().iter().map(|(p, v)| (p.clone(), (v * 4.0).round())).collect(),
        )
        .unwrap()
    };
    let b = int(&synth::random_matrix_sparsity(40, 32, 0.6, 311));
    let c = int(&synth::random_matrix_sparsity(32, 40, 0.6, 312));
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let plan = Plan::build(&graph, &inputs).unwrap();
    let (tokens, profile) = profiled(&TiledBackend::with_tile(8), &plan, &inputs);
    assert!(tokens > 0);
    assert_eq!(profile.total_tokens(), tokens);
    // Every tile tuple re-runs the graph, so nodes fire more than once.
    assert!(profile.nodes.iter().any(|n| n.invocations > 1), "tiled runs accumulate invocations");
}

/// On the cycle backend a node's invocations are the ticks the simulator
/// ran its block: never more than the run's cycles, and fewer for every
/// block that spent part of the run stalled on a channel.
#[test]
fn cycle_profile_reports_ticks_not_runs() {
    let m = synth::random_matrix_sparsity(24, 18, 0.85, 303);
    let sv = synth::random_vector(18, 18, 305);
    let inputs = Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::dense_vec());
    let plan = Plan::build(&graphs::spmv(), &inputs).unwrap();
    let sink = CountersSink::new();
    let run = CycleBackend.run_traced(&plan, &inputs, &sink).unwrap();
    let cycles = run.cycles.expect("the cycle backend reports cycles");
    let profile = run.profile.expect("traced runs attach a profile");
    assert!(profile.nodes.iter().all(|n| n.invocations <= cycles), "a block ticks at most once a cycle");
    assert!(profile.nodes.iter().any(|n| n.invocations < cycles), "no block of spmv ever stalled");
    assert!(profile.nodes.iter().any(|n| n.invocations > 1), "ticks, not one invocation per run");
    // Ticks are cycles: they are not reported as wall time.
    assert!(profile.nodes.iter().all(|n| n.busy_ns == 0));
}

/// Traces carry the builder's human-readable labels: a merge shows up as
/// `intersect(j: B,c)`, not a bare `intersect(j)` — on every backend.
#[test]
fn traces_carry_enriched_node_labels() {
    let m = synth::random_matrix_sparsity(24, 18, 0.85, 303);
    let sv = synth::random_vector(18, 18, 305);
    let inputs = Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec());
    let graph = graphs::spmv_coiteration();
    let plan = Plan::build(&graph, &inputs).unwrap();
    let backends: [&dyn Executor; 2] = [&FastBackend::new(), &CycleBackend];
    for backend in backends {
        let (_, profile) = profiled(backend, &plan, &inputs);
        assert!(
            profile.nodes.iter().any(|n| n.label == "intersect(j: B,c)"),
            "`{}` trace is missing the enriched intersect label: {:?}",
            backend.name(),
            profile.nodes.iter().map(|n| n.label.clone()).collect::<Vec<_>>()
        );
    }
}
