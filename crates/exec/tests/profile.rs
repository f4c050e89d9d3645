//! Observability invariants: per-node token counts from [`CountersSink`]
//! are bit-identical between the serial and threaded fast backends for
//! every kernel in the catalog, per-node totals add up to
//! [`Execution::tokens`] on all four backends, scanners fused into their
//! intersecter report the counts the cycle backend measures for them, and
//! traces carry the human-readable node labels the builder attached.

mod common;

use sam_core::graph::SamGraph;
use sam_core::graphs::{self, SpmmDataflow};
use sam_exec::{CountersSink, CycleBackend, ExecProfile, Executor, FastBackend, Inputs, Plan, TiledBackend};
use sam_tensor::{synth, CooTensor, TensorFormat};

/// The kernel catalog from the equivalence suite, sized down slightly: each
/// entry is profiled under four backend configurations.
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

    vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
        ),
        (
            graphs::vec_elem_mul(false),
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
        (graphs::sddmm_coiteration(), sddmm_inputs.clone()),
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
    ]
}

fn profiled(backend: &dyn Executor, plan: &Plan, inputs: &Inputs) -> (u64, ExecProfile) {
    let sink = CountersSink::new();
    let run = backend.run_traced(plan, inputs, &sink).unwrap_or_else(|e| panic!("traced run failed: {e}"));
    let profile = run.profile.expect("traced runs attach a profile");
    (run.tokens, profile)
}

/// Per-node token counts and invocation counts must not depend on how the
/// fast backend is scheduled: serial and Threads(4) classify the same
/// streams and must agree node for node, bit for bit.
#[test]
fn per_node_counts_identical_between_serial_and_threads() {
    for (graph, inputs) in catalog() {
        let plan = Plan::build(&graph, &inputs).unwrap_or_else(|e| panic!("{}: {e}", graph.name));
        let (_, serial) = profiled(&FastBackend::serial(), &plan, &inputs);
        let (_, threads) = profiled(&FastBackend::threads(4), &plan, &inputs);
        assert_eq!(serial.nodes.len(), threads.nodes.len(), "{}", graph.name);
        for (s, t) in serial.nodes.iter().zip(&threads.nodes) {
            assert_eq!(s.label, t.label, "{}: node {} label differs", graph.name, s.index);
            assert_eq!(
                s.tokens, t.tokens,
                "{}: node {} ({}) token counts differ between fast-serial and fast-threads",
                graph.name, s.index, s.label
            );
            assert_eq!(
                s.invocations, t.invocations,
                "{}: node {} ({}) invocation counts differ",
                graph.name, s.index, s.label
            );
        }
    }
}

/// The per-node classification is exhaustive: summed over nodes it equals
/// the aggregate `Execution::tokens` the backend reports — on the fast
/// serial, fast threaded and cycle backends, for every catalog kernel.
#[test]
fn profile_totals_match_execution_tokens() {
    let backends: [&dyn Executor; 3] =
        [&FastBackend::serial(), &FastBackend::threads(4), &CycleBackend::default()];
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
/// scanners report, on every fast configuration, what the cycle backend
/// counts for the same node. (`residual`, `mat_trans_mul` and `plus3` are
/// covered as compiled twins in `table1_compiled.rs`.)
#[test]
fn fused_scanner_counts_match_the_cycle_backend() {
    let mut checked = 0;
    for (graph, inputs) in catalog() {
        checked += common::assert_fused_scanner_counts_match_cycle(&graph.name, &graph, &inputs);
    }
    assert!(checked >= 10, "the catalog fuses scanners in most kernels, only {checked} were checked");
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

/// Traces carry the builder's human-readable labels: a merge shows up as
/// `intersect(j: B,c)`, not a bare `intersect(j)` — on every backend.
#[test]
fn traces_carry_enriched_node_labels() {
    let m = synth::random_matrix_sparsity(24, 18, 0.85, 303);
    let sv = synth::random_vector(18, 18, 305);
    let inputs = Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec());
    let graph = graphs::spmv_coiteration();
    let plan = Plan::build(&graph, &inputs).unwrap();
    let backends: [&dyn Executor; 3] =
        [&FastBackend::serial(), &FastBackend::threads(2), &CycleBackend::default()];
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

/// Fiber splitting must be observability-invisible: with the split
/// threshold forced to 1 (every node with a worker pool splits, regardless
/// of host core count), per-node token and invocation counts still match
/// fast-serial bit for bit on every catalog kernel.
#[test]
fn per_node_counts_identical_under_forced_splitting() {
    for (graph, inputs) in catalog() {
        let plan = Plan::build(&graph, &inputs).unwrap_or_else(|e| panic!("{}: {e}", graph.name));
        let (serial_tokens, serial) = profiled(&FastBackend::serial(), &plan, &inputs);
        let (split_tokens, split) =
            profiled(&FastBackend::threads(4).with_split_threshold(1), &plan, &inputs);
        assert_eq!(serial_tokens, split_tokens, "{}", graph.name);
        assert_eq!(serial.nodes.len(), split.nodes.len(), "{}", graph.name);
        for (s, t) in serial.nodes.iter().zip(&split.nodes) {
            assert_eq!(s.label, t.label, "{}: node {} label differs", graph.name, s.index);
            assert_eq!(
                s.tokens, t.tokens,
                "{}: node {} ({}) token counts differ under forced splitting",
                graph.name, s.index, s.label
            );
            assert_eq!(
                s.invocations, t.invocations,
                "{}: node {} ({}) invocation counts differ under forced splitting",
                graph.name, s.index, s.label
            );
        }
    }
}

/// Work-stealing runs surface per-worker scheduler counters, and those
/// counters stay internally consistent: steals never exceed executed
/// tasks, and no worker reports more busy time than the run's wall clock.
#[test]
fn worker_counters_are_consistent_with_wall_time() {
    for (graph, inputs) in catalog() {
        let plan = Plan::build(&graph, &inputs).unwrap_or_else(|e| panic!("{}: {e}", graph.name));
        let backend = FastBackend::threads(4).with_split_threshold(1);
        let sink = CountersSink::new();
        let run = backend.run_traced(&plan, &inputs, &sink).unwrap();
        let profile = run.profile.expect("traced runs attach a profile");
        assert_eq!(profile.workers.len(), 4, "{}", graph.name);
        let elapsed_ns = run.elapsed.as_nanos() as u64;
        // Worker 0 is the driving thread: its pool tasks and its inline
        // nodes are disjoint intervals inside the run, so no slack — a
        // split node's batch time counted on top of its tasks would exceed.
        assert!(
            profile.workers[0].busy_ns <= elapsed_ns,
            "{}: worker 0 busy {}ns exceeds wall {}ns",
            graph.name,
            profile.workers[0].busy_ns,
            elapsed_ns
        );
        // Generous slack for timer granularity on coarse clocks.
        let ceiling = elapsed_ns + 10_000_000;
        let mut total_tasks = 0u64;
        for w in &profile.workers {
            assert!(w.steals <= w.tasks, "{}: worker {} stole more than it ran", graph.name, w.index);
            assert!(
                w.busy_ns <= ceiling,
                "{}: worker {} busy {}ns exceeds wall {}ns",
                graph.name,
                w.index,
                w.busy_ns,
                elapsed_ns
            );
            total_tasks += w.tasks;
        }
        assert_eq!(profile.total_steals(), profile.workers.iter().map(|w| w.steals).sum::<u64>());
        // Every node evaluation runs somewhere: the pool accounts for at
        // least one task per planned node (fused scanners are folded into
        // their intersecters and report no invocation, splits add more).
        assert!(
            total_tasks >= profile.nodes.iter().filter(|n| n.invocations > 0).count() as u64,
            "{}: {} tasks for {} active nodes",
            graph.name,
            total_tasks,
            profile.nodes.len()
        );
        // Serial runs report no workers at all.
        let (_, serial) = profiled(&FastBackend::serial(), &plan, &inputs);
        assert!(serial.workers.is_empty());
    }
}
