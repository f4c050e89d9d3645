//! The static verifier wired into the planning path: every graph the
//! planner rejects is rejected by `sam-verify` first with more specific
//! diagnostics.

use sam_core::graph::{NodeId, NodeKind, SamGraph, StreamKind};
use sam_core::graphs;
use sam_exec::{Inputs, Plan, PlanCache, PlanError, Planner};
use sam_tensor::{synth, TensorFormat};

fn vec_inputs() -> Inputs {
    let b = synth::random_vector(64, 20, 1);
    let c = synth::random_vector(64, 22, 2);
    Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec())
}

/// Broken `(graph, inputs)` pairs covering structural and binding-level
/// defect classes the planner rejects.
fn broken_cases() -> Vec<(&'static str, SamGraph, Inputs)> {
    // Structural: an unsupported primitive appended to a valid kernel.
    let mut unsupported = graphs::vec_elem_mul(true);
    unsupported.add_node(NodeKind::Parallelizer);

    // Structural: the values writer loses its input stream.
    let mut dangling = SamGraph::new("dangling");
    dangling.add_node(NodeKind::Root { tensor: "b".into() });
    dangling.add_node(NodeKind::LevelScanner { tensor: "b".into(), index: 'i', compressed: true });
    dangling.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false });
    dangling.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: true });
    dangling.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    dangling.add_edge_on(NodeId(1), 0, NodeId(2), 0, StreamKind::Crd, "i crd");

    // Binding-level: an unbound tensor, a dense vector under a compressed
    // scanner, and a matrix bound to a single-level vector kernel.
    let missing = Inputs::new().coo("b", &synth::random_vector(64, 20, 3), TensorFormat::sparse_vec());
    let dense = Inputs::new().coo("b", &synth::random_vector(64, 20, 4), TensorFormat::dense_vec()).coo(
        "c",
        &synth::random_vector(64, 22, 5),
        TensorFormat::dense_vec(),
    );
    let matrix = Inputs::new()
        .coo("b", &synth::random_matrix_sparsity(16, 16, 0.5, 6), TensorFormat::dcsr())
        .coo("c", &synth::random_vector(64, 22, 7), TensorFormat::sparse_vec());

    vec![
        ("unsupported-node", unsupported, vec_inputs()),
        ("dangling-input", dangling, vec_inputs()),
        ("unknown-tensor", graphs::vec_elem_mul(true), missing),
        ("format-mismatch", graphs::vec_elem_mul(true), dense),
        ("rank-mismatch", graphs::vec_elem_mul(true), matrix),
    ]
}

/// Every planner rejection is preceded by a verifier rejection on the
/// `Planner` path, and the verifier's diagnostics carry more than the
/// planner's single first-error (rule id, node anchor, full list).
#[test]
fn planner_rejections_are_a_strict_subset_of_verifier_findings() {
    for (name, graph, inputs) in broken_cases() {
        let direct = Plan::build(&graph, &inputs);
        assert!(direct.is_err(), "{name}: the planner itself must reject this case");

        match Planner::uncached().plan(&graph, &inputs) {
            Err(PlanError::Rejected { diagnostics }) => {
                assert!(!diagnostics.is_empty(), "{name}: rejection must carry diagnostics");
                for d in &diagnostics {
                    assert!(!d.rule.id().is_empty(), "{name}: every diagnostic names its rule");
                }
            }
            other => panic!("{name}: expected PlanError::Rejected, got {other:?}"),
        }
    }
}

/// The verifier also gates the cached planning path, and rejections are
/// never cached.
#[test]
fn verifier_rejection_reaches_the_cache_path() {
    let (_, graph, inputs) = broken_cases().remove(0);
    let cache = PlanCache::new(8);
    for _ in 0..2 {
        match cache.get_or_plan(&graph, &inputs) {
            Err(PlanError::Rejected { .. }) => {}
            other => panic!("expected PlanError::Rejected, got {other:?}"),
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 0, "failed plans must not be cached");
    assert_eq!(stats.misses, 2, "both lookups re-verified");
}

/// Graphs every backend runs cleanly still plan cleanly through the
/// verifier gate (no false positives on the catalog path).
#[test]
fn clean_graphs_pass_the_gate() {
    let plan = Planner::uncached().plan(&graphs::vec_elem_mul(true), &vec_inputs()).unwrap();
    assert!(!plan.order().is_empty());
}
