//! The static analysis is the planning path: every planning door rejects a
//! broken graph or binding with the same `sam-verify` diagnostics.

use custard::graphs;
use sam_core::graph::{NodeId, NodeKind, SamGraph, StreamKind};
use sam_exec::{ExecError, ExecRequest, Inputs, Plan, PlanCache, PlanError};
use sam_tensor::{synth, CooTensor, LevelFormat, TensorFormat};
use std::collections::BTreeMap;

fn vec_inputs() -> Inputs {
    let b = synth::random_vector(64, 20, 1);
    let c = synth::random_vector(64, 22, 2);
    Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec())
}

/// Broken `(graph, inputs)` pairs covering structural and binding-level
/// defect classes planning rejects.
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
    // scanner, a matrix bound to a single-level vector kernel, and two
    // vectors of different lengths under one index variable.
    let missing = Inputs::new().coo("b", &synth::random_vector(64, 20, 3), TensorFormat::sparse_vec());
    let dense = Inputs::new().coo("b", &synth::random_vector(64, 20, 4), TensorFormat::dense_vec()).coo(
        "c",
        &synth::random_vector(64, 22, 5),
        TensorFormat::dense_vec(),
    );
    let matrix = Inputs::new()
        .coo("b", &synth::random_matrix_sparsity(64, 16, 0.5, 6), TensorFormat::dcsr())
        .coo("c", &synth::random_vector(64, 22, 7), TensorFormat::sparse_vec());
    let uneven = Inputs::new().coo("b", &synth::random_vector(64, 20, 8), TensorFormat::sparse_vec()).coo(
        "c",
        &synth::random_vector(32, 12, 9),
        TensorFormat::sparse_vec(),
    );

    vec![
        ("unsupported-node", unsupported, vec_inputs()),
        ("dangling-input", dangling, vec_inputs()),
        ("unknown-tensor", graphs::vec_elem_mul(true), missing),
        ("format-mismatch", graphs::vec_elem_mul(true), dense),
        ("rank-mismatch", graphs::vec_elem_mul(true), matrix),
        ("dimension-mismatch", graphs::vec_elem_mul(true), uneven),
    ]
}

/// There is one analysis behind every planning door, so `Plan::build`, an
/// uncached `ExecRequest` and the plan cache reject each case with the same
/// diagnostics — the ones `verify_bound` reports, led by the rule the case
/// is named after.
#[test]
fn every_planning_door_returns_the_same_rejection() {
    for (name, graph, inputs) in broken_cases() {
        let direct = Plan::build(&graph, &inputs).err().unwrap_or_else(|| panic!("{name}: must be rejected"));
        let through_the_door = ExecRequest::new(&graph, &inputs).uncached().plan().err();
        assert_eq!(through_the_door, Some(ExecError::Plan(direct.clone())), "{name}");
        assert_eq!(PlanCache::new(8).get_or_plan(&graph, &inputs).err().as_ref(), Some(&direct), "{name}");

        let bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
        let report = sam_verify::verify_bound(&graph, &bindings);
        let PlanError::Rejected { diagnostics } = direct;
        assert_eq!(diagnostics, report.errors().cloned().collect::<Vec<_>>(), "{name}");
        let expected = if name == "unsupported-node" { "not-yet-lowerable" } else { name };
        assert_eq!(diagnostics[0].rule.id(), expected, "{name}: {}", diagnostics[0]);
    }
}

/// Rejections reach the cached planning path too, and are never cached.
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
    assert_eq!(stats.misses, 2, "both lookups re-analysed");
}

/// Graphs every backend runs cleanly still plan cleanly (no false
/// positives on the catalog path).
#[test]
fn clean_graphs_pass_the_gate() {
    let plan = ExecRequest::new(&graphs::vec_elem_mul(true), &vec_inputs()).uncached().plan().unwrap();
    assert!(!plan.order().is_empty());
}

/// Binds every tensor `graph` names to a small operand whose rank and level
/// formats are the ones the graph's own scanners and locators declare (every
/// dimension 6; locators get dense levels), and every named constant to a
/// scalar — so any catalog graph plans clean without an operand table to keep
/// in step with the catalog.
fn bind_operands(graph: &SamGraph) -> Inputs {
    let analysis = sam_verify::Analysis::run(graph, None);
    let mut formats: BTreeMap<&str, BTreeMap<usize, LevelFormat>> = BTreeMap::new();
    let mut inputs = Inputs::new();
    for (i, kind) in graph.nodes().iter().enumerate() {
        let (tensor, slot, format) = match kind {
            NodeKind::LevelScanner { tensor, compressed: true, .. } => (tensor, 0, LevelFormat::Compressed),
            NodeKind::LevelScanner { tensor, .. } => (tensor, 0, LevelFormat::Dense),
            NodeKind::Locator { tensor, .. } => (tensor, 1, LevelFormat::Dense),
            NodeKind::ConstVal { tensor, .. } if !tensor.is_empty() => {
                inputs = inputs.scalar(tensor, 2.0);
                continue;
            }
            _ => continue,
        };
        let src = analysis.inputs_of(NodeId(i))[slot].expect("catalog graphs are fully wired");
        let Some(sam_verify::StreamType::Ref { depth, .. }) = analysis.stream_type(src) else {
            panic!("catalog reference streams are traced");
        };
        formats.entry(tensor).or_default().insert(*depth, format);
    }
    for (tensor, levels) in formats {
        let rank = levels.len();
        let entries = (0..4u32).map(|k| (vec![k; rank], f64::from(k + 1))).collect();
        let coo = CooTensor::from_entries(vec![6; rank], entries).expect("points lie inside the shape");
        inputs = inputs.coo(tensor, &coo, TensorFormat::new(levels.into_values().collect()));
    }
    inputs
}

/// Every deterministic single edit of `graph`, named: drop an edge, duplicate
/// it, retarget it to every other output port of its producer and to every
/// other input port of its consumer, and flip a scanner's format annotation.
fn single_edits(graph: &SamGraph) -> Vec<(String, SamGraph)> {
    let mut mutants = Vec::new();
    let mut edit = |what: String, apply: &dyn Fn(&mut SamGraph)| {
        let mut mutant = graph.clone();
        apply(&mut mutant);
        mutants.push((what, mutant));
    };
    for (i, e) in graph.edges().iter().enumerate() {
        let at = format!("edge {i} `{}`", graph.edge_label(e));
        edit(format!("drop {at}"), &|g| drop(g.edges_mut().remove(i)));
        edit(format!("duplicate {at}"), &|g| g.edges_mut().push(e.clone()));
        for port in (0..graph.nodes()[e.from.0].output_ports().len()).filter(|&p| p != e.src_port) {
            edit(format!("retarget {at} to output {port}"), &|g| g.edges_mut()[i].src_port = port);
        }
        for port in (0..graph.nodes()[e.to.0].input_ports().len()).filter(|&p| p != e.dst_port) {
            edit(format!("retarget {at} to input {port}"), &|g| g.edges_mut()[i].dst_port = port);
        }
    }
    for (i, kind) in graph.nodes().iter().enumerate() {
        if matches!(kind, NodeKind::LevelScanner { .. }) {
            edit(format!("flip the format of n{i} `{}`", kind.label()), &|g| {
                if let NodeKind::LevelScanner { compressed, .. } = &mut g.nodes_mut()[i] {
                    *compressed = !*compressed;
                }
            });
        }
    }
    mutants
}

/// Planning is total: on every single edit of every catalog graph,
/// `Plan::build` neither panics nor disagrees with the verifier — it plans
/// exactly the mutants `verify_bound` finds error-free and rejects the rest
/// with exactly the verifier's errors. Plan-level only; no mutant is run.
#[test]
fn planning_is_total_on_mutated_catalog_graphs() {
    let (mut planned, mut rejected) = (0, 0);
    for (name, graph) in graphs::catalog() {
        let inputs = bind_operands(&graph);
        Plan::build(&graph, &inputs).unwrap_or_else(|e| panic!("{name}: the unmutated graph must plan: {e}"));
        let bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
        for (what, mutant) in single_edits(&graph) {
            let errors: Vec<_> = sam_verify::verify_bound(&mutant, &bindings).errors().cloned().collect();
            let plan = std::panic::catch_unwind(|| Plan::build(&mutant, &inputs))
                .unwrap_or_else(|_| panic!("{name}, {what}: planning panicked"));
            match plan {
                Ok(_) => {
                    assert!(errors.is_empty(), "{name}, {what}: planned despite {}", errors[0]);
                    planned += 1;
                }
                Err(PlanError::Rejected { diagnostics }) => {
                    assert!(!diagnostics.is_empty(), "{name}, {what}: an empty rejection");
                    assert_eq!(diagnostics, errors, "{name}, {what}");
                    rejected += 1;
                }
            }
        }
    }
    // 2,222 mutants. Nearly every edit breaks a graph now that no port is
    // inferred; the 22 that plan drop an optional skip lane (12) or move a
    // level writer to a matrix reducer's other coordinate output, which is
    // of the same kind (10).
    // Both sides of the property must be exercised.
    assert_eq!((planned, rejected), (22, 2200), "mutants planned and rejected");
}

/// FNV-1a over `bytes`, continuing from `hash`: a digest that stays the
/// same across toolchains and platforms.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The diagnostics of every single edit of every catalog graph are pinned in
/// `.github/mutant_diagnostics.txt`: per graph its mutant count, its error
/// count per rule, a digest of every diagnostic (rule, node, port, node
/// label and message, in report order) over its mutants, and a digest of
/// the unmutated graph's DOT text, which prints every node and edge label.
/// A change to how the analysis is laid out or how labels are stored moves
/// none of them; one that changes what the verifier reports or a graph
/// prints regenerates the file from the lines this prints, and says why.
#[test]
fn mutant_diagnostics_match_the_pinned_digests() {
    let mut lines = String::new();
    for (name, graph) in graphs::catalog() {
        let inputs = bind_operands(&graph);
        let bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
        let mutants = single_edits(&graph);
        let mut errors: BTreeMap<&str, usize> = BTreeMap::new();
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for (_, mutant) in &mutants {
            for d in sam_verify::verify_bound(mutant, &bindings).diagnostics {
                if d.severity == sam_verify::Severity::Error {
                    *errors.entry(d.rule.id()).or_default() += 1;
                }
                let line = format!("{}|{:?}|{:?}|{:?}|{}\n", d.rule.id(), d.node, d.port, d.label, d.message);
                digest = fnv1a(digest, line.as_bytes());
            }
        }
        let dot = fnv1a(0xcbf2_9ce4_8422_2325, graph.to_dot().as_bytes());
        let errors: Vec<String> = errors.iter().map(|(rule, n)| format!("{rule}={n}")).collect();
        lines += &format!(
            "{name} mutants={} digest={digest:016x} dot={dot:016x} {}\n",
            mutants.len(),
            errors.join(" ")
        );
    }
    let pinned = include_str!("../../../.github/mutant_diagnostics.txt");
    assert!(lines == pinned, "the mutants' diagnostics moved; they now read:\n{lines}");
}
