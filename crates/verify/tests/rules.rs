//! Every verifier rule fires on a deliberately-broken fixture — exactly
//! once — and the whole `custard::graphs` catalog verifies clean.

use custard::graphs;
use sam_core::build::GraphBuilder;
use sam_core::graph::{NodeId, NodeKind, SamGraph, StreamKind};
use sam_tensor::{Tensor, TensorFormat};
use sam_verify::{verify, verify_bound, Bindings, Rule};

/// A minimal valid identity kernel built by hand so each fixture can
/// rewire it: `x(i) = b(i)` over a compressed vector.
///
/// Nodes: 0 root, 1 scanner, 2 array, 3 crd writer, 4 vals writer.
fn base_nodes() -> SamGraph {
    base_nodes_with(true, 'i')
}

fn base_nodes_with(compressed: bool, writer_index: char) -> SamGraph {
    let mut g = SamGraph::new("fixture");
    g.add_node(NodeKind::Root { tensor: "b".into() });
    g.add_node(NodeKind::LevelScanner { tensor: "b".into(), index: 'i', compressed });
    g.add_node(NodeKind::Array { tensor: "b".into() });
    g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: writer_index, vals: false });
    g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: true });
    g
}

/// `base_nodes` fully wired.
fn base() -> SamGraph {
    let mut g = base_nodes();
    wire_base(&mut g);
    g
}

fn wire_base(g: &mut SamGraph) {
    g.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    g.add_edge_on(NodeId(1), 0, NodeId(3), 0, StreamKind::Crd, "i crd");
    g.add_edge_on(NodeId(1), 1, NodeId(2), 0, StreamKind::Ref, "b refs");
    g.add_edge_on(NodeId(2), 0, NodeId(4), 0, StreamKind::Val, "b vals");
}

fn sparse_vec(name: &str, points: &[(u32, f64)]) -> Tensor {
    let coo =
        sam_tensor::CooTensor::from_entries(vec![16], points.iter().map(|&(i, v)| (vec![i], v)).collect())
            .unwrap();
    Tensor::from_coo(name, &coo, TensorFormat::sparse_vec())
}

fn fires_once(graph: &SamGraph, rule: Rule) {
    let report = verify(graph);
    assert_eq!(report.count(rule), 1, "expected `{}` exactly once:\n{}", rule.id(), report.render());
}

fn fires_once_bound(graph: &SamGraph, bindings: &Bindings<'_>, rule: Rule) {
    let report = verify_bound(graph, bindings);
    assert_eq!(report.count(rule), 1, "expected `{}` exactly once:\n{}", rule.id(), report.render());
}

#[test]
fn base_fixture_is_clean_structurally_and_bound() {
    let g = base();
    assert!(verify(&g).diagnostics.is_empty(), "{}", verify(&g).render());
    let b = sparse_vec("b", &[(1, 2.0), (5, 3.0)]);
    let bindings = Bindings::new().bind("b", &b);
    let report = verify_bound(&g, &bindings);
    assert!(report.diagnostics.is_empty(), "{}", report.render());
}

#[test]
fn not_yet_lowerable_fires_once() {
    let mut g = base();
    g.add_node(NodeKind::Parallelizer);
    fires_once(&g, Rule::NotYetLowerable);
}

/// A reducer of order 3 has a matrix reducer's ports, but no backend runs
/// it: each runs orders 0 to 2.
#[test]
fn a_reducer_above_order_two_is_not_yet_lowerable() {
    let mut g = base();
    g.add_node(NodeKind::Reducer { order: 3 });
    fires_once(&g, Rule::NotYetLowerable);
}

#[test]
fn port_kind_mismatch_fires_once() {
    // The crd edge claims a source port the scanner does not have.
    let mut g = base_nodes();
    g.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    g.add_edge_on(NodeId(1), 7, NodeId(3), 0, StreamKind::Crd, "i crd");
    g.add_edge_on(NodeId(1), 1, NodeId(2), 0, StreamKind::Ref, "b refs");
    g.add_edge_on(NodeId(2), 0, NodeId(4), 0, StreamKind::Val, "b vals");
    fires_once(&g, Rule::PortKindMismatch);
}

#[test]
fn duplicate_input_fires_once() {
    let mut g = base();
    g.add_edge_on(NodeId(0), 0, NodeId(2), 0, StreamKind::Ref, "second claim");
    fires_once(&g, Rule::DuplicateInput);
}

#[test]
fn dangling_input_fires_once() {
    // The vals writer never receives its value stream.
    let mut g = base_nodes();
    g.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    g.add_edge_on(NodeId(1), 0, NodeId(3), 0, StreamKind::Crd, "i crd");
    g.add_edge_on(NodeId(1), 1, NodeId(2), 0, StreamKind::Ref, "b refs");
    fires_once(&g, Rule::DanglingInput);
}

#[test]
fn data_cycle_fires_once() {
    // Two ALUs feed each other.
    let mut g = base();
    let a1 = g.add_node(NodeKind::Alu { op: "add".into() });
    let a2 = g.add_node(NodeKind::Alu { op: "mul".into() });
    g.add_edge_on(NodeId(2), 0, a1, 0, StreamKind::Val, "v1");
    g.add_edge_on(NodeId(2), 0, a2, 0, StreamKind::Val, "v2");
    g.add_edge_on(a1, 0, a2, 1, StreamKind::Val, "a1->a2");
    g.add_edge_on(a2, 0, a1, 1, StreamKind::Val, "a2->a1");
    fires_once(&g, Rule::DataCycle);
}

#[test]
fn illegal_skip_edge_fires_once() {
    let mut g = base();
    g.add_edge_on(NodeId(2), 3, NodeId(1), 1, StreamKind::Skip, "bogus lane");
    fires_once(&g, Rule::IllegalSkipEdge);
}

#[test]
fn tensor_mismatch_fires_once() {
    // The scanner claims to iterate `c` but is fed b's root references.
    let mut g = SamGraph::new("fixture");
    g.add_node(NodeKind::Root { tensor: "b".into() });
    g.add_node(NodeKind::LevelScanner { tensor: "c".into(), index: 'i', compressed: true });
    g.add_node(NodeKind::Array { tensor: "b".into() });
    g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false });
    g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: true });
    wire_base(&mut g);
    fires_once(&g, Rule::TensorMismatch);
}

#[test]
fn unknown_tensor_fires_once_per_name() {
    // Root, scanner and array all name `b`; one missing binding is one
    // defect, not three diagnostics.
    let g = base();
    fires_once_bound(&g, &Bindings::new(), Rule::UnknownTensor);
}

#[test]
fn level_out_of_range_fires_once() {
    // A second scanner descends below a vector's single storage level.
    let mut g = base_nodes();
    let s2 = g.add_node(NodeKind::LevelScanner { tensor: "b".into(), index: 'j', compressed: true });
    g.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    g.add_edge_on(NodeId(1), 0, NodeId(3), 0, StreamKind::Crd, "i crd");
    g.add_edge_on(NodeId(1), 1, s2, 0, StreamKind::Ref, "b refs");
    g.add_edge_on(s2, 1, NodeId(2), 0, StreamKind::Ref, "b deep refs");
    g.add_edge_on(NodeId(2), 0, NodeId(4), 0, StreamKind::Val, "b vals");
    let b = sparse_vec("b", &[(1, 2.0)]);
    let bindings = Bindings::new().bind("b", &b);
    let report = verify_bound(&g, &bindings);
    assert_eq!(report.count(Rule::LevelOutOfRange), 1, "{}", report.render());
    // The deeper ref stream is tainted, so no rank-mismatch cascades.
    assert_eq!(report.count(Rule::RankMismatch), 0, "{}", report.render());
}

#[test]
fn format_mismatch_fires_once() {
    let g = base(); // scanner annotated compressed
    let b = Tensor::from_dense_data("b", vec![4], &[1.0, 0.0, 2.0, 0.0], TensorFormat::dense_vec());
    fires_once_bound(&g, &Bindings::new().bind("b", &b), Rule::FormatMismatch);
}

#[test]
fn rank_mismatch_fires_once() {
    // A matrix bound to a vector kernel: the array reads values after one
    // of two levels.
    let mut g = base_nodes_with(false, 'i');
    wire_base(&mut g);
    let b = Tensor::from_dense_data("b", vec![2, 2], &[1.0, 2.0, 3.0, 4.0], TensorFormat::dense(2));
    fires_once_bound(&g, &Bindings::new().bind("b", &b), Rule::RankMismatch);
}

#[test]
fn dimension_mismatch_fires_once() {
    // `x(i) = b(i) * c(i)` over a 16-long `b` and an 8-long `c`: the second
    // scanner of `i` disagrees with the first, once.
    let graph = graphs::vec_elem_mul(true);
    let b = sparse_vec("b", &[(1, 2.0), (12, 3.0)]);
    let c = Tensor::from_coo(
        "c",
        &sam_tensor::CooTensor::from_entries(vec![8], vec![(vec![1], 5.0)]).unwrap(),
        TensorFormat::sparse_vec(),
    );
    fires_once_bound(&graph, &Bindings::new().bind("b", &b).bind("c", &c), Rule::DimensionMismatch);
    // Sizes are a binding-level fact: structurally the graph is clean.
    assert!(verify(&graph).diagnostics.is_empty());
}

#[test]
fn scalar_into_stream_fires_once() {
    // A two-element vector collapsed into a zero-index constant access.
    let mut g = base_nodes();
    let c = g.add_node(NodeKind::ConstVal { tensor: "s".into(), bits: 0 });
    g.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    g.add_edge_on(NodeId(1), 0, NodeId(3), 0, StreamKind::Crd, "i crd");
    g.add_edge_on(NodeId(1), 1, NodeId(2), 0, StreamKind::Ref, "b refs");
    g.add_edge_on(NodeId(2), 0, c, 0, StreamKind::Val, "shape");
    g.add_edge_on(c, 0, NodeId(4), 0, StreamKind::Val, "s vals");
    let b = sparse_vec("b", &[(1, 2.0)]);
    let s = sparse_vec("s", &[(0, 1.0), (3, 2.0)]);
    let bindings = Bindings::new().bind("b", &b).bind("s", &s);
    fires_once_bound(&g, &bindings, Rule::ScalarIntoStream);
}

#[test]
fn unknown_alu_op_fires_once() {
    let mut g = base_nodes();
    let alu = g.add_node(NodeKind::Alu { op: "div".into() });
    g.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    g.add_edge_on(NodeId(1), 0, NodeId(3), 0, StreamKind::Crd, "i crd");
    g.add_edge_on(NodeId(1), 1, NodeId(2), 0, StreamKind::Ref, "b refs");
    g.add_edge_on(NodeId(2), 0, alu, 0, StreamKind::Val, "lhs");
    g.add_edge_on(NodeId(2), 0, alu, 1, StreamKind::Val, "rhs");
    g.add_edge_on(alu, 0, NodeId(4), 0, StreamKind::Val, "vals");
    fires_once(&g, Rule::UnknownAluOp);
}

#[test]
fn missing_vals_writer_fires_once() {
    let mut g = SamGraph::new("fixture");
    g.add_node(NodeKind::Root { tensor: "b".into() });
    g.add_node(NodeKind::LevelScanner { tensor: "b".into(), index: 'i', compressed: true });
    g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false });
    g.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    g.add_edge_on(NodeId(1), 0, NodeId(2), 0, StreamKind::Crd, "i crd");
    fires_once(&g, Rule::MissingValsWriter);
}

#[test]
fn multiple_vals_writers_fires_once() {
    let mut g = base();
    let w2 = g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: true });
    g.add_edge_on(NodeId(2), 0, w2, 0, StreamKind::Val, "vals again");
    fires_once(&g, Rule::MultipleValsWriters);
}

#[test]
fn unknown_dimension_fires_once() {
    let mut g = base_nodes_with(true, 'z');
    wire_base(&mut g);
    fires_once(&g, Rule::UnknownDimension);
}

#[test]
fn dead_node_fires_once() {
    let mut g = base();
    g.add_node(NodeKind::Root { tensor: "c".into() });
    let report = verify(&g);
    assert_eq!(report.count(Rule::DeadNode), 1, "{}", report.render());
    assert!(!report.has_errors(), "lints are warnings:\n{}", report.render());
}

#[test]
fn unused_output_fires_once() {
    // An order-1 reducer whose coordinate output is used but whose value
    // output is discarded.
    let mut g = base();
    let red = g.add_node(NodeKind::Reducer { order: 1 });
    let w = g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false });
    g.add_edge_on(NodeId(1), 0, red, 0, StreamKind::Crd, "crd in");
    g.add_edge_on(NodeId(2), 0, red, 1, StreamKind::Val, "val in");
    g.add_edge_on(red, 0, w, 0, StreamKind::Crd, "crd out");
    let report = verify(&g);
    assert_eq!(report.count(Rule::UnusedOutput), 1, "{}", report.render());
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn fork_should_broadcast_fires_once() {
    let mut g = base();
    // The array's value port already feeds the vals writer; three more
    // consumers push the fan-out past the fork threshold.
    for n in 0..3 {
        let c = g.add_node(NodeKind::ConstVal { tensor: "".into(), bits: 0 });
        g.add_edge_on(NodeId(2), 0, c, 0, StreamKind::Val, format!("c{n}"));
    }
    let report = verify(&g);
    assert_eq!(report.count(Rule::ForkShouldBroadcast), 1, "{}", report.render());
    assert_eq!(report.count(Rule::DeadNode), 3, "the shape consumers are dead:\n{}", report.render());
}

#[test]
fn missing_skip_edge_fires_once() {
    // A compressed × dense intersection without skip lanes — exactly the
    // shape `custard::lower_exec` wires skip lanes onto.
    let mut g = GraphBuilder::new("x(i) = b(i) * c(i)");
    let rb = g.root("b");
    let rc = g.root("c");
    let (b_crd, b_ref) = g.scan("b", 'i', true, rb);
    let (c_crd, c_ref) = g.scan("c", 'i', false, rc);
    let (i_crd, i_refs) = g.intersect('i', [b_crd, c_crd], [b_ref, c_ref]);
    let bv = g.array("b", i_refs[0]);
    let cv = g.array("c", i_refs[1]);
    let prod = g.alu("mul", bv, cv);
    g.write_level("x", 'i', i_crd);
    g.write_vals("x", prod);
    let graph = g.finish();
    let report = verify(&graph);
    assert_eq!(report.count(Rule::MissingSkipEdge), 1, "{}", report.render());
    // The skip-wired twin of the same shape is clean.
    let skipped = graphs::vec_elem_mul_with_skip(true);
    assert_eq!(verify(&skipped).count(Rule::MissingSkipEdge), 0);
}

#[test]
fn foreign_level_writer_fires_once() {
    // A second level writer taps the scanner's coordinates into `y`, while
    // the values go to `x`.
    let mut g = base();
    let w = g.add_node(NodeKind::LevelWriter { tensor: "y".into(), index: 'i', vals: false });
    g.add_edge_on(NodeId(1), 0, w, 0, StreamKind::Crd, "crd to y");
    let report = verify(&g);
    assert_eq!(report.count(Rule::ForeignLevelWriter), 1, "{}", report.render());
    assert!(!report.has_errors(), "lints are warnings:\n{}", report.render());
    assert!(report.render().contains("`y`"), "{}", report.render());
}

#[test]
fn catalog_spmv_is_clean() {
    let report = verify(&graphs::spmv());
    assert!(report.diagnostics.is_empty(), "{}", report.render());
}

#[test]
fn catalog_sweep_is_error_free_and_warning_free_except_documented() {
    for (name, g) in graphs::catalog() {
        let report = verify(&g);
        assert!(!report.has_errors(), "{name} must verify error-free:\n{}", report.render());
        if name == "sddmm_coiteration" {
            // The deliberate non-skip twin of sddmm_with_skip: the lint
            // correctly reports both skewed-density intersections.
            assert_eq!(report.count(Rule::MissingSkipEdge), 2, "{name}:\n{}", report.render());
            assert_eq!(report.diagnostics.len(), 2, "{name}:\n{}", report.render());
        } else if name == "sddmm_locating" {
            // Each of B's two scanners feeds its coordinates to four
            // consumers (two repeaters, a locator, a writer): the 4-way
            // forks Figure 11's fused locating variant is drawn with.
            assert_eq!(report.count(Rule::ForkShouldBroadcast), 2, "{name}:\n{}", report.render());
            assert_eq!(report.diagnostics.len(), 2, "{name}:\n{}", report.render());
        } else {
            assert!(report.diagnostics.is_empty(), "{name} must be lint-clean:\n{}", report.render());
        }
    }
}
