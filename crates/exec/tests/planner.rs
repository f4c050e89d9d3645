//! Planning validation: channel allocation, fork insertion, scanner fusion,
//! and the `sam-verify` rule (with its node / port anchor) each class of
//! broken graph or binding is rejected under.

use custard::graphs;
use sam_core::build::{GraphBuilder, Port};
use sam_core::graph::{NodeKind, PortKind, SamGraph, StreamKind};
use sam_exec::{
    CycleBackend, ExecError, ExecRequest, Executor, FastBackend, Inputs, Plan, PlanError, TiledBackend,
};
use sam_tensor::{synth, TensorFormat};
use sam_verify::{Diagnostic, Rule};

fn vec_inputs(dim: usize) -> Inputs {
    let b = synth::random_vector(dim, dim / 4, 1);
    let c = synth::random_vector(dim, dim / 4, 2);
    Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec())
}

/// The first diagnostic of the rejection that planning `graph` over `inputs`
/// must end in, checked to fire under `rule`.
fn rejected(graph: &SamGraph, inputs: &Inputs, rule: Rule) -> Diagnostic {
    let PlanError::Rejected { diagnostics } =
        Plan::build(graph, inputs).err().unwrap_or_else(|| panic!("expected a `{rule}` rejection"));
    let first = diagnostics.into_iter().next().expect("a rejection carries its diagnostics");
    assert_eq!(first.rule, rule, "rejected under the wrong rule: {first}");
    first
}

#[test]
fn plan_reports_topological_order_and_forks() {
    let graph = graphs::spmv();
    let b = synth::random_matrix_sparsity(10, 8, 0.8, 3);
    let c = synth::random_vector(8, 8, 4);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
    let plan = Plan::build(&graph, &inputs).unwrap();
    assert_eq!(plan.order().len(), graph.len());
    // Every producer precedes its consumers.
    let position: Vec<usize> = {
        let mut pos = vec![0; graph.len()];
        for (i, id) in plan.order().iter().enumerate() {
            pos[id.0] = i;
        }
        pos
    };
    for e in graph.edges() {
        assert!(position[e.from.0] < position[e.to.0], "edge violates topological order");
    }
    // SpMV fans out Bi crd (repeater + writer) and Bj crd (repeater + locator).
    assert_eq!(plan.fork_count(), 2);
}

#[test]
fn planned_forks_materialize_as_cycle_backend_blocks() {
    let graph = graphs::spmv();
    let b = synth::random_matrix_sparsity(10, 8, 0.8, 3);
    let c = synth::random_vector(8, 8, 4);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
    let plan = Plan::build(&graph, &inputs).unwrap();
    let run = sam_exec::Executor::run(&CycleBackend, &plan, &inputs).unwrap();
    // Simulated blocks = primitive nodes (minus the preloaded roots, which
    // are channels, not blocks) plus one Fork block per fanned-out port.
    let roots = graph.nodes().iter().filter(|n| matches!(n, NodeKind::Root { .. })).count();
    assert_eq!(run.blocks, graph.len() - roots + plan.fork_count());
}

#[test]
fn plan_emits_full_channel_topology() {
    let graph = graphs::spmv();
    let b = synth::random_matrix_sparsity(10, 8, 0.8, 3);
    let c = synth::random_vector(8, 8, 4);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
    let plan = Plan::build(&graph, &inputs).unwrap();
    // One channel per edge (forks expanded to one channel per consumer)...
    assert_eq!(plan.channels().len(), graph.edges().len());
    // ...and together they cover every input port of every node exactly
    // once — except skip ports, which are optional and unwired here.
    let mut covered: Vec<Vec<bool>> =
        graph.nodes().iter().map(|k| vec![false; k.input_ports().len()]).collect();
    for spec in plan.channels() {
        assert!(spec.from.port < graph.nodes()[spec.from.node.0].output_ports().len());
        assert!(!covered[spec.to.0][spec.to_port], "input port driven twice");
        covered[spec.to.0][spec.to_port] = true;
    }
    for (i, ports) in covered.iter().enumerate() {
        for (p, &c) in ports.iter().enumerate() {
            let optional = graph.nodes()[i].input_ports()[p] == PortKind::Skip;
            assert!(c || optional, "input port {p} of node {i} has no channel");
        }
    }
}

#[test]
fn rank_mismatch_is_reported() {
    // A matrix bound into the vector kernel: the graph scans only level 0,
    // so its value array would silently read level-1 fiber references
    // instead of value positions.
    let graph = graphs::vec_elem_mul(true);
    let b = synth::random_matrix_sparsity(16, 8, 0.8, 5);
    let c = synth::random_vector(16, 4, 2);
    let inputs = Inputs::new().coo("b", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::sparse_vec());
    let d = rejected(&graph, &inputs, Rule::RankMismatch);
    assert_eq!(d.label.as_deref(), Some("array b vals"));
    assert!(d.message.contains("`b` after consuming 1 of its 2 storage levels"), "message was: {d}");
}

#[test]
fn array_fed_by_another_tensors_refs_is_reported() {
    // The value array declares `c` but receives b's traced reference
    // stream: a wiring bug that would read c's values at b's positions.
    let mut g = GraphBuilder::new("crossed");
    let rb = g.root("b");
    let (crd, rf) = g.scan("b", 'i', true, rb);
    let v = g.array("c", rf);
    g.write_level("x", 'i', crd);
    g.write_vals("x", v);
    let d = rejected(&g.finish(), &vec_inputs(16), Rule::TensorMismatch);
    assert!(d.message.contains("values of `c`") && d.message.contains("iterates `b`"), "message was: {d}");
}

/// Two ALUs feeding each other.
fn cyclic() -> SamGraph {
    let mut graph = SamGraph::new("cyclic");
    let a = graph.add_node(NodeKind::Alu { op: "add".into() });
    let b = graph.add_node(NodeKind::Alu { op: "sub".into() });
    graph.add_edge_on(a, 0, b, 0, StreamKind::Val, "a->b");
    graph.add_edge_on(b, 0, a, 0, StreamKind::Val, "b->a");
    // Close both remaining ALU inputs so cycle detection is what trips.
    graph.add_edge_on(a, 0, b, 1, StreamKind::Val, "a->b2");
    graph.add_edge_on(b, 0, a, 1, StreamKind::Val, "b->a2");
    graph
}

#[test]
fn cycle_detection() {
    let d = rejected(&cyclic(), &Inputs::new(), Rule::DataCycle);
    // Both stuck nodes are named, and nothing else.
    assert!(d.message.ends_with("through: alu add, alu sub"), "message was: {d}");
}

#[test]
fn unbound_input_is_reported() {
    let mut g = GraphBuilder::new("incomplete");
    let rb = g.root("b");
    let (crd, _rf) = g.scan("b", 'i', true, rb);
    // An ALU with only one of its two value inputs connected.
    let lone = g.array("b", _rf);
    let alu = g.graph().len();
    let _ = alu;
    let mut graph = g.finish();
    let alu_node = graph.add_node(NodeKind::Alu { op: "mul".into() });
    graph.add_edge_on(lone.node, lone.port, alu_node, 0, StreamKind::Val, "only input");
    let wv = graph.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'v', vals: true });
    graph.add_edge_on(alu_node, 0, wv, 0, StreamKind::Val, "vals");
    let wl = graph.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false });
    graph.add_edge_on(crd.node, crd.port, wl, 0, StreamKind::Crd, "crd");
    let inputs = vec_inputs(16);
    let d = rejected(&graph, &inputs, Rule::DanglingInput);
    assert_eq!((d.node, d.port), (Some(alu_node.0), Some(1)));
    assert!(d.label.is_some_and(|label| label.contains("alu")));
}

#[test]
fn unknown_tensor_is_reported() {
    let graph = graphs::vec_elem_mul(true);
    let b = synth::random_vector(16, 4, 1);
    let inputs = Inputs::new().coo("b", &b, TensorFormat::sparse_vec());
    let d = rejected(&graph, &inputs, Rule::UnknownTensor);
    assert!(d.message.contains("tensor `c`"), "message was: {d}");
}

#[test]
fn format_mismatch_is_reported() {
    // The graph expects compressed vectors but `b` is bound dense.
    let graph = graphs::vec_elem_mul(true);
    let b = synth::random_vector(16, 16, 1);
    let c = synth::random_vector(16, 4, 2);
    let inputs =
        Inputs::new().coo("b", &b, TensorFormat::dense_vec()).coo("c", &c, TensorFormat::sparse_vec());
    let d = rejected(&graph, &inputs, Rule::FormatMismatch);
    assert!(d.message.contains("level 0 of the bound `b`"), "message was: {d}");
}

#[test]
fn missing_vals_writer_is_reported() {
    let mut g = GraphBuilder::new("no vals");
    let rb = g.root("b");
    let (crd, _rf) = g.scan("b", 'i', true, rb);
    g.write_level("x", 'i', crd);
    rejected(&g.finish(), &vec_inputs(16), Rule::MissingValsWriter);
}

#[test]
fn unsupported_node_is_reported_with_node_and_kind() {
    let mut graph = SamGraph::new("unsupported");
    graph.add_node(NodeKind::Root { tensor: "b".into() });
    graph.add_node(NodeKind::Serializer);
    let d = rejected(&graph, &Inputs::new(), Rule::NotYetLowerable);
    assert_eq!(d.node, Some(1), "must name the offending node, not just the kind");
    assert!(d.message.contains("`Serializer`"), "message was: {d}");
    let msg = Plan::build(&graph, &Inputs::new()).unwrap_err().to_string();
    assert!(msg.contains("node 1") && msg.contains("Serializer"), "unhelpful message: {msg}");
}

#[test]
fn skip_lanes_are_planned_for_skip_graphs() {
    let graph = graphs::vec_elem_mul_with_skip(true);
    let inputs = vec_inputs(64);
    let plan = Plan::build(&graph, &inputs).unwrap();
    assert_eq!(plan.skip_specs().len(), 2);
    for spec in plan.skip_specs() {
        let fused = plan.fused_scan(spec.scanner).expect("a skip target is fused");
        assert!(fused.skip_lane);
        assert_eq!((fused.intersecter, fused.operand), (spec.intersecter, spec.operand));
        assert_eq!(plan.fused_operands(spec.intersecter)[spec.operand], Some(fused));
    }
    // The skip lanes ride in the channel topology (one channel per edge,
    // feedback included).
    assert_eq!(plan.channels().len(), graph.edges().len());
}

/// `x(i) = b(i) <merge> c(i)` with the scanners and the merge exposed, so
/// each fusion case can rewire one thing. Returns the graph builder, the
/// two scanners' `(crd, ref)` ports and nothing else wired.
fn two_scanners() -> (GraphBuilder, [(Port, Port); 2]) {
    let mut g = GraphBuilder::new("fusion case");
    let rb = g.root("b");
    let rc = g.root("c");
    let b = g.scan("b", 'i', true, rb);
    let c = g.scan("c", 'i', true, rc);
    (g, [b, c])
}

/// Finishes a fusion case: value arrays, a multiply and the writers behind
/// the merge's outputs.
fn finish_merge(mut g: GraphBuilder, crd: Port, refs: [Port; 2]) -> SamGraph {
    let bv = g.array("b", refs[0]);
    let cv = g.array("c", refs[1]);
    let prod = g.alu("mul", bv, cv);
    g.write_level("x", 'i', crd);
    g.write_vals("x", prod);
    g.finish()
}

#[test]
fn scanners_feeding_one_intersecter_operand_are_fused_without_a_skip_lane() {
    let (mut g, [b, c]) = two_scanners();
    let (crd, refs) = g.intersect('i', [b.0, c.0], [b.1, c.1]);
    let plan = Plan::build(&finish_merge(g, crd, refs), &vec_inputs(64)).unwrap();
    let lanes = plan.fused_operands(crd.node);
    for (operand, scanner) in [b.0.node, c.0.node].into_iter().enumerate() {
        let fused = plan.fused_scan(scanner).expect("both operands are fusable");
        assert_eq!((fused.scanner, fused.intersecter, fused.operand), (scanner, crd.node, operand));
        assert!(!fused.skip_lane, "the graph wires no lane to this scanner");
        assert_eq!(lanes[operand], Some(fused));
    }
    assert!(plan.skip_specs().is_empty());
    // Only scanners are ever fused, and only intersecters have fused operands.
    assert_eq!(plan.order().iter().filter(|&&id| plan.fused_scan(id).is_some()).count(), 2);
    assert_eq!(plan.fused_operands(b.0.node), [None, None]);
}

#[test]
fn a_forked_coordinate_port_is_not_fused() {
    // A second writer taps b's coordinates: the stream has two readers and
    // must be stored. c's scanner is untouched and still fuses.
    let (mut g, [b, c]) = two_scanners();
    let (crd, refs) = g.intersect('i', [b.0, c.0], [b.1, c.1]);
    g.write_level("y", 'i', b.0);
    let graph = finish_merge(g, crd, refs);
    let inputs = vec_inputs(64);
    let plan = Plan::build(&graph, &inputs).unwrap();
    assert_eq!(plan.fused_scan(b.0.node), None);
    let fused_c = plan.fused_scan(c.0.node).expect("c still feeds only the intersecter");
    assert_eq!(plan.fused_operands(crd.node), [None, Some(fused_c)]);
    // One stored operand beside one fused operand computes the same thing.
    let mixed = ExecRequest::new(&graph, &inputs).run().unwrap();
    let cycle = ExecRequest::new(&graph, &inputs).executor(&CycleBackend).run().unwrap();
    assert_eq!(mixed.output, cycle.output);
    assert_eq!(mixed.vals, cycle.vals);
}

/// The three backends every merger graph below must agree on.
fn backends() -> [(&'static str, Box<dyn Executor>); 3] {
    [
        ("fast-serial", Box::new(FastBackend::new())),
        ("cycle", Box::new(CycleBackend)),
        ("tiled", Box::new(TiledBackend::with_tile(16))),
    ]
}

/// `graph`'s output vector on `backend`: each stored coordinate with its
/// value, in stored order, explicit zeros included.
fn entries(graph: &SamGraph, inputs: &Inputs, backend: &dyn Executor) -> Vec<(u32, f64)> {
    let run = ExecRequest::new(graph, inputs).executor(backend).run().unwrap();
    let output = run.output.expect("a tensor output");
    output.level(0).fiber(0).iter().map(|e| e.coord).zip(output.vals().iter().copied()).collect()
}

#[test]
fn a_forked_reference_port_feeds_both_mergers_on_every_backend() {
    // A second array reads b's references, so the planner forks the port:
    // the merger's reference input then trails its coordinate input by a
    // cycle on the cycle backend, which must wait for it.
    let inputs = vec_inputs(64);
    for union in [false, true] {
        let graph = |forked: bool| {
            let (mut g, [b, c]) = two_scanners();
            let merged = if union {
                g.union('i', [b.0, c.0], [b.1, c.1])
            } else {
                g.intersect('i', [b.0, c.0], [b.1, c.1])
            };
            if forked {
                g.array("b", b.1);
            }
            finish_merge(g, merged.0, merged.1)
        };
        let (forked, plain) = (graph(true), graph(false));
        let want = entries(&plain, &inputs, &FastBackend::new());
        assert!(want.len() >= 5, "union {union}: the vectors overlap");
        for (name, backend) in backends() {
            assert_eq!(entries(&plain, &inputs, &*backend), want, "union {union}, {name}: unforked");
            assert_eq!(entries(&forked, &inputs, &*backend), want, "union {union}, {name}: forked");
        }
    }
}

#[test]
fn an_empty_coordinate_on_either_merger_operand_is_skipped_on_every_backend() {
    // x(i) = c(i) * d(i) over b's coordinates located into c, merged with
    // d's: a locator miss puts an empty token on the merger's coordinate
    // input, which must be skipped on its own side, whichever side it is.
    let dim = 64;
    let [b, c, d] = [1, 2, 3].map(|seed| synth::random_vector(dim, 32, seed));
    let inputs = Inputs::new()
        .coo("b", &b, TensorFormat::sparse_vec())
        .coo("c", &c, TensorFormat::sparse_vec())
        .coo("d", &d, TensorFormat::sparse_vec());
    let dense = [&c, &d].map(|v| v.to_dense());
    let support = |v: &sam_tensor::CooTensor| {
        let mut s = vec![false; dim];
        v.entries().iter().for_each(|(p, _)| s[p[0] as usize] = true);
        s
    };
    let [in_b, in_c, in_d] = [&b, &c, &d].map(support);
    for union in [false, true] {
        // The dense reference: the merged coordinates, each with its
        // product (an absent operand reads as zero).
        let want: Vec<(u32, f64)> = (0..dim)
            .filter(|&i| if union { (in_b[i] && in_c[i]) || in_d[i] } else { in_b[i] && in_c[i] && in_d[i] })
            .map(|i| (i as u32, if in_b[i] { dense[0][i] } else { 0.0 } * dense[1][i]))
            .collect();
        assert!(want.len() >= 5, "union {union}: the vectors overlap");
        for located_first in [true, false] {
            let mut g = GraphBuilder::new("x(i) = c(i) * d(i), i in b");
            let rb = g.root("b");
            let (b_crd, _) = g.scan("b", 'i', true, rb);
            let rc = g.root("c");
            let c_per_i = g.repeat("c", 'i', b_crd, rc);
            let (c_crd, _, c_ref) = g.locate("c", 'i', b_crd, c_per_i);
            let rd = g.root("d");
            let (d_crd, d_ref) = g.scan("d", 'i', true, rd);
            let (mut crds, mut refs) = ([c_crd, d_crd], [c_ref, d_ref]);
            if !located_first {
                crds.reverse();
                refs.reverse();
            }
            let (crd, out_refs) = if union { g.union('i', crds, refs) } else { g.intersect('i', crds, refs) };
            let [cv, dv] = if located_first { out_refs } else { [out_refs[1], out_refs[0]] };
            let cv = g.array("c", cv);
            let dv = g.array("d", dv);
            let prod = g.alu("mul", cv, dv);
            g.write_level("x", 'i', crd);
            g.write_vals("x", prod);
            let graph = g.finish();
            for (name, backend) in backends() {
                let what = format!("union {union}, located first {located_first}, {name}");
                assert_eq!(entries(&graph, &inputs, &*backend), want, "{what}");
            }
        }
    }
}

#[test]
fn coordinates_and_references_from_different_scanners_are_not_fused() {
    // Operand 0 takes its coordinates from one scan of b and its references
    // from a second one: neither scanner feeds the operand alone. Their
    // other ports dangle, which the walk drops as soon as they are counted.
    let (mut g, [b, c]) = two_scanners();
    let rb2 = g.root("b");
    let b2 = g.scan("b", 'i', true, rb2);
    let (crd, refs) = g.intersect('i', [b.0, c.0], [b2.1, c.1]);
    let graph = finish_merge(g, crd, refs);
    let inputs = vec_inputs(64);
    let plan = Plan::build(&graph, &inputs).unwrap();
    assert_eq!(plan.fused_scan(b.0.node), None);
    assert_eq!(plan.fused_scan(b2.0.node), None);
    assert!(plan.fused_operands(crd.node)[0].is_none() && plan.fused_operands(crd.node)[1].is_some());
    let split = ExecRequest::new(&graph, &inputs).run().unwrap();
    let whole = ExecRequest::new(&graphs::vec_elem_mul(true), &inputs).run().unwrap();
    assert_eq!(split.output, whole.output);
}

#[test]
fn a_unioner_is_not_fused() {
    let (mut g, [b, c]) = two_scanners();
    let (crd, refs) = g.union('i', [b.0, c.0], [b.1, c.1]);
    let plan = Plan::build(&finish_merge(g, crd, refs), &vec_inputs(64)).unwrap();
    assert_eq!(plan.fused_scan(b.0.node), None);
    assert_eq!(plan.fused_scan(c.0.node), None);
    assert_eq!(plan.fused_operands(crd.node), [None, None]);
}

#[test]
fn skip_edge_to_the_wrong_scanner_is_rejected() {
    // Wire the intersecter's skip lane for operand 0 back to operand 1's
    // scanner: the planner must refuse the crossed feedback.
    let mut g = GraphBuilder::new("crossed skip");
    let rb = g.root("b");
    let rc = g.root("c");
    let (b_crd, b_ref) = g.scan("b", 'i', true, rb);
    let (c_crd, c_ref) = g.scan("c", 'i', true, rc);
    let (i_crd, i_refs) = g.intersect('i', [b_crd, c_crd], [b_ref, c_ref]);
    let bv = g.array("b", i_refs[0]);
    let cv = g.array("c", i_refs[1]);
    let prod = g.alu("mul", bv, cv);
    g.write_level("x", 'i', i_crd);
    g.write_vals("x", prod);
    let mut graph = g.finish();
    graph.add_edge_on(i_crd.node, 3, c_crd.node, 1, StreamKind::Skip, "crossed");
    let d = rejected(&graph, &vec_inputs(16), Rule::IllegalSkipEdge);
    assert_eq!(d.node, Some(i_crd.node.0));
    assert!(d.message.contains("skip edge `crossed`") && d.message.contains("scanner feeding"), "{d}");
}

#[test]
fn skip_edge_from_a_non_intersecter_is_rejected() {
    let mut g = GraphBuilder::new("skip from repeat");
    let rb = g.root("b");
    let (crd, rf) = g.scan("b", 'i', true, rb);
    let v = g.array("b", rf);
    g.write_level("x", 'i', crd);
    g.write_vals("x", v);
    let mut graph = g.finish();
    // Root -> scanner skip port: roots are not intersecters.
    graph.add_edge_on(sam_core::graph::NodeId(0), 0, crd.node, 1, StreamKind::Skip, "bogus");
    let d = rejected(&graph, &vec_inputs(16), Rule::IllegalSkipEdge);
    assert!(d.message.contains("source must be an intersecter"), "message was: {d}");
}

#[test]
fn skip_target_with_extra_consumers_is_rejected() {
    // vec_elem_mul with skip, plus an extra writer tapping b's coordinate
    // stream: the scanner no longer feeds only the intersecter, so fusion
    // (and therefore the skip lane) is invalid.
    let mut g = GraphBuilder::new("tapped skip target");
    let rb = g.root("b");
    let rc = g.root("c");
    let (b_crd, b_ref) = g.scan("b", 'i', true, rb);
    let (c_crd, c_ref) = g.scan("c", 'i', true, rc);
    let (i_crd, i_refs) = g.intersect_with_skip('i', [b_crd, c_crd], [b_ref, c_ref]);
    let bv = g.array("b", i_refs[0]);
    let cv = g.array("c", i_refs[1]);
    let prod = g.alu("mul", bv, cv);
    g.write_level("x", 'i', i_crd);
    g.write_level("y", 'i', b_crd);
    g.write_vals("x", prod);
    let d = rejected(&g.finish(), &vec_inputs(16), Rule::IllegalSkipEdge);
    assert!(d.message.contains("only the intersecter"), "message was: {d}");
}

#[test]
fn execute_convenience_runs_both_backends() {
    let graph = graphs::vec_elem_mul(true);
    let inputs = vec_inputs(64);
    let cycle = ExecRequest::new(&graph, &inputs).executor(&CycleBackend).run().unwrap();
    let fast = ExecRequest::new(&graph, &inputs).executor(&FastBackend::new()).run().unwrap();
    assert_eq!(cycle.output.unwrap(), fast.output.unwrap());
    assert_eq!(cycle.backend, "cycle");
    assert_eq!(fast.backend, "fast-serial");
}

#[test]
fn errors_format_usefully() {
    // A count header, then every diagnostic rustc-style: rule id, the
    // graph's own names, and the node it is anchored to.
    let b = synth::random_vector(16, 4, 1);
    let lone = Inputs::new().coo("b", &b, TensorFormat::sparse_vec());
    let msg = Plan::build(&graphs::vec_elem_mul(true), &lone).unwrap_err().to_string();
    assert!(msg.starts_with("graph failed static verification (1 error(s))\n"), "{msg}");
    assert!(
        msg.contains("error[unknown-tensor]") && msg.contains("`c`") && msg.contains("--> node"),
        "{msg}"
    );
    // The cyclic graph also lacks a values writer: both findings print.
    let err = Plan::build(&cyclic(), &Inputs::new()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("alu add, alu sub") && msg.contains("error[missing-vals-writer]"), "{msg}");
    assert!(sam_exec::ExecError::from(err).to_string().contains("planning failed"));
}

#[test]
fn a_plan_rejects_inputs_it_was_not_built_over_on_every_backend() {
    let spmv = graphs::spmv();
    let b = synth::random_matrix_sparsity(30, 20, 0.9, 5);
    let c = |dim| Inputs::new().coo("c", &synth::random_vector(dim, dim, 6), TensorFormat::dense_vec());
    let spmv_inputs = |dim| c(dim).coo("B", &b, TensorFormat::dcsr());

    // x(i) = alpha * b(i): the planner bakes alpha's value into the plan.
    let mut g = GraphBuilder::new("x(i) = alpha * b(i)");
    let root = g.root("b");
    let (crd, rf) = g.scan("b", 'i', true, root);
    let v = g.array("b", rf);
    let alpha = g.scalar_source("alpha", v);
    let scaled = g.alu("mul", alpha, v);
    g.write_level("x", 'i', crd);
    g.write_vals("x", scaled);
    let scale = g.finish();
    let scaled_by = |alpha| vec_inputs(32).scalar("alpha", alpha);

    let cases = [
        ("a missing binding", &spmv, spmv_inputs(20), c(20), "B"),
        ("another dimension", &spmv, spmv_inputs(20), spmv_inputs(5), "c"),
        ("an added binding", &spmv, spmv_inputs(20), spmv_inputs(20).scalar("a", 1.0), "a"),
        ("another scalar value", &scale, scaled_by(2.0), scaled_by(3.0), "alpha"),
    ];
    for (case, graph, planned, other, tensor) in cases {
        let plan = std::sync::Arc::new(Plan::build(graph, &planned).unwrap());
        for (name, backend) in backends() {
            assert!(backend.run(&plan, &planned).is_ok(), "{case}, {name}: the planned inputs run");
            let err = backend.run(&plan, &other).expect_err(case);
            assert_eq!(err, ExecError::Unplanned { tensor: tensor.to_string() }, "{case}, {name}");
            let request = ExecRequest::new(graph, &other).planned(plan.clone()).executor(&*backend);
            assert_eq!(request.run().err(), Some(err), "{case}, {name}: through the door");
        }
    }
}
