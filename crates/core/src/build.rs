//! Ergonomic construction of *executable* SAM graphs.
//!
//! [`GraphBuilder`] wraps [`SamGraph`] with one method per primitive; each
//! method adds the node, wires its inputs with explicit port annotations
//! (see [`crate::graph::Edge`]) and returns typed [`Port`] handles for its
//! outputs. Graphs built this way carry everything `sam-exec` needs to plan
//! and run them on either backend — no hand wiring of simulator channels.
//!
//! ```
//! use sam_core::build::GraphBuilder;
//!
//! // x(i) = b(i) * c(i) over two compressed vectors.
//! let mut g = GraphBuilder::new("x(i) = b(i) * c(i)");
//! let rb = g.root("b");
//! let rc = g.root("c");
//! let (b_crd, b_ref) = g.scan("b", 'i', true, rb);
//! let (c_crd, c_ref) = g.scan("c", 'i', true, rc);
//! let (i_crd, i_refs) = g.intersect('i', [b_crd, c_crd], [b_ref, c_ref]);
//! let bv = g.array("b", i_refs[0]);
//! let cv = g.array("c", i_refs[1]);
//! let prod = g.alu("mul", bv, cv);
//! g.write_level("x", 'i', i_crd);
//! g.write_vals("x", prod);
//! let graph = g.finish();
//! assert_eq!(graph.primitive_counts().intersect, 1);
//! ```

use crate::graph::{Name, NodeId, NodeKind, SamGraph, StreamKind};

/// A producer endpoint: one output port of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// The producing node.
    pub node: NodeId,
    /// The output-port index on the producer.
    pub port: usize,
    /// The stream kind carried.
    pub kind: StreamKind,
}

/// Builds executable SAM graphs primitive by primitive.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    graph: SamGraph,
    /// Every tensor name and ALU operation the nodes hold, allocated once
    /// and shared by each node that names it.
    names: Vec<Name>,
}

impl GraphBuilder {
    /// Starts an empty graph named after the expression it computes.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder::with_capacity(name, 0, 0)
    }

    /// [`GraphBuilder::new`] with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(name: impl Into<String>, nodes: usize, edges: usize) -> Self {
        GraphBuilder { graph: SamGraph::with_capacity(name, nodes, edges), names: Vec::new() }
    }

    /// `name`, shared with every node already holding it.
    fn name(&mut self, name: &str) -> Name {
        if let Some(held) = self.names.iter().find(|held| **held == name) {
            return held.clone();
        }
        let held = Name::from(name);
        self.names.push(held.clone());
        held
    }

    /// Wires `from` into input port `dst_port` of `to`; the edge is named
    /// after that port when printed ([`EdgeLabel::Port`]).
    ///
    /// [`EdgeLabel::Port`]: crate::graph::EdgeLabel::Port
    fn connect(&mut self, from: Port, to: NodeId, dst_port: usize) {
        self.graph.add_edge(from.node, from.port, to, dst_port, from.kind);
    }

    /// Adds the root reference source of a tensor path.
    pub fn root(&mut self, tensor: &str) -> Port {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::Root { tensor });
        Port { node, port: 0, kind: StreamKind::Ref }
    }

    /// Adds a level scanner; returns its `(crd, ref)` outputs.
    pub fn scan(&mut self, tensor: &str, index: char, compressed: bool, in_ref: Port) -> (Port, Port) {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::LevelScanner { tensor, index, compressed });
        self.connect(in_ref, node, 0);
        (Port { node, port: 0, kind: StreamKind::Crd }, Port { node, port: 1, kind: StreamKind::Ref })
    }

    /// Adds a repeater broadcasting `in_ref` over the fibers of `in_crd`.
    pub fn repeat(&mut self, tensor: &str, index: char, in_crd: Port, in_ref: Port) -> Port {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::Repeater { tensor, index });
        self.connect(in_crd, node, 0);
        self.connect(in_ref, node, 1);
        Port { node, port: 0, kind: StreamKind::Ref }
    }

    /// The tensor a merge operand's coordinate stream originates from, for
    /// labeling: the producing scanner/repeater/locator names its tensor;
    /// anything else (e.g. another merge's output) is opaque.
    fn operand_tensor(&self, p: Port) -> &str {
        match &self.graph.nodes()[p.node.0] {
            NodeKind::LevelScanner { tensor, .. }
            | NodeKind::Repeater { tensor, .. }
            | NodeKind::Locator { tensor, .. } => tensor,
            _ => "?",
        }
    }

    fn merge(
        &mut self,
        kind: NodeKind,
        index: char,
        in_crd: [Port; 2],
        in_ref: [Port; 2],
    ) -> (Port, [Port; 2]) {
        let op = match kind {
            NodeKind::Unioner { .. } => "union",
            _ => "intersect",
        };
        let label =
            format!("{op}({index}: {},{})", self.operand_tensor(in_crd[0]), self.operand_tensor(in_crd[1]));
        let node = self.graph.add_node(kind);
        self.graph.set_label(node, label);
        for (port, input) in [in_crd[0], in_crd[1], in_ref[0], in_ref[1]].into_iter().enumerate() {
            self.connect(input, node, port);
        }
        (
            Port { node, port: 0, kind: StreamKind::Crd },
            [Port { node, port: 1, kind: StreamKind::Ref }, Port { node, port: 2, kind: StreamKind::Ref }],
        )
    }

    /// Adds a binary intersecter; returns `(crd, [ref_a, ref_b])`.
    pub fn intersect(&mut self, index: char, in_crd: [Port; 2], in_ref: [Port; 2]) -> (Port, [Port; 2]) {
        self.merge(NodeKind::Intersecter { index }, index, in_crd, in_ref)
    }

    /// Adds a binary unioner; returns `(crd, [ref_a, ref_b])`.
    pub fn union(&mut self, index: char, in_crd: [Port; 2], in_ref: [Port; 2]) -> (Port, [Port; 2]) {
        self.merge(NodeKind::Unioner { index }, index, in_crd, in_ref)
    }

    /// Adds a binary intersecter with coordinate-skip feedback edges
    /// (Section 4.2) wired back to both operands' level scanners
    /// ([`wire_skip_lanes`]); returns `(crd, [ref_a, ref_b])` like
    /// [`GraphBuilder::intersect`].
    ///
    /// On a coordinate mismatch the intersecter sends the larger coordinate
    /// back along the skip edge, and the trailing operand's scanner gallops
    /// past every smaller coordinate it has not yet emitted — the paper's
    /// optimization for skewed intersections (one dense operand, one
    /// hypersparse).
    ///
    /// # Panics
    ///
    /// Panics unless both `in_crd` ports are the coordinate outputs of level
    /// scanners.
    pub fn intersect_with_skip(
        &mut self,
        index: char,
        in_crd: [Port; 2],
        in_ref: [Port; 2],
    ) -> (Port, [Port; 2]) {
        let (crd, refs) = self.intersect(index, in_crd, in_ref);
        wire_skip_lanes(&mut self.graph, crd.node, index);
        (crd, refs)
    }

    /// Adds a locator; returns `(crd, pass ref, located ref)`.
    pub fn locate(&mut self, tensor: &str, index: char, in_crd: Port, in_ref: Port) -> (Port, Port, Port) {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::Locator { tensor, index });
        self.connect(in_crd, node, 0);
        self.connect(in_ref, node, 1);
        (
            Port { node, port: 0, kind: StreamKind::Crd },
            Port { node, port: 1, kind: StreamKind::Ref },
            Port { node, port: 2, kind: StreamKind::Ref },
        )
    }

    /// Adds a value-load array over the named tensor's values.
    pub fn array(&mut self, tensor: &str, in_ref: Port) -> Port {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::Array { tensor });
        self.connect(in_ref, node, 0);
        Port { node, port: 0, kind: StreamKind::Val }
    }

    /// Adds a constant-value source over a compile-time literal: for every
    /// data token of `shape` (normally the value stream of the operand the
    /// constant combines with) it emits `value`, mirroring control tokens.
    pub fn literal(&mut self, value: f64, shape: Port) -> Port {
        let node = self.graph.add_node(NodeKind::literal(value));
        self.connect(shape, node, 0);
        Port { node, port: 0, kind: StreamKind::Val }
    }

    /// Adds a constant-value source over a bound single-value tensor (a
    /// zero-index access such as `alpha` in MatTransMul); the scalar is
    /// resolved from the binding at planning time.
    pub fn scalar_source(&mut self, tensor: &str, shape: Port) -> Port {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::scalar(tensor));
        self.connect(shape, node, 0);
        Port { node, port: 0, kind: StreamKind::Val }
    }

    /// Adds an ALU applying `op` ("add", "sub" or "mul").
    pub fn alu(&mut self, op: &str, a: Port, b: Port) -> Port {
        let op = self.name(op);
        let node = self.graph.add_node(NodeKind::Alu { op });
        self.connect(a, node, 0);
        self.connect(b, node, 1);
        Port { node, port: 0, kind: StreamKind::Val }
    }

    /// Adds a scalar (order-0) reducer.
    pub fn reduce_scalar(&mut self, in_val: Port) -> Port {
        let node = self.graph.add_node(NodeKind::Reducer { order: 0 });
        self.connect(in_val, node, 0);
        Port { node, port: 0, kind: StreamKind::Val }
    }

    /// Adds a vector (order-1) reducer; returns `(crd, val)`.
    pub fn reduce_vector(&mut self, in_crd: Port, in_val: Port) -> (Port, Port) {
        let node = self.graph.add_node(NodeKind::Reducer { order: 1 });
        self.connect(in_crd, node, 0);
        self.connect(in_val, node, 1);
        (Port { node, port: 0, kind: StreamKind::Crd }, Port { node, port: 1, kind: StreamKind::Val })
    }

    /// Adds a matrix (order-2) reducer; returns `([outer crd, inner crd], val)`.
    pub fn reduce_matrix(&mut self, in_crd: [Port; 2], in_val: Port) -> ([Port; 2], Port) {
        let node = self.graph.add_node(NodeKind::Reducer { order: 2 });
        self.connect(in_crd[0], node, 0);
        self.connect(in_crd[1], node, 1);
        self.connect(in_val, node, 2);
        (
            [Port { node, port: 0, kind: StreamKind::Crd }, Port { node, port: 1, kind: StreamKind::Crd }],
            Port { node, port: 2, kind: StreamKind::Val },
        )
    }

    /// Adds a coordinate dropper; returns `(outer crd, inner)`.
    pub fn crd_drop(&mut self, index: char, outer: Port, inner: Port) -> (Port, Port) {
        let node = self.graph.add_node(NodeKind::CoordDropper { index });
        self.connect(outer, node, 0);
        self.connect(inner, node, 1);
        (Port { node, port: 0, kind: StreamKind::Crd }, Port { node, port: 1, kind: inner.kind })
    }

    /// Adds a compressed level writer for one output dimension.
    pub fn write_level(&mut self, tensor: &str, index: char, in_crd: Port) -> NodeId {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::LevelWriter { tensor, index, vals: false });
        self.connect(in_crd, node, 0);
        node
    }

    /// Adds the values writer of the output tensor.
    pub fn write_vals(&mut self, tensor: &str, in_val: Port) -> NodeId {
        let tensor = self.name(tensor);
        let node = self.graph.add_node(NodeKind::LevelWriter { tensor, index: 'v', vals: true });
        self.connect(in_val, node, 0);
        node
    }

    /// A read-only view of the graph under construction.
    pub fn graph(&self) -> &SamGraph {
        &self.graph
    }

    /// Finishes and returns the graph.
    pub fn finish(self) -> SamGraph {
        self.graph
    }
}

/// Wires the Section 4.2 coordinate-skip feedback lanes of `intersecter`,
/// which merges index variable `index`: its skip outputs (ports 3 and 4)
/// feed back into the skip input (port 1) of the level scanners whose
/// coordinates it merges, against the dataflow direction.
/// [`GraphBuilder::intersect_with_skip`] and the skip twins of a finished
/// graph both wire their lanes here.
///
/// # Panics
///
/// Panics unless both coordinate operands of `intersecter` are level
/// scanners' coordinate outputs: only a scanner can fast-forward its fiber
/// cursor.
pub fn wire_skip_lanes(graph: &mut SamGraph, intersecter: NodeId, index: char) {
    for operand in 0..2 {
        let feed = graph.edges().iter().find(|e| e.to == intersecter && e.dst_port == operand);
        let scanner = feed
            .filter(|e| e.src_port == 0 && matches!(graph.nodes()[e.from.0], NodeKind::LevelScanner { .. }))
            .map(|e| e.from);
        assert!(
            scanner.is_some(),
            "skip operand {operand} of intersect {index} must be a level scanner's crd output"
        );
        if let Some(scanner) = scanner {
            graph.add_edge(intersecter, 3 + operand, scanner, 1, StreamKind::Skip);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_explicit_ports() {
        let mut g = GraphBuilder::new("t");
        let r = g.root("b");
        let (crd, rf) = g.scan("b", 'i', true, r);
        let v = g.array("b", rf);
        g.write_level("x", 'i', crd);
        g.write_vals("x", v);
        let graph = g.finish();
        assert_eq!(graph.len(), 5);
        // The scanner's ref output (port 1) feeds the array's input port 0.
        let e = graph.edges().iter().find(|e| e.kind == StreamKind::Ref && e.src_port == 1).unwrap();
        assert_eq!(e.dst_port, 0);
    }

    #[test]
    fn merges_carry_operand_tensor_labels() {
        let mut g = GraphBuilder::new("t");
        let rb = g.root("B");
        let rc = g.root("C");
        let (bc, br) = g.scan("B", 'j', true, rb);
        let (cc, cr) = g.scan("C", 'j', true, rc);
        let (crd, _refs) = g.intersect('j', [bc, cc], [br, cr]);
        let graph = g.graph();
        assert_eq!(graph.node_label(crd.node), "intersect(j: B,C)");

        let mut g = GraphBuilder::new("t");
        let rb = g.root("b");
        let rc = g.root("c");
        let (bc, br) = g.scan("b", 'i', true, rb);
        let (cc, cr) = g.scan("c", 'i', true, rc);
        let (crd, _refs) = g.union('i', [bc, cc], [br, cr]);
        assert_eq!(g.graph().node_label(crd.node), "union(i: b,c)");
    }

    #[test]
    fn port_signatures_cover_builder_output() {
        let mut g = GraphBuilder::new("t");
        let r0 = g.root("b");
        let r1 = g.root("c");
        let (c0, f0) = g.scan("b", 'i', true, r0);
        let (c1, f1) = g.scan("c", 'i', true, r1);
        let (_crd, refs) = g.intersect('i', [c0, c1], [f0, f1]);
        let _ = g.array("b", refs[0]);
        let graph = g.finish();
        for e in graph.edges() {
            let outs = graph.nodes()[e.from.0].output_ports();
            let ins = graph.nodes()[e.to.0].input_ports();
            assert!(outs[e.src_port].accepts(e.kind), "source port kind");
            assert!(ins[e.dst_port].accepts(e.kind), "dest port kind");
        }
    }
}
