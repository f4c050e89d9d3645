//! The SAM dataflow graph intermediate representation.
//!
//! A [`SamGraph`] is a directed graph whose nodes are SAM primitives and
//! whose edges are typed streams. It is the compiler-facing IR (the paper's
//! LLVM analogy): Custard lowers tensor index notation into this form, the
//! primitive composition of Table 1 is read off it, the Table 2 ablation
//! analyzes which graphs survive removing a primitive, and graphs can be
//! exported to Graphviz DOT (the format the paper's artifact uses).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a SAM primitive node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// The root reference source of a tensor path.
    Root {
        /// Tensor name.
        tensor: String,
    },
    /// A level scanner (Definition 3.1). `compressed` is false for
    /// uncompressed (dense) levels.
    LevelScanner {
        /// Tensor name.
        tensor: String,
        /// Index variable iterated by this scanner.
        index: char,
        /// Whether the level is stored compressed.
        compressed: bool,
    },
    /// A repeater (Definition 3.4).
    Repeater {
        /// Tensor being broadcast.
        tensor: String,
        /// Index variable broadcast over.
        index: char,
    },
    /// An intersecter (Definition 3.2).
    Intersecter {
        /// Index variable merged.
        index: char,
    },
    /// A unioner (Definition 3.3).
    Unioner {
        /// Index variable merged.
        index: char,
    },
    /// A locator (Definition 4.1).
    Locator {
        /// Tensor located into.
        tensor: String,
        /// Index variable located.
        index: char,
    },
    /// A value array in load mode (Definition 3.5).
    Array {
        /// Tensor whose values are loaded.
        tensor: String,
    },
    /// A constant-value source: re-emits one scalar for every data token of
    /// its shape input stream, mirroring control tokens, so literal operands
    /// and zero-index tensor accesses (`alpha`, `beta` in MatTransMul)
    /// align with whatever value stream they combine with.
    ConstVal {
        /// Name of the bound order-0 (single-value) tensor supplying the
        /// scalar; empty for a compile-time literal.
        tensor: String,
        /// The literal's `f64` bit pattern (bits rather than the float so
        /// the node stays `Eq`/`Hash`); ignored when `tensor` is nonempty.
        bits: u64,
    },
    /// An ALU (Definition 3.6).
    Alu {
        /// Operation mnemonic ("add", "sub" or "mul").
        op: String,
    },
    /// A reducer (Definition 3.7).
    Reducer {
        /// Accumulation order (0 scalar, 1 vector, 2 matrix).
        order: usize,
    },
    /// A coordinate dropper (Definition 3.9).
    CoordDropper {
        /// Outer index variable being filtered.
        index: char,
    },
    /// A level writer (Definition 3.8); `vals` marks the values writer.
    LevelWriter {
        /// Result tensor name.
        tensor: String,
        /// Index variable written (`'v'` for the values writer).
        index: char,
        /// Whether this writer stores the values array.
        vals: bool,
    },
    /// A stream parallelizer (Section 4.4).
    Parallelizer,
    /// A stream serializer (Section 4.4).
    Serializer,
    /// A bitvector converter (Definition 4.2).
    BitvectorConverter,
}

impl NodeKind {
    /// A [`NodeKind::ConstVal`] over a compile-time literal.
    pub fn literal(value: f64) -> NodeKind {
        NodeKind::ConstVal { tensor: String::new(), bits: value.to_bits() }
    }

    /// A [`NodeKind::ConstVal`] over a bound single-value tensor.
    pub fn scalar(tensor: &str) -> NodeKind {
        NodeKind::ConstVal { tensor: tensor.to_string(), bits: 0 }
    }

    /// Short label used in DOT output and reports.
    pub fn label(&self) -> String {
        match self {
            NodeKind::Root { tensor } => format!("root {tensor}"),
            NodeKind::LevelScanner { tensor, index, compressed } => {
                format!("scan {tensor}{index} ({})", if *compressed { "comp" } else { "dense" })
            }
            NodeKind::Repeater { tensor, index } => format!("repeat {tensor} over {index}"),
            NodeKind::Intersecter { index } => format!("intersect {index}"),
            NodeKind::Unioner { index } => format!("union {index}"),
            NodeKind::Locator { tensor, index } => format!("locate {tensor}{index}"),
            NodeKind::Array { tensor } => format!("array {tensor} vals"),
            NodeKind::ConstVal { tensor, bits } => {
                if tensor.is_empty() {
                    format!("const {}", f64::from_bits(*bits))
                } else {
                    format!("scalar {tensor}")
                }
            }
            NodeKind::Alu { op } => format!("alu {op}"),
            NodeKind::Reducer { order } => format!("reduce (order {order})"),
            NodeKind::CoordDropper { index } => format!("crddrop {index}"),
            NodeKind::LevelWriter { tensor, index, vals } => {
                if *vals {
                    format!("write {tensor} vals")
                } else {
                    format!("write {tensor}{index}")
                }
            }
            NodeKind::Parallelizer => "parallelize".to_string(),
            NodeKind::Serializer => "serialize".to_string(),
            NodeKind::BitvectorConverter => "bv convert".to_string(),
        }
    }

    /// The input-port signature of this primitive, in port order. This is the
    /// contract `sam-exec` plans against; see each primitive's definition in
    /// the paper for the port semantics.
    pub fn input_ports(&self) -> &'static [PortKind] {
        match self {
            NodeKind::Root { .. } => &[],
            // The trailing skip port is the Section 4.2 coordinate-skip
            // feedback input; it is optional and usually unwired.
            NodeKind::LevelScanner { .. } => &[PortKind::Ref, PortKind::Skip],
            NodeKind::Repeater { .. } => &[PortKind::Crd, PortKind::Ref],
            NodeKind::Intersecter { .. } | NodeKind::Unioner { .. } => {
                &[PortKind::Crd, PortKind::Crd, PortKind::Ref, PortKind::Ref]
            }
            NodeKind::Locator { .. } => &[PortKind::Crd, PortKind::Ref],
            NodeKind::Array { .. } => &[PortKind::Ref],
            // The shape stream: the value stream of the sibling operand the
            // constant combines with (usually a planned fork of it).
            NodeKind::ConstVal { .. } => &[PortKind::Val],
            NodeKind::Alu { .. } => &[PortKind::Val, PortKind::Val],
            NodeKind::Reducer { order } => match order {
                0 => &[PortKind::Val],
                1 => &[PortKind::Crd, PortKind::Val],
                _ => &[PortKind::Crd, PortKind::Crd, PortKind::Val],
            },
            NodeKind::CoordDropper { .. } => &[PortKind::Crd, PortKind::Any],
            NodeKind::LevelWriter { vals: true, .. } => &[PortKind::Val],
            NodeKind::LevelWriter { .. } => &[PortKind::Crd],
            NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter => &[PortKind::Any],
        }
    }

    /// The output-port signature of this primitive, in port order.
    pub fn output_ports(&self) -> &'static [PortKind] {
        match self {
            NodeKind::Root { .. } => &[PortKind::Ref],
            NodeKind::LevelScanner { .. } => &[PortKind::Crd, PortKind::Ref],
            NodeKind::Repeater { .. } => &[PortKind::Ref],
            // Ports 3 and 4 are the optional coordinate-skip feedback lanes
            // towards operand 0's and operand 1's scanners (Section 4.2).
            NodeKind::Intersecter { .. } => {
                &[PortKind::Crd, PortKind::Ref, PortKind::Ref, PortKind::Skip, PortKind::Skip]
            }
            NodeKind::Unioner { .. } => &[PortKind::Crd, PortKind::Ref, PortKind::Ref],
            NodeKind::Locator { .. } => &[PortKind::Crd, PortKind::Ref, PortKind::Ref],
            NodeKind::Array { .. } => &[PortKind::Val],
            NodeKind::ConstVal { .. } => &[PortKind::Val],
            NodeKind::Alu { .. } => &[PortKind::Val],
            NodeKind::Reducer { order } => match order {
                0 => &[PortKind::Val],
                1 => &[PortKind::Crd, PortKind::Val],
                _ => &[PortKind::Crd, PortKind::Crd, PortKind::Val],
            },
            NodeKind::CoordDropper { .. } => &[PortKind::Crd, PortKind::Any],
            NodeKind::LevelWriter { .. } => &[],
            NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter => &[PortKind::Any],
        }
    }
}

/// The kind of stream an edge carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// Coordinate stream.
    Crd,
    /// Reference stream.
    Ref,
    /// Value stream.
    Val,
    /// Bitvector stream.
    Bits,
    /// Coordinate-skip feedback stream (Section 4.2): an intersecter sends
    /// the coordinate it is waiting for back to a trailing operand's level
    /// scanner, which gallops past everything smaller. Skip edges point
    /// *against* the dataflow direction; the planner whitelists them during
    /// cycle detection.
    Skip,
}

/// The stream kind expected or produced at one port of a node.
///
/// [`PortKind::Any`] is used where a node is agnostic to the payload (the
/// coordinate dropper's inner stream carries either coordinates or values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortKind {
    /// Coordinate stream.
    Crd,
    /// Reference stream.
    Ref,
    /// Value stream.
    Val,
    /// Coordinate-skip feedback stream. Skip ports are *optional*: the
    /// planner allows them to stay unwired, unlike every other port kind.
    Skip,
    /// Either coordinates or values.
    Any,
}

impl PortKind {
    /// Whether an edge of stream kind `kind` may attach to this port.
    pub fn accepts(self, kind: StreamKind) -> bool {
        match self {
            PortKind::Crd => kind == StreamKind::Crd,
            PortKind::Ref => kind == StreamKind::Ref,
            PortKind::Val => kind == StreamKind::Val,
            PortKind::Skip => kind == StreamKind::Skip,
            PortKind::Any => matches!(kind, StreamKind::Crd | StreamKind::Val),
        }
    }
}

/// Identifier of a node within a [`SamGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// One edge: a stream from a producer node to a consumer node.
///
/// Every edge names the *ports* it attaches to: `src_port` is the index into
/// the producer's [`NodeKind::output_ports`] and `dst_port` the index into
/// the consumer's [`NodeKind::input_ports`]. Whether the named ports exist
/// and carry the edge's kind is checked when the graph is planned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Producing node.
    pub from: NodeId,
    /// Consuming node.
    pub to: NodeId,
    /// Stream kind.
    pub kind: StreamKind,
    /// Short label (e.g. which port).
    pub label: String,
    /// Output-port index on the producer.
    pub src_port: usize,
    /// Input-port index on the consumer.
    pub dst_port: usize,
}

/// Primitive counts in the Table 1 column order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrimitiveCounts {
    /// Level scanners.
    pub level_scan: usize,
    /// Repeaters.
    pub repeat: usize,
    /// Intersecters.
    pub intersect: usize,
    /// Unioners.
    pub union: usize,
    /// ALUs.
    pub alu: usize,
    /// Reducers.
    pub reduce: usize,
    /// Coordinate droppers.
    pub crd_drop: usize,
    /// Level writers (including the values writer).
    pub level_write: usize,
    /// Value arrays.
    pub array: usize,
    /// Locators.
    pub locate: usize,
}

impl PrimitiveCounts {
    /// Total number of counted primitives.
    pub fn total(&self) -> usize {
        self.level_scan
            + self.repeat
            + self.intersect
            + self.union
            + self.alu
            + self.reduce
            + self.crd_drop
            + self.level_write
            + self.array
            + self.locate
    }
}

impl fmt::Display for PrimitiveCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scan={} repeat={} intersect={} union={} alu={} reduce={} crddrop={} write={} array={}",
            self.level_scan,
            self.repeat,
            self.intersect,
            self.union,
            self.alu,
            self.reduce,
            self.crd_drop,
            self.level_write,
            self.array
        )
    }
}

/// A SAM dataflow graph.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SamGraph {
    /// Human-readable graph name (usually the expression).
    pub name: String,
    nodes: Vec<NodeKind>,
    edges: Vec<Edge>,
    /// Optional per-node display labels overriding [`NodeKind::label`],
    /// kept index-aligned with `nodes` (e.g. `intersect(j: B,C)` instead of
    /// `intersect j`). Builders that know operand provenance set these so
    /// planner errors and execution traces name nodes meaningfully.
    labels: Vec<Option<String>>,
}

impl SamGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        SamGraph { name: name.into(), nodes: Vec::new(), edges: Vec::new(), labels: Vec::new() }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(kind);
        self.labels.push(None);
        NodeId(self.nodes.len() - 1)
    }

    /// Overrides the display label of a node (see [`SamGraph::node_label`]).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn set_label(&mut self, id: NodeId, label: impl Into<String>) {
        self.labels[id.0] = Some(label.into());
    }

    /// The display label of a node: the override set via
    /// [`SamGraph::set_label`] when present, otherwise the node kind's
    /// generic [`NodeKind::label`].
    ///
    /// ```
    /// use sam_core::graph::{NodeKind, SamGraph};
    /// let mut g = SamGraph::new("demo");
    /// let n = g.add_node(NodeKind::Intersecter { index: 'j' });
    /// assert_eq!(g.node_label(n), "intersect j");
    /// g.set_label(n, "intersect(j: B,C)");
    /// assert_eq!(g.node_label(n), "intersect(j: B,C)");
    /// ```
    pub fn node_label(&self, id: NodeId) -> String {
        match self.labels.get(id.0).and_then(|l| l.as_deref()) {
            Some(label) => label.to_string(),
            None => self.nodes[id.0].label(),
        }
    }

    /// Adds an edge from output port `src_port` of `from` to input port
    /// `dst_port` of `to`.
    pub fn add_edge_on(
        &mut self,
        from: NodeId,
        src_port: usize,
        to: NodeId,
        dst_port: usize,
        kind: StreamKind,
        label: impl Into<String>,
    ) {
        self.edges.push(Edge { from, to, kind, label: label.into(), src_port, dst_port });
    }

    /// The nodes in insertion order.
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// The edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The node kinds, editable in place (the node set itself is fixed, so
    /// labels stay aligned). With [`SamGraph::edges_mut`], what a graph
    /// mutator perturbs; nothing is validated until the graph is planned.
    pub fn nodes_mut(&mut self) -> &mut [NodeKind] {
        &mut self.nodes
    }

    /// The edge list, editable in place: drop, duplicate or rewire edges.
    pub fn edges_mut(&mut self) -> &mut Vec<Edge> {
        &mut self.edges
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether any node of the given discriminant is present.
    pub fn has_kind(&self, pred: impl Fn(&NodeKind) -> bool) -> bool {
        self.nodes.iter().any(pred)
    }

    /// Primitive counts in the Table 1 convention (roots are not counted;
    /// locators are reported separately from intersecters).
    pub fn primitive_counts(&self) -> PrimitiveCounts {
        let mut c = PrimitiveCounts::default();
        for n in &self.nodes {
            match n {
                NodeKind::Root { .. }
                | NodeKind::ConstVal { .. }
                | NodeKind::Parallelizer
                | NodeKind::Serializer
                | NodeKind::BitvectorConverter => {}
                NodeKind::LevelScanner { .. } => c.level_scan += 1,
                NodeKind::Repeater { .. } => c.repeat += 1,
                NodeKind::Intersecter { .. } => c.intersect += 1,
                NodeKind::Unioner { .. } => c.union += 1,
                NodeKind::Locator { .. } => c.locate += 1,
                NodeKind::Array { .. } => c.array += 1,
                NodeKind::Alu { .. } => c.alu += 1,
                NodeKind::Reducer { .. } => c.reduce += 1,
                NodeKind::CoordDropper { .. } => c.crd_drop += 1,
                NodeKind::LevelWriter { .. } => c.level_write += 1,
            }
        }
        c
    }

    /// Exports the graph in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n", self.name));
        out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"Helvetica\"];\n");
        for i in 0..self.nodes.len() {
            out.push_str(&format!("  n{} [label=\"{}\"];\n", i, self.node_label(NodeId(i))));
        }
        for e in &self.edges {
            let style = match e.kind {
                StreamKind::Crd => "solid",
                StreamKind::Ref => "dashed",
                StreamKind::Val => "bold",
                StreamKind::Bits | StreamKind::Skip => "dotted",
            };
            out.push_str(&format!(
                "  n{} -> n{} [style={}, label=\"{}\"];\n",
                e.from.0, e.to.0, style, e.label
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> SamGraph {
        let mut g = SamGraph::new("x(i) = b(i) * c(i)");
        let rb = g.add_node(NodeKind::Root { tensor: "b".into() });
        let sb = g.add_node(NodeKind::LevelScanner { tensor: "b".into(), index: 'i', compressed: true });
        let rc = g.add_node(NodeKind::Root { tensor: "c".into() });
        let sc = g.add_node(NodeKind::LevelScanner { tensor: "c".into(), index: 'i', compressed: true });
        let int = g.add_node(NodeKind::Intersecter { index: 'i' });
        let ab = g.add_node(NodeKind::Array { tensor: "b".into() });
        let ac = g.add_node(NodeKind::Array { tensor: "c".into() });
        let mul = g.add_node(NodeKind::Alu { op: "mul".into() });
        let wx = g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false });
        let wv = g.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'v', vals: true });
        g.add_edge_on(rb, 0, sb, 0, StreamKind::Ref, "root");
        g.add_edge_on(rc, 0, sc, 0, StreamKind::Ref, "root");
        g.add_edge_on(sb, 0, int, 0, StreamKind::Crd, "crd");
        g.add_edge_on(sc, 0, int, 1, StreamKind::Crd, "crd");
        g.add_edge_on(int, 1, ab, 0, StreamKind::Ref, "ref b");
        g.add_edge_on(int, 2, ac, 0, StreamKind::Ref, "ref c");
        g.add_edge_on(ab, 0, mul, 0, StreamKind::Val, "vals");
        g.add_edge_on(ac, 0, mul, 1, StreamKind::Val, "vals");
        g.add_edge_on(int, 0, wx, 0, StreamKind::Crd, "xi");
        g.add_edge_on(mul, 0, wv, 0, StreamKind::Val, "xvals");
        g
    }

    #[test]
    fn counts_match_structure() {
        let g = tiny_graph();
        let c = g.primitive_counts();
        assert_eq!(c.level_scan, 2);
        assert_eq!(c.intersect, 1);
        assert_eq!(c.alu, 1);
        assert_eq!(c.array, 2);
        assert_eq!(c.level_write, 2);
        assert_eq!(c.union, 0);
        assert_eq!(c.total(), 8);
        assert!(!g.is_empty());
        assert_eq!(g.len(), 10);
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let g = tiny_graph();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("intersect i"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn has_kind_queries() {
        let g = tiny_graph();
        assert!(g.has_kind(|n| matches!(n, NodeKind::Intersecter { .. })));
        assert!(!g.has_kind(|n| matches!(n, NodeKind::Unioner { .. })));
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(
            NodeKind::LevelScanner { tensor: "B".into(), index: 'k', compressed: false }.label(),
            "scan Bk (dense)"
        );
        assert_eq!(NodeKind::Reducer { order: 1 }.label(), "reduce (order 1)");
        assert_eq!(
            NodeKind::LevelWriter { tensor: "X".into(), index: 'v', vals: true }.label(),
            "write X vals"
        );
    }
}
