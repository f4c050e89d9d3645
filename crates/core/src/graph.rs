//! The SAM dataflow graph intermediate representation.
//!
//! A [`SamGraph`] is a directed graph whose nodes are SAM primitives and
//! whose edges are typed streams. It is the compiler-facing IR (the paper's
//! LLVM analogy): Custard lowers tensor index notation into this form, the
//! primitive composition of Table 1 is read off it, the Table 2 ablation
//! analyzes which graphs survive removing a primitive, and graphs can be
//! exported to Graphviz DOT (the format the paper's artifact uses).
//!
//! Edge names are derived when printed ([`EdgeLabel`]), tensor names are
//! shared [`Name`]s, and a [`SamGraph`]'s clones share its body: building,
//! planning and cloning a graph allocate per graph, not per edge.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A tensor name or an ALU operation a [`NodeKind`] holds: a shared
/// string, so the nodes of a graph that name one tensor can share one
/// allocation ([`GraphBuilder`](crate::build::GraphBuilder) hands them
/// out), and a clone of a node copies no text. It reads as the `str` it
/// holds.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Name(Arc<str>);

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Name {
        Name(name.into())
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// The kind of a SAM primitive node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// The root reference source of a tensor path.
    Root {
        /// Tensor name.
        tensor: Name,
    },
    /// A level scanner (Definition 3.1). `compressed` is false for
    /// uncompressed (dense) levels.
    LevelScanner {
        /// Tensor name.
        tensor: Name,
        /// Index variable iterated by this scanner.
        index: char,
        /// Whether the level is stored compressed.
        compressed: bool,
    },
    /// A repeater (Definition 3.4).
    Repeater {
        /// Tensor being broadcast.
        tensor: Name,
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
        tensor: Name,
        /// Index variable located.
        index: char,
    },
    /// A value array in load mode (Definition 3.5).
    Array {
        /// Tensor whose values are loaded.
        tensor: Name,
    },
    /// A constant-value source: re-emits one scalar for every data token of
    /// its shape input stream, mirroring control tokens, so literal operands
    /// and zero-index tensor accesses (`alpha`, `beta` in MatTransMul)
    /// align with whatever value stream they combine with.
    ConstVal {
        /// Name of the bound order-0 (single-value) tensor supplying the
        /// scalar; empty for a compile-time literal.
        tensor: Name,
        /// The literal's `f64` bit pattern (bits rather than the float so
        /// the node stays `Eq`/`Hash`); ignored when `tensor` is nonempty.
        bits: u64,
    },
    /// An ALU (Definition 3.6).
    Alu {
        /// Operation mnemonic ("add", "sub" or "mul").
        op: Name,
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
        tensor: Name,
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
        NodeKind::ConstVal { tensor: "".into(), bits: value.to_bits() }
    }

    /// A [`NodeKind::ConstVal`] over a bound single-value tensor.
    pub fn scalar(tensor: impl Into<Name>) -> NodeKind {
        NodeKind::ConstVal { tensor: tensor.into(), bits: 0 }
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
    /// How the edge is named when printed ([`SamGraph::edge_label`]).
    pub label: EdgeLabel,
    /// Output-port index on the producer.
    pub src_port: usize,
    /// Input-port index on the consumer.
    pub dst_port: usize,
}

/// How an edge is named when printed ([`SamGraph::edge_label`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeLabel {
    /// Named after the role of the port the edge was wired to, derived from
    /// the node's kind and operand names when printed: input port `n` of
    /// the consumer (`"val a"`, `"B ref"`), or for a skip lane output port
    /// `n` of the intersecter (`"i skip a"`). An edge rewired to another port
    /// later keeps the name it was built with.
    Port(usize),
    /// A name the edge's builder chose.
    Text(Box<str>),
}

/// The name of input port `port` of a `kind` node, as [`GraphBuilder`]
/// wires it; `None` for a port no builder names.
///
/// [`GraphBuilder`]: crate::build::GraphBuilder
fn input_role(kind: &NodeKind, port: usize) -> Option<String> {
    let role = match (kind, port) {
        (NodeKind::LevelScanner { tensor, .. }, 0)
        | (NodeKind::Repeater { tensor, .. } | NodeKind::Locator { tensor, .. }, 1) => {
            format!("{tensor} ref")
        }
        (
            NodeKind::Repeater { index, .. }
            | NodeKind::Locator { index, .. }
            | NodeKind::CoordDropper { index },
            0,
        ) => format!("{index} crd"),
        (NodeKind::Intersecter { index } | NodeKind::Unioner { index }, 0 | 1) => {
            format!("{index} crd {}", if port == 0 { "a" } else { "b" })
        }
        (NodeKind::Intersecter { .. } | NodeKind::Unioner { .. }, 2) => "ref a".to_string(),
        (NodeKind::Intersecter { .. } | NodeKind::Unioner { .. }, 3) => "ref b".to_string(),
        (NodeKind::Array { .. }, 0) => "val ref".to_string(),
        (NodeKind::ConstVal { tensor, bits }, 0) if tensor.is_empty() => {
            format!("shape for {}", f64::from_bits(*bits))
        }
        (NodeKind::ConstVal { tensor, .. }, 0) => format!("shape for {tensor}"),
        (NodeKind::Alu { .. }, 0) => "val a".to_string(),
        (NodeKind::Alu { .. }, 1) => "val b".to_string(),
        (NodeKind::Reducer { order: 0 }, 0) | (NodeKind::Reducer { order: 1 }, 1) => "val".to_string(),
        (NodeKind::Reducer { order: 1 }, 0) => "crd".to_string(),
        (NodeKind::Reducer { .. }, 0) => "outer crd".to_string(),
        (NodeKind::Reducer { .. }, 1) => "inner crd".to_string(),
        (NodeKind::Reducer { .. }, 2) => "val".to_string(),
        (NodeKind::CoordDropper { .. }, 1) => "inner".to_string(),
        (NodeKind::LevelWriter { tensor, vals: true, .. }, 0) => format!("{tensor} vals"),
        (NodeKind::LevelWriter { tensor, index, .. }, 0) => format!("{tensor}{index}"),
        _ => return None,
    };
    Some(role)
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
///
/// The nodes, edges and label overrides sit behind one shared pointer, so a
/// clone (a plan keeps one) copies the name and shares the rest; the first
/// edit of a shared graph copies it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SamGraph {
    /// Human-readable graph name (usually the expression).
    pub name: String,
    body: Arc<Body>,
}

/// What [`SamGraph`] shares between its clones.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Body {
    nodes: Vec<NodeKind>,
    edges: Vec<Edge>,
    /// The per-node display labels overriding [`NodeKind::label`], by node
    /// in ascending order (e.g. `intersect(j: B,C)` instead of
    /// `intersect j`). Builders that know operand provenance set these so
    /// planner errors and execution traces name nodes meaningfully.
    labels: Vec<(NodeId, String)>,
}

impl SamGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        SamGraph::with_capacity(name, 0, 0)
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges`
    /// edges.
    pub fn with_capacity(name: impl Into<String>, nodes: usize, edges: usize) -> Self {
        let body =
            Body { nodes: Vec::with_capacity(nodes), edges: Vec::with_capacity(edges), labels: Vec::new() };
        SamGraph { name: name.into(), body: Arc::new(body) }
    }

    /// The body, to edit: copied first if another clone shares it.
    fn body_mut(&mut self) -> &mut Body {
        Arc::make_mut(&mut self.body)
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let nodes = &mut self.body_mut().nodes;
        nodes.push(kind);
        NodeId(nodes.len() - 1)
    }

    /// Overrides the display label of a node (see [`SamGraph::node_label`]).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn set_label(&mut self, id: NodeId, label: impl Into<String>) {
        assert!(id.0 < self.len(), "node {} is out of range", id.0);
        let labels = &mut self.body_mut().labels;
        match labels.binary_search_by_key(&id, |&(node, _)| node) {
            Ok(at) => labels[at].1 = label.into(),
            Err(at) => labels.insert(at, (id, label.into())),
        }
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
        let labels = &self.body.labels;
        match labels.binary_search_by_key(&id, |&(node, _)| node) {
            Ok(at) => labels[at].1.clone(),
            Err(_) => self.body.nodes[id.0].label(),
        }
    }

    /// Adds an edge from output port `src_port` of `from` to input port
    /// `dst_port` of `to`, named `label`.
    pub fn add_edge_on(
        &mut self,
        from: NodeId,
        src_port: usize,
        to: NodeId,
        dst_port: usize,
        kind: StreamKind,
        label: impl Into<String>,
    ) {
        let label = EdgeLabel::Text(label.into().into_boxed_str());
        self.body_mut().edges.push(Edge { from, to, kind, label, src_port, dst_port });
    }

    /// Adds an edge from output port `src_port` of `from` to input port
    /// `dst_port` of `to`, named after the port it is wired to
    /// ([`EdgeLabel::Port`]): it stores no name.
    pub fn add_edge(&mut self, from: NodeId, src_port: usize, to: NodeId, dst_port: usize, kind: StreamKind) {
        let label = EdgeLabel::Port(if kind == StreamKind::Skip { src_port } else { dst_port });
        self.body_mut().edges.push(Edge { from, to, kind, label, src_port, dst_port });
    }

    /// The printed name of `edge`: its builder's, or the one derived from
    /// the port it was wired to ([`EdgeLabel`]).
    ///
    /// ```
    /// use sam_core::graph::{NodeKind, SamGraph, StreamKind};
    /// let mut g = SamGraph::new("demo");
    /// let a = g.add_node(NodeKind::Alu { op: "mul".into() });
    /// let b = g.add_node(NodeKind::Alu { op: "add".into() });
    /// g.add_edge(a, 0, b, 1, StreamKind::Val);
    /// assert_eq!(g.edge_label(&g.edges()[0]), "val b");
    /// ```
    pub fn edge_label(&self, edge: &Edge) -> String {
        let port = match &edge.label {
            EdgeLabel::Text(text) => return text.to_string(),
            EdgeLabel::Port(port) => *port,
        };
        let role = if edge.kind == StreamKind::Skip {
            match self.body.nodes.get(edge.from.0) {
                Some(NodeKind::Intersecter { index }) if (3..5).contains(&port) => {
                    Some(format!("{index} skip {}", if port == 3 { "a" } else { "b" }))
                }
                _ => None,
            }
        } else {
            self.body.nodes.get(edge.to.0).and_then(|kind| input_role(kind, port))
        };
        role.unwrap_or_else(|| format!("port {port}"))
    }

    /// The nodes in insertion order.
    pub fn nodes(&self) -> &[NodeKind] {
        &self.body.nodes
    }

    /// The edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.body.edges
    }

    /// The node kinds, editable in place (the node set itself is fixed, so
    /// labels stay aligned). With [`SamGraph::edges_mut`], what a graph
    /// mutator perturbs; nothing is validated until the graph is planned.
    pub fn nodes_mut(&mut self) -> &mut [NodeKind] {
        &mut self.body_mut().nodes
    }

    /// The edge list, editable in place: drop, duplicate or rewire edges.
    pub fn edges_mut(&mut self) -> &mut Vec<Edge> {
        &mut self.body_mut().edges
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.body.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.body.nodes.is_empty()
    }

    /// Whether any node of the given discriminant is present.
    pub fn has_kind(&self, pred: impl Fn(&NodeKind) -> bool) -> bool {
        self.body.nodes.iter().any(pred)
    }

    /// Primitive counts in the Table 1 convention (roots are not counted;
    /// locators are reported separately from intersecters).
    pub fn primitive_counts(&self) -> PrimitiveCounts {
        let mut c = PrimitiveCounts::default();
        for n in &self.body.nodes {
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
        for i in 0..self.len() {
            out.push_str(&format!("  n{} [label=\"{}\"];\n", i, self.node_label(NodeId(i))));
        }
        for e in self.edges() {
            let style = match e.kind {
                StreamKind::Crd => "solid",
                StreamKind::Ref => "dashed",
                StreamKind::Val => "bold",
                StreamKind::Bits | StreamKind::Skip => "dotted",
            };
            out.push_str(&format!(
                "  n{} -> n{} [style={}, label=\"{}\"];\n",
                e.from.0,
                e.to.0,
                style,
                self.edge_label(e)
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

    /// An edge a builder wires is named after the port it feeds when
    /// printed, and keeps that name when a later edit rewires it; a name
    /// given with the edge is printed as given.
    #[test]
    fn edge_labels_are_derived_from_the_port_wired() {
        let mut g = tiny_graph();
        let (ab, ac, mul) = (NodeId(5), NodeId(6), NodeId(7));
        g.add_edge(ab, 0, mul, 0, StreamKind::Val);
        g.add_edge(ac, 0, mul, 1, StreamKind::Val);
        let n = g.edges().len();
        let named = |g: &SamGraph, at: usize| g.edge_label(&g.edges()[at]);
        assert_eq!((named(&g, n - 2), named(&g, n - 1)), ("val a".to_string(), "val b".to_string()));
        assert_eq!(named(&g, 0), "root", "a given name is printed as given");
        g.edges_mut()[n - 1].dst_port = 0;
        assert_eq!(named(&g, n - 1), "val b", "a rewired edge keeps its name");
        let (int, sb) = (NodeId(4), NodeId(1));
        g.add_edge(int, 3, sb, 1, StreamKind::Skip);
        assert_eq!(named(&g, n), "i skip a");
    }

    /// A clone shares the nodes and edges until one side edits them.
    #[test]
    fn an_edited_clone_leaves_the_original_alone() {
        let g = tiny_graph();
        let mut edited = g.clone();
        edited.set_label(NodeId(4), "intersect(i: b,c)");
        edited.edges_mut().pop();
        assert_eq!(g.node_label(NodeId(4)), "intersect i");
        assert_eq!(g.edges().len(), edited.edges().len() + 1);
        assert_eq!(g, tiny_graph());
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
