//! The shared dataflow framework: port resolution, topology, and abstract
//! stream-type inference over a [`SamGraph`].
//!
//! One [`Analysis`] run is the only place a graph is resolved: the verifier
//! passes (protocol checking, lints) read its tables, and the execution
//! planner (`sam_exec::Plan::build`) runs it once, rejects on any error
//! diagnostic, and otherwise keeps the analysis as the plan's topology.
//!
//! The framework never stops at the first problem: every finding becomes a
//! [`Diagnostic`] and inference continues on the unaffected parts of the
//! graph. Streams downstream of a reported defect are marked
//! [`StreamType::Tainted`] so one wiring bug does not cascade into a page of
//! secondary diagnostics.
//!
//! # Layout
//!
//! An analysis allocates per graph, not per node or port. Its tables are
//! flat, laid out as a compressed level lays out fibers: one array of every
//! input port's producer and one of every output port's stream type, both
//! indexed through one table of per-node offsets (a CSR `pos` array), and
//! one list of every output port's consumers, indexed through per-port
//! offsets. [`Analysis::inputs_of`] and [`Analysis::consumers_of`] are
//! slices of them. A stream type is `Copy`: a reference stream names its
//! tensor by the root node it descends from, and an index variable's size
//! by the node that fixed it.

use crate::diag::{Diagnostic, Report, Rule};
use sam_core::graph::{Edge, NodeId, NodeKind, PortKind, SamGraph, StreamKind};
use sam_tensor::Tensor;
use std::ops::{Index, Range};

/// The tensors a graph is (or would be) executed over, by name.
///
/// A thin borrowed table, sorted by name, so the verifier can check
/// binding-level rules (rank, level formats, scalar-ness) without depending
/// on the executor's `Inputs`. Build one with [`Bindings::bind`] or collect
/// from any `(&str, &Tensor)` iterator — `sam_exec::Inputs::iter` yields
/// exactly that shape, already in name order.
#[derive(Debug, Clone, Default)]
pub struct Bindings<'a> {
    by_name: Vec<(&'a str, &'a Tensor)>,
}

impl<'a> Bindings<'a> {
    /// An empty binding set.
    pub fn new() -> Self {
        Bindings { by_name: Vec::new() }
    }

    /// Adds (or replaces) a named tensor.
    pub fn bind(mut self, name: &'a str, tensor: &'a Tensor) -> Self {
        self.insert(name, tensor);
        self
    }

    fn insert(&mut self, name: &'a str, tensor: &'a Tensor) {
        match self.by_name.binary_search_by(|&(bound, _)| bound.cmp(name)) {
            Ok(at) => self.by_name[at].1 = tensor,
            Err(at) => self.by_name.insert(at, (name, tensor)),
        }
    }

    /// Looks up a bound tensor.
    pub fn get(&self, name: &str) -> Option<&'a Tensor> {
        let at = self.by_name.binary_search_by(|&(bound, _)| bound.cmp(name)).ok()?;
        Some(self.by_name[at].1)
    }
}

impl<'a> FromIterator<(&'a str, &'a Tensor)> for Bindings<'a> {
    fn from_iter<T: IntoIterator<Item = (&'a str, &'a Tensor)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut bindings = Bindings { by_name: Vec::with_capacity(iter.size_hint().0) };
        for (name, tensor) in iter {
            bindings.insert(name, tensor);
        }
        bindings
    }
}

/// The abstract type inferred for one producer port's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamType {
    /// A coordinate stream, tagged with the index variable that generates
    /// it when one is known.
    Crd {
        /// The generating index variable (`None` for reducer outputs,
        /// whose coordinates are re-emitted rather than generated).
        index: Option<char>,
    },
    /// A reference stream into the tensor of root node `root`, having
    /// descended `depth` storage levels from it (depth equal to the
    /// tensor's rank references the values).
    Ref {
        /// The [`NodeKind::Root`] the stream descends from, which names the
        /// tensor the references point into.
        root: NodeId,
        /// Storage levels consumed so far.
        depth: usize,
    },
    /// A value stream.
    Val,
    /// Legitimately untracked (e.g. a stream routed through a coordinate
    /// dropper's passthrough port) — value arrays stay permissive about it.
    Unknown,
    /// Unknown because an upstream diagnostic already fired; consumers
    /// stay silent instead of re-reporting the same defect.
    Tainted,
}

/// A producer endpoint: output port `port` of node `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The producing node.
    pub node: NodeId,
    /// The output-port index.
    pub port: usize,
}

/// One validated coordinate-skip feedback lane (paper Section 4.2): the
/// intersecter sends the coordinate it is waiting for on `operand` back to
/// `scanner`, which gallops past everything smaller.
///
/// Validation guarantees `scanner` is that operand's
/// [`Analysis::private_scanner`], so the fast backend may fuse the pair into
/// one galloping work unit while the cycle backend lowers the lane onto the
/// `sam-primitives` skip channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipLane {
    /// The intersecter emitting skip targets.
    pub intersecter: NodeId,
    /// Which operand (0 or 1) of the intersecter the lane serves.
    pub operand: usize,
    /// The level scanner that receives the skip targets.
    pub scanner: NodeId,
}

/// The consumers of each output port of one node: a view of the
/// analysis' flat consumer list. `port(p)` (or `[p]`) is the
/// `(node, input port)` pairs output port `p` feeds, in edge order.
#[derive(Debug, Clone, Copy)]
pub struct Consumers<'a> {
    /// Where each port's consumers start in `list`, and where the last
    /// one's end: one entry more than the node has output ports.
    bounds: &'a [u32],
    list: &'a [(NodeId, usize)],
}

impl<'a> Consumers<'a> {
    /// Number of output ports.
    #[inline]
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the node has no output ports.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The consumers of output port `port`.
    ///
    /// # Panics
    ///
    /// Panics when the node has no output port `port`.
    #[inline]
    pub fn port(&self, port: usize) -> &'a [(NodeId, usize)] {
        &self.list[self.bounds[port] as usize..self.bounds[port + 1] as usize]
    }

    /// The consumers of each output port, in port order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [(NodeId, usize)]> + 'a {
        let list = self.list;
        self.bounds.windows(2).map(move |w| &list[w[0] as usize..w[1] as usize])
    }
}

impl Index<usize> for Consumers<'_> {
    type Output = [(NodeId, usize)];

    fn index(&self, port: usize) -> &Self::Output {
        self.port(port)
    }
}

/// The result of one framework run: the resolved topology, the inferred
/// stream types, and every diagnostic found on the way.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings from the structural and typing passes.
    pub report: Report,
    /// Per node, and one past the last: its first input slot in `inputs`
    /// and its first output port in `types` and `fanout`.
    ports: Vec<(u32, u32)>,
    /// The producer feeding each input slot.
    inputs: Vec<Option<PortRef>>,
    /// The stream type of each output port.
    types: Vec<StreamType>,
    /// Where each output port's consumers start in `consumers`, and one
    /// past the last port: where the list ends.
    fanout: Vec<u32>,
    /// Every output port's consumers, port after port.
    consumers: Vec<(NodeId, usize)>,
    /// Kahn order over the data edges; empty when they form a cycle.
    order: Vec<NodeId>,
    skip_lanes: Vec<SkipLane>,
    acyclic: bool,
    /// Per index variable a scanner or locator introduces: the first bound
    /// level iterating it, as the node that reads it and its dimension
    /// (`None` without bindings, or when that level failed to resolve).
    dims: Vec<(char, Option<(NodeId, usize)>)>,
}

impl Analysis {
    /// Runs the framework over `graph`; `bindings` enables the
    /// binding-level rules (unknown tensors, rank, level formats,
    /// dimensions, scalar-ness) on top of the purely structural ones.
    pub fn run(graph: &SamGraph, bindings: Option<&Bindings<'_>>) -> Analysis {
        let mut a = Analyzer::new(graph, bindings);
        a.structural();
        a.infer_types();
        a.out
    }

    /// The flat numbers of `node`'s input slots: the graph's slots are
    /// numbered node after node, from 0 to [`Analysis::slot_count`].
    #[inline]
    pub fn input_slots(&self, node: NodeId) -> Range<usize> {
        let bounds = &self.ports[node.0..node.0 + 2];
        bounds[0].0 as usize..bounds[1].0 as usize
    }

    /// The flat numbers of `node`'s output ports, numbered likewise from 0
    /// to [`Analysis::port_count`].
    #[inline]
    pub fn output_ports(&self, node: NodeId) -> Range<usize> {
        let bounds = &self.ports[node.0..node.0 + 2];
        bounds[0].1 as usize..bounds[1].1 as usize
    }

    /// The flat number of output port `src`, which must name a port of the graph.
    #[inline]
    pub fn port(&self, src: PortRef) -> usize {
        self.ports[src.node.0].1 as usize + src.port
    }

    /// How many input slots the graph has.
    pub fn slot_count(&self) -> usize {
        self.inputs.len()
    }

    /// How many output ports the graph has.
    pub fn port_count(&self) -> usize {
        self.types.len()
    }

    /// The index of output port `src` in `types` and `fanout`, if the node
    /// and port exist.
    fn port_index(&self, src: PortRef) -> Option<usize> {
        let ports = (src.node.0 + 1 < self.ports.len()).then(|| self.output_ports(src.node))?;
        (src.port < ports.len()).then_some(ports.start + src.port)
    }

    /// The inferred stream type of the given producer port, if the node
    /// and port exist.
    pub fn stream_type(&self, src: PortRef) -> Option<&StreamType> {
        self.types.get(self.port_index(src)?)
    }

    /// Whether the data edges form a DAG.
    pub fn acyclic(&self) -> bool {
        self.acyclic
    }

    /// The nodes in topological order over the data edges (skip feedback
    /// lanes are the one legal kind of cycle); empty when cyclic.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The validated skip lanes.
    pub fn skip_lanes(&self) -> &[SkipLane] {
        &self.skip_lanes
    }

    /// The consumers `(node, input port)` of each output port of `node`; a
    /// validated skip lane appears on the intersecter's skip port.
    #[inline]
    pub fn consumers_of(&self, node: NodeId) -> Consumers<'_> {
        let ports = self.output_ports(node);
        Consumers { bounds: &self.fanout[ports.start..ports.end + 1], list: &self.consumers }
    }

    /// The producer feeding each input port of `node` (`None` for unwired
    /// optional skip ports or ports whose edge failed to resolve).
    #[inline]
    pub fn inputs_of(&self, node: NodeId) -> &[Option<PortRef>] {
        &self.inputs[self.input_slots(node)]
    }

    /// The dimension of index variable `index`: that of the first bound
    /// level a scanner or locator iterates it over. `None` when nothing
    /// introduces the variable or the analysis ran without bindings.
    pub fn dimension(&self, index: char) -> Option<usize> {
        self.dim(index)?.map(|(_, dim)| dim)
    }

    /// The entry of index variable `index` in `dims`, if it is introduced.
    fn dim(&self, index: char) -> Option<Option<(NodeId, usize)>> {
        self.dims.iter().find(|(var, _)| *var == index).map(|&(_, first)| first)
    }

    /// The level scanner private to `operand` (0 or 1) of `intersecter`: its
    /// coordinate and reference ports each have exactly one consumer, and
    /// those are the operand's crd and ref inputs. Nobody else can observe
    /// such a scanner's streams, which is what makes a skip lane to it legal
    /// (Section 4.2) and lets a backend fuse it into the intersecter.
    pub fn private_scanner(&self, graph: &SamGraph, intersecter: NodeId, operand: usize) -> Option<NodeId> {
        if !matches!(graph.nodes()[intersecter.0], NodeKind::Intersecter { .. }) || operand > 1 {
            return None;
        }
        let scanner = self.inputs_of(intersecter)[operand]?.node;
        let private = matches!(graph.nodes()[scanner.0], NodeKind::LevelScanner { .. })
            && self.fed_by(intersecter, operand, scanner, 0)
            && self.fed_by(intersecter, 2 + operand, scanner, 1)
            && self.consumers_of(scanner).iter().all(|c| c.len() == 1);
        private.then_some(scanner)
    }

    /// Whether input `slot` of `node` is fed by output `port` of `from`.
    fn fed_by(&self, node: NodeId, slot: usize, from: NodeId, port: usize) -> bool {
        self.inputs_of(node)[slot] == Some(PortRef { node: from, port })
    }
}

/// Working state of one run.
struct Analyzer<'g, 'b> {
    graph: &'g SamGraph,
    bindings: Option<&'b Bindings<'b>>,
    out: Analysis,
    /// Nodes with a dropped or mis-resolved incoming edge: exempt from the
    /// dangling-input check so one bad edge yields one diagnostic.
    poisoned: Vec<bool>,
    /// Tensor names already reported unknown (a missing binding is one
    /// defect however many nodes name the tensor).
    unknown_reported: Vec<&'g str>,
}

impl<'g, 'b> Analyzer<'g, 'b> {
    fn new(graph: &'g SamGraph, bindings: Option<&'b Bindings<'b>>) -> Self {
        let nodes = graph.nodes();
        let mut ports = Vec::with_capacity(nodes.len() + 1);
        let (mut inputs, mut outputs) = (0, 0);
        for kind in nodes {
            ports.push((inputs, outputs));
            inputs += kind.input_ports().len() as u32;
            outputs += kind.output_ports().len() as u32;
        }
        ports.push((inputs, outputs));
        Analyzer {
            graph,
            bindings,
            out: Analysis {
                report: Report::default(),
                ports,
                inputs: vec![None; inputs as usize],
                types: vec![StreamType::Unknown; outputs as usize],
                fanout: Vec::new(),
                consumers: Vec::new(),
                order: Vec::new(),
                skip_lanes: Vec::new(),
                acyclic: true,
                dims: Vec::new(),
            },
            poisoned: vec![false; graph.len()],
            unknown_reported: Vec::new(),
        }
    }

    fn diag(&mut self, rule: Rule, node: usize, message: String) {
        let label = self.graph.node_label(NodeId(node));
        self.out.report.push(Diagnostic::new(rule, message).at(node, label));
    }

    fn diag_port(&mut self, rule: Rule, node: usize, port: usize, message: String) {
        let label = self.graph.node_label(NodeId(node));
        self.out.report.push(Diagnostic::new(rule, message).at(node, label).on_port(port));
    }

    fn label(&self, node: usize) -> String {
        self.graph.node_label(NodeId(node))
    }

    /// The tensor a root, scanner or locator names.
    fn tensor_of(&self, node: NodeId) -> &'g str {
        match &self.graph.nodes()[node.0] {
            NodeKind::Root { tensor }
            | NodeKind::LevelScanner { tensor, .. }
            | NodeKind::Locator { tensor, .. } => tensor,
            _ => "",
        }
    }

    /// Support check, port resolution, fan-out, topological order and
    /// skip-lane validation.
    fn structural(&mut self) {
        let nodes = self.graph.nodes();
        let edges = self.graph.edges();

        // Support check: primitives the IR carries but no backend lowers.
        for (node, kind) in nodes.iter().enumerate() {
            let name = match kind {
                NodeKind::Parallelizer => "Parallelizer".to_string(),
                NodeKind::Serializer => "Serializer".to_string(),
                NodeKind::BitvectorConverter => "BitvectorConverter".to_string(),
                // Every backend's reducer is of order 0, 1 or 2.
                NodeKind::Reducer { order: 3.. } => kind.label(),
                _ => continue,
            };
            self.poisoned[node] = true;
            self.diag(
                Rule::NotYetLowerable,
                node,
                format!("`{name}` is not yet lowerable: no execution backend implements it yet"),
            );
        }

        // Port binding: both named ports must exist and carry the kind, and
        // an input port takes one edge. Each bound edge is one consumer of
        // its producer's port, kept in edge order.
        let data_edges = || edges.iter().filter(|e| e.kind != StreamKind::Skip);
        let mut bound: Vec<(u32, NodeId, usize)> = Vec::with_capacity(edges.len());
        for e in data_edges() {
            let outs = nodes[e.from.0].output_ports();
            let ins = nodes[e.to.0].input_ports();
            let (sp, dp) = (e.src_port, e.dst_port);
            if sp >= outs.len() || !outs[sp].accepts(e.kind) {
                self.diag_port(
                    Rule::PortKindMismatch,
                    e.from.0,
                    sp,
                    format!(
                        "edge `{}` names output port {sp} of `{}`, which {}",
                        self.graph.edge_label(e),
                        self.label(e.from.0),
                        if sp >= outs.len() {
                            "does not exist".to_string()
                        } else {
                            format!("cannot carry a {:?} stream", e.kind)
                        }
                    ),
                );
            } else if dp >= ins.len() || !ins[dp].accepts(e.kind) {
                self.diag_port(
                    Rule::PortKindMismatch,
                    e.to.0,
                    dp,
                    format!(
                        "edge `{}` names input port {dp} of `{}`, which {}",
                        self.graph.edge_label(e),
                        self.label(e.to.0),
                        if dp >= ins.len() {
                            "does not exist".to_string()
                        } else {
                            format!("cannot accept a {:?} stream", e.kind)
                        }
                    ),
                );
            } else if self.out.inputs_of(e.to)[dp].is_some() {
                self.diag_port(
                    Rule::DuplicateInput,
                    e.to.0,
                    dp,
                    format!(
                        "two edges claim input port {dp} of `{}` (second: `{}`)",
                        self.label(e.to.0),
                        self.graph.edge_label(e)
                    ),
                );
            } else {
                let slot = self.out.input_slots(e.to).start + dp;
                self.out.inputs[slot] = Some(PortRef { node: e.from, port: sp });
                bound.push((self.out.output_ports(e.from).start as u32 + sp as u32, e.to, dp));
                continue;
            }
            self.poisoned[e.to.0] = true;
        }
        self.fill_consumers(&bound);

        // Dangling mandatory inputs (skip ports are optional; nodes with a
        // mis-resolved edge were already reported).
        for (i, node) in nodes.iter().enumerate() {
            if self.poisoned[i] {
                continue;
            }
            for (p, kind) in node.input_ports().iter().enumerate() {
                if self.out.inputs_of(NodeId(i))[p].is_none() && *kind != PortKind::Skip {
                    self.diag_port(
                        Rule::DanglingInput,
                        i,
                        p,
                        format!("input port {p} of `{}` has no incoming edge", self.label(i)),
                    );
                }
            }
        }

        // Kahn over every data edge, bound or not, each node's edges taken
        // in edge order; skip feedback lanes are the one legal kind of
        // cycle. The edges out of each node are one slice of `targets`.
        let n = self.graph.len();
        let mut first = vec![0u32; n + 1];
        let mut indegree = vec![0u32; n];
        for e in data_edges() {
            first[e.from.0 + 1] += 1;
            indegree[e.to.0] += 1;
        }
        for u in 0..n {
            first[u + 1] += first[u];
        }
        let mut targets = vec![NodeId(0); first[n] as usize];
        for e in data_edges() {
            targets[first[e.from.0] as usize] = e.to;
            first[e.from.0] += 1;
        }
        // `first[u]` now ends node `u`'s slice, which the one before it starts.
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| indegree[i] == 0).map(NodeId));
        let mut head = 0;
        while head < order.len() {
            let u = order[head].0;
            head += 1;
            let start = if u == 0 { 0 } else { first[u - 1] as usize };
            for &to in &targets[start..first[u] as usize] {
                indegree[to.0] -= 1;
                if indegree[to.0] == 0 {
                    order.push(to);
                }
            }
        }
        if order.len() != n {
            let stuck: Vec<String> = (0..n).filter(|&i| indegree[i] > 0).map(|i| self.label(i)).collect();
            self.out.acyclic = false;
            self.out.report.push(Diagnostic::new(
                Rule::DataCycle,
                format!("the data edges form a cycle through: {}", stuck.join(", ")),
            ));
        } else {
            self.out.order = order;
        }

        // Skip lanes are feedback wiring, not dataflow: excluded from port
        // binding and ordering above, validated on the resolved topology.
        for e in edges.iter().filter(|e| e.kind == StreamKind::Skip) {
            if let Err(reason) = self.check_skip_lane(e) {
                let message = format!("skip edge `{}`: {reason}", self.graph.edge_label(e));
                self.diag(Rule::IllegalSkipEdge, e.from.0, message);
            }
        }
    }

    /// Lays out `bound`, the consumers of each bound data edge in edge order,
    /// as the per-port consumer lists: counted per port, then placed.
    fn fill_consumers(&mut self, bound: &[(u32, NodeId, usize)]) {
        let ports = self.out.types.len();
        let mut fanout = vec![0u32; ports + 1];
        for &(port, ..) in bound {
            fanout[port as usize + 1] += 1;
        }
        for p in 0..ports {
            fanout[p + 1] += fanout[p];
        }
        let mut consumers = vec![(NodeId(0), 0); bound.len()];
        // Placing advances each port's start to its end, which is where the
        // next port starts: shifted back by one, the starts are restored.
        for &(port, to, slot) in bound {
            consumers[fanout[port as usize] as usize] = (to, slot);
            fanout[port as usize] += 1;
        }
        fanout.copy_within(0..ports, 1);
        fanout[0] = 0;
        self.out.fanout = fanout;
        self.out.consumers = consumers;
    }

    /// Validates one skip feedback lane against the Section 4.2 contract:
    /// it must run from an intersecter back to the private scanner of one of
    /// its operands. On success records it in `skip_lanes`, and as the one
    /// consumer of the intersecter's skip port.
    fn check_skip_lane(&mut self, e: &Edge) -> Result<(), &'static str> {
        let nodes = self.graph.nodes();
        if !matches!(nodes[e.from.0], NodeKind::Intersecter { .. }) {
            return Err("source must be an intersecter");
        }
        if !matches!(nodes[e.to.0], NodeKind::LevelScanner { .. }) {
            return Err("target must be a level scanner");
        }
        if e.dst_port != 1 {
            return Err("target port must be the scanner's skip input (port 1)");
        }
        let scanner = e.to;
        let feeds = |slot: usize, port: usize| self.out.fed_by(e.from, slot, scanner, port);
        let operand = match e.src_port {
            3 => 0,
            4 => 1,
            _ => return Err("source port must be a skip lane (port 3 or 4)"),
        };
        if self.out.private_scanner(self.graph, e.from, operand) != Some(scanner) {
            // Name the clause of the predicate that failed.
            return Err(if !feeds(operand, 0) {
                "lane must target the scanner feeding that operand's coordinates"
            } else if !feeds(2 + operand, 1) {
                "the operand's reference stream must come from the same scanner"
            } else {
                "a skip-target scanner's outputs must feed only the intersecter"
            });
        }
        if self
            .out
            .skip_lanes
            .iter()
            .any(|s| (s.intersecter == e.from && s.operand == operand) || s.scanner == scanner)
        {
            return Err("duplicate skip lane");
        }
        // A skip port feeds no data edge, so the lane is its one consumer:
        // inserted at the port's (empty) place, every later port moves up.
        let port = self.out.output_ports(e.from).start + 3 + operand;
        let at = self.out.fanout[port] as usize;
        self.out.consumers.insert(at, (scanner, 1));
        for end in &mut self.out.fanout[port + 1..] {
            *end += 1;
        }
        self.out.skip_lanes.push(SkipLane { intersecter: e.from, operand, scanner });
        Ok(())
    }

    /// The type flowing into `slot` of `node` (`Unknown` when unbound).
    fn in_type(&self, node: usize, slot: usize) -> StreamType {
        match self.out.inputs_of(NodeId(node))[slot] {
            Some(src) => self.out.stream_type(src).copied().unwrap_or(StreamType::Unknown),
            None => StreamType::Unknown,
        }
    }

    /// Sets the type of output `port` of `node`.
    fn set_type(&mut self, node: usize, port: usize, t: StreamType) {
        let at = self.out.output_ports(NodeId(node)).start + port;
        self.out.types[at] = t;
    }

    /// Reports an unknown tensor once per name.
    fn unknown_tensor(&mut self, node: usize, tensor: &'g str) {
        if !self.unknown_reported.contains(&tensor) {
            self.unknown_reported.push(tensor);
            self.diag(
                Rule::UnknownTensor,
                node,
                format!("`{}` references tensor `{tensor}`, which is not bound", self.label(node)),
            );
        }
    }

    /// Stream-type inference in topological order, plus the writer-set
    /// rules, which need no order.
    fn infer_types(&mut self) {
        let nodes = self.graph.nodes();

        // Writer-set rules are order-free: count the values writers even
        // when a cycle blocks inference.
        let mut vals_writers =
            (0..nodes.len()).filter(|&i| matches!(nodes[i], NodeKind::LevelWriter { vals: true, .. }));
        if vals_writers.next().is_none() {
            self.out.report.push(Diagnostic::new(
                Rule::MissingValsWriter,
                "the graph writes no values stream, so it computes nothing".to_string(),
            ));
        }
        for extra in vals_writers {
            self.diag(
                Rule::MultipleValsWriters,
                extra,
                format!("`{}` is a second values writer; a graph may have only one", self.label(extra)),
            );
        }

        if !self.out.acyclic {
            return;
        }

        let order = std::mem::take(&mut self.out.order);
        for &NodeId(id) in &order {
            match &nodes[id] {
                NodeKind::Root { tensor } => {
                    if let Some(b) = self.bindings {
                        if b.get(tensor).is_none() {
                            self.unknown_tensor(id, tensor);
                        }
                    }
                    self.set_type(id, 0, StreamType::Ref { root: NodeId(id), depth: 0 });
                }
                NodeKind::LevelScanner { tensor, index, compressed } => {
                    self.set_type(id, 0, StreamType::Crd { index: Some(*index) });
                    let down = self.descend_ref(id, 0, tensor, *index, Some(*compressed));
                    self.set_type(id, 1, down);
                }
                NodeKind::Locator { tensor, index } => {
                    self.set_type(id, 0, StreamType::Crd { index: Some(*index) });
                    let down = self.descend_ref(id, 1, tensor, *index, None);
                    let pass = match down {
                        // The passthrough ref stays at the parent depth.
                        StreamType::Ref { root, depth } => StreamType::Ref { root, depth: depth - 1 },
                        other => other,
                    };
                    self.set_type(id, 1, pass);
                    self.set_type(id, 2, down);
                }
                NodeKind::Repeater { .. } => {
                    self.set_type(id, 0, self.in_type(id, 1));
                }
                NodeKind::Intersecter { index } | NodeKind::Unioner { index } => {
                    self.set_type(id, 0, StreamType::Crd { index: Some(*index) });
                    self.set_type(id, 1, self.in_type(id, 2));
                    self.set_type(id, 2, self.in_type(id, 3));
                    // Intersecter skip outputs (ports 3, 4) stay Unknown.
                }
                NodeKind::Array { tensor } => {
                    let bound = match self.bindings {
                        Some(b) => match b.get(tensor) {
                            Some(t) => Some(t),
                            None => {
                                self.unknown_tensor(id, tensor);
                                None
                            }
                        },
                        None => None,
                    };
                    // A value array reads references into the values, which
                    // only exist below the *last* storage level. A traced
                    // stream of another tensor is a wiring bug; one that
                    // stops short of the last level means the graph never
                    // consumed the tensor's deeper levels (a matrix bound to
                    // a vector kernel) and would silently read wrong
                    // positions. Untracked streams stay permissive and fail
                    // at execution if wrong.
                    if let StreamType::Ref { root, depth } = self.in_type(id, 0) {
                        let t = self.tensor_of(root);
                        if t != &**tensor {
                            self.diag(
                                Rule::TensorMismatch,
                                id,
                                format!(
                                    "`{}` loads values of `{tensor}` but its reference \
                                     stream iterates `{t}`",
                                    self.label(id)
                                ),
                            );
                        } else if let Some(bound) = bound {
                            let levels = bound.levels().len();
                            if depth != levels {
                                self.diag(
                                    Rule::RankMismatch,
                                    id,
                                    format!(
                                        "`{}` reads values of `{tensor}` after consuming \
                                         {depth} of its {levels} storage levels — the graph's \
                                         rank does not match the bound tensor's",
                                        self.label(id)
                                    ),
                                );
                            }
                        }
                    }
                    self.set_type(id, 0, StreamType::Val);
                }
                NodeKind::ConstVal { tensor, .. } => {
                    if !tensor.is_empty() {
                        if let Some(b) = self.bindings {
                            match b.get(tensor) {
                                None => self.unknown_tensor(id, tensor),
                                // A genuine scalar holds one stored value
                                // AND has every dimension 1 (see
                                // `Inputs::scalar`); a higher-rank tensor
                                // with a single nonzero is a misbinding.
                                Some(bound) => {
                                    if bound.vals().len() != 1
                                        || bound.levels().iter().any(|l| l.dimension() > 1)
                                    {
                                        self.diag(
                                            Rule::ScalarIntoStream,
                                            id,
                                            format!(
                                                "`{}` collapses tensor `{tensor}` into a zero-index \
                                                 constant, but it is not a scalar ({} values, dims {:?})",
                                                self.label(id),
                                                bound.vals().len(),
                                                bound
                                                    .levels()
                                                    .iter()
                                                    .map(|l| l.dimension())
                                                    .collect::<Vec<_>>()
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    self.set_type(id, 0, StreamType::Val);
                }
                NodeKind::Alu { op } => {
                    if !matches!(&**op, "add" | "sub" | "mul") {
                        self.diag(
                            Rule::UnknownAluOp,
                            id,
                            format!("`{}` names unknown ALU operation `{op}`", self.label(id)),
                        );
                    }
                    self.set_type(id, 0, StreamType::Val);
                }
                NodeKind::Reducer { order } => {
                    match order {
                        0 => self.set_type(id, 0, StreamType::Val),
                        1 => {
                            self.set_type(id, 0, StreamType::Crd { index: None });
                            self.set_type(id, 1, StreamType::Val);
                        }
                        _ => {
                            self.set_type(id, 0, StreamType::Crd { index: None });
                            self.set_type(id, 1, StreamType::Crd { index: None });
                            self.set_type(id, 2, StreamType::Val);
                        }
                    };
                }
                NodeKind::CoordDropper { index } => {
                    self.set_type(id, 0, StreamType::Crd { index: Some(*index) });
                    // The inner passthrough is legitimately untracked.
                    self.set_type(id, 1, StreamType::Unknown);
                }
                NodeKind::LevelWriter { index, vals, .. } => {
                    if !vals && self.out.dim(*index).is_none() {
                        self.diag(
                            Rule::UnknownDimension,
                            id,
                            format!(
                                "`{}` writes level `{index}`, but no scanner or locator introduces \
                                 that index variable, so its dimension is undefined",
                                self.label(id)
                            ),
                        );
                    }
                }
                NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter => {
                    for port in self.out.output_ports(NodeId(id)) {
                        self.out.types[port] = StreamType::Tainted;
                    }
                }
            }
        }
        self.out.order = order;
    }

    /// Shared scanner/locator reference descent: checks the incoming ref
    /// stream against the declared tensor and the bound storage, records the
    /// dimension the level gives `index`, and returns the child-level
    /// reference type (`Tainted` after a finding that invalidates it).
    ///
    /// `compressed` is the scanner's format annotation (`None` for
    /// locators, which read either format).
    fn descend_ref(
        &mut self,
        id: usize,
        slot: usize,
        tensor: &'g str,
        index: char,
        compressed: Option<bool>,
    ) -> StreamType {
        // The variable is introduced even when its size cannot be resolved.
        if self.out.dim(index).is_none() {
            self.out.dims.push((index, None));
        }
        match self.in_type(id, slot) {
            StreamType::Ref { root, depth } => {
                let t = self.tensor_of(root);
                if t != tensor {
                    self.diag(
                        Rule::TensorMismatch,
                        id,
                        format!(
                            "`{}` iterates `{tensor}` but its reference stream comes from `{t}`",
                            self.label(id)
                        ),
                    );
                    return StreamType::Tainted;
                }
                if let Some(b) = self.bindings {
                    match b.get(tensor) {
                        None => {
                            self.unknown_tensor(id, tensor);
                        }
                        Some(bound) => {
                            if depth >= bound.levels().len() {
                                self.diag(
                                    Rule::LevelOutOfRange,
                                    id,
                                    format!(
                                        "`{}` descends to storage level {depth} of `{tensor}`, \
                                         which has only {} levels",
                                        self.label(id),
                                        bound.levels().len()
                                    ),
                                );
                                return StreamType::Tainted;
                            }
                            self.bind_dim(id, index, tensor, bound.level(depth).dimension());
                            if let Some(compressed) = compressed {
                                if bound.level(depth).is_dense() == compressed {
                                    self.diag(
                                        Rule::FormatMismatch,
                                        id,
                                        format!(
                                            "`{}` expects a {} level, but level {depth} of the \
                                             bound `{tensor}` is {}",
                                            self.label(id),
                                            if compressed { "compressed" } else { "dense" },
                                            if compressed { "dense" } else { "compressed" },
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                StreamType::Ref { root, depth: depth + 1 }
            }
            StreamType::Tainted => StreamType::Tainted,
            // Crd/Val cannot arrive here (port kinds); Unknown is a
            // genuinely untracked reference, which no backend can bind.
            _ => {
                self.diag(
                    Rule::TensorMismatch,
                    id,
                    format!("`{}` iterates `{tensor}` but its reference stream is untracked", self.label(id)),
                );
                StreamType::Tainted
            }
        }
    }

    /// Fixes the size of `index` the first time a bound level iterates it.
    /// A later level of another size would send the backends coordinates
    /// beyond a dimension they allocated for, so it is an error.
    fn bind_dim(&mut self, id: usize, index: char, tensor: &str, dim: usize) {
        let Some(entry) = self.out.dims.iter().position(|(var, _)| *var == index) else { return };
        match self.out.dims[entry].1 {
            Some((first, size)) if size != dim => {
                let message = format!(
                    "`{}` iterates `{index}` over a level of `{tensor}` with dimension {dim}, but \
                     `{}` already fixed `{index}` at dimension {size}",
                    self.label(id),
                    self.tensor_of(first)
                );
                self.diag(Rule::DimensionMismatch, id, message);
            }
            Some(_) => {}
            None => self.out.dims[entry].1 = Some((NodeId(id), dim)),
        }
    }
}
