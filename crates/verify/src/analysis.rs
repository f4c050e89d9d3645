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

use crate::diag::{Diagnostic, Report, Rule};
use sam_core::graph::{Edge, NodeId, NodeKind, PortKind, SamGraph, StreamKind};
use sam_tensor::Tensor;
use std::collections::{HashMap, HashSet};

/// The tensors a graph is (or would be) executed over, by name.
///
/// A thin borrow map so the verifier can check binding-level rules (rank,
/// level formats, scalar-ness) without depending on the executor's
/// `Inputs`. Build one with [`Bindings::bind`] or collect from any
/// `(&str, &Tensor)` iterator — `sam_exec::Inputs::iter` yields exactly
/// that shape.
#[derive(Debug, Clone, Default)]
pub struct Bindings<'a> {
    map: HashMap<&'a str, &'a Tensor>,
}

impl<'a> Bindings<'a> {
    /// An empty binding set.
    pub fn new() -> Self {
        Bindings { map: HashMap::new() }
    }

    /// Adds (or replaces) a named tensor.
    pub fn bind(mut self, name: &'a str, tensor: &'a Tensor) -> Self {
        self.map.insert(name, tensor);
        self
    }

    /// Looks up a bound tensor.
    pub fn get(&self, name: &str) -> Option<&'a Tensor> {
        self.map.get(name).copied()
    }
}

impl<'a> FromIterator<(&'a str, &'a Tensor)> for Bindings<'a> {
    fn from_iter<T: IntoIterator<Item = (&'a str, &'a Tensor)>>(iter: T) -> Self {
        Bindings { map: iter.into_iter().collect() }
    }
}

/// The abstract type inferred for one producer port's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamType {
    /// A coordinate stream, tagged with the index variable that generates
    /// it when one is known.
    Crd {
        /// The generating index variable (`None` for reducer outputs,
        /// whose coordinates are re-emitted rather than generated).
        index: Option<char>,
    },
    /// A reference stream into `tensor`, having descended `depth` storage
    /// levels from the root (depth equal to the tensor's rank references
    /// the values).
    Ref {
        /// The tensor the references point into.
        tensor: String,
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

/// The result of one framework run: the resolved topology, the inferred
/// stream types, and every diagnostic found on the way.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings from the structural and typing passes.
    pub report: Report,
    node_inputs: Vec<Vec<Option<PortRef>>>,
    consumers: Vec<Vec<Vec<(NodeId, usize)>>>,
    /// Kahn order over the data edges; empty when they form a cycle.
    order: Vec<NodeId>,
    types: Vec<Vec<StreamType>>,
    skip_lanes: Vec<SkipLane>,
    acyclic: bool,
    /// Per index variable a scanner or locator introduces: the tensor and
    /// dimension of the first bound level iterating it (`None` without
    /// bindings, or when that level failed to resolve).
    dims: HashMap<char, Option<(String, usize)>>,
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

    /// The inferred stream type of the given producer port, if the node
    /// and port exist.
    pub fn stream_type(&self, src: PortRef) -> Option<&StreamType> {
        self.types.get(src.node.0).and_then(|p| p.get(src.port))
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
    pub fn consumers_of(&self, node: NodeId) -> &[Vec<(NodeId, usize)>] {
        &self.consumers[node.0]
    }

    /// The producer feeding each input port of `node` (`None` for unwired
    /// optional skip ports or ports whose edge failed to resolve).
    pub fn inputs_of(&self, node: NodeId) -> &[Option<PortRef>] {
        &self.node_inputs[node.0]
    }

    /// The dimension of index variable `index`: that of the first bound
    /// level a scanner or locator iterates it over. `None` when nothing
    /// introduces the variable or the analysis ran without bindings.
    pub fn dimension(&self, index: char) -> Option<usize> {
        self.dims.get(&index)?.as_ref().map(|(_, dim)| *dim)
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
        self.node_inputs[node.0][slot] == Some(PortRef { node: from, port })
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
    unknown_reported: HashSet<String>,
}

impl<'g, 'b> Analyzer<'g, 'b> {
    fn new(graph: &'g SamGraph, bindings: Option<&'b Bindings<'b>>) -> Self {
        let nodes = graph.nodes();
        Analyzer {
            graph,
            bindings,
            out: Analysis {
                report: Report::default(),
                node_inputs: nodes.iter().map(|k| vec![None; k.input_ports().len()]).collect(),
                consumers: nodes.iter().map(|k| vec![Vec::new(); k.output_ports().len()]).collect(),
                order: Vec::new(),
                types: nodes.iter().map(|k| vec![StreamType::Unknown; k.output_ports().len()]).collect(),
                skip_lanes: Vec::new(),
                acyclic: true,
                dims: HashMap::new(),
            },
            poisoned: vec![false; graph.len()],
            unknown_reported: HashSet::new(),
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

    /// Support check, port resolution, fan-out, topological order and
    /// skip-lane validation.
    fn structural(&mut self) {
        let nodes = self.graph.nodes();

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

        let data_edges: Vec<&Edge> =
            self.graph.edges().iter().filter(|e| e.kind != StreamKind::Skip).collect();
        let skip_edges: Vec<&Edge> =
            self.graph.edges().iter().filter(|e| e.kind == StreamKind::Skip).collect();

        // Port binding: both named ports must exist and carry the kind, and
        // an input port takes one edge.
        for e in &data_edges {
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
                        e.label,
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
                        e.label,
                        self.label(e.to.0),
                        if dp >= ins.len() {
                            "does not exist".to_string()
                        } else {
                            format!("cannot accept a {:?} stream", e.kind)
                        }
                    ),
                );
            } else if self.out.node_inputs[e.to.0][dp].is_some() {
                self.diag_port(
                    Rule::DuplicateInput,
                    e.to.0,
                    dp,
                    format!(
                        "two edges claim input port {dp} of `{}` (second: `{}`)",
                        self.label(e.to.0),
                        e.label
                    ),
                );
            } else {
                self.out.node_inputs[e.to.0][dp] = Some(PortRef { node: e.from, port: sp });
                self.out.consumers[e.from.0][sp].push((e.to, dp));
                continue;
            }
            self.poisoned[e.to.0] = true;
        }

        // Dangling mandatory inputs (skip ports are optional; nodes with a
        // mis-resolved edge were already reported).
        for (i, node) in nodes.iter().enumerate() {
            if self.poisoned[i] {
                continue;
            }
            for (p, kind) in node.input_ports().iter().enumerate() {
                if self.out.node_inputs[i][p].is_none() && *kind != PortKind::Skip {
                    self.diag_port(
                        Rule::DanglingInput,
                        i,
                        p,
                        format!("input port {p} of `{}` has no incoming edge", self.label(i)),
                    );
                }
            }
        }

        // Kahn over the data edges; skip feedback lanes are the one legal
        // kind of cycle.
        let n = self.graph.len();
        let mut indegree = vec![0usize; n];
        for e in &data_edges {
            indegree[e.to.0] += 1;
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indegree[i] == 0).map(NodeId).collect();
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for e in data_edges.iter().filter(|e| e.from == u) {
                indegree[e.to.0] -= 1;
                if indegree[e.to.0] == 0 {
                    queue.push(e.to);
                }
            }
        }
        if queue.len() != n {
            let stuck: Vec<String> = (0..n).filter(|&i| indegree[i] > 0).map(|i| self.label(i)).collect();
            self.out.acyclic = false;
            self.out.report.push(Diagnostic::new(
                Rule::DataCycle,
                format!("the data edges form a cycle through: {}", stuck.join(", ")),
            ));
        } else {
            self.out.order = queue;
        }

        // Skip lanes are feedback wiring, not dataflow: excluded from port
        // binding and ordering above, validated on the resolved topology.
        for e in &skip_edges {
            if let Err(reason) = self.check_skip_lane(e) {
                self.diag(Rule::IllegalSkipEdge, e.from.0, format!("skip edge `{}`: {reason}", e.label));
            }
        }
    }

    /// Validates one skip feedback lane against the Section 4.2 contract:
    /// it must run from an intersecter back to the private scanner of one of
    /// its operands. On success records it in `skip_lanes` and `consumers`.
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
        self.out.consumers[e.from.0][3 + operand].push((scanner, 1));
        self.out.skip_lanes.push(SkipLane { intersecter: e.from, operand, scanner });
        Ok(())
    }

    /// The type flowing into `slot` of `node` (`Unknown` when unbound).
    fn in_type(&self, node: usize, slot: usize) -> StreamType {
        match self.out.node_inputs[node][slot] {
            Some(src) => self.out.types[src.node.0][src.port].clone(),
            None => StreamType::Unknown,
        }
    }

    /// Reports an unknown tensor once per name.
    fn unknown_tensor(&mut self, node: usize, tensor: &str) {
        if self.unknown_reported.insert(tensor.to_string()) {
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
        let vals_writers: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, NodeKind::LevelWriter { vals: true, .. }))
            .map(|(i, _)| i)
            .collect();
        if vals_writers.is_empty() {
            self.out.report.push(Diagnostic::new(
                Rule::MissingValsWriter,
                "the graph writes no values stream, so it computes nothing".to_string(),
            ));
        }
        for &extra in vals_writers.iter().skip(1) {
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
                    self.out.types[id][0] = StreamType::Ref { tensor: tensor.clone(), depth: 0 };
                }
                NodeKind::LevelScanner { tensor, index, compressed } => {
                    self.out.types[id][0] = StreamType::Crd { index: Some(*index) };
                    self.out.types[id][1] = self.descend_ref(id, 0, tensor, *index, Some(*compressed));
                }
                NodeKind::Locator { tensor, index } => {
                    self.out.types[id][0] = StreamType::Crd { index: Some(*index) };
                    let down = self.descend_ref(id, 1, tensor, *index, None);
                    self.out.types[id][1] = match &down {
                        // The passthrough ref stays at the parent depth.
                        StreamType::Ref { tensor, depth } => {
                            StreamType::Ref { tensor: tensor.clone(), depth: depth - 1 }
                        }
                        other => other.clone(),
                    };
                    self.out.types[id][2] = down;
                }
                NodeKind::Repeater { .. } => {
                    self.out.types[id][0] = self.in_type(id, 1);
                }
                NodeKind::Intersecter { index } | NodeKind::Unioner { index } => {
                    self.out.types[id][0] = StreamType::Crd { index: Some(*index) };
                    self.out.types[id][1] = self.in_type(id, 2);
                    self.out.types[id][2] = self.in_type(id, 3);
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
                    if let StreamType::Ref { tensor: t, depth } = self.in_type(id, 0) {
                        if &t != tensor {
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
                    self.out.types[id][0] = StreamType::Val;
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
                    self.out.types[id][0] = StreamType::Val;
                }
                NodeKind::Alu { op } => {
                    if !matches!(op.as_str(), "add" | "sub" | "mul") {
                        self.diag(
                            Rule::UnknownAluOp,
                            id,
                            format!("`{}` names unknown ALU operation `{op}`", self.label(id)),
                        );
                    }
                    self.out.types[id][0] = StreamType::Val;
                }
                NodeKind::Reducer { order } => {
                    match order {
                        0 => self.out.types[id][0] = StreamType::Val,
                        1 => {
                            self.out.types[id][0] = StreamType::Crd { index: None };
                            self.out.types[id][1] = StreamType::Val;
                        }
                        _ => {
                            self.out.types[id][0] = StreamType::Crd { index: None };
                            self.out.types[id][1] = StreamType::Crd { index: None };
                            self.out.types[id][2] = StreamType::Val;
                        }
                    };
                }
                NodeKind::CoordDropper { index } => {
                    self.out.types[id][0] = StreamType::Crd { index: Some(*index) };
                    // The inner passthrough is legitimately untracked.
                    self.out.types[id][1] = StreamType::Unknown;
                }
                NodeKind::LevelWriter { index, vals, .. } => {
                    if !vals && !self.out.dims.contains_key(index) {
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
                    for t in &mut self.out.types[id] {
                        *t = StreamType::Tainted;
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
        tensor: &str,
        index: char,
        compressed: Option<bool>,
    ) -> StreamType {
        // The variable is introduced even when its size cannot be resolved.
        self.out.dims.entry(index).or_insert(None);
        match self.in_type(id, slot) {
            StreamType::Ref { tensor: t, depth } => {
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
                StreamType::Ref { tensor: tensor.to_string(), depth: depth + 1 }
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
        match self.out.dims.get(&index) {
            Some(Some((first, size))) if *size != dim => {
                let message = format!(
                    "`{}` iterates `{index}` over a level of `{tensor}` with dimension {dim}, but \
                     `{first}` already fixed `{index}` at dimension {size}",
                    self.label(id)
                );
                self.diag(Rule::DimensionMismatch, id, message);
            }
            Some(Some(_)) => {}
            _ => {
                self.out.dims.insert(index, Some((tensor.to_string(), dim)));
            }
        }
    }
}
