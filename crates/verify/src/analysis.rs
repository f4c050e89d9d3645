//! The shared dataflow framework: port resolution, topology, and abstract
//! stream-type inference over a [`SamGraph`].
//!
//! One [`Analysis`] run feeds both verifier passes (protocol checking,
//! lints) *and* the execution planner's rank validation, which consults
//! [`Analysis::ref_annotation`] instead of re-tracing reference streams
//! itself.
//!
//! The framework mirrors the planner's resolution semantics exactly
//! (`sam_exec::Plan::build` phases 2–5) but never stops at the first
//! problem: every finding becomes a [`Diagnostic`] and inference continues
//! on the unaffected parts of the graph. Streams downstream of a reported
//! defect are marked [`StreamType::Tainted`] so one wiring bug does not
//! cascade into a page of secondary diagnostics.

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
    /// dropper's passthrough port) — consumers stay permissive, exactly
    /// like the planner.
    Unknown,
    /// Unknown because an upstream diagnostic already fired; consumers
    /// stay silent instead of re-reporting the same defect.
    Tainted,
}

/// A producer endpoint (output `port` of node `node`), in plain indices so
/// the type is independent of the executor crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The producing node.
    pub node: usize,
    /// The output-port index.
    pub port: usize,
}

/// One validated coordinate-skip feedback lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipLane {
    /// The intersecter emitting skip targets.
    pub intersecter: usize,
    /// Which operand (0 or 1) the lane serves.
    pub operand: usize,
    /// The level scanner receiving the targets.
    pub scanner: usize,
}

/// The result of one framework run: the resolved topology, the inferred
/// stream types, and every diagnostic found on the way.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings from the structural and typing passes.
    pub report: Report,
    pub(crate) node_inputs: Vec<Vec<Option<PortRef>>>,
    pub(crate) consumers: Vec<Vec<Vec<(usize, usize)>>>,
    pub(crate) types: Vec<Vec<StreamType>>,
    pub(crate) skip_lanes: Vec<SkipLane>,
    pub(crate) acyclic: bool,
}

impl Analysis {
    /// Runs the framework over `graph`; `bindings` enables the
    /// binding-level rules (unknown tensors, rank, level formats,
    /// scalar-ness) on top of the purely structural ones.
    pub fn run(graph: &SamGraph, bindings: Option<&Bindings<'_>>) -> Analysis {
        let mut a = Analyzer::new(graph, bindings);
        a.structural();
        a.infer_types();
        Analysis {
            report: a.report,
            node_inputs: a.node_inputs,
            consumers: a.consumers,
            types: a.types,
            skip_lanes: a.skip_lanes,
            acyclic: a.acyclic,
        }
    }

    /// The inferred stream type of the given producer port, if the node
    /// and port exist.
    pub fn stream_type(&self, node: usize, port: usize) -> Option<&StreamType> {
        self.types.get(node).and_then(|p| p.get(port))
    }

    /// The `(tensor, depth)` annotation of a reference stream — the
    /// verifier-computed result the planner's rank validation delegates
    /// to. `None` for non-reference or untracked streams.
    pub fn ref_annotation(&self, node: usize, port: usize) -> Option<(&str, usize)> {
        match self.stream_type(node, port)? {
            StreamType::Ref { tensor, depth } => Some((tensor.as_str(), *depth)),
            _ => None,
        }
    }

    /// Whether the data edges form a DAG.
    pub fn acyclic(&self) -> bool {
        self.acyclic
    }

    /// The validated skip lanes.
    pub fn skip_lanes(&self) -> &[SkipLane] {
        &self.skip_lanes
    }

    /// The data consumers of each output port of `node` (skip lanes
    /// included on the intersecter's skip ports, mirroring the planner).
    pub fn consumers_of(&self, node: usize) -> &[Vec<(usize, usize)>] {
        &self.consumers[node]
    }

    /// The producer feeding each input port of `node` (`None` for unwired
    /// optional skip ports or ports whose edge failed to resolve).
    pub fn inputs_of(&self, node: usize) -> &[Option<PortRef>] {
        &self.node_inputs[node]
    }
}

/// Working state of one run.
struct Analyzer<'g, 'b> {
    graph: &'g SamGraph,
    bindings: Option<&'b Bindings<'b>>,
    report: Report,
    node_inputs: Vec<Vec<Option<PortRef>>>,
    consumers: Vec<Vec<Vec<(usize, usize)>>>,
    order: Vec<usize>,
    types: Vec<Vec<StreamType>>,
    skip_lanes: Vec<SkipLane>,
    acyclic: bool,
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
            report: Report::default(),
            node_inputs: nodes.iter().map(|k| vec![None; k.input_ports().len()]).collect(),
            consumers: nodes.iter().map(|k| vec![Vec::new(); k.output_ports().len()]).collect(),
            order: Vec::new(),
            types: nodes.iter().map(|k| vec![StreamType::Unknown; k.output_ports().len()]).collect(),
            skip_lanes: Vec::new(),
            acyclic: true,
            poisoned: vec![false; graph.len()],
            unknown_reported: HashSet::new(),
        }
    }

    fn diag(&mut self, rule: Rule, node: usize, message: String) {
        let label = self.graph.node_label(NodeId(node));
        self.report.push(Diagnostic::new(rule, message).at(node, label));
    }

    fn diag_port(&mut self, rule: Rule, node: usize, port: usize, message: String) {
        let label = self.graph.node_label(NodeId(node));
        self.report.push(Diagnostic::new(rule, message).at(node, label).on_port(port));
    }

    fn label(&self, node: usize) -> String {
        self.graph.node_label(NodeId(node))
    }

    /// Phases 1–4 of the planner, diagnostically: support check, port
    /// resolution, cycle detection, fan-out, skip-lane validation.
    fn structural(&mut self) {
        let nodes = self.graph.nodes();

        // Support check: primitives the IR carries but no backend lowers.
        for (node, kind) in nodes.iter().enumerate() {
            let name = match kind {
                NodeKind::Parallelizer => Some("Parallelizer"),
                NodeKind::Serializer => Some("Serializer"),
                NodeKind::BitvectorConverter => Some("BitvectorConverter"),
                _ => None,
            };
            if let Some(name) = name {
                self.poisoned[node] = true;
                self.diag(
                    Rule::NotYetLowerable,
                    node,
                    format!(
                        "`{name}` is not yet lowerable: no execution backend implements it \
                         (see ROADMAP \"IR coverage\")"
                    ),
                );
            }
        }

        let data_edges: Vec<&Edge> =
            self.graph.edges().iter().filter(|e| e.kind != StreamKind::Skip).collect();
        let skip_edges: Vec<&Edge> =
            self.graph.edges().iter().filter(|e| e.kind == StreamKind::Skip).collect();

        // Source-port attribution, mirroring the planner's inference: an
        // explicit port must exist and carry the kind; unported edges bind
        // to the unique compatible port, or are dealt out in edge order
        // when several ports carry the kind.
        let mut src_ports: Vec<Option<usize>> = Vec::with_capacity(data_edges.len());
        let mut ambiguous_reported: HashSet<(usize, StreamKind)> = HashSet::new();
        let mut next_inferred: HashMap<(usize, usize), usize> = HashMap::new();
        for e in &data_edges {
            let outs = nodes[e.from.0].output_ports();
            let port = match e.src_port {
                Some(p) => {
                    if p >= outs.len() || !outs[p].accepts(e.kind) {
                        self.diag_port(
                            Rule::PortKindMismatch,
                            e.from.0,
                            p,
                            format!(
                                "edge `{}` names output port {p} of `{}`, which {}",
                                e.label,
                                self.label(e.from.0),
                                if p >= outs.len() {
                                    "does not exist".to_string()
                                } else {
                                    format!("cannot carry a {:?} stream", e.kind)
                                }
                            ),
                        );
                        None
                    } else {
                        Some(p)
                    }
                }
                None => {
                    let candidates: Vec<usize> =
                        (0..outs.len()).filter(|&p| outs[p].accepts(e.kind)).collect();
                    match candidates.len() {
                        0 => {
                            self.diag(
                                Rule::PortKindMismatch,
                                e.from.0,
                                format!(
                                    "edge `{}`: `{}` has no output port carrying a {:?} stream",
                                    e.label,
                                    self.label(e.from.0),
                                    e.kind
                                ),
                            );
                            None
                        }
                        1 => Some(candidates[0]),
                        _ => {
                            let unported = self
                                .graph
                                .edges()
                                .iter()
                                .filter(|o| o.from == e.from && o.kind == e.kind && o.src_port.is_none())
                                .count();
                            if unported > candidates.len() {
                                if ambiguous_reported.insert((e.from.0, e.kind)) {
                                    self.diag(
                                        Rule::AmbiguousPort,
                                        e.from.0,
                                        format!(
                                            "{unported} unported {:?} edges leave `{}`, which has only \
                                             {} such ports — wire them explicitly",
                                            e.kind,
                                            self.label(e.from.0),
                                            candidates.len()
                                        ),
                                    );
                                }
                                None
                            } else {
                                let key = (e.from.0, candidates[0]);
                                let idx = next_inferred.entry(key).or_insert(0);
                                let port = candidates[*idx % candidates.len()];
                                *idx += 1;
                                Some(port)
                            }
                        }
                    }
                }
            };
            if port.is_none() {
                self.poisoned[e.to.0] = true;
            }
            src_ports.push(port);
        }

        // Destination binding.
        for (idx, e) in data_edges.iter().enumerate() {
            let Some(src_port) = src_ports[idx] else { continue };
            let ins = nodes[e.to.0].input_ports();
            let slot = match e.dst_port {
                Some(p) => {
                    if p >= ins.len() || !ins[p].accepts(e.kind) {
                        self.diag_port(
                            Rule::PortKindMismatch,
                            e.to.0,
                            p,
                            format!(
                                "edge `{}` names input port {p} of `{}`, which {}",
                                e.label,
                                self.label(e.to.0),
                                if p >= ins.len() {
                                    "does not exist".to_string()
                                } else {
                                    format!("cannot accept a {:?} stream", e.kind)
                                }
                            ),
                        );
                        self.poisoned[e.to.0] = true;
                        continue;
                    }
                    if self.node_inputs[e.to.0][p].is_some() {
                        self.diag_port(
                            Rule::DuplicateInput,
                            e.to.0,
                            p,
                            format!(
                                "two edges claim input port {p} of `{}` (second: `{}`)",
                                self.label(e.to.0),
                                e.label
                            ),
                        );
                        self.poisoned[e.to.0] = true;
                        continue;
                    }
                    p
                }
                None => {
                    match (0..ins.len())
                        .find(|&p| ins[p].accepts(e.kind) && self.node_inputs[e.to.0][p].is_none())
                    {
                        Some(p) => p,
                        None => {
                            self.diag(
                                Rule::ExtraInput,
                                e.to.0,
                                format!(
                                    "edge `{}` fits no remaining input port of `{}`",
                                    e.label,
                                    self.label(e.to.0)
                                ),
                            );
                            self.poisoned[e.to.0] = true;
                            continue;
                        }
                    }
                }
            };
            self.node_inputs[e.to.0][slot] = Some(PortRef { node: e.from.0, port: src_port });
            self.consumers[e.from.0][src_port].push((e.to.0, slot));
        }

        // Dangling mandatory inputs (skip ports are optional; nodes with a
        // mis-resolved edge were already reported).
        for (i, node) in nodes.iter().enumerate() {
            if self.poisoned[i] {
                continue;
            }
            for (p, kind) in node.input_ports().iter().enumerate() {
                if self.node_inputs[i][p].is_none() && *kind != PortKind::Skip {
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
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for e in data_edges.iter().filter(|e| e.from.0 == u) {
                indegree[e.to.0] -= 1;
                if indegree[e.to.0] == 0 {
                    queue.push(e.to.0);
                }
            }
        }
        if queue.len() != n {
            let stuck: Vec<String> = (0..n).filter(|&i| indegree[i] > 0).map(|i| self.label(i)).collect();
            self.acyclic = false;
            self.report.push(Diagnostic::new(
                Rule::DataCycle,
                format!("the data edges form a cycle through: {}", stuck.join(", ")),
            ));
        } else {
            self.order = queue;
        }

        // Skip-lane validation (planner phase 4b, same reason strings).
        for e in &skip_edges {
            if let Err(reason) = self.check_skip_lane(e) {
                self.diag(Rule::IllegalSkipEdge, e.from.0, format!("skip edge `{}`: {reason}", e.label));
            }
        }
    }

    /// Validates one skip feedback lane against the Section 4.2 contract;
    /// on success records it in `skip_lanes` and `consumers`.
    fn check_skip_lane(&mut self, e: &Edge) -> Result<(), String> {
        let nodes = self.graph.nodes();
        if !matches!(nodes[e.from.0], NodeKind::Intersecter { .. }) {
            return Err("source must be an intersecter".into());
        }
        if !matches!(nodes[e.to.0], NodeKind::LevelScanner { .. }) {
            return Err("target must be a level scanner".into());
        }
        if e.dst_port.is_some_and(|p| p != 1) {
            return Err("target port must be the scanner's skip input (port 1)".into());
        }
        let scanner = e.to.0;
        let feeds = |slot: usize| self.node_inputs[e.from.0][slot].map(|p| (p.node, p.port));
        let operand = match e.src_port {
            Some(3) => 0,
            Some(4) => 1,
            Some(_) => return Err("source port must be a skip lane (port 3 or 4)".into()),
            None => match (feeds(0), feeds(1)) {
                (Some((s, 0)), _) if s == scanner => 0,
                (_, Some((s, 0))) if s == scanner => 1,
                _ => return Err("target scanner feeds neither coordinate operand".into()),
            },
        };
        if feeds(operand) != Some((scanner, 0)) {
            return Err("lane must target the scanner feeding that operand's coordinates".into());
        }
        if feeds(2 + operand) != Some((scanner, 1)) {
            return Err("the operand's reference stream must come from the same scanner".into());
        }
        if self.consumers[scanner][0].len() != 1 || self.consumers[scanner][1].len() != 1 {
            return Err("a skip-target scanner's outputs must feed only the intersecter".into());
        }
        if self
            .skip_lanes
            .iter()
            .any(|s| (s.intersecter == e.from.0 && s.operand == operand) || s.scanner == scanner)
        {
            return Err("duplicate skip lane".into());
        }
        self.consumers[e.from.0][3 + operand].push((scanner, 1));
        self.skip_lanes.push(SkipLane { intersecter: e.from.0, operand, scanner });
        Ok(())
    }

    /// The type flowing into `slot` of `node` (`Unknown` when unbound).
    fn in_type(&self, node: usize, slot: usize) -> StreamType {
        match self.node_inputs[node][slot] {
            Some(src) => self.types[src.node][src.port].clone(),
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

    /// Stream-type inference in topological order (planner phase 5 as a
    /// typing pass), plus the writer-set rules, which need no order.
    fn infer_types(&mut self) {
        let nodes = self.graph.nodes().to_vec();

        // Writer-set rules are order-free: count the values writers even
        // when a cycle blocks inference.
        let vals_writers: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, NodeKind::LevelWriter { vals: true, .. }))
            .map(|(i, _)| i)
            .collect();
        if vals_writers.is_empty() {
            self.report.push(Diagnostic::new(
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

        if !self.acyclic {
            return;
        }

        // Index variables introduced so far, in the same (topological)
        // order the planner records dimensions in.
        let mut dims: HashSet<char> = HashSet::new();

        for id in self.order.clone() {
            match &nodes[id] {
                NodeKind::Root { tensor } => {
                    if let Some(b) = self.bindings {
                        if b.get(tensor).is_none() {
                            self.unknown_tensor(id, tensor);
                        }
                    }
                    self.types[id][0] = StreamType::Ref { tensor: tensor.clone(), depth: 0 };
                }
                NodeKind::LevelScanner { tensor, index, compressed } => {
                    dims.insert(*index);
                    self.types[id][0] = StreamType::Crd { index: Some(*index) };
                    self.types[id][1] = self.descend_ref(id, 0, tensor, Some(*compressed));
                }
                NodeKind::Locator { tensor, index } => {
                    dims.insert(*index);
                    self.types[id][0] = StreamType::Crd { index: Some(*index) };
                    let down = self.descend_ref(id, 1, tensor, None);
                    self.types[id][1] = match &down {
                        // The passthrough ref stays at the parent depth.
                        StreamType::Ref { tensor, depth } => {
                            StreamType::Ref { tensor: tensor.clone(), depth: depth - 1 }
                        }
                        other => other.clone(),
                    };
                    self.types[id][2] = down;
                }
                NodeKind::Repeater { .. } => {
                    self.types[id][0] = self.in_type(id, 1);
                }
                NodeKind::Intersecter { index } | NodeKind::Unioner { index } => {
                    self.types[id][0] = StreamType::Crd { index: Some(*index) };
                    self.types[id][1] = self.in_type(id, 2);
                    self.types[id][2] = self.in_type(id, 3);
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
                    // Untracked streams stay permissive, like the planner.
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
                    self.types[id][0] = StreamType::Val;
                }
                NodeKind::ConstVal { tensor, .. } => {
                    if !tensor.is_empty() {
                        if let Some(b) = self.bindings {
                            match b.get(tensor) {
                                None => self.unknown_tensor(id, tensor),
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
                    self.types[id][0] = StreamType::Val;
                }
                NodeKind::Alu { op } => {
                    if !matches!(op.as_str(), "add" | "sub" | "mul") {
                        self.diag(
                            Rule::UnknownAluOp,
                            id,
                            format!("`{}` names unknown ALU operation `{op}`", self.label(id)),
                        );
                    }
                    self.types[id][0] = StreamType::Val;
                }
                NodeKind::Reducer { order } => {
                    match order {
                        0 => self.types[id][0] = StreamType::Val,
                        1 => {
                            self.types[id][0] = StreamType::Crd { index: None };
                            self.types[id][1] = StreamType::Val;
                        }
                        _ => {
                            self.types[id][0] = StreamType::Crd { index: None };
                            self.types[id][1] = StreamType::Crd { index: None };
                            self.types[id][2] = StreamType::Val;
                        }
                    };
                }
                NodeKind::CoordDropper { index } => {
                    self.types[id][0] = StreamType::Crd { index: Some(*index) };
                    // The inner passthrough is legitimately untracked.
                    self.types[id][1] = StreamType::Unknown;
                }
                NodeKind::LevelWriter { index, vals, .. } => {
                    if !vals && !dims.contains(index) {
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
                    for t in &mut self.types[id] {
                        *t = StreamType::Tainted;
                    }
                }
            }
        }
    }

    /// Shared scanner/locator reference descent: checks the incoming ref
    /// stream against the declared tensor and the bound storage, records
    /// nothing on taint, and returns the child-level reference type.
    ///
    /// `compressed` is the scanner's format annotation (`None` for
    /// locators, which the planner does not format-check).
    fn descend_ref(&mut self, id: usize, slot: usize, tensor: &str, compressed: Option<bool>) -> StreamType {
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
            // genuinely untracked reference, which the planner rejects.
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
}
