//! The planner: turns an arbitrary [`SamGraph`] plus bound tensors into an
//! executable [`Plan`].
//!
//! All validation and all resolution is `sam-verify`'s: [`Plan::build`] runs
//! one bound [`Analysis`] — support check, port resolution, topological
//! order, skip-lane validation, reference trace, every binding rule — and
//! rejects on any error diagnostic. A clean analysis *is* the plan's
//! topology; on top of it the planner derives only what execution needs and
//! the analysis does not know:
//!
//! * **Scanner fusion** — every level scanner private to one operand of one
//!   intersecter ([`Analysis::private_scanner`]) is recorded as a
//!   [`FusedScan`]: the fast backend stores a stream only if somebody
//!   re-reads it.
//! * **Fusion regions** — downstream of an intersecter, the arrays, ALUs,
//!   constants, repeaters and scalar reducers fed only by it and by each
//!   other ([`Plan::region_members`]): the fast backend evaluates them
//!   inside the intersecter's walk, a block of its output positions at a
//!   time, and stores only the streams that leave the region.
//! * **Channels** — the fan-out tables flattened to one [`ChannelSpec`] per
//!   consumer port, so backends can insert stream forks (the `Fork` block of
//!   `sam-primitives`).
//! * **Tensor binding** — which storage level each scanner/locator reads
//!   (the depth of the reference stream feeding it), each level writer's
//!   output dimension, parsed ALU operations, resolved constants, and the
//!   output writers.

use crate::bind::Inputs;
use crate::error::{ExecError, PlanError};
use sam_core::graph::{NodeId, NodeKind, SamGraph};
use sam_primitives::AluOp;
use sam_tensor::{Tensor, TensorFormat};
use sam_verify::{Analysis, StreamType};
pub use sam_verify::{PortRef, SkipLane as SkipSpec};
use std::hash::{Hash, Hasher};

/// A level scanner the fast backend never evaluates standalone: its
/// coordinate port and its reference port each have exactly one consumer,
/// and both consumers are the same operand of one intersecter
/// ([`Analysis::private_scanner`]). Nobody else can observe the scanner's
/// streams, so the intersecter pulls `(crd, ref)` pairs straight from the
/// storage level and the streams are never stored.
///
/// The fast backend walks every fused scanner the same way — galloped on
/// mismatch, tail jumped — so `skip_lane` does not change what the host
/// does. It says only that the graph wires a Section 4.2 lane to this
/// scanner (every validated [`SkipSpec`] target passed the same structural
/// test), which decides two things: the cycle backend lowers the lane onto
/// the block's skip channels, and the fast backend reports no tokens for
/// the scanner, because how many the lane saves depends on cycle-level
/// timing. Every other fused scanner reports exactly what the standalone
/// scanner would have emitted, skipped coordinates included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedScan {
    /// The fused level scanner.
    pub scanner: NodeId,
    /// The intersecter that pulls from it.
    pub intersecter: NodeId,
    /// Which operand (0 or 1) of the intersecter the scanner feeds.
    pub operand: usize,
    /// Whether the graph wires a skip lane (Section 4.2) from the
    /// intersecter back to this scanner.
    pub skip_lane: bool,
}

/// One planned point-to-point stream channel.
///
/// The planner emits exactly one channel per (producer port, consumer
/// port) pair; an output port with several consumers appears in several
/// channels — that is the planner's fork, which the cycle backend
/// materializes as a `Fork` block and the fast backend as several readers
/// of one stored stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSpec {
    /// The producing endpoint.
    pub from: PortRef,
    /// The consuming node.
    pub to: NodeId,
    /// The consuming node's input-port index.
    pub to_port: usize,
}

/// Default cycle budget used by the cycle-approximate backend.
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;

/// One bound tensor as a plan reads it: its name, format and shape, and
/// the value bits of a single-element tensor, since the planner bakes
/// `ConstVal` scalars into the plan. A plan reads nothing else of its
/// inputs (not occupancy, not fiber lengths).
#[derive(Debug, Clone)]
struct BindingKey {
    name: String,
    format: TensorFormat,
    shape: Vec<usize>,
    scalar_bits: Option<u64>,
}

impl BindingKey {
    /// The signature of `tensor` bound as `name`.
    fn new((name, tensor): (&str, &Tensor)) -> BindingKey {
        let (format, shape) = (tensor.format().clone(), tensor.shape().to_vec());
        BindingKey { name: name.to_string(), format, shape, scalar_bits: scalar_bits(tensor) }
    }

    /// Whether `tensor` bound as `name` has this signature, compared in
    /// place.
    fn matches(&self, (name, tensor): (&str, &Tensor)) -> bool {
        self.name == name
            && self.format == *tensor.format()
            && self.shape == tensor.shape()
            && self.scalar_bits == scalar_bits(tensor)
    }
}

/// The value bits of a tensor the planner reads as a scalar (its own test:
/// one stored value, every dimension 1).
fn scalar_bits(tensor: &Tensor) -> Option<u64> {
    match tensor.vals() {
        [v] if tensor.shape().iter().all(|&d| d == 1) => Some(v.to_bits()),
        _ => None,
    }
}

/// Feeds the signature of `tensor` bound as `name` to `state`: what a plan
/// reads of the binding, hashed in place.
pub(crate) fn hash_binding((name, tensor): (&str, &Tensor), state: &mut impl Hasher) {
    name.hash(state);
    tensor.format().hash(state);
    tensor.shape().hash(state);
    scalar_bits(tensor).hash(state);
}

/// An executable plan for one graph over one set of input bindings.
///
/// The plan owns a clone of the graph, so it stays valid independently of
/// the caller's copy; it borrows nothing. Both backends consume the same
/// plan, which is what guarantees they run the same dataflow.
///
/// A plan runs only inputs whose bindings have the signatures it was built
/// over; each backend checks that once per run ([`ExecError::Unplanned`]).
/// Every tile tuple of a [`TiledBackend`](crate::TiledBackend) run walks
/// the run's plan unchecked: a tile keeps its tensor's format, scalars
/// ride along, and the tile merge never reads the writers' dimensions.
#[derive(Debug, Clone)]
pub struct Plan {
    graph: SamGraph,
    /// The signature of each binding the plan was built over, by name.
    bindings: Vec<BindingKey>,
    /// The clean analysis the plan was derived from: topological order,
    /// per-port producers and consumers, validated skip lanes, stream types.
    analysis: Analysis,
    /// The flattened channel topology (one entry per consumer port).
    channels: Vec<ChannelSpec>,
    /// Per node: the fusion of a level scanner into the intersecter operand
    /// it feeds, `None` for every node the fast backend evaluates itself.
    fused: Vec<Option<FusedScan>>,
    /// Per node: the intersecter whose walk evaluates it, for a member of
    /// a fusion region.
    region_roots: Vec<Option<NodeId>>,
    /// Per node: an intersecter's fusion-region members in topological
    /// order; empty for every other node.
    region_members: Vec<Vec<NodeId>>,
    /// Per node: storage level read by scanners and locators.
    scan_levels: Vec<usize>,
    /// Per node: output dimension of level writers.
    writer_dims: Vec<usize>,
    /// Per node: parsed ALU operation.
    alu_ops: Vec<Option<AluOp>>,
    /// Per node: resolved constant of a `ConstVal` source (the literal, or
    /// the bound single-value tensor's value).
    const_vals: Vec<Option<f64>>,
    level_writers: Vec<NodeId>,
    vals_writer: NodeId,
    output_name: String,
    output_shape: Vec<usize>,
}

impl Plan {
    /// Plans `graph` for execution over `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Rejected`] carrying every error diagnostic of
    /// the bound analysis when there is one.
    pub fn build(graph: &SamGraph, inputs: &Inputs) -> Result<Plan, PlanError> {
        let bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
        let analysis = Analysis::run(graph, Some(&bindings));
        if analysis.report.has_errors() {
            return Err(PlanError::Rejected { diagnostics: analysis.report.errors().cloned().collect() });
        }
        // From here on the analysis is clean, which guarantees what the
        // derivations below read: every mandatory port is bound, every
        // scanner and locator is fed a typed reference stream of its own
        // bound tensor, every written index variable has a size, every ALU
        // names a known operation, every named constant binds a scalar, and
        // there is exactly one values writer.
        let n = graph.len();
        let nodes = graph.nodes();

        let mut fused: Vec<Option<FusedScan>> = vec![None; n];
        for intersecter in (0..n).map(NodeId) {
            for operand in 0..2 {
                if let Some(scanner) = analysis.private_scanner(graph, intersecter, operand) {
                    let skip_lane = analysis.skip_lanes().iter().any(|lane| lane.scanner == scanner);
                    fused[scanner.0] = Some(FusedScan { scanner, intersecter, operand, skip_lane });
                }
            }
        }

        let (region_roots, region_members) = fusion_regions(graph, &analysis);

        let channels: Vec<ChannelSpec> = (0..n)
            .map(NodeId)
            .flat_map(|node| {
                analysis.consumers_of(node).iter().enumerate().flat_map(move |(port, conns)| {
                    conns.iter().map(move |&(to, to_port)| ChannelSpec {
                        from: PortRef { node, port },
                        to,
                        to_port,
                    })
                })
            })
            .collect();

        let mut scan_levels = vec![0usize; n];
        let mut writer_dims = vec![0usize; n];
        let mut alu_ops: Vec<Option<AluOp>> = vec![None; n];
        let mut const_vals: Vec<Option<f64>> = vec![None; n];
        let mut level_writers = Vec::new();
        let mut vals_writer = None;
        let mut output_name = String::new();
        // The storage level a scanner or locator reads is the depth of the
        // reference stream arriving on `slot`.
        let depth_into =
            |id: NodeId, slot: usize| match analysis.stream_type(analysis.inputs_of(id)[slot]?)? {
                StreamType::Ref { depth, .. } => Some(*depth),
                _ => None,
            };
        for &id in analysis.order() {
            match &nodes[id.0] {
                NodeKind::LevelScanner { .. } => scan_levels[id.0] = depth_into(id, 0).unwrap_or_default(),
                NodeKind::Locator { .. } => scan_levels[id.0] = depth_into(id, 1).unwrap_or_default(),
                NodeKind::Alu { op } => {
                    alu_ops[id.0] = match op.as_str() {
                        "add" => Some(AluOp::Add),
                        "sub" => Some(AluOp::Sub),
                        "mul" => Some(AluOp::Mul),
                        _ => None,
                    };
                }
                NodeKind::ConstVal { tensor, bits } => {
                    const_vals[id.0] = if tensor.is_empty() {
                        Some(f64::from_bits(*bits))
                    } else {
                        inputs.get(tensor).and_then(|bound| bound.vals().first().copied())
                    };
                }
                NodeKind::LevelWriter { tensor, index, vals } => {
                    if *vals {
                        output_name = tensor.clone();
                        vals_writer = Some(id);
                    } else {
                        writer_dims[id.0] = analysis.dimension(*index).unwrap_or_default();
                        level_writers.push(id);
                    }
                }
                _ => {}
            }
        }
        let vals_writer = vals_writer.expect("a clean analysis has exactly one values writer");
        // The output is the tensor the values writer writes: a level writer
        // of another tensor writes none of its levels. Writers are visited
        // in dependency order above; the output levels follow graph
        // declaration order (outermost first).
        level_writers.retain(|w: &NodeId| {
            matches!(&graph.nodes()[w.0], NodeKind::LevelWriter { tensor, .. } if *tensor == output_name)
        });
        level_writers.sort_unstable();
        let output_shape = level_writers.iter().map(|w| writer_dims[w.0]).collect();

        Ok(Plan {
            graph: graph.clone(),
            bindings: inputs.iter().map(BindingKey::new).collect(),
            analysis,
            channels,
            fused,
            region_roots,
            region_members,
            scan_levels,
            writer_dims,
            alu_ops,
            const_vals,
            level_writers,
            vals_writer,
            output_name,
            output_shape,
        })
    }

    /// The planned graph.
    pub fn graph(&self) -> &SamGraph {
        &self.graph
    }

    /// Checks that `inputs` have the signatures the plan was built over
    /// (each binding's name, format and shape, and the value of a scalar):
    /// the check every backend runs before it runs the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Unplanned`] naming the first binding, in name
    /// order, that differs.
    pub fn check_inputs(&self, inputs: &Inputs) -> Result<(), ExecError> {
        match self.unplanned(inputs) {
            None => Ok(()),
            Some(differs) => Err(ExecError::Unplanned { tensor: differs.to_string() }),
        }
    }

    /// The first binding, in name order, whose signature differs between
    /// `inputs` and the inputs the plan was built over.
    fn unplanned<'a>(&'a self, inputs: &'a Inputs) -> Option<&'a str> {
        let mut keys = self.bindings.iter();
        let mut bound = inputs.iter();
        loop {
            return match (keys.next(), bound.next()) {
                (None, None) => None,
                (Some(key), Some(b)) if key.matches(b) => continue,
                (Some(key), Some((name, _))) => Some(key.name.as_str().min(name)),
                (Some(key), None) => Some(&key.name),
                (None, Some((name, _))) => Some(name),
            };
        }
    }

    /// Whether this is the plan [`Plan::build`] makes of `graph` over
    /// `inputs`: bindings of the same signatures, and a graph of the same
    /// name, nodes and edges (its display labels aside, which no plan
    /// reads but to name a node in an error).
    pub(crate) fn plans(&self, graph: &SamGraph, inputs: &Inputs) -> bool {
        self.unplanned(inputs).is_none()
            && self.graph.name == graph.name
            && self.graph.nodes() == graph.nodes()
            && self.graph.edges() == graph.edges()
    }

    /// The display label of a planned node: the builder/compiler override
    /// when one was attached (e.g. `intersect(j: B,C)`), otherwise the node
    /// kind's generic label. Error messages and execution traces use this.
    pub fn node_label(&self, node: NodeId) -> String {
        self.graph.node_label(node)
    }

    /// Nodes in topological order.
    pub fn order(&self) -> &[NodeId] {
        self.analysis.order()
    }

    /// The producer endpoints feeding each input port of `node`. Every
    /// entry is `Some` except optional skip ports left unwired.
    pub fn inputs_of(&self, node: NodeId) -> &[Option<PortRef>] {
        self.analysis.inputs_of(node)
    }

    /// The consumers of each output port of `node`.
    pub fn consumers_of(&self, node: NodeId) -> &[Vec<(NodeId, usize)>] {
        self.analysis.consumers_of(node)
    }

    /// Total number of planned stream forks (ports with fan-out above one).
    pub fn fork_count(&self) -> usize {
        let ports = (0..self.graph.len()).flat_map(|node| self.consumers_of(NodeId(node)));
        ports.filter(|consumers| consumers.len() > 1).count()
    }

    /// The planned channel topology: one [`ChannelSpec`] per (producer
    /// port, consumer port) pair, forks already expanded. Skip feedback
    /// lanes appear here too (from the intersecter's skip output port back
    /// to the scanner's skip input port).
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// The validated coordinate-skip feedback lanes (paper Section 4.2).
    pub fn skip_specs(&self) -> &[SkipSpec] {
        self.analysis.skip_lanes()
    }

    /// The fusion of `node` into the intersecter it feeds, when `node` is a
    /// level scanner that passes the structural test (see [`FusedScan`]).
    /// The fast backend skips such a node; a skip target is one with
    /// `skip_lane` set.
    pub fn fused_scan(&self, node: NodeId) -> Option<FusedScan> {
        self.fused[node.0]
    }

    /// For an intersecter: the scanner fused into each operand, if any.
    /// `[None, None]` for any other node. The cycle backend lowers the
    /// `skip_lane` ones onto the block's skip channels.
    pub fn fused_operands(&self, node: NodeId) -> [Option<FusedScan>; 2] {
        [0, 1].map(|operand| {
            let crd = self.inputs_of(node).get(operand).copied().flatten()?;
            self.fused[crd.node.0].filter(|f| f.intersecter == node && f.operand == operand)
        })
    }

    /// The intersecter whose walk evaluates `node` on the fast backend,
    /// when `node` is a member of its fusion region (see
    /// [`Plan::region_members`]). The fast backend skips such a node.
    pub fn region_root(&self, node: NodeId) -> Option<NodeId> {
        self.region_roots[node.0]
    }

    /// The fusion region of an intersecter: the nodes the fast backend
    /// evaluates inside its walk, a block of its output positions at a
    /// time, in topological order. Empty for any other node, and for an
    /// intersecter nothing downstream qualifies for.
    ///
    /// A member is an array, ALU, constant source, repeater or scalar
    /// (order-0) reducer whose every data input is an output of the root
    /// or of an earlier member that nobody else reads. The exception is a
    /// repeater's reference input, which may be any stream produced before
    /// the root in topological order: it is stored by then. A reducer
    /// emits a variable number of tokens a position, so no member reads
    /// one. None of these kinds has a skip port, so no member has a skip
    /// lane. A member's output that anybody outside the region reads is
    /// stored as usual; every other stream of the region is only counted.
    pub fn region_members(&self, root: NodeId) -> &[NodeId] {
        &self.region_members[root.0]
    }

    /// The storage level a scanner or locator reads.
    pub fn scan_level(&self, node: NodeId) -> usize {
        self.scan_levels[node.0]
    }

    /// The output dimension of a level writer.
    pub fn writer_dim(&self, node: NodeId) -> usize {
        self.writer_dims[node.0]
    }

    /// The parsed operation of an ALU node.
    pub fn alu_op(&self, node: NodeId) -> AluOp {
        self.alu_ops[node.0].expect("validated ALU")
    }

    /// The resolved scalar of a `ConstVal` source node.
    pub fn const_val(&self, node: NodeId) -> f64 {
        self.const_vals[node.0].expect("validated constant")
    }

    /// The level writers in output-level order (outermost first).
    pub fn level_writers(&self) -> &[NodeId] {
        &self.level_writers
    }

    /// The values writer.
    pub fn vals_writer(&self) -> NodeId {
        self.vals_writer
    }

    /// Name of the output tensor.
    pub fn output_name(&self) -> &str {
        &self.output_name
    }

    /// Shape of the output tensor (one dimension per level writer).
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }
}

/// Every intersecter's fusion region ([`Plan::region_members`]): per node
/// the root of the region it is a member of, and per root its members.
fn fusion_regions(graph: &SamGraph, analysis: &Analysis) -> (Vec<Option<NodeId>>, Vec<Vec<NodeId>>) {
    let nodes = graph.nodes();
    let order = analysis.order();
    let mut roots: Vec<Option<NodeId>> = vec![None; nodes.len()];
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
    for (at, &root) in order.iter().enumerate() {
        if !matches!(nodes[root.0], NodeKind::Intersecter { .. }) {
            continue;
        }
        let before_root = &order[..at];
        for &id in &order[at + 1..] {
            // An output of the root or of a non-reducer member, read by
            // this node alone.
            let internal = |p: &Option<PortRef>| {
                p.is_some_and(|p| {
                    let from_region = p.node == root
                        || (roots[p.node.0] == Some(root)
                            && !matches!(nodes[p.node.0], NodeKind::Reducer { .. }));
                    from_region && analysis.consumers_of(p.node)[p.port].len() == 1
                })
            };
            let inputs = analysis.inputs_of(id);
            let member = match &nodes[id.0] {
                NodeKind::Array { .. }
                | NodeKind::Alu { .. }
                | NodeKind::ConstVal { .. }
                | NodeKind::Reducer { order: 0 } => inputs.iter().all(internal),
                NodeKind::Repeater { .. } => {
                    let stored_before =
                        |p: &Option<PortRef>| p.is_some_and(|p| before_root.contains(&p.node));
                    inputs.len() == 2 && internal(&inputs[0]) && stored_before(&inputs[1])
                }
                _ => false,
            };
            if member {
                roots[id.0] = Some(root);
                members[root.0].push(id);
            }
        }
    }
    (roots, members)
}
