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
//! * **One record per node** — what the node does and every plan-time fact
//!   a backend reads to run it: a merger's kind, fused operands, the ports
//!   feeding it and its fusion region; a scanner's or locator's storage
//!   level; a writer's dimension and output level; the parsed ALU operation;
//!   the resolved constant; a reducer's order; a region member's root and
//!   wiring. Each tensor a node reads is named by its binding's position in
//!   name order, which [`Plan::check_inputs`] holds every run to. The
//!   backends and the tile schedule dispatch on the record alone: they match
//!   no `NodeKind` and look no tensor up by name.
//! * **One port table** — per output port, by the analysis' flat numbering
//!   ([`Analysis::output_ports`]), which every backend's port tables share:
//!   how many data readers the fast walk stores its stream for (none for a
//!   skip port, whose scanner input the walk leaves silent).
//! * **Scanner fusion** — every level scanner private to one operand of one
//!   intersecter ([`Analysis::private_scanner`]) is recorded as a
//!   [`FusedScan`]: the fast backend stores a stream only if somebody
//!   re-reads it.
//! * **Fusion regions** — downstream of an intersecter, the arrays, ALUs,
//!   constants, repeaters and scalar reducers fed only by it and by each
//!   other ([`Plan::region_members`]): the fast backend evaluates them
//!   inside the intersecter's walk, a block of its output positions at a
//!   time, each member reading the registers the plan wired it to, and
//!   stores only the streams the plan found leave the region.
//! * **Channels** — the fan-out tables flattened to one [`ChannelSpec`] per
//!   consumer port, so backends can insert stream forks (the `Fork` block of
//!   `sam-primitives`).

use crate::bind::Inputs;
use crate::error::{ExecError, PlanError};
use sam_core::graph::{NodeId, NodeKind, PortKind, SamGraph};
use sam_primitives::AluOp;
use sam_tensor::{LevelFormat, Tensor};
use sam_verify::{Analysis, StreamType};
pub use sam_verify::{Consumers, PortRef, SkipLane as SkipSpec};
use std::hash::{Hash, Hasher};
use std::ops::Range;

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

/// The signature of every binding a plan was built over, in name order:
/// what a plan reads of a bound tensor — its name, format and shape, and
/// the value bits of a single-element tensor, since the planner bakes
/// `ConstVal` scalars into the plan — and nothing else (not occupancy, not
/// fiber lengths). Held flat: every binding's name, level formats, and mode
/// order and shape side by side in one list each.
#[derive(Debug, Clone, Default)]
struct BindingKeys {
    names: String,
    levels: Vec<LevelFormat>,
    /// Each binding's mode order, then its shape.
    dims: Vec<usize>,
    keys: Vec<BindingKey>,
}

/// Where one binding's signature ends in [`BindingKeys`]' lists, and its
/// scalar bits.
#[derive(Debug, Clone, Copy)]
struct BindingKey {
    name: usize,
    levels: usize,
    mode_order: usize,
    shape: usize,
    scalar_bits: Option<u64>,
}

impl BindingKeys {
    /// The signatures of `inputs`.
    fn new(inputs: &Inputs) -> BindingKeys {
        let (mut names, mut levels, mut dims) = (0, 0, 0);
        for (name, tensor) in inputs.iter() {
            names += name.len();
            levels += tensor.format().levels().len();
            dims += tensor.format().mode_order().len() + tensor.shape().len();
        }
        let mut keys = BindingKeys {
            names: String::with_capacity(names),
            levels: Vec::with_capacity(levels),
            dims: Vec::with_capacity(dims),
            keys: Vec::with_capacity(inputs.len()),
        };
        for (name, tensor) in inputs.iter() {
            keys.names.push_str(name);
            keys.levels.extend_from_slice(tensor.format().levels());
            keys.dims.extend_from_slice(tensor.format().mode_order());
            let mode_order = keys.dims.len();
            keys.dims.extend_from_slice(tensor.shape());
            keys.keys.push(BindingKey {
                name: keys.names.len(),
                levels: keys.levels.len(),
                mode_order,
                shape: keys.dims.len(),
                scalar_bits: scalar_bits(tensor),
            });
        }
        keys
    }

    /// The name of the binding at position `at`.
    fn name(&self, at: usize) -> &str {
        let start = at.checked_sub(1).map_or(0, |before| self.keys[before].name);
        &self.names[start..self.keys[at].name]
    }

    /// Whether `tensor` bound as `name` has the signature of the binding at
    /// position `at`, compared in place.
    fn matches(&self, at: usize, (name, tensor): (&str, &Tensor)) -> bool {
        let key = self.keys[at];
        let (levels, dims) = at.checked_sub(1).map_or((0, 0), |b| (self.keys[b].levels, self.keys[b].shape));
        let format = tensor.format();
        self.name(at) == name
            && self.levels[levels..key.levels] == *format.levels()
            && self.dims[dims..key.mode_order] == *format.mode_order()
            && self.dims[key.mode_order..key.shape] == *tensor.shape()
            && key.scalar_bits == scalar_bits(tensor)
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

/// What a planned node does, resolved once by [`Plan::build`]: the backends
/// dispatch on it and read nothing else of the node. A tensor is named by
/// its binding's position in name order, which is where every run binds it
/// ([`Plan::check_inputs`]).
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// An intersecter or unioner: the fast walk reads its operands a fiber
    /// at a time.
    Merge(Merger),
    /// Every other node: one transfer function over its stored input
    /// streams.
    Transfer(Transfer),
}

/// An intersecter or unioner.
#[derive(Debug, Clone)]
pub(crate) struct Merger {
    pub(crate) union: bool,
    /// The scanner fused into each operand, if any (an intersecter's only).
    pub(crate) operands: [Option<FusedOperand>; 2],
    /// The ports feeding its coordinate inputs, then its reference inputs.
    pub(crate) inputs: [usize; 4],
    /// Its fusion region ([`Plan::region_members`]): where it lies in the
    /// plan's list of every region's members.
    pub(crate) members: Range<usize>,
    /// Whether each of its three outputs is read outside its fusion region.
    pub(crate) leaves: [bool; 3],
}

/// A level scanner fused into a merger operand, reading storage level
/// `level` of binding `tensor` at the references port `input` carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedOperand {
    pub(crate) scan: FusedScan,
    pub(crate) tensor: usize,
    pub(crate) level: usize,
    pub(crate) input: usize,
}

/// Every node but a merger.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Transfer {
    /// A root reference source.
    Root,
    /// A level scanner over storage level `level` of binding `tensor`.
    Scan { tensor: usize, level: usize, index: char, fused: Option<FusedScan> },
    /// A locator into storage level `level` of binding `tensor`.
    Locate { tensor: usize, level: usize, index: char },
    /// A repeater.
    Repeat,
    /// A value array over binding `tensor`'s values.
    Array { tensor: usize },
    /// A constant source: the literal, or the bound scalar's value.
    Const { value: f64 },
    /// An ALU.
    Alu { op: AluOp },
    /// A reducer of order 0 (scalar), 1 (vector) or 2 (matrix).
    Reduce { order: usize },
    /// A coordinate dropper.
    Drop,
    /// A level writer of dimension `dim`, and the output level it writes
    /// (none for a writer of another tensor than the values writer's).
    WriteLevel { dim: usize, index: char, output: Option<usize> },
    /// The values writer.
    WriteVals,
}

/// One planned node: what it does, and how its intersecter's walk
/// evaluates it when it is a member of a fusion region.
#[derive(Debug, Clone)]
pub(crate) struct Planned {
    pub(crate) op: Op,
    pub(crate) member: Option<Member>,
}

/// A member of intersecter `root`'s fusion region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    pub(crate) root: NodeId,
    /// The register each data input reads (0–2 the root's outputs, `3 + k`
    /// the `k`-th member's), or for a repeater's references their port.
    pub(crate) inputs: [usize; 2],
    /// Whether its output is read outside the region.
    pub(crate) leaves: bool,
}

/// An executable plan for one graph over one set of input bindings.
///
/// The plan owns a clone of the graph, so it stays valid independently of
/// the caller's copy; it borrows nothing. Every backend consumes the same
/// plan, which is what guarantees they run the same dataflow.
///
/// A plan runs only inputs whose bindings have the signatures it was built
/// over; each backend checks that once per run ([`ExecError::Unplanned`]).
/// Every tile tuple of a [`TiledBackend`](crate::TiledBackend) run walks
/// the run's plan unchecked: a tile keeps its tensor's name, position and
/// format, scalars ride along, and the tile merge never reads the writers'
/// dimensions.
#[derive(Debug, Clone)]
pub struct Plan {
    graph: SamGraph,
    /// The signature of each binding the plan was built over, in name order.
    bindings: BindingKeys,
    /// The clean analysis the plan was derived from: topological order,
    /// per-port producers and consumers, validated skip lanes, stream types.
    analysis: Analysis,
    /// The flattened channel topology (one entry per consumer port).
    channels: Vec<ChannelSpec>,
    /// Per node, what it does.
    nodes: Vec<Planned>,
    /// Per output port, how many data readers the fast walk stores it for.
    readers: Vec<usize>,
    /// Every fusion region's members, region after region.
    members: Vec<NodeId>,
    /// The output's level writers, outermost first.
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
        // resolution below reads: every mandatory port is bound, every
        // tensor a node reads is bound, every scanner and locator is fed a
        // typed reference stream of its own tensor, every written index
        // variable has a size, every ALU names a known operation, every
        // named constant binds a scalar, every node is of a kind the
        // backends run, and there is exactly one values writer.
        let nodes = graph.nodes();
        let n = nodes.len();

        let fanout = |node: usize| analysis.consumers_of(NodeId(node)).iter().map(<[_]>::len).sum::<usize>();
        let mut channels = Vec::with_capacity((0..n).map(fanout).sum());
        let mut readers = Vec::with_capacity(analysis.port_count());
        for node in (0..n).map(NodeId) {
            for (port, consumers) in analysis.consumers_of(node).iter().enumerate() {
                let from = PortRef { node, port };
                channels.extend(consumers.iter().map(|&(to, to_port)| ChannelSpec { from, to, to_port }));
                // A skip port feeds a scanner's skip input, which the fast
                // walk leaves silent: it has no data reader.
                let skip = nodes[node.0].output_ports()[port] == PortKind::Skip;
                readers.push(if skip { 0 } else { consumers.len() });
            }
        }

        // The output is the tensor the values writer writes: a level writer
        // of another tensor writes none of its levels. The output levels
        // follow graph declaration order (outermost first).
        let (mut vals_writer, mut output_name) = (NodeId(0), "");
        for (id, kind) in nodes.iter().enumerate() {
            if let NodeKind::LevelWriter { tensor, vals: true, .. } = kind {
                (vals_writer, output_name) = (NodeId(id), tensor);
            }
        }
        let writes_output = |kind: &NodeKind| match kind {
            NodeKind::LevelWriter { tensor, vals: false, .. } => **tensor == *output_name,
            _ => false,
        };
        let mut level_writers = Vec::with_capacity(nodes.iter().filter(|kind| writes_output(kind)).count());
        level_writers.extend((0..n).map(NodeId).filter(|w| writes_output(&nodes[w.0])));

        let position = |tensor: &str| inputs.position(tensor).unwrap_or_default();
        // The storage level a scanner or locator reads is the depth of the
        // reference stream arriving on `slot`.
        let depth_into = |id: NodeId, slot: usize| match analysis.inputs_of(id)[slot]
            .and_then(|p| analysis.stream_type(p))
        {
            Some(StreamType::Ref { depth, .. }) => *depth,
            _ => 0,
        };
        // The port feeding input `slot` of `id`, which a clean analysis binds.
        let source = |id: NodeId, slot: usize| analysis.inputs_of(id)[slot].map_or(0, |p| analysis.port(p));
        // The scanner fused into `operand` of `intersecter`, if any.
        let fused = |intersecter: NodeId, operand: usize| {
            let scanner = analysis.private_scanner(graph, intersecter, operand)?;
            let NodeKind::LevelScanner { tensor, .. } = &nodes[scanner.0] else { return None };
            let skip_lane = analysis.skip_lanes().iter().any(|lane| lane.scanner == scanner);
            let scan = FusedScan { scanner, intersecter, operand, skip_lane };
            let (tensor, level, input) = (position(tensor), depth_into(scanner, 0), source(scanner, 0));
            Some(FusedOperand { scan, tensor, level, input })
        };
        let resolve = |id: NodeId| {
            let op = match &nodes[id.0] {
                kind @ (NodeKind::Intersecter { .. } | NodeKind::Unioner { .. }) => {
                    let union = matches!(kind, NodeKind::Unioner { .. });
                    let operands = [0, 1].map(|operand| fused(id, operand));
                    let inputs = [0, 1, 2, 3].map(|slot| source(id, slot));
                    return Op::Merge(Merger { union, operands, inputs, members: 0..0, leaves: [false; 3] });
                }
                NodeKind::Root { .. } => Transfer::Root,
                NodeKind::LevelScanner { tensor, index, .. } => {
                    // A scanner's coordinates feed the intersecter operand it
                    // is fused into, if it is.
                    let into = analysis.consumers_of(id).port(0).first();
                    let fused = into.and_then(|&(to, slot)| fused(to, slot)).map(|f| f.scan);
                    Transfer::Scan {
                        tensor: position(tensor),
                        level: depth_into(id, 0),
                        index: *index,
                        fused,
                    }
                }
                NodeKind::Locator { tensor, index } => {
                    Transfer::Locate { tensor: position(tensor), level: depth_into(id, 1), index: *index }
                }
                NodeKind::Repeater { .. } => Transfer::Repeat,
                NodeKind::Array { tensor } => Transfer::Array { tensor: position(tensor) },
                NodeKind::ConstVal { tensor, bits } if tensor.is_empty() => {
                    Transfer::Const { value: f64::from_bits(*bits) }
                }
                NodeKind::ConstVal { tensor, .. } => {
                    let value = inputs.get(tensor).and_then(|t| t.vals().first().copied());
                    Transfer::Const { value: value.unwrap_or_default() }
                }
                NodeKind::Alu { op } => Transfer::Alu {
                    op: match &**op {
                        "add" => AluOp::Add,
                        "sub" => AluOp::Sub,
                        _ => AluOp::Mul,
                    },
                },
                NodeKind::Reducer { order } => Transfer::Reduce { order: *order },
                NodeKind::CoordDropper { .. } => Transfer::Drop,
                NodeKind::LevelWriter { vals: true, .. } => Transfer::WriteVals,
                NodeKind::LevelWriter { index, .. } => Transfer::WriteLevel {
                    dim: analysis.dimension(*index).unwrap_or_default(),
                    index: *index,
                    output: level_writers.iter().position(|&w| w == id),
                },
                kind @ (NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter) => {
                    unreachable!("a clean analysis admits no {kind:?}")
                }
            };
            Op::Transfer(op)
        };
        let mut planned: Vec<Planned> =
            (0..n).map(|id| Planned { op: resolve(NodeId(id)), member: None }).collect();
        let members = fusion_regions(&analysis, &mut planned);
        let output_shape = level_writers
            .iter()
            .map(|w| match planned[w.0].op {
                Op::Transfer(Transfer::WriteLevel { dim, .. }) => dim,
                _ => 0,
            })
            .collect();

        Ok(Plan {
            graph: graph.clone(),
            bindings: BindingKeys::new(inputs),
            analysis,
            channels,
            nodes: planned,
            readers,
            members,
            level_writers,
            vals_writer,
            output_name: output_name.to_string(),
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
        let mut keys = 0..self.bindings.keys.len();
        let mut bound = inputs.iter();
        loop {
            return match (keys.next(), bound.next()) {
                (None, None) => None,
                (Some(at), Some(bound)) if self.bindings.matches(at, bound) => continue,
                (Some(at), Some((name, _))) => Some(self.bindings.name(at).min(name)),
                (Some(at), None) => Some(self.bindings.name(at)),
                (None, Some((name, _))) => Some(name),
            };
        }
    }

    /// Whether this is the plan [`Plan::build`] makes of `graph` over
    /// `inputs`: bindings of the same signatures, and a graph of the same
    /// name, nodes and edges (its display labels aside, which no plan
    /// reads but to name a node in an error). The plan's copy of the graph
    /// shares its nodes and edges with the graph it was built from, which
    /// is then the same, whoever asks again.
    pub(crate) fn plans(&self, graph: &SamGraph, inputs: &Inputs) -> bool {
        fn same<T: PartialEq>(a: &[T], b: &[T]) -> bool {
            std::ptr::eq(a, b) || a == b
        }
        self.unplanned(inputs).is_none()
            && self.graph.name == graph.name
            && same(self.graph.nodes(), graph.nodes())
            && same(self.graph.edges(), graph.edges())
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
    pub fn consumers_of(&self, node: NodeId) -> Consumers<'_> {
        self.analysis.consumers_of(node)
    }

    /// The analysis, whose port numbering indexes the backends' tables.
    pub(crate) fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Per output port, how many data readers the fast walk stores it for.
    pub(crate) fn readers(&self) -> &[usize] {
        &self.readers
    }

    /// Total number of planned stream forks (ports with fan-out above one).
    pub fn fork_count(&self) -> usize {
        let ports = (0..self.graph.len()).flat_map(|node| self.consumers_of(NodeId(node)).iter());
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

    /// What `node` does, resolved.
    pub(crate) fn node(&self, node: NodeId) -> &Planned {
        &self.nodes[node.0]
    }

    /// The fusion of `node` into the intersecter it feeds, when `node` is a
    /// level scanner that passes the structural test (see [`FusedScan`]).
    /// The fast backend skips such a node; a skip target is one with
    /// `skip_lane` set.
    pub fn fused_scan(&self, node: NodeId) -> Option<FusedScan> {
        match self.nodes[node.0].op {
            Op::Transfer(Transfer::Scan { fused, .. }) => fused,
            _ => None,
        }
    }

    /// For an intersecter: the scanner fused into each operand, if any.
    /// `[None, None]` for any other node. The cycle backend lowers the
    /// `skip_lane` ones onto the block's skip channels.
    pub fn fused_operands(&self, node: NodeId) -> [Option<FusedScan>; 2] {
        match &self.nodes[node.0].op {
            Op::Merge(merger) => merger.operands.map(|operand| operand.map(|o| o.scan)),
            Op::Transfer(_) => [None, None],
        }
    }

    /// Whether the fast backend stores any stream of `node`: not of a fused
    /// scanner ([`FusedScan`]), nor of a fusion region's root or member
    /// ([`Plan::region_members`]) none of whose streams leave the region.
    pub fn stores_streams(&self, node: NodeId) -> bool {
        match &self.nodes[node.0] {
            Planned { member: Some(member), .. } => member.leaves,
            Planned { op: Op::Merge(m), .. } => m.members.is_empty() || m.leaves.contains(&true),
            Planned { op, .. } => !matches!(op, Op::Transfer(Transfer::Scan { fused: Some(_), .. })),
        }
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
        match &self.nodes[root.0].op {
            Op::Merge(merger) => &self.members[merger.members.clone()],
            Op::Transfer(_) => &[],
        }
    }

    /// The level writers of the output, outermost first.
    pub(crate) fn level_writers(&self) -> &[NodeId] {
        &self.level_writers
    }

    /// The values writer.
    pub(crate) fn vals_writer(&self) -> NodeId {
        self.vals_writer
    }

    /// Name of the output tensor.
    pub(crate) fn output_name(&self) -> &str {
        &self.output_name
    }

    /// The name of the binding at position `at`.
    pub(crate) fn binding_name(&self, at: usize) -> &str {
        self.bindings.name(at)
    }

    /// Shape of the output tensor (one dimension per level writer).
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }
}

/// Every intersecter's fusion region ([`Plan::region_members`]): each
/// member's wiring, each root's members, which are returned, region after
/// region, and which outputs of every merger and member leave its region.
fn fusion_regions(analysis: &Analysis, planned: &mut [Planned]) -> Vec<NodeId> {
    let order = analysis.order();
    let mut members = Vec::new();
    for (at, &root) in order.iter().enumerate() {
        let Op::Merge(Merger { union, .. }) = planned[root.0].op else { continue };
        let before_root = &order[..at];
        let first = members.len();
        for &id in order[at + 1..].iter().filter(|_| !union) {
            let inputs = analysis.inputs_of(id);
            // The register input `slot` reads: an output of the root or of a
            // non-reducer member, read by this node alone (0 for no slot).
            let register = |slot: usize| {
                let Some(&input) = inputs.get(slot) else { return Some(0) };
                let p = input.filter(|p| analysis.consumers_of(p.node)[p.port].len() == 1)?;
                let reducer = matches!(planned[p.node.0].op, Op::Transfer(Transfer::Reduce { .. }));
                let member = members[first..].iter().position(|&m| m == p.node).filter(|_| !reducer);
                (p.node == root).then_some(p.port).or(member.map(|k| 3 + k))
            };
            let wiring = match &planned[id.0].op {
                Op::Transfer(
                    Transfer::Array { .. }
                    | Transfer::Alu { .. }
                    | Transfer::Const { .. }
                    | Transfer::Reduce { order: 0 },
                ) => register(0).zip(register(1)),
                Op::Transfer(Transfer::Repeat) => {
                    let stored_before =
                        inputs.get(1).copied().flatten().filter(|p| before_root.contains(&p.node));
                    register(0).zip(stored_before.map(|p| analysis.port(p)))
                }
                _ => None,
            };
            if let Some((a, b)) = wiring {
                planned[id.0].member = Some(Member { root, inputs: [a, b], leaves: false });
                members.push(id);
            }
        }
        // An output leaves the region when somebody outside it reads it.
        let region = &members[first..];
        let leaves =
            |node: NodeId, port| analysis.consumers_of(node)[port].iter().any(|(r, _)| !region.contains(r));
        for &member in region {
            planned[member.0].member.iter_mut().for_each(|m| m.leaves = leaves(member, 0));
        }
        if let Op::Merge(merger) = &mut planned[root.0].op {
            (merger.members, merger.leaves) =
                (first..members.len(), [0, 1, 2].map(|port| leaves(root, port)));
        }
    }
    members
}
