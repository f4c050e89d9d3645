//! The planner: turns an arbitrary [`SamGraph`] plus bound tensors into an
//! executable [`Plan`].
//!
//! Planning performs, in order:
//!
//! 1. **Support check** — every node must be an executable primitive.
//! 2. **Port resolution** — each edge is attributed to one output port of
//!    its producer and one input port of its consumer. Explicitly wired
//!    edges (built via `sam_core::build::GraphBuilder`) are validated;
//!    unported edges are inferred from stream kinds where unambiguous.
//! 3. **Topological ordering** — Kahn's algorithm; cycles are reported with
//!    the labels of the stuck nodes.
//! 4. **Fan-out planning** — output ports feeding several consumers are
//!    recorded so backends can insert stream forks (the `Fork` block of
//!    `sam-primitives`). Skip feedback lanes are validated
//!    here, and every level scanner whose two streams feed one operand of
//!    one intersecter and nothing else is recorded as a [`FusedScan`]: the
//!    fast backend stores a stream only if somebody re-reads it.
//! 5. **Tensor binding** — reference streams are traced from the roots so
//!    every scanner/locator knows which storage level of which bound tensor
//!    it reads, output dimensions are inferred per index variable, and the
//!    output writers are collected.

use crate::bind::Inputs;
use crate::error::PlanError;
use sam_core::graph::{Edge, NodeId, NodeKind, PortKind, SamGraph, StreamKind};
use sam_primitives::AluOp;
use std::collections::HashMap;

/// A producer endpoint: output port `port` of node `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// Validation guarantees the scanner feeds exactly that operand's crd/ref
/// inputs and nothing else, so the fast backend may fuse the pair into one
/// galloping work unit while the cycle backend lowers the lane onto the
/// `sam-primitives` skip channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipSpec {
    /// The intersecter emitting skip targets.
    pub intersecter: NodeId,
    /// Which operand (0 or 1) of the intersecter the lane serves.
    pub operand: usize,
    /// The level scanner that receives the skip targets.
    pub scanner: NodeId,
}

/// A level scanner the fast backend never evaluates standalone: its
/// coordinate port and its reference port each have exactly one consumer,
/// and both consumers are the same operand of one intersecter. Nobody else
/// can observe the scanner's streams, so the intersecter pulls `(crd, ref)`
/// pairs straight from the storage level and the streams are never stored.
///
/// Every validated [`SkipSpec`] target passes this test by construction and
/// is fused with `gallop: true`; every other scanner that passes it is fused
/// with `gallop: false`, which visits (and counts) every coordinate exactly
/// as the standalone scanner would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedScan {
    /// The fused level scanner.
    pub scanner: NodeId,
    /// The intersecter that pulls from it.
    pub intersecter: NodeId,
    /// Which operand (0 or 1) of the intersecter the scanner feeds.
    pub operand: usize,
    /// Whether a skip lane lets the intersecter gallop the scanner past
    /// coordinates it cannot match (Section 4.2). Galloped-over tokens are
    /// never produced, so a galloping scanner reports no tokens.
    pub gallop: bool,
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

/// The fiber-split legality class of a node, computed by
/// [`Plan::fiber_split`]: which rule the work-stealing backend may use to
/// cut the node's input streams into independently evaluable segments.
/// Every rule cuts at fiber boundaries (or finer, where the transfer
/// function is genuinely elementwise) such that concatenating the segment
/// outputs reproduces the serial output bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FiberSplit {
    /// Never split: state spans fiber boundaries, or an operand is a fused
    /// scanner whose streams are never stored.
    No,
    /// Single-input elementwise (array loads, constant sources): cut at any
    /// position.
    Elementwise,
    /// Multi-input lockstep elementwise (ALUs, locators): cut every input
    /// at one common position.
    Lockstep,
    /// Level scanner: cut anywhere except between a data/empty token and
    /// the stop token it would merge with.
    Scanner,
    /// Repeater: cut the repeat-signal input after a stop; the matching
    /// ref-input cut follows from simulating the repeater's consumption.
    Repeater,
    /// Order-0 reducer: the accumulator resets at every stop; cut right
    /// after any stop.
    AfterStop,
    /// Order-1 reducer: cut both inputs right after a stop pair that
    /// flushes the accumulator.
    AfterStopPair,
    /// Intersect/union: stops pair up 1:1 by ordinal across operands; cut
    /// each operand right after its k-th stop.
    StopOrdinal,
}

/// Default cycle budget used by the cycle-approximate backend.
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;

/// An executable plan for one graph over one set of input bindings.
///
/// The plan owns a clone of the graph, so it stays valid independently of
/// the caller's copy; it borrows nothing. Both backends consume the same
/// plan, which is what guarantees they run the same dataflow.
#[derive(Debug, Clone)]
pub struct Plan {
    graph: SamGraph,
    order: Vec<NodeId>,
    /// Per node: the producer endpoint feeding each input port. Optional
    /// skip ports may stay `None`; every other port is guaranteed bound.
    node_inputs: Vec<Vec<Option<PortRef>>>,
    /// Per node and output port: `(consumer node, consumer input port)`.
    consumers: Vec<Vec<Vec<(NodeId, usize)>>>,
    /// The flattened channel topology (one entry per consumer port).
    channels: Vec<ChannelSpec>,
    /// Validated coordinate-skip feedback lanes.
    skip_specs: Vec<SkipSpec>,
    /// Per node: the fusion of a level scanner into the intersecter operand
    /// it feeds, `None` for every node the fast backend evaluates itself.
    fused: Vec<Option<FusedScan>>,
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
    /// Returns a [`PlanError`] describing the first structural or binding
    /// problem found; see the module docs for the validation phases.
    pub fn build(graph: &SamGraph, inputs: &Inputs) -> Result<Plan, PlanError> {
        let n = graph.len();
        let nodes = graph.nodes();

        // Phase 1: support check.
        for (node, kind) in nodes.iter().enumerate() {
            let unsupported = match kind {
                NodeKind::Parallelizer => Some("Parallelizer"),
                NodeKind::Serializer => Some("Serializer"),
                NodeKind::BitvectorConverter => Some("BitvectorConverter"),
                _ => None,
            };
            if let Some(name) = unsupported {
                return Err(PlanError::UnsupportedNode {
                    node,
                    label: graph.node_label(NodeId(node)),
                    kind: name.to_string(),
                });
            }
        }

        // Skip edges are feedback wiring, not dataflow: they are excluded
        // from port binding, topological ordering (the whitelisted cycle)
        // and fan-out planning, then validated separately in phase 4b.
        let data_edges: Vec<&Edge> = graph.edges().iter().filter(|e| e.kind != StreamKind::Skip).collect();
        let skip_edges: Vec<&Edge> = graph.edges().iter().filter(|e| e.kind == StreamKind::Skip).collect();

        // Phase 2a: attribute each data edge to a producer output port.
        let mut src_ports: Vec<usize> = Vec::with_capacity(data_edges.len());
        {
            // Track, per producer, which inferred ports were already handed out.
            let mut next_inferred: HashMap<(usize, usize), usize> = HashMap::new();
            for e in &data_edges {
                let outs = nodes[e.from.0].output_ports();
                let port = match e.src_port {
                    Some(p) => {
                        if p >= outs.len() || !outs[p].accepts(e.kind) {
                            return Err(PlanError::BadPort { edge: e.label.clone() });
                        }
                        p
                    }
                    None => {
                        let candidates: Vec<usize> =
                            (0..outs.len()).filter(|&p| outs[p].accepts(e.kind)).collect();
                        match candidates.len() {
                            0 => return Err(PlanError::BadPort { edge: e.label.clone() }),
                            1 => candidates[0],
                            _ => {
                                // Several ports carry this kind: deal them out in
                                // edge order (matching sibling-edge conventions),
                                // wrapping back to the first for pure fan-out.
                                let unported = graph
                                    .edges()
                                    .iter()
                                    .filter(|o| o.from == e.from && o.kind == e.kind && o.src_port.is_none())
                                    .count();
                                if unported > candidates.len() {
                                    return Err(PlanError::AmbiguousPort { label: graph.node_label(e.from) });
                                }
                                let key = (e.from.0, candidates[0]);
                                let idx = next_inferred.entry(key).or_insert(0);
                                let port = candidates[*idx % candidates.len()];
                                *idx += 1;
                                port
                            }
                        }
                    }
                };
                src_ports.push(port);
            }
        }

        // Phase 2b: bind each data edge to a consumer input port.
        let mut node_inputs: Vec<Vec<Option<PortRef>>> =
            nodes.iter().map(|k| vec![None; k.input_ports().len()]).collect();
        let mut dst_slots: Vec<usize> = Vec::with_capacity(data_edges.len());
        for (idx, e) in data_edges.iter().enumerate() {
            let ins = nodes[e.to.0].input_ports();
            let label = graph.node_label(e.to);
            let slot = match e.dst_port {
                Some(p) => {
                    if p >= ins.len() || !ins[p].accepts(e.kind) {
                        return Err(PlanError::BadPort { edge: e.label.clone() });
                    }
                    if node_inputs[e.to.0][p].is_some() {
                        return Err(PlanError::DuplicateInput { label, port: p });
                    }
                    p
                }
                None => (0..ins.len())
                    .find(|&p| ins[p].accepts(e.kind) && node_inputs[e.to.0][p].is_none())
                    .ok_or(PlanError::ExtraInput { label, edge: e.label.clone() })?,
            };
            node_inputs[e.to.0][slot] = Some(PortRef { node: e.from, port: src_ports[idx] });
            dst_slots.push(slot);
        }
        // Unbound inputs are an error everywhere except the optional skip
        // ports, which stay `None` when no skip edge targets them.
        for (i, slots) in node_inputs.iter().enumerate() {
            let ins = nodes[i].input_ports();
            for (p, s) in slots.iter().enumerate() {
                if s.is_none() && ins[p] != PortKind::Skip {
                    return Err(PlanError::UnboundInput { label: graph.node_label(NodeId(i)), port: p });
                }
            }
        }

        // Phase 3: topological order (Kahn) over the data edges; the skip
        // feedback edges are the one legal kind of cycle.
        let mut indegree = vec![0usize; n];
        for e in &data_edges {
            indegree[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(NodeId(u));
            for e in data_edges.iter().filter(|e| e.from.0 == u) {
                indegree[e.to.0] -= 1;
                if indegree[e.to.0] == 0 {
                    queue.push(e.to.0);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).filter(|&i| indegree[i] > 0).map(|i| graph.node_label(NodeId(i))).collect();
            return Err(PlanError::Cycle { stuck });
        }

        // Phase 4: fan-out per output port, and the channel topology the
        // backends materialize (forks become one channel per consumer).
        let mut consumers: Vec<Vec<Vec<(NodeId, usize)>>> =
            nodes.iter().map(|k| vec![Vec::new(); k.output_ports().len()]).collect();
        for (idx, e) in data_edges.iter().enumerate() {
            consumers[e.from.0][src_ports[idx]].push((e.to, dst_slots[idx]));
        }

        // Phase 4b: validate the coordinate-skip feedback lanes. A lane must
        // run from an intersecter back to the level scanner that feeds one
        // of its coordinate operands, and that scanner's outputs must feed
        // only the intersecter — which is what lets the fast backend fuse
        // the pair into one galloping work unit (and keeps the cycle
        // backend's skip channels free of fork ambiguity).
        let mut skip_specs: Vec<SkipSpec> = Vec::new();
        let mut gallops = vec![false; n];
        for e in &skip_edges {
            let bad =
                |reason: &str| PlanError::BadSkipEdge { edge: e.label.clone(), reason: reason.to_string() };
            if !matches!(nodes[e.from.0], NodeKind::Intersecter { .. }) {
                return Err(bad("source must be an intersecter"));
            }
            if !matches!(nodes[e.to.0], NodeKind::LevelScanner { .. }) {
                return Err(bad("target must be a level scanner"));
            }
            if e.dst_port.is_some_and(|p| p != 1) {
                return Err(bad("target port must be the scanner's skip input (port 1)"));
            }
            let scanner = e.to;
            let feeds = |slot: usize| node_inputs[e.from.0][slot].map(|p| (p.node, p.port));
            let operand = match e.src_port {
                Some(3) => 0,
                Some(4) => 1,
                Some(_) => return Err(bad("source port must be a skip lane (port 3 or 4)")),
                None => match (feeds(0), feeds(1)) {
                    (Some((s, 0)), _) if s == scanner => 0,
                    (_, Some((s, 0))) if s == scanner => 1,
                    _ => return Err(bad("target scanner feeds neither coordinate operand")),
                },
            };
            if feeds(operand) != Some((scanner, 0)) {
                return Err(bad("lane must target the scanner feeding that operand's coordinates"));
            }
            if feeds(2 + operand) != Some((scanner, 1)) {
                return Err(bad("the operand's reference stream must come from the same scanner"));
            }
            if consumers[scanner.0][0].len() != 1 || consumers[scanner.0][1].len() != 1 {
                return Err(bad("a skip-target scanner's outputs must feed only the intersecter"));
            }
            if skip_specs
                .iter()
                .any(|s| (s.intersecter == e.from && s.operand == operand) || s.scanner == scanner)
            {
                return Err(bad("duplicate skip lane"));
            }
            consumers[e.from.0][3 + operand].push((scanner, 1));
            skip_specs.push(SkipSpec { intersecter: e.from, operand, scanner });
            gallops[scanner.0] = true;
        }

        // Phase 4c: scanner fusion. The structural test phase 4b applies to
        // skip targets, applied to every level scanner: both output ports
        // have one consumer, and the two consumers are the crd and ref
        // inputs of one operand of one intersecter.
        let fused: Vec<Option<FusedScan>> = (0..n)
            .map(|s| {
                if !matches!(nodes[s], NodeKind::LevelScanner { .. }) {
                    return None;
                }
                let ([(crd_to, operand)], [(ref_to, ref_slot)]) =
                    (&consumers[s][0][..], &consumers[s][1][..])
                else {
                    return None;
                };
                let fusable = crd_to == ref_to
                    && matches!(nodes[crd_to.0], NodeKind::Intersecter { .. })
                    && *operand < 2
                    && *ref_slot == 2 + operand;
                fusable.then_some(FusedScan {
                    scanner: NodeId(s),
                    intersecter: *crd_to,
                    operand: *operand,
                    gallop: gallops[s],
                })
            })
            .collect();
        debug_assert!(
            skip_specs.iter().all(|s| fused[s.scanner.0].is_some_and(|f| f.gallop)),
            "every validated skip target is fusable"
        );

        let channels: Vec<ChannelSpec> = consumers
            .iter()
            .enumerate()
            .flat_map(|(node, ports)| {
                ports.iter().enumerate().flat_map(move |(port, conns)| {
                    conns.iter().map(move |&(to, to_port)| ChannelSpec {
                        from: PortRef { node: NodeId(node), port },
                        to,
                        to_port,
                    })
                })
            })
            .collect();

        // Phase 5: tensor binding along reference streams.
        let mut scan_levels = vec![0usize; n];
        let mut writer_dims = vec![0usize; n];
        let mut alu_ops: Vec<Option<AluOp>> = vec![None; n];
        let mut const_vals: Vec<Option<f64>> = vec![None; n];
        let mut ref_ann: HashMap<(usize, usize), (String, usize)> = HashMap::new();
        let mut dims: HashMap<char, usize> = HashMap::new();
        let mut level_writers = Vec::new();
        let mut vals_writer: Option<NodeId> = None;
        let mut output_name = String::new();

        // The rank validation at value arrays delegates to the static
        // verifier's stream-type inference — one implementation of the
        // tensor/depth trace instead of two drifting apart. The planner's
        // own `ref_ann` stays authoritative for scanner depths (it also
        // feeds the stream-size estimates below).
        let verify_bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
        let verifier = sam_verify::Analysis::run(graph, Some(&verify_bindings));

        let lookup_ref = |ref_ann: &HashMap<(usize, usize), (String, usize)>,
                          p: &PortRef,
                          label: String,
                          expected: &str|
         -> Result<(String, usize), PlanError> {
            match ref_ann.get(&(p.node.0, p.port)) {
                Some(ann) => Ok(ann.clone()),
                None => Err(PlanError::TensorMismatch {
                    label,
                    expected: expected.to_string(),
                    found: "<untracked>".to_string(),
                }),
            }
        };

        for &id in &order {
            let kind = &nodes[id.0];
            match kind {
                NodeKind::Root { tensor } => {
                    if inputs.get(tensor).is_none() {
                        return Err(PlanError::UnknownTensor { name: tensor.clone() });
                    }
                    ref_ann.insert((id.0, 0), (tensor.clone(), 0));
                }
                NodeKind::LevelScanner { tensor, index, compressed } => {
                    let src = &node_inputs[id.0][0].expect("bound data port");
                    let (t, depth) = lookup_ref(&ref_ann, src, graph.node_label(id), tensor)?;
                    if &t != tensor {
                        return Err(PlanError::TensorMismatch {
                            label: graph.node_label(id),
                            expected: tensor.clone(),
                            found: t,
                        });
                    }
                    let bound =
                        inputs.get(tensor).ok_or(PlanError::UnknownTensor { name: tensor.clone() })?;
                    if depth >= bound.levels().len() {
                        return Err(PlanError::LevelOutOfRange { tensor: tensor.clone(), level: depth });
                    }
                    let level = bound.level(depth);
                    if level.is_dense() == *compressed {
                        return Err(PlanError::FormatMismatch { tensor: tensor.clone(), level: depth });
                    }
                    scan_levels[id.0] = depth;
                    dims.entry(*index).or_insert_with(|| level.dimension());
                    ref_ann.insert((id.0, 1), (tensor.clone(), depth + 1));
                }
                NodeKind::Locator { tensor, index } => {
                    let src = &node_inputs[id.0][1].expect("bound data port");
                    let (t, depth) = lookup_ref(&ref_ann, src, graph.node_label(id), tensor)?;
                    if &t != tensor {
                        return Err(PlanError::TensorMismatch {
                            label: graph.node_label(id),
                            expected: tensor.clone(),
                            found: t,
                        });
                    }
                    let bound =
                        inputs.get(tensor).ok_or(PlanError::UnknownTensor { name: tensor.clone() })?;
                    if depth >= bound.levels().len() {
                        return Err(PlanError::LevelOutOfRange { tensor: tensor.clone(), level: depth });
                    }
                    scan_levels[id.0] = depth;
                    dims.entry(*index).or_insert_with(|| bound.level(depth).dimension());
                    ref_ann.insert((id.0, 1), (tensor.clone(), depth));
                    ref_ann.insert((id.0, 2), (tensor.clone(), depth + 1));
                }
                NodeKind::Repeater { .. } => {
                    let src = &node_inputs[id.0][1].expect("bound data port");
                    if let Some(ann) = ref_ann.get(&(src.node.0, src.port)).cloned() {
                        ref_ann.insert((id.0, 0), ann);
                    }
                }
                NodeKind::Intersecter { .. } | NodeKind::Unioner { .. } => {
                    for (slot, port) in [(2usize, 1usize), (3, 2)] {
                        let src = &node_inputs[id.0][slot].expect("bound data port");
                        if let Some(ann) = ref_ann.get(&(src.node.0, src.port)).cloned() {
                            ref_ann.insert((id.0, port), ann);
                        }
                    }
                }
                NodeKind::Array { tensor } => {
                    let Some(bound) = inputs.get(tensor) else {
                        return Err(PlanError::UnknownTensor { name: tensor.clone() });
                    };
                    // Rank validation: a value array reads references into
                    // the values, which only exist below the *last* storage
                    // level. A traced reference stream of another tensor is
                    // a wiring bug; one that stops short of the last level
                    // means the graph never consumed the tensor's deeper
                    // levels (e.g. a matrix bound to a vector kernel) and
                    // would silently read wrong positions. Untracked
                    // streams (e.g. routed through a coordinate dropper)
                    // stay permissive and fail at execution if wrong. The
                    // trace itself is the verifier's.
                    let src = &node_inputs[id.0][0].expect("bound data port");
                    debug_assert_eq!(
                        verifier.ref_annotation(src.node.0, src.port),
                        ref_ann.get(&(src.node.0, src.port)).map(|(t, d)| (t.as_str(), *d)),
                        "verifier and planner disagree on the reference trace into `{}`",
                        graph.node_label(id)
                    );
                    if let Some((t, depth)) = verifier.ref_annotation(src.node.0, src.port) {
                        if t != tensor {
                            return Err(PlanError::TensorMismatch {
                                label: graph.node_label(id),
                                expected: tensor.clone(),
                                found: t.to_string(),
                            });
                        }
                        if depth != bound.levels().len() {
                            return Err(PlanError::RankMismatch {
                                tensor: tensor.clone(),
                                consumed: depth,
                                levels: bound.levels().len(),
                            });
                        }
                    }
                }
                NodeKind::Alu { op } => {
                    alu_ops[id.0] = Some(match op.as_str() {
                        "add" => AluOp::Add,
                        "sub" => AluOp::Sub,
                        "mul" => AluOp::Mul,
                        other => return Err(PlanError::UnknownAluOp { op: other.to_string() }),
                    });
                }
                NodeKind::ConstVal { tensor, bits } => {
                    const_vals[id.0] = Some(if tensor.is_empty() {
                        f64::from_bits(*bits)
                    } else {
                        // A zero-index access: the bound tensor must be a
                        // genuine scalar — one stored value AND every
                        // dimension 1 (see `Inputs::scalar`). A higher-rank
                        // tensor that happens to hold a single nonzero is a
                        // misbinding, not a scalar.
                        let bound =
                            inputs.get(tensor).ok_or(PlanError::UnknownTensor { name: tensor.clone() })?;
                        if bound.vals().len() != 1 || bound.levels().iter().any(|l| l.dimension() > 1) {
                            return Err(PlanError::NotScalar {
                                tensor: tensor.clone(),
                                vals: bound.vals().len(),
                                dims: bound.levels().iter().map(|l| l.dimension()).collect(),
                            });
                        }
                        bound.vals()[0]
                    });
                }
                NodeKind::LevelWriter { tensor, index, vals } => {
                    output_name = tensor.clone();
                    if *vals {
                        if vals_writer.is_some() {
                            return Err(PlanError::MultipleValsWriters);
                        }
                        vals_writer = Some(id);
                    } else {
                        let dim = *dims.get(index).ok_or(PlanError::UnknownDimension { index: *index })?;
                        writer_dims[id.0] = dim;
                        level_writers.push(id);
                    }
                }
                NodeKind::Reducer { .. } | NodeKind::CoordDropper { .. } => {}
                NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter => {
                    unreachable!("rejected in phase 1")
                }
            }
        }
        let vals_writer = vals_writer.ok_or(PlanError::MissingValsWriter)?;
        // Writers are visited in dependency order above; the output levels
        // must follow graph declaration order (outermost first).
        level_writers.sort_unstable();
        let output_shape = level_writers.iter().map(|w| writer_dims[w.0]).collect();

        Ok(Plan {
            graph: graph.clone(),
            order,
            node_inputs,
            consumers,
            channels,
            skip_specs,
            fused,
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

    /// The display label of a planned node: the builder/compiler override
    /// when one was attached (e.g. `intersect(j: B,C)`), otherwise the node
    /// kind's generic label. Error messages and execution traces use this.
    pub fn node_label(&self, node: NodeId) -> String {
        self.graph.node_label(node)
    }

    /// Nodes in topological order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The producer endpoints feeding each input port of `node`. Every
    /// entry is `Some` except optional skip ports left unwired.
    pub fn inputs_of(&self, node: NodeId) -> &[Option<PortRef>] {
        &self.node_inputs[node.0]
    }

    /// The consumers of each output port of `node`.
    pub fn consumers_of(&self, node: NodeId) -> &[Vec<(NodeId, usize)>] {
        &self.consumers[node.0]
    }

    /// Total number of planned stream forks (ports with fan-out above one).
    pub fn fork_count(&self) -> usize {
        self.consumers.iter().flatten().filter(|c| c.len() > 1).count()
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
        &self.skip_specs
    }

    /// How (and whether) a node's evaluation may be split into independent
    /// segments at fiber boundaries for the work-stealing backend. The
    /// variant names the per-kind cut legality rule implemented in the
    /// `split` module; [`FiberSplit::No`] covers operators whose state
    /// spans fiber boundaries (order-2 reducers flush only at `Done`,
    /// coordinate droppers buffer across their merge) and every node
    /// involved in scanner fusion, whose streams are never stored.
    pub(crate) fn fiber_split(&self, node: NodeId) -> FiberSplit {
        if self.fused_scan(node).is_some() || self.fused_operands(node).iter().any(Option::is_some) {
            return FiberSplit::No;
        }
        match &self.graph.nodes()[node.0] {
            NodeKind::LevelScanner { .. } => FiberSplit::Scanner,
            NodeKind::Repeater { .. } => FiberSplit::Repeater,
            NodeKind::Intersecter { .. } | NodeKind::Unioner { .. } => FiberSplit::StopOrdinal,
            NodeKind::Alu { .. } | NodeKind::Locator { .. } => FiberSplit::Lockstep,
            NodeKind::Array { .. } | NodeKind::ConstVal { .. } => FiberSplit::Elementwise,
            NodeKind::Reducer { order } => match order {
                0 => FiberSplit::AfterStop,
                1 => FiberSplit::AfterStopPair,
                _ => FiberSplit::No,
            },
            _ => FiberSplit::No,
        }
    }

    /// The fusion of `node` into the intersecter it feeds, when `node` is a
    /// level scanner that passes the structural test (see [`FusedScan`]).
    /// The fast backend skips such a node; a skip target is one with
    /// `gallop` set.
    pub fn fused_scan(&self, node: NodeId) -> Option<FusedScan> {
        self.fused[node.0]
    }

    /// For an intersecter: the scanner fused into each operand, if any.
    /// `[None, None]` for any other node. The cycle backend lowers the
    /// `gallop` ones onto the block's skip channels.
    pub fn fused_operands(&self, node: NodeId) -> [Option<FusedScan>; 2] {
        [0, 1].map(|operand| {
            let crd = self.node_inputs[node.0].get(operand).copied().flatten()?;
            self.fused[crd.node.0].filter(|f| f.intersecter == node && f.operand == operand)
        })
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
