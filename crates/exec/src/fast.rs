//! The fast functional backend: evaluates the planned graph without
//! per-cycle simulation, one node at a time on the calling thread.
//!
//! Where the cycle-approximate backend ticks every block once per simulated
//! cycle, this backend applies each node's *transfer function* (the
//! crate-internal `node` module) directly to its token streams, in one walk
//! over the plan's topological order. No scheduler, no channels, no
//! synchronization.
//!
//! **Stored only if it leaves the region.** A level scanner whose two
//! streams feed one operand of one intersecter and nothing else
//! ([`FusedScan`]) is never evaluated: the intersecter reads the scanner's
//! reference input itself. Every intersecter and unioner runs one merge
//! walk: each operand is read a fiber at a time — a fused scanner's
//! reference stream one item per reference, carrying the stop that closes
//! it (the cycle scanner's rule, `sam_primitives::rule::scan`), or stored
//! `(crd, ref)` streams cut at their stops — and each fiber
//! pair is merged whole, straight over the levels' coordinate arrays where
//! both operands are fused over `Compressed` or `Dense` levels. The
//! intersecter gallops the trailing side on every mismatch and pushes only
//! the matches, so its walk costs the short side; the unioner pushes every
//! coordinate. Where one side of two fused `Compressed` operands
//! re-delivers the same fiber pair after pair (a repeater upstream of its
//! scanner) and that fiber holds at least 32 entries, the intersecter
//! locates instead: it indexes the fiber's coordinates once and probes the
//! index with each fiber of the other side, pushing the same matches.
//!
//! Downstream, the arrays, ALUs, constants, repeaters and scalar reducers
//! that only an intersecter and each other read form its fusion region
//! ([`Plan::region_members`]). Each position the walk pushes — a match's
//! coordinate and two references, or one stop or done on all three — goes
//! to the merger's region (memberless for a unioner): the region buffers
//! a block of positions and runs each member's token rule
//! (`sam_primitives::rule`, the one its cycle block calls) over it in
//! topological order, the same rules the stored transfer functions loop
//! over. A stream is stored only if somebody outside the
//! region reads it; the members are skipped when the walk reaches them.
//!
//! Tokens are counted *where they are produced or skipped*: a stored
//! stream by its length when its producer finishes, a region's stream by
//! the count the region keeps, a fused scanner by the tally its reader
//! keeps — a fiber of `n` entries is `n` coordinate and `n` reference
//! tokens, walked or not — credited to the producing node's id, so
//! `Execution::tokens` and the per-node [`TokenCounts`] are what they would
//! be had every stream been stored: they count what the SAM graph moves,
//! not what the host touched — the same ones the cycle backend produces.
//! (The exception is a scanner with a Section 4.2 skip lane, which reports
//! nothing: how many tokens the lane saves the cycle-level scanner depends
//! on when the skip requests arrive.) A fused scanner's and a region
//! member's time is part of its intersecter's.
//!
//! **Released at the last reader.** The walk owns a table of stored streams
//! (`StreamTable`) and drops each one the moment its last data reader has
//! run; ports nobody reads are dropped as soon as they are counted. Peak
//! memory is the live set, not the sum of all streams.
//!
//! **Named once, on failure.** A transfer function reports a fault without
//! naming its node; the walk attaches [`Plan::node_label`] when it turns
//! the fault into an [`ExecError`], so every error spells a node the same
//! way and an untraced run that succeeds formats no label at all. A fault
//! inside a fusion region re-runs the intersecter without its members and
//! sends them to their own places in the order, so the run fails
//! where, and naming the node that, the stored walk would. A traced run
//! formats each label once, up front, however many tiles re-run the walk.
//!
//! ```
//! use custard::graphs;
//! use sam_exec::{BackendSpec, ExecRequest, Inputs};
//! use sam_tensor::{synth, TensorFormat};
//!
//! let graph = graphs::spmv();
//! let b = synth::random_matrix_sparsity(60, 40, 0.9, 7);
//! let c = synth::random_vector(40, 40, 8);
//! let inputs = Inputs::new()
//!     .coo("B", &b, TensorFormat::dcsr())
//!     .coo("c", &c, TensorFormat::dense_vec());
//! let fast = ExecRequest::new(&graph, &inputs).run().unwrap();
//! let cycle = ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).run().unwrap();
//! assert_eq!(fast.backend, "fast-serial");
//! assert_eq!(fast.output.unwrap(), cycle.output.unwrap());
//! ```

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::node::{
    eval_node, run_merge, scanner_level, FiberReader, NodeJob, Operand, Region, RegionPort, SliceSource,
    Step, StoredReader, WriterOutput,
};
use crate::plan::{FusedScan, Plan, PortRef};
use crate::{assemble_output, Execution, Executor};
use sam_core::graph::{NodeId, NodeKind};
use sam_primitives::rule::{self, ScalarReduce};
use sam_sim::{Fault, SimToken};
use sam_trace::{TokenCounts, TraceSink};
use std::collections::HashMap;
use std::time::Instant;

type Stream = Vec<SimToken>;

/// One output port's stored stream and how many of its data readers have
/// yet to run.
struct Slot {
    stream: Option<Stream>,
    readers: usize,
}

/// The table of stored streams, per node and output port.
struct StreamTable {
    slots: Vec<Vec<Slot>>,
}

impl StreamTable {
    /// An empty table sized for `plan`, with every port's data readers
    /// counted from [`Plan::consumers_of`]. An intersecter's skip ports (3
    /// and 4) stay silent in the fast backend, so the scanners' skip inputs
    /// they feed are not readers.
    fn new(plan: &Plan) -> Self {
        let slots = plan
            .graph()
            .nodes()
            .iter()
            .enumerate()
            .map(|(node, kind)| {
                let skip_from = if matches!(kind, NodeKind::Intersecter { .. }) { 3 } else { usize::MAX };
                plan.consumers_of(NodeId(node))
                    .iter()
                    .enumerate()
                    .map(|(port, consumers)| Slot {
                        stream: None,
                        readers: if port < skip_from { consumers.len() } else { 0 },
                    })
                    .collect()
            })
            .collect();
        StreamTable { slots }
    }

    /// Takes ownership of `node`'s freshly produced streams, keeping the
    /// ports somebody will read and dropping the rest at once.
    fn store(&mut self, node: NodeId, outs: Vec<Stream>) {
        for (slot, stream) in self.slots[node.0].iter_mut().zip(outs) {
            if slot.readers > 0 {
                slot.stream = Some(stream);
            }
        }
    }

    /// The stored stream behind `p`. Topological order guarantees the
    /// producer ran; the reader count guarantees it is still held.
    fn get(&self, p: PortRef) -> &Stream {
        self.slots[p.node.0][p.port].stream.as_ref().expect("stream stored until its last reader has run")
    }

    /// Records that one data reader of `p` has run; the last one frees it.
    fn release(&mut self, p: PortRef) {
        let slot = &mut self.slots[p.node.0][p.port];
        slot.readers -= 1;
        if slot.readers == 0 {
            slot.stream = None;
        }
    }
}

/// Classifies one node's freshly produced streams.
fn classify(outs: &[Stream]) -> TokenCounts {
    let mut counts = TokenCounts::default();
    for token in outs.iter().flatten() {
        counts.record(token);
    }
    counts
}

/// Registers every planned node with `trace` and returns the labels the
/// walk names its spans with, formatted once per run; nothing when the
/// sink is disabled.
pub(crate) fn define_nodes(plan: &Plan, trace: &dyn TraceSink) -> Vec<String> {
    if !trace.enabled() {
        return Vec::new();
    }
    let labels: Vec<String> = (0..plan.graph().len()).map(|node| plan.node_label(NodeId(node))).collect();
    for &id in plan.order() {
        trace.define_node(id.0, &labels[id.0]);
    }
    labels
}

/// The two operands of merger `id`: a fused scanner read from its storage
/// level, or the stored streams.
fn operands<'a>(plan: &Plan, inputs: &'a Inputs, streams: &'a StreamTable, id: NodeId) -> [Operand<'a>; 2] {
    let stream = |p: Option<PortRef>| streams.get(p.expect("bound data port"));
    let lanes = plan.fused_operands(id);
    [0, 1].map(|o| match lanes[o] {
        Some(f) => Operand::Scan(FiberReader::new(
            scanner_level(plan, inputs, f.scanner),
            SliceSource::new(stream(plan.inputs_of(f.scanner)[0])),
        )),
        None => Operand::Stored(StoredReader::new(
            stream(plan.inputs_of(id)[o]),
            stream(plan.inputs_of(id)[2 + o]),
        )),
    })
}

/// Merger `root`'s fusion region with `members` (none when the root re-runs
/// after its region faulted), ready for its walk: one step per member,
/// reading the registers its inputs' producers write.
fn region<'a>(
    plan: &Plan,
    inputs: &'a Inputs,
    streams: &'a StreamTable,
    root: NodeId,
    members: &[NodeId],
    classify: bool,
) -> Region<'a> {
    // Whether anybody outside the region reads output `p`.
    let leaves =
        |p: PortRef| plan.consumers_of(p.node)[p.port].iter().any(|(reader, _)| !members.contains(reader));
    let reg = |p: Option<PortRef>| match p {
        Some(p) if p.node == root => p.port,
        Some(p) => 3 + members.iter().position(|&m| m == p.node).unwrap_or_default(),
        None => 0,
    };
    let mut region = Region::new([0, 1, 2].map(|port| leaves(PortRef { node: root, port })), classify);
    for &id in members {
        let ins = plan.inputs_of(id);
        let step = match &plan.graph().nodes()[id.0] {
            NodeKind::Array { tensor } => Step::Array {
                vals: inputs.get(tensor).expect("validated binding").vals(),
                input: reg(ins[0]),
            },
            NodeKind::ConstVal { .. } => Step::Const { value: plan.const_val(id), input: reg(ins[0]) },
            NodeKind::Alu { .. } => Step::Alu { op: plan.alu_op(id), a: reg(ins[0]), b: reg(ins[1]) },
            NodeKind::Repeater { .. } => Step::Repeat {
                rule: rule::Repeat::default(),
                refs: SliceSource::new(streams.get(ins[1].expect("bound data port"))),
                crd: reg(ins[0]),
            },
            // The one kind left: a scalar reducer.
            _ => Step::Reduce { reduce: ScalarReduce::default(), input: reg(ins[0]) },
        };
        region.push_member(step, leaves(PortRef { node: id, port: 0 }));
    }
    region
}

/// What a merger's walk produced.
struct MergeRun {
    /// The tallies of the merger's fused scanners.
    emitted: [Option<TokenCounts>; 2],
    /// How many tokens the merger produced, and their classes when the run
    /// is traced.
    root: (u64, TokenCounts),
    /// Each member of its fusion region and its output port.
    members: Vec<(NodeId, RegionPort)>,
}

/// Runs merger `root` — with its fusion region if `fused` — its streams
/// that leave the region into `outs`, which a fault leaves untouched.
fn run_merger(
    plan: &Plan,
    inputs: &Inputs,
    streams: &StreamTable,
    root: NodeId,
    classify: bool,
    fused: bool,
    outs: &mut [Stream],
) -> Result<MergeRun, Fault> {
    let members = if fused { plan.region_members(root) } else { &[] };
    let mut region = region(plan, inputs, streams, root, members, classify);
    let [mut a, mut b] = operands(plan, inputs, streams, root);
    if matches!(plan.graph().nodes()[root.0], NodeKind::Unioner { .. }) {
        run_merge::<true>(&mut a, &mut b, &mut region)?;
    } else {
        run_merge::<false>(&mut a, &mut b, &mut region)?;
    }
    let (root_ports, ports) = region.finish();
    let mut counts = (0, TokenCounts::default());
    for (out, port) in outs.iter_mut().zip(root_ports) {
        counts.0 += port.len;
        counts.1 += port.tally;
        *out = port.stored.unwrap_or_default();
    }
    Ok(MergeRun {
        emitted: [a.emitted(), b.emitted()],
        root: counts,
        members: members.iter().copied().zip(ports).collect(),
    })
}

/// Runs plans functionally, without per-cycle simulation: every node
/// evaluates whole, in topological order, on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastBackend;

impl Executor for FastBackend {
    fn name(&self) -> &'static str {
        "fast-serial"
    }

    fn run_traced(
        &self,
        plan: &Plan,
        inputs: &Inputs,
        trace: &dyn TraceSink,
    ) -> Result<Execution, ExecError> {
        walk(plan, inputs, trace, &define_nodes(plan, trace))
    }
}

/// The walk behind [`FastBackend`], with the nodes already defined on
/// `trace` under `labels` ([`define_nodes`]; empty when untraced).
pub(crate) fn walk(
    plan: &Plan,
    inputs: &Inputs,
    trace: &dyn TraceSink,
    labels: &[String],
) -> Result<Execution, ExecError> {
    let start = Instant::now();
    let tracing = trace.enabled();
    let mut streams = StreamTable::new(plan);
    let mut tokens = 0u64;
    let mut level_results: HashMap<usize, sam_tensor::level::CompressedLevel> = HashMap::new();
    let mut vals_result: Option<Vec<f64>> = None;
    // Roots whose region faulted. They and their members run unfused, each
    // in its own place in the order, so the run fails exactly where the
    // stored walk fails, naming the same node.
    let mut unfused: Vec<NodeId> = Vec::new();

    for &id in plan.order() {
        let in_region = plan.region_root(id).is_some_and(|root| !unfused.contains(&root));
        if plan.fused_scan(id).is_some() || in_region {
            // Read by its intersecter, or evaluated inside its walk.
            continue;
        }
        let node_start = tracing.then(Instant::now);
        let mut outs = vec![Stream::new(); plan.consumers_of(id).len()];
        let lanes = plan.fused_operands(id);
        let mut merged = None;
        if matches!(plan.graph().nodes()[id.0], NodeKind::Intersecter { .. } | NodeKind::Unioner { .. }) {
            let mut run = run_merger(plan, inputs, &streams, id, tracing, true, &mut outs);
            if run.is_err() && !plan.region_members(id).is_empty() {
                unfused.push(id);
                run = run_merger(plan, inputs, &streams, id, tracing, false, &mut outs);
            }
            let run = run.map_err(|f| ExecError::at(f, plan.node_label(id)))?;
            for (lane, emitted) in lanes.iter().zip(run.emitted) {
                // Counted where produced or skipped, credited to the
                // scanner. A lane scanner keeps reporting nothing.
                if let (Some(FusedScan { scanner, skip_lane: false, .. }), Some(counts)) = (lane, emitted) {
                    tokens += counts.total();
                    if tracing {
                        trace.record_tokens(scanner.0, counts);
                    }
                }
            }
            merged = Some(run);
        } else {
            let job = NodeJob::build(plan, inputs, id);
            let mut srcs: Vec<SliceSource<'_>> =
                plan.inputs_of(id).iter().flatten().map(|&p| SliceSource::new(streams.get(p))).collect();
            match eval_node(&job, &mut srcs, &mut outs).map_err(|f| ExecError::at(f, plan.node_label(id)))? {
                Some(WriterOutput::Level(level)) => {
                    level_results.insert(id.0, level);
                }
                Some(WriterOutput::Vals(vals)) => vals_result = Some(vals),
                None => {}
            }
        }
        if let Some(node_start) = node_start {
            let elapsed_ns = node_start.elapsed().as_nanos() as u64;
            let start_ns = (node_start - start).as_nanos() as u64;
            trace.record_invocations(id.0, 1);
            trace.record_node_wall(id.0, elapsed_ns);
            trace.record_span("serial", &labels[id.0], start_ns, elapsed_ns);
            trace.record_tokens(id.0, merged.as_ref().map_or_else(|| classify(&outs), |run| run.root.1));
        }
        tokens += merged.as_ref().map_or_else(|| outs.iter().map(|s| s.len() as u64).sum(), |run| run.root.0);
        streams.store(id, outs);
        // This node was one reader of each of its inputs; an operand
        // with a fused scanner read the scanner's input in its place
        // (the scanner's own streams were never stored).
        for &p in plan.inputs_of(id).iter().flatten() {
            streams.release(p);
        }
        for lane in lanes.iter().flatten() {
            streams.release(plan.inputs_of(lane.scanner)[0].expect("bound data port"));
        }
        // A region member: tallied, stored if read outside the region, and
        // one reader of each of its inputs (an internal one was never
        // stored; releasing it only settles its reader count).
        for (member, port) in merged.map(|run| run.members).unwrap_or_default() {
            tokens += port.len;
            if tracing {
                trace.record_tokens(member.0, port.tally);
            }
            streams.store(member, vec![port.stored.unwrap_or_default()]);
            for &p in plan.inputs_of(member).iter().flatten() {
                streams.release(p);
            }
        }
    }

    let levels: Vec<_> = plan
        .level_writers()
        .iter()
        .map(|w| level_results.remove(&w.0).ok_or(ExecError::IncompleteOutput { label: plan.node_label(*w) }))
        .collect::<Result<_, _>>()?;
    let vals =
        vals_result.ok_or(ExecError::IncompleteOutput { label: plan.node_label(plan.vals_writer()) })?;
    let output = assemble_output(plan, levels, &vals)?;

    Ok(Execution {
        backend: "fast-serial",
        output,
        vals,
        cycles: None,
        blocks: plan.graph().len(),
        channels: plan.channels().len(),
        tokens,
        memory: None,
        elapsed: start.elapsed(),
        profile: trace.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::tok;
    use sam_tensor::{synth, TensorFormat};

    #[test]
    fn a_stream_with_two_readers_survives_until_the_second_has_run() {
        // SpMV forks B's row coordinates to a repeater and to the writer;
        // the row scanner's references have one reader, the column scanner.
        let graph = custard::graphs::spmv();
        let inputs = Inputs::new()
            .coo("B", &synth::random_matrix_sparsity(10, 8, 0.8, 3), TensorFormat::dcsr())
            .coo("c", &synth::random_vector(8, 8, 4), TensorFormat::dense_vec());
        let plan = Plan::build(&graph, &inputs).unwrap();
        let scanner = *plan
            .order()
            .iter()
            .find(|id| matches!(graph.nodes()[id.0], NodeKind::LevelScanner { .. }))
            .expect("spmv scans B");
        let (crd, rf) = (PortRef { node: scanner, port: 0 }, PortRef { node: scanner, port: 1 });
        assert_eq!(plan.consumers_of(scanner)[0].len(), 2);

        let mut streams = StreamTable::new(&plan);
        streams.store(scanner, vec![vec![tok::crd(1), tok::done()], vec![tok::rf(0), tok::done()]]);
        streams.release(rf);
        assert!(streams.slots[scanner.0][1].stream.is_none(), "sole reader ran: freed");
        streams.release(crd);
        assert_eq!(streams.get(crd).len(), 2, "one of two readers ran: still stored");
        streams.release(crd);
        assert!(streams.slots[scanner.0][0].stream.is_none(), "last reader ran: freed");

        // A port nobody reads is never stored: an intersecter's silent skip
        // ports feed only skip inputs, which are not readers.
        let skip = custard::graphs::spmv_with_skip();
        let inputs = Inputs::new()
            .coo("B", &synth::random_matrix_sparsity(10, 8, 0.8, 3), TensorFormat::dcsr())
            .coo("c", &synth::random_vector(8, 3, 4), TensorFormat::sparse_vec());
        let plan = Plan::build(&skip, &inputs).unwrap();
        let isect = plan.skip_specs()[0].intersecter;
        let mut streams = StreamTable::new(&plan);
        streams.store(isect, vec![vec![tok::done()]; 5]);
        assert!(streams.slots[isect.0][3].stream.is_none() && streams.slots[isect.0][4].stream.is_none());
        assert!(streams.slots[isect.0][1].stream.is_some());
    }
}
