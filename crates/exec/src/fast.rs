//! The fast functional backend: evaluates the planned graph without
//! per-cycle simulation, applying each node's *transfer function* (the
//! crate-internal `node` module) to its token streams in one walk over the
//! plan's topological order, on the calling thread: no scheduler, no
//! channels, no synchronization. The walk dispatches on each node's plan
//! record and reads each tensor at the binding position the record names.
//!
//! **Fused scanners and regions.** A level scanner whose two streams feed one
//! operand of one intersecter and nothing else
//! ([`FusedScan`](crate::FusedScan)) is never evaluated: the intersecter
//! reads the scanner's reference input itself. Every intersecter and unioner
//! runs one merge walk. It reads each operand a fiber at a time — a fused
//! scanner's reference stream one item per reference, with the stop that
//! closes it (`sam_primitives::rule::scan`), or stored `(crd, ref)` streams
//! cut at their stops — and merges each fiber pair whole by the cycle
//! mergers' rule, `sam_primitives::rule::merge`, straight over the levels'
//! coordinate arrays where both operands are fused over `Compressed` or
//! `Dense` levels. The intersecter gallops the trailing side, so its walk
//! costs the short side; where one side of two fused `Compressed` operands
//! re-delivers one fiber of 32 or more entries pair after pair (a repeater
//! upstream of its scanner), it indexes that fiber once and probes it with
//! each fiber of the other side. Each position the walk pushes — a match's
//! coordinate and two references, or one stop or done on all three — goes to
//! the merger's fusion region ([`Plan::region_members`]; memberless for a
//! unioner), which buffers a block of positions and runs each member's token
//! rule over it in topological order (`sam_primitives::rule`, the one its
//! cycle block and its stored loop call).
//!
//! Tokens are counted *where they are produced or skipped*: a stored stream
//! by its length, a region's stream by the count the region keeps, a fused
//! scanner by its reader's tally (a fiber of `n` entries is `n` coordinate
//! and `n` reference tokens, walked or not), each credited to the producing
//! node. So `Execution::tokens` and the per-node [`TokenCounts`] are the
//! cycle backend's: what the SAM graph moves, not what the host touched. A
//! scanner with a Section 4.2 skip lane reports nothing (what the lane saves
//! depends on when the skip requests arrive). A fused scanner's and a region
//! member's time is part of its intersecter's.
//!
//! **Decided by the plan, released at the last reader.** [`Plan::build`]
//! decides once what the walk stores: each output port's data-reader count
//! (a skip port has none), which register each region member reads, and
//! which of a region's ports leave it, the only region streams stored. The
//! walk keeps one slot per output port, at the port's flat number in the
//! plan's analysis, and each walk starts by copying the plan's counts into
//! it. A stream is released the moment its last reader has run, a port
//! nobody reads as soon as it is counted, so a walk that succeeds leaves
//! every slot empty and every count spent. A released buffer is not freed:
//! emptied, it goes to the workspace's spares, and the next stream stored —
//! a port, a region's stored port or its register file — takes it instead of
//! allocating. A buffer the walk allocates starts with room for a small
//! kernel's stream, and a region's register file starts a few positions wide
//! and doubles after each full block. Peak memory is the live set plus the
//! spares, not the sum of all streams. The writers' arrays are spares too: a
//! caller done with a walk's levels and values (the tiled backend, once it
//! has merged a tuple's output) hands them back for the next walk's writers.
//! The tiled backend keeps one workspace per run, so each tuple's walk starts
//! from what the tuple before it grew.
//!
//! **Kept by the instance.** A [`FastBackend`] keeps the workspace of its
//! last run, so a second run of a plan stores its streams in the buffers the
//! first one grew and allocates only its output. It keeps only what that run
//! used: the spares it took, each trimmed to twice the longest stream it held
//! or to a fresh buffer's room if that is more; a failed run keeps nothing.
//! A run that finds the workspace held by another thread walks a fresh one
//! rather than wait. [`BackendSpec::build`](crate::BackendSpec::build) makes
//! a fresh instance; a caller that runs many plans keeps one and hands it to
//! [`ExecRequest::executor`](crate::ExecRequest::executor).
//!
//! **Named once, on failure.** The walk attaches [`Plan::node_label`] when it
//! turns a transfer function's fault into an [`ExecError`], so an untraced
//! run that succeeds formats no label. A fault inside a fusion region re-runs
//! the intersecter without its members, which then run in their own places,
//! so the run fails where, and naming the node that, the stored walk would. A
//! traced run formats each label once, however many tiles re-run the walk.
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
    eval_node, run_merge, FiberReader, Operand, Region, RegionPort, SliceSource, Step, StoredReader,
};
use crate::plan::{FusedOperand, Member, Merger, Op, Plan, Transfer};
use crate::{assemble_output, Execution, Executor};
use sam_core::graph::NodeId;
use sam_primitives::rule::{self, LevelWrite, Reduce, ValWrite};
use sam_sim::{Fault, SimToken};
use sam_tensor::level::CompressedLevel;
use sam_trace::{TokenCounts, TraceSink};
use std::fmt;
use std::ops::Range;
use std::sync::{Mutex, TryLockError};
use std::time::Instant;

type Stream = Vec<SimToken>;

/// What one walk needs besides its plan and inputs, kept across walks — the
/// tile tuples of one tiled run, the runs of one [`FastBackend`] — so that a
/// walk starts from the buffers the walk before it grew instead of from
/// empty `Vec`s.
#[derive(Default)]
pub(crate) struct Workspace {
    /// Every stored stream's buffer and every writer's arrays, taken and
    /// handed back.
    spares: Spares,
    streams: StreamTable,
    /// The streams of the node being evaluated.
    outs: Vec<Stream>,
    /// Per level writer of the plan, the level it wrote, until the walk
    /// ends.
    written: Vec<Option<CompressedLevel>>,
    /// The list a walk returns its levels in, handed back empty.
    levels: Vec<CompressedLevel>,
}

impl Workspace {
    /// Readies the workspace for a walk over `plan`, keeping every buffer a
    /// failed walk left behind as a spare.
    fn reset(&mut self, plan: &Plan) {
        for stream in self.outs.drain(..) {
            self.spares.give(stream);
        }
        // One slot per output port, holding the plan's reader count.
        for stream in self.streams.slots.drain(..).filter_map(|slot| slot.stream) {
            self.spares.give(stream);
        }
        let readers = plan.readers().iter().map(|&readers| Slot { stream: None, readers });
        self.streams.slots.extend(readers);
        for level in self.written.drain(..).flatten() {
            self.spares.give_level(level);
        }
        self.written.resize_with(plan.level_writers().len(), || None);
        self.spares.untaken = self.spares.streams.len();
        self.spares.held.clear();
    }

    /// Keeps, of what a walk that succeeded leaves, only what it used: the
    /// spare buffers it took, each at most twice as long as the longest
    /// stream it held, or [`FRESH`]. A repeated walk of one plan stores no
    /// longer stream in it, so it finds every buffer it needs already grown.
    /// (An address a buffer left when it grew may come back for another
    /// buffer; that only lets the other one keep more.)
    fn trim(&mut self) {
        let Spares { streams, untaken, held, .. } = &mut self.spares;
        // Spares are taken from the end, so those below the lowest point the
        // stack reached were never taken.
        streams.drain(..*untaken);
        for stream in streams.iter_mut() {
            let longest = held.iter().find(|(at, _)| *at == stream.as_ptr() as usize).map_or(0, |h| h.1);
            stream.shrink_to((2 * longest).max(FRESH));
        }
    }

    /// Whether every data reader of the last walk has run and every stream
    /// it stored has gone back: what a walk that succeeded leaves.
    pub(crate) fn drained(&self) -> bool {
        self.streams.slots.iter().all(|slot| slot.stream.is_none() && slot.readers == 0)
    }

    /// Keeps the arrays of a walk's output, once its caller has read them,
    /// for the writers of the next walk.
    pub(crate) fn recycle(&mut self, written: Written) {
        let Written { mut levels, vals, .. } = written;
        for level in levels.drain(..) {
            self.spares.give_level(level);
        }
        self.spares.vals.push(vals);
        self.levels = levels;
    }
}

/// Spare buffers, each keeping the capacity its last user grew it to: a
/// stream or a writer that takes one from here fills it without
/// reallocating. The fast walk hands a stream back, emptied, when its last
/// reader has run, and a region its registers when it finishes; the tiled
/// backend hands back the arrays of each tuple's output once it has merged
/// them, and a writer empties them when it takes them.
#[derive(Default)]
pub(crate) struct Spares {
    streams: Vec<Stream>,
    /// Since the walk began: the fewest spare buffers `streams` held, and
    /// per buffer handed back — by the address of its storage, which stays
    /// put until it grows — the longest stream it held ([`Workspace::trim`]).
    untaken: usize,
    held: Vec<(usize, usize)>,
    /// Level writers' coordinate and segment arrays.
    crd: Vec<Vec<u32>>,
    seg: Vec<Vec<usize>>,
    /// Values writers' arrays.
    vals: Vec<Vec<f64>>,
    /// A fusion region's step list and its members' port list, empty.
    pub(crate) steps: Vec<Step<'static>>,
    pub(crate) ports: Vec<RegionPort>,
}

/// A stream buffer the walk allocates has room for this many tokens (4 KB):
/// a Table 1 kernel's streams over small operands fit, so a fresh walk's
/// streams do not grow 4 → 8 → … → 256 by reallocating. A kept buffer is
/// trimmed to no less.
const FRESH: usize = 256;

impl Spares {
    /// An empty buffer: the last one handed back, or a new one with room
    /// for [`FRESH`] tokens.
    pub(crate) fn take(&mut self) -> Stream {
        let stream = self.streams.pop().unwrap_or_else(|| Vec::with_capacity(FRESH));
        self.untaken = self.untaken.min(self.streams.len());
        stream
    }

    /// Keeps `stream`'s buffer, emptied, for a later stream; one that
    /// never allocated is dropped.
    pub(crate) fn give(&mut self, mut stream: Stream) {
        if stream.capacity() > 0 {
            let at = stream.as_ptr() as usize;
            match self.held.iter_mut().find(|(held, _)| *held == at) {
                Some((_, longest)) => *longest = (*longest).max(stream.len()),
                None => self.held.push((at, stream.len())),
            }
            stream.clear();
            self.streams.push(stream);
        }
    }

    /// A level writer of dimension `dim` over the last arrays handed back, or new ones.
    pub(crate) fn level_writer(&mut self, dim: usize) -> LevelWrite {
        LevelWrite::reusing(dim, self.crd.pop().unwrap_or_default(), self.seg.pop().unwrap_or_default())
    }

    /// A values writer over the last array handed back, or a new one.
    pub(crate) fn val_writer(&mut self) -> ValWrite {
        ValWrite::reusing(self.vals.pop().unwrap_or_default())
    }

    /// Keeps a written level's arrays for a later level writer.
    fn give_level(&mut self, level: CompressedLevel) {
        self.crd.push(level.crd);
        self.seg.push(level.seg);
    }
}

/// One output port's stored stream and how many of its data readers have
/// yet to run.
struct Slot {
    stream: Option<Stream>,
    readers: usize,
}

/// The table of stored streams: one slot per output port of the plan, at
/// the port's flat number ([`sam_verify::Analysis::output_ports`]).
#[derive(Default)]
struct StreamTable {
    slots: Vec<Slot>,
}

impl StreamTable {
    /// Takes ownership of the freshly produced streams of output `ports`,
    /// keeping the ports somebody will read and handing the rest to
    /// `spares` at once.
    fn store(&mut self, ports: Range<usize>, outs: impl IntoIterator<Item = Stream>, spares: &mut Spares) {
        for (slot, stream) in self.slots[ports].iter_mut().zip(outs) {
            if slot.readers > 0 {
                slot.stream = Some(stream);
            } else {
                spares.give(stream);
            }
        }
    }

    /// The stored stream of output `port`. Topological order guarantees the
    /// producer ran; the reader count guarantees it is still held.
    fn get(&self, port: usize) -> &Stream {
        self.slots[port].stream.as_ref().expect("stream stored until its last reader has run")
    }

    /// Records that `node` has run, one data reader of each of its inputs.
    fn release_inputs(&mut self, plan: &Plan, node: NodeId, spares: &mut Spares) {
        for &p in plan.inputs_of(node).iter().flatten() {
            self.release(plan.analysis().port(p), spares);
        }
    }

    /// Records that one data reader of output `port` has run; the last one
    /// hands its stream to `spares`.
    fn release(&mut self, port: usize, spares: &mut Spares) {
        let slot = &mut self.slots[port];
        slot.readers -= 1;
        if slot.readers == 0 {
            spares.give(slot.stream.take().unwrap_or_default());
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

/// What a merger's walk produced.
struct MergeRun {
    /// The tallies of the merger's fused scanners.
    emitted: [Option<TokenCounts>; 2],
    /// How many tokens the merger produced, and their classes when the run
    /// is traced.
    root: (u64, TokenCounts),
    /// Its three streams, empty where they do not leave the region.
    streams: [Stream; 3],
    /// The output port of each member of its fusion region, in
    /// [`Plan::region_members`] order; none when it ran unfused.
    ports: Vec<RegionPort>,
}

/// Runs merger `root` with its fusion region: one step per member, reading
/// the registers the plan wired it to. Unless `fused`, the region is
/// memberless and stores all three outputs (the root re-runs so after its
/// region faulted). A fault hands every buffer the region took back to
/// `spares`.
#[allow(clippy::too_many_arguments)]
fn run_merger(
    plan: &Plan,
    inputs: &Inputs,
    streams: &StreamTable,
    spares: &mut Spares,
    root: NodeId,
    merger: &Merger,
    fused: bool,
    classify: bool,
) -> Result<MergeRun, Fault> {
    let mut region = Region::new(if fused { merger.leaves } else { [true; 3] }, classify, spares);
    for &id in plan.region_members(root).iter().filter(|_| fused) {
        let Some(Member { inputs: [a, b], leaves, .. }) = plan.node(id).member else { continue };
        let step = match plan.node(id).op {
            Op::Transfer(Transfer::Array { tensor }) => {
                Step::Array { vals: inputs.at(tensor).vals(), input: a }
            }
            Op::Transfer(Transfer::Const { value }) => Step::Const { value, input: a },
            Op::Transfer(Transfer::Alu { op }) => Step::Alu { op, a, b },
            Op::Transfer(Transfer::Repeat) => {
                Step::Repeat { rule: rule::Repeat::default(), refs: SliceSource::new(streams.get(b)), crd: a }
            }
            // The one kind left: a scalar reducer.
            _ => Step::Reduce { reduce: Reduce::default(), input: a },
        };
        region.push_member(step, leaves, spares);
    }
    // Each operand: a fused scanner read from its storage level, or the
    // stored streams.
    let [mut a, mut b] = [0, 1].map(|o| match merger.operands[o] {
        Some(FusedOperand { tensor, level, input, .. }) => Operand::Scan(FiberReader::new(
            inputs.at(tensor).level(level),
            SliceSource::new(streams.get(input)),
        )),
        None => Operand::Stored(StoredReader::new(
            streams.get(merger.inputs[o]),
            streams.get(merger.inputs[2 + o]),
        )),
    });
    let merged = if merger.union {
        run_merge::<true>(&mut a, &mut b, &mut region)
    } else {
        run_merge::<false>(&mut a, &mut b, &mut region)
    };
    let (root_ports, ports) = region.finish(spares);
    if let Err(fault) = merged {
        for stream in root_ports.into_iter().chain(ports).filter_map(|port| port.stored) {
            spares.give(stream);
        }
        return Err(fault);
    }
    let mut counts = (0, TokenCounts::default());
    let streams = root_ports.map(|port| {
        counts.0 += port.len;
        counts.1 += port.tally;
        port.stored.unwrap_or_default()
    });
    Ok(MergeRun { emitted: [a.emitted(), b.emitted()], root: counts, streams, ports })
}

/// Runs plans functionally, without per-cycle simulation: every node
/// evaluates whole, in topological order, on the calling thread.
///
/// An instance keeps the workspace of its last run for its next (see the
/// module docs): a caller that runs many plans keeps one instance.
#[derive(Default)]
pub struct FastBackend {
    /// The workspace the last run left, trimmed to what it used.
    kept: Mutex<Workspace>,
}

impl FastBackend {
    /// A fast backend that keeps nothing yet.
    pub fn new() -> FastBackend {
        FastBackend::default()
    }

    /// Walks `plan` in the kept workspace, or in a fresh one while another
    /// run holds it, and keeps what a successful walk used.
    fn walk_kept(
        &self,
        plan: &Plan,
        inputs: &Inputs,
        trace: &dyn TraceSink,
        labels: &[String],
    ) -> Result<Written, ExecError> {
        let mut kept = match self.kept.try_lock() {
            Ok(kept) => kept,
            // A run panicked holding it: what it left is not worth keeping.
            Err(TryLockError::Poisoned(poisoned)) => {
                let mut kept = poisoned.into_inner();
                *kept = Workspace::default();
                self.kept.clear_poison();
                kept
            }
            Err(TryLockError::WouldBlock) => {
                return walk(plan, inputs, trace, labels, &mut Workspace::default());
            }
        };
        let written = walk(plan, inputs, trace, labels, &mut kept);
        match written {
            Ok(_) => kept.trim(),
            Err(_) => *kept = Workspace::default(),
        }
        written
    }
}

impl fmt::Debug for FastBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastBackend").finish_non_exhaustive()
    }
}

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
        plan.check_inputs(inputs)?;
        let start = Instant::now();
        let Written { levels, vals, tokens } =
            self.walk_kept(plan, inputs, trace, &define_nodes(plan, trace))?;
        let output = assemble_output(plan, levels, &vals)?;
        Ok(Execution {
            backend: self.name(),
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
}

/// What one walk wrote: the level writers' levels, outermost first, the
/// values writer's values, and how many tokens flowed. Its caller checks
/// that the levels and values form one tree before it reads them as one.
pub(crate) struct Written {
    pub(crate) levels: Vec<CompressedLevel>,
    pub(crate) vals: Vec<f64>,
    pub(crate) tokens: u64,
}

/// The most data inputs a node the walk evaluates outside a merger reads: a
/// matrix reducer's three.
const MAX_INPUTS: usize = 3;

/// The walk behind [`FastBackend`], with the nodes already defined on
/// `trace` under `labels` ([`define_nodes`]; empty when untraced), over the
/// buffers `ws` kept from the walks before it.
pub(crate) fn walk(
    plan: &Plan,
    inputs: &Inputs,
    trace: &dyn TraceSink,
    labels: &[String],
    ws: &mut Workspace,
) -> Result<Written, ExecError> {
    let start = Instant::now();
    let tracing = trace.enabled();
    ws.reset(plan);
    let Workspace { spares, streams, outs, written, levels } = ws;
    let mut tokens = 0u64;
    let mut vals_result: Option<Vec<f64>> = None;
    // Roots whose region faulted. They and their members run unfused, each
    // in its own place in the order, so the run fails exactly where the
    // stored walk fails, naming the same node.
    let mut unfused: Vec<NodeId> = Vec::new();

    for &id in plan.order() {
        let node = plan.node(id);
        let fused = matches!(node.op, Op::Transfer(Transfer::Scan { fused: Some(_), .. }));
        if fused || node.member.is_some_and(|member| !unfused.contains(&member.root)) {
            // Read by its intersecter, or evaluated inside its walk.
            continue;
        }
        let node_start = tracing.then(Instant::now);
        let mut merged = None;
        match &node.op {
            Op::Merge(merger) => {
                let fused = !plan.region_members(id).is_empty();
                let mut run = run_merger(plan, inputs, streams, spares, id, merger, fused, tracing);
                if run.is_err() && fused {
                    unfused.push(id);
                    run = run_merger(plan, inputs, streams, spares, id, merger, false, tracing);
                }
                let mut run = run.map_err(|f| ExecError::at(f, plan.node_label(id)))?;
                outs.extend(std::mem::take(&mut run.streams));
                merged = Some((run, merger));
            }
            Op::Transfer(op) => {
                outs.extend(plan.analysis().output_ports(id).map(|_| spares.take()));
                let mut srcs = [(); MAX_INPUTS].map(|()| SliceSource::new(&[]));
                let mut read = 0;
                for (src, &p) in srcs.iter_mut().zip(plan.inputs_of(id).iter().flatten()) {
                    *src = SliceSource::new(streams.get(plan.analysis().port(p)));
                    read += 1;
                }
                eval_node(op, inputs, &mut srcs[..read], outs, spares, written, &mut vals_result)
                    .map_err(|f| ExecError::at(f, plan.node_label(id)))?;
            }
        }
        if let Some(node_start) = node_start {
            let elapsed_ns = node_start.elapsed().as_nanos() as u64;
            let start_ns = (node_start - start).as_nanos() as u64;
            trace.record_invocations(id.0, 1);
            trace.record_node_wall(id.0, elapsed_ns);
            trace.record_span("serial", &labels[id.0], start_ns, elapsed_ns);
            trace.record_tokens(id.0, merged.as_ref().map_or_else(|| classify(outs), |(run, _)| run.root.1));
        }
        tokens +=
            merged.as_ref().map_or_else(|| outs.iter().map(|s| s.len() as u64).sum(), |(run, _)| run.root.0);
        streams.store(plan.analysis().output_ports(id), outs.drain(..), spares);
        // This node was one reader of each of its inputs; an operand
        // with a fused scanner read the scanner's input in its place
        // (the scanner's own streams were never stored).
        streams.release_inputs(plan, id, spares);
        if let Some((MergeRun { mut ports, emitted, .. }, merger)) = merged {
            for (lane, emitted) in merger.operands.iter().zip(emitted) {
                let (Some(lane), Some(emitted)) = (lane, emitted) else { continue };
                streams.release(lane.input, spares);
                // Counted where produced or skipped, credited to the
                // scanner. A lane scanner keeps reporting nothing.
                if !lane.scan.skip_lane {
                    tokens += emitted.total();
                    if tracing {
                        trace.record_tokens(lane.scan.scanner.0, emitted);
                    }
                }
            }
            // A region member: tallied, stored if read outside the region,
            // and one reader of each of its inputs (an internal one was
            // never stored; releasing it only settles its reader count).
            for (&member, port) in plan.region_members(id).iter().zip(ports.drain(..)) {
                tokens += port.len;
                if tracing {
                    trace.record_tokens(member.0, port.tally);
                }
                streams.store(plan.analysis().output_ports(member), port.stored, spares);
                streams.release_inputs(plan, member, spares);
            }
            spares.ports = ports;
        }
    }

    let mut levels = std::mem::take(levels);
    for (writer, level) in plan.level_writers().iter().zip(written.iter_mut()) {
        levels.push(
            level.take().ok_or_else(|| ExecError::IncompleteOutput { label: plan.node_label(*writer) })?,
        );
    }
    let vals = vals_result
        .ok_or_else(|| ExecError::IncompleteOutput { label: plan.node_label(plan.vals_writer()) })?;
    debug_assert!(ws.drained(), "a walk that succeeds releases every stream it stored");
    Ok(Written { levels, vals, tokens })
}

#[cfg(test)]
mod tests {
    use super::*;
    use custard::graphs::{self, SpmmDataflow};
    use sam_core::graph::{NodeKind, SamGraph};
    use sam_sim::payload::tok;
    use sam_tensor::{synth, TensorFormat};
    use sam_trace::{CountersSink, NullSink};
    use std::error::Error;

    /// A workspace sized for `plan`, as a walk over it starts.
    fn workspace_for(plan: &Plan) -> Workspace {
        let mut ws = Workspace::default();
        ws.reset(plan);
        ws
    }

    #[test]
    fn a_stream_with_two_readers_survives_until_the_second_has_run() {
        // SpMV forks B's row coordinates to a repeater and to the writer;
        // the row scanner's references have one reader, the column scanner.
        let graph = graphs::spmv();
        let inputs = Inputs::new()
            .coo("B", &synth::random_matrix_sparsity(10, 8, 0.8, 3), TensorFormat::dcsr())
            .coo("c", &synth::random_vector(8, 8, 4), TensorFormat::dense_vec());
        let plan = Plan::build(&graph, &inputs).unwrap();
        let scanner = *plan
            .order()
            .iter()
            .find(|id| matches!(graph.nodes()[id.0], NodeKind::LevelScanner { .. }))
            .expect("spmv scans B");
        let (crd, rf) =
            (plan.analysis().output_ports(scanner).start, plan.analysis().output_ports(scanner).start + 1);
        assert_eq!(plan.consumers_of(scanner)[0].len(), 2);

        let Workspace { spares, streams, .. } = &mut workspace_for(&plan);
        let ports = plan.analysis().output_ports(scanner);
        streams.store(ports, [vec![tok::crd(1), tok::done()], vec![tok::rf(0), tok::done()]], spares);
        streams.release(rf, spares);
        assert!(streams.slots[rf].stream.is_none(), "sole reader ran: freed");
        assert_eq!(spares.streams.len(), 1, "its buffer is spare");
        streams.release(crd, spares);
        assert_eq!(streams.get(crd).len(), 2, "one of two readers ran: still stored");
        streams.release(crd, spares);
        assert!(streams.slots[crd].stream.is_none(), "last reader ran: freed");
        assert!(spares.streams.len() == 2 && spares.streams.iter().all(Vec::is_empty), "spares are empty");

        // A port nobody reads is never stored: an intersecter's silent skip
        // ports feed only skip inputs, which are not readers.
        let skip = graphs::spmv_with_skip();
        let inputs = Inputs::new()
            .coo("B", &synth::random_matrix_sparsity(10, 8, 0.8, 3), TensorFormat::dcsr())
            .coo("c", &synth::random_vector(8, 3, 4), TensorFormat::sparse_vec());
        let plan = Plan::build(&skip, &inputs).unwrap();
        let isect = plan.skip_specs()[0].intersecter;
        let Workspace { spares, streams, .. } = &mut workspace_for(&plan);
        let ports = plan.analysis().output_ports(isect);
        streams.store(ports.clone(), vec![vec![tok::done()]; 5], spares);
        let isect = &streams.slots[ports];
        assert!(isect[3].stream.is_none() && isect[4].stream.is_none());
        assert!(isect[1].stream.is_some());
        let silent = isect.iter().filter(|slot| slot.readers == 0).count();
        assert_eq!(spares.streams.len(), silent, "a port nobody reads is spare at once");
    }

    /// SpMV, Gustavson SpM*SpM, MMAdd (a unioner) and SDDMM (an intersecter
    /// with a fusion region), planned over small operands.
    fn kernels() -> Result<Vec<(Plan, Inputs)>, Box<dyn Error>> {
        let m = |rows, cols, seed| synth::random_matrix_sparsity(rows, cols, 0.7, seed);
        let dense = |rows, cols, seed| synth::random_matrix_sparsity(rows, cols, 0.0, seed);
        let mmadd = custard::lower_exec(&custard::ConcreteIndexNotation::new(
            custard::parse("X(i,j) = B(i,j) + C(i,j)")?,
            &custard::Schedule::new(),
            custard::Formats::new(),
        ))?;
        let kernels = [
            (
                graphs::spmv(),
                Inputs::new().coo("B", &m(14, 9, 1), TensorFormat::dcsr()).coo(
                    "c",
                    &synth::random_vector(9, 9, 2),
                    TensorFormat::dense_vec(),
                ),
            ),
            (
                graphs::spmm(SpmmDataflow::LinearCombination),
                Inputs::new().coo("B", &m(12, 10, 3), TensorFormat::dcsr()).coo(
                    "C",
                    &m(10, 11, 4),
                    TensorFormat::dcsr(),
                ),
            ),
            (
                mmadd.graph,
                Inputs::new().coo("B", &m(13, 12, 5), TensorFormat::dcsr()).coo(
                    "C",
                    &m(13, 12, 6),
                    TensorFormat::dcsr(),
                ),
            ),
            (
                graphs::sddmm_coiteration(),
                Inputs::new()
                    .coo("B", &m(11, 9, 7), TensorFormat::dcsr())
                    .coo("C", &dense(11, 5, 8), TensorFormat::dense(2))
                    .coo("D", &dense(9, 5, 9), TensorFormat::dense(2)),
            ),
        ];
        let mut planned = Vec::new();
        for (graph, inputs) in kernels {
            planned.push((Plan::build(&graph, &inputs)?, inputs));
        }
        Ok(planned)
    }

    /// What a walk computed and counted: its writers' levels and values,
    /// its token total, and each node's token counts when it is traced.
    type Seen = (Vec<CompressedLevel>, Vec<f64>, u64, Vec<TokenCounts>);

    /// Walks `plan` in `ws` and hands the output's arrays back to it, as the
    /// tiled backend does once it has merged them.
    fn walk_in(plan: &Plan, inputs: &Inputs, traced: bool, ws: &mut Workspace) -> Result<Seen, ExecError> {
        let sink = CountersSink::new();
        let trace: &dyn TraceSink = if traced { &sink } else { &NullSink };
        let written = walk(plan, inputs, trace, &define_nodes(plan, trace), ws)?;
        assert!(ws.drained(), "a walk that succeeded left a stream or a reader behind");
        let nodes = trace.snapshot().map(|p| p.nodes.into_iter().map(|n| n.tokens).collect());
        let seen = (written.levels.clone(), written.vals.clone(), written.tokens, nodes.unwrap_or_default());
        ws.recycle(written);
        Ok(seen)
    }

    /// Walks each of `kernels` in `ws`, in the order `sequence` names them,
    /// untraced and traced, and holds every walk to one in a fresh workspace.
    fn assert_reuse_is_invisible(
        kernels: &[(Plan, Inputs)],
        sequence: &[usize],
        ws: &mut Workspace,
    ) -> Result<(), ExecError> {
        for (step, &k) in sequence.iter().enumerate() {
            let (plan, inputs) = &kernels[k];
            for traced in [false, true] {
                let fresh = walk_in(plan, inputs, traced, &mut Workspace::default())?;
                assert_eq!(
                    walk_in(plan, inputs, traced, ws)?,
                    fresh,
                    "step {step}, kernel {k}, traced {traced}"
                );
            }
        }
        Ok(())
    }

    /// Every kernel after every other, itself included: a walk over a
    /// workspace another plan's walks grew is the walk over a fresh one.
    #[test]
    fn one_workspace_walks_a_sequence_of_plans_as_fresh_workspaces_do() -> Result<(), Box<dyn Error>> {
        let kernels = kernels()?;
        let mut ws = Workspace::default();
        assert_reuse_is_invisible(&kernels, &[0, 1, 2, 3, 3, 2, 1, 0, 2, 0, 3, 1, 1, 3, 0, 2], &mut ws)?;
        assert!(!ws.spares.streams.is_empty() && ws.outs.is_empty(), "the walks handed their buffers back");
        Ok(())
    }

    /// A spare buffer is emptied when it is handed back, so the tokens it
    /// held never reach the stream that takes it next.
    #[test]
    fn garbage_in_a_spare_buffer_never_reaches_a_stream() -> Result<(), Box<dyn Error>> {
        let kernels = kernels()?;
        let garbage = [tok::crd(7), tok::rf(1 << 20), tok::stop(2), tok::done(), tok::empty()];
        for k in 0..kernels.len() {
            let mut ws = Workspace::default();
            // More buffers than a walk holds at once, so every stream takes one.
            for len in 1..200 {
                ws.spares.give(garbage.iter().copied().cycle().take(len).collect());
            }
            assert_reuse_is_invisible(&kernels, &[k], &mut ws)?;
        }
        Ok(())
    }

    /// A writer empties the arrays it takes from the workspace, so what an
    /// earlier output left in them never reaches the next one.
    #[test]
    fn garbage_in_a_spare_writer_array_never_reaches_an_output() -> Result<(), Box<dyn Error>> {
        let kernels = kernels()?;
        for k in 0..kernels.len() {
            let mut ws = Workspace::default();
            // More arrays than a walk's writers take, so every writer takes one.
            for len in 1..8 {
                let garbage = CompressedLevel { dim: 3, seg: [2, 0, 9].repeat(len), crd: vec![5; len] };
                let vals = vec![-7.5; 3 * len];
                ws.recycle(Written { levels: vec![garbage.clone(), garbage], vals, tokens: 1 });
            }
            assert_reuse_is_invisible(&kernels, &[k], &mut ws)?;
        }
        Ok(())
    }

    /// What a run returned: its output and values, its token total and each
    /// node's token counts when it is traced.
    type Ran = (Option<sam_tensor::Tensor>, Vec<f64>, u64, Vec<TokenCounts>);

    /// Runs `plan` on `fast`, traced or not.
    fn run_on(fast: &FastBackend, plan: &Plan, inputs: &Inputs, traced: bool) -> Result<Ran, ExecError> {
        let sink = CountersSink::new();
        let run = if traced { fast.run_traced(plan, inputs, &sink) } else { fast.run(plan, inputs) }?;
        let nodes = run.profile.map(|p| p.nodes.into_iter().map(|n| n.tokens).collect());
        Ok((run.output, run.vals, run.tokens, nodes.unwrap_or_default()))
    }

    /// One instance runs every kernel after every other, and a faulting plan
    /// between them, traced and untraced: each run is the run of a fresh
    /// instance, and the workspace the instance keeps is only ever one a
    /// run that succeeded left.
    #[test]
    fn one_instance_runs_a_sequence_of_plans_as_fresh_instances_do() -> Result<(), Box<dyn Error>> {
        let mut kernels = kernels()?;
        kernels.push(misrepeated()?);
        let fault = kernels.len() - 1;
        let fast = FastBackend::new();
        for (step, &k) in [0, 1, 2, 3, 4, 3, 2, 1, 0, 4, 4, 2, 0, 3, 1, 1, 3, 0, 2].iter().enumerate() {
            let (plan, inputs) = &kernels[k];
            for traced in [false, true] {
                let fresh = run_on(&FastBackend::new(), plan, inputs, traced);
                let kept = run_on(&fast, plan, inputs, traced);
                assert_eq!(kept, fresh, "step {step}, kernel {k}, traced {traced}");
                assert_eq!(kept.is_err(), k == fault, "step {step}: {kept:?}");
                let ws = fast.kept.lock().map_err(|_| "unpoisoned")?;
                assert_eq!(ws.spares.streams.is_empty(), k == fault, "a failed run keeps nothing");
                assert!(ws.outs.is_empty() && ws.streams.slots.iter().all(|s| s.stream.is_none()));
            }
        }
        Ok(())
    }

    /// What an instance keeps after a large run and then a small one is
    /// bounded by the small one: no more spare buffers than a fresh instance
    /// takes for it, none longer than twice its longest stream or the room
    /// a fresh buffer starts with. The large run, MMAdd over 80 x 80
    /// operands, stores more and longer streams than the small one, SpMV
    /// over 14 x 9, takes, and more than ten times the room the small run's
    /// buffers keep at their floor.
    #[test]
    fn a_small_run_after_a_large_one_keeps_only_what_it_used() -> Result<(), Box<dyn Error>> {
        let mut kernels = kernels()?;
        let (mmadd, small) = (kernels.swap_remove(2).0, kernels.swap_remove(0));
        let m = |n, seed| synth::random_matrix_sparsity(n, n, 0.5, seed);
        let inputs =
            Inputs::new().coo("B", &m(80, 3), TensorFormat::dcsr()).coo("C", &m(80, 4), TensorFormat::dcsr());
        let large = (Plan::build(mmadd.graph(), &inputs)?, inputs);
        // Per instance: how many spare buffers it keeps, the longest stream
        // its last run stored in one, the widest one and their total room.
        let kept = |fast: &FastBackend| -> Result<[usize; 4], Box<dyn Error>> {
            let ws = fast.kept.lock().map_err(|_| "unpoisoned")?;
            let caps = ws.spares.streams.iter().map(Vec::capacity);
            let longest = ws.spares.held.iter().map(|h| h.1).max().unwrap_or(0);
            Ok([ws.spares.streams.len(), longest, caps.clone().max().unwrap_or(0), caps.sum()])
        };
        let fresh = FastBackend::new();
        fresh.run(&small.0, &small.1)?;
        let [took, longest, _, _] = kept(&fresh)?;

        let fast = FastBackend::new();
        fast.run(&large.0, &large.1)?;
        let [after_large, _, _, room_after_large] = kept(&fast)?;
        fast.run(&small.0, &small.1)?;
        let [after_small, _, widest, room_after_small] = kept(&fast)?;
        assert!(took < after_large, "the small run takes {took} buffers, the large one kept {after_large}");
        assert!(after_small <= took, "kept {after_small} buffers, the small run took {took}");
        assert!(
            widest <= (2 * longest).max(FRESH),
            "a buffer of {widest} tokens; the longest stream {longest}"
        );
        assert!(
            room_after_small * 10 < room_after_large,
            "room for {room_after_small} tokens after {room_after_large}"
        );
        Ok(())
    }

    /// Two threads running one instance both succeed: the one that finds
    /// the workspace taken walks a fresh one instead of waiting.
    #[test]
    fn two_threads_share_one_instance() -> Result<(), Box<dyn Error>> {
        let kernels = kernels()?;
        let want: Vec<Ran> = kernels
            .iter()
            .map(|(plan, inputs)| run_on(&FastBackend::new(), plan, inputs, false))
            .collect::<Result<_, _>>()?;
        let fast = FastBackend::new();
        // Held by another run: this one walks a fresh workspace.
        {
            let _held = fast.kept.lock().map_err(|_| "unpoisoned")?;
            let (plan, inputs) = &kernels[0];
            assert_eq!(run_on(&fast, plan, inputs, false)?, want[0]);
        }
        assert!(fast.kept.lock().map_err(|_| "unpoisoned")?.spares.streams.is_empty(), "kept nothing");
        let joined = std::thread::scope(|scope| {
            let runs = [0, 1].map(|t| {
                let (fast, kernels, want) = (&fast, &kernels, &want);
                scope.spawn(move || {
                    for k in (0..kernels.len()).map(|k| (k + 2 * t) % kernels.len()) {
                        let (plan, inputs) = &kernels[k];
                        assert_eq!(run_on(fast, plan, inputs, false).as_ref(), Ok(&want[k]), "thread {t}");
                    }
                })
            });
            runs.map(|run| run.join().is_ok())
        });
        assert_eq!(joined, [true; 2], "both threads' runs succeed");
        Ok(())
    }

    /// A walk that fails leaves streams in the table and its node's streams
    /// behind; the next walk over the workspace hands them back and runs as
    /// a fresh one.
    #[test]
    fn a_workspace_is_reusable_after_a_walk_whose_region_faulted() -> Result<(), Box<dyn Error>> {
        let (faulty, inputs) = misrepeated()?;
        let graph = faulty.graph();
        let isect = *faulty
            .order()
            .iter()
            .find(|id| matches!(graph.nodes()[id.0], NodeKind::Intersecter { .. }))
            .ok_or("one intersecter")?;
        assert!(!faulty.region_members(isect).is_empty(), "the repeater is fused");

        let kernels = kernels()?;
        for k in 0..kernels.len() {
            let mut ws = Workspace::default();
            let failed = walk_in(&faulty, &inputs, k % 2 == 1, &mut ws);
            assert!(matches!(failed, Err(ExecError::Misaligned { .. })), "{failed:?}");
            let held = ws.streams.slots.iter().filter(|slot| slot.stream.is_some()).count();
            assert!(held > 0 && !ws.outs.is_empty(), "the failed walk left its streams behind");
            assert_reuse_is_invisible(&kernels, &[k, (k + 1) % kernels.len()], &mut ws)?;
        }
        Ok(())
    }

    /// After its region faults, the root re-runs without its members and
    /// each member runs in its own place over inputs the reader counts kept
    /// stored: the walk fails naming the repeater, as the stored walk does,
    /// and holds no stream that no reader is left to read.
    #[test]
    fn a_faulted_regions_members_rerun_over_their_stored_inputs() -> Result<(), Box<dyn Error>> {
        let (plan, inputs) = misrepeated()?;
        let graph = plan.graph();
        let members = plan.order().iter().flat_map(|&root| plan.region_members(root));
        let repeater = members
            .copied()
            .find(|id| matches!(graph.nodes()[id.0], NodeKind::Repeater { .. }))
            .ok_or("a fused repeater")?;
        let mut ws = Workspace::default();
        let failed = walk(&plan, &inputs, &NullSink, &[], &mut ws).err();
        assert_eq!(failed, Some(ExecError::Misaligned { label: plan.node_label(repeater) }));
        assert!(ws.streams.slots.iter().all(|slot| slot.stream.is_none() || slot.readers > 0));
        Ok(())
    }

    /// A plan whose walk fails: a repeater inside SpMV's fusion region runs
    /// out of references, so the region faults, re-runs memberless, and the
    /// repeater then fails in its own place.
    fn misrepeated() -> Result<(Plan, Inputs), Box<dyn Error>> {
        use sam_core::build::GraphBuilder;

        let mut g = GraphBuilder::new("misrepeated");
        let (rb, rc, rd) = (g.root("B"), g.root("c"), g.root("d"));
        let (bi, bi_ref) = g.scan("B", 'i', true, rb);
        let (bj, bj_ref) = g.scan("B", 'j', true, bi_ref);
        let c_rows = g.repeat("c", 'i', bi, rc);
        let (cj, cj_ref) = g.scan("c", 'j', true, c_rows);
        let (j, [at_b, at_c]) = g.intersect('j', [bj, cj], [bj_ref, cj_ref]);
        let (_, d_ref) = g.scan("d", 'i', true, rd);
        let d_rows = g.repeat("d", 'j', j, d_ref);
        let (bv, cv, dv) = (g.array("B", at_b), g.array("c", at_c), g.array("d", d_rows));
        let bc = g.alu("mul", bv, cv);
        let bcd = g.alu("mul", bc, dv);
        let x = g.reduce_scalar(bcd);
        g.write_level("x", 'i', bi);
        g.write_vals("x", x);
        let graph: SamGraph = g.finish();
        let inputs = Inputs::new()
            .coo("B", &synth::random_matrix_sparsity(6, 5, 0.3, 321), TensorFormat::dcsr())
            .coo("c", &synth::random_vector(5, 5, 322), TensorFormat::sparse_vec())
            .coo("d", &synth::random_vector(6, 2, 323), TensorFormat::sparse_vec());
        Ok((Plan::build(&graph, &inputs)?, inputs))
    }
}
