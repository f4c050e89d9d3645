//! The one walk of the fast backend: nodes evaluate one at a time in
//! topological order, a stream is stored only if somebody re-reads it, and
//! — given a worker pool — long nodes run as stealable segments.
//!
//! **Stored only if re-read.** A level scanner whose two streams feed one
//! operand of one intersecter and nothing else ([`crate::plan::FusedScan`])
//! is never evaluated: the intersecter pulls `(crd, ref)` pairs straight
//! from a [`GallopScan`] over the storage level, gallops it on every
//! mismatch and jumps the tail of its fiber once the other operand's has
//! ended, so the walk costs the short side. Tokens are counted *where they
//! are produced or skipped*: a stored stream by its length when its
//! producer finishes, a fused scanner by the tally its `GallopScan` keeps —
//! a cursor jump over `n` entries is `n` coordinate and `n` reference
//! tokens — credited to the scanner's node id, so `Execution::tokens` and
//! the per-node `TokenCounts` are what they would be had every stream been
//! stored: they count what the SAM graph moves, not what the host touched.
//! (The exception is a scanner with a Section 4.2 skip lane, which reports
//! nothing: how many tokens the lane saves the cycle-level scanner depends
//! on when the skip requests arrive.) A fused scanner's time is part of its
//! intersecter's.
//!
//! **Released at the last reader.** The driver owns a table of
//! `Arc<Stream>` (`StreamTable`), hands tasks clones, and drops its handle
//! the moment the last data reader of a stream has run; ports nobody reads
//! are dropped as soon as they are counted. Peak memory is the live set,
//! not the sum of all streams.
//!
//! **Data parallelism within nodes.** One worker per planned node would
//! bottleneck on the fattest node and pay channel synchronization on every
//! hand-off. With [`Parallelism::Threads`] the walk instead parallelizes the
//! expensive step: a node whose input streams are long enough is *split at
//! fiber boundaries* into independent segments ([`crate::split`]),
//! evaluated as stealable tasks on a [`StealPool`], and concatenated.
//! Segment sizes follow an adaptive ramp (small early, large late) so
//! workers start immediately and per-task overhead amortizes; idle workers
//! steal the oldest (largest-remaining) segments from their peers.
//!
//! Two properties keep a split run exactly serial-equivalent:
//!
//! * Cut legality is per operator kind ([`Plan::fiber_split`]); cuts land
//!   only where the transfer function's state provably resets, so
//!   concatenated segment outputs are bit-identical to one serial pass.
//! * The merge step re-checks the contract (every segment consumed its
//!   input exactly, synthesized dones came back out) and falls back to
//!   inline evaluation of that node on any anomaly — so errors (misaligned
//!   streams, bad references) reproduce the serial behavior.
//!
//! [`Parallelism::Serial`] is this walk with no pool. So is `Threads(n)` on
//! a host without real parallelism: requested workers are clamped to
//! [`std::thread::available_parallelism`], and with one effective worker no
//! pool is spun up and no streams are split. Tests force splitting on any
//! host through [`crate::FastBackend::with_split_threshold`].

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::node::{
    eval_node, run_intersect, scanner_level, GallopScan, IntersectOperand, NodeJob, SliceSource, WriterOutput,
};
use crate::plan::{FusedScan, Plan, PortRef};
use crate::split::{plan_cuts, SegSource, SplitPlan};
use crate::steal::{StealPool, WorkerStats};
use crate::{assemble_output, Execution, Parallelism};
use sam_core::graph::{NodeId, NodeKind};
use sam_sim::SimToken;
use sam_streams::Token;
use sam_trace::{TokenCounts, TraceSink, WorkerProfile};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

type Stream = Vec<SimToken>;

/// One segment's evaluation result, filled in by a pool task.
struct SegOutcome {
    outs: Result<Vec<Stream>, ExecError>,
    /// Whether every input source was drained exactly — the anomaly check.
    consumed: bool,
}

/// One output port's stored stream and how many of its data readers have
/// yet to run.
struct Slot {
    stream: Option<Arc<Stream>>,
    readers: usize,
}

/// The driver-owned table of stored streams, per node and output port. The
/// driving thread is the only writer; pool tasks get `Arc` clones, so the
/// driver can drop its handle mid-run.
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
                slot.stream = Some(Arc::new(stream));
            }
        }
    }

    /// The stored stream behind `p`. Topological order guarantees the
    /// producer ran; the reader count guarantees it is still held.
    fn get(&self, p: PortRef) -> &Arc<Stream> {
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

/// Evaluates `plan` over `inputs`: the one walk behind both
/// [`Parallelism`] settings of the fast backend.
///
/// `split_threshold` is the minimum input-stream length (tokens) before a
/// node's evaluation is split across the pool; `force_split` additionally
/// skips the available-parallelism clamp so the splitting seams run (and
/// are tested) even on single-core hosts. Neither matters to
/// [`Parallelism::Serial`], which never has a pool.
pub(crate) fn run_stealing(
    backend: &'static str,
    plan: &Plan,
    inputs: &Inputs,
    parallelism: Parallelism,
    split_threshold: usize,
    force_split: bool,
    trace: &dyn TraceSink,
) -> Result<Execution, ExecError> {
    let start = Instant::now();
    let tracing = trace.enabled();
    let nodes = plan.graph().nodes();
    let workers = match parallelism {
        Parallelism::Serial => 1,
        Parallelism::Threads(requested) if force_split => requested.max(1),
        Parallelism::Threads(requested) => {
            let hardware = thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
            requested.clamp(1, hardware)
        }
    };
    // A serial run has no workers to report; its spans sit on one track.
    let threaded = parallelism != Parallelism::Serial;
    let track = if threaded { "worker-0" } else { "serial" };
    let split_threshold = split_threshold.max(1);
    // ~3 segments per worker: enough imbalance slack for stealing to
    // matter, few enough that per-segment overhead stays negligible.
    let segments_target = workers * 3;

    if tracing {
        for &id in plan.order() {
            trace.define_node(id.0, &plan.node_label(id));
        }
    }

    let pool = (workers > 1).then(|| StealPool::new(workers, tracing));
    let mut streams = StreamTable::new(plan);
    let mut tokens = 0u64;
    // Inline (unsplit) node evaluations run on the driving thread; fold
    // them into worker 0's counters so the profile covers all work. Split
    // nodes are not added here: the pool already timed every task of the
    // batch, worker 0's included.
    let mut main_tasks = 0u64;
    let mut main_busy_ns = 0u64;
    let mut level_results: HashMap<usize, sam_tensor::level::CompressedLevel> = HashMap::new();
    let mut vals_result: Option<Vec<f64>> = None;

    let outcome = thread::scope(|scope| -> Result<(), ExecError> {
        // Taken before the first spawn: however this closure is left, the
        // workers are told to exit and the scope can join them.
        let _shutdown = pool.as_ref().map(StealPool::shutdown_on_drop);
        if let Some(pool) = &pool {
            for w in 1..pool.workers() {
                scope.spawn(move || pool.worker_loop(w));
            }
        }
        for &id in plan.order() {
            if plan.fused_scan(id).is_some() {
                // Pulled by its intersecter; nothing to evaluate or store.
                continue;
            }
            let n_outs = plan.consumers_of(id).len();
            let node_start = tracing.then(Instant::now);
            let lanes = plan.fused_operands(id);
            let mut inline = true;
            let outs: Vec<Stream> = if lanes.iter().any(Option::is_some) {
                let mut outs = vec![Stream::new(); n_outs];
                let src = |p: Option<PortRef>| SliceSource::new(streams.get(p.expect("bound data port")));
                let operand = |o: usize| match lanes[o] {
                    Some(f) => IntersectOperand::Scan(GallopScan::new(
                        scanner_level(plan, inputs, f.scanner),
                        src(plan.inputs_of(f.scanner)[0]),
                    )),
                    None => IntersectOperand::Streams {
                        crd: src(plan.inputs_of(id)[o]),
                        rf: src(plan.inputs_of(id)[2 + o]),
                    },
                };
                let (mut a, mut b) = (operand(0), operand(1));
                let [oc, o0, o1, ..] = &mut outs[..] else { unreachable!("intersecter has five outputs") };
                run_intersect(&mut a, &mut b, oc, o0, o1, &plan.node_label(id))?;
                for (lane, operand) in lanes.iter().zip([&a, &b]) {
                    // Counted where produced or skipped, credited to the
                    // scanner. A lane scanner keeps reporting nothing.
                    if let (Some(FusedScan { scanner, skip_lane: false, .. }), Some(counts)) =
                        (lane, operand.emitted())
                    {
                        tokens += counts.total();
                        if tracing {
                            trace.record_tokens(scanner.0, counts);
                        }
                    }
                }
                outs
            } else {
                let ins: Vec<Arc<Stream>> =
                    plan.inputs_of(id).iter().flatten().map(|&p| Arc::clone(streams.get(p))).collect();
                let longest = ins.iter().map(|s| s.len()).max().unwrap_or(0);
                let split = pool.as_ref().filter(|_| longest >= split_threshold).and_then(|pool| {
                    let slices: Vec<&[SimToken]> = ins.iter().map(|s| s.as_slice()).collect();
                    let sp = plan_cuts(plan.fiber_split(id), &slices, segments_target)?;
                    Some((pool, Arc::new(sp)))
                });
                match split {
                    Some((pool, sp)) => {
                        inline = false;
                        run_split_node(plan, inputs, id, &ins, n_outs, pool, &sp, trace, tracing, start)?
                    }
                    None => {
                        let job = NodeJob::build(plan, inputs, id);
                        let mut srcs: Vec<SliceSource<'_>> =
                            ins.iter().map(|s| SliceSource::new(s)).collect();
                        let mut outs = vec![Stream::new(); n_outs];
                        match eval_node(&job, &mut srcs, &mut outs)? {
                            Some(WriterOutput::Level(level)) => {
                                level_results.insert(id.0, level);
                            }
                            Some(WriterOutput::Vals(vals)) => vals_result = Some(vals),
                            None => {}
                        }
                        outs
                    }
                }
            };
            if let Some(node_start) = node_start {
                let elapsed_ns = node_start.elapsed().as_nanos() as u64;
                let start_ns = (node_start - start).as_nanos() as u64;
                if inline {
                    main_tasks += 1;
                    main_busy_ns += elapsed_ns;
                }
                trace.record_invocations(id.0, 1);
                trace.record_node_wall(id.0, elapsed_ns);
                trace.record_span(track, &plan.node_label(id), start_ns, elapsed_ns);
                trace.record_tokens(id.0, classify(&outs));
            }
            tokens += outs.iter().map(|s| s.len() as u64).sum::<u64>();
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
        }
        Ok(())
    });
    outcome?;

    if tracing && threaded {
        let stats = pool.as_ref().map_or_else(|| vec![WorkerStats::default()], StealPool::stats);
        for (index, s) in stats.into_iter().enumerate() {
            let (main_tasks, main_busy_ns) = if index == 0 { (main_tasks, main_busy_ns) } else { (0, 0) };
            trace.record_worker(WorkerProfile {
                index,
                tasks: s.tasks + main_tasks,
                steals: s.steals,
                busy_ns: s.busy_ns + main_busy_ns,
            });
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
        backend,
        output,
        vals,
        cycles: None,
        blocks: nodes.len(),
        // The planned channel count, so the metric is comparable across
        // Parallelism settings.
        channels: plan.channels().len(),
        tokens,
        memory: None,
        elapsed: start.elapsed(),
        profile: trace.snapshot(),
    })
}

/// Evaluates one node split into segments on the pool, merging the segment
/// outputs back into whole streams. Falls back to inline serial evaluation
/// when any segment reports an anomaly. Every task holds its own handles on
/// the input streams, so none of them borrows from the driver's table.
#[allow(clippy::too_many_arguments)]
fn run_split_node<'env>(
    plan: &'env Plan,
    inputs: &'env Inputs,
    id: NodeId,
    ins: &[Arc<Stream>],
    n_outs: usize,
    pool: &StealPool<'env>,
    sp: &Arc<SplitPlan>,
    trace: &'env dyn TraceSink,
    tracing: bool,
    start: Instant,
) -> Result<Vec<Stream>, ExecError> {
    let segs = sp.segments();
    let slots: Arc<Vec<Mutex<Option<SegOutcome>>>> = Arc::new((0..segs).map(|_| Mutex::new(None)).collect());
    let synth = sp.synth_done;
    let tasks: Vec<Box<dyn FnOnce(usize) + Send + 'env>> = (0..segs)
        .map(|s| {
            let slots = Arc::clone(&slots);
            let sp = Arc::clone(sp);
            let ins: Vec<Arc<Stream>> = ins.to_vec();
            Box::new(move |w: usize| {
                let job = NodeJob::build(plan, inputs, id);
                let mut srcs: Vec<SegSource<'_>> = ins
                    .iter()
                    .enumerate()
                    .map(|(i, tokens)| {
                        let (a, b) = sp.range(s, i, tokens.len());
                        SegSource::new(&tokens[a..b], synth && s + 1 < segs)
                    })
                    .collect();
                let mut outs = vec![Stream::new(); n_outs];
                let seg_start = tracing.then(Instant::now);
                let res = eval_node(&job, &mut srcs, &mut outs);
                let consumed = srcs.iter().all(SegSource::fully_consumed);
                if let Some(seg_start) = seg_start {
                    let elapsed_ns = seg_start.elapsed().as_nanos() as u64;
                    let start_ns = (seg_start - start).as_nanos() as u64;
                    let label = plan.node_label(id);
                    trace.record_span(&format!("worker-{w}"), &format!("{label}[{s}]"), start_ns, elapsed_ns);
                }
                *slots[s].lock().expect("segment slot") =
                    Some(SegOutcome { outs: res.map(|_| outs), consumed });
            }) as Box<dyn FnOnce(usize) + Send + 'env>
        })
        .collect();
    pool.run_batch(tasks);

    // Merge under the split contract; any violation discards the segments
    // and re-runs the node serially (reproducing serial output or error).
    let merged = (|| -> Option<Vec<Stream>> {
        let mut parts: Vec<Vec<Stream>> = Vec::with_capacity(segs);
        for slot in slots.iter() {
            match slot.lock().expect("segment slot").take() {
                Some(SegOutcome { outs: Ok(o), consumed: true }) => parts.push(o),
                _ => return None,
            }
        }
        if synth {
            // Middle segments ran to their synthetic done; every stream
            // they emitted ends with the matching done token — drop it.
            for part in &mut parts[..segs - 1] {
                for stream in part.iter_mut() {
                    match stream.last() {
                        Some(Token::Done) => {
                            stream.pop();
                        }
                        Some(_) => return None,
                        None => {}
                    }
                }
            }
        }
        let mut merged = vec![Stream::new(); n_outs];
        for part in parts {
            for (port, stream) in part.into_iter().enumerate() {
                merged[port].extend(stream);
            }
        }
        Some(merged)
    })();
    match merged {
        Some(streams) => Ok(streams),
        None => {
            let job = NodeJob::build(plan, inputs, id);
            let mut srcs: Vec<SliceSource<'_>> = ins.iter().map(|s| SliceSource::new(s)).collect();
            let mut outs = vec![Stream::new(); n_outs];
            eval_node(&job, &mut srcs, &mut outs)?;
            Ok(outs)
        }
    }
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
        let graph = sam_core::graphs::spmv();
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
        let skip = sam_core::graphs::spmv_with_skip();
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
