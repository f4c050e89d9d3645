//! The work-stealing parallel fast-backend driver: data parallelism
//! *within* nodes, not one thread per node.
//!
//! One worker per planned node would bottleneck on the fattest node and
//! pay channel synchronization on every hand-off. This driver instead
//! keeps the serial driver's shape — nodes evaluate one at a time in
//! topological order into materialized streams — and parallelizes the
//! expensive step: a node whose input streams are long enough is *split at
//! fiber boundaries* into independent segments ([`crate::split`]),
//! evaluated as stealable tasks on a [`StealPool`], and concatenated.
//! Segment sizes follow an adaptive ramp (small early, large late) so
//! workers start immediately and per-task overhead amortizes; idle workers
//! steal the oldest (largest-remaining) segments from their peers.
//!
//! Two properties keep this exactly serial-equivalent:
//!
//! * Cut legality is per operator kind ([`Plan::fiber_split`]); cuts land
//!   only where the transfer function's state provably resets, so
//!   concatenated segment outputs are bit-identical to one serial pass.
//! * The merge step re-checks the contract (every segment consumed its
//!   input exactly, synthesized dones came back out) and falls back to
//!   inline serial evaluation of that node on any anomaly — so errors
//!   (misaligned streams, bad references) reproduce the serial behavior.
//!
//! On hosts without real parallelism the driver is adaptive: requested
//! workers are clamped to [`std::thread::available_parallelism`], and with
//! one effective worker no pool is spun up and no streams are split — the
//! run *is* the serial run, rather than a slower simulation of
//! parallelism. Tests force splitting on any host through
//! [`crate::FastBackend::with_split_threshold`].

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::node::{
    eval_node, run_intersect, scanner_level, GallopScan, IntersectOperand, NodeJob, SliceSource, WriterOutput,
};
use crate::plan::Plan;
use crate::split::{plan_cuts, SegSource, SplitPlan};
use crate::steal::StealPool;
use crate::{assemble_output, Execution};
use sam_core::graph::NodeId;
use sam_sim::SimToken;
use sam_streams::Token;
use sam_trace::{TokenCounts, TraceSink, WorkerProfile};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

type Stream = Vec<SimToken>;

/// One segment's evaluation result, filled in by a pool task.
struct SegOutcome {
    outs: Result<Vec<Stream>, ExecError>,
    /// Whether every input source was drained exactly — the anomaly check.
    consumed: bool,
}

/// Work-stealing evaluation of `plan` using up to `threads` workers.
///
/// `split_threshold` is the minimum input-stream length (tokens) before a
/// node's evaluation is split; `force_split` additionally skips the
/// available-parallelism clamp so the splitting seams run (and are tested)
/// even on single-core hosts.
pub(crate) fn run_stealing(
    backend: &'static str,
    plan: &Plan,
    inputs: &Inputs,
    threads: usize,
    split_threshold: usize,
    force_split: bool,
    trace: &dyn TraceSink,
) -> Result<Execution, ExecError> {
    let start = Instant::now();
    let tracing = trace.enabled();
    let nodes = plan.graph().nodes();
    let n = nodes.len();
    let requested = threads.max(1);
    let hardware = thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let workers = if force_split { requested } else { requested.min(hardware) };
    if workers == 1 && !force_split && !tracing {
        // The clamp left one worker and nobody is watching the profile: a
        // single-worker unsplit evaluation computes exactly what the serial
        // driver computes, so delegate and pay zero scheduling overhead.
        // This makes the bench gate's `parallel ≤ serial` invariant
        // structural on single-core hosts instead of statistical. The
        // traced path stays on the stealing driver so worker spans and
        // counters still appear wherever a profile was requested.
        return crate::fast::run_serial(backend, plan, inputs, trace);
    }
    let split_threshold = split_threshold.max(1);
    // ~3 segments per worker: enough imbalance slack for stealing to
    // matter, few enough that per-segment overhead stays negligible.
    let segments_target = workers * 3;

    if tracing {
        for &id in plan.order() {
            trace.define_node(id.0, &plan.node_label(id));
        }
    }

    // Every node's materialized output streams. Set once by the driving
    // thread (in topological order, so producers are set before any
    // consumer reads them) and read by pool tasks as shared `'env` slices.
    let cells: Vec<OnceLock<Vec<Stream>>> = (0..n).map(|_| OnceLock::new()).collect();
    let pool = (workers > 1).then(|| StealPool::new(workers, tracing));
    // Inline (unsplit) node evaluations run on the driving thread; fold
    // them into worker 0's counters so the profile covers all work.
    let mut main_tasks = 0u64;
    let mut main_busy_ns = 0u64;
    let mut level_results: HashMap<usize, sam_tensor::level::CompressedLevel> = HashMap::new();
    let mut vals_result: Option<Vec<f64>> = None;

    let outcome = thread::scope(|scope| {
        if let Some(pool) = &pool {
            for w in 1..pool.workers() {
                scope.spawn(move || pool.worker_loop(w));
            }
        }
        let result = (|| -> Result<(), ExecError> {
            for &id in plan.order() {
                let n_outs = nodes[id.0].output_ports().len();
                if plan.is_skip_target(id) {
                    // Fused into the downstream intersecter; streams stay
                    // empty (validation guarantees nobody else reads them).
                    let _ = cells[id.0].set(vec![Stream::new(); n_outs]);
                    continue;
                }
                let node_start = Instant::now();
                let label = plan.node_label(id);
                let lanes = plan.skip_scanners(id);
                let outs: Vec<Stream> = if lanes.iter().any(Option::is_some) {
                    let mut outs = vec![Stream::new(); n_outs];
                    let operand = |o: usize| -> IntersectOperand<'_, SliceSource<'_>> {
                        let src = |p: crate::plan::PortRef| {
                            SliceSource::new(&cells[p.node.0].get().expect("topo order")[p.port])
                        };
                        match lanes[o] {
                            Some(scanner) => {
                                let input = src(plan.inputs_of(scanner)[0].expect("scanner ref input"));
                                IntersectOperand::Scan(GallopScan::new(
                                    scanner_level(plan, inputs, scanner),
                                    input,
                                ))
                            }
                            None => IntersectOperand::Streams {
                                crd: src(plan.inputs_of(id)[o].expect("bound crd port")),
                                rf: src(plan.inputs_of(id)[2 + o].expect("bound ref port")),
                            },
                        }
                    };
                    let (a, b) = (operand(0), operand(1));
                    let [oc, o0, o1, ..] = &mut outs[..] else {
                        unreachable!("intersecter has five outputs")
                    };
                    run_intersect(a, b, oc, o0, o1, &label)?;
                    main_tasks += 1;
                    outs
                } else {
                    let ins: Vec<&[SimToken]> = plan
                        .inputs_of(id)
                        .iter()
                        .flatten()
                        .map(|p| cells[p.node.0].get().expect("topo order")[p.port].as_slice())
                        .collect();
                    let longest = ins.iter().map(|s| s.len()).max().unwrap_or(0);
                    let split = pool.as_ref().filter(|_| longest >= split_threshold).and_then(|pool| {
                        let kind = plan.fiber_split(id);
                        let sp = plan_cuts(kind, &ins, segments_target)?;
                        Some((pool, Arc::new(sp)))
                    });
                    match split {
                        Some((pool, sp)) => run_split_node(
                            plan, inputs, id, &label, &ins, n_outs, pool, &sp, trace, tracing, start,
                        )?,
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
                            main_tasks += 1;
                            outs
                        }
                    }
                };
                if tracing {
                    let elapsed_ns = node_start.elapsed().as_nanos() as u64;
                    let start_ns = (node_start - start).as_nanos() as u64;
                    main_busy_ns += elapsed_ns;
                    trace.record_invocations(id.0, 1);
                    trace.record_node_wall(id.0, elapsed_ns);
                    trace.record_span("worker-0", &label, start_ns, elapsed_ns);
                }
                let _ = cells[id.0].set(outs);
            }
            Ok(())
        })();
        if let Some(pool) = &pool {
            pool.shutdown();
        }
        result
    });
    outcome?;

    if tracing {
        // Classify every node's materialized streams — identical to the
        // serial driver, so per-node counts are scheduling-independent.
        for (node, cell) in cells.iter().enumerate() {
            let outs = cell.get().expect("all nodes evaluated");
            let mut counts = TokenCounts::default();
            for stream in outs {
                for token in stream {
                    counts.record(token);
                }
            }
            trace.record_tokens(node, counts);
        }
        match &pool {
            Some(pool) => {
                for (w, s) in pool.stats().into_iter().enumerate() {
                    let (tasks, busy_ns) = if w == 0 {
                        (s.tasks + main_tasks, s.busy_ns + main_busy_ns)
                    } else {
                        (s.tasks, s.busy_ns)
                    };
                    trace.record_worker(WorkerProfile { index: w, tasks, steals: s.steals, busy_ns });
                }
            }
            None => {
                trace.record_worker(WorkerProfile {
                    index: 0,
                    tasks: main_tasks,
                    steals: 0,
                    busy_ns: main_busy_ns,
                });
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
    let tokens: u64 = cells.iter().filter_map(OnceLock::get).flatten().map(|s| s.len() as u64).sum();
    let output = assemble_output(plan, levels, &vals)?;

    Ok(Execution {
        backend,
        output,
        vals,
        cycles: None,
        blocks: n,
        channels: plan.channels().len(),
        tokens,
        memory: None,
        elapsed: start.elapsed(),
        profile: trace.snapshot(),
    })
}

/// Evaluates one node split into segments on the pool, merging the segment
/// outputs back into whole streams. Falls back to inline serial evaluation
/// when any segment reports an anomaly.
#[allow(clippy::too_many_arguments)]
fn run_split_node<'env>(
    plan: &'env Plan,
    inputs: &'env Inputs,
    id: NodeId,
    label: &str,
    ins: &[&'env [SimToken]],
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
            let ins: Vec<&'env [SimToken]> = ins.to_vec();
            let label = label.to_string();
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
