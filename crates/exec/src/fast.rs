//! The fast functional backend: evaluates the planned graph without
//! per-cycle simulation, serially or in parallel.
//!
//! Where the cycle-approximate backend ticks every block once per simulated
//! cycle, this backend applies each node's *transfer function* (the
//! crate-internal `node` module) directly to its token streams. It runs in
//! one of two modes, selected by [`Parallelism`]:
//!
//! * [`Parallelism::Serial`] — nodes evaluate one at a time in topological
//!   order, each consuming its producers' finished `Vec`s and materializing
//!   its own. No scheduler, no channels, no synchronization: peak
//!   single-thread throughput.
//! * [`Parallelism::Threads`]`(n)` — the *work-stealing* engine: the same
//!   topological node-at-a-time walk, but a node with long input streams is
//!   split at fiber boundaries into independent segments that run as
//!   stealable tasks on up to `n` workers (see the `parallel` module). The
//!   unit of parallelism is data, not graph structure, so the speedup
//!   scales with stream length instead of being capped by the fattest
//!   node. Requested workers are clamped to the host's available
//!   parallelism; with one effective worker the run degenerates to exactly
//!   the serial walk.
//!
//! Both modes share the per-primitive transfer functions and the output
//! assembly, so they produce bit-identical tensors from the same
//! [`Plan`] — as does the cycle backend.
//!
//! ```
//! use sam_core::graphs;
//! use sam_exec::{BackendSpec, ExecRequest, Inputs};
//! use sam_tensor::{synth, TensorFormat};
//!
//! let graph = graphs::spmv();
//! let b = synth::random_matrix_sparsity(60, 40, 0.9, 7);
//! let c = synth::random_vector(40, 40, 8);
//! let inputs = Inputs::new()
//!     .coo("B", &b, TensorFormat::dcsr())
//!     .coo("c", &c, TensorFormat::dense_vec());
//! let serial = ExecRequest::new(&graph, &inputs).run().unwrap();
//! let parallel =
//!     ExecRequest::new(&graph, &inputs).backend(BackendSpec::FastThreads(4)).run().unwrap();
//! assert_eq!(serial.output.unwrap(), parallel.output.unwrap());
//! ```

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::node::{
    eval_node, run_intersect, scanner_level, GallopScan, IntersectOperand, NodeJob, SliceSource, WriterOutput,
};
use crate::plan::Plan;
use crate::{assemble_output, Execution, Executor, Parallelism};
use sam_sim::SimToken;
use sam_trace::{NullSink, TokenCounts, TraceSink};
use std::collections::HashMap;
use std::time::Instant;

type Stream = Vec<SimToken>;

/// Minimum input-stream length (tokens) before the work-stealing engine
/// splits a node's evaluation. Below this, segment setup and merge would
/// cost more than the parallelism buys.
const DEFAULT_SPLIT_THRESHOLD: usize = 8192;

/// Runs plans functionally, without per-cycle simulation; serial by
/// default, parallel with [`FastBackend::threads`].
#[derive(Debug, Clone, Copy)]
pub struct FastBackend {
    parallelism: Parallelism,
    /// Work-stealing engine: minimum stream length before splitting.
    split_threshold: usize,
    /// Work-stealing engine: skip the available-parallelism clamp, so the
    /// splitting machinery runs even on single-core hosts (testing).
    force_split: bool,
}

impl Default for FastBackend {
    fn default() -> Self {
        FastBackend::serial()
    }
}

impl FastBackend {
    fn base(parallelism: Parallelism) -> Self {
        FastBackend { parallelism, split_threshold: DEFAULT_SPLIT_THRESHOLD, force_split: false }
    }

    /// The single-threaded backend (also [`Default`]): whole streams per
    /// node, no synchronization.
    pub fn serial() -> Self {
        FastBackend::base(Parallelism::Serial)
    }

    /// The work-stealing parallel backend: nodes still evaluate in
    /// topological order, but long streams are split at fiber boundaries
    /// into stealable segments across up to `threads` workers (clamped to
    /// at least 1, and at runtime to the host's available parallelism).
    pub fn threads(threads: usize) -> Self {
        FastBackend::base(Parallelism::Threads(threads.max(1)))
    }

    /// A backend with an explicit [`Parallelism`] setting. `Threads(0)` is
    /// clamped to `Threads(1)`.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        match parallelism {
            Parallelism::Serial => FastBackend::serial(),
            Parallelism::Threads(n) => FastBackend::threads(n),
        }
    }

    /// Lowers the work-stealing engine's split threshold to `threshold`
    /// tokens and disables the available-parallelism clamp, so `Threads(n)`
    /// splits streams across `n` workers even on hosts that report fewer
    /// cores. Intended for tests that must exercise the splitting seams
    /// deterministically; the default configuration only splits when real
    /// parallelism is available.
    pub fn with_split_threshold(mut self, threshold: usize) -> Self {
        self.split_threshold = threshold.max(1);
        self.force_split = true;
        self
    }
}

impl Executor for FastBackend {
    fn name(&self) -> &'static str {
        match self.parallelism {
            Parallelism::Serial => "fast-serial",
            Parallelism::Threads(_) => "fast-threads",
        }
    }

    fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    fn run(&self, plan: &Plan, inputs: &Inputs) -> Result<Execution, ExecError> {
        self.run_traced(plan, inputs, &NullSink)
    }

    fn run_traced(
        &self,
        plan: &Plan,
        inputs: &Inputs,
        trace: &dyn TraceSink,
    ) -> Result<Execution, ExecError> {
        match self.parallelism {
            Parallelism::Serial => run_serial(self.name(), plan, inputs, trace),
            Parallelism::Threads(n) => crate::parallel::run_stealing(
                self.name(),
                plan,
                inputs,
                n,
                self.split_threshold,
                self.force_split,
                trace,
            ),
        }
    }
}

/// Serial evaluation: one node at a time in topological order, whole
/// streams per node. Skip-target scanners are not evaluated standalone:
/// each is fused into its intersecter as a [`GallopScan`], so skipped
/// coordinates are never materialized at all.
pub(crate) fn run_serial(
    backend: &'static str,
    plan: &Plan,
    inputs: &Inputs,
    trace: &dyn TraceSink,
) -> Result<Execution, ExecError> {
    let start = Instant::now();
    let tracing = trace.enabled();
    let nodes = plan.graph().nodes();
    let mut streams: Vec<Vec<Stream>> = nodes.iter().map(|_| Vec::new()).collect();
    let mut level_results: HashMap<usize, sam_tensor::level::CompressedLevel> = HashMap::new();
    let mut vals_result: Option<Vec<f64>> = None;

    if tracing {
        for &id in plan.order() {
            trace.define_node(id.0, &plan.node_label(id));
        }
    }

    for &id in plan.order() {
        let mut outs: Vec<Stream> = vec![Stream::new(); nodes[id.0].output_ports().len()];
        if plan.is_skip_target(id) {
            // Fused into the downstream intersecter; its output streams stay
            // empty (validation guarantees nobody else reads them).
            streams[id.0] = outs;
            continue;
        }
        let node_start = if tracing { Some(Instant::now()) } else { None };
        let lanes = plan.skip_scanners(id);
        if lanes.iter().any(Option::is_some) {
            let operand = |o: usize| -> IntersectOperand<'_, SliceSource<'_>> {
                let src = |p: crate::plan::PortRef| SliceSource::new(&streams[p.node.0][p.port]);
                match lanes[o] {
                    Some(scanner) => {
                        let input = src(plan.inputs_of(scanner)[0].expect("scanner ref input"));
                        IntersectOperand::Scan(GallopScan::new(scanner_level(plan, inputs, scanner), input))
                    }
                    None => IntersectOperand::Streams {
                        crd: src(plan.inputs_of(id)[o].expect("bound crd port")),
                        rf: src(plan.inputs_of(id)[2 + o].expect("bound ref port")),
                    },
                }
            };
            let (a, b) = (operand(0), operand(1));
            let [oc, o0, o1, ..] = &mut outs[..] else { unreachable!("intersecter has five outputs") };
            run_intersect(a, b, oc, o0, o1, &plan.node_label(id))?;
        } else {
            let job = NodeJob::build(plan, inputs, id);
            let mut srcs: Vec<SliceSource<'_>> = plan
                .inputs_of(id)
                .iter()
                .flatten()
                .map(|p| SliceSource::new(&streams[p.node.0][p.port]))
                .collect();
            match eval_node(&job, &mut srcs, &mut outs)? {
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
            trace.record_span("serial", &plan.node_label(id), start_ns, elapsed_ns);
        }
        streams[id.0] = outs;
    }

    let levels: Vec<_> = plan
        .level_writers()
        .iter()
        .map(|w| level_results.remove(&w.0).ok_or(ExecError::IncompleteOutput { label: plan.node_label(*w) }))
        .collect::<Result<_, _>>()?;
    let vals =
        vals_result.ok_or(ExecError::IncompleteOutput { label: plan.node_label(plan.vals_writer()) })?;
    let tokens: u64 = streams.iter().flatten().map(|s| s.len() as u64).sum();
    if tracing {
        // Classify every node's materialized output streams — the same
        // tokens the aggregate count above sums, so per-node totals add up
        // to `Execution::tokens` exactly.
        for (node, outs) in streams.iter().enumerate() {
            let mut counts = TokenCounts::default();
            for stream in outs {
                for token in stream {
                    counts.record(token);
                }
            }
            trace.record_tokens(node, counts);
        }
    }
    // Report the planned channel count, like the work-stealing driver, so
    // the metric is comparable across Parallelism settings.
    let channels = plan.channels().len();
    let output = assemble_output(plan, levels, &vals)?;

    Ok(Execution {
        backend,
        output,
        vals,
        cycles: None,
        blocks: nodes.len(),
        channels,
        tokens,
        memory: None,
        elapsed: start.elapsed(),
        profile: trace.snapshot(),
    })
}
