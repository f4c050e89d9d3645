//! # sam-exec
//!
//! A graph-driven execution engine that runs any [`SamGraph`] end-to-end —
//! whether hand-built through `sam_core::build::GraphBuilder`, taken from
//! the `custard::graphs` kernel catalog, or compiled from tensor index
//! notation by `custard::lower_exec`.
//!
//! [`SamGraph`]: sam_core::graph::SamGraph
//!
//! The crate has two halves:
//!
//! * a **planner** ([`Plan`]) built from one run of `sam-verify`'s analysis,
//!   which resolves every edge to producer/consumer ports, topologically
//!   orders the graph and validates the whole configuration against the
//!   bound tensors up front; the planner adds the stream forks a simulator
//!   needs wherever one port feeds several consumers, scanner fusion, and
//!   one record per node that the backends dispatch on, each tensor it
//!   reads named by its binding's position, and
//! * three **backends** behind one [`Executor`] trait:
//!   [`CycleBackend`] instantiates `sam-primitives` blocks into the
//!   `sam-sim` simulator for cycle-approximate runs, [`FastBackend`]
//!   evaluates the same plan functionally, one node at a time over whole
//!   streams on the calling thread (the "fast concrete executor next to
//!   the instrumented machine" pattern), and
//!   [`TiledBackend`] runs the plan tile by tile under a finite-memory
//!   budget, recording measured DRAM/LLB counters (the paper's Section 6.4
//!   machine).
//!
//! Execution goes through one door, [`ExecRequest`]: a graph, its bound
//! inputs, and how to run them (backend by [`BackendSpec`] or by instance,
//! optional trace sink, pre-built plan). Requests plan through the global
//! [`PlanCache`] by default, so repeated executions of one workload shape
//! pay for planning once. A query runs on one thread; what runs in
//! parallel is whole queries, on `sam-serve`'s workers.
//!
//! # Running a kernel on both backends
//!
//! ```
//! use custard::graphs;
//! use sam_exec::{BackendSpec, ExecRequest, Inputs};
//! use sam_tensor::{synth, TensorFormat};
//!
//! // x(i) = b(i) * c(i) over two sparse vectors, on both backends.
//! let graph = graphs::vec_elem_mul(true);
//! let b = synth::random_vector(64, 12, 1);
//! let c = synth::random_vector(64, 12, 2);
//! let inputs = Inputs::new()
//!     .coo("b", &b, TensorFormat::sparse_vec())
//!     .coo("c", &c, TensorFormat::sparse_vec());
//! let cycle =
//!     ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).run().unwrap();
//! let fast = ExecRequest::new(&graph, &inputs).run().unwrap();
//! assert!(cycle.cycles.unwrap() > 0);
//! assert_eq!(cycle.output.unwrap(), fast.output.unwrap());
//! ```
//!
//! # Building, planning and executing by hand
//!
//! [`Plan::build`] exposes the intermediate step [`ExecRequest`] wraps:
//! plan once, inspect the planned topology, then run the same plan on any
//! backend (and over the same inputs, as many times as needed).
//!
//! ```
//! use sam_core::build::GraphBuilder;
//! use sam_exec::{Executor, FastBackend, Inputs, Plan};
//! use sam_tensor::{synth, TensorFormat};
//!
//! // Build x(i) = b(i) * b(i) directly with the graph builder.
//! let mut g = GraphBuilder::new("x(i) = b(i) * b(i)");
//! let root = g.root("b");
//! let (crd, rf) = g.scan("b", 'i', true, root);
//! let v = g.array("b", rf);
//! let sq = g.alu("mul", v, v);
//! g.write_level("x", 'i', crd);
//! g.write_vals("x", sq);
//! let graph = g.finish();
//!
//! let b = synth::random_vector(32, 8, 3);
//! let inputs = Inputs::new().coo("b", &b, TensorFormat::sparse_vec());
//! let plan = Plan::build(&graph, &inputs).unwrap();
//! // The value array and the ALU's second input ride on planned forks.
//! assert!(plan.fork_count() > 0);
//! assert!(!plan.channels().is_empty());
//! let run = FastBackend::new().run(&plan, &inputs).unwrap();
//! assert_eq!(run.vals.len(), b.entries().len());
//! ```
//!
//! # Tracing a run
//!
//! Every backend implements [`Executor::run_traced`], which drives a
//! [`TraceSink`] (from `sam-trace`) with per-node token counts, wall time
//! and timeline spans, and surfaces the rollup as [`Execution::profile`]:
//!
//! ```
//! use custard::graphs;
//! use sam_exec::{CountersSink, Executor, FastBackend, Inputs, Plan};
//! use sam_tensor::{synth, TensorFormat};
//!
//! let graph = graphs::spmv();
//! let b = synth::random_matrix_sparsity(30, 20, 0.9, 5);
//! let c = synth::random_vector(20, 20, 6);
//! let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
//! let plan = Plan::build(&graph, &inputs).unwrap();
//! let sink = CountersSink::new();
//! let run = FastBackend::new().run_traced(&plan, &inputs, &sink).unwrap();
//! let profile = run.profile.unwrap();
//! // Every token the run counted is attributed to exactly one node.
//! assert_eq!(profile.total_tokens(), run.tokens);
//! assert!(profile.nodes.iter().any(|n| n.label.starts_with("scan")));
//! ```

#![warn(missing_docs)]

pub mod bind;
pub mod cache;
pub mod cycle;
pub mod error;
pub mod fast;
mod node;
pub mod plan;
pub mod request;
mod schedule;
pub mod spec;
pub mod tiled;

pub use bind::Inputs;
pub use cache::{PlanCache, PlanCacheStats};
pub use cycle::CycleBackend;
pub use error::{ExecError, PlanError};
pub use fast::FastBackend;
pub use plan::{ChannelSpec, FusedScan, Plan, PortRef, SkipSpec, DEFAULT_MAX_CYCLES};
pub use request::ExecRequest;
pub use sam_memory::MemoryCounters;
pub use sam_trace::{
    ChromeTraceSink, CountersSink, ExecProfile, NodeProfile, NullSink, Stage, TokenCounts, TraceSink,
    WorkerProfile,
};
pub use spec::{BackendSpec, ParseBackendError};
pub use tiled::TiledBackend;

use sam_tensor::level::{CompressedLevel, Level};
use sam_tensor::{Tensor, TensorFormat};
use std::time::Duration;

/// The outcome of executing a planned graph on one backend.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Which backend ran: `"cycle"`, `"fast-serial"` or `"tiled"`.
    pub backend: &'static str,
    /// The assembled output tensor (absent for graphs with no level
    /// writers, e.g. full reductions to a scalar).
    pub output: Option<Tensor>,
    /// The raw output values, exactly as the values writer received them.
    pub vals: Vec<f64>,
    /// Simulated cycles (cycle backend only).
    pub cycles: Option<u64>,
    /// Number of primitive instances executed (including planned forks on
    /// the cycle backend).
    pub blocks: usize,
    /// Number of point-to-point streams in the run. The fast and tiled
    /// backends report the planned channel count ([`Plan::channels`]); the
    /// cycle backend reports simulator channels, including fork lanes.
    pub channels: usize,
    /// Total tokens that flowed through the graph.
    pub tokens: u64,
    /// Measured finite-memory counters ([`TiledBackend`] only): DRAM bytes
    /// moved, LLB occupancy high-water mark, tiles skipped/executed and LLB
    /// capacity spills.
    pub memory: Option<MemoryCounters>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Per-node observability rollup. Populated only by
    /// [`Executor::run_traced`] with a sink that accumulates one (e.g.
    /// [`CountersSink`] or [`ChromeTraceSink`]); `None` on untraced runs.
    pub profile: Option<ExecProfile>,
}

/// A backend that can run a [`Plan`].
pub trait Executor {
    /// Short backend name used in reports.
    fn name(&self) -> &'static str;

    /// Executes the plan over the bound inputs, untraced: exactly
    /// [`Executor::run_traced`] with the [`NullSink`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] when the run fails (simulator deadlock,
    /// cycle limit, misaligned streams, out-of-bounds references, or an
    /// incomplete output).
    fn run(&self, plan: &Plan, inputs: &Inputs) -> Result<Execution, ExecError> {
        self.run_traced(plan, inputs, &NullSink)
    }

    /// Executes the plan while driving `trace` with per-node
    /// instrumentation (see the `sam-trace` crate). Sinks whose
    /// [`TraceSink::enabled`] returns `false` (the [`NullSink`]) skip all
    /// instrumentation work.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Executor::run`].
    fn run_traced(&self, plan: &Plan, inputs: &Inputs, trace: &dyn TraceSink)
        -> Result<Execution, ExecError>;
}

/// Assembles the output tensor from the written levels and values. Both
/// backends share this, so their outputs are structurally identical.
pub(crate) fn assemble_output(
    plan: &Plan,
    levels: Vec<CompressedLevel>,
    vals: &[f64],
) -> Result<Option<Tensor>, ExecError> {
    check_output(&levels, vals)?;
    if levels.is_empty() {
        return Ok(None);
    }
    let order = levels.len();
    Ok(Some(Tensor::from_parts(
        plan.output_name(),
        plan.output_shape().to_vec(),
        TensorFormat::csf(order),
        levels.into_iter().map(Level::Compressed).collect(),
        vals.to_vec(),
    )))
}

/// Checks that the written levels and values form one tree: every level
/// below the first holds one fiber per entry of the level above it, and the
/// values one entry per entry of the last level. A graph whose writers
/// disagree (one written in another loop order than its parent, say) fails
/// here instead of returning a tensor nobody can read. Below a level with no
/// entries, a level holding none passes whatever its fibers: an empty outer
/// fiber reaches the writers below it as the one empty fiber its scanners
/// emit.
pub(crate) fn check_output(levels: &[CompressedLevel], vals: &[f64]) -> Result<(), ExecError> {
    let nested = levels.windows(2).all(|pair| {
        let (parent, child) = (&pair[0], &pair[1]);
        child.seg.len() == parent.crd.len() + 1 || parent.crd.is_empty() && child.crd.is_empty()
    });
    if nested && levels.last().is_none_or(|last| last.crd.len() == vals.len()) {
        Ok(())
    } else {
        Err(ExecError::Misaligned { label: "output assembly".to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use custard::graphs;
    use custard::graphs::SpmmDataflow;
    use sam_tensor::reference::Environment;
    use sam_tensor::{expr::table1, synth, TensorFormat};

    fn dense_env(pairs: &[(&str, &sam_tensor::CooTensor)]) -> Environment {
        let mut env = Environment::new();
        for (name, coo) in pairs {
            env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(coo.order())).to_dense());
        }
        env
    }

    #[test]
    fn vecmul_graph_runs_on_both_backends() {
        let graph = graphs::vec_elem_mul(true);
        let b = synth::random_vector(200, 40, 3);
        let c = synth::random_vector(200, 50, 4);
        let inputs =
            Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
        let cycle = ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).run().unwrap();
        let fast = ExecRequest::new(&graph, &inputs).run().unwrap();
        let mut env = dense_env(&[("b", &b), ("c", &c)]);
        env.set_dim('i', 200);
        let expect = env.evaluate(&table1::vec_elem_mul()).unwrap();
        assert!(cycle.output.as_ref().unwrap().to_dense().approx_eq(&expect));
        assert_eq!(cycle.output.unwrap(), fast.output.unwrap());
        assert!(cycle.cycles.unwrap() > 0);
        assert!(fast.cycles.is_none());
        assert!(fast.tokens > 0);
    }

    #[test]
    fn spmv_graph_matches_dense_reference() {
        let graph = graphs::spmv();
        let b = synth::random_matrix_sparsity(30, 20, 0.9, 5);
        let c = synth::random_vector(20, 20, 6);
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
        let mut env = dense_env(&[("B", &b)]);
        env.insert("c", Tensor::from_coo("c", &c, TensorFormat::dense_vec()).to_dense());
        env.bind_dims(&table1::spmv(), &[]);
        let expect = env.evaluate(&table1::spmv()).unwrap();
        for backend in [&CycleBackend as &dyn Executor, &FastBackend::new()] {
            let run = ExecRequest::new(&graph, &inputs).executor(backend).run().unwrap();
            assert!(run.output.unwrap().to_dense().approx_eq(&expect), "{} backend diverged", backend.name());
        }
    }

    #[test]
    fn every_spmm_dataflow_graph_matches_reference() {
        let b = synth::random_matrix_sparsity(18, 14, 0.85, 7);
        let c = synth::random_matrix_sparsity(14, 16, 0.85, 8);
        let mut env = dense_env(&[("B", &b), ("C", &c)]);
        env.bind_dims(&table1::spmm(), &[]);
        let expect = env.evaluate(&table1::spmm()).unwrap();
        for dataflow in
            [SpmmDataflow::LinearCombination, SpmmDataflow::InnerProduct, SpmmDataflow::OuterProduct]
        {
            let graph = graphs::spmm(dataflow);
            let b_fmt = if dataflow == SpmmDataflow::OuterProduct {
                TensorFormat::dcsc()
            } else {
                TensorFormat::dcsr()
            };
            let c_fmt = if dataflow == SpmmDataflow::InnerProduct {
                TensorFormat::dcsc()
            } else {
                TensorFormat::dcsr()
            };
            let inputs = Inputs::new().coo("B", &b, b_fmt).coo("C", &c, c_fmt);
            let cycle = ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).run().unwrap();
            let fast = ExecRequest::new(&graph, &inputs).run().unwrap();
            assert!(
                cycle.output.as_ref().unwrap().to_dense().approx_eq(&expect),
                "{} cycle run diverged",
                graph.name
            );
            assert!(
                fast.output.as_ref().unwrap().to_dense().approx_eq(&expect),
                "{} fast run diverged",
                graph.name
            );
        }
    }

    #[test]
    fn sddmm_graph_matches_reference() {
        let (i, j, k) = (12, 10, 4);
        let b = synth::random_matrix_sparsity(i, j, 0.8, 9);
        let c = synth::dense_matrix(i, k, 10);
        let d = synth::dense_matrix(j, k, 11);
        let graph = graphs::sddmm_coiteration();
        let inputs = Inputs::new()
            .coo("B", &b, TensorFormat::dcsr())
            .coo("C", &c, TensorFormat::dense(2))
            .coo("D", &d, TensorFormat::dense(2));
        let mut env = dense_env(&[("B", &b), ("C", &c), ("D", &d)]);
        env.bind_dims(&table1::sddmm(), &[]);
        let expect = env.evaluate(&table1::sddmm()).unwrap();
        for backend in [&CycleBackend as &dyn Executor, &FastBackend::new()] {
            let run = ExecRequest::new(&graph, &inputs).executor(backend).run().unwrap();
            assert!(run.output.unwrap().to_dense().approx_eq(&expect), "{} backend diverged", backend.name());
        }
    }

    #[test]
    fn identity_graph_round_trips() {
        let b = synth::random_matrix_sparsity(15, 12, 0.85, 12);
        let graph = graphs::identity();
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr());
        let run = ExecRequest::new(&graph, &inputs).run().unwrap();
        let expect = Tensor::from_coo("B", &b, TensorFormat::dcsr());
        assert!(run.output.unwrap().approx_eq(&expect));
    }
}
