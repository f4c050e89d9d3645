//! The one execution entry point: [`ExecRequest`].
//!
//! An [`ExecRequest`] bundles `{ graph, inputs, options }` and runs them
//! through a single path: resolve a plan (pre-planned via
//! [`ExecRequest::planned`], or through the request's [`Planner`] and its
//! cache), build or borrow the backend, then run traced or untraced. The
//! service, samprof, the benches and the equivalence suites all go through
//! this door; the [`Executor`] trait ([`Executor::run`] /
//! [`Executor::run_traced`]) remains as the backend-facing SPI underneath
//! it.
//!
//! ```
//! use sam_core::graphs;
//! use sam_exec::{BackendSpec, ExecRequest, Inputs};
//! use sam_tensor::{synth, TensorFormat};
//!
//! let graph = graphs::vec_elem_mul(true);
//! let b = synth::random_vector(64, 12, 1);
//! let c = synth::random_vector(64, 12, 2);
//! let inputs = Inputs::new()
//!     .coo("b", &b, TensorFormat::sparse_vec())
//!     .coo("c", &c, TensorFormat::sparse_vec());
//! // Default backend is fast-serial; pick any other by spec.
//! let serial = ExecRequest::new(&graph, &inputs).run().unwrap();
//! let cycle =
//!     ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).run().unwrap();
//! assert_eq!(serial.output.unwrap(), cycle.output.unwrap());
//! ```

use crate::cache::Planner;
use crate::error::ExecError;
use crate::plan::Plan;
use crate::spec::BackendSpec;
use crate::{Execution, Executor, Inputs};
use sam_core::graph::SamGraph;
use sam_memory::MemoryConfig;
use sam_trace::TraceSink;
use std::sync::Arc;

/// Everything about *how* to run a graph, separate from *what* to run.
///
/// The defaults mirror the old one-shot path: fast-serial backend, no
/// trace sink, default memory budget, planning through the process-wide
/// plan cache ([`Planner::cached`]).
pub struct ExecOptions<'a> {
    backend: BackendSpec,
    executor: Option<&'a dyn Executor>,
    planned: Option<Arc<Plan>>,
    trace: Option<&'a dyn TraceSink>,
    memory: Option<MemoryConfig>,
    planner: Planner,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            backend: BackendSpec::default(),
            executor: None,
            planned: None,
            trace: None,
            memory: None,
            planner: Planner::cached(),
        }
    }
}

impl std::fmt::Debug for ExecOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("backend", &self.backend)
            .field("executor", &self.executor.map(|e| e.name()))
            .field("planned", &self.planned.is_some())
            .field("traced", &self.trace.is_some())
            .field("memory", &self.memory)
            .finish()
    }
}

/// One executable unit of work: a graph, its bound inputs, and the
/// [`ExecOptions`] describing how to run them. See the module docs.
#[derive(Debug)]
pub struct ExecRequest<'a> {
    graph: &'a SamGraph,
    inputs: &'a Inputs,
    options: ExecOptions<'a>,
}

impl<'a> ExecRequest<'a> {
    /// A request over `graph` and `inputs` with default [`ExecOptions`].
    pub fn new(graph: &'a SamGraph, inputs: &'a Inputs) -> ExecRequest<'a> {
        ExecRequest { graph, inputs, options: ExecOptions::default() }
    }

    /// Replaces the whole option bundle.
    pub fn options(mut self, options: ExecOptions<'a>) -> Self {
        self.options = options;
        self
    }

    /// Selects the backend by [`BackendSpec`] (default:
    /// [`BackendSpec::FastSerial`]).
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.options.backend = spec;
        self
    }

    /// Runs on this exact executor instance instead of building one from
    /// the spec — for custom-configured backends (cycle budgets, tile-size
    /// overrides).
    pub fn executor(mut self, executor: &'a dyn Executor) -> Self {
        self.options.executor = Some(executor);
        self
    }

    /// Uses this pre-built plan instead of planning — the service's batched
    /// path, where one cached plan serves many queries.
    pub fn planned(mut self, plan: Arc<Plan>) -> Self {
        self.options.planned = Some(plan);
        self
    }

    /// Drives `trace` with per-node instrumentation during the run (the
    /// old `run_traced` door).
    pub fn traced(mut self, trace: &'a dyn TraceSink) -> Self {
        self.options.trace = Some(trace);
        self
    }

    /// Overrides the finite-memory budget of a [`BackendSpec::Tiled`]
    /// backend built by this request (ignored for the other backends and
    /// for explicit [`ExecRequest::executor`] instances).
    pub fn memory(mut self, memory: MemoryConfig) -> Self {
        self.options.memory = Some(memory);
        self
    }

    /// Plans through this [`Planner`] instead of the process-wide cache —
    /// a service's own cache, say.
    pub fn planner(mut self, planner: Planner) -> Self {
        self.options.planner = planner;
        self
    }

    /// Bypasses plan caching entirely (the pre-cache behavior; cold-start
    /// measurement support).
    pub fn uncached(self) -> Self {
        self.planner(Planner::uncached())
    }

    /// Resolves the plan this request would run — from
    /// [`ExecRequest::planned`] if set, otherwise through the planner.
    ///
    /// # Errors
    ///
    /// Returns the planning failure as an [`ExecError::Plan`].
    pub fn plan(&self) -> Result<Arc<Plan>, ExecError> {
        match &self.options.planned {
            Some(plan) => Ok(Arc::clone(plan)),
            None => Ok(self.options.planner.plan(self.graph, self.inputs)?),
        }
    }

    /// Plans (or reuses the provided plan) and executes.
    ///
    /// # Errors
    ///
    /// Returns any planning or execution error; see [`Plan::build`] and
    /// [`Executor::run`].
    pub fn run(self) -> Result<Execution, ExecError> {
        let plan = self.plan()?;
        let built;
        let executor: &dyn Executor = match self.options.executor {
            Some(executor) => executor,
            None => {
                built = self.options.backend.build_with_memory(self.options.memory);
                built.as_ref()
            }
        };
        match self.options.trace {
            Some(trace) => executor.run_traced(&plan, self.inputs, trace),
            None => executor.run(&plan, self.inputs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use crate::{CountersSink, CycleBackend};
    use sam_core::graphs;
    use sam_tensor::{synth, TensorFormat};

    fn vec_inputs() -> (sam_core::graph::SamGraph, Inputs) {
        let graph = graphs::vec_elem_mul(true);
        let b = synth::random_vector(80, 20, 3);
        let c = synth::random_vector(80, 24, 4);
        let inputs =
            Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
        (graph, inputs)
    }

    #[test]
    fn every_spec_runs_through_the_door() {
        let (graph, inputs) = vec_inputs();
        let reference = ExecRequest::new(&graph, &inputs).run().unwrap();
        for spec in BackendSpec::all() {
            let run = ExecRequest::new(&graph, &inputs).backend(spec).run().unwrap();
            assert_eq!(run.backend, spec.label());
            assert_eq!(run.output, reference.output, "{spec} output diverged");
        }
    }

    #[test]
    fn planned_requests_skip_planning_and_match() {
        let (graph, inputs) = vec_inputs();
        let cache = Arc::new(PlanCache::new(8));
        let planner = Planner::with_cache(Arc::clone(&cache));
        let fresh = ExecRequest::new(&graph, &inputs).uncached().run().unwrap();
        let plan = ExecRequest::new(&graph, &inputs).planner(planner.clone()).plan().unwrap();
        let cached = ExecRequest::new(&graph, &inputs).planned(plan).run().unwrap();
        assert_eq!(fresh.output, cached.output);
        assert_eq!(fresh.vals, cached.vals);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn traced_requests_surface_a_profile() {
        let (graph, inputs) = vec_inputs();
        let sink = CountersSink::new();
        let run = ExecRequest::new(&graph, &inputs).traced(&sink).run().unwrap();
        let profile = run.profile.expect("traced run must carry a profile");
        assert_eq!(profile.total_tokens(), run.tokens);
    }

    #[test]
    fn explicit_executors_override_the_spec() {
        let (graph, inputs) = vec_inputs();
        let cycle = CycleBackend::default();
        let run = ExecRequest::new(&graph, &inputs)
            .backend(BackendSpec::Tiled) // ignored: explicit executor wins
            .executor(&cycle)
            .run()
            .unwrap();
        assert_eq!(run.backend, "cycle");
        assert!(run.memory.is_none());
    }
}
