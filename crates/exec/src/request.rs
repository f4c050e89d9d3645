//! The one execution entry point: [`ExecRequest`].
//!
//! An [`ExecRequest`] is a graph, its bound inputs, and five choices about
//! how to run them: which backend ([`ExecRequest::backend`] by label, or
//! [`ExecRequest::executor`] for an instance the caller configured), a plan
//! the caller already holds ([`ExecRequest::planned`]), a trace sink
//! ([`ExecRequest::traced`]) and whether planning may use the process-wide
//! [`PlanCache`] ([`ExecRequest::uncached`]). The service, samprof, the
//! benches and the equivalence suites all go through this door; the
//! [`Executor`] trait ([`Executor::run`] / [`Executor::run_traced`]) remains
//! as the backend-facing SPI underneath it.
//!
//! ```
//! use custard::graphs;
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

use crate::cache::PlanCache;
use crate::error::ExecError;
use crate::plan::Plan;
use crate::spec::BackendSpec;
use crate::{Execution, Executor, Inputs};
use sam_core::graph::SamGraph;
use sam_trace::TraceSink;
use std::sync::Arc;

/// One executable unit of work: a graph, its bound inputs, and how to run
/// them. The defaults are the fast-serial backend, no trace sink, and
/// planning through [`PlanCache::global`]. See the module docs.
pub struct ExecRequest<'a> {
    graph: &'a SamGraph,
    inputs: &'a Inputs,
    backend: BackendSpec,
    executor: Option<&'a dyn Executor>,
    planned: Option<Arc<Plan>>,
    trace: Option<&'a dyn TraceSink>,
    uncached: bool,
}

impl std::fmt::Debug for ExecRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecRequest")
            .field("graph", &self.graph.name)
            .field("backend", &self.backend)
            .field("executor", &self.executor.map(|e| e.name()))
            .field("planned", &self.planned.is_some())
            .field("traced", &self.trace.is_some())
            .field("uncached", &self.uncached)
            .finish()
    }
}

impl<'a> ExecRequest<'a> {
    /// A request over `graph` and `inputs` with the defaults.
    pub fn new(graph: &'a SamGraph, inputs: &'a Inputs) -> ExecRequest<'a> {
        ExecRequest {
            graph,
            inputs,
            backend: BackendSpec::default(),
            executor: None,
            planned: None,
            trace: None,
            uncached: false,
        }
    }

    /// Selects the backend by [`BackendSpec`] (default:
    /// [`BackendSpec::FastSerial`]).
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend = spec;
        self
    }

    /// Runs on this exact executor instance instead of building one from
    /// the spec — for custom-configured backends (a tiled backend with its
    /// own memory budget), or for an instance kept across requests (a
    /// [`FastBackend`](crate::FastBackend) reuses the workspace of its last
    /// run).
    pub fn executor(mut self, executor: &'a dyn Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Uses this pre-built plan instead of planning — the service's batched
    /// path, where one cached plan serves many queries.
    pub fn planned(mut self, plan: Arc<Plan>) -> Self {
        self.planned = Some(plan);
        self
    }

    /// Drives `trace` with per-node instrumentation during the run.
    pub fn traced(mut self, trace: &'a dyn TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Plans afresh instead of through the process-wide cache (cold-start
    /// measurement support).
    pub fn uncached(mut self) -> Self {
        self.uncached = true;
        self
    }

    /// Resolves the plan this request would run — the one given to
    /// [`ExecRequest::planned`] if any, otherwise one [`Plan::build`],
    /// looked up in [`PlanCache::global`] first unless
    /// [`ExecRequest::uncached`].
    ///
    /// # Errors
    ///
    /// Returns the planning failure as an [`ExecError::Plan`].
    pub fn plan(&self) -> Result<Arc<Plan>, ExecError> {
        Ok(match &self.planned {
            Some(plan) => Arc::clone(plan),
            None if self.uncached => Arc::new(Plan::build(self.graph, self.inputs)?),
            None => PlanCache::global().get_or_plan(self.graph, self.inputs)?,
        })
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
        let executor: &dyn Executor = match self.executor {
            Some(executor) => executor,
            None => {
                built = self.backend.build();
                built.as_ref()
            }
        };
        match self.trace {
            Some(trace) => executor.run_traced(&plan, self.inputs, trace),
            None => executor.run(&plan, self.inputs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountersSink, CycleBackend};
    use custard::graphs;
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
    fn planned_requests_skip_planning_and_match() -> Result<(), ExecError> {
        let (graph, inputs) = vec_inputs();
        let cache = PlanCache::new(8);
        let fresh = ExecRequest::new(&graph, &inputs).uncached().run()?;
        let plan = cache.get_or_plan(&graph, &inputs)?;
        let request = ExecRequest::new(&graph, &inputs).planned(Arc::clone(&plan));
        assert!(Arc::ptr_eq(&request.plan()?, &plan), "a planned request plans nothing");
        let cached = request.run()?;
        assert_eq!(fresh.output, cached.output);
        assert_eq!(fresh.vals, cached.vals);
        assert_eq!(cache.stats().misses, 1);
        Ok(())
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
        let cycle = CycleBackend;
        let run = ExecRequest::new(&graph, &inputs)
            .backend(BackendSpec::Tiled) // ignored: explicit executor wins
            .executor(&cycle)
            .run()
            .unwrap();
        assert_eq!(run.backend, "cycle");
        assert!(run.memory.is_none());
    }
}
