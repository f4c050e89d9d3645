//! The resident query service: [`Service::submit`] and friends.
//!
//! A [`Service`] owns three long-lived pieces:
//!
//! * the operand corpus (an [`Arc<TensorStore>`]), loaded once;
//! * a **compile cache** (`(expression, schedule, format overrides) →
//!   Arc<ExecutableKernel>`) so each distinct expression lowers through
//!   custard once, and a **plan cache** (a [`PlanCache`] of its own, so a
//!   service's hit/miss counters are not entangled with the process-wide
//!   cache) so each workload shape plans once;
//! * the submission machinery: [`Service::submit`] enqueues a [`Query`]
//!   onto one of a fixed set of **bounded MPSC lanes** (same-expression
//!   queries hash to the same lane) and returns a [`QueryHandle`]
//!   immediately. A coordinator thread drains every lane on each doorbell
//!   ring, prepares the drained queries (compile → bind from the store →
//!   plan), **batches same-plan queries together**, and dispatches the
//!   batch over a work-stealing pool of executor workers
//!   ([`sam_exec::steal::StealPool`] — the same pool the parallel
//!   backends use; the coordinator participates as worker 0).
//!
//! Every query executes through the [`sam_exec::ExecRequest`] door with
//! its plan pre-resolved, on the backend its [`Query::backend`] selected —
//! so a service run is bit-identical to a one-shot request for the same
//! query, and the plan-cache hit path provably changes nothing but speed.
//! Failures (unknown tensors, compile errors, execution errors) surface
//! through [`QueryHandle::wait`], never as panics in the service threads.

use crate::metrics::{MetricsSnapshot, Telemetry, TelemetryConfig};
use crate::store::TensorStore;
use custard::{ConcreteIndexNotation, ExecutableKernel, Formats, Schedule};
use sam_exec::steal::{StealPool, Task};
use sam_exec::{
    BackendSpec, ExecError, ExecRequest, Execution, Inputs, Plan, PlanCache, PlanCacheStats, PlanError,
    Planner,
};
use sam_memory::MemoryConfig;
use sam_tensor::TensorFormat;
use sam_trace::{CountersSink, QuerySpan, Stage, TraceSink};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Whether (and how) one query's execution is traced — the service-path
/// equivalent of [`ExecRequest::traced`].
#[derive(Clone, Default)]
pub enum TraceMode {
    /// No per-execution instrumentation (the default).
    #[default]
    Off,
    /// Drive a service-created [`CountersSink`] so the resolved
    /// [`Execution::profile`] carries an `ExecProfile` — the `run_traced`
    /// semantics, surviving the service path.
    Profile,
    /// Drive this caller-owned sink (a `ChromeTraceSink`, say).
    Sink(Arc<dyn TraceSink + Send + Sync>),
}

impl fmt::Debug for TraceMode {
    // Custom sinks are opaque; print the variant only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceMode::Off => f.write_str("Off"),
            TraceMode::Profile => f.write_str("Profile"),
            TraceMode::Sink(_) => f.write_str("Sink(..)"),
        }
    }
}

/// One query against the resident corpus: a tensor-index expression plus
/// how to schedule, bind and execute it.
#[derive(Debug, Clone)]
pub struct Query {
    expression: String,
    order: Option<String>,
    formats: Vec<(String, TensorFormat)>,
    bindings: Vec<(String, String)>,
    scalars: Vec<(String, f64)>,
    backend: BackendSpec,
    memory: Option<MemoryConfig>,
    traced: TraceMode,
}

impl Query {
    /// A query for `expression` (custard tensor index notation, e.g.
    /// `"x(i) = B(i,j) * c(j)"`) on the default backend with no bindings.
    pub fn new(expression: &str) -> Query {
        Query {
            expression: expression.to_string(),
            order: None,
            formats: Vec::new(),
            bindings: Vec::new(),
            scalars: Vec::new(),
            backend: BackendSpec::default(),
            memory: None,
            traced: TraceMode::Off,
        }
    }

    /// Reorders the loop nest (custard `Schedule::reorder`, e.g. `"ikj"`).
    pub fn order(mut self, order: &str) -> Query {
        self.order = Some(order.to_string());
        self
    }

    /// Overrides the storage format the lowering assumes for one operand.
    pub fn format(mut self, operand: &str, format: TensorFormat) -> Query {
        self.formats.push((operand.to_string(), format));
        self
    }

    /// Binds expression operand `operand` to the stored tensor `stored`.
    pub fn bind(mut self, operand: &str, stored: &str) -> Query {
        self.bindings.push((operand.to_string(), stored.to_string()));
        self
    }

    /// [`Query::bind`] where the operand and the stored tensor share a
    /// name — the common case for a corpus keyed by expression names.
    pub fn operand(self, name: &str) -> Query {
        let stored = name.to_string();
        self.bind(&stored, &stored)
    }

    /// Binds a scalar operand (`alpha`, `beta`) by value.
    pub fn scalar(mut self, name: &str, value: f64) -> Query {
        self.scalars.push((name.to_string(), value));
        self
    }

    /// Selects the backend this query runs on (default: fast-serial).
    pub fn backend(mut self, spec: BackendSpec) -> Query {
        self.backend = spec;
        self
    }

    /// Overrides the finite-memory budget for a tiled-backend query.
    pub fn memory(mut self, memory: MemoryConfig) -> Query {
        self.memory = Some(memory);
        self
    }

    /// Traces this query's execution: the resolved [`Execution::profile`]
    /// carries the per-node/per-worker `ExecProfile`, exactly as a
    /// one-shot `run_traced` would — at the cost of instrumenting that one
    /// execution.
    pub fn traced(mut self) -> Query {
        self.traced = TraceMode::Profile;
        self
    }

    /// Traces this query's execution through a caller-owned sink.
    pub fn traced_with(mut self, sink: Arc<dyn TraceSink + Send + Sync>) -> Query {
        self.traced = TraceMode::Sink(sink);
        self
    }

    /// The expression text.
    pub fn expression(&self) -> &str {
        &self.expression
    }

    /// The backend this query selected.
    pub fn backend_spec(&self) -> BackendSpec {
        self.backend
    }

    /// The loop reorder requested with [`Query::order`], if any.
    pub fn reorder(&self) -> Option<&str> {
        self.order.as_deref()
    }

    /// The per-operand format overrides set with [`Query::format`].
    pub fn format_overrides(&self) -> &[(String, TensorFormat)] {
        &self.formats
    }

    /// The `(operand, stored tensor)` bindings set with [`Query::bind`].
    pub fn bindings(&self) -> &[(String, String)] {
        &self.bindings
    }

    /// The scalar operands set with [`Query::scalar`].
    pub fn scalar_bindings(&self) -> &[(String, f64)] {
        &self.scalars
    }

    /// How this query's execution is traced.
    pub fn trace_mode(&self) -> &TraceMode {
        &self.traced
    }
}

/// Why a submitted query failed. Delivered through [`QueryHandle::wait`].
#[derive(Debug)]
pub enum ServeError {
    /// A binding referenced a tensor the store does not hold.
    UnknownTensor {
        /// The missing stored-tensor name.
        name: String,
    },
    /// The expression failed to parse or lower, or a binding referenced an
    /// operand the compiled kernel does not use.
    Compile {
        /// The offending expression text.
        expression: String,
        /// The parser's or lowering's message.
        message: String,
    },
    /// Planning rejected the compiled graph against the bound tensors — a
    /// wiring or binding defect, reported with every `sam-verify` error
    /// diagnostic.
    Rejected {
        /// The offending expression text.
        expression: String,
        /// The verifier's error diagnostics.
        diagnostics: Vec<sam_verify::Diagnostic>,
    },
    /// Planning or execution failed.
    Exec(ExecError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTensor { name } => write!(f, "no tensor `{name}` in the store"),
            ServeError::Compile { expression, message } => {
                write!(f, "`{expression}` failed to compile: {message}")
            }
            ServeError::Rejected { expression, diagnostics } => {
                write!(f, "`{expression}` failed verification ({} error(s))", diagnostics.len())?;
                for d in diagnostics {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> ServeError {
        ServeError::Exec(e)
    }
}

#[derive(Default)]
struct HandleState {
    slot: Mutex<Option<Result<Execution, ServeError>>>,
    done: Condvar,
}

impl HandleState {
    fn resolve(&self, result: Result<Execution, ServeError>) {
        *self.slot.lock().expect("handle slot") = Some(result);
        self.done.notify_all();
    }
}

/// The future side of one [`Service::submit`] call.
#[derive(Debug)]
pub struct QueryHandle {
    state: Arc<HandleState>,
}

impl fmt::Debug for HandleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandleState").field("done", &self.is_done()).finish()
    }
}

impl HandleState {
    fn is_done(&self) -> bool {
        self.slot.lock().expect("handle slot").is_some()
    }
}

impl QueryHandle {
    /// Blocks until the query finishes and returns its result.
    pub fn wait(self) -> Result<Execution, ServeError> {
        let mut slot = self.state.slot.lock().expect("handle slot");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.done.wait(slot).expect("handle slot");
        }
    }

    /// Whether the result is already available ([`QueryHandle::wait`]
    /// would return without blocking).
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }
}

/// Sizing knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor-pool participants (the coordinator counts as one; clamped
    /// to at least 1).
    pub workers: usize,
    /// Number of submission lanes.
    pub lanes: usize,
    /// Bounded depth of each lane; [`Service::submit`] blocks (applying
    /// backpressure) when its lane is full.
    pub lane_capacity: usize,
    /// Capacity of the service's plan cache.
    pub plan_capacity: usize,
    /// Lifecycle telemetry knobs (see [`TelemetryConfig`]).
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            lanes: 4,
            lane_capacity: 64,
            plan_capacity: 1024,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A snapshot of a service's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Queries accepted by [`Service::submit`].
    pub submitted: u64,
    /// Queries that finished successfully.
    pub completed: u64,
    /// Queries that resolved to a [`ServeError`].
    pub failed: u64,
    /// Coordinator drain cycles that dispatched at least one query.
    pub batches: u64,
    /// Queries that rode in a same-plan group of two or more.
    pub batched_same_plan: u64,
    /// Compile-cache hits (expression already lowered).
    pub compile_hits: u64,
    /// Compile-cache misses (expression lowered now).
    pub compile_misses: u64,
    /// The service's plan-cache counters.
    pub plans: PlanCacheStats,
}

struct Job {
    query: Query,
    state: Arc<HandleState>,
    /// When [`Service::submit`] enqueued the query (telemetry on only).
    enqueued: Option<Instant>,
}

struct Lane {
    queue: Mutex<VecDeque<Job>>,
    not_full: Condvar,
}

#[derive(Default)]
struct Door {
    rung: bool,
    closed: bool,
}

/// `(expression, reorder, format overrides)` — everything that changes
/// what `lower_exec` produces.
type CompileKey = (String, Option<String>, String);

/// A prepared query: compiled, bound and planned, ready to execute.
struct Ready {
    kernel: Arc<ExecutableKernel>,
    plan: Arc<Plan>,
    inputs: Inputs,
    backend: BackendSpec,
    memory: Option<MemoryConfig>,
    state: Arc<HandleState>,
    traced: TraceMode,
    /// The query's lifecycle span so far (telemetry on only).
    span: Option<QuerySpan>,
    /// When preparation finished — the batch stage starts here.
    prepared: Option<Instant>,
}

struct Shared {
    store: Arc<TensorStore>,
    lanes: Vec<Lane>,
    lane_capacity: usize,
    door: Mutex<Door>,
    bell: Condvar,
    kernels: Mutex<HashMap<CompileKey, Arc<ExecutableKernel>>>,
    plans: Arc<PlanCache>,
    pool: StealPool<'static>,
    telemetry: Arc<Telemetry>,
}

impl Shared {
    fn ring(&self) {
        self.door.lock().expect("doorbell").rung = true;
        self.bell.notify_one();
    }

    /// Takes everything currently enqueued, releasing backpressured
    /// submitters.
    fn drain(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for lane in &self.lanes {
            let drained = std::mem::take(&mut *lane.queue.lock().expect("lane"));
            if !drained.is_empty() {
                lane.not_full.notify_all();
                jobs.extend(drained);
            }
        }
        jobs
    }

    /// Lowers the query's expression, through the compile cache. The
    /// returned flag says whether the cache already held the kernel.
    fn kernel(&self, query: &Query) -> Result<(Arc<ExecutableKernel>, bool), ServeError> {
        let mut sig: Vec<String> = query.formats.iter().map(|(n, f)| format!("{n}={f}")).collect();
        sig.sort();
        let key: CompileKey = (query.expression.clone(), query.order.clone(), sig.join(";"));
        if let Some(kernel) = self.kernels.lock().expect("kernels").get(&key) {
            self.telemetry.compile_hits.inc();
            return Ok((Arc::clone(kernel), true));
        }
        self.telemetry.compile_misses.inc();
        let compile_err =
            |message: String| ServeError::Compile { expression: query.expression.clone(), message };
        let assignment = custard::parse(&query.expression).map_err(|e| compile_err(e.to_string()))?;
        let schedule = match &query.order {
            Some(order) => Schedule::new().reorder(order),
            None => Schedule::new(),
        };
        let mut formats = Formats::new();
        for (name, format) in &query.formats {
            formats = formats.set(name, format.clone());
        }
        let cin = ConcreteIndexNotation::new(assignment, &schedule, formats);
        let kernel = Arc::new(custard::lower_exec(&cin).map_err(|e| compile_err(e.to_string()))?);
        // A concurrent miss may have inserted already; either kernel is
        // identical, keep the first.
        Ok((Arc::clone(self.kernels.lock().expect("kernels").entry(key).or_insert(kernel)), false))
    }

    /// Compile, bind from the store, and plan — everything short of
    /// executing. With a span, times the compile stage and the plan stage
    /// (binding rides in the plan stage; the store's own counters break
    /// out materialization cost) and marks the cache outcomes.
    fn prepare(
        &self,
        query: &Query,
        mut span: Option<&mut QuerySpan>,
    ) -> Result<(Arc<ExecutableKernel>, Arc<Plan>, Inputs), ServeError> {
        let compile_started = span.is_some().then(Instant::now);
        let (kernel, compile_hit) = self.kernel(query)?;
        if let (Some(span), Some(started)) = (span.as_deref_mut(), compile_started) {
            span.record(Stage::Compile, started.elapsed());
            span.compile_hit = compile_hit;
        }
        let plan_started = span.is_some().then(Instant::now);
        let mut inputs = Inputs::new();
        for (operand, stored) in &query.bindings {
            let format =
                kernel.formats.iter().find(|(n, _)| n == operand).map(|(_, f)| f.clone()).ok_or_else(
                    || ServeError::Compile {
                        expression: query.expression.clone(),
                        message: format!("binding `{operand}` is not an operand of this expression"),
                    },
                )?;
            let tensor = self
                .store
                .materialize(stored, operand, &format)
                .ok_or_else(|| ServeError::UnknownTensor { name: stored.clone() })?;
            inputs = inputs.shared(tensor);
        }
        for (name, value) in &query.scalars {
            inputs = inputs.scalar(name, *value);
        }
        // Only the coordinator plans against the service's private cache,
        // so a stats delta around this one call attributes the hit or miss
        // to this query.
        let plans_before = span.is_some().then(|| self.plans.stats());
        let plan = Planner::with_cache(Arc::clone(&self.plans)).plan(&kernel.graph, &inputs).map_err(
            |PlanError::Rejected { diagnostics }| ServeError::Rejected {
                expression: query.expression.clone(),
                diagnostics,
            },
        )?;
        if let (Some(span), Some(started)) = (span, plan_started) {
            span.record(Stage::Plan, started.elapsed());
            if let Some(before) = plans_before {
                span.plan_hit = self.plans.stats().delta_since(&before).hits > 0;
            }
        }
        Ok((kernel, plan, inputs))
    }

    /// Prepares a drained batch, groups same-plan queries, and runs the
    /// whole batch over the pool (the calling coordinator participates as
    /// worker 0).
    fn run_jobs(&self, jobs: Vec<Job>) {
        // One clock read attributes queue wait for the whole drain.
        let drained_at = self.telemetry.now();
        let mut groups: HashMap<(usize, BackendSpec), Vec<Ready>> = HashMap::new();
        for job in jobs {
            let mut span = drained_at.map(|now| {
                let mut span = QuerySpan {
                    expression: job.query.expression.clone(),
                    backend: job.query.backend.to_string(),
                    ..QuerySpan::default()
                };
                if let Some(enqueued) = job.enqueued {
                    span.record(Stage::Queue, now.saturating_duration_since(enqueued));
                }
                span
            });
            match self.prepare(&job.query, span.as_mut()) {
                Ok((kernel, plan, inputs)) => {
                    let group = (Arc::as_ptr(&plan) as usize, job.query.backend);
                    groups.entry(group).or_default().push(Ready {
                        kernel,
                        plan,
                        inputs,
                        backend: job.query.backend,
                        memory: job.query.memory,
                        state: job.state,
                        traced: job.query.traced,
                        span,
                        prepared: self.telemetry.now(),
                    });
                }
                Err(e) => {
                    self.telemetry.failed.inc();
                    if let Some(mut span) = span {
                        span.error = Some(e.to_string());
                        self.telemetry.observe_span(&span, None);
                    }
                    job.state.resolve(Err(e));
                }
            }
        }
        if groups.is_empty() {
            return;
        }
        // One task per same-plan chunk: chunks share the plan Arc and are
        // sized so a large group still spreads across the whole pool.
        let workers = self.pool.workers();
        let mut tasks: Vec<Task<'static>> = Vec::new();
        for (_, mut group) in groups {
            if group.len() > 1 {
                self.telemetry.batched_same_plan.add(group.len() as u64);
            }
            self.telemetry.record_batch(group.len());
            let group_len = group.len() as u64;
            for ready in &mut group {
                if let Some(span) = ready.span.as_mut() {
                    span.batch_size = group_len;
                }
            }
            let chunk_len = group.len().div_ceil(workers).max(1);
            let mut group = group.into_iter().peekable();
            while group.peek().is_some() {
                let chunk: Vec<Ready> = group.by_ref().take(chunk_len).collect();
                let telemetry = Arc::clone(&self.telemetry);
                tasks.push(Box::new(move |_w| {
                    for mut ready in chunk {
                        let task_started = telemetry.now();
                        if let (Some(span), Some(started), Some(prepared)) =
                            (ready.span.as_mut(), task_started, ready.prepared)
                        {
                            span.record(Stage::Batch, started.saturating_duration_since(prepared));
                        }
                        // Any trace sink must outlive the request borrowing it.
                        let profile_sink;
                        let trace: Option<&dyn TraceSink> = match &ready.traced {
                            TraceMode::Off => None,
                            TraceMode::Profile => {
                                profile_sink = CountersSink::new();
                                Some(&profile_sink)
                            }
                            TraceMode::Sink(sink) => Some(sink.as_ref()),
                        };
                        let mut request = ExecRequest::new(&ready.kernel.graph, &ready.inputs)
                            .backend(ready.backend)
                            .planned(Arc::clone(&ready.plan));
                        if let Some(memory) = ready.memory {
                            request = request.memory(memory);
                        }
                        if let Some(trace) = trace {
                            request = request.traced(trace);
                        }
                        let result = request.run();
                        let resolve_started = telemetry.now();
                        if let (Some(span), Some(started), Some(ended)) =
                            (ready.span.as_mut(), task_started, resolve_started)
                        {
                            span.record(Stage::Execute, ended.saturating_duration_since(started));
                        }
                        let counter = if result.is_ok() { &telemetry.completed } else { &telemetry.failed };
                        counter.inc();
                        // Publish the span BEFORE waking the handle, so a
                        // waiter that snapshots right after `wait()` returns
                        // is guaranteed to see this query in the histograms.
                        // The resolve stage therefore covers the result
                        // bookkeeping, not the condvar notify itself.
                        if let (Some(span), Some(started)) = (ready.span.as_mut(), resolve_started) {
                            let profile = match &result {
                                Ok(run) => run.profile.clone(),
                                Err(e) => {
                                    span.error = Some(e.to_string());
                                    None
                                }
                            };
                            span.record(Stage::Resolve, started.elapsed());
                            telemetry.observe_span(span, profile.as_ref());
                        }
                        ready.state.resolve(result.map_err(ServeError::from));
                    }
                }));
            }
        }
        self.telemetry.batches.inc();
        self.pool.run_batch(tasks);
    }

    /// The coordinator thread: sleep on the doorbell, drain, dispatch;
    /// on close, drain what is left, then stop the pool.
    fn coordinate(&self) {
        loop {
            let closed = {
                let mut door = self.door.lock().expect("doorbell");
                while !door.rung && !door.closed {
                    door = self.bell.wait(door).expect("doorbell");
                }
                door.rung = false;
                door.closed
            };
            loop {
                let jobs = self.drain();
                if jobs.is_empty() {
                    break;
                }
                self.run_jobs(jobs);
            }
            if closed {
                break;
            }
        }
        self.pool.shutdown();
    }
}

/// The resident tensor service. See the module docs for the moving parts;
/// see [`Service::submit`] for the query lifecycle.
pub struct Service {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service").field("stats", &self.stats()).finish()
    }
}

impl Service {
    /// A service over `store` with default [`ServiceConfig`].
    pub fn new(store: Arc<TensorStore>) -> Service {
        Service::with_config(store, ServiceConfig::default())
    }

    /// A service over `store`, sized by `config`.
    pub fn with_config(store: Arc<TensorStore>, config: ServiceConfig) -> Service {
        let telemetry = Arc::new(Telemetry::new(config.telemetry.clone()));
        let shared = Arc::new(Shared {
            store,
            lanes: (0..config.lanes.max(1))
                .map(|_| Lane { queue: Mutex::new(VecDeque::new()), not_full: Condvar::new() })
                .collect(),
            lane_capacity: config.lane_capacity.max(1),
            door: Mutex::new(Door::default()),
            bell: Condvar::new(),
            kernels: Mutex::new(HashMap::new()),
            plans: Arc::new(PlanCache::new(config.plan_capacity)),
            // Pool timing rides the telemetry switch: worker busy_ns feeds
            // the utilization gauges.
            pool: StealPool::new(config.workers, telemetry.config.enabled),
            telemetry,
        });
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || shared.coordinate()));
        }
        for w in 1..shared.pool.workers() {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || shared.pool.worker_loop(w)));
        }
        Service { shared, threads }
    }

    /// Enqueues `query` and returns immediately. The query is compiled
    /// (compile cache), bound against the store, planned (plan cache),
    /// batched with same-plan queries and executed on its selected
    /// backend; the outcome — success or any error along that path —
    /// arrives through the returned handle's [`QueryHandle::wait`].
    ///
    /// Submission is bounded: when the query's lane is full, `submit`
    /// blocks until the coordinator drains it.
    pub fn submit(&self, query: Query) -> QueryHandle {
        let state = Arc::new(HandleState::default());
        let handle = QueryHandle { state: Arc::clone(&state) };
        let mut hasher = DefaultHasher::new();
        query.expression.hash(&mut hasher);
        let lane = &self.shared.lanes[(hasher.finish() as usize) % self.shared.lanes.len()];
        let enqueued = self.shared.telemetry.now();
        let depth = {
            let mut queue = lane.queue.lock().expect("lane");
            while queue.len() >= self.shared.lane_capacity {
                queue = lane.not_full.wait(queue).expect("lane");
            }
            queue.push_back(Job { query, state, enqueued });
            queue.len()
        };
        self.shared.telemetry.record_lane_depth(depth);
        self.shared.telemetry.submitted.inc();
        self.shared.ring();
        handle
    }

    /// The operand corpus this service serves.
    pub fn store(&self) -> &Arc<TensorStore> {
        &self.shared.store
    }

    /// This service's plan-cache counters.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.shared.plans.stats()
    }

    /// A snapshot of every service counter.
    pub fn stats(&self) -> ServiceStats {
        let t = &self.shared.telemetry;
        ServiceStats {
            submitted: t.submitted.get(),
            completed: t.completed.get(),
            failed: t.failed.get(),
            batches: t.batches.get(),
            batched_same_plan: t.batched_same_plan.get(),
            compile_hits: t.compile_hits.get(),
            compile_misses: t.compile_misses.get(),
            plans: self.shared.plans.stats(),
        }
    }

    /// A typed point-in-time view of the full telemetry surface: lifecycle
    /// counters, per-stage and per-backend latency histograms, batch-size
    /// distribution, plan/compile/store cache behavior, lane-depth
    /// high-water, rolling-window qps and per-worker utilization.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.telemetry.snapshot(
            self.shared.plans.stats(),
            self.shared.store.materialize_stats(),
            &self.shared.pool.stats(),
        )
    }

    /// The same metrics in the Prometheus text exposition format, ready to
    /// serve from a `/metrics` endpoint or dump next to a bench artifact.
    pub fn render_prometheus(&self) -> String {
        self.shared.telemetry.render(
            &self.shared.plans.stats(),
            &self.shared.store.materialize_stats(),
            &self.shared.pool.stats(),
        )
    }

    /// The retained slow-query JSONL events (oldest first). Empty unless
    /// [`TelemetryConfig::slow_query`] is set.
    pub fn recent_events(&self) -> Vec<String> {
        self.shared.telemetry.recent_events()
    }
}

impl Drop for Service {
    /// Stops accepting work, finishes everything already enqueued, and
    /// joins the coordinator and worker threads.
    fn drop(&mut self) {
        self.shared.door.lock().expect("doorbell").closed = true;
        self.shared.bell.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
