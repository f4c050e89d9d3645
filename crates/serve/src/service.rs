//! The resident query service: [`Service::submit`] and friends.
//!
//! A [`Service`] owns three long-lived pieces:
//!
//! * the operand corpus (an [`Arc<TensorStore>`]), loaded once;
//! * a **compile cache** (`(expression, schedule, format overrides) →
//!   Arc<ExecutableKernel>`) so each distinct expression lowers through
//!   custard once, and a **plan cache** (a [`PlanCache`] of its own, so a
//!   service's hit/miss counters are not entangled with the process-wide
//!   cache) so each workload shape plans once. Neither builds a key to look
//!   a query up: the compile cache files each lowering under its
//!   expression and compares the query's reorder and [`TensorFormat`]
//!   overrides with it in place, the store finds a materialized tensor by
//!   its bound name and format in place, and the plan cache hashes what a
//!   plan reads of its inputs once;
//! * the submission machinery: one bounded FIFO queue and
//!   [`ServiceConfig::workers`] identical worker threads.
//!   [`Service::submit`] pushes a [`Query`] and returns a [`QueryHandle`]
//!   immediately (blocking only while the queue is full — backpressure);
//!   each worker pops the oldest query and carries it the whole way:
//!   compile → bind from the store → plan → execute → resolve the handle.
//!   No thread waits for another's query, so a slow query delays only the
//!   queries behind it that find every other worker busy too.
//!
//! Every query executes through the [`sam_exec::ExecRequest`] door with
//! its plan pre-resolved, on the backend its [`Query::backend`] selected —
//! so a service run is bit-identical to a one-shot request for the same
//! query, and the plan-cache hit path provably changes nothing but speed.
//! Each worker builds its executors, one per backend, once, and hands the
//! request the one its query selected ([`sam_exec::ExecRequest::executor`]):
//! a fast-serial query walks in the workspace the worker's fast-serial
//! query before it left, so a warm query allocates little more than its
//! output.
//! Failures (unknown tensors, compile errors, execution errors, even a
//! panic inside one execution) surface through [`QueryHandle::wait`];
//! the worker that met them keeps serving. Dropping the service finishes
//! everything already queued, then joins the workers.

use crate::metrics::{MetricsSnapshot, Telemetry};
use crate::store::TensorStore;
use custard::{ConcreteIndexNotation, ExecutableKernel, Formats, Schedule};
use sam_exec::{
    BackendSpec, ExecError, ExecRequest, Execution, Executor, Inputs, Plan, PlanCache, PlanCacheStats,
    PlanError,
};
use sam_tensor::TensorFormat;
use sam_trace::{CountersSink, QuerySpan, Stage, TraceSink};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Whether (and how) one query's execution is traced — the service-path
/// equivalent of [`ExecRequest::traced`].
#[derive(Clone, Default)]
enum TraceMode {
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
    /// The query's compilation, planning or execution panicked. The panic
    /// was contained: only this query is lost.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
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
            ServeError::Panicked { message } => write!(f, "the query panicked: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> ServeError {
        ServeError::Exec(e)
    }
}

/// What a [`QueryHandle`] and the worker running its query share. The
/// query lives here, not in the queued job, so it is freed with the handle
/// — on the submitter's side, by the thread that allocated it. Freed by a
/// worker instead, every query sends a dozen small blocks back to another
/// thread's malloc arena, and two workers contending on those arena locks
/// cost `serve-warm-zipf` up to 1.6x in round time (`bench/PR18_compare.txt`).
struct HandleState {
    query: Query,
    slot: Mutex<Option<Result<Execution, ServeError>>>,
    done: Condvar,
}

impl HandleState {
    fn resolve(&self, result: Result<Execution, ServeError>) {
        *self.slot.lock().expect("handle slot") = Some(result);
        self.done.notify_all();
    }

    fn is_done(&self) -> bool {
        self.slot.lock().expect("handle slot").is_some()
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
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Bounded depth of the submission queue; [`Service::submit`] blocks
    /// (applying backpressure) while it is full. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Capacity of the service's plan cache.
    pub plan_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 4, queue_capacity: 256, plan_capacity: 1024 }
    }
}

struct Job {
    state: Arc<HandleState>,
    /// When [`Service::submit`] enqueued the query.
    enqueued: Instant,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set by [`Service`]'s `Drop`: workers exit once `jobs` is empty.
    closed: bool,
}

/// One lowering of an expression, filed under the expression: everything
/// else that changes what `lower_exec` produces — the reorder and the
/// format overrides, the last one per operand as [`Formats`] keeps them —
/// and the kernel.
struct Compiled {
    order: Option<String>,
    formats: Vec<(String, TensorFormat)>,
    kernel: Arc<ExecutableKernel>,
}

impl Compiled {
    /// Whether `query` asks for this lowering, compared in place.
    fn serves(&self, query: &Query) -> bool {
        self.order == query.order
            && overrides(&query.formats).count() == self.formats.len()
            && overrides(&query.formats)
                .all(|(name, f)| self.formats.iter().any(|(n, g)| n == name && g == f))
    }
}

/// The format overrides [`Formats`] keeps of `formats`: the last one per
/// operand.
fn overrides(formats: &[(String, TensorFormat)]) -> impl Iterator<Item = &(String, TensorFormat)> {
    formats
        .iter()
        .enumerate()
        .filter(|&(at, (name, _))| formats[at + 1..].iter().all(|(later, _)| later != name))
        .map(|(_, pair)| pair)
}

struct Shared {
    store: Arc<TensorStore>,
    queue: Mutex<Queue>,
    queue_capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    /// The lowerings of each expression.
    kernels: Mutex<HashMap<String, Vec<Compiled>>>,
    plans: PlanCache,
    telemetry: Telemetry,
}

/// A worker's executors, one per backend, each run by that worker alone.
type Executors = [(BackendSpec, Box<dyn Executor>); 3];

/// The string a panic carried, for [`ServeError::Panicked`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_string(),
    }
}

impl Shared {
    /// Locks the queue. Every update under this lock is one push, one pop
    /// or one flag store, so the queue is valid at every step and a
    /// poisoned guard is recovered.
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a job is queued and takes the oldest; `None` once the
    /// queue is closed and empty.
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.lock_queue();
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if queue.closed {
                return None;
            }
            queue = self.not_empty.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Lowers the query's expression, through the compile cache.
    fn kernel(&self, query: &Query) -> Result<Arc<ExecutableKernel>, ServeError> {
        // Lowering under the lock makes a miss one per lowering however many
        // workers race on it. The map is only touched after the lowering
        // has returned, so a poisoned guard (a lowering panic) is recovered.
        let mut kernels = self.kernels.lock().unwrap_or_else(PoisonError::into_inner);
        let lowered = kernels.get(query.expression.as_str());
        if let Some(compiled) = lowered.and_then(|lowered| lowered.iter().find(|c| c.serves(query))) {
            self.telemetry.compile_hits.inc();
            return Ok(Arc::clone(&compiled.kernel));
        }
        self.telemetry.compile_misses.inc();
        let compile_err =
            |message: String| ServeError::Compile { expression: query.expression.clone(), message };
        let assignment = custard::parse(&query.expression).map_err(|e| compile_err(e.to_string()))?;
        let schedule =
            query.order.as_deref().map_or_else(Schedule::new, |order| Schedule::new().reorder(order));
        let mut formats = Formats::new();
        for (name, format) in &query.formats {
            formats = formats.set(name, format.clone());
        }
        // A query's order is outside input: checked, not asserted.
        let cin = ConcreteIndexNotation::try_new(assignment, &schedule, formats)
            .map_err(|e| compile_err(e.to_string()))?;
        let kernel = Arc::new(custard::lower_exec(&cin).map_err(|e| compile_err(e.to_string()))?);
        kernels.entry(query.expression.clone()).or_default().push(Compiled {
            order: query.order.clone(),
            formats: overrides(&query.formats).cloned().collect(),
            kernel: Arc::clone(&kernel),
        });
        Ok(kernel)
    }

    /// Compile, bind from the store, and plan — everything short of
    /// executing. Times the compile stage and the plan stage into `span`
    /// (binding rides in the plan stage; the store's own counters break
    /// out materialization cost).
    fn prepare(
        &self,
        query: &Query,
        span: &mut QuerySpan,
    ) -> Result<(Arc<ExecutableKernel>, Arc<Plan>, Inputs), ServeError> {
        let compile_started = Instant::now();
        let kernel = self.kernel(query)?;
        span.record(Stage::Compile, compile_started.elapsed());
        let plan_started = Instant::now();
        let mut inputs = Inputs::new();
        for (operand, stored) in &query.bindings {
            let format =
                kernel.formats.iter().find(|(n, _)| n == operand).map(|(_, f)| f).ok_or_else(|| {
                    ServeError::Compile {
                        expression: query.expression.clone(),
                        message: format!("binding `{operand}` is not an operand of this expression"),
                    }
                })?;
            // `Tensor::from_coo` asserts the orders agree; a binding is
            // outside input, so it is checked before the store builds.
            if let Some(coo) = self.store.coo(stored).filter(|coo| coo.order() != format.order()) {
                let n = format.order();
                return Err(ServeError::Compile {
                    expression: query.expression.clone(),
                    message: format!(
                        "binding `{operand}`: stored tensor `{stored}` has order {}, the operand is indexed \
                         by {n} variable{}",
                        coo.order(),
                        if n == 1 { "" } else { "s" }
                    ),
                });
            }
            let tensor = self
                .store
                .materialize(stored, operand, format)
                .ok_or_else(|| ServeError::UnknownTensor { name: stored.clone() })?;
            inputs = inputs.shared(tensor);
        }
        for (name, value) in &query.scalars {
            inputs = inputs.scalar(name, *value);
        }
        let plan = self.plans.get_or_plan(&kernel.graph, &inputs).map_err(
            |PlanError::Rejected { diagnostics }| ServeError::Rejected {
                expression: query.expression.clone(),
                diagnostics,
            },
        )?;
        span.record(Stage::Plan, plan_started.elapsed());
        Ok((kernel, plan, inputs))
    }

    /// One query, start to finish: prepare, then execute through the
    /// [`ExecRequest`] door on the planned graph, on the worker's executor
    /// for the query's backend.
    fn run(
        &self,
        query: &Query,
        span: &mut QuerySpan,
        executors: &Executors,
    ) -> Result<Execution, ServeError> {
        let (kernel, plan, inputs) = self.prepare(query, span)?;
        let execute_started = Instant::now();
        // Any trace sink must outlive the request borrowing it.
        let profile_sink;
        let trace: Option<&dyn TraceSink> = match &query.traced {
            TraceMode::Off => None,
            TraceMode::Profile => {
                profile_sink = CountersSink::new();
                Some(&profile_sink)
            }
            TraceMode::Sink(sink) => Some(sink.as_ref()),
        };
        let mut request = ExecRequest::new(&kernel.graph, &inputs).backend(query.backend).planned(plan);
        if let Some((_, executor)) = executors.iter().find(|(spec, _)| *spec == query.backend) {
            request = request.executor(executor.as_ref());
        }
        if let Some(trace) = trace {
            request = request.traced(trace);
        }
        let result = request.run();
        span.record(Stage::Execute, execute_started.elapsed());
        Ok(result?)
    }

    /// The body of every worker thread: take the oldest queued job, run it
    /// with panics contained, publish its span, resolve its handle; exit
    /// when the queue is closed and empty.
    fn work(&self, worker: usize) {
        // Built once: a fast-serial query walks in the workspace this
        // worker's fast-serial query before it left.
        let executors = BackendSpec::all().map(|spec| (spec, spec.build()));
        while let Some(job) = self.next_job() {
            let query = &job.state.query;
            let started = Instant::now();
            let mut span = QuerySpan::default();
            span.record(Stage::Queue, started.saturating_duration_since(job.enqueued));
            // A span half-filled by an unwound query holds only the stage
            // times recorded before the panic, which is what it should say.
            let result = catch_unwind(AssertUnwindSafe(|| self.run(query, &mut span, &executors)))
                .unwrap_or_else(|payload| Err(ServeError::Panicked { message: panic_message(&*payload) }));
            let resolve_started = Instant::now();
            let counter = if result.is_ok() { &self.telemetry.completed } else { &self.telemetry.failed };
            counter.inc();
            // Publish the span BEFORE waking the handle, so a waiter that
            // snapshots right after `wait()` returns is guaranteed to see
            // this query in the histograms. The resolve stage therefore
            // covers the result bookkeeping, not the condvar notify itself.
            span.record(Stage::Resolve, resolve_started.elapsed());
            self.telemetry.observe_span(&span, query.backend);
            self.telemetry.record_task(worker, started);
            job.state.resolve(result);
        }
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
        f.debug_struct("Service")
            .field("workers", &self.threads.len())
            .field("plans", &self.plan_stats())
            .finish()
    }
}

impl Service {
    /// A service over `store` with default [`ServiceConfig`].
    pub fn new(store: Arc<TensorStore>) -> Service {
        Service::with_config(store, ServiceConfig::default())
    }

    /// A service over `store`, sized by `config`.
    pub fn with_config(store: Arc<TensorStore>, config: ServiceConfig) -> Service {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            store,
            queue: Mutex::new(Queue::default()),
            queue_capacity: config.queue_capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            kernels: Mutex::new(HashMap::new()),
            plans: PlanCache::new(config.plan_capacity),
            telemetry: Telemetry::new(workers),
        });
        let threads = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.work(worker))
            })
            .collect();
        Service { shared, threads }
    }

    /// Enqueues `query` and returns immediately. A worker compiles it
    /// (compile cache), binds it against the store, plans it (plan cache)
    /// and executes it on its selected backend; the outcome — success or
    /// any error along that path — arrives through the returned handle's
    /// [`QueryHandle::wait`].
    ///
    /// Submission is bounded: while the queue holds
    /// [`ServiceConfig::queue_capacity`] queries, `submit` blocks until a
    /// worker takes one.
    pub fn submit(&self, query: Query) -> QueryHandle {
        let state = Arc::new(HandleState { query, slot: Mutex::new(None), done: Condvar::new() });
        let handle = QueryHandle { state: Arc::clone(&state) };
        let enqueued = Instant::now();
        let depth = {
            let mut queue = self.shared.lock_queue();
            while queue.jobs.len() >= self.shared.queue_capacity {
                queue = self.shared.not_full.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
            queue.jobs.push_back(Job { state, enqueued });
            queue.jobs.len()
        };
        self.shared.not_empty.notify_one();
        self.shared.telemetry.record_queue_depth(depth);
        self.shared.telemetry.submitted.inc();
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

    /// A typed point-in-time view of the full telemetry surface: lifecycle
    /// counters, per-stage and per-backend latency histograms,
    /// plan/compile/store cache behavior, queue-depth high-water and
    /// per-worker utilization.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.telemetry.snapshot(self.shared.plans.stats(), self.shared.store.materialize_stats())
    }
}

impl Drop for Service {
    /// Stops accepting work, finishes everything already enqueued, and
    /// joins the worker threads.
    fn drop(&mut self) {
        self.shared.lock_queue().closed = true;
        self.shared.not_empty.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
