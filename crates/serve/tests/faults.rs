//! Service fault injection: a stuck query, a panicking query, a full queue,
//! a shutdown under load, a binding of the wrong rank and an expression
//! nested too deep to parse must each leave every handle resolved and the
//! counters balanced.
//!
//! The injection seam is [`Query::traced_with`]: every backend asks the
//! sink `enabled()` before it runs anything, so a sink that blocks or
//! panics there is a query that blocks or panics mid-execution. Tests wait
//! on the gate, not on the clock; every wait that a regression could turn
//! into a hang is a bounded poll, so it fails instead.

use sam_serve::{Query, QueryHandle, ServeError, Service, ServiceConfig, TensorStore};
use sam_trace::{Stage, TraceSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a bounded wait polls before the test fails.
const PATIENCE: Duration = Duration::from_secs(10);

/// Polls `done` until it holds or [`PATIENCE`] runs out.
fn eventually(done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A gate an executing query parks on until the test opens it.
#[derive(Default)]
struct Gate {
    /// `(a query is parked or has passed, the gate is open)`.
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Gate {
    /// Called from the worker: announce the arrival, park until opened.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.changed.notify_all();
        while !state.1 {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Whether a worker has reached the gate.
    fn reached(&self) -> bool {
        self.state.lock().unwrap().0
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// The injected fault, as a trace sink that reports itself disabled once
/// it lets the execution proceed.
enum Fault {
    Park(Arc<Gate>),
    Panic,
}

impl TraceSink for Fault {
    fn enabled(&self) -> bool {
        match self {
            Fault::Park(gate) => gate.pass(),
            Fault::Panic => panic!("injected execution panic"),
        }
        false
    }
}

fn service(config: ServiceConfig) -> Service {
    let mut store = TensorStore::new();
    store.insert("b", sam_tensor::synth::random_vector(64, 20, 1));
    store.insert("c", sam_tensor::synth::random_vector(64, 24, 2));
    store.insert("M", sam_tensor::synth::random_matrix_sparsity(8, 8, 0.5, 3));
    Service::with_config(Arc::new(store), config)
}

fn query() -> Query {
    Query::new("x(i) = b(i) * c(i)").operand("b").operand("c")
}

/// Every finished query, failed ones included, left one observation in
/// each stage histogram, in `latency`, and in exactly one backend's
/// execute histogram.
fn assert_timings_balance(service: &Service) {
    let snap = service.metrics_snapshot();
    let finished = snap.completed + snap.failed;
    assert_eq!(snap.latency.count, finished, "latency observations");
    for stage in Stage::ALL {
        assert_eq!(snap.stage(stage).count, finished, "stage `{stage}` observations");
    }
    let by_backend: u64 = snap.execute_by_backend.iter().map(|(_, h)| h.count).sum();
    assert_eq!(by_backend, finished, "per-backend execute observations");
}

/// The test's end of a [`Gate`]. Opens it when dropped, so a failed
/// assertion unwinds through the service's drop instead of hanging in it.
struct Parked(Arc<Gate>);

impl Parked {
    fn open(&self) {
        self.0.open();
    }
}

impl Drop for Parked {
    fn drop(&mut self) {
        self.open();
    }
}

/// Submits a query that parks on a fresh gate and waits until a worker is
/// executing it.
fn submit_parked(service: &Service) -> (Parked, QueryHandle) {
    let gate = Arc::new(Gate::default());
    let parked = Parked(Arc::clone(&gate));
    let handle = service.submit(query().traced_with(Arc::new(Fault::Park(Arc::clone(&gate)))));
    assert!(eventually(|| gate.reached()), "no worker picked the parked query up");
    (parked, handle)
}

/// (a) With two workers, a query stuck in execution does not hold up a
/// query submitted after it.
#[test]
fn a_stuck_query_does_not_block_the_queries_behind_it() {
    let service = service(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let (gate, stuck) = submit_parked(&service);

    let behind = service.submit(query());
    assert!(eventually(|| behind.is_done()), "the second query waited for the stuck one");
    assert!(!stuck.is_done(), "the gate is still closed");
    behind.wait().expect("second query");

    gate.open();
    assert!(eventually(|| stuck.is_done()));
    stuck.wait().expect("parked query");
}

/// (b) A query that panics mid-execution resolves to a typed error, the
/// worker that ran it serves the next query, and the counters balance.
#[test]
fn a_panicking_query_fails_alone_and_the_worker_keeps_serving() {
    let service = service(ServiceConfig { workers: 1, ..ServiceConfig::default() });

    let doomed = service.submit(query().traced_with(Arc::new(Fault::Panic)));
    assert!(eventually(|| doomed.is_done()), "the panicking query never resolved");
    match doomed.wait() {
        Err(ServeError::Panicked { message }) => assert_eq!(message, "injected execution panic"),
        other => panic!("expected a contained panic, got {other:?}"),
    }

    let next = service.submit(query());
    assert!(eventually(|| next.is_done()), "the service stopped serving after a panic");
    next.wait().expect("query after the panic");

    let snap = service.metrics_snapshot();
    assert_eq!((snap.submitted, snap.completed, snap.failed), (2, 1, 1));
    assert_eq!(snap.latency.count, 2, "the failed query's span is recorded too");
    assert_eq!(snap.workers.iter().map(|w| w.tasks).sum::<u64>(), 2);
    assert_timings_balance(&service);
}

/// (c) A full queue blocks `submit` until a worker takes a query.
#[test]
fn a_full_queue_blocks_submit_until_a_worker_frees_a_slot() {
    let service =
        Arc::new(service(ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() }));
    let (gate, executing) = submit_parked(&service);
    let queued = service.submit(query());

    let accepted = Arc::new(AtomicBool::new(false));
    let submitter = {
        let (service, accepted) = (Arc::clone(&service), Arc::clone(&accepted));
        std::thread::spawn(move || {
            let handle = service.submit(query());
            accepted.store(true, Ordering::SeqCst);
            handle
        })
    };
    // The one wait on the clock: there is no event to wait for when the
    // claim is that nothing happens.
    std::thread::sleep(Duration::from_millis(200));
    assert!(!accepted.load(Ordering::SeqCst), "submit returned with the queue full");
    gate.open();
    assert!(eventually(|| accepted.load(Ordering::SeqCst)), "submit stayed blocked after the gate opened");
    let third = submitter.join().expect("submitter");

    for handle in [executing, queued, third] {
        assert!(eventually(|| handle.is_done()));
        handle.wait().expect("query");
    }
    let snap = service.metrics_snapshot();
    assert_eq!((snap.submitted, snap.completed, snap.failed), (3, 3, 0));
    assert_eq!(snap.lane_depth_high_water, 1);
}

/// (d) Dropping the service with a query executing and the queue full
/// finishes every accepted query before it returns.
#[test]
fn dropping_a_loaded_service_resolves_every_handle() {
    let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
    let capacity = config.queue_capacity;
    let service = service(config);
    let (gate, executing) = submit_parked(&service);
    let mut handles: Vec<QueryHandle> = (0..capacity).map(|_| service.submit(query())).collect();
    handles.push(executing);

    let dropper = std::thread::spawn(move || drop(service));
    // The only worker is parked, so the drop cannot have finished joining it.
    assert!(!dropper.is_finished());
    gate.open();
    assert!(eventually(|| dropper.is_finished()), "drop did not return");
    dropper.join().expect("drop");

    assert!(handles.iter().all(QueryHandle::is_done), "a handle was left unresolved by the drop");
    for handle in handles {
        handle.wait().expect("query");
    }
}

/// (e) A binding whose stored tensor has the wrong rank is a typed compile
/// error, not a panic inside the store's lock: operands nobody has
/// materialized yet still materialize afterwards.
#[test]
fn a_rank_mismatched_binding_is_rejected_and_the_store_survives() {
    let service = service(ServiceConfig { workers: 1, ..ServiceConfig::default() });

    match service.submit(Query::new("x(i) = b(i)").bind("b", "M")).wait() {
        Err(ServeError::Compile { message, .. }) => assert_eq!(
            message,
            "binding `b`: stored tensor `M` has order 2, the operand is indexed by 1 variable"
        ),
        other => panic!("expected a compile error, got {other:?}"),
    }

    service.submit(query()).wait().expect("a query over operands not yet materialized");
    let snap = service.metrics_snapshot();
    assert_eq!((snap.submitted, snap.completed, snap.failed), (2, 1, 1));
    assert_eq!(snap.store.builds, 2, "b and c were built after the rejection");
    assert_timings_balance(&service);
}

/// (f) An expression nested too deep to parse on a worker's stack is a
/// typed compile error. Before the parser bounded its recursion this
/// overflowed the worker's stack, which aborts the whole process — every
/// in-flight query and this test binary with it.
#[test]
fn a_deeply_nested_expression_is_rejected_and_the_service_keeps_serving() {
    let service = service(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let deep = format!("x(i) = {}b(i){} * c(i)", "(".repeat(3_000), ")".repeat(3_000));

    match service.submit(Query::new(&deep).operand("b").operand("c")).wait() {
        Err(ServeError::Compile { message, .. }) => {
            assert!(message.contains("parentheses nest deeper than"), "{message}")
        }
        other => panic!("expected a compile error, got {other:?}"),
    }

    service.submit(query()).wait().expect("the query after the deep one");
    let snap = service.metrics_snapshot();
    assert_eq!((snap.submitted, snap.completed, snap.failed), (2, 1, 1));
    assert_timings_balance(&service);
}
