//! The six workloads: what set-up builds and what one round runs.
//!
//! Every call into the library crates goes through a public function and is
//! timed here, from outside (`custard::parse`, `custard::lower_exec`,
//! `sam_verify::verify`, `Tensor::from_coo`, `ExecRequest::plan` /
//! `ExecRequest::run`, `Service::submit` / `QueryHandle::wait`).

use crate::corpus::{self, Corpus, Kernel, ListShape};
use crate::probe::{Tracer, NO_KERNEL};
use crate::reference::{self, Expected};
use crate::rng::Rng;
use custard::{ConcreteIndexNotation, ExecutableKernel, Formats, Schedule};
use sam_exec::{BackendSpec, CountersSink, ExecRequest, Execution, Inputs, Plan, PlanCache};
use sam_serve::{Query, Service, ServiceConfig, TensorStore};
use sam_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Queries each service client keeps outstanding.
pub const WINDOW: usize = 8;
/// Queries per round of the service workload, over all clients.
pub const SERVE_ROUND: usize = 2000;

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Compile, materialize and plan once in set-up; a round executes the
    /// list on one backend through the warm global plan cache.
    Warm(ListShape, Backend),
    /// Every query pays parse, lower, materialize, plan and execute.
    Cold,
    /// A resident service under a closed loop of windowed clients.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub enum Backend {
    FastSerial,
    FastThreads,
    Tiled,
    Cycle,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "medium-fast-serial",
        why: "seven Table 1 kernels on Table 3 medium-class operands, warm plan cache, serial fast backend: execute is the whole round",
        kind: Kind::Warm(corpus::MEDIUM, Backend::FastSerial),
    },
    Workload {
        name: "medium-fast-threads",
        why: "same list and operands on the work-stealing backend: a serial-path gain that costs split scans or segment merges shows here",
        kind: Kind::Warm(corpus::MEDIUM, Backend::FastThreads),
    },
    Workload {
        name: "medium-tiled",
        why: "same list on the finite-memory tiled backend: tile extraction, enumeration, skipping and merge dominate",
        kind: Kind::Warm(corpus::MEDIUM, Backend::Tiled),
    },
    Workload {
        name: "small-cycle",
        why: "same list at a quarter of the size on the cycle-approximate backend: the simulator's scheduling and primitive blocks do all the work",
        kind: Kind::Warm(corpus::CYCLE, Backend::Cycle),
    },
    Workload {
        name: "small-cold-compile",
        why: "twelve tiny Table 1 queries that each pay parse, lower, verify, materialize and an uncached plan: execute is the minority",
        kind: Kind::Cold,
    },
    Workload {
        name: "serve-warm-zipf",
        why: "resident service, primed caches, closed loop of windowed clients drawing Zipf(1.0) over twelve expressions: queue, batch and resolve dominate",
        kind: Kind::Serve,
    },
];

/// Threads this process may keep busy: the load generator never asks for
/// more than the machine has, nor for more than two.
pub fn busy_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

impl Workload {
    /// Threads the workload keeps busy at once.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Warm(_, Backend::FastThreads) | Kind::Serve => busy_threads(),
            Kind::Warm(..) | Kind::Cold => 1,
        }
    }
}

impl Backend {
    pub fn spec(self) -> BackendSpec {
        match self {
            Backend::FastSerial => BackendSpec::FastSerial,
            Backend::FastThreads => BackendSpec::FastThreads(busy_threads()),
            Backend::Tiled => BackendSpec::Tiled,
            Backend::Cycle => BackendSpec::Cycle,
        }
    }
}

/// One kernel compiled and bound: what a warm workload keeps across rounds
/// and a cold one rebuilds for every query.
#[derive(Debug)]
pub struct Prepared {
    pub kernel: ExecutableKernel,
    pub inputs: Inputs,
}

/// The one-shot front half: parse, lower, materialize.
pub fn prepare(
    k: &Kernel,
    corpus: &Corpus,
    tr: &mut Tracer,
    index: u16,
    qid: u64,
) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let assignment = custard::parse(k.text).map_err(|e| format!("{}: parse: {e}", k.id))?;
    let t1 = Instant::now();
    tr.add("custard.parse", index, qid, t0, t1);
    let schedule = k.order.map_or_else(Schedule::new, |order| Schedule::new().reorder(order));
    let mut formats = Formats::new();
    for name in k.dense {
        formats = formats.set(name, corpus.dense_format(name));
    }
    let cin = ConcreteIndexNotation::new(assignment, &schedule, formats);
    let kernel = custard::lower_exec(&cin).map_err(|e| format!("{}: lower: {e}", k.id))?;
    let t2 = Instant::now();
    tr.add("custard.lower", index, qid, t1, t2);
    let mut inputs = Inputs::new();
    for (name, format) in &kernel.formats {
        let coo =
            corpus.tensors.get(name.as_str()).ok_or_else(|| format!("{}: no operand `{name}`", k.id))?;
        inputs = inputs.tensor(Tensor::from_coo(name, coo, format.clone()));
    }
    for (name, value) in k.scalars {
        inputs = inputs.scalar(name, *value);
    }
    tr.add("tensor.materialize", index, qid, t2, Instant::now());
    Ok(Prepared { kernel, inputs })
}

/// What one query produced, and how long its caller waited.
#[derive(Debug)]
pub struct QueryResult {
    pub kernel: u16,
    /// Issue to result in hand.
    pub latency_ns: u64,
    /// The backend run alone: the `ExecRequest::run` call on one-shot
    /// workloads, `Execution::elapsed` through the service.
    pub run_ns: u64,
    pub run: Result<Execution, String>,
}

/// The one-shot back half: plan (through the global cache, or uncached on
/// the cold path) and run.
fn execute(
    p: &Prepared,
    backend: BackendSpec,
    cold: bool,
    profile: bool,
    tr: &mut Tracer,
    index: u16,
    qid: u64,
) -> (u64, Result<Execution, String>) {
    let request = ExecRequest::new(&p.kernel.graph, &p.inputs).backend(backend);
    let request = if cold { request.uncached() } else { request };
    let t0 = Instant::now();
    let plan = request.plan();
    let t1 = Instant::now();
    tr.add(if cold { "exec.plan_miss" } else { "exec.plan_hit" }, index, qid, t0, t1);
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => return (0, Err(format!("plan: {e}"))),
    };
    let sink = CountersSink::new();
    let request = request.planned(plan);
    let request = if profile { request.traced(&sink) } else { request };
    let run = request.run();
    let t2 = Instant::now();
    tr.add("exec.run", index, qid, t1, t2);
    ((t2 - t1).as_nanos() as u64, run.map_err(|e| format!("run: {e}")))
}

#[derive(Debug)]
pub struct OneShot {
    backend: BackendSpec,
    cold: bool,
}

pub struct Serve {
    service: Service,
    queries: Vec<Query>,
    /// Kernel index of every query of a round, per client; the same draws
    /// every round, so rounds are comparable and per-round counts exact.
    schedule: Vec<Vec<u16>>,
}

pub enum Driver {
    OneShot(OneShot),
    Serve(Box<Serve>),
}

/// Everything set-up leaves behind for the measured rounds.
pub struct State {
    pub corpus: Corpus,
    pub expected: Vec<Expected>,
    /// Every kernel compiled and bound once, on all workloads: the warm
    /// ones execute these, and all of them read graphs and plans off them.
    pub prepared: Vec<Prepared>,
    pub plans: Vec<Arc<Plan>>,
    /// Findings of the standalone `sam_verify::verify` pass (traced runs).
    pub diagnostics: usize,
    pub driver: Driver,
    next_qid: u64,
}

fn zipf_schedule(seed: u64, kernels: usize, clients: usize) -> Vec<Vec<u16>> {
    // Zipf(1.0): rank r (the list's own order) is drawn with weight 1/r.
    let weights: Vec<f64> = (1..=kernels).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..clients)
        .map(|client| {
            let mut rng = Rng::new(seed, 1000 + client as u64);
            (0..SERVE_ROUND / clients)
                .map(|_| {
                    let mut u = rng.unit() * total;
                    let mut rank = 0;
                    while rank + 1 < kernels && u >= weights[rank] {
                        u -= weights[rank];
                        rank += 1;
                    }
                    rank as u16
                })
                .collect()
        })
        .collect()
}

fn service_query(k: &Kernel, corpus: &Corpus) -> Query {
    let mut query = Query::new(k.text);
    if let Some(order) = k.order {
        query = query.order(order);
    }
    for name in k.dense {
        query = query.format(name, corpus.dense_format(name));
    }
    for name in k.operands() {
        query = query.operand(name);
    }
    for (name, value) in k.scalars {
        query = query.scalar(name, *value);
    }
    query
}

/// Builds the workload from `seed`: corpus, reference results, compiled and
/// planned kernels, the service where there is one, and one discarded
/// warm-up round whose every output is compared in full.
pub fn setup(workload: &Workload, seed: u64, tr: &mut Tracer) -> Result<State, String> {
    let root = tr.open("setup", NO_KERNEL, 0);
    let t0 = Instant::now();
    let corpus = match workload.kind {
        Kind::Warm(shape, _) => corpus::list_corpus(seed, shape),
        Kind::Cold | Kind::Serve => corpus::table1_corpus(seed),
    };
    let t1 = Instant::now();
    tr.add("corpus.generate", NO_KERNEL, 0, t0, t1);
    let expected: Vec<Expected> = corpus.kernels.iter().map(|k| reference::evaluate(k, &corpus)).collect();
    tr.add("reference.evaluate", NO_KERNEL, 0, t1, Instant::now());

    let mut prepared = Vec::new();
    for (i, k) in corpus.kernels.iter().enumerate() {
        prepared.push(prepare(k, &corpus, tr, i as u16, 0)?);
    }
    let mut diagnostics = 0;
    if tr.enabled() {
        // Standalone, so a lower bound on the verifier's share of planning.
        for (i, p) in prepared.iter().enumerate() {
            let t = Instant::now();
            diagnostics += sam_verify::verify(&p.kernel.graph).diagnostics.len();
            tr.add("verify.verify", i as u16, 0, t, Instant::now());
        }
    }

    // Every set-up starts from an empty global plan cache, so repeated
    // set-ups in one process cost the same. The warm one-shot workloads
    // fill it here; the others plan uncached, for the plan's shape only.
    PlanCache::global().clear();
    let warm = matches!(workload.kind, Kind::Warm(..));
    let mut plans = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let request = ExecRequest::new(&p.kernel.graph, &p.inputs);
        let request = if warm { request } else { request.uncached() };
        let t = Instant::now();
        let plan = request.plan();
        tr.add("exec.plan_miss", i as u16, 0, t, Instant::now());
        plans.push(plan.map_err(|e| format!("{}: plan: {e}", corpus.kernels[i].id))?);
    }

    let driver = match workload.kind {
        Kind::Warm(_, backend) => Driver::OneShot(OneShot { backend: backend.spec(), cold: false }),
        Kind::Cold => Driver::OneShot(OneShot { backend: BackendSpec::FastSerial, cold: true }),
        Kind::Serve => {
            let t = Instant::now();
            let mut store = TensorStore::new();
            for (name, coo) in &corpus.tensors {
                store.insert(name, coo.clone());
            }
            let config = ServiceConfig { workers: busy_threads(), ..ServiceConfig::default() };
            let service = Service::with_config(Arc::new(store), config);
            tr.add("serve.start", NO_KERNEL, 0, t, Instant::now());
            let queries = corpus.kernels.iter().map(|k| service_query(k, &corpus)).collect();
            let schedule = zipf_schedule(seed, corpus.kernels.len(), busy_threads());
            Driver::Serve(Box::new(Serve { service, queries, schedule }))
        }
    };
    let mut state = State { corpus, expected, prepared, plans, diagnostics, driver, next_qid: 1 };

    let warm = tr.open("warmup", NO_KERNEL, 0);
    if let Driver::Serve(serve) = &state.driver {
        // Prime the compile, materialization and plan caches: each
        // expression once, before the windowed round.
        for (i, query) in serve.queries.iter().enumerate() {
            let run = serve.service.submit(query.clone()).wait().map_err(|e| format!("prime: {e}"))?;
            if !state.expected[i].matches_fully(&run) {
                return Err(format!("prime: {} differs from the reference", state.corpus.kernels[i].id));
            }
        }
    }
    let results = state.round(tr, false);
    tr.close(warm);
    for result in &results {
        let id = state.corpus.kernels[usize::from(result.kernel)].id;
        let run = result.run.as_ref().map_err(|e| format!("warm-up: {id}: {e}"))?;
        if !state.expected[usize::from(result.kernel)].matches_fully(run) {
            return Err(format!("warm-up: {id} differs from the reference"));
        }
    }
    tr.close(root);
    Ok(state)
}

impl State {
    /// Runs every query of the workload's list once (through the service:
    /// every client finishes its slice). With `profile`, executions carry an
    /// `ExecProfile`.
    pub fn round(&mut self, tr: &mut Tracer, profile: bool) -> Vec<QueryResult> {
        let first_qid = self.next_qid;
        self.next_qid += match &self.driver {
            Driver::OneShot(_) => self.corpus.kernels.len() as u64,
            Driver::Serve(_) => SERVE_ROUND as u64,
        };
        match &self.driver {
            Driver::OneShot(one) => (0..self.corpus.kernels.len())
                .map(|i| {
                    let (index, qid) = (i as u16, first_qid + i as u64);
                    let started = Instant::now();
                    let span = tr.open("query", index, qid);
                    let fresh =
                        one.cold.then(|| prepare(&self.corpus.kernels[i], &self.corpus, tr, index, qid));
                    let (run_ns, run) = match &fresh {
                        Some(Err(e)) => (0, Err(e.clone())),
                        Some(Ok(p)) => execute(p, one.backend, one.cold, profile, tr, index, qid),
                        None => execute(&self.prepared[i], one.backend, one.cold, profile, tr, index, qid),
                    };
                    tr.close(span);
                    QueryResult {
                        kernel: index,
                        latency_ns: started.elapsed().as_nanos() as u64,
                        run_ns,
                        run,
                    }
                })
                .collect(),
            Driver::Serve(serve) => {
                let per_client: Vec<Vec<Timed>> = std::thread::scope(|scope| {
                    let clients: Vec<_> = serve
                        .schedule
                        .iter()
                        .map(|slice| {
                            scope.spawn(move || client(&serve.service, &serve.queries, slice, profile))
                        })
                        .collect();
                    clients.into_iter().map(|c| c.join().expect("a client thread panicked")).collect()
                });
                (first_qid..)
                    .zip(per_client.into_iter().flatten())
                    .map(|(qid, timed)| {
                        let span = tr.add("query", timed.kernel, qid, timed.submitted, timed.resolved);
                        tr.add_child(span, "serve.submit", timed.submitted, timed.accepted);
                        QueryResult {
                            kernel: timed.kernel,
                            latency_ns: (timed.resolved - timed.submitted).as_nanos() as u64,
                            run_ns: timed.run.as_ref().map_or(0, |run| run.elapsed.as_nanos() as u64),
                            run: timed.run,
                        }
                    })
                    .collect()
            }
        }
    }

    pub fn service(&self) -> Option<&Service> {
        match &self.driver {
            Driver::Serve(serve) => Some(&serve.service),
            Driver::OneShot(_) => None,
        }
    }
}

struct Timed {
    kernel: u16,
    submitted: Instant,
    /// `submit` returned (it blocks while the query's lane is full).
    accepted: Instant,
    /// `wait` returned. Replies are awaited in submission order, so this is
    /// the latency a client reading its replies in order observes.
    resolved: Instant,
    run: Result<Execution, String>,
}

/// One closed-loop client: keeps [`WINDOW`] queries outstanding until its
/// slice is done.
fn client(service: &Service, queries: &[Query], slice: &[u16], profile: bool) -> Vec<Timed> {
    let mut in_flight = VecDeque::with_capacity(WINDOW);
    let mut done = Vec::with_capacity(slice.len());
    let mut reap =
        |(kernel, submitted, accepted, handle): (u16, Instant, Instant, sam_serve::QueryHandle)| {
            let run = handle.wait().map_err(|e| e.to_string());
            done.push(Timed { kernel, submitted, accepted, resolved: Instant::now(), run });
        };
    for &kernel in slice {
        if in_flight.len() == WINDOW {
            reap(in_flight.pop_front().expect("a full window"));
        }
        let query = queries[usize::from(kernel)].clone();
        let query = if profile { query.traced() } else { query };
        let submitted = Instant::now();
        let handle = service.submit(query);
        in_flight.push_back((kernel, submitted, Instant::now(), handle));
    }
    in_flight.into_iter().for_each(&mut reap);
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_per_seed_and_favour_low_ranks() {
        let a = zipf_schedule(5, 12, 2);
        assert_eq!(a, zipf_schedule(5, 12, 2));
        assert_ne!(a, zipf_schedule(6, 12, 2));
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), SERVE_ROUND);
        let count = |rank: u16| a.iter().flatten().filter(|&&k| k == rank).count();
        assert!(count(0) > count(1) && count(1) > count(5) && count(5) > 0);
        assert!(a.iter().flatten().all(|&k| k < 12));
    }
}
