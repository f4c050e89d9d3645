//! Service telemetry: the metrics surface behind
//! [`Service::metrics_snapshot`](crate::Service::metrics_snapshot) and
//! [`Service::render_prometheus`](crate::Service::render_prometheus).
//!
//! The service threads its query lifecycle through one `Telemetry`
//! instance (crate-private): every resolved query contributes a
//! [`sam_trace::QuerySpan`] whose six stage durations feed per-stage
//! histograms, a total-latency histogram, and a per-backend execute
//! histogram; submission keeps a queue-depth high-water gauge; each worker
//! counts its own tasks and busy time; completions feed a rolling-window
//! qps estimate. Everything rides the lock-free primitives in
//! [`sam_trace::metrics`], so the per-query cost is a handful of relaxed
//! atomic adds — and with [`TelemetryConfig::enabled`] off, the service
//! skips even the clock reads and the lifecycle counters are all that
//! remain.
//!
//! Queries slower than [`TelemetryConfig::slow_query`] additionally emit a
//! single-line JSON event (the full span, plus an [`ExecProfile`] summary
//! when the query opted into tracing) onto an in-memory ring and, when
//! [`TelemetryConfig::event_log`] is set, a JSONL file.

use sam_exec::PlanCacheStats;
use sam_trace::{
    Counter, ExecProfile, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, QuerySpan, Stage,
};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::store::MaterializeStats;

/// Bound on the rolling completion window, so a long uncollected burst
/// cannot grow the deque without limit.
const MAX_WINDOW_SAMPLES: usize = 65_536;

/// Telemetry knobs for a [`crate::Service`], set via
/// [`crate::ServiceConfig::telemetry`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Whether lifecycle timing is collected at all. Off, the service
    /// takes no clock reads and records no histograms, spans or events;
    /// the plain lifecycle counters of [`MetricsSnapshot`] stay live.
    pub enabled: bool,
    /// Queries whose end-to-end latency meets this threshold emit a JSONL
    /// event with the full span. `None` disables event capture;
    /// `Some(Duration::ZERO)` captures every query.
    pub slow_query: Option<Duration>,
    /// Tee slow-query events to this file (JSONL, one object per line),
    /// in addition to the in-memory ring.
    pub event_log: Option<PathBuf>,
    /// How many slow-query events the in-memory ring retains.
    pub event_capacity: usize,
    /// The rolling window behind the `window_qps` gauge.
    pub qps_window: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            slow_query: None,
            event_log: None,
            event_capacity: 256,
            qps_window: Duration::from_secs(1),
        }
    }
}

/// One worker thread's activity, with utilization relative to service
/// uptime.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerTelemetry {
    /// Queries this worker carried from pickup to resolution.
    pub tasks: u64,
    /// Wall nanoseconds spent on them (compile, plan, execute, resolve).
    pub busy_ns: u64,
    /// `busy_ns` over service uptime, in `[0, 1]`.
    pub utilization: f64,
}

/// A typed point-in-time view of every service metric — the first of the
/// three exposition surfaces (the others: Prometheus text via
/// [`crate::Service::render_prometheus`], JSONL slow-query events via
/// [`crate::Service::recent_events`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Queries accepted by [`crate::Service::submit`].
    pub submitted: u64,
    /// Queries that finished successfully.
    pub completed: u64,
    /// Queries that resolved to an error.
    pub failed: u64,
    /// Compile-cache hits.
    pub compile_hits: u64,
    /// Compile-cache misses.
    pub compile_misses: u64,
    /// Queries that met the slow-query threshold.
    pub slow_queries: u64,
    /// The service plan cache's counters.
    pub plans: PlanCacheStats,
    /// Per-stage latency distributions, indexed by [`Stage::index`].
    pub stages: Vec<HistogramSnapshot>,
    /// End-to-end (submit → resolve) latency distribution, nanoseconds.
    pub latency: HistogramSnapshot,
    /// Constant since PR 18: one observation of 1 per finished query. A
    /// worker runs one query at a time; the field stays because the
    /// benchmark reads it.
    pub batch_size: HistogramSnapshot,
    /// Execute-stage latency split by backend label.
    pub execute_by_backend: Vec<(String, HistogramSnapshot)>,
    /// Deepest the submission queue has been. The name dates from the
    /// hashed lanes PR 18 replaced with one queue; the benchmark reads it.
    pub lane_depth_high_water: u64,
    /// Completions per second over the trailing
    /// [`TelemetryConfig::qps_window`].
    pub window_qps: f64,
    /// Constant 0 since PR 18: queries are not grouped by plan. The field
    /// stays because the benchmark reads it.
    pub same_plan_rate: f64,
    /// The operand store's materialization counters.
    pub store: MaterializeStats,
    /// Per-worker activity, indexed by worker.
    pub workers: Vec<WorkerTelemetry>,
    /// Time since the service started.
    pub uptime: Duration,
}

impl MetricsSnapshot {
    /// The latency distribution of one lifecycle stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()]
    }
}

struct EventLog {
    ring: VecDeque<String>,
    file: Option<std::fs::File>,
}

/// The service's metric set. Crate-private: the service exposes it only
/// through snapshots, Prometheus text and the event ring.
pub(crate) struct Telemetry {
    pub(crate) config: TelemetryConfig,
    registry: MetricsRegistry,
    // Lifecycle counters: always live, telemetry enabled or not.
    pub(crate) submitted: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) compile_hits: Arc<Counter>,
    pub(crate) compile_misses: Arc<Counter>,
    slow_queries: Arc<Counter>,
    // Timing surfaces: recorded only when `config.enabled`.
    stages: Vec<Arc<Histogram>>,
    latency: Arc<Histogram>,
    execute_by_backend: Mutex<HashMap<String, Arc<Histogram>>>,
    queue_depth: Arc<Gauge>,
    window_qps: Arc<Gauge>,
    /// `(tasks, busy_ns)` per worker, each bumped by that worker only.
    workers: Vec<(Arc<Counter>, Arc<Counter>)>,
    // Synced from the plan cache / store at exposition time.
    plan_gauges: [Arc<Gauge>; 4],
    store_gauges: [Arc<Gauge>; 3],
    completions: Mutex<VecDeque<Instant>>,
    events: Mutex<EventLog>,
    started: Instant,
}

impl Telemetry {
    pub(crate) fn new(config: TelemetryConfig, workers: usize) -> Telemetry {
        let registry = MetricsRegistry::new();
        let counter = |name: &str, help: &str| registry.counter(name, help);
        let gauge = |name: &str, help: &str| registry.gauge(name, help);
        let stages = Stage::ALL
            .iter()
            .map(|s| {
                registry.histogram_with(
                    "sam_serve_stage_ns",
                    "Per-stage query lifecycle latency, nanoseconds",
                    "stage",
                    s.name(),
                )
            })
            .collect();
        let file = match (&config.event_log, config.enabled) {
            (Some(path), true) => std::fs::File::create(path).ok(),
            _ => None,
        };
        Telemetry {
            submitted: counter("sam_serve_queries_total", "Queries accepted by submit"),
            completed: counter("sam_serve_completed_total", "Queries finished successfully"),
            failed: counter("sam_serve_failed_total", "Queries resolved to an error"),
            compile_hits: counter("sam_serve_compile_hits_total", "Compile-cache hits"),
            compile_misses: counter("sam_serve_compile_misses_total", "Compile-cache misses"),
            slow_queries: counter("sam_serve_slow_queries_total", "Queries over the slow threshold"),
            stages,
            latency: registry
                .histogram("sam_serve_query_latency_ns", "End-to-end query latency, nanoseconds"),
            execute_by_backend: Mutex::new(HashMap::new()),
            queue_depth: gauge("sam_serve_lane_depth_high_water", "Deepest the submission queue has been"),
            window_qps: gauge("sam_serve_window_qps", "Completions per second, rolling window"),
            workers: (0..workers)
                .map(|w| {
                    let id = w.to_string();
                    let per_worker =
                        |name: &str, help: &str| registry.counter_with(name, help, "worker", &id);
                    (
                        per_worker("sam_serve_worker_tasks", "Queries carried per worker"),
                        per_worker("sam_serve_worker_busy_ns", "Busy nanoseconds per worker"),
                    )
                })
                .collect(),
            plan_gauges: [
                gauge("sam_serve_plan_hits", "Service plan-cache hits"),
                gauge("sam_serve_plan_misses", "Service plan-cache misses"),
                gauge("sam_serve_plan_evictions", "Service plan-cache evictions"),
                gauge("sam_serve_plan_entries", "Service plan-cache resident entries"),
            ],
            store_gauges: [
                gauge("sam_serve_store_builds", "Tensor materializations built"),
                gauge("sam_serve_store_build_hits", "Tensor materializations served from cache"),
                gauge("sam_serve_store_build_ns", "Total nanoseconds spent building tensors"),
            ],
            completions: Mutex::new(VecDeque::new()),
            events: Mutex::new(EventLog { ring: VecDeque::new(), file }),
            started: Instant::now(),
            registry,
            config,
        }
    }

    /// `Instant::now()` when timing is on; `None` (no clock read) when off.
    pub(crate) fn now(&self) -> Option<Instant> {
        self.config.enabled.then(Instant::now)
    }

    /// Queue depth after a submit, for the high-water gauge.
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        if self.config.enabled {
            self.queue_depth.record_max(depth as u64);
        }
    }

    /// One query `worker` picked up at `started` (`None`: timing is off)
    /// and has finished.
    pub(crate) fn record_task(&self, worker: usize, started: Option<Instant>) {
        let (tasks, busy_ns) = &self.workers[worker];
        tasks.inc();
        if let Some(started) = started {
            busy_ns.add(started.elapsed().as_nanos() as u64);
        }
    }

    /// The execute-stage histogram for `backend` (registered on first use).
    fn execute_histogram(&self, backend: &str) -> Arc<Histogram> {
        let mut map = self.execute_by_backend.lock().expect("telemetry backends");
        match map.get(backend) {
            Some(h) => Arc::clone(h),
            None => {
                let h = self.registry.histogram_with(
                    "sam_serve_execute_ns",
                    "Execute-stage latency by backend, nanoseconds",
                    "backend",
                    backend,
                );
                map.insert(backend.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Folds one resolved query's span into the histograms, the qps
    /// window, and — past the slow threshold — the event log.
    pub(crate) fn observe_span(&self, span: &QuerySpan, profile: Option<&ExecProfile>) {
        if !self.config.enabled {
            return;
        }
        for stage in Stage::ALL {
            self.stages[stage.index()].record(span.stage_ns(stage));
        }
        let total = span.total_ns();
        self.latency.record(total);
        self.execute_histogram(&span.backend).record(span.stage_ns(Stage::Execute));
        {
            let mut window = self.completions.lock().expect("telemetry window");
            window.push_back(Instant::now());
            let horizon = self.config.qps_window;
            while window.len() > MAX_WINDOW_SAMPLES || window.front().is_some_and(|t| t.elapsed() > horizon) {
                window.pop_front();
            }
        }
        if let Some(threshold) = self.config.slow_query {
            if total >= threshold.as_nanos() as u64 {
                self.slow_queries.inc();
                self.emit_event(span, profile);
            }
        }
    }

    fn emit_event(&self, span: &QuerySpan, profile: Option<&ExecProfile>) {
        let mut line = span.to_json();
        if let Some(p) = profile {
            // Splice a profile summary into the span object.
            line.pop();
            line.push_str(&format!(
                ",\"profile\":{{\"nodes\":{},\"total_tokens\":{},\"critical_path_ns\":{}}}}}",
                p.nodes.len(),
                p.total_tokens(),
                p.critical_path_ns()
            ));
        }
        let mut events = self.events.lock().expect("telemetry events");
        if let Some(file) = events.file.as_mut() {
            let _ = writeln!(file, "{line}");
        }
        events.ring.push_back(line);
        let cap = self.config.event_capacity.max(1);
        while events.ring.len() > cap {
            events.ring.pop_front();
        }
    }

    /// The retained slow-query events, oldest first.
    pub(crate) fn recent_events(&self) -> Vec<String> {
        self.events.lock().expect("telemetry events").ring.iter().cloned().collect()
    }

    /// Completions per second over the trailing window.
    fn qps(&self) -> f64 {
        let horizon = self.config.qps_window;
        let window = self.completions.lock().expect("telemetry window");
        let live = window.iter().filter(|t| t.elapsed() <= horizon).count();
        let secs = horizon.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            live as f64 / secs
        }
    }

    /// Copies the cache/store state into the synced gauges, so both
    /// exposition surfaces agree with the typed snapshot.
    fn sync(&self, plans: &PlanCacheStats, store: &MaterializeStats) {
        self.plan_gauges[0].set(plans.hits);
        self.plan_gauges[1].set(plans.misses);
        self.plan_gauges[2].set(plans.evictions);
        self.plan_gauges[3].set(plans.entries as u64);
        self.store_gauges[0].set(store.builds);
        self.store_gauges[1].set(store.hits);
        self.store_gauges[2].set(store.build_ns);
        self.window_qps.set(self.qps().round() as u64);
    }

    /// Renders the registry as Prometheus text exposition, after syncing
    /// the cache/store gauges.
    pub(crate) fn render(&self, plans: &PlanCacheStats, store: &MaterializeStats) -> String {
        self.sync(plans, store);
        self.registry.render_prometheus()
    }

    /// Builds the typed [`MetricsSnapshot`].
    pub(crate) fn snapshot(&self, plans: PlanCacheStats, store: MaterializeStats) -> MetricsSnapshot {
        self.sync(&plans, &store);
        let uptime = self.started.elapsed();
        let uptime_ns = uptime.as_nanos().max(1) as f64;
        let finished = self.completed.get() + self.failed.get();
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            compile_hits: self.compile_hits.get(),
            compile_misses: self.compile_misses.get(),
            slow_queries: self.slow_queries.get(),
            plans,
            stages: self.stages.iter().map(|h| h.snapshot()).collect(),
            latency: self.latency.snapshot(),
            batch_size: HistogramSnapshot {
                count: finished,
                sum: finished,
                max: finished.min(1),
                min: finished.min(1),
                buckets: if finished == 0 { Vec::new() } else { vec![(1, finished)] },
            },
            execute_by_backend: {
                let map = self.execute_by_backend.lock().expect("telemetry backends");
                let mut v: Vec<(String, HistogramSnapshot)> =
                    map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            },
            lane_depth_high_water: self.queue_depth.get(),
            window_qps: self.qps(),
            same_plan_rate: 0.0,
            store,
            workers: self
                .workers
                .iter()
                .map(|(tasks, busy_ns)| {
                    let busy_ns = busy_ns.get();
                    WorkerTelemetry {
                        tasks: tasks.get(),
                        busy_ns,
                        utilization: (busy_ns as f64 / uptime_ns).clamp(0.0, 1.0),
                    }
                })
                .collect(),
            uptime,
        }
    }
}
