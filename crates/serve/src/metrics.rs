//! Service telemetry: the metrics surface behind
//! [`Service::metrics_snapshot`](crate::Service::metrics_snapshot).
//!
//! The service threads its query lifecycle through one `Telemetry`
//! instance (crate-private): every resolved query, failed or not,
//! contributes a [`sam_trace::QuerySpan`] whose six stage durations feed
//! per-stage histograms, a total-latency histogram, and the execute
//! histogram of the backend it selected; submission keeps a queue-depth
//! high-water gauge; each worker counts its own tasks and busy time.
//! Everything rides the lock-free primitives in [`sam_trace::metrics`], so
//! the per-query cost is a handful of relaxed atomic adds and no lock.
//! [`MetricsSnapshot`] is the one way out.

use sam_exec::{BackendSpec, PlanCacheStats};
use sam_trace::{Counter, Gauge, Histogram, HistogramSnapshot, QuerySpan, Stage};
use std::time::{Duration, Instant};

use crate::store::MaterializeStats;

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

/// A typed point-in-time view of every service metric.
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
    /// Execute-stage latency split by backend label, in label order,
    /// listing only the backends that ran.
    pub execute_by_backend: Vec<(String, HistogramSnapshot)>,
    /// Deepest the submission queue has been. The name dates from the
    /// hashed lanes PR 18 replaced with one queue; the benchmark reads it.
    pub lane_depth_high_water: u64,
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

/// The service's metric set. Crate-private: the service exposes it only
/// through [`MetricsSnapshot`].
pub(crate) struct Telemetry {
    pub(crate) submitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) compile_hits: Counter,
    pub(crate) compile_misses: Counter,
    stages: [Histogram; 6],
    latency: Histogram,
    /// Execute-stage latency per backend, in [`BackendSpec::all`] order.
    execute_by_backend: [Histogram; 3],
    queue_depth: Gauge,
    /// `(tasks, busy_ns)` per worker, each bumped by that worker only.
    workers: Vec<(Counter, Counter)>,
    started: Instant,
}

impl Telemetry {
    pub(crate) fn new(workers: usize) -> Telemetry {
        Telemetry {
            submitted: Counter::new(),
            completed: Counter::new(),
            failed: Counter::new(),
            compile_hits: Counter::new(),
            compile_misses: Counter::new(),
            stages: Default::default(),
            latency: Histogram::new(),
            execute_by_backend: Default::default(),
            queue_depth: Gauge::new(),
            workers: (0..workers).map(|_| (Counter::new(), Counter::new())).collect(),
            started: Instant::now(),
        }
    }

    /// Queue depth after a submit, for the high-water gauge.
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        self.queue_depth.record_max(depth as u64);
    }

    /// One query `worker` picked up at `started` has finished.
    pub(crate) fn record_task(&self, worker: usize, started: Instant) {
        let (tasks, busy_ns) = &self.workers[worker];
        tasks.inc();
        busy_ns.add(started.elapsed().as_nanos() as u64);
    }

    /// Folds one resolved query's span, run on `backend`, into the
    /// histograms.
    pub(crate) fn observe_span(&self, span: &QuerySpan, backend: BackendSpec) {
        for stage in Stage::ALL {
            self.stages[stage.index()].record(span.stage_ns(stage));
        }
        self.latency.record(span.total_ns());
        // `BackendSpec` declares its variants in `BackendSpec::all()` order.
        self.execute_by_backend[backend as usize].record(span.stage_ns(Stage::Execute));
    }

    /// Builds the typed [`MetricsSnapshot`].
    pub(crate) fn snapshot(&self, plans: PlanCacheStats, store: MaterializeStats) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let uptime_ns = uptime.as_nanos().max(1) as f64;
        let finished = self.completed.get() + self.failed.get();
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            compile_hits: self.compile_hits.get(),
            compile_misses: self.compile_misses.get(),
            plans,
            stages: self.stages.iter().map(Histogram::snapshot).collect(),
            latency: self.latency.snapshot(),
            batch_size: HistogramSnapshot {
                count: finished,
                sum: finished,
                max: finished.min(1),
                min: finished.min(1),
                buckets: if finished == 0 { Vec::new() } else { vec![(1, finished)] },
            },
            execute_by_backend: BackendSpec::all()
                .iter()
                .zip(&self.execute_by_backend)
                .map(|(backend, h)| (backend.label().to_string(), h.snapshot()))
                .filter(|(_, h)| h.count > 0)
                .collect(),
            lane_depth_high_water: self.queue_depth.get(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_index_their_execute_histograms_in_label_order() {
        let all = BackendSpec::all();
        for (i, backend) in all.iter().enumerate() {
            assert_eq!(*backend as usize, i);
        }
        assert!(all.windows(2).all(|w| w[0].label() < w[1].label()));
    }
}
