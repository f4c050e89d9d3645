//! Metrics-accuracy suite: the telemetry must agree with ground truth.
//!
//! Every claim the telemetry makes is checked against an independently
//! countable fact — resolved handles, submitted queries, forced
//! evictions — under concurrent submission, because metrics that drift
//! under load are worse than no metrics.

use sam_exec::BackendSpec;
use sam_serve::{table1_workload, Query, Service, ServiceConfig, TensorStore};
use sam_trace::Stage;
use std::sync::Arc;
use std::time::Duration;

/// Eight threads submit the Table 1 workload concurrently; the counters
/// must equal the number of resolved handles, every stage histogram must
/// hold exactly one observation per query, and quantiles must be monotone.
#[test]
fn counters_and_histograms_match_resolved_handles_under_concurrency() {
    let (store, queries) = table1_workload(21);
    let service = Service::new(Arc::clone(&store));
    const THREADS: usize = 8;

    let resolved = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let service = &service;
                let queries = &queries;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    for step in 0..queries.len() {
                        let w = &queries[(thread + step) % queries.len()];
                        if service.submit(w.query.clone()).wait().is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter")).sum::<u64>()
    });

    let total = (THREADS * queries.len()) as u64;
    assert_eq!(resolved, total, "every handle resolves successfully");

    let snap = service.metrics_snapshot();
    assert_eq!(snap.submitted, total);
    assert_eq!(snap.completed, resolved, "completed counter equals resolved handles");
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.latency.count, total, "latency histogram holds one observation per query");
    for stage in Stage::ALL {
        assert_eq!(
            snap.stage(stage).count,
            total,
            "stage `{stage}` histogram holds one observation per query"
        );
    }
    let by_backend: u64 = snap.execute_by_backend.iter().map(|(_, h)| h.count).sum();
    assert_eq!(by_backend, total, "per-backend execute histograms partition the queries");

    // Quantiles are monotone on every surface that has observations.
    for (name, h) in std::iter::once(("latency", &snap.latency))
        .chain(Stage::ALL.iter().map(|s| (s.name(), snap.stage(*s))))
    {
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= h.max,
            "{name}: p50={p50} p90={p90} p99={p99} max={}",
            h.max
        );
    }

    // Execute time is real work; the end-to-end latency bounds it.
    assert!(snap.stage(Stage::Execute).sum > 0, "execute stage must accumulate time");
    assert!(snap.latency.sum >= snap.stage(Stage::Execute).sum);

    // 96 queries over 12 expressions: the caches must be warm.
    assert_eq!(snap.compile_hits + snap.compile_misses, total);
    assert_eq!(snap.compile_misses, queries.len() as u64);
    assert_eq!(snap.plans.misses, queries.len() as u64);
    assert!(snap.lane_depth_high_water >= 1);
    assert!(snap.uptime > Duration::ZERO);
    let busy: u64 = snap.workers.iter().map(|w| w.busy_ns).sum();
    assert!(busy > 0, "worker timing must be on when telemetry is enabled");
    assert_eq!(snap.workers.iter().map(|w| w.tasks).sum::<u64>(), total, "one task per query");
}

/// A one-entry plan cache forced to evict shows the misses and evictions
/// in the snapshot.
#[test]
fn forced_eviction_shows_up_in_the_snapshot() {
    let (store, queries) = table1_workload(22);
    let service = Service::with_config(
        Arc::clone(&store),
        ServiceConfig { plan_capacity: 1, ..ServiceConfig::default() },
    );
    for _ in 0..2 {
        let handles: Vec<_> = queries.iter().map(|w| service.submit(w.query.clone())).collect();
        for handle in handles {
            handle.wait().expect("query");
        }
    }
    let snap = service.metrics_snapshot();
    assert!(snap.plans.misses >= queries.len() as u64, "evicted shapes re-plan: {:?}", snap.plans);
    assert!(snap.plans.evictions > 0, "a one-entry cache under twelve shapes must evict");
    // Every query was carried by exactly one worker.
    assert_eq!(snap.workers.iter().map(|w| w.tasks).sum::<u64>(), snap.completed);
}

/// `Query::traced` delivers the per-execution `ExecProfile` through the
/// service path, exactly like one-shot `run_traced`.
#[test]
fn traced_queries_carry_a_profile_through_the_service() {
    let mut store = TensorStore::new();
    store.insert("b", sam_tensor::synth::random_vector(128, 40, 5));
    store.insert("c", sam_tensor::synth::random_vector(128, 44, 6));
    let store = Arc::new(store);
    let service = Service::new(Arc::clone(&store));

    let base = Query::new("x(i) = b(i) * c(i)").operand("b").operand("c");
    let plain = service.submit(base.clone()).wait().expect("plain query");
    assert!(plain.profile.is_none(), "untraced queries must not pay for instrumentation");

    let traced =
        service.submit(base.clone().backend(BackendSpec::FastSerial).traced()).wait().expect("traced");
    let profile = traced.profile.expect("traced query must carry a profile");
    assert_eq!(profile.total_tokens(), traced.tokens);
    assert_eq!(traced.output, plain.output, "tracing must not change results");
}
