//! Metrics-accuracy suite: the telemetry must agree with ground truth.
//!
//! Every claim the telemetry makes is checked against an independently
//! countable fact — resolved handles, submitted queries, forced
//! evictions — under concurrent submission, because metrics that drift
//! under load are worse than no metrics.

use sam_exec::BackendSpec;
use sam_serve::{table1_workload, Query, Service, ServiceConfig, TelemetryConfig, TensorStore};
use sam_trace::Stage;
use std::collections::HashMap;
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

/// Prometheus text exposition: well-formed families, cumulative buckets,
/// and sample values that match the typed snapshot.
#[test]
fn prometheus_rendering_matches_the_snapshot() {
    let (store, queries) = table1_workload(23);
    let service = Service::new(Arc::clone(&store));
    for w in &queries {
        service.submit(w.query.clone()).wait().expect("query");
    }
    let snap = service.metrics_snapshot();
    let text = service.render_prometheus();

    assert!(text.contains(&format!("sam_serve_queries_total {}\n", snap.submitted)));
    assert!(text.contains(&format!("sam_serve_completed_total {}\n", snap.completed)));
    assert!(text.contains(&format!("sam_serve_query_latency_ns_count {}\n", snap.latency.count)));
    assert!(text.contains("# TYPE sam_serve_query_latency_ns histogram\n"));
    assert!(text.contains("sam_serve_stage_ns_bucket{stage=\"queue\",le=\"+Inf\"}"));
    assert!(text.contains(&format!("sam_serve_plan_misses {}\n", snap.plans.misses)));
    for (w, worker) in snap.workers.iter().enumerate() {
        assert!(text.contains(&format!("sam_serve_worker_tasks{{worker=\"{w}\"}} {}\n", worker.tasks)));
        assert!(text.contains(&format!("sam_serve_worker_busy_ns{{worker=\"{w}\"}} {}\n", worker.busy_ns)));
    }

    // The exposition grammar: every line is a `# HELP`/`# TYPE` comment or
    // a `name{labels} value` sample, and every sample follows the `# TYPE`
    // of its family. Bucket series are cumulative and end at +Inf.
    let mut families: HashMap<&str, &str> = HashMap::new();
    let mut last_bucket: Option<u64> = None;
    for line in text.lines() {
        assert!(!line.is_empty());
        if let Some(comment) = line.strip_prefix("# ") {
            let mut words = comment.splitn(3, ' ');
            let (kind, name, rest) = (words.next(), words.next().expect("family name"), words.next());
            match kind {
                Some("HELP") => {}
                Some("TYPE") => {
                    let ty = rest.expect("family type");
                    assert!(matches!(ty, "counter" | "gauge" | "histogram"), "unknown type: {line}");
                    families.insert(name, ty);
                }
                _ => panic!("unknown comment: {line}"),
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample is `series value`");
        assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "malformed sample value: {line}");
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                assert!(labels.ends_with('}') && !labels[..labels.len() - 1].contains('}'), "{line}");
                name
            }
            None => series,
        };
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "malformed metric name: {line}"
        );
        let base = ["_bucket", "_sum", "_count"].iter().find_map(|s| name.strip_suffix(s)).unwrap_or(name);
        assert!(families.contains_key(name) || families.contains_key(base), "sample before its TYPE: {line}");
        if line.contains("_bucket{") {
            let value: u64 = value.parse().expect("bucket sample");
            if line.contains("le=\"+Inf\"") {
                last_bucket = None;
            } else {
                if let Some(prev) = last_bucket {
                    assert!(value >= prev, "bucket series must be cumulative: {line}");
                }
                last_bucket = Some(value);
            }
        }
    }
    assert_eq!(families.get("sam_serve_query_latency_ns"), Some(&"histogram"));
    assert_eq!(families.get("sam_serve_queries_total"), Some(&"counter"));
    assert_eq!(families.get("sam_serve_worker_tasks"), Some(&"counter"));
    assert_eq!(families.get("sam_serve_worker_busy_ns"), Some(&"counter"));
    assert_eq!(families.get("sam_serve_lane_depth_high_water"), Some(&"gauge"));
}

/// A zero slow-query threshold captures every query as a JSONL event, in
/// the ring and in the event-log file.
#[test]
fn slow_query_events_capture_spans_as_jsonl() {
    let dir = std::env::temp_dir().join(format!("sam_serve_events_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    let (store, queries) = table1_workload(24);
    let service = Service::with_config(
        Arc::clone(&store),
        ServiceConfig {
            telemetry: TelemetryConfig {
                slow_query: Some(Duration::ZERO),
                event_log: Some(path.clone()),
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    for w in &queries {
        service.submit(w.query.clone()).wait().expect("query");
    }
    let events = service.recent_events();
    assert_eq!(events.len(), queries.len(), "a zero threshold captures every query");
    // Each event is one JSON object whose `stages_ns` holds exactly the six
    // stages, in pipeline order, summing to `total_ns`.
    let check = |event: &str| {
        assert!(event.starts_with('{') && event.ends_with('}'), "not a JSON object: {event}");
        assert!(!event.contains('\n'), "JSONL events are single-line");
        assert!(event.contains("\"error\":null"));
        let after = |key: &str| event.split_once(key).unwrap_or_else(|| panic!("no {key}: {event}")).1;
        let (total, _) = after("\"total_ns\":").split_once(',').expect("total_ns value");
        let (stages, _) = after("\"stages_ns\":{").split_once('}').expect("stages_ns object");
        let stages: Vec<(&str, u64)> = stages
            .split(',')
            .map(|kv| {
                let (k, v) = kv.split_once(':').expect("stage entry");
                (k.trim_matches('"'), v.parse().expect("stage nanoseconds"))
            })
            .collect();
        assert!(stages.iter().map(|(k, _)| *k).eq(Stage::ALL.iter().map(|s| s.name())), "{event}");
        assert_eq!(total.parse::<u64>().expect("total_ns"), stages.iter().map(|(_, v)| v).sum::<u64>());
    };
    events.iter().for_each(|e| check(e));
    assert_eq!(service.metrics_snapshot().slow_queries, queries.len() as u64);
    drop(service);
    let written = std::fs::read_to_string(&path).expect("event log file");
    assert_eq!(written.lines().count(), queries.len());
    written.lines().for_each(check);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With telemetry disabled the histograms stay empty and no events are
/// captured — but the lifecycle counters and the results are unchanged.
#[test]
fn disabled_telemetry_keeps_counters_but_skips_timing() {
    let (store, queries) = table1_workload(25);
    let service = Service::with_config(
        Arc::clone(&store),
        ServiceConfig {
            telemetry: TelemetryConfig {
                enabled: false,
                slow_query: Some(Duration::ZERO),
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    for w in &queries {
        service.submit(w.query.clone()).wait().expect("query");
    }
    let snap = service.metrics_snapshot();
    assert_eq!(snap.submitted, queries.len() as u64);
    assert_eq!(snap.completed, queries.len() as u64);
    assert_eq!(snap.latency.count, 0, "no timing when disabled");
    for stage in Stage::ALL {
        assert_eq!(snap.stage(stage).count, 0);
    }
    assert!(service.recent_events().is_empty(), "no events when disabled");
    assert_eq!(snap.slow_queries, 0);
    assert_eq!(snap.lane_depth_high_water, 0);
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
