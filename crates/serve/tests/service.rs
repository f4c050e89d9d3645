//! Service-vs-one-shot equivalence and plan-cache behavior.
//!
//! The load-bearing property: a query through the resident service —
//! compile cache, plan cache, batching lanes, executor pool and all —
//! returns an `Execution` bit-identical to a one-shot `ExecRequest` for
//! the same expression over the same operands, on every backend, from any
//! number of submitting threads. The workload is integer-valued, so
//! "identical" means exact equality of outputs and raw value streams.

use custard::{ConcreteIndexNotation, Formats, Schedule};
use sam_exec::{BackendSpec, ExecRequest, Execution, Inputs};
use sam_serve::{table1_workload, Query, Service, ServiceConfig, TensorStore};
use sam_tensor::{CooTensor, LevelFormat, TensorFormat};
use std::sync::Arc;

/// Runs `query` the one-shot way: compile with custard, bind the same
/// stored tensors, plan fresh (no cache), execute through the door.
fn one_shot(store: &TensorStore, query: &Query) -> Execution {
    let assignment = custard::parse(query.expression()).expect("parse");
    let schedule = match query.reorder() {
        Some(order) => Schedule::new().reorder(order),
        None => Schedule::new(),
    };
    let mut formats = Formats::new();
    for (name, format) in query.format_overrides() {
        formats = formats.set(name, format.clone());
    }
    let cin = ConcreteIndexNotation::new(assignment, &schedule, formats);
    let kernel = custard::lower_exec(&cin).expect("lower");
    let mut inputs = Inputs::new();
    for (operand, stored) in query.bindings() {
        let format =
            kernel.formats.iter().find(|(n, _)| n == operand).map(|(_, f)| f.clone()).expect("operand");
        inputs = inputs.shared(store.materialize(stored, operand, &format).expect("stored tensor"));
    }
    for (name, value) in query.scalar_bindings() {
        inputs = inputs.scalar(name, *value);
    }
    ExecRequest::new(&kernel.graph, &inputs).backend(query.backend_spec()).uncached().run().expect("one-shot")
}

fn assert_identical(name: &str, got: &Execution, want: &Execution) {
    assert_eq!(got.output, want.output, "{name}: output tensor diverged");
    assert_eq!(got.vals, want.vals, "{name}: raw value stream diverged");
    assert_eq!(got.backend, want.backend, "{name}: ran on the wrong backend");
}

/// A warm plan-cache hit produces an `Execution` bit-identical to a fresh
/// compile-and-plan — and the second round of the workload is all hits.
#[test]
fn plan_cache_hits_are_bit_identical_to_fresh_compiles() {
    let (store, queries) = table1_workload(11);
    let service = Service::new(Arc::clone(&store));

    let cold: Vec<Execution> = queries
        .iter()
        .map(|w| service.submit(w.query.clone()).wait().unwrap_or_else(|e| panic!("{}: {e}", w.name)))
        .collect();
    let cold_stats = service.plan_stats();
    assert_eq!(cold_stats.misses, 12, "twelve distinct shapes plan once each");

    let warm: Vec<Execution> = queries
        .iter()
        .map(|w| service.submit(w.query.clone()).wait().unwrap_or_else(|e| panic!("{}: {e}", w.name)))
        .collect();
    let warm_stats = service.plan_stats();
    assert_eq!(warm_stats.misses, cold_stats.misses, "the warm round must not re-plan");
    assert_eq!(warm_stats.hits, 12, "the warm round is all plan-cache hits");
    assert_eq!(service.metrics_snapshot().compile_hits, 12, "the warm round is all compile-cache hits");

    for ((w, cold), warm) in queries.iter().zip(&cold).zip(&warm) {
        assert_identical(w.name, warm, cold);
        assert_identical(w.name, cold, &one_shot(&store, &w.query));
    }
}

/// A plan cache too small for the workload evicts — and evicted shapes
/// simply re-plan, with results unchanged.
#[test]
fn eviction_under_a_tiny_capacity_keeps_results_exact() {
    let (store, queries) = table1_workload(12);
    let service = Service::with_config(
        Arc::clone(&store),
        ServiceConfig { plan_capacity: 1, ..ServiceConfig::default() },
    );

    for round in 0..2 {
        for w in &queries {
            let run = service.submit(w.query.clone()).wait().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_identical(w.name, &run, &one_shot(&store, &w.query));
            let _ = round;
        }
    }
    let stats = service.plan_stats();
    assert!(
        stats.evictions > 0,
        "twelve shapes against a one-entry-per-shard cache must evict (stats: {stats:?})"
    );
    assert!(stats.entries <= 8, "capacity stays bounded");
}

/// Eight threads submitting the mixed workload concurrently — with
/// per-query backend selection across all three backends — match the
/// serial one-shot results exactly, query for query.
#[test]
fn concurrent_submissions_from_eight_threads_match_one_shot_exactly() {
    let (store, queries) = table1_workload(13);
    let specs = [BackendSpec::FastSerial, BackendSpec::Tiled, BackendSpec::Cycle];
    // Route each workload query to a backend, round-robin; precompute the
    // one-shot oracle for every (query, backend) pair.
    let routed: Vec<(&str, Query)> = queries
        .iter()
        .enumerate()
        .map(|(i, w)| (w.name, w.query.clone().backend(specs[i % specs.len()])))
        .collect();
    let oracle: Vec<Execution> = routed.iter().map(|(_, q)| one_shot(&store, q)).collect();

    let service = Service::new(Arc::clone(&store));
    std::thread::scope(|scope| {
        for thread in 0..8 {
            let service = &service;
            let routed = &routed;
            let oracle = &oracle;
            scope.spawn(move || {
                // Each thread walks the workload from its own offset so
                // lanes see interleaved expressions.
                for step in 0..routed.len() {
                    let i = (thread + step) % routed.len();
                    let (name, query) = &routed[i];
                    let run = service
                        .submit(query.clone())
                        .wait()
                        .unwrap_or_else(|e| panic!("{name} (thread {thread}): {e}"));
                    assert_identical(name, &run, &oracle[i]);
                }
            });
        }
    });

    let stats = service.metrics_snapshot();
    assert_eq!(stats.submitted, 8 * 12);
    assert_eq!(stats.completed, 8 * 12, "no query may fail (failed={})", stats.failed);
    // 96 submissions over 12 shapes: at most the first encounter of each
    // shape misses.
    assert_eq!(stats.plans.misses, 12);
    assert!(stats.plans.hit_rate() > 0.85, "warm traffic is nearly all hits: {:?}", stats.plans);
}

/// Submission failures surface through the handle, never as panics or
/// poisoned service state: the service keeps serving afterwards.
#[test]
fn errors_resolve_handles_and_leave_the_service_healthy() {
    let (store, queries) = table1_workload(14);
    let service = Service::new(Arc::clone(&store));

    let missing = Query::new("x(i) = B_mv(i,j) * c_mv(j)").operand("B_mv").bind("c_mv", "nope");
    let err = service.submit(missing).wait().unwrap_err();
    assert!(matches!(err, sam_serve::ServeError::UnknownTensor { ref name } if name == "nope"), "{err}");

    let unparsable = Query::new("x(i) = = B_mv(i,j)");
    let err = service.submit(unparsable).wait().unwrap_err();
    assert!(matches!(err, sam_serve::ServeError::Compile { .. }), "{err}");

    let unused =
        Query::new("x(i) = B_mv(i,j) * c_mv(j)").operand("B_mv").operand("c_mv").bind("ghost", "B_mv");
    let err = service.submit(unused).wait().unwrap_err();
    assert!(matches!(err, sam_serve::ServeError::Compile { .. }), "{err}");

    // Expression-shaped input that used to unwind inside the compiler: an
    // order that is no permutation of the statement's variables, and an
    // index variable repeated in the target or in one access.
    let bad_order = Query::new("x(i) = B_mv(i,j) * c_mv(j)").order("i").operand("B_mv").operand("c_mv");
    let diagonal_target = Query::new("x(i,i) = c_mv(i)").operand("c_mv");
    let diagonal_access = Query::new("x(i) = B_mv(i,i)").operand("B_mv");
    for query in [bad_order, diagonal_target, diagonal_access] {
        let err = service.submit(query).wait().unwrap_err();
        assert!(matches!(err, sam_serve::ServeError::Compile { .. }), "{err}");
    }

    // The service still executes real work after all six failures.
    let w = &queries[0];
    let run = service.submit(w.query.clone()).wait().unwrap();
    assert_identical(w.name, &run, &one_shot(&store, &w.query));
    assert_eq!(service.metrics_snapshot().failed, 6);
}

/// An order that repeats an index variable (`iij`) is a compile error that
/// names the order and the statement's variables, from custard's own
/// check, and the service goes on serving.
#[test]
fn an_order_that_repeats_a_variable_is_a_compile_error() {
    let (store, queries) = table1_workload(3);
    let service = Service::new(Arc::clone(&store));
    let spmv = queries.iter().find(|w| w.name == "SpMV").expect("the workload runs SpMV");
    match service.submit(spmv.query.clone().order("iij")).wait() {
        Err(sam_serve::ServeError::Compile { message, .. }) => {
            assert_eq!(message, "order `iij` is not a permutation of the index variables `ij`", "{message}")
        }
        other => panic!("expected a compile error, got {other:?}"),
    }
    let run = service.submit(spmv.query.clone()).wait().expect("the service still runs SpMV");
    assert_identical(spmv.name, &run, &one_shot(&store, &spmv.query));
}

/// A format override with another number of levels than its operand is
/// indexed by fails to compile, naming the operand: it used to be reshaped
/// to fit (modes it missed read as compressed, extra levels dropped) and
/// run without a word.
#[test]
fn a_format_override_of_another_order_is_a_compile_error() {
    let (store, queries) = table1_workload(3);
    let service = Service::new(Arc::clone(&store));
    let spmv = queries.iter().find(|w| w.name == "SpMV").expect("the workload runs SpMV");
    let overridden = spmv.query.clone().format("B_mv", TensorFormat::csf(3));
    match service.submit(overridden).wait() {
        Err(sam_serve::ServeError::Compile { message, .. }) => {
            assert!(message.contains("`B_mv`"), "{message}")
        }
        other => panic!("expected a compile error naming `B_mv`, got {other:?}"),
    }
    let run = service.submit(spmv.query.clone()).wait().expect("the service still runs SpMV");
    assert_identical(spmv.name, &run, &one_shot(&store, &spmv.query));
}

/// Stored operands that give one index variable two sizes (`c` holds
/// coordinate 12, beyond the dimension 8 `b` gives `i`) resolve to a typed
/// rejection on every backend — it used to plan and panic a pool worker.
#[test]
fn operands_disagreeing_on_a_dimension_are_rejected_not_run() {
    let mut store = TensorStore::new();
    store.insert("b", CooTensor::from_entries(vec![8], vec![(vec![1], 1.0), (vec![5], 2.0)]).unwrap());
    store.insert("c", CooTensor::from_entries(vec![16], vec![(vec![5], 3.0), (vec![12], 4.0)]).unwrap());
    let service = Service::new(Arc::new(store));
    for spec in BackendSpec::all() {
        let query = Query::new("x(i) = b(i) + c(i)").operand("b").operand("c").backend(spec);
        match service.submit(query).wait() {
            Err(sam_serve::ServeError::Rejected { diagnostics, .. }) => {
                assert_eq!(
                    diagnostics[0].rule,
                    sam_verify::Rule::DimensionMismatch,
                    "{spec}: {}",
                    diagnostics[0]
                );
            }
            other => panic!("{spec}: expected a dimension-mismatch rejection, got {other:?}"),
        }
    }
    assert_eq!(service.metrics_snapshot().failed, BackendSpec::all().len() as u64);
}

/// Two queries that differ only in their operands' bitvector word width
/// lower and materialize apart: each binds tensors in the format it asked
/// for. (The format's display string prints every bitvector level as `bv`,
/// so caches keyed by it served the first width to the second query.)
#[test]
fn bitvector_word_widths_compile_and_materialize_apart() {
    let mut store = TensorStore::new();
    let b = CooTensor::from_entries(vec![40], vec![(vec![1], 1.0), (vec![9], 2.0), (vec![33], 3.0)]).unwrap();
    let c =
        CooTensor::from_entries(vec![40], vec![(vec![9], 4.0), (vec![20], 5.0), (vec![33], 6.0)]).unwrap();
    store.insert("b", b);
    store.insert("c", c);
    let store = Arc::new(store);
    let service = Service::new(Arc::clone(&store));
    let bitvector = |word_width| TensorFormat::new(vec![LevelFormat::Bitvector { word_width }]);
    let mut runs = Vec::new();
    for word_width in [8, 64] {
        let query = Query::new("x(i) = b(i) * c(i)")
            .format("b", bitvector(word_width))
            .format("c", bitvector(word_width))
            .operand("b")
            .operand("c");
        let run = service.submit(query.clone()).wait().unwrap();
        assert_identical("x(i) = b(i) * c(i)", &run, &one_shot(&store, &query));
        runs.push(run);
    }
    assert_eq!(runs[0].output, runs[1].output);
    let metrics = service.metrics_snapshot();
    assert_eq!((metrics.compile_hits, metrics.compile_misses), (0, 2));
    assert_eq!(store.materialize_stats().builds, 4, "two operands at two widths");
    for word_width in [8, 64] {
        for operand in ["b", "c"] {
            let bound = store.materialize(operand, operand, &bitvector(word_width)).unwrap();
            assert_eq!(bound.format(), &bitvector(word_width), "{operand} at {word_width}-bit words");
        }
    }
    assert_eq!(store.materialize_stats().builds, 4, "each width was built once, by its own query");
}
