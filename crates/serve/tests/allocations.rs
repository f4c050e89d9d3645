//! Allocation pins for a query's fixed cost: what materializing an operand,
//! a fresh and a kept executor run, a plan-cache hit and a store hit
//! allocate, counted by a global allocator that tallies the calls each
//! thread makes; and the allocation ratchet, every layer's calls for every
//! Table 1 query, held exactly to `.github/alloc_layers.txt`.
//!
//! The tests take one lock, so the process-wide tally a service query is
//! counted by sees no other test's calls.
//!
//! The counting allocator is the one use of `unsafe` in the workspace: a
//! `GlobalAlloc` implementation is an `unsafe impl` forwarding to the
//! system allocator.

#![allow(unsafe_code)]

use custard::{graphs, ConcreteIndexNotation, Formats, Schedule};
use sam_exec::{Executor, FastBackend, Inputs, Plan, PlanCache, TiledBackend};
use sam_serve::{table1_workload, Service, ServiceConfig, TensorStore};
use sam_tensor::level::Level;
use sam_tensor::{synth, Tensor, TensorFormat};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The system allocator, counting the allocations and reallocations the
/// current thread asks for, and those of every thread together.
struct Counting;

/// Allocator calls (allocations plus reallocations) of every thread.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

/// Held by every test of this binary, so that the calls [`ALL_THREADS`]
/// counts over a window are the window's own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static CALLS: Cell<Calls> = const { Cell::new(Calls { allocs: 0, reallocs: 0 }) };
}

/// Allocator calls made by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Calls {
    allocs: u64,
    reallocs: u64,
}

fn tally(f: impl FnOnce(&mut Calls)) {
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no counter left; its calls go uncounted.
    let _ = CALLS.try_with(|calls| {
        let mut now = calls.get();
        f(&mut now);
        calls.set(now);
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(|c| c.allocs += 1);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(|c| c.allocs += 1);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(|c| c.reallocs += 1);
        // SAFETY: `ptr` and `layout` come from this allocator, which is the
        // system allocator's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns and the allocator calls the current thread made while it
/// ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Calls) {
    let before = CALLS.with(Cell::get);
    let out = f();
    let after = CALLS.with(Cell::get);
    (out, Calls { allocs: after.allocs - before.allocs, reallocs: after.reallocs - before.reallocs })
}

/// SpMV and SDDMM (an intersecter with a fusion region), each over
/// operands of fixed shapes whose sparse operand keeps about `per_row`
/// nonzeros a row: one plan, however many tokens.
fn planned(per_row: usize) -> Vec<(Plan, Inputs)> {
    let density = |cols: usize| 1.0 - per_row as f64 / cols as f64;
    let spmv = Inputs::new()
        .coo("B", &synth::random_matrix_sparsity(120, 200, density(200), 3), TensorFormat::dcsr())
        .coo("c", &synth::random_vector(200, 200, 4), TensorFormat::dense_vec());
    let sddmm = Inputs::new()
        .coo("B", &synth::random_matrix_sparsity(40, 60, density(60), 5), TensorFormat::dcsr())
        .coo("C", &synth::random_matrix_sparsity(40, 8, 0.0, 6), TensorFormat::dense(2))
        .coo("D", &synth::random_matrix_sparsity(60, 8, 0.0, 7), TensorFormat::dense(2));
    [(graphs::spmv(), spmv), (graphs::sddmm_coiteration(), sddmm)]
        .into_iter()
        .map(|(graph, inputs)| (Plan::build(&graph, &inputs).expect("plans"), inputs))
        .collect()
}

/// At most how often a `Vec` pushed to `len` entries reallocates: it
/// doubles.
fn growths(len: usize) -> u64 {
    u64::from(usize::BITS - len.leading_zeros())
}

/// From its second run over one plan, a fast backend instance allocates
/// only its output — the writers' levels and values, the list they come
/// in, and the tensor built of them — however many tokens the run moves:
/// every stream buffer, region register and list, and the stream table,
/// are the ones the run before it grew.
#[test]
fn a_fast_backends_second_run_allocates_only_its_output() {
    let _serial = serial();
    let (few, many) = (planned(2), planned(16));
    for ((plan, small), (_, large)) in few.iter().zip(&many) {
        let name = &plan.graph().name;
        let mut tokens = Vec::new();
        for inputs in [small, large] {
            let fast = FastBackend::new();
            let (first, _) = counted(|| fast.run(plan, inputs).expect("runs"));
            for _ in 0..3 {
                let (run, calls) = counted(|| fast.run(plan, inputs).expect("runs"));
                assert_eq!(run.output, first.output, "{name}");
                let output = run.output.as_ref().expect("an output tensor");
                // Per level a coordinate and a segment array; the values, the
                // level list, and the tensor's name, shape, copied values,
                // and its format's two lists.
                assert_eq!(calls.allocs, 2 * output.order() as u64 + 7, "{name}: {calls:?}");
                // Only the writers' arrays grow as they fill.
                let levels = (0..output.order()).map(|l| match output.level(l) {
                    Level::Compressed(level) => growths(level.crd.len()) + growths(level.seg.len()),
                    other => panic!("{name}: the writers write compressed levels, not {other:?}"),
                });
                let most = levels.sum::<u64>() + growths(output.vals().len());
                assert!(calls.reallocs <= most, "{name}: {calls:?}, the output grows {most} times at most");
                tokens.push(run.tokens);
            }
        }
        assert!(tokens[3] > 4 * tokens[0], "{name}: {tokens:?}");
    }
}

/// Materializing a matrix allocates per tensor and per level, not per
/// nonzero: a 30-entry and a 3,000-entry matrix cost the same allocator
/// calls, whether their entries already ascend in storage order (DCSR) or
/// have to be sorted (CSC).
#[test]
fn materializing_allocates_the_same_for_few_and_many_nonzeros() {
    let _serial = serial();
    let (few, many) =
        (synth::random_matrix_nnz(100, 100, 30, 9), synth::random_matrix_nnz(100, 100, 3000, 9));
    for format in [TensorFormat::dcsr(), TensorFormat::csc()] {
        let (small, calls_few) = counted(|| Tensor::from_coo("B", &few, format.clone()));
        let (large, calls_many) = counted(|| Tensor::from_coo("B", &many, format.clone()));
        assert_eq!((small.nnz(), large.nnz()), (30, 3000), "{format}");
        assert_eq!(calls_few, calls_many, "{format}");
    }
}

/// A fresh fast backend's run allocates each stream buffer it needs once,
/// with room for a small kernel's stream, rather than growing it from four
/// tokens by doubling, and fills a region's registers only as wide as its
/// blocks go. The counts are the allocator calls of one run, output
/// included, over the small operands.
#[test]
fn a_fresh_fast_backend_run_allocates_its_buffers_once() {
    let _serial = serial();
    let most = [Calls { allocs: 31, reallocs: 19 }, Calls { allocs: 45, reallocs: 22 }];
    for ((plan, inputs), most) in planned(2).iter().zip(most) {
        let (_, calls) = counted(|| FastBackend::new().run(plan, inputs).expect("runs"));
        let name = &plan.graph().name;
        assert!(calls.allocs <= most.allocs && calls.reallocs <= most.reallocs, "{name}: {calls:?}");
    }
}

/// A plan-cache hit builds no key, and checking the inputs against the plan
/// it returns builds none either.
#[test]
fn a_plan_cache_hit_and_its_input_check_allocate_nothing() {
    let _serial = serial();
    let cache = PlanCache::new(16);
    for (plan, inputs) in planned(2) {
        let graph = plan.graph();
        let planned = cache.get_or_plan(graph, &inputs).expect("plans");
        let (hit, calls) = counted(|| {
            let hit = cache.get_or_plan(graph, &inputs).expect("hits");
            hit.check_inputs(&inputs).map(|()| hit)
        });
        assert!(std::sync::Arc::ptr_eq(&hit.expect("inputs the plan was built over"), &planned));
        assert_eq!(calls, Calls { allocs: 0, reallocs: 0 }, "{}", graph.name);
    }
    assert_eq!(cache.stats().hits, 2);
}

/// A tensor the store already materialized is found without building a key.
#[test]
fn a_store_hit_allocates_nothing() {
    let _serial = serial();
    let mut store = TensorStore::new();
    store.insert("B", synth::random_matrix_sparsity(10, 8, 0.8, 1));
    let formats = [TensorFormat::dcsr(), TensorFormat::csr()];
    for format in &formats {
        store.materialize("B", "B", format).expect("stored");
    }
    for format in &formats {
        let (hit, calls) = counted(|| store.materialize("B", "B", format));
        assert_eq!(hit.expect("stored").format(), format);
        assert_eq!(calls, Calls { allocs: 0, reallocs: 0 });
    }
    assert_eq!((store.materialize_stats().builds, store.materialize_stats().hits), (2, 2));
}

/// Allocator calls (allocations plus reallocations) of the current thread
/// while `f` runs.
fn calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, calls) = counted(f);
    (out, calls.allocs + calls.reallocs)
}

/// The allocation ratchet: per query of `table1_workload(1)`, the allocator
/// calls of each layer a cold query pays — parse; `try_new` and
/// `lower_exec`; `Tensor::from_coo` of every operand (with the scalars
/// bound); `Plan::build`; a run on a fresh fast backend — then a warm
/// service query, counted on every thread, a kept executor's second run
/// and a tiled run of SpM\*SpM at tile 4. A debug build's `lower_exec` also verifies its graph; those calls
/// are taken out, so a debug and a release build print one table.
fn layer_table() -> String {
    let (store, queries) = table1_workload(1);
    let mut table = format!(
        "{:<12} {:>6} {:>6} {:>12} {:>6} {:>6}\n",
        "query", "parse", "lower", "materialize", "plan", "run"
    );
    let mut sums = [0u64; 5];
    let (mut kept, mut spmspm) = (None, None);
    for q in &queries {
        let query = &q.query;
        let (assignment, parse) = calls(|| custard::parse(query.expression()).expect("parses"));
        let (kernel, mut lower) = calls(|| {
            let schedule = query.reorder().map_or_else(Schedule::new, |order| Schedule::new().reorder(order));
            let mut formats = Formats::new();
            for (name, format) in query.format_overrides() {
                formats = formats.set(name, format.clone());
            }
            let cin = ConcreteIndexNotation::try_new(assignment, &schedule, formats).expect("a permutation");
            custard::lower_exec(&cin).expect("lowers")
        });
        if cfg!(debug_assertions) {
            lower -= calls(|| kernel.verify()).1;
        }
        let (inputs, materialize) = calls(|| {
            let mut inputs = Inputs::new();
            for (operand, stored) in query.bindings() {
                let (_, format) =
                    kernel.formats.iter().find(|(name, _)| name == operand).expect("an operand");
                let coo = store.coo(stored).expect("stored");
                inputs = inputs.tensor(Tensor::from_coo(operand, coo, format.clone()));
            }
            for (name, value) in query.scalar_bindings() {
                inputs = inputs.scalar(name, *value);
            }
            inputs
        });
        let (plan, plan_calls) = calls(|| Plan::build(&kernel.graph, &inputs).expect("plans"));
        let (_, run) = calls(|| FastBackend::new().run(&plan, &inputs).expect("runs"));
        let row = [parse, lower, materialize, plan_calls, run];
        for (sum, n) in sums.iter_mut().zip(row) {
            *sum += n;
        }
        let [a, b, c, d, e] = row;
        let _ = writeln!(table, "{:<12} {a:>6} {b:>6} {c:>12} {d:>6} {e:>6}", q.name);
        if q.name == "SpM*SpM" {
            spmspm = Some((plan.clone(), inputs.clone()));
        }
        kept.get_or_insert((plan, inputs));
    }
    let mean = sums.map(|sum| format!("{:.1}", sum as f64 / queries.len() as f64));
    let [a, b, c, d, e] = &mean;
    let _ = writeln!(table, "{:<12} {a:>6} {b:>6} {c:>12} {d:>6} {e:>6}", "mean");

    // A warm service query: compiled, materialized and planned before, so
    // its calls are the queue's, the handle's, the caches' lookups and the
    // run's output, on the submitting thread and the worker together. The
    // fewest of several, since the test harness's own thread may allocate
    // during one.
    let first = queries[0].query.clone();
    let service = Service::with_config(store, ServiceConfig { workers: 1, ..ServiceConfig::default() });
    for _ in 0..3 {
        service.submit(first.clone()).wait().expect("runs");
    }
    let warm = (0..5)
        .map(|_| {
            let query = first.clone();
            let before = ALL_THREADS.load(Ordering::SeqCst);
            let run = service.submit(query).wait();
            let after = ALL_THREADS.load(Ordering::SeqCst);
            drop(run.expect("runs"));
            after - before
        })
        .min()
        .unwrap_or_default();
    let _ = writeln!(table, "warm service query ({}): {warm}", queries[0].name);

    // A kept executor's second run over one plan.
    let (plan, inputs) = kept.expect("a query");
    let fast = FastBackend::new();
    fast.run(&plan, &inputs).expect("runs");
    let (_, rerun) = calls(|| fast.run(&plan, &inputs).expect("runs"));
    let _ = writeln!(table, "kept executor rerun ({}): {rerun}", queries[0].name);

    // A tiled run: the schedule, the cut, every tuple's walk and the merge.
    let (plan, inputs) = spmspm.expect("SpM*SpM is a Table 1 query");
    let (_, tiled) = calls(|| TiledBackend::with_tile(4).run(&plan, &inputs).expect("runs"));
    let _ = writeln!(table, "tiled run, tile 4 (SpM*SpM): {tiled}");
    table
}

/// The allocation ratchet ([`layer_table`]) against the pinned table. A
/// change that moves a count regenerates `.github/alloc_layers.txt` from
/// the table this prints, and says why.
#[test]
fn allocator_calls_per_layer_match_the_pinned_table() {
    let _serial = serial();
    let table = layer_table();
    let pinned = include_str!("../../../.github/alloc_layers.txt");
    assert!(table == pinned, "allocator calls per query and layer moved; they now read:\n{table}");
}
