//! Adversarial scheduling stress: the full kernel catalog under heavy
//! oversubscription and pathological split/tile configurations, looped,
//! under a watchdog timeout. This guards the liveness of both users of
//! the work-stealing pool — the stream splitter (forced to cut every
//! stream) and the parallel tile sweep (tile size 4 floods the tuple
//! space) — neither of which may deadlock, livelock, or drift from the
//! serial results no matter how oversubscribed the host is.

use sam_core::graph::SamGraph;
use sam_core::graphs;
use sam_core::graphs::SpmmDataflow;
use sam_exec::{ExecRequest, Executor, FastBackend, Inputs, Parallelism, TiledBackend, TraceSink};
use sam_tensor::{synth, CooTensor, TensorFormat};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Integer-valued variant of a random tensor: keeps tiled partial sums
/// exact, so every backend must agree bit for bit.
fn int_coo(coo: &CooTensor) -> CooTensor {
    CooTensor::from_entries(
        coo.shape().to_vec(),
        coo.entries().iter().map(|(p, v)| (p.clone(), (v * 4.0).round())).collect(),
    )
    .unwrap()
}

fn catalog() -> Vec<(SamGraph, Inputs)> {
    let vb = int_coo(&synth::random_vector(150, 45, 701));
    let vc = int_coo(&synth::random_vector(150, 40, 702));
    let m = int_coo(&synth::random_matrix_sparsity(24, 18, 0.85, 703));
    let n = int_coo(&synth::random_matrix_sparsity(18, 21, 0.85, 704));
    let sv = int_coo(&synth::random_vector(18, 18, 705));
    let dense_c = int_coo(&synth::dense_matrix(24, 6, 706));
    let dense_d = int_coo(&synth::dense_matrix(18, 6, 707));
    let b3 = int_coo(&synth::random_tensor3([14, 8, 9], 160, 708));
    let fc = int_coo(&synth::random_matrix_sparsity(10, 8, 0.55, 709));
    let fd = int_coo(&synth::random_matrix_sparsity(10, 9, 0.55, 710));

    vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
        ),
        (graphs::identity(), Inputs::new().coo("B", &m, TensorFormat::dcsr())),
        (
            graphs::spmv(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::dense_vec()),
        ),
        (
            graphs::spmv_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
        ),
        (
            graphs::spmv_with_skip(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
        ),
        (
            graphs::spmm(SpmmDataflow::LinearCombination),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("C", &n, TensorFormat::dcsr()),
        ),
        (
            graphs::spmm(SpmmDataflow::InnerProduct),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("C", &n, TensorFormat::dcsc()),
        ),
        (
            graphs::spmm(SpmmDataflow::OuterProduct),
            Inputs::new().coo("B", &m, TensorFormat::dcsc()).coo("C", &n, TensorFormat::dcsr()),
        ),
        (
            graphs::sddmm_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("C", &dense_c, TensorFormat::dense(2)).coo(
                "D",
                &dense_d,
                TensorFormat::dense(2),
            ),
        ),
        (
            graphs::mttkrp(),
            Inputs::new().coo("B", &b3, TensorFormat::csf(3)).coo("C", &fc, TensorFormat::dcsc()).coo(
                "D",
                &fd,
                TensorFormat::dcsc(),
            ),
        ),
    ]
}

fn run_stress() {
    let catalog = catalog();
    // Adversarial fast-backend configuration: 8 workers on any host,
    // every stream split (threshold 1).
    let stealing = FastBackend::threads(8).with_split_threshold(1);
    let tiled_serial = TiledBackend::with_tile(4);
    let tiled_par = TiledBackend::with_tile(4).with_parallelism(Parallelism::Threads(8));

    for round in 0..2 {
        for (graph, inputs) in &catalog {
            let serial = ExecRequest::new(graph, inputs)
                .executor(&FastBackend::serial())
                .run()
                .unwrap_or_else(|e| panic!("round {round} {}: serial failed: {e}", graph.name));
            let run = ExecRequest::new(graph, inputs)
                .executor(&stealing)
                .run()
                .unwrap_or_else(|e| panic!("round {round} {} on {}: {e}", graph.name, stealing.name()));
            assert_eq!(run.output, serial.output, "round {round} {}", graph.name);
            assert_eq!(run.vals, serial.vals, "round {round} {}", graph.name);
            assert_eq!(run.tokens, serial.tokens, "round {round} {}", graph.name);
            // The parallel tile sweep must agree with the serial tile
            // sweep in every respect — same outputs on kernels tiling
            // supports, the same typed rejection on kernels it does not.
            // It may never hang or fail where serial succeeds.
            match (
                ExecRequest::new(graph, inputs).executor(&tiled_serial).run(),
                ExecRequest::new(graph, inputs).executor(&tiled_par).run(),
            ) {
                (Ok(s), Ok(p)) => {
                    assert_eq!(p.output, s.output, "round {round} {} tiled", graph.name);
                    assert_eq!(p.vals, s.vals, "round {round} {} tiled", graph.name);
                    assert_eq!(p.output, serial.output, "round {round} {} tiled vs untiled", graph.name);
                }
                (Err(_), Err(_)) => {}
                (s, p) => panic!(
                    "round {round} {}: tiled serial/parallel diverged: serial {:?}, parallel {:?}",
                    graph.name,
                    s.map(|r| r.backend).map_err(|e| e.to_string()),
                    p.map(|r| r.backend).map_err(|e| e.to_string()),
                ),
            }
        }
    }
}

/// The whole adversarial sweep must *finish*: a worker thread runs it and
/// reports back over a channel; if the report does not arrive before the
/// watchdog fires, some scheduler is deadlocked or livelocked and the test
/// fails instead of hanging the suite forever.
#[test]
fn oversubscribed_adversarial_configs_finish_and_agree() {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        run_stress();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(()) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The worker panicked before reporting: surface its message.
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
            unreachable!("worker disconnected without panicking");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("stress sweep exceeded the 300s watchdog: scheduler deadlock or livelock")
        }
    }
}

/// A sink that wants data and fails, once, when it is first handed a
/// node's wall time — one panic injected into whichever thread reports
/// first: the driving thread of the stealing walk, any participant of the
/// tile sweep. Every other thread of the pool stays healthy, and parked.
#[derive(Default)]
struct PanicOnceSink {
    fired: AtomicBool,
}

impl TraceSink for PanicOnceSink {
    fn record_node_wall(&self, _node: usize, _ns: u64) {
        assert!(self.fired.swap(true, Ordering::Relaxed), "injected: the trace sink failed");
    }
}

/// Runs SpM*SpM traced with a [`PanicOnceSink`] on `backend` and returns
/// the message of the panic the run raised. The run happens on a spawned
/// thread; if nothing comes back within the watchdog, the pool's workers
/// were never released and the scope that spawned them is still waiting to
/// join them.
fn injected_panic_of(backend: impl Executor + Send + 'static) -> String {
    // Entry 5 is linear-combination SpM*SpM: both pool users take it.
    let (graph, inputs) = catalog().swap_remove(5);
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let sink = PanicOnceSink::default();
        let run = ExecRequest::new(&graph, &inputs).executor(&backend).traced(&sink);
        tx.send(catch_unwind(AssertUnwindSafe(|| run.run().map(|r| r.tokens)))).ok();
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(Err(payload)) => match payload.downcast::<&'static str>() {
            Ok(message) => message.to_string(),
            Err(payload) => *payload.downcast::<String>().unwrap_or_default(),
        },
        Ok(Ok(run)) => panic!("the injected panic was swallowed: the run returned {run:?}"),
        Err(_) => panic!("the run neither returned nor unwound within 20s: pool workers still parked"),
    }
}

/// A panic on the driving thread must propagate, not hang: leaving the
/// scope's closure by unwinding still has to shut the pool down, or the
/// scope joins workers parked on the pool's condvar forever.
#[test]
fn a_panic_on_the_driving_thread_propagates_instead_of_hanging() {
    let message = injected_panic_of(FastBackend::threads(3).with_split_threshold(1));
    assert!(message.contains("injected"), "the driver's own panic is re-raised: {message}");
}

/// The same hole through the tile sweep. Whichever participant reports
/// first dies: the driver unwinds with the injected panic itself, or finds
/// the slot a dead worker never filled and unwinds on that.
#[test]
fn a_panic_inside_a_parallel_tile_sweep_propagates_instead_of_hanging() {
    let message = injected_panic_of(TiledBackend::with_tile(4).with_parallelism(Parallelism::Threads(3)));
    assert!(
        message.contains("injected") || message.contains("tile task ran"),
        "the driver's own panic is re-raised: {message}"
    );
}
