//! The fast functional backend: evaluates the planned graph without
//! per-cycle simulation, serially or in parallel.
//!
//! Where the cycle-approximate backend ticks every block once per simulated
//! cycle, this backend applies each node's *transfer function* (the
//! crate-internal `node` module) directly to its token streams, in one walk
//! over the plan's topological order (the crate-internal `parallel`
//! module). The walk stores a stream only if somebody re-reads it: a level
//! scanner whose streams feed one operand of one intersecter and nothing
//! else ([`FusedScan`](crate::FusedScan)) is pulled pair by pair by that
//! intersecter and only tallied, and every stored stream is freed the
//! moment its last reader has run. [`Parallelism`] selects how the walk is
//! scheduled:
//!
//! * [`Parallelism::Serial`] — every node evaluates whole on the calling
//!   thread. No scheduler, no channels, no synchronization: peak
//!   single-thread throughput.
//! * [`Parallelism::Threads`]`(n)` — the *work-stealing* engine: the same
//!   walk, but a node with long input streams is split at fiber boundaries
//!   into independent segments that run as stealable tasks on up to `n`
//!   workers. The unit of parallelism is data, not graph structure, so the
//!   speedup scales with stream length instead of being capped by the
//!   fattest node. Requested workers are clamped to the host's available
//!   parallelism; with one effective worker the run is exactly the serial
//!   walk.
//!
//! Both modes are one piece of code over the same per-primitive transfer
//! functions and output assembly, so they produce bit-identical tensors,
//! token totals and per-node token counts from the same [`Plan`] — the
//! same ones the cycle backend produces.
//!
//! ```
//! use sam_core::graphs;
//! use sam_exec::{BackendSpec, ExecRequest, Inputs};
//! use sam_tensor::{synth, TensorFormat};
//!
//! let graph = graphs::spmv();
//! let b = synth::random_matrix_sparsity(60, 40, 0.9, 7);
//! let c = synth::random_vector(40, 40, 8);
//! let inputs = Inputs::new()
//!     .coo("B", &b, TensorFormat::dcsr())
//!     .coo("c", &c, TensorFormat::dense_vec());
//! let serial = ExecRequest::new(&graph, &inputs).run().unwrap();
//! let parallel =
//!     ExecRequest::new(&graph, &inputs).backend(BackendSpec::FastThreads(4)).run().unwrap();
//! assert_eq!(serial.output.unwrap(), parallel.output.unwrap());
//! ```

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::plan::Plan;
use crate::{Execution, Executor, Parallelism};
use sam_trace::{NullSink, TraceSink};

/// Minimum input-stream length (tokens) before the work-stealing engine
/// splits a node's evaluation. Below this, segment setup and merge would
/// cost more than the parallelism buys.
const DEFAULT_SPLIT_THRESHOLD: usize = 8192;

/// Runs plans functionally, without per-cycle simulation; serial by
/// default, parallel with [`FastBackend::threads`].
#[derive(Debug, Clone, Copy)]
pub struct FastBackend {
    parallelism: Parallelism,
    /// Work-stealing engine: minimum stream length before splitting.
    split_threshold: usize,
    /// Work-stealing engine: skip the available-parallelism clamp, so the
    /// splitting machinery runs even on single-core hosts (testing).
    force_split: bool,
}

impl Default for FastBackend {
    fn default() -> Self {
        FastBackend::serial()
    }
}

impl FastBackend {
    fn base(parallelism: Parallelism) -> Self {
        FastBackend { parallelism, split_threshold: DEFAULT_SPLIT_THRESHOLD, force_split: false }
    }

    /// The single-threaded backend (also [`Default`]): every node evaluates
    /// whole on the calling thread, no synchronization.
    pub fn serial() -> Self {
        FastBackend::base(Parallelism::Serial)
    }

    /// The work-stealing parallel backend: nodes still evaluate in
    /// topological order, but long streams are split at fiber boundaries
    /// into stealable segments across up to `threads` workers (clamped to
    /// at least 1, and at runtime to the host's available parallelism).
    pub fn threads(threads: usize) -> Self {
        FastBackend::base(Parallelism::Threads(threads.max(1)))
    }

    /// A backend with an explicit [`Parallelism`] setting. `Threads(0)` is
    /// clamped to `Threads(1)`.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        match parallelism {
            Parallelism::Serial => FastBackend::serial(),
            Parallelism::Threads(n) => FastBackend::threads(n),
        }
    }

    /// Lowers the work-stealing engine's split threshold to `threshold`
    /// tokens and disables the available-parallelism clamp, so `Threads(n)`
    /// splits streams across `n` workers even on hosts that report fewer
    /// cores. Intended for tests that must exercise the splitting seams
    /// deterministically; the default configuration only splits when real
    /// parallelism is available.
    pub fn with_split_threshold(mut self, threshold: usize) -> Self {
        self.split_threshold = threshold.max(1);
        self.force_split = true;
        self
    }
}

impl Executor for FastBackend {
    fn name(&self) -> &'static str {
        match self.parallelism {
            Parallelism::Serial => "fast-serial",
            Parallelism::Threads(_) => "fast-threads",
        }
    }

    fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    fn run(&self, plan: &Plan, inputs: &Inputs) -> Result<Execution, ExecError> {
        self.run_traced(plan, inputs, &NullSink)
    }

    fn run_traced(
        &self,
        plan: &Plan,
        inputs: &Inputs,
        trace: &dyn TraceSink,
    ) -> Result<Execution, ExecError> {
        crate::parallel::run_stealing(
            self.name(),
            plan,
            inputs,
            self.parallelism,
            self.split_threshold,
            self.force_split,
            trace,
        )
    }
}
