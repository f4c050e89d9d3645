//! Query-lifecycle spans: per-query stage attribution for a serving path.
//!
//! [`crate::ExecProfile`] attributes cost *inside* one execution; a
//! [`QuerySpan`] attributes cost *around* it — the stages a query passes
//! through between `submit` and resolution in a long-lived service:
//!
//! 1. [`Stage::Queue`] — enqueue to worker pickup (queue wait),
//! 2. [`Stage::Compile`] — expression → kernel (compile-cache hit or miss),
//! 3. [`Stage::Plan`] — kernel → executable plan (plan-cache hit or miss),
//! 4. [`Stage::Batch`] — always 0 since PR 18 (see the variant),
//! 5. [`Stage::Execute`] — backend run,
//! 6. [`Stage::Resolve`] — run end to handle resolution.
//!
//! Spans are plain data: the service fills one per query and feeds the
//! durations into the per-stage histograms of its `MetricsSnapshot`.

use std::time::Duration;

/// The lifecycle stages of a served query, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in the submission queue for a worker to pick the query up.
    Queue,
    /// Compiling the expression to an executable kernel.
    Compile,
    /// Planning the kernel graph (plan-cache lookup or fresh plan).
    Plan,
    /// Constant 0 since PR 18: the worker that prepares a query executes
    /// it at once, so nothing waits for a batch to form. The stage stays
    /// because the benchmark iterates [`Stage::ALL`] by name.
    Batch,
    /// Running on the backend.
    Execute,
    /// Delivering the result to the query's handle.
    Resolve,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] =
        [Stage::Queue, Stage::Compile, Stage::Plan, Stage::Batch, Stage::Execute, Stage::Resolve];

    /// The stage's stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Compile => "compile",
            Stage::Plan => "plan",
            Stage::Batch => "batch",
            Stage::Execute => "execute",
            Stage::Resolve => "resolve",
        }
    }

    /// The stage's index into [`QuerySpan::stages_ns`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One query's trip through the service: where the time went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuerySpan {
    /// Nanoseconds spent in each stage, indexed by [`Stage::index`].
    pub stages_ns: [u64; 6],
}

impl QuerySpan {
    /// Nanoseconds spent in `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages_ns[stage.index()]
    }

    /// Records a duration for `stage` (accumulating, in case a stage is
    /// entered more than once).
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.stages_ns[stage.index()] =
            self.stages_ns[stage.index()].saturating_add(elapsed.as_nanos() as u64);
    }

    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stages_ns.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_index_in_pipeline_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::Queue.name(), "queue");
        assert_eq!(Stage::Resolve.name(), "resolve");
    }

    #[test]
    fn spans_accumulate_and_total() {
        let mut span = QuerySpan::default();
        span.record(Stage::Queue, Duration::from_nanos(100));
        span.record(Stage::Queue, Duration::from_nanos(50));
        span.record(Stage::Execute, Duration::from_micros(2));
        assert_eq!(span.stage_ns(Stage::Queue), 150);
        assert_eq!(span.stage_ns(Stage::Execute), 2000);
        assert_eq!(span.total_ns(), 2150);
    }
}
