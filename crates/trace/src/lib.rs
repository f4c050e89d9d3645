//! # sam-trace
//!
//! The observability layer of the SAM reproduction. The execution engine
//! (`sam-exec`) reduces a whole run to a handful of aggregate scalars —
//! enough for the paper's tables, not enough to say *which node* dominates
//! the run. This crate provides the measurement surface that answers that
//! question on every backend:
//!
//! * [`TraceSink`] — the hook trait the backends drive. It is designed to be
//!   zero-cost when disabled: every backend checks [`TraceSink::enabled`]
//!   once and skips all instrumentation work (timestamps, token
//!   classification) for the [`NullSink`].
//! * [`TokenCounts`] — per-node token counts split by token type
//!   (value/coordinate/reference/bitvector data plus stop/empty/done control
//!   and skip-lane traffic).
//! * [`CountersSink`] — accumulates per-node counts, invocations and wall
//!   time, and rolls them up into an [`ExecProfile`].
//! * [`ChromeTraceSink`] — everything `CountersSink` does, plus a timeline
//!   of spans exported as Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)): one
//!   `serial` track on the fast backend, one track per simulated block on
//!   the cycle backend, one `tiles` track of tile tuples on the tiled
//!   backend.
//! * [`ExecProfile`] — the rollup surfaced as `Execution::profile`:
//!   a per-node breakdown, a critical-path estimate, and a
//!   ranked per-node table ([`ExecProfile::stall_table`]) — the `samprof`
//!   binary in `sam-bench` is a thin shell around it.
//!
//! Above the single-execution layer, the crate also carries the
//! *service-level* observability surface used by `sam-serve`:
//!
//! * [`metrics`] — lock-free counters, high-water gauges and log-bucketed
//!   latency histograms (p50/p90/p99/max estimation), read back as
//!   [`HistogramSnapshot`]s.
//! * [`QuerySpan`] / [`Stage`] — per-query lifecycle attribution
//!   (queue → compile → plan → batch → execute → resolve).

#![warn(missing_docs)]

mod chrome;
mod counts;
pub mod metrics;
mod profile;
mod sink;
mod span;

pub use chrome::ChromeTraceSink;
pub use counts::TokenCounts;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use profile::{ExecProfile, NodeProfile, WorkerProfile};
pub use sink::{CountersSink, NullSink, TraceSink};
pub use span::{QuerySpan, Stage};
