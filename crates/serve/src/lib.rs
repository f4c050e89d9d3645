//! # sam-serve
//!
//! The resident tensor service: the ROADMAP's "compile once, execute many
//! times against a resident operand corpus" layer over the SAM execution
//! stack.
//!
//! Three pieces (each with detailed module docs):
//!
//! * [`TensorStore`] — the named operand corpus, loaded once, with
//!   per-tensor format metadata and lazy, shared per-format
//!   materialization.
//! * [`Service`] — async submission: [`Service::submit`] pushes a
//!   [`Query`] onto one bounded queue and returns a [`QueryHandle`]; each
//!   of N identical workers pops the oldest query and compiles (compile
//!   cache), binds, plans (a sharded [`sam_exec::PlanCache`] of the
//!   service's own), executes and resolves it. A full queue blocks
//!   `submit`, a panicking query fails only itself, and dropping the
//!   service drains the queue first. Per-query backend selection by
//!   [`sam_exec::BackendSpec`].
//! * [`table1_workload`] — the mixed twelve-kernel Table 1 workload
//!   (integer-valued, bit-exact across backends) that `samprof --serve`
//!   and the equivalence tests share.
//! * Service telemetry — every query carries a lifecycle span
//!   (queue → compile → plan → batch → execute → resolve; `batch` is a
//!   constant 0 since the workers stopped batching) feeding latency
//!   histograms and cache and queue counters, read back through the one
//!   typed [`Service::metrics_snapshot`]; per-query `ExecProfile`s survive
//!   the service path via [`Query::traced`].
//!
//! ```
//! use sam_serve::{table1_workload, Service};
//!
//! let (store, queries) = table1_workload(42);
//! let service = Service::new(store);
//! let handles: Vec<_> =
//!     queries.into_iter().map(|w| (w.name, service.submit(w.query))).collect();
//! for (name, handle) in handles {
//!     let run = handle.wait().unwrap_or_else(|e| panic!("{name}: {e}"));
//!     assert_eq!(run.backend, "fast-serial");
//! }
//! assert_eq!(service.metrics_snapshot().completed, 12);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod service;
pub mod store;
pub mod workload;

pub use metrics::{MetricsSnapshot, WorkerTelemetry};
pub use service::{Query, QueryHandle, ServeError, Service, ServiceConfig};
pub use store::{MaterializeStats, TensorStore};
pub use workload::{table1_workload, WorkloadQuery};
