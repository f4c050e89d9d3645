//! One spelling for backend construction: [`BackendSpec`].
//!
//! `BackendSpec` is the one value that parses from and displays as the
//! stable labels (`cycle`, `fast-serial`, `tiled`), builds the matching
//! [`Executor`], and is `Copy`/`Hash` so services can key per-query routing
//! on it.
//!
//! ```
//! use sam_exec::BackendSpec;
//!
//! let spec: BackendSpec = "tiled".parse().unwrap();
//! assert_eq!(spec, BackendSpec::Tiled);
//! assert_eq!(spec.to_string(), "tiled");
//! // The label matches what `Execution::backend` reports for its runs.
//! assert_eq!(spec.build().name(), spec.label());
//! ```

use crate::{CycleBackend, Executor, FastBackend, TiledBackend};
use std::fmt;
use std::str::FromStr;

/// Which executor backend to construct, in the one stable spelling shared
/// by `samprof --backend`, the `sam-serve` per-query routing and the
/// equivalence suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSpec {
    /// The cycle-approximate simulator backend (`cycle`).
    Cycle,
    /// The fast functional backend (`fast-serial`, the default).
    #[default]
    FastSerial,
    /// The finite-memory tiled backend (`tiled`) at the default
    /// `MemoryConfig`; hand [`crate::ExecRequest::executor`] a
    /// [`TiledBackend`] for any other budget.
    Tiled,
}

/// A backend label [`BackendSpec::from_str`] could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The rejected label.
    pub label: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown backend `{}` (expected cycle, fast-serial or tiled)", self.label)
    }
}

impl std::error::Error for ParseBackendError {}

impl BackendSpec {
    /// Frozen for `sambench`, which only a `[benchmark]` PR may edit and
    /// which still calls this as the constructor of a variant that no
    /// longer exists (ROADMAP item 1(e) deletes both): a query runs on one
    /// thread, so any worker count is [`BackendSpec::FastSerial`].
    #[doc(hidden)]
    #[allow(non_snake_case)]
    pub fn FastThreads(_workers: usize) -> BackendSpec {
        BackendSpec::FastSerial
    }

    /// The canonical backend set, one spec per stable label — what
    /// equivalence-style sweeps iterate.
    pub fn all() -> [BackendSpec; 3] {
        [BackendSpec::Cycle, BackendSpec::FastSerial, BackendSpec::Tiled]
    }

    /// The stable backend label, exactly as [`crate::Execution::backend`]
    /// reports it for runs of this backend.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Cycle => "cycle",
            BackendSpec::FastSerial => "fast-serial",
            BackendSpec::Tiled => "tiled",
        }
    }

    /// Builds the executor this spec names, with default hardware
    /// parameters for the tiled backend.
    pub fn build(&self) -> Box<dyn Executor> {
        match self {
            BackendSpec::Cycle => Box::new(CycleBackend),
            BackendSpec::FastSerial => Box::new(FastBackend::new()),
            BackendSpec::Tiled => Box::new(TiledBackend::default()),
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for BackendSpec {
    type Err = ParseBackendError;

    /// Parses exactly the stable labels `cycle`, `fast-serial` and `tiled`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendSpec::all()
            .into_iter()
            .find(|spec| spec.label() == s)
            .ok_or_else(|| ParseBackendError { label: s.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_labels_round_trip() {
        for spec in BackendSpec::all() {
            let text = spec.to_string();
            let parsed: BackendSpec = text.parse().unwrap();
            assert_eq!(parsed, spec, "label `{text}` must round-trip");
            assert_eq!(spec.build().name(), spec.label());
        }
        // The frozen constructor is not a fourth spec.
        assert_eq!(BackendSpec::FastThreads(2), BackendSpec::FastSerial);
    }

    #[test]
    fn unknown_labels_are_rejected_with_the_offender() {
        let err = "warp-drive".parse::<BackendSpec>().unwrap_err();
        assert_eq!(err.label, "warp-drive");
        assert!(err.to_string().contains("warp-drive"));
        // The thread-count labels and the old `samprof` spellings went with
        // the work-stealing backend they selected.
        for gone in ["fast-threads:4", "fast-threads", "threads4", "threads", "serial", "threadsx"] {
            assert_eq!(gone.parse::<BackendSpec>(), Err(ParseBackendError { label: gone.to_string() }));
        }
    }
}
