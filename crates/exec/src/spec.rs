//! One spelling for backend construction: [`BackendSpec`].
//!
//! `BackendSpec` is the one value that parses from and displays as the
//! stable labels (`cycle`, `fast-serial`, `fast-threads:N`, `tiled`),
//! builds the matching [`Executor`], and is `Copy`/`Hash` so services can
//! key per-query routing on it — instead of every consumer spelling
//! `FastBackend::threads(n)`, `TiledBackend::with_parallelism` and
//! `samprof --backend threads4` differently.
//!
//! ```
//! use sam_exec::BackendSpec;
//!
//! let spec: BackendSpec = "fast-threads:4".parse().unwrap();
//! assert_eq!(spec, BackendSpec::FastThreads(4));
//! assert_eq!(spec.to_string(), "fast-threads:4");
//! // The label matches what `Execution::backend` reports for its runs.
//! assert_eq!(spec.label(), "fast-threads");
//! let backend = spec.build();
//! assert_eq!(backend.name(), "fast-threads");
//! ```

use crate::{CycleBackend, Executor, FastBackend, TiledBackend};
use sam_memory::MemoryConfig;
use std::fmt;
use std::str::FromStr;

/// Which executor backend to construct, in the one stable spelling shared
/// by `samprof --backend`, the `sam-serve` per-query routing and the
/// equivalence suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSpec {
    /// The cycle-approximate simulator backend (`cycle`).
    Cycle,
    /// The serial fast functional backend (`fast-serial`, the default).
    #[default]
    FastSerial,
    /// The work-stealing parallel fast backend with this many workers
    /// (`fast-threads:N`).
    FastThreads(usize),
    /// The finite-memory tiled backend (`tiled`); its [`MemoryConfig`]
    /// comes from [`BackendSpec::build_with_memory`] or defaults.
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
        write!(f, "unknown backend `{}` (expected cycle, fast-serial, fast-threads:N or tiled)", self.label)
    }
}

impl std::error::Error for ParseBackendError {}

impl BackendSpec {
    /// Worker count used when a threads label omits the `:N` suffix.
    pub const DEFAULT_THREADS: usize = 4;

    /// The canonical backend set, one spec per stable label (threads at
    /// [`BackendSpec::DEFAULT_THREADS`]) — what equivalence-style sweeps
    /// iterate.
    pub fn all() -> [BackendSpec; 4] {
        [
            BackendSpec::Cycle,
            BackendSpec::FastSerial,
            BackendSpec::FastThreads(Self::DEFAULT_THREADS),
            BackendSpec::Tiled,
        ]
    }

    /// The stable backend label, exactly as [`crate::Execution::backend`]
    /// reports it for runs of this backend (worker counts are a
    /// construction parameter, not part of the label).
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Cycle => "cycle",
            BackendSpec::FastSerial => "fast-serial",
            BackendSpec::FastThreads(_) => "fast-threads",
            BackendSpec::Tiled => "tiled",
        }
    }

    /// Builds the executor this spec names, with default hardware
    /// parameters for the tiled backend.
    pub fn build(&self) -> Box<dyn Executor> {
        self.build_with_memory(None)
    }

    /// Builds the executor this spec names; `memory` overrides the tiled
    /// backend's finite-memory budget (ignored by the other backends, which
    /// model no memory hierarchy).
    pub fn build_with_memory(&self, memory: Option<MemoryConfig>) -> Box<dyn Executor> {
        match self {
            BackendSpec::Cycle => Box::new(CycleBackend::default()),
            BackendSpec::FastSerial => Box::new(FastBackend::serial()),
            BackendSpec::FastThreads(n) => Box::new(FastBackend::threads(*n)),
            BackendSpec::Tiled => match memory {
                Some(config) => Box::new(TiledBackend::new(config)),
                None => Box::new(TiledBackend::default()),
            },
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::FastThreads(n) => write!(f, "fast-threads:{n}"),
            other => f.write_str(other.label()),
        }
    }
}

impl FromStr for BackendSpec {
    type Err = ParseBackendError;

    /// Parses the stable labels `cycle`, `fast-serial`, `fast-threads:N`
    /// and `tiled`, plus the historical `samprof` spellings (`serial`,
    /// `threads`, `threadsN`, `fast-threads`) so existing invocations keep
    /// working.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let threads = |n: &str| -> Option<BackendSpec> {
            if n.is_empty() {
                return Some(BackendSpec::FastThreads(Self::DEFAULT_THREADS));
            }
            n.parse::<usize>().ok().map(|n| BackendSpec::FastThreads(n.max(1)))
        };
        let spec = match s {
            "cycle" => Some(BackendSpec::Cycle),
            "fast-serial" | "serial" => Some(BackendSpec::FastSerial),
            "tiled" => Some(BackendSpec::Tiled),
            _ => {
                if let Some(n) = s.strip_prefix("fast-threads") {
                    threads(n.strip_prefix(':').unwrap_or(n))
                } else if let Some(n) = s.strip_prefix("threads") {
                    threads(n.strip_prefix(':').unwrap_or(n))
                } else {
                    None
                }
            }
        };
        spec.ok_or_else(|| ParseBackendError { label: s.to_string() })
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
    }

    #[test]
    fn historical_spellings_still_parse() {
        assert_eq!("serial".parse::<BackendSpec>().unwrap(), BackendSpec::FastSerial);
        assert_eq!("threads4".parse::<BackendSpec>().unwrap(), BackendSpec::FastThreads(4));
        assert_eq!("threads:2".parse::<BackendSpec>().unwrap(), BackendSpec::FastThreads(2));
        assert_eq!(
            "threads".parse::<BackendSpec>().unwrap(),
            BackendSpec::FastThreads(BackendSpec::DEFAULT_THREADS)
        );
        assert_eq!(
            "fast-threads".parse::<BackendSpec>().unwrap(),
            BackendSpec::FastThreads(BackendSpec::DEFAULT_THREADS)
        );
        assert_eq!("fast-threads:8".parse::<BackendSpec>().unwrap(), BackendSpec::FastThreads(8));
    }

    #[test]
    fn unknown_labels_are_rejected_with_the_offender() {
        let err = "warp-drive".parse::<BackendSpec>().unwrap_err();
        assert_eq!(err.label, "warp-drive");
        assert!(err.to_string().contains("warp-drive"));
        assert!("threadsx".parse::<BackendSpec>().is_err());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!("fast-threads:0".parse::<BackendSpec>().unwrap(), BackendSpec::FastThreads(1));
    }
}
