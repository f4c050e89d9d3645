//! The resident operand corpus: [`TensorStore`].
//!
//! A service's tensors are loaded once and then served to every query:
//! the store keeps raw COO operands by name and materializes [`Tensor`]s
//! lazily, in whatever format a query binds — building the level structure
//! for one `(stored tensor, bound name, format)` combination exactly once,
//! behind an [`Arc`] that every subsequent query shares. A lookup builds no
//! key: each stored operand keeps its own materializations, found by
//! comparing the bound name and the [`TensorFormat`] value in place.

use sam_tensor::{CooTensor, Tensor, TensorFormat};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Counters over [`TensorStore::materialize`]: how often level structures
/// were actually built versus served from the cache, and the wall time the
/// builds cost. Feeds the service telemetry's store gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializeStats {
    /// Level structures built from COO.
    pub builds: u64,
    /// Materializations served from the cache.
    pub hits: u64,
    /// Total nanoseconds spent inside the builds.
    pub build_ns: u64,
}

/// A named, immutable corpus of operands with lazy per-format
/// materialization. See the module docs.
#[derive(Debug, Default)]
pub struct TensorStore {
    coos: BTreeMap<String, Stored>,
    builds: AtomicU64,
    build_hits: AtomicU64,
    build_ns: AtomicU64,
}

/// One stored operand and the tensors built from it so far, each under the
/// name it was bound as and in its format.
#[derive(Debug)]
struct Stored {
    coo: Arc<CooTensor>,
    built: Mutex<Vec<(String, TensorFormat, Arc<Tensor>)>>,
}

impl TensorStore {
    /// An empty store.
    pub fn new() -> TensorStore {
        TensorStore::default()
    }

    /// Adds (or replaces) a raw COO operand under `name`.
    pub fn insert(&mut self, name: &str, coo: CooTensor) -> &mut Self {
        self.coos.insert(name.to_string(), Stored { coo: Arc::new(coo), built: Mutex::default() });
        self
    }

    /// The raw COO operand stored under `name`.
    pub fn coo(&self, name: &str) -> Option<&Arc<CooTensor>> {
        self.coos.get(name).map(|stored| &stored.coo)
    }

    /// Stored tensor names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.coos.keys().map(String::as_str)
    }

    /// Number of stored operands.
    pub fn len(&self) -> usize {
        self.coos.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.coos.is_empty()
    }

    /// The stored operand `stored`, materialized as a [`Tensor`] named
    /// `bound` in `format` — built once per combination, shared ever after.
    /// Returns `None` when `stored` is not in the corpus.
    pub fn materialize(&self, stored: &str, bound: &str, format: &TensorFormat) -> Option<Arc<Tensor>> {
        let Stored { coo, built } = self.coos.get(stored)?;
        // The list is only pushed to after the build has returned, so a
        // build that panicked left it valid: a poisoned guard is recovered.
        let mut built = built.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, tensor)) = built.iter().find(|(name, f, _)| name == bound && f == format) {
            self.build_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(tensor));
        }
        let started = Instant::now();
        let tensor = Arc::new(Tensor::from_coo(bound, coo, format.clone()));
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.build_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        built.push((bound.to_string(), format.clone(), Arc::clone(&tensor)));
        Some(tensor)
    }

    /// Build-versus-hit counters over [`TensorStore::materialize`].
    pub fn materialize_stats(&self) -> MaterializeStats {
        MaterializeStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.build_hits.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_tensor::synth;

    #[test]
    fn materialization_is_cached_per_name_and_format() {
        let mut store = TensorStore::new();
        store.insert("B", synth::random_matrix_sparsity(10, 8, 0.8, 1));
        let a = store.materialize("B", "B", &TensorFormat::dcsr()).unwrap();
        let b = store.materialize("B", "B", &TensorFormat::dcsr()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.materialize_stats().builds, 1);
        let c = store.materialize("B", "B", &TensorFormat::csr()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let d = store.materialize("B", "B2", &TensorFormat::dcsr()).unwrap();
        assert_eq!(d.name(), "B2", "bound name is baked into the tensor");
        assert!(store.materialize("missing", "m", &TensorFormat::dcsr()).is_none());
        let stats = store.materialize_stats();
        assert_eq!((stats.builds, stats.hits), (3, 1));
        assert!(stats.build_ns > 0, "builds must accumulate wall time");
    }

    #[test]
    fn table3_matrices_load_from_the_catalog() {
        let mut store = TensorStore::new();
        store.insert("relat3", sam_tensor::suitesparse::find("relat3").unwrap().instantiate(7));
        assert!(store.coo("not-a-matrix").is_none());
        let coo = store.coo("relat3").unwrap();
        assert_eq!(coo.shape(), &[8, 5]);
        assert_eq!(store.len(), 1);
    }
}
