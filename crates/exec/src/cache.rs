//! The global sharded plan cache.
//!
//! Planning a graph ([`Plan::build`]) runs the static analysis over the whole
//! topology and every tensor binding — cheap next to a cold custard
//! compile, but pure waste when the same `(expression, formats, shapes)`
//! workload executes thousands of times against a resident operand corpus.
//! This module holds one process-wide, sharded `(expression, formats,
//! shapes) → Arc<Plan>` cache with hit/miss/eviction counters:
//!
//! * A plan is cached under **everything** it reads of its inputs — the
//!   graph itself, and per bound tensor the signature the plan keeps (name,
//!   format, shape, and the value of single-element tensors: the planner
//!   resolves `ConstVal` scalars at plan time). A plan reads nothing else —
//!   not occupancy, not fiber lengths — so tensors of one shape class share
//!   a plan, and a hit is a plan *bit-identical* to a fresh one: it returns
//!   an execution indistinguishable from a fresh compile.
//! * A lookup builds no key. It hashes the graph's name and each binding's
//!   signature once, in place, and compares the request with each plan
//!   filed under that hash — its graph and the signatures it was built
//!   over — in place too, so two graphs that share a name (hand-wired
//!   variants, property-test output) never share a plan.
//! * [`PlanCache`] is the sharded LRU map. [`PlanCache::global`] is the
//!   process-wide instance the default execution path uses; services that
//!   want isolated counters (or a different capacity) construct their own.
//!   The `sam-serve` service plans through its own with
//!   [`PlanCache::get_or_plan`]. Cached or not, every plan is one
//!   [`Plan::build`], so every door accepts the same graphs and rejects
//!   with the same diagnostics.
//!
//! ```
//! use custard::graphs;
//! use sam_exec::{Inputs, PlanCache};
//! use sam_tensor::{synth, TensorFormat};
//!
//! let cache = PlanCache::new(64);
//! let graph = graphs::vec_elem_mul(true);
//! let b = synth::random_vector(64, 12, 1);
//! let inputs = Inputs::new()
//!     .coo("b", &b, TensorFormat::sparse_vec())
//!     .coo("c", &b, TensorFormat::sparse_vec());
//! let first = cache.get_or_plan(&graph, &inputs).unwrap();
//! let second = cache.get_or_plan(&graph, &inputs).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&first, &second));
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! ```

use crate::bind::Inputs;
use crate::error::PlanError;
use crate::plan::{hash_binding, Plan};
use sam_core::graph::SamGraph;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// How many independent shards a [`PlanCache`] splits its map across.
/// Submissions from many service workers hash to different shards, so the
/// cache is never one global lock.
const SHARDS: usize = 8;

/// Capacity of [`PlanCache::global`]. Generous: a plan for these graphs is
/// a few kilobytes, and eviction only has to bound pathological sweeps
/// (e.g. a caller planning one graph over thousands of operand shapes).
const GLOBAL_CAPACITY: usize = 2048;

/// The hash a plan of `graph` over `inputs` is filed under: the graph's
/// name and every binding's signature, read in place.
fn key_hash(graph: &SamGraph, inputs: &Inputs) -> u64 {
    let mut h = DefaultHasher::new();
    graph.name.hash(&mut h);
    for binding in inputs.iter() {
        hash_binding(binding, &mut h);
    }
    h.finish()
}

/// A cached plan plus its LRU clock.
struct Entry {
    plan: Arc<Plan>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    /// The plans filed under each key hash.
    map: HashMap<u64, Vec<Entry>>,
    tick: u64,
}

impl Shard {
    /// How many plans the shard holds.
    fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Drops the least recently used plan.
    fn evict_oldest(&mut self) {
        let oldest = self
            .map
            .iter()
            .flat_map(|(&hash, plans)| plans.iter().enumerate().map(move |(at, e)| (e.last_used, hash, at)))
            .min();
        if let Some((_, hash, at)) = oldest {
            if let Some(plans) = self.map.get_mut(&hash) {
                plans.swap_remove(at);
                if plans.is_empty() {
                    self.map.remove(&hash);
                }
            }
        }
    }
}

/// A snapshot of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
    /// Entries dropped to stay under capacity.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
}

impl PlanCacheStats {
    /// Hits over total lookups; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter movement since `earlier` — a per-window rate for a
    /// cache whose lifetime counters keep running. The counters are
    /// process-lifetime aggregates shared by every user of the cache, so a
    /// caller that wants "hits this second" snapshots before and after and
    /// diffs, instead of racing other users for an absolute read.
    /// Saturating, so a [`PlanCache::clear`] between
    /// snapshots yields zeros rather than wrapping; `entries` stays the
    /// current residency (it is a level, not a flow).
    pub fn delta_since(&self, earlier: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

/// A sharded, capacity-bounded `(expression, formats, shapes) → Arc<Plan>`
/// cache. See the module docs for keying semantics.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache").field("stats", &self.stats()).finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (spread across shards;
    /// clamped to at least one per shard).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache the default execution path plans through.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::new(GLOBAL_CAPACITY))
    }

    /// Locks shard `i`. The map is only touched after [`Plan::build`] has
    /// returned, so a planner panic leaves the shard valid: a poisoned guard
    /// is recovered, not propagated to every later lookup.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached plan for `graph` over `inputs`, planning and
    /// inserting on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from [`Plan::build`]; failures are never
    /// cached.
    pub fn get_or_plan(&self, graph: &SamGraph, inputs: &Inputs) -> Result<Arc<Plan>, PlanError> {
        self.lookup(graph, inputs).map(|(plan, _hit)| plan)
    }

    /// [`PlanCache::get_or_plan`] that also says whether the cache already
    /// held the plan (`true`) or this call planned it (`false`).
    ///
    /// A miss plans inside the shard lock, so however many callers race on
    /// one key, one of them plans and counts the miss and the rest hit.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from [`Plan::build`]; failures are never
    /// cached.
    fn lookup(&self, graph: &SamGraph, inputs: &Inputs) -> Result<(Arc<Plan>, bool), PlanError> {
        let hash = key_hash(graph, inputs);
        let mut s = self.lock_shard(hash as usize % self.shards.len());
        s.tick += 1;
        let tick = s.tick;
        let filed =
            s.map.get_mut(&hash).and_then(|plans| plans.iter_mut().find(|e| e.plan.plans(graph, inputs)));
        if let Some(e) = filed {
            e.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(&e.plan), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(Plan::build(graph, inputs)?);
        s.map.entry(hash).or_default().push(Entry { plan: Arc::clone(&plan), last_used: tick });
        while s.len() > self.per_shard_capacity {
            s.evict_oldest();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok((plan, false))
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: (0..self.shards.len()).map(|i| self.lock_shard(i).len()).sum(),
        }
    }

    /// Drops every cached plan and zeroes the counters (cold-start
    /// measurement support; the resident plans' `Arc`s stay valid).
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            let mut s = self.lock_shard(i);
            s.map.clear();
            s.tick = 0;
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleBackend, ExecRequest, Executor, FastBackend, TiledBackend};
    use custard::graphs;
    use sam_core::build::GraphBuilder;
    use sam_tensor::{synth, CooTensor, TensorFormat};

    fn spmv_inputs(nnz: usize, seed: u64) -> Inputs {
        let b = synth::random_matrix_sparsity(30, 20, 0.9, seed);
        let c = synth::random_vector(20, nnz, seed + 1);
        Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec())
    }

    #[test]
    fn hits_return_the_same_plan_and_count() {
        let cache = PlanCache::new(16);
        let graph = graphs::spmv();
        let inputs = spmv_inputs(12, 7);
        let a = cache.get_or_plan(&graph, &inputs).unwrap();
        let b = cache.get_or_plan(&graph, &inputs).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    fn vec_inputs(nnz: usize, seed: u64) -> Inputs {
        let b = synth::random_vector(64, nnz, seed);
        let c = synth::random_vector(64, nnz, seed + 1);
        Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec())
    }

    /// Two input sets per kernel of the same signatures and different fiber
    /// occupancy: SpMV's vector (a locator reads it), SDDMM's sparse matrix
    /// (a fusion region reads it) and MatTransMul's operands, whose two
    /// scalars are bound by name with equal values.
    fn same_signatures() -> Vec<(SamGraph, [Inputs; 2])> {
        let m = |rows, cols, sparsity, seed| synth::random_matrix_sparsity(rows, cols, sparsity, seed);
        let v = |dim, nnz, seed| synth::random_vector(dim, nnz, seed);
        let sddmm = |sparsity, seed| {
            Inputs::new()
                .coo("B", &m(9, 7, sparsity, seed), TensorFormat::dcsr())
                .coo("C", &m(9, 3, 0.0, seed + 1), TensorFormat::dense(2))
                .coo("D", &m(7, 3, 0.0, seed + 2), TensorFormat::dense(2))
        };
        let mat_trans_mul = |sparsity, nnz, seed| {
            Inputs::new()
                .coo("B", &m(8, 6, sparsity, seed), TensorFormat::dcsc())
                .coo("c", &v(8, nnz, seed + 1), TensorFormat::sparse_vec())
                .coo("d", &v(6, nnz, seed + 2), TensorFormat::sparse_vec())
                .scalar("alpha", 2.5)
                .scalar("beta", 2.5)
        };
        vec![
            (graphs::vec_elem_mul(true), [vec_inputs(4, 11), vec_inputs(40, 11)]),
            (graphs::spmv(), [spmv_inputs(3, 21), spmv_inputs(18, 23)]),
            (graphs::sddmm_coiteration(), [sddmm(0.9, 31), sddmm(0.3, 35)]),
            (graphs::mat_trans_mul(), [mat_trans_mul(0.8, 2, 41), mat_trans_mul(0.2, 5, 45)]),
        ]
    }

    #[test]
    fn occupancy_does_not_split_the_key_and_the_shared_plan_is_exact() {
        // Same shapes, formats and scalars, different fiber occupancy: a
        // plan reads none of it, so both inputs share one plan — and running
        // either input on it, on every backend, is indistinguishable from
        // planning that input afresh. A plan names each tensor by its
        // binding's position, so this also holds that the position is the
        // same tensor on every backend, in the tiles a tiled run cuts and
        // rebinds, and on an instance that kept another run's workspace.
        let (kept, tiled) = (FastBackend::new(), TiledBackend::with_tile(2));
        // `None` is a fresh fast-serial instance per run.
        let backends: [Option<&dyn Executor>; 4] = [Some(&CycleBackend), None, Some(&kept), Some(&tiled)];
        for (graph, [sparse, dense]) in same_signatures() {
            let differ = sparse.iter().zip(dense.iter()).any(|((_, a), (_, b))| a != b);
            assert!(differ, "{}: two inputs of the same signatures", graph.name);
            let cache = Arc::new(PlanCache::new(16));
            let shared = cache.get_or_plan(&graph, &sparse).unwrap();
            assert!(Arc::ptr_eq(&shared, &cache.get_or_plan(&graph, &dense).unwrap()));
            assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
            for inputs in [&sparse, &dense] {
                for backend in backends {
                    let run = |plan: Option<Arc<Plan>>| {
                        let request = ExecRequest::new(&graph, inputs);
                        let request = match backend {
                            Some(backend) => request.executor(backend),
                            None => request,
                        };
                        match plan {
                            Some(plan) => request.planned(plan),
                            None => request.uncached(),
                        }
                        .run()
                        .unwrap()
                    };
                    let (on_shared, fresh) = (run(Some(Arc::clone(&shared))), run(None));
                    let name = format!("{} on {}", graph.name, on_shared.backend);
                    assert_eq!(on_shared.output, fresh.output, "{name}");
                    assert_eq!(on_shared.vals, fresh.vals, "{name}");
                    assert_eq!(on_shared.tokens, fresh.tokens, "{name}");
                }
            }
        }
    }

    #[test]
    fn scalar_values_are_part_of_the_key() {
        // Same graph, same formats and shapes — only the baked ConstVal
        // value differs. Reusing the plan would silently compute with the
        // stale scalar.
        let mut g = GraphBuilder::new("x(i) = alpha * b(i)");
        let root = g.root("b");
        let (crd, rf) = g.scan("b", 'i', true, root);
        let v = g.array("b", rf);
        let alpha = g.scalar_source("alpha", v);
        let scaled = g.alu("mul", alpha, v);
        g.write_level("x", 'i', crd);
        g.write_vals("x", scaled);
        let graph = g.finish();

        let b = synth::random_vector(16, 5, 21);
        // Every shape the planner accepts as a scalar: `[1]` and `[1, 1]`.
        for order in [1, 2] {
            let alpha = |value: f64| {
                let coo = CooTensor::from_entries(vec![1; order], vec![(vec![0; order], value)]).unwrap();
                Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo(
                    "alpha",
                    &coo,
                    TensorFormat::dense(order),
                )
            };
            let cache = PlanCache::new(16);
            let p2 = cache.get_or_plan(&graph, &alpha(2.0)).unwrap();
            let p3 = cache.get_or_plan(&graph, &alpha(3.0)).unwrap();
            assert!(!Arc::ptr_eq(&p2, &p3));
            assert_eq!(cache.stats().misses, 2);
        }
    }

    #[test]
    fn graphs_sharing_a_name_do_not_collide() {
        let build = |mul: bool| {
            let mut g = GraphBuilder::new("same-name");
            let root = g.root("b");
            let (crd, rf) = g.scan("b", 'i', true, root);
            let v = g.array("b", rf);
            let out = g.alu(if mul { "mul" } else { "add" }, v, v);
            g.write_level("x", 'i', crd);
            g.write_vals("x", out);
            g.finish()
        };
        let b = synth::random_vector(16, 5, 31);
        let inputs = Inputs::new().coo("b", &b, TensorFormat::sparse_vec());
        let cache = PlanCache::new(16);
        cache.get_or_plan(&build(true), &inputs).unwrap();
        cache.get_or_plan(&build(false), &inputs).unwrap();
        assert_eq!(cache.stats().misses, 2, "structural fingerprint must split same-named graphs");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = PlanCache::new(1); // one entry per shard
        let graph = graphs::spmv();
        // Distinct matrix shapes → guaranteed-distinct keys. Enough of them
        // that some shard must exceed its single-entry capacity.
        let inputs_for = |rows: usize| {
            let b = synth::random_matrix_sparsity(rows, 20, 0.9, 40);
            let c = synth::random_vector(20, 12, 41);
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec())
        };
        for rows in 10..=21 {
            cache.get_or_plan(&graph, &inputs_for(rows)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 12);
        assert!(stats.evictions > 0, "12 keys into 8 single-entry shards must evict");
        assert!(stats.entries <= SHARDS);
        // Evicted keys re-plan and still work.
        cache.get_or_plan(&graph, &inputs_for(10)).unwrap();
    }

    #[test]
    fn racing_misses_on_one_key_plan_once() {
        let cache = PlanCache::new(16);
        let graph = graphs::spmv();
        let inputs = spmv_inputs(12, 81);
        let barrier = std::sync::Barrier::new(8);
        let plans: Vec<(Arc<Plan>, bool)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.lookup(&graph, &inputs).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer")).collect()
        });
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 7, 1));
        assert_eq!(plans.iter().filter(|(_, hit)| !hit).count(), 1, "exactly one racer planned");
        assert!(plans.iter().all(|(plan, _)| Arc::ptr_eq(plan, &plans[0].0)));
    }

    #[test]
    fn delta_since_isolates_a_window() {
        let cache = PlanCache::new(16);
        let graph = graphs::spmv();
        let inputs = spmv_inputs(9, 71);
        cache.get_or_plan(&graph, &inputs).unwrap(); // miss (outside window)
        let before = cache.stats();
        cache.get_or_plan(&graph, &inputs).unwrap(); // hit

        // A miss needs a different *shape*; different occupancy would hit.
        let b = synth::random_matrix_sparsity(31, 20, 0.9, 72);
        let c = synth::random_vector(20, 9, 73);
        let taller = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
        cache.get_or_plan(&graph, &taller).unwrap();
        let delta = cache.stats().delta_since(&before);
        assert_eq!((delta.hits, delta.misses, delta.evictions), (1, 1, 0));
        assert_eq!(delta.entries, 2, "entries reports current residency, not a diff");
        assert!(delta.hit_rate() > 0.49 && delta.hit_rate() < 0.51);
        // A clear between snapshots saturates to zero instead of wrapping.
        cache.clear();
        let after_clear = cache.stats().delta_since(&before);
        assert_eq!((after_clear.hits, after_clear.misses), (0, 0));
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = PlanCache::new(16);
        let graph = graphs::spmv();
        cache.get_or_plan(&graph, &spmv_inputs(5, 61)).unwrap();
        cache.clear();
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }
}
