//! Per-layer metrics of a traced run: what the spans and the values the
//! library calls return (`Execution`, `ExecProfile`, `MetricsSnapshot`,
//! `PlanCacheStats`) add up to.

use crate::corpus::LIST;
use crate::engine::{QueryResult, State};
use crate::probe::Tracer;
use crate::stats::median;
use sam_core::graph::{NodeKind, SamGraph};
use sam_exec::{PlanCacheStats, Stage};
use sam_sim::payload::SimToken;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Primitive classes of `exec.node_*.<class>`. Root and constant sources
/// belong to none: their tokens count toward `exec.tokens.*` only.
pub const CLASSES: [&str; 10] =
    ["scan", "repeat", "intersect", "union", "array", "alu", "reduce", "drop", "locate", "write"];

fn class_of(kind: &NodeKind) -> Option<usize> {
    let name = match kind {
        NodeKind::LevelScanner { .. } => "scan",
        NodeKind::Repeater { .. } => "repeat",
        NodeKind::Intersecter { .. } => "intersect",
        NodeKind::Unioner { .. } => "union",
        NodeKind::Array { .. } => "array",
        NodeKind::Alu { .. } => "alu",
        NodeKind::Reducer { .. } => "reduce",
        NodeKind::CoordDropper { .. } => "drop",
        NodeKind::Locator { .. } => "locate",
        NodeKind::LevelWriter { .. } => "write",
        NodeKind::Root { .. }
        | NodeKind::ConstVal { .. }
        | NodeKind::Parallelizer
        | NodeKind::Serializer
        | NodeKind::BitvectorConverter => return None,
    };
    CLASSES.iter().position(|c| *c == name)
}

/// Sums over the traced rounds. Every round runs the same queries on the
/// same operands, so a count divided by `rounds` is that round's exact count.
#[derive(Debug, Default)]
pub struct Layers {
    pub rounds: u64,
    queries: u64,
    run_ns: u64,
    tokens: u64,
    /// Per [`LIST`] kernel: run times in ms, and tokens of its last run.
    kernel_run_ms: [Vec<f64>; 7],
    kernel_tokens: [u64; 7],
    control_tokens: u64,
    profiled_tokens: u64,
    class_tokens: [u64; 10],
    class_ns: [u64; 10],
    /// Run time of the profiled runs, and the part their nodes account for.
    profiled_run_ns: u64,
    node_wall_ns: u64,
    steal_tasks: u64,
    steal_steals: u64,
    worker_busy_ns: u64,
    worker_capacity_ns: u64,
    cycles: u64,
    sim_run_ns: u64,
    sim_blocks: u64,
    sim_channels: u64,
    sim_tokens: u64,
    tiles_visited: u64,
    tiles_skipped: u64,
    tiles_executed: u64,
    tiles_spills: u64,
    tiles_dram_bytes: u64,
    tiles_llb_peak_bytes: u64,
    tiled_run_ns: u64,
}

impl Layers {
    pub fn observe(&mut self, kernel_id: &str, graph: &SamGraph, result: &QueryResult) {
        self.queries += 1;
        let Ok(run) = &result.run else { return };
        self.run_ns += result.run_ns;
        self.tokens += run.tokens;
        if let Some(k) = LIST.iter().position(|k| k.id == kernel_id) {
            self.kernel_run_ms[k].push(result.run_ns as f64 / 1e6);
            self.kernel_tokens[k] = run.tokens;
        }
        if let Some(profile) = &run.profile {
            self.profiled_run_ns += result.run_ns;
            for node in &profile.nodes {
                let t = &node.tokens;
                self.control_tokens += t.stop + t.empty + t.done;
                self.profiled_tokens += t.total();
                self.node_wall_ns += node.wall_ns();
                if let Some(class) = graph.nodes().get(node.index).and_then(class_of) {
                    self.class_tokens[class] += t.total();
                    self.class_ns[class] += node.wall_ns();
                }
            }
            for worker in &profile.workers {
                self.steal_tasks += worker.tasks;
                self.steal_steals += worker.steals;
                self.worker_busy_ns += worker.busy_ns;
                self.worker_capacity_ns += result.run_ns;
            }
        }
        if run.backend == "cycle" {
            self.cycles += run.cycles.unwrap_or(0);
            self.sim_run_ns += result.run_ns;
            self.sim_blocks += run.blocks as u64;
            self.sim_channels += run.channels as u64;
            self.sim_tokens += run.tokens;
        }
        if let Some(memory) = &run.memory {
            self.tiles_visited += memory.tiles_visited;
            self.tiles_skipped += memory.tiles_skipped;
            self.tiles_executed += memory.tiles_executed;
            self.tiles_spills += memory.spill_events;
            self.tiles_dram_bytes += memory.dram_bytes;
            self.tiles_llb_peak_bytes = self.tiles_llb_peak_bytes.max(memory.llb_peak_bytes);
            self.tiled_run_ns += result.run_ns;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the traced phase saw beside the spans and the [`Layers`] sums.
#[derive(Debug)]
pub struct TracedPhase {
    pub round_ms_p50: f64,
    /// The same workload's untraced rounds, run first in the same process.
    pub untraced_round_ms_p50: f64,
    pub query_us_p50: f64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    /// Minor page faults and CPU time the kernel charged the process.
    pub minor_faults: u64,
    pub user_ticks: u64,
    pub system_ticks: u64,
    /// The global plan cache over the traced rounds (one-shot workloads).
    pub plan_cache: PlanCacheStats,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// metric of a layer the workload never enters is zero.
pub fn per_layer(state: &State, tr: &Tracer, layers: &Layers, phase: &TracedPhase) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    let rounds = layers.rounds.max(1) as f64;
    let per_round = |sum: u64| sum as f64 / rounds;
    let median_us = |span: &str| median(&mut tr.durations(span)) / 1e3;

    put("custard.parse_us", median_us("custard.parse"), "us");
    put("custard.lower_us", median_us("custard.lower"), "us");
    let graphs = state.prepared.iter().map(|p| &p.kernel.graph);
    put("custard.graph_nodes", graphs.clone().map(|g| g.nodes().len()).sum::<usize>() as f64, "count");
    put("custard.graph_edges", graphs.map(|g| g.edges().len()).sum::<usize>() as f64, "count");

    put("verify.verify_us", median_us("verify.verify"), "us");
    put("verify.diagnostics", state.diagnostics as f64, "count");

    put("tensor.materialize_us", median_us("tensor.materialize"), "us");
    let kernel_nnz: Vec<usize> = state
        .corpus
        .kernels
        .iter()
        .map(|k| k.operands().iter().map(|name| state.corpus.tensors[name].nnz()).sum())
        .collect();
    let (mut materialize_ns, mut materialized_nnz) = (0u64, 0usize);
    for span in tr.spans().iter().filter(|s| s.name == "tensor.materialize") {
        materialize_ns += span.dur_ns();
        materialized_nnz += kernel_nnz[usize::from(span.kernel)];
    }
    put("tensor.materialize_ns_per_nnz", ratio(materialize_ns as f64, materialized_nnz as f64), "ns");
    put("tensor.corpus_nnz", state.corpus.nnz() as f64, "count");

    let service = state.service().map(|s| (s.metrics_snapshot(), s.plan_stats()));
    put("exec.plan_miss_us", median_us("exec.plan_miss"), "us");
    put("exec.plan_hit_us", median_us("exec.plan_hit"), "us");
    let plan_cache = service.as_ref().map_or(phase.plan_cache, |(_, plans)| *plans);
    put("exec.plan_cache_hits", plan_cache.hits as f64, "count");
    put("exec.plan_cache_misses", plan_cache.misses as f64, "count");
    put("exec.plan_channels", state.plans.iter().map(|p| p.channels().len()).sum::<usize>() as f64, "count");
    put("exec.plan_forks", state.plans.iter().map(|p| p.fork_count()).sum::<usize>() as f64, "count");

    for (k, kernel) in LIST.iter().enumerate() {
        put(&format!("exec.run_ms.{}", kernel.id), median(&mut layers.kernel_run_ms[k].clone()), "ms");
    }
    for (k, kernel) in LIST.iter().enumerate() {
        put(&format!("exec.tokens.{}", kernel.id), layers.kernel_tokens[k] as f64, "count");
    }
    put("exec.ns_per_token", ratio(layers.run_ns as f64, layers.tokens as f64), "ns");
    put("exec.token_bytes", std::mem::size_of::<SimToken>() as f64, "B");
    put(
        "exec.control_token_frac",
        ratio(layers.control_tokens as f64, layers.profiled_tokens as f64),
        "ratio",
    );
    for (c, class) in CLASSES.iter().enumerate() {
        let ns_per_token = ratio(layers.class_ns[c] as f64, layers.class_tokens[c] as f64);
        put(&format!("exec.node_ns_per_token.{class}"), ns_per_token, "ns");
    }
    for (c, class) in CLASSES.iter().enumerate() {
        put(&format!("exec.node_tokens.{class}"), per_round(layers.class_tokens[c]), "count");
    }
    let residual_ns = layers.profiled_run_ns as f64 - layers.node_wall_ns as f64;
    put("exec.assemble_residual_ms", residual_ns / rounds / 1e6, "ms");
    put("exec.allocs_per_query", ratio(phase.alloc_calls as f64, layers.queries as f64), "count");
    put("exec.alloc_mb_per_query", ratio(phase.alloc_bytes as f64 / 1e6, layers.queries as f64), "MB");
    put("exec.minor_faults_per_query", ratio(phase.minor_faults as f64, layers.queries as f64), "count");
    let cpu_ticks = phase.user_ticks + phase.system_ticks;
    put("exec.system_time_frac", ratio(phase.system_ticks as f64, cpu_ticks as f64), "ratio");

    put("steal.tasks", per_round(layers.steal_tasks), "count");
    put("steal.steals", per_round(layers.steal_steals), "count");
    put(
        "steal.worker_busy_frac",
        ratio(layers.worker_busy_ns as f64, layers.worker_capacity_ns as f64),
        "ratio",
    );

    put("sim.cycles", per_round(layers.cycles), "count");
    put("sim.host_ns_per_cycle", ratio(layers.sim_run_ns as f64, layers.cycles as f64), "ns");
    put("sim.blocks", per_round(layers.sim_blocks), "count");
    put("sim.channels", per_round(layers.sim_channels), "count");
    put("sim.tokens", per_round(layers.sim_tokens), "count");

    put("tiles.visited", per_round(layers.tiles_visited), "count");
    put("tiles.skipped", per_round(layers.tiles_skipped), "count");
    put("tiles.executed", per_round(layers.tiles_executed), "count");
    put("tiles.skip_frac", ratio(layers.tiles_skipped as f64, layers.tiles_visited as f64), "ratio");
    put("tiles.spill_events", per_round(layers.tiles_spills), "count");
    put("tiles.dram_mb", per_round(layers.tiles_dram_bytes) / 1e6, "MB");
    put("tiles.llb_peak_mb", layers.tiles_llb_peak_bytes as f64 / 1e6, "MB");
    put(
        "tiles.us_per_executed_tile",
        ratio(layers.tiled_run_ns as f64 / 1e3, layers.tiles_executed as f64),
        "us",
    );

    let snapshot = service.map(|(snapshot, _)| snapshot);
    for stage in Stage::ALL {
        let p50_us = snapshot.as_ref().map_or(0.0, |s| s.stage(stage).p50() as f64 / 1e3);
        put(&format!("serve.{}_us_p50", stage.name()), p50_us, "us");
    }
    let serve = |f: &dyn Fn(&sam_serve::MetricsSnapshot) -> f64| snapshot.as_ref().map_or(0.0, f);
    put(
        "serve.overhead_us_p50",
        serve(&|s| phase.query_us_p50 - s.stage(Stage::Execute).p50() as f64 / 1e3),
        "us",
    );
    put("serve.mean_batch_size", serve(&|s| s.batch_size.mean()), "count");
    put("serve.same_plan_rate", serve(&|s| s.same_plan_rate), "ratio");
    put("serve.compile_hits", serve(&|s| s.compile_hits as f64), "count");
    put("serve.compile_misses", serve(&|s| s.compile_misses as f64), "count");
    put("serve.plan_hits", serve(&|s| s.plans.hits as f64), "count");
    put("serve.plan_misses", serve(&|s| s.plans.misses as f64), "count");
    put("serve.store_hits", serve(&|s| s.store.hits as f64), "count");
    put("serve.store_misses", serve(&|s| s.store.builds as f64), "count");
    put("serve.lane_depth_high_water", serve(&|s| s.lane_depth_high_water as f64), "count");
    put(
        "serve.worker_utilization",
        serve(&|s| ratio(s.workers.iter().map(|w| w.utilization).sum(), s.workers.len() as f64)),
        "ratio",
    );
    put("serve.failed", serve(&|s| s.failed as f64), "count");

    put("trace.overhead_frac", ratio(phase.round_ms_p50, phase.untraced_round_ms_p50) - 1.0, "ratio");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_executable_primitive_has_a_class() {
        let kinds = [
            NodeKind::LevelScanner { tensor: "B".into(), index: 'i', compressed: true },
            NodeKind::Repeater { tensor: "c".into(), index: 'i' },
            NodeKind::Intersecter { index: 'j' },
            NodeKind::Unioner { index: 'j' },
            NodeKind::Array { tensor: "B".into() },
            NodeKind::Alu { op: "mul".into() },
            NodeKind::Reducer { order: 0 },
            NodeKind::CoordDropper { index: 'i' },
            NodeKind::Locator { tensor: "c".into(), index: 'j' },
            NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false },
        ];
        let classes: Vec<usize> = kinds.iter().map(|k| class_of(k).expect("classed")).collect();
        assert_eq!(classes, (0..CLASSES.len()).collect::<Vec<_>>());
        assert_eq!(class_of(&NodeKind::Root { tensor: "B".into() }), None);
    }
}
