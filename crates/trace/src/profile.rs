//! The execution profile: the per-node rollup.

use crate::counts::TokenCounts;
use sam_sim::SimToken;
use std::fmt::Write as _;

/// Per-node measurements for one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeProfile {
    /// The node's index in the planned graph.
    pub index: usize,
    /// The node's human-readable label (e.g. `intersect(j: B,C)`).
    pub label: String,
    /// Tokens the node emitted, split by token type.
    pub tokens: TokenCounts,
    /// How many times the node was executed: tile tuples on the tiled
    /// backend, one per run on the fast backend, and on the cycle backend
    /// the ticks the simulator ran the node's block — a block is not ticked
    /// while it is stalled on a channel, so ticks over the run's cycles is
    /// the share of the run the node was not waiting (a root has no block
    /// and reports zero).
    pub invocations: u64,
    /// Wall time spent computing, nanoseconds. No backend blocks a node
    /// on its streams (a stored stream is complete before its reader
    /// starts), so this is also the node's total live time. A level
    /// scanner the fast backend fused into its intersecter, and a node it
    /// evaluated inside an intersecter's fusion region, report zero: their
    /// work is part of the intersecter's.
    pub busy_ns: u64,
}

impl NodeProfile {
    /// Total wall time the node was live, nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// Frozen for `sambench`, which only a `[benchmark]` PR may edit and which
/// still reads these fields off [`ExecProfile::workers`]: the per-worker
/// counters of the work-stealing backend deleted in PR 21. Nothing
/// constructs one (ROADMAP item 1(e) deletes the struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// The worker's index (0 is the driving thread).
    pub index: usize,
    /// Tasks this worker executed (its own plus stolen ones).
    pub tasks: u64,
    /// Tasks this worker stole from another worker's queue.
    pub steals: u64,
    /// Wall time this worker spent executing tasks, nanoseconds.
    pub busy_ns: u64,
}

/// The rollup of one traced execution, surfaced as `Execution::profile`.
///
/// ```
/// use sam_trace::{ExecProfile, NodeProfile};
///
/// let profile = ExecProfile {
///     nodes: vec![
///         NodeProfile { index: 0, label: "scan B0".into(), busy_ns: 100, ..Default::default() },
///         NodeProfile { index: 1, label: "reduce".into(), busy_ns: 70, ..Default::default() },
///     ],
///     ..Default::default()
/// };
/// // The critical path is the longest-lived node.
/// assert_eq!(profile.critical_path_ns(), 100);
/// assert_eq!(profile.ranked_nodes()[0].label, "scan B0");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecProfile {
    /// Per-node breakdown, in planned-graph node order.
    pub nodes: Vec<NodeProfile>,
    /// Always empty: frozen with [`WorkerProfile`] so `sambench` compiles.
    pub workers: Vec<WorkerProfile>,
}

impl ExecProfile {
    /// Critical-path estimate: the wall time of the longest-lived node.
    /// The fast backends evaluate nodes one after another, so this names
    /// the node worth optimizing rather than a bound on the run.
    pub fn critical_path_ns(&self) -> u64 {
        self.nodes.iter().map(NodeProfile::wall_ns).max().unwrap_or(0)
    }

    /// Total tokens over every node.
    pub fn total_tokens(&self) -> u64 {
        self.nodes.iter().map(|n| n.tokens.total()).sum()
    }

    /// Nodes ranked busiest first (token volume as the tie-breaker) — the
    /// order the `samprof` table uses.
    pub fn ranked_nodes(&self) -> Vec<&NodeProfile> {
        let mut nodes: Vec<&NodeProfile> = self.nodes.iter().collect();
        nodes.sort_by_key(|n| std::cmp::Reverse((n.busy_ns, n.tokens.total())));
        nodes
    }

    /// Renders the ranked per-node time/token table — the body of
    /// `samprof`'s report. `kB` is the bytes of the tokens a node emitted
    /// ([`SimToken`]s, stored or sent on channels); the nodes listed in
    /// `fused` — a fast walk's fused scanners, and the fusion-region nodes
    /// nobody outside the region reads — had their streams counted, never
    /// stored, and show `-`. The nodes listed in `intersecters` also get their fiber
    /// pairs (stop tokens / 3: an intersecter closes each pair with one stop
    /// on each of its three outputs) and the busy time per pair.
    pub fn stall_table(&self, intersecters: &[usize], fused: &[usize]) -> String {
        let mut out = String::new();
        let label_w = self
            .nodes
            .iter()
            .map(|n| n.label.len() + 4)
            .chain(std::iter::once("node".len()))
            .max()
            .unwrap_or(4);
        let _ = writeln!(
            out,
            "{:<label_w$} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>7} {:>12} {:>8} {:>8}",
            "node",
            "tokens",
            "kB",
            "val",
            "crd",
            "ref",
            "stop",
            "skip",
            "invocs",
            "busy_us",
            "pairs",
            "ns/pair",
        );
        for n in self.ranked_nodes() {
            let label = format!("n{}:{}", n.index, n.label);
            let bytes = n.tokens.total() * std::mem::size_of::<SimToken>() as u64;
            let kb = if fused.contains(&n.index) {
                "-".to_string()
            } else {
                format!("{:.1}", bytes as f64 / 1024.0)
            };
            let pairs = intersecters.contains(&n.index).then_some(n.tokens.stop / 3);
            let (pairs, per_pair) = match pairs {
                Some(p) => (p.to_string(), format!("{:.1}", n.busy_ns as f64 / p.max(1) as f64)),
                None => ("-".to_string(), "-".to_string()),
            };
            let _ = writeln!(
                out,
                "{:<label_w$} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>7} {:>12.1} {:>8} {:>8}",
                label,
                n.tokens.total(),
                kb,
                n.tokens.val,
                n.tokens.crd,
                n.tokens.refs,
                n.tokens.stop,
                n.tokens.skip,
                n.invocations,
                n.busy_ns as f64 / 1e3,
                pairs,
                per_pair,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(index: usize, label: &str, busy: u64, crd: u64) -> NodeProfile {
        NodeProfile {
            index,
            label: label.to_string(),
            tokens: TokenCounts { crd, ..TokenCounts::default() },
            invocations: 1,
            busy_ns: busy,
        }
    }

    #[test]
    fn critical_path_is_max_node_wall_time() {
        let p = ExecProfile { nodes: vec![node(0, "a", 15, 2), node(1, "b", 41, 3)], ..Default::default() };
        assert_eq!(p.critical_path_ns(), 41);
        assert_eq!(p.total_tokens(), 5);
    }

    #[test]
    fn ranking_puts_busiest_first() {
        let p =
            ExecProfile { nodes: vec![node(0, "idle", 1, 1), node(1, "busy", 100, 1)], ..Default::default() };
        let ranked = p.ranked_nodes();
        assert_eq!(ranked[0].label, "busy");
        assert_eq!(ranked[1].label, "idle");
    }

    #[test]
    fn stall_table_lists_every_node() {
        let p = ExecProfile { nodes: vec![node(3, "intersect(j: B,C)", 10, 7)], ..Default::default() };
        let table = p.stall_table(&[], &[]);
        assert!(table.contains("n3:intersect(j: B,C)"));
        assert!(table.contains("busy_us"));
    }

    #[test]
    fn intersecters_get_fiber_pairs_and_time_per_pair() {
        let mut isect = node(3, "intersect(j: B,C)", 1200, 7);
        isect.tokens.stop = 12;
        let p = ExecProfile { nodes: vec![isect, node(4, "scan B1", 50, 9)], ..Default::default() };
        let table = p.stall_table(&[3], &[]);
        let row = |label: &str| table.lines().find(|l| l.starts_with(label)).map(str::split_whitespace);
        let isect: Vec<&str> = row("n3:").into_iter().flatten().collect();
        assert_eq!(isect[isect.len() - 2..], ["4", "300.0"], "12 stops are 4 pairs of 300 ns");
        let scan: Vec<&str> = row("n4:").into_iter().flatten().collect();
        assert_eq!(scan[scan.len() - 2..], ["-", "-"], "only intersecters count pairs");
    }

    #[test]
    fn every_stored_node_gets_its_kilobytes_and_a_fused_scanner_none() {
        let p = ExecProfile {
            nodes: vec![node(3, "intersect", 1200, 128), node(4, "scan", 50, 64)],
            ..Default::default()
        };
        let table = p.stall_table(&[3], &[4]);
        // The third column of the row that starts with `first`.
        let kb = |first: &str| {
            let row = table.lines().find(|l| l.starts_with(first)).map(str::split_whitespace);
            row.into_iter().flatten().nth(2).map(str::to_string)
        };
        assert_eq!(kb("node").as_deref(), Some("kB"));
        assert_eq!(kb("n3:").as_deref(), Some("2.0"), "128 tokens of 16 bytes");
        assert_eq!(kb("n4:").as_deref(), Some("-"), "a fused scanner stores nothing");
    }

    #[test]
    fn empty_profile_renders_header_only() {
        let p = ExecProfile::default();
        assert_eq!(p.critical_path_ns(), 0);
        assert!(p.stall_table(&[], &[]).contains("node"));
    }
}
