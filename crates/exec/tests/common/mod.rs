//! Shared by the suites that check fusion is invisible to the per-node
//! statistics.

use sam_core::graph::{NodeId, SamGraph};
use sam_exec::{
    CountersSink, CycleBackend, ExecError, Executor, FastBackend, FusedScan, Inputs, Plan, TiledBackend,
    TokenCounts,
};

/// Per-node token counts of one traced run, indexed by node.
fn node_counts(backend: &dyn Executor, plan: &Plan, inputs: &Inputs) -> Result<Vec<TokenCounts>, ExecError> {
    let sink = CountersSink::new();
    let profile = backend.run_traced(plan, inputs, &sink)?.profile.expect("traced runs attach a profile");
    let mut counts = vec![TokenCounts::default(); plan.graph().len()];
    for node in &profile.nodes {
        counts[node.index] = node.tokens;
    }
    Ok(counts)
}

/// Every scanner fused without a skip lane is tallied, not stored — and the
/// tally must be what the cycle backend, which runs the scanner as its own
/// block over real channels, counts for the same node. So must every node
/// the fast walk evaluates inside an intersecter's fusion region, and the
/// intersecter itself, wherever each output port has exactly one reader:
/// the cycle backend counts a stream once per channel, so it counts a
/// forked port once per reader and an unread one not at all; and it counts
/// what an intersecter's skip lanes carry, which the fast walk has no
/// channels for, as `skip`. Checked on the fast backend's walk and through the tiled
/// backend with one tile covering every operand (more tiles would repeat
/// the control tokens per tile). A scanner fused *with* a skip lane reports
/// nothing on either: how many tokens the lane saves depends on
/// cycle-level timing. Returns how many lane-free fused scanners and how
/// many region members were checked.
pub fn assert_fused_counts_match_cycle(name: &str, graph: &SamGraph, inputs: &Inputs) -> (usize, usize) {
    let plan = Plan::build(graph, inputs).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (lanes, fused): (Vec<FusedScan>, Vec<FusedScan>) =
        plan.order().iter().filter_map(|&id| plan.fused_scan(id)).partition(|f| f.skip_lane);
    let roots: Vec<_> =
        plan.order().iter().copied().filter(|&id| !plan.region_members(id).is_empty()).collect();
    let members: Vec<_> = roots.iter().flat_map(|&root| plan.region_members(root).iter().copied()).collect();
    // The intersecter's skip ports (3 and 4) stay silent on the fast walk.
    let one_reader =
        |node: &NodeId| plan.consumers_of(*node).iter().take(3).all(|readers| readers.len() == 1);
    let checked: Vec<NodeId> = roots.iter().chain(&members).copied().filter(one_reader).collect();
    let cycle =
        node_counts(&CycleBackend, &plan, inputs).unwrap_or_else(|e| panic!("{name}: cycle run failed: {e}"));
    let backends: [(&str, &dyn Executor); 2] =
        [("fast-serial", &FastBackend::new()), ("tiled, one tile", &TiledBackend::with_tile(1 << 20))];
    for (what, backend) in backends {
        let counts =
            node_counts(backend, &plan, inputs).unwrap_or_else(|e| panic!("{name}: {what} failed: {e}"));
        for f in &fused {
            assert!(cycle[f.scanner.0].total() > 0, "{name}: the cycle backend saw n{} idle", f.scanner.0);
            assert_eq!(
                counts[f.scanner.0],
                cycle[f.scanner.0],
                "{name}: fused scanner n{} ({}) on {what} disagrees with the cycle backend",
                f.scanner.0,
                plan.node_label(f.scanner)
            );
        }
        for f in &lanes {
            assert_eq!(
                counts[f.scanner.0],
                TokenCounts::default(),
                "{name}: lane scanner n{} ({}) on {what} reports tokens",
                f.scanner.0,
                plan.node_label(f.scanner)
            );
        }
        for &node in &checked {
            let want = TokenCounts { skip: 0, ..cycle[node.0] };
            assert!(want.total() > 0, "{name}: the cycle backend saw n{} idle", node.0);
            assert_eq!(
                counts[node.0],
                want,
                "{name}: region node n{} ({}) on {what} disagrees with the cycle backend",
                node.0,
                plan.node_label(node)
            );
        }
    }
    (fused.len(), members.iter().filter(|m| checked.contains(m)).count())
}
