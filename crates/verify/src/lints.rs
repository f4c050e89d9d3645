//! Graph lints: structurally legal graphs with shapes the verifier
//! considers suspicious. All lints fire at [`Severity::Warning`].
//!
//! [`Severity::Warning`]: crate::Severity

use crate::analysis::{Analysis, PortRef, StreamType};
use crate::diag::{Diagnostic, Report, Rule};
use sam_core::graph::{NodeId, NodeKind, SamGraph};

/// Fan-out a planned fork replicates without complaint; anything wider
/// should be restructured as a broadcast (the widest hand-written catalog
/// kernel forks a port three ways).
pub const MAX_FORK_FANOUT: usize = 3;

/// Runs every lint over a completed analysis, appending findings to
/// `report`. Lints need the resolved topology, so they are skipped when
/// the graph has a data cycle.
pub fn run(graph: &SamGraph, analysis: &Analysis, report: &mut Report) {
    if !analysis.acyclic() {
        return;
    }
    let nodes = graph.nodes();
    let n = nodes.len();

    // Backward reachability from the writers: a node none of whose streams
    // contribute to any writer is dead weight.
    let mut live = vec![false; n];
    let mut stack: Vec<NodeId> =
        (0..n).filter(|&i| matches!(nodes[i], NodeKind::LevelWriter { .. })).map(NodeId).collect();
    for w in &stack {
        live[w.0] = true;
    }
    while let Some(u) = stack.pop() {
        for src in analysis.inputs_of(u).iter().flatten() {
            if !live[src.node.0] {
                live[src.node.0] = true;
                stack.push(src.node);
            }
        }
    }
    for (i, &alive) in live.iter().enumerate() {
        if !alive {
            report.push(
                Diagnostic::new(
                    Rule::DeadNode,
                    format!(
                        "`{}` reaches no writer; its work is computed and discarded",
                        graph.node_label(NodeId(i))
                    ),
                )
                .at(i, graph.node_label(NodeId(i))),
            );
        }
    }

    for i in 0..n {
        if !live[i] {
            continue;
        }
        for (port, conns) in analysis.consumers_of(NodeId(i)).iter().enumerate() {
            // A live node discarding a computed value stream.
            if conns.is_empty()
                && analysis.stream_type(PortRef { node: NodeId(i), port }) == Some(&StreamType::Val)
                && !matches!(
                    nodes[i],
                    NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter
                )
            {
                report.push(
                    Diagnostic::new(
                        Rule::UnusedOutput,
                        format!(
                            "value output port {port} of `{}` has no consumer; the computed \
                             values are discarded",
                            graph.node_label(NodeId(i))
                        ),
                    )
                    .at(i, graph.node_label(NodeId(i)))
                    .on_port(port),
                );
            }
            // Fan-out wider than a fork comfortably replicates.
            if conns.len() > MAX_FORK_FANOUT {
                report.push(
                    Diagnostic::new(
                        Rule::ForkShouldBroadcast,
                        format!(
                            "output port {port} of `{}` fans out to {} consumers; a fork \
                             replicates every token per consumer — restructure as a broadcast",
                            graph.node_label(NodeId(i)),
                            conns.len()
                        ),
                    )
                    .at(i, graph.node_label(NodeId(i)))
                    .on_port(port),
                );
            }
        }
    }

    // A level writer of another tensor than the values writer: the output
    // is the values writer's tensor, which leaves that level out.
    let writers = |vals: bool| {
        nodes.iter().enumerate().filter_map(move |(i, kind)| match kind {
            NodeKind::LevelWriter { tensor, vals: v, .. } if *v == vals => Some((i, tensor)),
            _ => None,
        })
    };
    if let [(_, output)] = writers(true).collect::<Vec<_>>()[..] {
        for (i, tensor) in writers(false).filter(|(_, tensor)| *tensor != output) {
            let label = graph.node_label(NodeId(i));
            let message = format!(
                "`{label}` writes a level of `{tensor}`, but the output is `{output}`, the tensor the \
                 values go to, and leaves that level out"
            );
            report.push(Diagnostic::new(Rule::ForeignLevelWriter, message).at(i, label));
        }
    }

    // Missing skip edges, mirroring the heuristic in `custard::lower_exec`:
    // a binary intersection whose two operands come straight from scanners
    // of skewed density (one dense, one compressed) gallops in O(1) on the
    // dense side — but only if the Section 4.2 feedback lanes are wired.
    for i in (0..n).map(NodeId) {
        if !matches!(nodes[i.0], NodeKind::Intersecter { .. }) {
            continue;
        }
        if analysis.skip_lanes().iter().any(|l| l.intersecter == i) {
            continue;
        }
        // The heuristic fires only when the lanes would be legal (each
        // operand has a private scanner), and only on skewed density.
        let (Some(s0), Some(s1)) =
            (analysis.private_scanner(graph, i, 0), analysis.private_scanner(graph, i, 1))
        else {
            continue;
        };
        let compressed = |s: NodeId| matches!(nodes[s.0], NodeKind::LevelScanner { compressed: true, .. });
        if compressed(s0) != compressed(s1) {
            report.push(
                Diagnostic::new(
                    Rule::MissingSkipEdge,
                    format!(
                        "`{}` intersects a compressed level with a dense one but has no \
                         coordinate-skip lanes; `custard::lower_exec` would wire them and \
                         enable galloping",
                        graph.node_label(i)
                    ),
                )
                .at(i.0, graph.node_label(i)),
            );
        }
    }
}
