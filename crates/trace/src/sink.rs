//! The trace sink trait and its counter-accumulating implementations.

use crate::counts::TokenCounts;
use crate::profile::{ExecProfile, NodeProfile};
use std::sync::Mutex;

/// The hook surface the execution backends drive while running a plan.
///
/// Implementations must be [`Sync`]: a service worker drives a sink its
/// submitter still holds. Every hook takes `&self`, so accumulating sinks
/// use interior mutability.
///
/// Backends are expected to consult [`TraceSink::enabled`] once up front and
/// skip *all* instrumentation work — timestamping, token classification —
/// when it returns `false`, which is what makes tracing zero-cost for the
/// [`NullSink`].
pub trait TraceSink: Sync {
    /// Whether the sink wants data at all. The default is `true`; only
    /// no-op sinks should override this.
    fn enabled(&self) -> bool {
        true
    }

    /// Registers a planned node and its human-readable label. Called once
    /// per node before execution starts.
    fn define_node(&self, _node: usize, _label: &str) {}

    /// Accumulates classified output tokens for a node.
    fn record_tokens(&self, _node: usize, _counts: TokenCounts) {}

    /// Accumulates node executions (e.g. one per tile tuple on the tiled
    /// backend).
    fn record_invocations(&self, _node: usize, _n: u64) {}

    /// Accumulates wall time a node spent executing, nanoseconds.
    fn record_node_wall(&self, _node: usize, _ns: u64) {}

    /// Records one timeline span on a named track (the serial walk, a
    /// simulated block, the tile sweep). Timestamps are nanoseconds relative
    /// to the start of the run.
    fn record_span(&self, _track: &str, _name: &str, _start_ns: u64, _dur_ns: u64) {}

    /// The rollup accumulated so far, for sinks that keep one. Backends
    /// call this once at the end of a traced run to populate
    /// `Execution::profile`.
    fn snapshot(&self) -> Option<ExecProfile> {
        None
    }
}

/// The disabled sink: reports [`TraceSink::enabled`]` == false` and drops
/// everything. `Executor::run` is equivalent to `run_traced` with this sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
}

#[derive(Default)]
struct NodeAcc {
    label: String,
    tokens: TokenCounts,
    invocations: u64,
    wall_ns: u64,
}

#[derive(Default)]
struct Acc {
    nodes: Vec<NodeAcc>,
}

impl Acc {
    fn node(&mut self, node: usize) -> &mut NodeAcc {
        if self.nodes.len() <= node {
            self.nodes.resize_with(node + 1, NodeAcc::default);
        }
        &mut self.nodes[node]
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(index, n)| NodeProfile {
                    index,
                    label: n.label.clone(),
                    tokens: n.tokens,
                    invocations: n.invocations,
                    busy_ns: n.wall_ns,
                })
                .collect(),
            workers: Vec::new(),
        }
    }
}

/// Accumulates per-node token counts, invocations and wall time behind a
/// mutex, and rolls them up into an [`ExecProfile`].
///
/// ```
/// use sam_trace::{CountersSink, TokenCounts, TraceSink};
///
/// let sink = CountersSink::default();
/// sink.define_node(0, "scan B0");
/// sink.record_tokens(0, TokenCounts { crd: 5, stop: 1, ..Default::default() });
/// sink.record_invocations(0, 1);
/// let profile = sink.profile();
/// assert_eq!(profile.nodes[0].label, "scan B0");
/// assert_eq!(profile.nodes[0].tokens.total(), 6);
/// ```
#[derive(Default)]
pub struct CountersSink {
    acc: Mutex<Acc>,
}

impl std::fmt::Debug for CountersSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountersSink").finish_non_exhaustive()
    }
}

impl CountersSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rollup accumulated so far.
    pub fn profile(&self) -> ExecProfile {
        self.acc.lock().expect("trace accumulator").profile()
    }
}

impl TraceSink for CountersSink {
    fn define_node(&self, node: usize, label: &str) {
        let mut acc = self.acc.lock().expect("trace accumulator");
        acc.node(node).label = label.to_string();
    }

    fn record_tokens(&self, node: usize, counts: TokenCounts) {
        let mut acc = self.acc.lock().expect("trace accumulator");
        acc.node(node).tokens += counts;
    }

    fn record_invocations(&self, node: usize, n: u64) {
        let mut acc = self.acc.lock().expect("trace accumulator");
        acc.node(node).invocations += n;
    }

    fn record_node_wall(&self, node: usize, ns: u64) {
        let mut acc = self.acc.lock().expect("trace accumulator");
        acc.node(node).wall_ns += ns;
    }

    fn snapshot(&self) -> Option<ExecProfile> {
        Some(self.profile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(NullSink.snapshot().is_none());
        // The no-op hooks must be callable without effect.
        NullSink.record_tokens(3, TokenCounts::default());
        NullSink.record_span("t", "n", 0, 1);
    }

    #[test]
    fn counters_accumulate_across_calls() {
        let sink = CountersSink::new();
        sink.define_node(1, "reduce");
        sink.record_tokens(1, TokenCounts { val: 2, ..Default::default() });
        sink.record_tokens(1, TokenCounts { val: 3, stop: 1, ..Default::default() });
        sink.record_invocations(1, 2);
        sink.record_node_wall(1, 70);
        sink.record_node_wall(1, 30);
        let p = sink.profile();
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.nodes[1].tokens.val, 5);
        assert_eq!(p.nodes[1].tokens.stop, 1);
        assert_eq!(p.nodes[1].invocations, 2);
        assert_eq!(p.nodes[1].busy_ns, 100);
        // Node 0 was never defined but still appears, unlabeled.
        assert_eq!(p.nodes[0].label, "");
    }
}
