//! # sam-verify — static analysis for SAM graphs
//!
//! A static verification pass over [`sam_core::graph::SamGraph`] that runs
//! *before* planning. The SAM paper (Sec. 4) defines streams as a typed
//! protocol — rank, token grammar, skip-lane contract — and this crate
//! checks that protocol by cheap abstract interpretation over the graph's
//! transition structure, reporting every finding as a typed [`Diagnostic`]
//! instead of a backend's mid-run panic.
//!
//! Two analyses share one dataflow framework ([`Analysis`]), which is also
//! the whole of the execution planner's validation — `sam_exec::Plan::build`
//! runs it once, rejects on any error diagnostic and derives the plan from
//! its tables:
//!
//! 1. **Stream-type inference + protocol checking** ([`verify`] /
//!    [`verify_bound`]) — propagates an abstract stream type (crd/ref/val
//!    kind, tensor, storage depth, index variable) along every edge and
//!    reports rank mismatches, dangling/duplicated ports, illegal skip
//!    lanes, disagreeing dimensions, scalar-into-stream errors, and
//!    `ConstVal` misuse.
//! 2. **Graph lints** — dead nodes, discarded value streams, forks that
//!    should be broadcasts, and missing skip edges where `custard::lower_exec`
//!    would have wired them (its density-skew heuristic).
//!
//! The framework's tables are flat (see [`analysis`]'s "Layout"): one run
//! allocates a fixed number of times per graph, not per node or port, which
//! is what a cold query's planning pays.
//!
//! The `samlint` binary (in `sam-bench`) fronts all of this on the command
//! line; `custard::lower_exec` asserts its output verifies structurally
//! (debug builds), and every planning door (`Plan::build`, `ExecRequest`,
//! the plan cache, `sam_serve::Service`) runs the bound analysis.

#![warn(missing_docs)]

pub mod analysis;
pub mod diag;
pub mod lints;

pub use analysis::{Analysis, Bindings, Consumers, PortRef, SkipLane, StreamType};
pub use diag::{Diagnostic, Report, Rule, Severity};

use sam_core::graph::SamGraph;

/// Verifies `graph` structurally (no tensor bindings): port protocol,
/// acyclicity, skip-lane contract, writer rules, plus all graph lints.
///
/// Binding-level rules (unknown tensors, rank, level formats, scalar-ness)
/// need [`verify_bound`].
pub fn verify(graph: &SamGraph) -> Report {
    verify_with(graph, None)
}

/// Verifies `graph` against a set of bound tensors: everything [`verify`]
/// checks plus the binding-level rules.
pub fn verify_bound(graph: &SamGraph, bindings: &Bindings<'_>) -> Report {
    verify_with(graph, Some(bindings))
}

fn verify_with(graph: &SamGraph, bindings: Option<&Bindings<'_>>) -> Report {
    let analysis = Analysis::run(graph, bindings);
    let mut report = analysis.report.clone();
    lints::run(graph, &analysis, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let rules = [
            Rule::NotYetLowerable,
            Rule::PortKindMismatch,
            Rule::DuplicateInput,
            Rule::DanglingInput,
            Rule::DataCycle,
            Rule::IllegalSkipEdge,
            Rule::TensorMismatch,
            Rule::UnknownTensor,
            Rule::LevelOutOfRange,
            Rule::FormatMismatch,
            Rule::RankMismatch,
            Rule::DimensionMismatch,
            Rule::ScalarIntoStream,
            Rule::UnknownAluOp,
            Rule::MissingValsWriter,
            Rule::MultipleValsWriters,
            Rule::UnknownDimension,
            Rule::DeadNode,
            Rule::UnusedOutput,
            Rule::ForkShouldBroadcast,
            Rule::MissingSkipEdge,
            Rule::ForeignLevelWriter,
        ];
        let ids: std::collections::HashSet<&str> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), rules.len());
    }
}
