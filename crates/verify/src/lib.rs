//! # sam-verify — static analysis for SAM graphs
//!
//! A static verification pass over [`sam_core::graph::SamGraph`] that runs
//! *before* planning. The SAM paper (Sec. 4) defines streams as a typed
//! protocol — rank, token grammar, skip-lane contract — and this crate
//! checks that protocol by cheap abstract interpretation over the graph's
//! transition structure, reporting typed [`Diagnostic`]s instead of the
//! planner's first-error-wins rejections or a backend's mid-run panic.
//!
//! Two analyses share one dataflow framework ([`Analysis`]):
//!
//! 1. **Stream-type inference + protocol checking** ([`verify`] /
//!    [`verify_bound`]) — propagates an abstract stream type (crd/ref/val
//!    kind, tensor, storage depth, index variable) along every edge and
//!    reports rank mismatches, dangling/duplicated ports, illegal skip
//!    lanes, scalar-into-stream errors, and `ConstVal` misuse. The error
//!    rules are a strict superset of the planner's validation: every graph
//!    `sam_exec::Plan::build` rejects fails verification with a more
//!    specific diagnostic, and the planner's rank check *delegates* to
//!    [`Analysis::ref_annotation`].
//! 2. **Graph lints** — dead nodes, discarded value streams, forks that
//!    should be broadcasts, and missing skip edges where the compiler's
//!    format heuristic (`LowerOptions::skip_edges`) would fire.
//!
//! The `samlint` binary (in `sam-bench`) fronts all of this on the command
//! line; `custard::lower_exec`, the executor's `Planner`, and
//! `sam_serve::Service::submit` run it implicitly.

#![warn(missing_docs)]

pub mod analysis;
pub mod diag;
pub mod lints;

pub use analysis::{Analysis, Bindings, StreamType};
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
    use sam_core::graphs;

    #[test]
    fn catalog_spmv_is_clean() {
        let report = verify(&graphs::spmv());
        assert!(report.diagnostics.is_empty(), "{}", report.render());
    }

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let rules = [
            Rule::NotYetLowerable,
            Rule::PortKindMismatch,
            Rule::AmbiguousPort,
            Rule::ExtraInput,
            Rule::DuplicateInput,
            Rule::DanglingInput,
            Rule::DataCycle,
            Rule::IllegalSkipEdge,
            Rule::TensorMismatch,
            Rule::UnknownTensor,
            Rule::LevelOutOfRange,
            Rule::FormatMismatch,
            Rule::RankMismatch,
            Rule::ScalarIntoStream,
            Rule::UnknownAluOp,
            Rule::MissingValsWriter,
            Rule::MultipleValsWriters,
            Rule::UnknownDimension,
            Rule::DeadNode,
            Rule::UnusedOutput,
            Rule::ForkShouldBroadcast,
            Rule::MissingSkipEdge,
        ];
        let ids: std::collections::HashSet<&str> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), rules.len());
    }
}
