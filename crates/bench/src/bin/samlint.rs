//! `samlint`: rustc-style static diagnostics for SAM graphs.
//!
//! Runs the `sam-verify` analyses — stream-type/protocol checking and graph
//! lints — over catalog kernels and Custard-compiled Table 1 expressions,
//! printing each diagnostic in rustc style and exiting nonzero when any
//! *error* fires (warnings report but do not fail, mirroring the compiler).
//!
//! ```text
//! samlint spmv SpMV            # one catalog kernel, one compiled expression
//! samlint --all                # 39 cases: 21 catalog graphs, 9 kernels, 9 expressions
//! samlint --list
//! ```
//!
//! Named cases with standard operands (`samprof`'s kernel set and the
//! Table 1 expressions) verify *bound* — formats, ranks and scalars against
//! real tensors; every graph of `custard::graphs::catalog()` verifies
//! structurally.

use custard::graphs;
use sam_bench::{kernel_case, table1_case, table1_case_names, PROFILE_KERNELS};
use sam_core::graph::SamGraph;
use sam_exec::Inputs;
use sam_verify::{verify, verify_bound, Bindings, Report};

fn usage() -> ! {
    eprintln!("usage: samlint <kernel|expression>...\n       samlint --all\n       samlint --list");
    std::process::exit(2);
}

/// One case to lint: a graph, optionally with bound operands.
struct CaseReport {
    name: String,
    report: Report,
}

fn lint_bound(name: &str, graph: &SamGraph, inputs: &Inputs) -> CaseReport {
    let bindings: Bindings<'_> = inputs.iter().collect();
    CaseReport { name: name.to_string(), report: verify_bound(graph, &bindings) }
}

fn lint_structural(name: &str, graph: &SamGraph) -> CaseReport {
    CaseReport { name: name.to_string(), report: verify(graph) }
}

/// Resolves one command-line name: a profiled kernel (bound), a Table 1
/// expression (bound), or any other catalog graph (structural).
fn lint_named(name: &str) -> Option<CaseReport> {
    if let Some((graph, inputs)) = kernel_case(name) {
        return Some(lint_bound(name, &graph, &inputs));
    }
    if let Some((graph, inputs)) = table1_case(name, 64) {
        return Some(lint_bound(name, &graph, &inputs));
    }
    graphs::catalog()
        .into_iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(n, graph)| lint_structural(n, &graph))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    let mut all = false;

    for arg in &args {
        match arg.as_str() {
            "--list" => {
                println!("kernels (bound):     {}", PROFILE_KERNELS.join(", "));
                println!("expressions (bound): {}", table1_case_names().join(", "));
                println!(
                    "catalog (structural): {}",
                    graphs::catalog().iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                );
                return;
            }
            "--all" => all = true,
            other if other.starts_with('-') => usage(),
            other => names.push(other.to_string()),
        }
    }
    if !all && names.is_empty() {
        usage();
    }

    let mut cases: Vec<CaseReport> = Vec::new();
    if all {
        for (name, graph) in graphs::catalog() {
            cases.push(lint_structural(name, &graph));
        }
        for name in PROFILE_KERNELS {
            let (graph, inputs) = kernel_case(name).expect("profiled kernel");
            cases.push(lint_bound(name, &graph, &inputs));
        }
        for name in table1_case_names() {
            let (graph, inputs) = table1_case(name, 64).expect("table1 expression");
            cases.push(lint_bound(name, &graph, &inputs));
        }
    }
    for name in &names {
        match lint_named(name) {
            Some(case) => cases.push(case),
            None => {
                eprintln!("unknown kernel or expression `{name}`; `samlint --list` shows all names");
                std::process::exit(2);
            }
        }
    }

    let (mut errors, mut warnings) = (0usize, 0usize);
    for case in &cases {
        errors += case.report.error_count();
        warnings += case.report.diagnostics.len() - case.report.error_count();
        if !case.report.diagnostics.is_empty() {
            println!("{}:", case.name);
            for line in case.report.render().lines() {
                println!("  {line}");
            }
        }
    }
    println!("samlint: {} case(s) checked, {errors} error(s), {warnings} warning(s)", cases.len());
    if errors > 0 {
        std::process::exit(1);
    }
}
