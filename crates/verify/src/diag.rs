//! Typed diagnostics: rule identifiers, severities, and the report a
//! verification pass returns.

use std::fmt;

/// How bad a finding is.
///
/// Errors are graphs no backend can execute correctly, which
/// `sam_exec::Plan::build` therefore rejects; warnings are legal graphs with
/// a structure the lints consider suspicious.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable.
    Warning,
    /// The graph cannot execute correctly.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Every rule the verifier can fire, with a stable kebab-case id.
///
/// The error rules are the planner's whole validation (a
/// `sam_exec::PlanError::Rejected` carries the diagnostics that fired); the
/// warning rules are the graph lints. See ARCHITECTURE.md for the full
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// A primitive no backend can lower yet (`Parallelizer`, `Serializer`,
    /// `BitvectorConverter`, a reducer of order above 2).
    NotYetLowerable,
    /// An edge names an out-of-range port or one that cannot carry its
    /// stream kind.
    PortKindMismatch,
    /// Two edges claim the same input port.
    DuplicateInput,
    /// A mandatory input port has no incoming edge.
    DanglingInput,
    /// The data edges (everything except skip feedback lanes) contain a
    /// cycle.
    DataCycle,
    /// A coordinate-skip feedback lane violates the Section 4.2 contract.
    IllegalSkipEdge,
    /// A reference stream reaches a node declared for a different tensor.
    TensorMismatch,
    /// A node names a tensor that is not bound.
    UnknownTensor,
    /// A reference stream descends below the tensor's last storage level.
    LevelOutOfRange,
    /// A scanner's compressed/dense annotation contradicts the bound level.
    FormatMismatch,
    /// A value array's reference stream stops short of (or overshoots) the
    /// bound tensor's rank.
    RankMismatch,
    /// Two bound levels iterate one index variable at different sizes.
    DimensionMismatch,
    /// A non-scalar tensor is collapsed into a zero-index constant access —
    /// a whole stream squeezed through a scalar port.
    ScalarIntoStream,
    /// An ALU names an operation no backend implements.
    UnknownAluOp,
    /// The graph writes no values stream.
    MissingValsWriter,
    /// More than one node writes the values stream.
    MultipleValsWriters,
    /// A level writer uses an index variable no scanner or locator
    /// introduces, so its output dimension is undefined.
    UnknownDimension,
    /// Lint: the node cannot reach any writer, so its work is discarded.
    DeadNode,
    /// Lint: a computed value stream has no consumer.
    UnusedOutput,
    /// Lint: an output port fans out wider than a fork comfortably
    /// replicates; restructure as a broadcast (repeat) instead.
    ForkShouldBroadcast,
    /// Lint: an intersection of levels with skewed formats has no skip
    /// lanes even though the compiler's heuristic would wire them.
    MissingSkipEdge,
    /// Lint: a level writer writes another tensor than the values writer,
    /// so the output leaves its level out.
    ForeignLevelWriter,
}

impl Rule {
    /// The stable diagnostic id (`error[rank-mismatch]: ...`).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::NotYetLowerable => "not-yet-lowerable",
            Rule::PortKindMismatch => "port-kind-mismatch",
            Rule::DuplicateInput => "duplicate-input",
            Rule::DanglingInput => "dangling-input",
            Rule::DataCycle => "data-cycle",
            Rule::IllegalSkipEdge => "illegal-skip-edge",
            Rule::TensorMismatch => "tensor-mismatch",
            Rule::UnknownTensor => "unknown-tensor",
            Rule::LevelOutOfRange => "level-out-of-range",
            Rule::FormatMismatch => "format-mismatch",
            Rule::RankMismatch => "rank-mismatch",
            Rule::DimensionMismatch => "dimension-mismatch",
            Rule::ScalarIntoStream => "scalar-into-stream",
            Rule::UnknownAluOp => "unknown-alu-op",
            Rule::MissingValsWriter => "missing-vals-writer",
            Rule::MultipleValsWriters => "multiple-vals-writers",
            Rule::UnknownDimension => "unknown-dimension",
            Rule::DeadNode => "dead-node",
            Rule::UnusedOutput => "unused-output",
            Rule::ForkShouldBroadcast => "fork-should-broadcast",
            Rule::MissingSkipEdge => "missing-skip-edge",
            Rule::ForeignLevelWriter => "foreign-level-writer",
        }
    }

    /// The severity this rule always fires at.
    pub fn severity(&self) -> Severity {
        match self {
            Rule::DeadNode | Rule::UnusedOutput | Rule::ForkShouldBroadcast => Severity::Warning,
            Rule::MissingSkipEdge | Rule::ForeignLevelWriter => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding: a rule, where it fired, and a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Severity (always `rule.severity()`).
    pub severity: Severity,
    /// Index of the offending node, when the finding is anchored to one.
    pub node: Option<usize>,
    /// Display label of the offending node (builder/compiler label when
    /// one was attached).
    pub label: Option<String>,
    /// The offending port index on that node, when one is implicated.
    pub port: Option<usize>,
    /// What went wrong, in terms of the graph's own labels.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(rule: Rule, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            node: None,
            label: None,
            port: None,
            message: message.into(),
        }
    }

    pub(crate) fn at(mut self, node: usize, label: String) -> Self {
        self.node = Some(node);
        self.label = Some(label);
        self
    }

    pub(crate) fn on_port(mut self, port: usize) -> Self {
        self.port = Some(port);
        self
    }
}

impl fmt::Display for Diagnostic {
    /// Rustc-style rendering: `error[rule-id]: message` plus an arrow line
    /// locating the node and port.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule.id(), self.message)?;
        if let Some(label) = &self.label {
            write!(f, "\n  --> node {} `{}`", self.node.unwrap_or(0), label)?;
            if let Some(port) = self.port {
                write!(f, ", port {port}")?;
            }
        }
        Ok(())
    }
}

/// The outcome of a verification pass: every diagnostic found, in graph
/// order (the verifier does not stop at the first problem).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, errors and warnings interleaved in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any error-severity rule fired.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// How often the given rule fired.
    pub fn count(&self, rule: Rule) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Rustc-style multi-line rendering of every finding plus a summary
    /// line; empty string when the report is clean.
    pub fn render(&self) -> String {
        if self.diagnostics.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.error_count();
        let warnings = self.diagnostics.len() - errors;
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// Appends a diagnostic; every analysis pass reports through this.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }
}
