//! Error types for planning and executing SAM graphs.

use sam_sim::{Fault, SimulationError};
use std::fmt;

/// An error found while planning a graph for execution.
///
/// Planning validates the graph structurally (acyclicity, port wiring, skip
/// lanes) and against the bound tensors (names, formats, ranks, dimensions)
/// before any backend runs, so execution failures surface as typed errors
/// instead of mid-run panics or deadlocks. The validation is `sam-verify`'s
/// bound analysis, so the error vocabulary is its [`sam_verify::Rule`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The static analysis (`sam-verify`) found the graph unexecutable.
    /// Carries every error-severity diagnostic, not just the first; each
    /// names its rule and, where there is one, the offending node and port.
    Rejected {
        /// The error diagnostics, in discovery order.
        diagnostics: Vec<sam_verify::Diagnostic>,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PlanError::Rejected { diagnostics } = self;
        write!(f, "graph failed static verification ({} error(s))", diagnostics.len())?;
        for d in diagnostics {
            write!(f, "\n{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanError {}

/// An error raised while executing a planned graph.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Planning failed.
    Plan(PlanError),
    /// The cycle-approximate simulation deadlocked or reached its cycle
    /// limit. (A block whose rule faults is reported as the node's
    /// [`ExecError::Misaligned`] or [`ExecError::RefOutOfBounds`], as the
    /// fast backend reports it.)
    Sim(SimulationError),
    /// A node found its input streams structurally misaligned: their heads
    /// disagree, a stream ended early, or a token has the wrong payload.
    Misaligned {
        /// Label of the node that observed the mismatch.
        label: String,
    },
    /// A reference left the bounds of what it indexes: its tensor's
    /// values, or the fibers of a level a scanner reads.
    RefOutOfBounds {
        /// Label of the node that read the reference (for a fused scanner,
        /// the intersecter it feeds).
        label: String,
        /// The offending reference.
        reference: usize,
    },
    /// A writer never received its done token, so the output is incomplete.
    IncompleteOutput {
        /// Label of the writer.
        label: String,
    },
    /// The inputs are not those the plan was built over: a binding is
    /// missing or added, or has another format, shape or scalar value.
    Unplanned {
        /// The first binding, in name order, that differs.
        tensor: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "planning failed: {e}"),
            ExecError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExecError::Misaligned { label } => {
                write!(f, "streams reaching `{label}` are structurally misaligned")
            }
            ExecError::RefOutOfBounds { label, reference } => {
                write!(f, "reference {reference} out of bounds at `{label}`")
            }
            ExecError::IncompleteOutput { label } => {
                write!(f, "writer `{label}` did not finish")
            }
            ExecError::Unplanned { tensor } => {
                write!(f, "binding `{tensor}` differs from the inputs the plan was built over")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// The error of node `label` observing `fault`.
    pub(crate) fn at(fault: Fault, label: String) -> Self {
        match fault {
            Fault::Misaligned => ExecError::Misaligned { label },
            Fault::RefOutOfBounds(reference) => {
                ExecError::RefOutOfBounds { label, reference: reference as usize }
            }
        }
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

impl From<SimulationError> for ExecError {
    fn from(e: SimulationError) -> Self {
        ExecError::Sim(e)
    }
}
