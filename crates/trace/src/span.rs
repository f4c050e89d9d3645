//! Query-lifecycle spans: per-query stage attribution for a serving path.
//!
//! [`crate::ExecProfile`] attributes cost *inside* one execution; a
//! [`QuerySpan`] attributes cost *around* it — the stages a query passes
//! through between `submit` and resolution in a long-lived service:
//!
//! 1. [`Stage::Queue`] — enqueue to worker pickup (queue wait),
//! 2. [`Stage::Compile`] — expression → kernel (compile-cache hit or miss),
//! 3. [`Stage::Plan`] — kernel → executable plan (plan-cache hit or miss),
//! 4. [`Stage::Batch`] — always 0 since PR 18 (see the variant),
//! 5. [`Stage::Execute`] — backend run,
//! 6. [`Stage::Resolve`] — run end to handle resolution.
//!
//! Spans are plain data: the service fills one per query and feeds the
//! durations into its histograms; slow queries additionally serialize the
//! whole span — [`QuerySpan::to_json`] — onto a JSONL event log, one
//! object per line, hand-rolled (the workspace has no JSON dependency).

use std::time::Duration;

/// The lifecycle stages of a served query, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in the submission queue for a worker to pick the query up.
    Queue,
    /// Compiling the expression to an executable kernel.
    Compile,
    /// Planning the kernel graph (plan-cache lookup or fresh plan).
    Plan,
    /// Constant 0 since PR 18: the worker that prepares a query executes
    /// it at once, so nothing waits for a batch to form. The stage stays
    /// because the benchmark iterates [`Stage::ALL`] by name.
    Batch,
    /// Running on the backend.
    Execute,
    /// Delivering the result to the query's handle.
    Resolve,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] =
        [Stage::Queue, Stage::Compile, Stage::Plan, Stage::Batch, Stage::Execute, Stage::Resolve];

    /// The stage's stable lowercase name (metric label / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Compile => "compile",
            Stage::Plan => "plan",
            Stage::Batch => "batch",
            Stage::Execute => "execute",
            Stage::Resolve => "resolve",
        }
    }

    /// The stage's index into [`QuerySpan::stages_ns`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One query's trip through the service: what ran, where the time went,
/// and how the caches treated it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySpan {
    /// The query expression as submitted.
    pub expression: String,
    /// The backend label the query executed on (e.g. `fast-serial`).
    pub backend: String,
    /// Nanoseconds spent in each stage, indexed by [`Stage::index`].
    pub stages_ns: [u64; 6],
    /// Whether the compile cache already held this expression's kernel.
    pub compile_hit: bool,
    /// Whether the plan cache already held this kernel's plan.
    pub plan_hit: bool,
    /// How many queries shared this query's executed batch: 1 for every
    /// executed query since PR 18 (one worker, one query).
    pub batch_size: u64,
    /// The execution error, if the query failed.
    pub error: Option<String>,
}

impl QuerySpan {
    /// Nanoseconds spent in `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages_ns[stage.index()]
    }

    /// Records a duration for `stage` (accumulating, in case a stage is
    /// entered more than once).
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.stages_ns[stage.index()] =
            self.stages_ns[stage.index()].saturating_add(elapsed.as_nanos() as u64);
    }

    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stages_ns.iter().sum()
    }

    /// Serializes the span as a single-line JSON object (one JSONL event).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str("{\"expression\":");
        push_json_string(&mut out, &self.expression);
        out.push_str(",\"backend\":");
        push_json_string(&mut out, &self.backend);
        out.push_str(",\"total_ns\":");
        out.push_str(&self.total_ns().to_string());
        out.push_str(",\"stages_ns\":{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(stage.name());
            out.push_str("\":");
            out.push_str(&self.stage_ns(*stage).to_string());
        }
        out.push_str("},\"compile_hit\":");
        out.push_str(if self.compile_hit { "true" } else { "false" });
        out.push_str(",\"plan_hit\":");
        out.push_str(if self.plan_hit { "true" } else { "false" });
        out.push_str(",\"batch_size\":");
        out.push_str(&self.batch_size.to_string());
        match &self.error {
            Some(err) => {
                out.push_str(",\"error\":");
                push_json_string(&mut out, err);
            }
            None => out.push_str(",\"error\":null"),
        }
        out.push('}');
        out
    }
}

/// Appends `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_index_in_pipeline_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::Queue.name(), "queue");
        assert_eq!(Stage::Resolve.name(), "resolve");
    }

    #[test]
    fn spans_accumulate_and_total() {
        let mut span = QuerySpan::default();
        span.record(Stage::Queue, Duration::from_nanos(100));
        span.record(Stage::Queue, Duration::from_nanos(50));
        span.record(Stage::Execute, Duration::from_micros(2));
        assert_eq!(span.stage_ns(Stage::Queue), 150);
        assert_eq!(span.stage_ns(Stage::Execute), 2000);
        assert_eq!(span.total_ns(), 2150);
    }

    #[test]
    fn json_is_single_line_and_escaped() {
        let mut span = QuerySpan {
            expression: "X(i,j) = B(i,k) * \"C\"(k,j)\n".to_string(),
            backend: "fast-serial".to_string(),
            compile_hit: true,
            plan_hit: false,
            batch_size: 3,
            error: Some("bad\tinput".to_string()),
            ..QuerySpan::default()
        };
        span.record(Stage::Plan, Duration::from_nanos(42));
        let json = span.to_json();
        assert!(!json.contains('\n'), "JSONL events must be single-line: {json}");
        assert!(json.contains("\\\"C\\\""));
        assert!(json.contains("\\n\""));
        assert!(json.contains("\"plan\":42"));
        assert!(json.contains("\"compile_hit\":true"));
        assert!(json.contains("\"plan_hit\":false"));
        assert!(json.contains("\"batch_size\":3"));
        assert!(json.contains("\"error\":\"bad\\tinput\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_null_error_for_success() {
        let json = QuerySpan::default().to_json();
        assert!(json.contains("\"error\":null"));
        assert!(json.contains("\"total_ns\":0"));
    }
}
