//! The format language, scheduling language and concrete index notation.

use sam_tensor::expr::{Assignment, IndexVar};
use sam_tensor::TensorFormat;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Per-tensor storage formats (the paper's format language).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Formats {
    formats: BTreeMap<String, TensorFormat>,
}

impl Formats {
    /// An empty format environment: tensors default to fully compressed
    /// storage in the dataflow order.
    pub fn new() -> Self {
        Formats::default()
    }

    /// Sets the format of one tensor.
    pub fn set(mut self, tensor: &str, format: TensorFormat) -> Self {
        self.formats.insert(tensor.to_string(), format);
        self
    }

    /// The format bound to a tensor, if any.
    pub fn get(&self, tensor: &str) -> Option<&TensorFormat> {
        self.formats.get(tensor)
    }
}

/// The scheduling language: currently the `reorder` directive fixing the
/// dataflow (index variable) order, as used throughout the paper's
/// evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    reorder: Option<Vec<IndexVar>>,
}

impl Schedule {
    /// The default schedule (alphabetical/declaration order).
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Fixes the iteration order, e.g. `"ikj"` for Gustavson's SpM*SpM.
    pub fn reorder(mut self, order: &str) -> Self {
        self.reorder = Some(order.chars().collect());
        self
    }

    /// The requested order, if any.
    pub fn order(&self) -> Option<&[IndexVar]> {
        self.reorder.as_deref()
    }
}

/// Concrete index notation: the assignment plus a fully determined loop
/// (dataflow) order — the abstract loop nest of paper Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcreteIndexNotation {
    /// The tensor index notation statement.
    pub assignment: Assignment,
    /// The forall loop order, outermost first.
    pub loop_order: Vec<IndexVar>,
    /// Per-tensor formats.
    pub formats: Formats,
}

impl ConcreteIndexNotation {
    /// Builds concrete index notation from an assignment, a schedule and
    /// formats. Without a `reorder` directive the loop order is the target
    /// indices followed by the remaining variables in alphabetical order.
    ///
    /// # Errors
    ///
    /// Returns a [`ReorderError`] if a `reorder` directive does not cover
    /// exactly the statement's index variables, each once.
    pub fn try_new(
        assignment: Assignment,
        schedule: &Schedule,
        formats: Formats,
    ) -> Result<Self, ReorderError> {
        let loop_order = loop_order(&assignment, schedule)?;
        Ok(ConcreteIndexNotation { assignment, loop_order, formats })
    }

    /// [`try_new`](Self::try_new) for a schedule known to be valid.
    ///
    /// # Panics
    ///
    /// Panics if a `reorder` directive does not cover exactly the statement's
    /// index variables.
    pub fn new(assignment: Assignment, schedule: &Schedule, formats: Formats) -> Self {
        let loop_order = loop_order(&assignment, schedule);
        assert!(loop_order.is_ok(), "reorder must mention every index variable exactly once");
        ConcreteIndexNotation { assignment, loop_order: loop_order.unwrap_or_default(), formats }
    }

    /// The loop order as a string (e.g. `"ikj"`).
    pub fn order_string(&self) -> String {
        self.loop_order.iter().collect()
    }
}

/// The loop order `schedule` fixes for `assignment`: its `reorder`
/// directive, or the target indices followed by the remaining variables in
/// alphabetical order.
fn loop_order(assignment: &Assignment, schedule: &Schedule) -> Result<Vec<IndexVar>, ReorderError> {
    let default_order = assignment.all_index_vars();
    let Some(order) = schedule.order() else {
        return Ok(default_order);
    };
    let mut asked = order.to_vec();
    asked.sort_unstable();
    let mut vars = default_order;
    vars.sort_unstable();
    if asked != vars {
        return Err(ReorderError { order: order.to_vec(), vars });
    }
    Ok(order.to_vec())
}

/// A `reorder` directive that is not a permutation of the statement's index
/// variables: one is missing, repeated or not in the statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderError {
    /// The order the directive asked for.
    pub order: Vec<IndexVar>,
    /// The statement's index variables, sorted.
    pub vars: Vec<IndexVar>,
}

impl fmt::Display for ReorderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (order, vars): (String, String) = (self.order.iter().collect(), self.vars.iter().collect());
        write!(f, "order `{order}` is not a permutation of the index variables `{vars}`")
    }
}

impl std::error::Error for ReorderError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_tensor::expr::table1;

    #[test]
    fn default_order_is_target_then_alphabetical() {
        let cin = ConcreteIndexNotation::new(table1::spmm(), &Schedule::new(), Formats::new());
        assert_eq!(cin.order_string(), "ijk");
    }

    #[test]
    fn reorder_changes_loop_order() {
        let cin = ConcreteIndexNotation::new(table1::spmm(), &Schedule::new().reorder("ikj"), Formats::new());
        assert_eq!(cin.order_string(), "ikj");
    }

    #[test]
    #[should_panic(expected = "every index variable")]
    fn reorder_must_be_complete() {
        let _ = ConcreteIndexNotation::new(table1::spmm(), &Schedule::new().reorder("ik"), Formats::new());
    }

    #[test]
    fn try_new_rejects_an_order_that_is_no_permutation() {
        let order = |o: &str| {
            ConcreteIndexNotation::try_new(table1::spmm(), &Schedule::new().reorder(o), Formats::new())
                .map(|cin| cin.order_string())
        };
        assert_eq!(order("kij"), Ok("kij".to_string()));
        let vars = vec!['i', 'j', 'k'];
        for bad in ["iij", "ik", "ijkl", "ijx"] {
            let err = ReorderError { order: bad.chars().collect(), vars: vars.clone() };
            assert_eq!(order(bad), Err(err.clone()));
            assert!(err
                .to_string()
                .contains(&format!("`{bad}` is not a permutation of the index variables `ijk`")));
        }
    }

    #[test]
    fn formats_round_trip() {
        let fmts = Formats::new().set("B", TensorFormat::dcsr()).set("c", TensorFormat::dense_vec());
        assert_eq!(fmts.get("B"), Some(&TensorFormat::dcsr()));
        assert!(fmts.get("Z").is_none());
    }
}
