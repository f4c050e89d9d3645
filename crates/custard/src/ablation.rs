//! The Table 2 ablation: how many expressions become inexpressible when a
//! SAM primitive is removed.
//!
//! The paper analyzes the corpus of algorithms submitted to the TACO website.
//! That corpus is not public, so this module substitutes a synthetic
//! corpus, and the table's absolute counts are this corpus's, not the
//! paper's: every Table 1 expression plus an enumerated
//! family of small tensor-algebra expressions, each instantiated with every
//! combination of dense/compressed operand formats, and weighted by a
//! deterministic popularity factor to play the role of repeated website
//! submissions. The conclusion the table supports — that removing any
//! primitive loses a substantial part of the domain, with scanners,
//! multipliers and reducers losing the most — is preserved.

use crate::cin::{ConcreteIndexNotation, Formats, Schedule};
use crate::lower::lower;
use sam_core::graph::SamGraph;
use sam_tensor::expr::{table1, Assignment, Expr};
use sam_tensor::TensorFormat;
use serde::{Deserialize, Serialize};

/// One corpus entry: an expression with a specific operand format assignment.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Descriptive name.
    pub name: String,
    /// The statement.
    pub assignment: Assignment,
    /// Whether each operand (in access order) is stored compressed.
    pub compressed_operands: Vec<bool>,
    /// Whether the result is stored compressed.
    pub compressed_output: bool,
    /// Synthetic submission weight (plays the role of repeated website
    /// submissions in the paper's "All" column).
    pub weight: u64,
    /// The lowered SAM graph.
    pub graph: SamGraph,
}

/// The synthetic expression corpus used by [`ablation_study`].
#[derive(Debug, Clone, Default)]
pub struct ExpressionCorpus {
    entries: Vec<CorpusEntry>,
}

impl ExpressionCorpus {
    /// Builds the corpus: Table 1 expressions plus a generated family of
    /// element-wise and contraction expressions over 1–3 operands of order
    /// 1–3, each across all dense/compressed operand format combinations.
    pub fn generate() -> Self {
        let mut expressions: Vec<(String, Assignment)> =
            table1::all().into_iter().map(|(n, a)| (n.to_string(), a)).collect();
        // Element-wise families.
        expressions.push(("VecMul".into(), table1::vec_elem_mul()));
        expressions.push(("VecAdd".into(), table1::vec_elem_add()));
        expressions.push((
            "VecScale".into(),
            Assignment::new("x", "i", Expr::access("alpha", "").mul(Expr::access("b", "i"))),
        ));
        expressions.push((
            "MatElemMul".into(),
            Assignment::new("X", "ij", Expr::access("B", "ij").mul(Expr::access("C", "ij"))),
        ));
        expressions.push((
            "MatVecAdd".into(),
            Assignment::new(
                "x",
                "i",
                Expr::access("B", "ij").mul(Expr::access("c", "j")).reduce("j").add(Expr::access("d", "i")),
            ),
        ));
        expressions.push((
            "TensorElemAdd3".into(),
            Assignment::new(
                "X",
                "ijk",
                Expr::access("B", "ijk").add(Expr::access("C", "ijk")).add(Expr::access("D", "ijk")),
            ),
        ));
        expressions.push((
            "TensorContract".into(),
            Assignment::new("X", "ij", Expr::access("B", "ikl").mul(Expr::access("C", "klj")).reduce("kl")),
        ));
        expressions.push(("RowSum".into(), Assignment::new("x", "i", Expr::access("B", "ij").reduce("j"))));
        expressions.push(("VecCopy".into(), Assignment::new("x", "i", Expr::access("b", "i"))));

        let mut entries = Vec::new();
        for (name, assignment) in expressions {
            let accesses: Vec<(String, usize)> =
                assignment.rhs.accesses().iter().map(|(n, idx)| (n.to_string(), idx.len())).collect();
            let operand_count = accesses.len();
            // Every combination of dense/compressed operands and output.
            for mask in 0..(1u32 << operand_count) {
                for &compressed_output in &[true, false] {
                    let compressed_operands: Vec<bool> =
                        (0..operand_count).map(|b| (mask >> b) & 1 == 1).collect();
                    let mut formats = Formats::new();
                    for ((tensor, order), &compressed) in accesses.iter().zip(&compressed_operands) {
                        if *order > 0 {
                            let fmt = if compressed {
                                TensorFormat::csf(*order)
                            } else {
                                TensorFormat::dense(*order)
                            };
                            formats = formats.set(tensor, fmt);
                        }
                    }
                    let cin = ConcreteIndexNotation::new(assignment.clone(), &Schedule::new(), formats);
                    let graph = lower(&cin);
                    // Deterministic popularity weight standing in for repeat
                    // submissions on the TACO website.
                    let weight =
                        1 + (name.len() as u64 * 7 + mask as u64 * 3 + u64::from(compressed_output)) % 19;
                    entries.push(CorpusEntry {
                        name: format!("{name}/m{mask}/{}", if compressed_output { "comp" } else { "dense" }),
                        assignment: assignment.clone(),
                        compressed_operands,
                        compressed_output,
                        weight,
                        graph,
                    });
                }
            }
        }
        ExpressionCorpus { entries }
    }

    /// The corpus entries.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of distinct algorithm entries.
    pub fn unique_count(&self) -> usize {
        self.entries.len()
    }

    /// Weighted entry count (the "All" column).
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|e| e.weight).sum()
    }
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Description of the removed primitive.
    pub removed: String,
    /// Distinct expressions lost.
    pub unique_lost: usize,
    /// Weighted expressions lost.
    pub all_lost: u64,
    /// Percentage of distinct expressions lost.
    pub unique_percent: f64,
    /// Percentage of weighted expressions lost.
    pub all_percent: f64,
}

fn row(corpus: &ExpressionCorpus, removed: &str, lost: impl Fn(&CorpusEntry) -> bool) -> AblationRow {
    let unique_lost = corpus.entries().iter().filter(|e| lost(e)).count();
    let all_lost: u64 = corpus.entries().iter().filter(|e| lost(e)).map(|e| e.weight).sum();
    AblationRow {
        removed: removed.to_string(),
        unique_lost,
        all_lost,
        unique_percent: 100.0 * unique_lost as f64 / corpus.unique_count() as f64,
        all_percent: 100.0 * all_lost as f64 / corpus.total_count() as f64,
    }
}

/// Runs the Table 2 ablation over a corpus.
pub fn ablation_study(corpus: &ExpressionCorpus) -> Vec<AblationRow> {
    use sam_core::graph::NodeKind;
    vec![
        row(corpus, "Comp. Level Scanner", |e| e.compressed_operands.iter().any(|c| *c)),
        row(corpus, "Comp. + Uncomp. Level Scanners", |e| !e.assignment.rhs.accesses().is_empty()),
        row(corpus, "Repeater", |e| e.graph.has_kind(|n| matches!(n, NodeKind::Repeater { .. }))),
        row(corpus, "Unioner", |e| e.graph.has_kind(|n| matches!(n, NodeKind::Unioner { .. }))),
        row(corpus, "Intersecter keep Locator", |e| {
            e.graph.has_kind(|n| matches!(n, NodeKind::Intersecter { .. }))
                && e.compressed_operands.iter().all(|c| *c)
        }),
        row(corpus, "Intersecter w/ Locator Removed", |e| {
            e.graph.has_kind(|n| matches!(n, NodeKind::Intersecter { .. }))
        }),
        row(corpus, "Adder", |e| {
            e.graph.has_kind(|n| matches!(n, NodeKind::Alu { op } if matches!(&**op, "add" | "sub")))
        }),
        row(corpus, "Multiplier", |e| {
            e.graph.has_kind(|n| matches!(n, NodeKind::Alu { op } if &**op == "mul"))
        }),
        row(corpus, "Reducer", |e| e.graph.has_kind(|n| matches!(n, NodeKind::Reducer { .. }))),
        row(corpus, "Coordinate Dropper", |e| {
            e.graph.has_kind(|n| matches!(n, NodeKind::CoordDropper { .. })) && e.compressed_output
        }),
        row(corpus, "Comp. Level Writer", |e| e.compressed_output && !e.assignment.target_indices.is_empty()),
        row(corpus, "Comp. + Uncomp. Level Writers", |e| !e.assignment.target_indices.is_empty()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_substantial_and_deterministic() {
        let a = ExpressionCorpus::generate();
        let b = ExpressionCorpus::generate();
        assert!(a.unique_count() > 150, "corpus has {} entries", a.unique_count());
        assert_eq!(a.unique_count(), b.unique_count());
        assert_eq!(a.total_count(), b.total_count());
    }

    #[test]
    fn ablation_reproduces_table2_ordering() {
        let corpus = ExpressionCorpus::generate();
        let rows = ablation_study(&corpus);
        assert_eq!(rows.len(), 12);
        let get = |name: &str| rows.iter().find(|r| r.removed == name).expect("row").unique_percent;
        // Removing both scanner types or both writer types loses essentially
        // everything.
        assert!(get("Comp. + Uncomp. Level Scanners") > 95.0);
        assert!(get("Comp. + Uncomp. Level Writers") > 90.0);
        // The multiplier and reducer are more critical than the unioner and
        // the coordinate dropper, as in the paper.
        assert!(get("Multiplier") > get("Unioner"));
        assert!(get("Reducer") > get("Coordinate Dropper"));
        // Losing the intersecter entirely hurts more than losing it while a
        // locator remains available.
        assert!(get("Intersecter w/ Locator Removed") >= get("Intersecter keep Locator"));
        // Every row loses something.
        assert!(rows.iter().all(|r| r.unique_lost > 0));
    }
}
