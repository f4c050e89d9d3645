//! The schematic lowering: which SAM primitives concrete index notation
//! needs (paper Section 5, Figure 10), as an unwired node multiset.
//!
//! [`lower()`] places the nodes of the paper's three phases and no edges —
//! it is what Table 1 and the Table 2 ablation count. The graph that runs,
//! with every stream wired port to port, is [`crate::lower_exec`]'s.
//!
//! 1. **Tensor iteration and merging** — for every index variable in a
//!    tensor's path a level scanner is placed; index variables absent from a
//!    tensor's path (that the tensor must nonetheless be broadcast over) get
//!    repeaters; index variables shared by several tensor paths get
//!    intersecters (multiplication) or unioners (addition).
//! 2. **Computation** — one ALU per arithmetic operator and one reducer per
//!    reduced index variable.
//! 3. **Tensor construction** — coordinate droppers where intersections can
//!    empty outer fibers, then level writers for every result level plus the
//!    values writer.

use crate::cin::ConcreteIndexNotation;
use sam_core::graph::{NodeKind, SamGraph};
use sam_tensor::expr::{Expr, IndexVar};
use sam_tensor::LevelFormat;

/// Describes one operand tensor's path through the index variables.
#[derive(Debug, Clone)]
struct TensorPath {
    name: String,
    indices: Vec<IndexVar>,
}

/// Collects one path per *access* (a tensor read twice yields two paths,
/// mirroring the paper's per-access scanners).
fn tensor_paths(expr: &Expr) -> Vec<TensorPath> {
    expr.accesses()
        .into_iter()
        .map(|(name, idx)| TensorPath { name: name.to_string(), indices: idx.to_vec() })
        .collect()
}

/// True when `access` sits underneath a reduction over `var` (so it must be
/// broadcast over `var`) — used for repeater placement.
pub(crate) fn access_under_reduction(expr: &Expr, access_ordinal: usize, var: IndexVar) -> bool {
    fn walk(expr: &Expr, var: IndexVar, inside: bool, counter: &mut usize, target: usize, found: &mut bool) {
        match expr {
            Expr::Access { .. } => {
                if *counter == target && inside {
                    *found = true;
                }
                *counter += 1;
            }
            Expr::Literal(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                walk(a, var, inside, counter, target, found);
                walk(b, var, inside, counter, target, found);
            }
            Expr::Reduce { vars, body } => {
                let now_inside = inside || vars.contains(&var);
                walk(body, var, now_inside, counter, target, found);
            }
        }
    }
    let mut counter = 0;
    let mut found = false;
    walk(expr, var, false, &mut counter, access_ordinal, &mut found);
    found
}

/// The merge operator combining multiple operands at one index variable.
fn merge_is_union(expr: &Expr) -> bool {
    // Additive expressions require union merges; purely multiplicative ones
    // intersect. Mixed expressions (residual, MatTransMul) union at the
    // shared output variable and intersect at reduction variables, which the
    // per-variable logic below approximates by checking whether more than one
    // additive term mentions the variable.
    expr.has_additive_op() && !expr.has_multiplicative_op()
}

/// Number of top-level additive terms that mention `var`.
fn additive_terms_with(expr: &Expr, var: IndexVar) -> usize {
    match expr {
        Expr::Add(a, b) | Expr::Sub(a, b) => additive_terms_with(a, var) + additive_terms_with(b, var),
        other => usize::from(other.index_vars().contains(&var)),
    }
}

/// Lowers concrete index notation to the node multiset of its SAM graph:
/// the primitives Figure 10 places, unwired. Count them with
/// [`SamGraph::primitive_counts`]; the graph that runs is
/// [`crate::lower_exec`]'s.
///
/// ```
/// use custard::{parse, lower, Schedule, Formats, ConcreteIndexNotation};
/// let a = parse("X(i,j) = B(i,k) * C(k,j)").unwrap();
/// let cin = ConcreteIndexNotation::new(a, &Schedule::new().reorder("ikj"), Formats::new());
/// let graph = lower(&cin);
/// let counts = graph.primitive_counts();
/// assert_eq!(counts.level_scan, 4);
/// assert_eq!(counts.repeat, 2);
/// assert_eq!(counts.intersect, 1);
/// ```
pub fn lower(cin: &ConcreteIndexNotation) -> SamGraph {
    let assignment = &cin.assignment;
    let mut graph = SamGraph::new(assignment.to_string());
    let paths = tensor_paths(&assignment.rhs);
    let reduction_vars = assignment.reduction_vars();

    // Phase 1: tensor iteration and merging.
    for path in &paths {
        graph.add_node(NodeKind::Root { tensor: path.name.as_str().into() });
    }
    for &var in &cin.loop_order {
        // Scanners and repeaters per tensor path.
        let mut producers = 0;
        for (ordinal, path) in paths.iter().enumerate() {
            if path.indices.contains(&var) {
                let compressed = cin
                    .formats
                    .get(&path.name)
                    .map(|f| {
                        let level = path.indices.iter().position(|&v| v == var).unwrap_or(0);
                        !matches!(f.levels().get(level), Some(LevelFormat::Dense))
                    })
                    .unwrap_or(true);
                graph.add_node(NodeKind::LevelScanner {
                    tensor: path.name.as_str().into(),
                    index: var,
                    compressed,
                });
                producers += 1;
            } else {
                let broadcast_needed = assignment.target_indices.contains(&var)
                    || (reduction_vars.contains(&var)
                        && access_under_reduction(&assignment.rhs, ordinal, var));
                if broadcast_needed {
                    graph.add_node(NodeKind::Repeater { tensor: path.name.as_str().into(), index: var });
                }
            }
        }
        // Merging: m producers need m-1 binary mergers.
        let union = merge_is_union(&assignment.rhs)
            || (assignment.rhs.has_additive_op() && additive_terms_with(&assignment.rhs, var) > 1);
        for _ in 1..producers {
            graph.add_node(if union {
                NodeKind::Unioner { index: var }
            } else {
                NodeKind::Intersecter { index: var }
            });
        }
    }

    // Phase 2: computation (value arrays, one ALU per binary operator in
    // evaluation order, one reducer per reduced variable).
    for path in &paths {
        graph.add_node(NodeKind::Array { tensor: path.name.as_str().into() });
    }
    let mut ops = Vec::new();
    collect_ops(&assignment.rhs, &mut ops);
    for op in ops {
        graph.add_node(NodeKind::Alu { op: op.into() });
    }
    for (nth, _) in reduction_vars.iter().enumerate() {
        graph.add_node(NodeKind::Reducer { order: usize::from(nth == 0) });
    }

    // Phase 3: output construction.
    let multiplicative = assignment.rhs.has_multiplicative_op();
    for &var in &assignment.target_indices {
        if multiplicative {
            graph.add_node(NodeKind::CoordDropper { index: var });
        }
        graph.add_node(NodeKind::LevelWriter {
            tensor: assignment.target.as_str().into(),
            index: var,
            vals: false,
        });
    }
    graph.add_node(NodeKind::LevelWriter {
        tensor: assignment.target.as_str().into(),
        index: 'v',
        vals: true,
    });
    graph
}

/// Collects binary operator mnemonics in evaluation order.
fn collect_ops(expr: &Expr, out: &mut Vec<&'static str>) {
    match expr {
        Expr::Access { .. } | Expr::Literal(_) => {}
        Expr::Add(a, b) => {
            collect_ops(a, out);
            collect_ops(b, out);
            out.push("add");
        }
        Expr::Sub(a, b) => {
            collect_ops(a, out);
            collect_ops(b, out);
            out.push("sub");
        }
        Expr::Mul(a, b) => {
            collect_ops(a, out);
            collect_ops(b, out);
            out.push("mul");
        }
        Expr::Reduce { body, .. } => collect_ops(body, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cin::{Formats, Schedule};
    use crate::parser::parse;
    use sam_core::graph::PrimitiveCounts;

    fn counts(text: &str, order: Option<&str>) -> PrimitiveCounts {
        let a = parse(text).unwrap();
        let schedule = match order {
            Some(o) => Schedule::new().reorder(o),
            None => Schedule::new(),
        };
        let cin = ConcreteIndexNotation::new(a, &schedule, Formats::new());
        lower(&cin).primitive_counts()
    }

    #[test]
    fn spmv_counts_match_table1() {
        let c = counts("x(i) = B(i,j) * c(j)", None);
        assert_eq!(c.level_scan, 3);
        assert_eq!(c.repeat, 1);
        assert_eq!(c.intersect, 1);
        assert_eq!(c.union, 0);
        assert_eq!(c.alu, 1);
        assert_eq!(c.reduce, 1);
        assert_eq!(c.crd_drop, 1);
        assert_eq!(c.level_write, 2);
        assert_eq!(c.array, 2);
    }

    #[test]
    fn spmm_counts_match_table1() {
        let c = counts("X(i,j) = B(i,k) * C(k,j)", Some("ikj"));
        assert_eq!(c.level_scan, 4);
        assert_eq!(c.repeat, 2);
        assert_eq!(c.intersect, 1);
        assert_eq!(c.alu, 1);
        assert_eq!(c.reduce, 1);
        assert_eq!(c.level_write, 3);
        assert_eq!(c.array, 2);
    }

    #[test]
    fn sddmm_counts_match_table1() {
        let c = counts("X(i,j) = B(i,j) * C(i,k) * D(j,k)", None);
        assert_eq!(c.level_scan, 6);
        assert_eq!(c.repeat, 3);
        assert_eq!(c.intersect, 3);
        assert_eq!(c.alu, 2);
        assert_eq!(c.reduce, 1);
        assert_eq!(c.level_write, 3);
        assert_eq!(c.array, 3);
    }

    #[test]
    fn additions_use_unions_and_no_droppers() {
        let c = counts("X(i,j) = B(i,j) + C(i,j)", None);
        assert_eq!(c.union, 2);
        assert_eq!(c.intersect, 0);
        assert_eq!(c.crd_drop, 0);
        assert_eq!(c.level_scan, 4);
        assert_eq!(c.level_write, 3);
        let p3 = counts("X(i,j) = B(i,j) + C(i,j) + D(i,j)", None);
        assert_eq!(p3.union, 4);
        assert_eq!(p3.alu, 2);
        assert_eq!(p3.level_scan, 6);
    }

    #[test]
    fn mttkrp_counts() {
        let c = counts("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", None);
        assert_eq!(c.level_scan, 7);
        assert_eq!(c.repeat, 5);
        assert_eq!(c.intersect, 3);
        assert_eq!(c.alu, 2);
        assert_eq!(c.reduce, 2);
        assert_eq!(c.array, 3);
    }

    #[test]
    fn residual_mixes_union_and_intersect() {
        let c = counts("x(i) = b(i) - C(i,j) * d(j)", None);
        assert_eq!(c.level_scan, 4);
        assert_eq!(c.union, 1);
        assert_eq!(c.intersect, 1);
        assert_eq!(c.repeat, 1);
        assert_eq!(c.array, 3);
        assert_eq!(c.alu, 2);
    }

    #[test]
    fn dot_export_for_lowered_graph() {
        let a = parse("X(i,j) = B(i,k) * C(k,j)").unwrap();
        let cin = ConcreteIndexNotation::new(a, &Schedule::new().reorder("ikj"), Formats::new());
        let dot = lower(&cin).to_dot();
        assert!(dot.contains("scan Bi"));
        assert!(dot.contains("intersect k"));
        assert!(dot.contains("repeat C over i"));
    }
}
