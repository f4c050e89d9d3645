//! Lowering concrete index notation to *executable* SAM graphs.
//!
//! [`crate::lower()`] places the unwired node multiset that Table 1 and the
//! ablation study count. [`lower_exec`] builds the graph that runs: it
//! emits, through `sam_core::build::GraphBuilder`, a graph whose reference
//! streams thread through every merger and repeater, ready for `sam-exec` to
//! plan and run on any backend. Twelve of the [`crate::graphs`] catalog's
//! entries are its output.
//!
//! The supported fragment is nearly the full parseable language: products,
//! sums and mixed additive/multiplicative expressions of tensor accesses
//! (residual, MatTransMul), merges of any arity, scalar literals and
//! zero-index scalar accesses, and nested sum reductions. What still
//! returns a typed [`LowerExecError`]: terms with no indexed access to
//! drive iteration (`b(i) + 2`), a tensor read twice (bindings are by
//! name), an index variable repeated within the target or within one
//! access (`x(i,i)`, `B(i,i)`: a diagonal is not a storage level), sums
//! with an operand that is dense (broadcast) at a co-iterated
//! variable (`b(i) * (c(i) + d(j))` at `i` — the union would have to
//! enumerate the whole dimension), and reduction structures with no
//! streaming reducer assignment (several non-innermost reduction
//! variables, or an accumulator reducer alongside a union). Lowering
//! proceeds in four phases:
//!
//! 1. **Iteration and merging** — one level scanner per (access, index
//!    variable); where several accesses co-iterate a variable, the merge
//!    *follows the expression tree*: operands of a multiplication intersect,
//!    operands of an addition or subtraction union, so a mixed expression
//!    gets union mergers at its additive co-iterations and intersecters at
//!    its multiplicative ones. Merges of more than two operands chain
//!    binary mergers; the already-merged side's extra reference streams are
//!    re-aligned to the new output coordinate space by *realignment
//!    mergers* — parallel mergers over the same coordinate pair whose ref
//!    lanes carry the references that did not fit through the primary
//!    merger (a unioner/intersecter never inspects reference payloads, so
//!    any stream aligned with its coordinate input threads through
//!    faithfully).
//! 2. **Values and compute** — a value array per indexed access and one ALU
//!    per operator, built by structural recursion over the expression so
//!    non-left-deep trees associate correctly. Literals and zero-index
//!    accesses become [`ConstVal`](sam_core::graph::NodeKind::ConstVal)
//!    source nodes shaped by the value stream they multiply.
//! 3. **Reduction** — reducers are inserted *at* each `Reduce` node of the
//!    expression (not globally at the tail), so a reduction nested under an
//!    addition (residual) closes before the outer ALU consumes it. Within a
//!    reduced subterm, reduction variables forming the innermost loop
//!    suffix use chained scalar reducers; a single non-innermost reduction
//!    variable uses a vector or matrix accumulator (Definition 3.7).
//! 4. **Output construction** — one level writer per target variable over
//!    that variable's final merged coordinate stream, plus the values
//!    writer.
//!
//! Binary intersections whose two operands' level formats differ in density
//! (one dense, one compressed) are emitted with the Section 4.2
//! coordinate-skip feedback edges: the dense side can gallop in O(1), so the
//! sparse side drives and skipped coordinates are never streamed.

use crate::cin::ConcreteIndexNotation;
use crate::lower::access_under_reduction;
use sam_core::build::{GraphBuilder, Port};
use sam_core::graph::SamGraph;
use sam_tensor::expr::{Expr, IndexVar};
use sam_tensor::{LevelFormat, TensorFormat};
use std::collections::BTreeMap;
use std::fmt;

/// An expression the executable lowering cannot handle (yet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerExecError {
    /// A tensor is read more than once (bindings are by name).
    DuplicateAccess {
        /// The tensor read twice.
        tensor: String,
    },
    /// The target or one access names an index variable more than once
    /// (`x(i,i)`, `B(i,i)`): a diagonal has no storage level to scan or
    /// write.
    RepeatedIndex {
        /// The tensor indexed by a repeated variable.
        tensor: String,
        /// The index variable.
        index: IndexVar,
    },
    /// A format override has another number of levels than the access it
    /// formats has index variables (`csf(3)` for `B(i,j)`).
    FormatOrder {
        /// The overridden tensor.
        tensor: String,
        /// The access's order: how many index variables it names.
        access: usize,
        /// The override's order: how many levels it stores.
        format: usize,
    },
    /// A term carries no indexed tensor access, so nothing drives its
    /// iteration space (a bare literal sum operand, a reduction over
    /// constants, or a constant right-hand side).
    ConstantTerm,
    /// One side of an addition/subtraction has no coordinates at a
    /// co-iterated index variable but would be broadcast over it (e.g.
    /// `b(i) * (c(i) + d(j))` at `i`): the union would have to cover the
    /// whole dimension, which the sparse iteration space cannot enumerate.
    BroadcastAddend {
        /// The index variable.
        index: IndexVar,
    },
    /// The reduction structure has no streaming reducer assignment (e.g.
    /// several non-innermost reduction variables).
    UnsupportedReduction,
    /// A target index variable never appears on the right-hand side.
    UndrivenTarget {
        /// The index variable.
        index: IndexVar,
    },
    /// The compute tree did not consume every access exactly once — an
    /// internal lowering invariant, promoted to a typed error so a release
    /// build fails loudly instead of mis-wiring the compute tree.
    ComputeTreeMismatch {
        /// Accesses the expression holds.
        expected: usize,
        /// Accesses the compute tree visited.
        visited: usize,
    },
    /// Phase-1 merging dropped or duplicated an operand's reference stream
    /// at one index variable — an internal invariant of the chained
    /// realignment mergers, promoted to a typed error.
    MergeRefMismatch {
        /// The index variable being merged.
        index: IndexVar,
        /// Scanned producers at that variable.
        producers: usize,
        /// Reference streams the merge tree re-aligned.
        aligned: usize,
    },
}

impl fmt::Display for LowerExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerExecError::DuplicateAccess { tensor } => {
                write!(f, "tensor `{tensor}` is read more than once")
            }
            LowerExecError::RepeatedIndex { tensor, index } => {
                write!(f, "`{tensor}` is indexed by `{index}` more than once")
            }
            LowerExecError::FormatOrder { tensor, access, format } => {
                let levels = if *format == 1 { "level" } else { "levels" };
                write!(f, "the format of `{tensor}` stores {format} {levels}; `{tensor}` has order {access}")
            }
            LowerExecError::ConstantTerm => {
                write!(f, "a term contains no indexed tensor access to drive iteration")
            }
            LowerExecError::BroadcastAddend { index } => {
                write!(f, "a sum operand is dense (broadcast) at `{index}`; the union cannot enumerate it")
            }
            LowerExecError::UnsupportedReduction => {
                write!(f, "reduction structure has no streaming reducer assignment")
            }
            LowerExecError::UndrivenTarget { index } => {
                write!(f, "target variable `{index}` does not appear on the right-hand side")
            }
            LowerExecError::ComputeTreeMismatch { expected, visited } => {
                write!(f, "compute tree visited {visited} of {expected} accesses (lowering bug)")
            }
            LowerExecError::MergeRefMismatch { index, producers, aligned } => {
                write!(
                    f,
                    "merging `{index}` re-aligned {aligned} of {producers} reference streams \
                     (lowering bug)"
                )
            }
        }
    }
}

impl std::error::Error for LowerExecError {}

/// An executable graph plus the storage format each operand must be bound
/// with (levels ordered by the dataflow's iteration order).
#[derive(Debug, Clone)]
pub struct ExecutableKernel {
    /// The executable SAM graph.
    pub graph: SamGraph,
    /// Per-operand storage formats for the indexed accesses, in access
    /// order.
    pub formats: Vec<(String, TensorFormat)>,
    /// Zero-index (scalar) operands, in access order; each must be bound as
    /// a single-value tensor.
    pub scalars: Vec<String>,
}

impl ExecutableKernel {
    /// Runs the structural static verifier (`sam-verify`) over the lowered
    /// graph: port protocol, acyclicity, skip-lane contract, writer rules,
    /// plus all graph lints. Binding-level rules (formats, ranks, scalars)
    /// need the executor's planning path, which verifies against the bound
    /// tensors.
    pub fn verify(&self) -> sam_verify::Report {
        sam_verify::verify(&self.graph)
    }
}

/// One scanned operand of an index variable: the scanner's outputs plus the
/// level format (which the skip heuristic consults).
#[derive(Clone, Copy)]
struct ScanProducer {
    crd: Port,
    rf: Port,
    level: LevelFormat,
}

/// A (possibly chained) merge result at one index variable: the merged
/// coordinate stream and, per participating access ordinal, a reference
/// stream aligned with it.
struct Merged {
    crd: Port,
    refs: Vec<(usize, Port)>,
    /// The level format when `crd` is still a raw scanner output (skip
    /// heuristic input); `None` once anything merged.
    scan_fmt: Option<LevelFormat>,
}

/// Merges the scanned producers of `var` following the expression tree:
/// intersect under multiplication, union under addition/subtraction.
/// `next` walks the accesses in `Expr::accesses` order; `broadcasts`
/// answers whether the access at an ordinal would be *broadcast* over
/// `var` (phase 1's repeater-placement rule).
///
/// An Add/Sub side with no producer at `var` is harmless when it has no
/// presence at `var` at all (residual's `b(i)` while merging `j`: the
/// reduction closes before the subtraction). But a side that would be
/// broadcast over `var` is dense there — `b(i) * (c(i) + d(j))` at `i`
/// would need the union to cover the whole dimension, which the sparse
/// iteration space cannot enumerate — so that shape is a typed error, not
/// a silent collapse onto the scanned side.
fn merge_for_var(
    g: &mut GraphBuilder,
    expr: &Expr,
    var: IndexVar,
    producers: &[(usize, ScanProducer)],
    next: &mut usize,
    broadcasts: &dyn Fn(usize, IndexVar) -> bool,
) -> Result<Option<Merged>, LowerExecError> {
    match expr {
        Expr::Access { .. } => {
            let ordinal = *next;
            *next += 1;
            let producer = producers.iter().find(|&&(o, _)| o == ordinal).map(|(_, p)| p);
            Ok(producer.map(|p| Merged { crd: p.crd, refs: vec![(ordinal, p.rf)], scan_fmt: Some(p.level) }))
        }
        Expr::Literal(_) => Ok(None),
        Expr::Mul(a, b) | Expr::Add(a, b) | Expr::Sub(a, b) => {
            let union = !matches!(expr, Expr::Mul(..));
            let a_start = *next;
            let ma = merge_for_var(g, a, var, producers, next, broadcasts)?;
            let b_start = *next;
            let mb = merge_for_var(g, b, var, producers, next, broadcasts)?;
            let b_end = *next;
            let dense_addend = |range: std::ops::Range<usize>| range.clone().any(|o| broadcasts(o, var));
            match (ma, mb) {
                (Some(a), Some(b)) => Ok(Some(combine(g, var, a, b, union))),
                (Some(m), None) => {
                    if union && dense_addend(b_start..b_end) {
                        return Err(LowerExecError::BroadcastAddend { index: var });
                    }
                    Ok(Some(m))
                }
                (None, Some(m)) => {
                    if union && dense_addend(a_start..b_start) {
                        return Err(LowerExecError::BroadcastAddend { index: var });
                    }
                    Ok(Some(m))
                }
                (None, None) => Ok(None),
            }
        }
        Expr::Reduce { body, .. } => merge_for_var(g, body, var, producers, next, broadcasts),
    }
}

/// Combines two merged sides with one primary binary merger plus one
/// realignment merger per reference stream beyond the first on each side.
fn combine(g: &mut GraphBuilder, var: IndexVar, a: Merged, b: Merged, union: bool) -> Merged {
    // The Section 4.2 skip heuristic: a plain binary intersection of two
    // raw scanner outputs whose levels differ in density. Realignment
    // mergers would fan the scanner outputs out past the intersecter, which
    // the planner's skip validation (rightly) rejects, so chains stay plain.
    let single = a.refs.len() == 1 && b.refs.len() == 1;
    let use_skip = !union
        && single
        && match (a.scan_fmt, b.scan_fmt) {
            (Some(fa), Some(fb)) => (fa == LevelFormat::Dense) != (fb == LevelFormat::Dense),
            _ => false,
        };
    let crds = [a.crd, b.crd];
    let primary = [a.refs[0].1, b.refs[0].1];
    let (crd, out_refs) = if union {
        g.union(var, crds, primary)
    } else if use_skip {
        g.intersect_with_skip(var, crds, primary)
    } else {
        g.intersect(var, crds, primary)
    };
    let mut refs = vec![(a.refs[0].0, out_refs[0]), (b.refs[0].0, out_refs[1])];
    // Realignment mergers: same coordinate pair, one leftover reference
    // through the matching ref lane; the other lanes' outputs dangle.
    for &(ordinal, rf) in &a.refs[1..] {
        let (_, extra) = if union {
            g.union(var, crds, [rf, b.refs[0].1])
        } else {
            g.intersect(var, crds, [rf, b.refs[0].1])
        };
        refs.push((ordinal, extra[0]));
    }
    for &(ordinal, rf) in &b.refs[1..] {
        let (_, extra) = if union {
            g.union(var, crds, [a.refs[0].1, rf])
        } else {
            g.intersect(var, crds, [a.refs[0].1, rf])
        };
        refs.push((ordinal, extra[1]));
    }
    Merged { crd, refs, scan_fmt: None }
}

/// A constant operand gathered while walking a product: a literal or a
/// zero-index scalar access, to be attached as a `ConstVal` source once a
/// value stream provides the shape.
enum ConstAtom {
    Lit(f64),
    Scalar(String),
}

/// The result of lowering a subexpression's values: a value stream, or
/// constants still waiting for a stream to shape them.
enum Built {
    Stream(Port),
    Consts(Vec<ConstAtom>),
}

/// Everything the compute-tree recursion reads besides the expression.
struct ComputeCx<'a> {
    loop_order: &'a [IndexVar],
    target_indices: &'a [IndexVar],
    reduction_vars: &'a [IndexVar],
    rhs: &'a Expr,
    /// Every access, with the index variables it is stored over.
    accesses: &'a [(&'a str, &'a [IndexVar])],
    arrays: &'a [Option<Port>],
    /// Per access, whether it is a zero-index (scalar) access.
    scalar: &'a [bool],
    has_additive: bool,
}

impl ComputeCx<'_> {
    /// The loop variables structuring a subterm's value stream: every
    /// variable one of its accesses scans, plus every variable one of them
    /// is broadcast over (mirroring the phase-1 repeater placement).
    fn term_vars(
        &self,
        ordinals: std::ops::Range<usize>,
        var_crd: &BTreeMap<IndexVar, Port>,
    ) -> Vec<IndexVar> {
        self.loop_order
            .iter()
            .copied()
            .filter(|v| var_crd.contains_key(v))
            .filter(|v| {
                ordinals.clone().any(|o| {
                    self.accesses[o].1.contains(v)
                        || (!self.scalar[o]
                            && (self.target_indices.contains(v)
                                || (self.reduction_vars.contains(v)
                                    && access_under_reduction(self.rhs, o, *v))))
                })
            })
            .collect()
    }
}

/// Attaches constant atoms to a value stream: one `ConstVal` source (shaped
/// by the running stream) and one multiply ALU per atom.
fn attach_consts(g: &mut GraphBuilder, mut stream: Port, atoms: &[ConstAtom], const_left: bool) -> Port {
    for atom in atoms.iter().rev() {
        let cport = match atom {
            ConstAtom::Lit(v) => g.literal(*v, stream),
            ConstAtom::Scalar(name) => g.scalar_source(name, stream),
        };
        stream = if const_left { g.alu("mul", cport, stream) } else { g.alu("mul", stream, cport) };
    }
    stream
}

/// Applies the reducers for `vars` to `tail`, selecting chained scalar
/// reducers for an innermost suffix and a vector/matrix accumulator for a
/// single non-innermost variable (Definition 3.7).
fn apply_reduce(
    g: &mut GraphBuilder,
    cx: &ComputeCx<'_>,
    var_crd: &mut BTreeMap<IndexVar, Port>,
    vars: &[IndexVar],
    term: &[IndexVar],
    mut tail: Port,
) -> Result<Port, LowerExecError> {
    let positions: Vec<usize> = vars
        .iter()
        .map(|v| term.iter().position(|tv| tv == v).ok_or(LowerExecError::UnsupportedReduction))
        .collect::<Result<_, _>>()?;
    let innermost_suffix = positions.iter().all(|&p| p >= term.len() - vars.len());
    if innermost_suffix {
        for _ in vars {
            tail = g.reduce_scalar(tail);
        }
        return Ok(tail);
    }
    if vars.len() != 1 || cx.has_additive {
        // Accumulator reducers re-emit coordinate streams; interleaving
        // that with union-merged siblings has no sound alignment yet.
        return Err(LowerExecError::UnsupportedReduction);
    }
    let below: Vec<IndexVar> = term[positions[0] + 1..].to_vec();
    if !below.iter().all(|v| cx.target_indices.contains(v)) {
        return Err(LowerExecError::UnsupportedReduction);
    }
    match below.len() {
        1 => {
            let crd = var_crd[&below[0]];
            let (out_crd, out_val) = g.reduce_vector(crd, tail);
            var_crd.insert(below[0], out_crd);
            Ok(out_val)
        }
        2 => {
            let crds = [var_crd[&below[0]], var_crd[&below[1]]];
            let (out_crds, out_val) = g.reduce_matrix(crds, tail);
            var_crd.insert(below[0], out_crds[0]);
            var_crd.insert(below[1], out_crds[1]);
            Ok(out_val)
        }
        _ => Err(LowerExecError::UnsupportedReduction),
    }
}

/// Builds the value/compute tree for `expr`, inserting reducers at each
/// `Reduce` node. `next` walks the accesses in `Expr::accesses` order.
fn build_compute(
    g: &mut GraphBuilder,
    cx: &ComputeCx<'_>,
    var_crd: &mut BTreeMap<IndexVar, Port>,
    expr: &Expr,
    next: &mut usize,
) -> Result<Built, LowerExecError> {
    match expr {
        Expr::Access { tensor, indices } => {
            let ordinal = *next;
            *next += 1;
            if indices.is_empty() {
                Ok(Built::Consts(vec![ConstAtom::Scalar(tensor.clone())]))
            } else {
                Ok(Built::Stream(cx.arrays[ordinal].expect("indexed access has an array")))
            }
        }
        Expr::Literal(v) => Ok(Built::Consts(vec![ConstAtom::Lit(*v)])),
        Expr::Mul(a, b) => {
            let la = build_compute(g, cx, var_crd, a, next)?;
            let lb = build_compute(g, cx, var_crd, b, next)?;
            Ok(match (la, lb) {
                (Built::Stream(x), Built::Stream(y)) => Built::Stream(g.alu("mul", x, y)),
                (Built::Stream(x), Built::Consts(atoms)) => Built::Stream(attach_consts(g, x, &atoms, false)),
                (Built::Consts(atoms), Built::Stream(y)) => Built::Stream(attach_consts(g, y, &atoms, true)),
                (Built::Consts(mut a), Built::Consts(b)) => {
                    a.extend(b);
                    Built::Consts(a)
                }
            })
        }
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            let op = if matches!(expr, Expr::Add(..)) { "add" } else { "sub" };
            let la = build_compute(g, cx, var_crd, a, next)?;
            let lb = build_compute(g, cx, var_crd, b, next)?;
            // A constant sum operand has no iteration space of its own
            // (`b(i) + 1` is dense everywhere), so it stays rejected.
            let (Built::Stream(x), Built::Stream(y)) = (la, lb) else {
                return Err(LowerExecError::ConstantTerm);
            };
            Ok(Built::Stream(g.alu(op, x, y)))
        }
        Expr::Reduce { vars, body } => {
            let start = *next;
            let inner = build_compute(g, cx, var_crd, body, next)?;
            let Built::Stream(tail) = inner else {
                return Err(LowerExecError::ConstantTerm);
            };
            let term = cx.term_vars(start..*next, var_crd);
            Ok(Built::Stream(apply_reduce(g, cx, var_crd, vars, &term, tail)?))
        }
    }
}

/// Lowers concrete index notation to an executable SAM graph.
///
/// ```
/// use custard::{lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
/// let a = parse("x(i) = B(i,j) * c(j)").unwrap();
/// let cin = ConcreteIndexNotation::new(a, &Schedule::new(), Formats::new());
/// let kernel = lower_exec(&cin).unwrap();
/// assert_eq!(kernel.formats.len(), 2);
/// ```
///
/// # Errors
///
/// Returns a [`LowerExecError`] when the expression falls outside the
/// executable fragment; see the module docs.
pub fn lower_exec(cin: &ConcreteIndexNotation) -> Result<ExecutableKernel, LowerExecError> {
    let assignment = &cin.assignment;
    let rhs = &assignment.rhs;

    let accesses = rhs.accesses();
    // Before any format is derived: a repeated variable would make a mode
    // order that is no permutation, or silently drop a storage level.
    let target = (assignment.target.as_str(), assignment.target_indices.as_slice());
    for (tensor, indices) in std::iter::once(target).chain(accesses.iter().copied()) {
        if let Some((_, &index)) = indices.iter().enumerate().find(|&(i, v)| indices[..i].contains(v)) {
            return Err(LowerExecError::RepeatedIndex { tensor: tensor.to_string(), index });
        }
    }
    for (at, (name, _)) in accesses.iter().enumerate() {
        if accesses[..at].iter().any(|(seen, _)| seen == name) {
            return Err(LowerExecError::DuplicateAccess { tensor: name.to_string() });
        }
    }
    let reduction_vars: Vec<IndexVar> = assignment.reduction_vars();

    // Derive each indexed operand's storage format: levels follow the loop
    // order's projection onto the access's index variables; per-mode level
    // formats come from the user's format declarations, defaulting to
    // compressed. Zero-index accesses carry no storage; they are collected
    // as scalars and lowered to `ConstVal` sources in phase 2.
    let mut formats: Vec<(String, TensorFormat)> = Vec::with_capacity(accesses.len());
    let mut scalars: Vec<String> = Vec::new();
    let mut scalar: Vec<bool> = Vec::with_capacity(accesses.len());
    // Per access, its entry in `formats` (none for a scalar).
    let mut format_at: Vec<Option<usize>> = Vec::with_capacity(accesses.len());
    for (name, indices) in &accesses {
        if let Some(format) = cin.formats.get(name).filter(|f| f.order() != indices.len()) {
            let (access, format) = (indices.len(), format.order());
            return Err(LowerExecError::FormatOrder { tensor: name.to_string(), access, format });
        }
        if indices.is_empty() {
            scalars.push(name.to_string());
            scalar.push(true);
            format_at.push(None);
            continue;
        }
        // The access's variables in loop order, as positions among its
        // indices: every one of them is a loop variable.
        let mode_order: Vec<usize> =
            cin.loop_order.iter().filter_map(|v| indices.iter().position(|iv| iv == v)).collect();
        let levels: Vec<LevelFormat> = mode_order
            .iter()
            .map(|&m| {
                cin.formats
                    .get(name)
                    .and_then(|f| f.mode_order().iter().position(|&fm| fm == m).map(|l| f.levels()[l]))
                    .unwrap_or(LevelFormat::Compressed)
            })
            .collect();
        format_at.push(Some(formats.len()));
        formats.push((name.to_string(), TensorFormat::with_mode_order(levels, mode_order)));
        scalar.push(false);
    }

    // Room for a root, an array and an ALU per access, a scanner and a
    // merger per storage level, a reducer per loop variable and the
    // writers; most nodes take two inputs.
    let levels: usize = accesses.iter().map(|(_, indices)| indices.len()).sum();
    let nodes = 3 * accesses.len() + 2 * levels + cin.loop_order.len() + assignment.target_indices.len() + 1;
    let mut g = GraphBuilder::with_capacity(assignment.to_string(), nodes, 2 * nodes);
    let mut cur_ref: Vec<Option<Port>> = accesses
        .iter()
        .enumerate()
        .map(|(o, (name, _))| if scalar[o] { None } else { Some(g.root(name)) })
        .collect();
    let mut scan_depth = vec![0usize; accesses.len()];
    let mut var_crd: BTreeMap<IndexVar, Port> = BTreeMap::new();

    // Whether the access at `ordinal` is broadcast (repeated) over `var` —
    // phase 1's repeater-placement rule, also consulted by the merge tree
    // to reject dense addends.
    let broadcasts = |ordinal: usize, var: IndexVar| -> bool {
        !accesses[ordinal].1.contains(&var)
            && !scalar[ordinal]
            && (assignment.target_indices.contains(&var)
                || (reduction_vars.contains(&var) && access_under_reduction(rhs, ordinal, var)))
    };

    // Phase 1: iteration and merging, one loop level at a time. The
    // producers of each variable, by access ordinal.
    let mut producers: Vec<(usize, ScanProducer)> = Vec::with_capacity(accesses.len());
    for &var in &cin.loop_order {
        producers.clear();
        for (ordinal, (name, _)) in accesses.iter().enumerate() {
            if !accesses[ordinal].1.contains(&var) {
                continue;
            }
            let format = format_at[ordinal].map(|at| &formats[at].1);
            let level = format.map_or(LevelFormat::Compressed, |f| f.level(scan_depth[ordinal]));
            let compressed = !matches!(level, LevelFormat::Dense);
            let (crd, rf) = g.scan(name, var, compressed, cur_ref[ordinal].expect("indexed root"));
            scan_depth[ordinal] += 1;
            cur_ref[ordinal] = Some(rf);
            producers.push((ordinal, ScanProducer { crd, rf, level }));
        }
        if producers.is_empty() {
            continue;
        }
        let merged_crd = {
            // The merge tree also runs for a single producer: it builds no
            // mergers then, but still rejects dense (broadcast) addends
            // that a union could not enumerate.
            let n_producers = producers.len();
            let mut next = 0;
            let merged = merge_for_var(&mut g, rhs, var, &producers, &mut next, &broadcasts)?
                .expect("producers are nonempty");
            if merged.refs.len() != n_producers {
                return Err(LowerExecError::MergeRefMismatch {
                    index: var,
                    producers: n_producers,
                    aligned: merged.refs.len(),
                });
            }
            for (ordinal, rf) in &merged.refs {
                cur_ref[*ordinal] = Some(*rf);
            }
            merged.crd
        };
        // Broadcast operands that skip this variable but are consumed once
        // per coordinate of it.
        for (ordinal, (name, _)) in accesses.iter().enumerate() {
            if accesses[ordinal].1.contains(&var) || scalar[ordinal] {
                continue;
            }
            if broadcasts(ordinal, var) {
                let prev = cur_ref[ordinal].expect("indexed root");
                cur_ref[ordinal] = Some(g.repeat(name, var, merged_crd, prev));
            }
        }
        var_crd.insert(var, merged_crd);
    }

    // Phase 2: value loads and the compute tree (reducers inline at each
    // `Reduce` node); accesses are visited in `Expr::accesses` order.
    let arrays: Vec<Option<Port>> =
        accesses.iter().enumerate().map(|(o, (name, _))| cur_ref[o].map(|rf| g.array(name, rf))).collect();
    let cx = ComputeCx {
        loop_order: &cin.loop_order,
        target_indices: &assignment.target_indices,
        reduction_vars: &reduction_vars,
        rhs,
        accesses: &accesses,
        arrays: &arrays,
        scalar: &scalar,
        has_additive: rhs.has_additive_op(),
    };
    let mut next = 0;
    let built = build_compute(&mut g, &cx, &mut var_crd, rhs, &mut next)?;
    if next != accesses.len() {
        return Err(LowerExecError::ComputeTreeMismatch { expected: accesses.len(), visited: next });
    }
    let Built::Stream(mut tail) = built else {
        return Err(LowerExecError::ConstantTerm);
    };

    // Phase 3: reduction variables with no explicit `Reduce` node (legacy
    // Expr-API assignments) reduce at the tail, as the paper's loop nest
    // implies.
    let reduced = rhs.reduced_vars();
    let missing: Vec<IndexVar> = reduction_vars.iter().copied().filter(|v| !reduced.contains(v)).collect();
    if !missing.is_empty() {
        let term = cx.term_vars(0..accesses.len(), &var_crd);
        tail = apply_reduce(&mut g, &cx, &mut var_crd, &missing, &term, tail)?;
    }

    // Phase 4: output construction.
    for &var in &assignment.target_indices {
        let crd = var_crd.get(&var).ok_or(LowerExecError::UndrivenTarget { index: var })?;
        g.write_level(&assignment.target, var, *crd);
    }
    g.write_vals(&assignment.target, tail);

    let kernel = ExecutableKernel { graph: g.finish(), formats, scalars };
    // Every graph this lowering emits must pass the static verifier
    // structurally — a diagnostic here is a compiler bug, not a user error.
    debug_assert!(
        !kernel.verify().has_errors(),
        "lower_exec emitted a graph the static verifier rejects:\n{}",
        kernel.verify().render()
    );
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cin::{Formats, Schedule};
    use crate::parser::parse;
    use sam_core::graph::{NodeKind, StreamKind};

    fn lower_text(text: &str, order: Option<&str>) -> Result<ExecutableKernel, LowerExecError> {
        let a = parse(text).unwrap();
        let schedule = match order {
            Some(o) => Schedule::new().reorder(o),
            None => Schedule::new(),
        };
        lower_exec(&ConcreteIndexNotation::new(a, &schedule, Formats::new()))
    }

    /// An override must store one level per index variable of the access
    /// it formats: one of another order is rejected, never reshaped (modes
    /// it misses read as compressed, levels past the access dropped).
    #[test]
    fn a_format_override_of_another_order_is_rejected() -> Result<(), Box<dyn std::error::Error>> {
        let assignment = parse("x(i) = B(i,j) * c(j)")?;
        let lower = |tensor: &str, format: TensorFormat| {
            let formats = Formats::new().set(tensor, format);
            lower_exec(&ConcreteIndexNotation::new(assignment.clone(), &Schedule::new(), formats))
                .map(|kernel| kernel.formats)
        };
        let rejected = |tensor: &str, access, format| {
            Err(LowerExecError::FormatOrder { tensor: tensor.to_string(), access, format })
        };
        assert_eq!(lower("B", TensorFormat::csf(3)), rejected("B", 2, 3));
        assert_eq!(lower("B", TensorFormat::sparse_vec()), rejected("B", 2, 1));
        assert_eq!(lower("c", TensorFormat::dcsr()), rejected("c", 1, 2));
        let message = LowerExecError::FormatOrder { tensor: "B".into(), access: 2, format: 3 }.to_string();
        assert!(message.contains("`B`") && message.contains('3') && message.contains('2'), "{message}");
        // An override of the access's order lowers, its modes remapped to
        // the loop order.
        let formats = lower("B", TensorFormat::dcsc())?;
        assert!(formats.iter().any(|(name, format)| name == "B" && format.order() == 2));
        Ok(())
    }

    #[test]
    fn spmv_lowers_with_ported_edges() {
        let kernel = lower_text("x(i) = B(i,j) * c(j)", None).unwrap();
        let c = kernel.graph.primitive_counts();
        assert_eq!(c.level_scan, 3);
        assert_eq!(c.intersect, 1);
        assert_eq!(c.repeat, 1);
        assert_eq!(c.reduce, 1);
        assert_eq!(c.level_write, 2);
    }

    #[test]
    fn spmm_orders_pick_matching_reducers() {
        let inner = lower_text("X(i,j) = B(i,k) * C(k,j)", Some("ijk")).unwrap();
        assert!(inner.graph.has_kind(|n| matches!(n, NodeKind::Reducer { order: 0 })));
        let gustavson = lower_text("X(i,j) = B(i,k) * C(k,j)", Some("ikj")).unwrap();
        assert!(gustavson.graph.has_kind(|n| matches!(n, NodeKind::Reducer { order: 1 })));
        let outer = lower_text("X(i,j) = B(i,k) * C(k,j)", Some("kij")).unwrap();
        assert!(outer.graph.has_kind(|n| matches!(n, NodeKind::Reducer { order: 2 })));
    }

    #[test]
    fn derived_formats_follow_loop_order() {
        let kernel = lower_text("X(i,j) = B(i,k) * C(k,j)", Some("ijk")).unwrap();
        let c_fmt = &kernel.formats.iter().find(|(n, _)| n == "C").unwrap().1;
        // Inner product iterates C by columns: storage order [j, k].
        assert_eq!(c_fmt.mode_order(), &[1, 0]);
    }

    #[test]
    fn additions_lower_to_unions() {
        let kernel = lower_text("X(i,j) = B(i,j) + C(i,j)", None).unwrap();
        assert!(kernel.graph.has_kind(|n| matches!(n, NodeKind::Unioner { .. })));
        assert!(!kernel.graph.has_kind(|n| matches!(n, NodeKind::Intersecter { .. })));
    }

    #[test]
    fn residual_selects_union_then_intersect() {
        // x(i) = b(i) - sum_j C(i,j)*d(j): the additive co-iteration at i
        // unions, the multiplicative one at j intersects, and the reducer
        // closes inside the subtraction.
        let kernel = lower_text("x(i) = b(i) - C(i,j) * d(j)", None).unwrap();
        let c = kernel.graph.primitive_counts();
        assert_eq!(c.union, 1);
        assert_eq!(c.intersect, 1);
        assert_eq!(c.reduce, 1);
        assert_eq!(c.alu, 2); // mul inside the sum, sub outside
        assert_eq!(c.repeat, 1); // d broadcast over i
        assert_eq!(c.array, 3);
        assert_eq!(c.level_write, 2);
    }

    #[test]
    fn nary_union_chains_with_realignment_mergers() {
        let kernel = lower_text("X(i,j) = B(i,j) + C(i,j) + D(i,j)", None).unwrap();
        let c = kernel.graph.primitive_counts();
        // Per variable: one primary chain of 2 unions plus 1 realignment
        // merger for the first pair's second reference stream.
        assert_eq!(c.union, 6);
        assert_eq!(c.intersect, 0);
        assert_eq!(c.alu, 2);
        assert_eq!(c.array, 3);
        assert_eq!(c.level_write, 3);
    }

    #[test]
    fn nary_intersect_chains() {
        let kernel = lower_text("x(i) = b(i) * c(i) * d(i)", None).unwrap();
        let c = kernel.graph.primitive_counts();
        assert_eq!(c.intersect, 3);
        assert_eq!(c.union, 0);
        assert_eq!(c.alu, 2);
    }

    #[test]
    fn literals_and_scalars_become_const_sources() {
        let kernel = lower_text("x(i) = 2.5 * b(i)", None).unwrap();
        assert!(kernel.graph.has_kind(|n| matches!(n, NodeKind::ConstVal { .. })));
        assert!(kernel.scalars.is_empty());

        let mtm = lower_text("x(i) = alpha * B(j,i) * c(j) + beta * d(i)", None).unwrap();
        assert_eq!(mtm.scalars, vec!["alpha".to_string(), "beta".to_string()]);
        let consts = mtm.graph.nodes().iter().filter(|n| matches!(n, NodeKind::ConstVal { .. })).count();
        assert_eq!(consts, 2);
        let c = mtm.graph.primitive_counts();
        assert_eq!(c.union, 1);
        assert_eq!(c.intersect, 1);
        assert_eq!(c.reduce, 1);
        // alpha*B, (alpha*B)*c, beta*d, term1+term2.
        assert_eq!(c.alu, 4);
        // Only B, c, d load values; the scalars ride on const sources.
        assert_eq!(c.array, 3);
    }

    #[test]
    fn skip_heuristic_fires_on_density_skew_only() {
        use sam_tensor::TensorFormat;
        let a = parse("x(i) = B(i,j) * c(j)").unwrap();
        // Dense vector against compressed matrix rows: skip edges appear.
        let dense_c = Formats::new().set("c", TensorFormat::dense_vec());
        let cin = ConcreteIndexNotation::new(a.clone(), &Schedule::new(), dense_c);
        let skipped = lower_exec(&cin).unwrap();
        let count = |g: &SamGraph| g.edges().iter().filter(|e| e.kind == StreamKind::Skip).count();
        assert_eq!(count(&skipped.graph), 2, "sparse-x-dense intersect should get both skip lanes");
        for e in skipped.graph.edges().iter().filter(|e| e.kind == StreamKind::Skip) {
            assert!(matches!(skipped.graph.nodes()[e.from.0], NodeKind::Intersecter { .. }));
            assert!(matches!(skipped.graph.nodes()[e.to.0], NodeKind::LevelScanner { .. }));
        }

        // Both compressed: no skew, no skip edges.
        let cin = ConcreteIndexNotation::new(a, &Schedule::new(), Formats::new());
        assert_eq!(count(&lower_exec(&cin).unwrap().graph), 0);

        // Skip edges are pure feedback wiring: the graph without them is
        // still a legal one (what the ablations run).
        let mut plain = skipped.graph.clone();
        plain.edges_mut().retain(|e| e.kind != StreamKind::Skip);
        assert_eq!(plain.edges().len() + 2, skipped.graph.edges().len());
        assert!(!sam_verify::verify(&plain).has_errors(), "{}", sam_verify::verify(&plain).render());
    }

    #[test]
    fn broadcast_addends_are_rejected_not_miscompiled() {
        // The sum is dense at `i` through the broadcast addend: collapsing
        // the union onto the scanned side would silently drop rows.
        assert_eq!(
            lower_text("x(i) = b(i) * (c(i) + d(j))", None).unwrap_err(),
            LowerExecError::BroadcastAddend { index: 'i' }
        );
        assert_eq!(
            lower_text("x(i) = c(i) + d(j)", None).unwrap_err(),
            LowerExecError::BroadcastAddend { index: 'i' }
        );
        // Residual-shaped absences stay fine: `b(i)` has no presence at `j`
        // because the reduction closes below the subtraction.
        assert!(lower_text("x(i) = b(i) - C(i,j) * d(j)", None).is_ok());
        // A same-variable sum nested under a product lowers to a union
        // feeding an intersection.
        let k = lower_text("X(i,j) = (b(i) + c(i)) * D(i,j)", None).unwrap();
        let c = k.graph.primitive_counts();
        assert_eq!(c.union, 1);
        // One primary intersect plus one realignment intersect re-aligning
        // the union's second reference stream.
        assert_eq!(c.intersect, 2);
    }

    #[test]
    fn unsupported_shapes_report_errors() {
        assert_eq!(
            lower_text("x(i) = B(i,j) * B(i,j)", None).unwrap_err(),
            LowerExecError::DuplicateAccess { tensor: "B".into() }
        );
        // A bare literal as a sum operand has no iteration space.
        assert_eq!(lower_text("x(i) = b(i) + 2", None).unwrap_err(), LowerExecError::ConstantTerm);
        assert_eq!(lower_text("x(i) = 3", None).unwrap_err(), LowerExecError::ConstantTerm);
        // A repeated index variable, in the target or in one access, has no
        // storage level: rejected before any format is derived.
        for (text, tensor, index) in
            [("x(i,i) = b(i)", "x", 'i'), ("X(j,j) = B(i,j,k) * c(k)", "X", 'j'), ("x(i) = B(i,i)", "B", 'i')]
        {
            assert_eq!(
                lower_text(text, None).unwrap_err(),
                LowerExecError::RepeatedIndex { tensor: tensor.into(), index },
                "{text}"
            );
        }
    }

    #[test]
    fn mttkrp_uses_chained_scalar_reducers() {
        let kernel = lower_text("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", None).unwrap();
        let counts = kernel.graph.primitive_counts();
        assert_eq!(counts.reduce, 2);
        assert_eq!(counts.intersect, 3);
    }

    #[test]
    fn separate_reductions_close_before_their_sum() {
        // Two independently reduced terms added at the output variable:
        // each gets its own scalar reducer inside its own term.
        let kernel = lower_text("x(i) = B(i,j) * c(j) + C(i,k) * d(k)", None).unwrap();
        let counts = kernel.graph.primitive_counts();
        assert_eq!(counts.reduce, 2);
        assert_eq!(counts.union, 1);
        assert_eq!(counts.intersect, 2);
    }
}
