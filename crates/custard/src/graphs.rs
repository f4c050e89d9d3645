//! The paper's kernels as executable [`SamGraph`]s: the catalog the
//! figures, the pinned cycle counts and `samlint` run.
//!
//! A kernel whose graph [`lower_exec`] derives is that lowering, at the loop
//! order and operand formats the figure binds. The nine graphs `lower_exec`
//! cannot derive yet are still wired by hand through [`GraphBuilder`]: they
//! place a coordinate dropper or a locator, which the lowering never does,
//! chain MTTKRP's vector reducers at a loop order the lowering rejects, or
//! (the co-iterating SDDMM) place one repeater fewer than it. A `_with_skip`
//! twin is its plain graph plus the Section 4.2 coordinate-skip feedback
//! lanes on the named index variables. `sam-exec` plans and runs any of them
//! on every backend; stream fan-out is implicit, and the planner inserts the
//! forks the cycle backend needs.
//!
//! The enums at the top are the legends of Figures 11–13: plain data naming
//! which graph (and which operand storage) a figure column stands for.
//! [`catalog`] lists every graph once, for the sweeps that walk them all.

use crate::{lower_exec, parse, ConcreteIndexNotation, Formats, LowerExecError, Schedule};
use sam_core::build::{wire_skip_lanes, GraphBuilder, Port};
use sam_core::graph::{NodeId, NodeKind, SamGraph};
use sam_tensor::TensorFormat;

/// The SpM*SpM dataflow (index-variable iteration order), the three classes
/// of the paper's Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpmmDataflow {
    /// `i -> j -> k`: inner product, as built by SIGMA-style accelerators.
    InnerProduct,
    /// `i -> k -> j`: linear combination of rows (Gustavson, paper Figure 4).
    LinearCombination,
    /// `k -> i -> j`: outer product (OuterSPACE, paper Figure 16).
    OuterProduct,
}

impl SpmmDataflow {
    /// Human-readable name used in the Figure 12 output.
    pub fn label(&self) -> &'static str {
        match self {
            SpmmDataflow::InnerProduct => "inner product",
            SpmmDataflow::LinearCombination => "linear combination of rows",
            SpmmDataflow::OuterProduct => "outer product",
        }
    }

    /// Maps each of the six `ijk` permutations of Figure 12 to its dataflow
    /// class and whether the computation runs on transposed operands
    /// (`X^T = C^T B^T`).
    pub fn from_order(order: &str) -> Option<(SpmmDataflow, bool)> {
        match order {
            "ijk" => Some((SpmmDataflow::InnerProduct, false)),
            "jik" => Some((SpmmDataflow::InnerProduct, true)),
            "ikj" => Some((SpmmDataflow::LinearCombination, false)),
            "jki" => Some((SpmmDataflow::LinearCombination, true)),
            "kij" => Some((SpmmDataflow::OuterProduct, false)),
            "kji" => Some((SpmmDataflow::OuterProduct, true)),
            _ => None,
        }
    }

    /// The storage formats `(B, C)` the [`spmm`] graph of this dataflow
    /// scans: an operand iterated by columns first is stored DCSC.
    pub fn operand_formats(&self) -> (TensorFormat, TensorFormat) {
        match self {
            SpmmDataflow::InnerProduct => (TensorFormat::dcsr(), TensorFormat::dcsc()),
            SpmmDataflow::LinearCombination => (TensorFormat::dcsr(), TensorFormat::dcsr()),
            SpmmDataflow::OuterProduct => (TensorFormat::dcsc(), TensorFormat::dcsr()),
        }
    }
}

/// The SDDMM algorithm variant (the Figure 11 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SddmmVariant {
    /// Fused, the dense factors' outer dimensions co-iterated against `B`
    /// ([`sddmm_coiteration`]).
    FusedCoiteration,
    /// Fused, `B`'s coordinates located into the dense factors
    /// ([`sddmm_locating`]).
    FusedLocating,
    /// Unfused: the dense product `T = C * D^T` ([`spmm`], inner product)
    /// is materialized first and then sampled by `B`
    /// ([`mat_elem_mul_locating`]) — the factorized form the paper argues
    /// against.
    Unfused,
}

impl SddmmVariant {
    /// The label used in the Figure 11 plot.
    pub fn label(&self) -> &'static str {
        match self {
            SddmmVariant::FusedCoiteration => "Fused coiteration",
            SddmmVariant::FusedLocating => "Fused locating",
            SddmmVariant::Unfused => "Unfused",
        }
    }
}

/// The vector storage / acceleration configuration (the Figure 13 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecFormat {
    /// One uncompressed (dense) level: [`vec_elem_mul`]`(false)`.
    Dense,
    /// One compressed coordinate level: [`vec_elem_mul`]`(true)`.
    Crd,
    /// One compressed coordinate level with coordinate skipping:
    /// [`vec_elem_mul_with_skip`]`(true)`.
    CrdSkip,
    /// Two compressed coordinate levels, the vector reshaped into
    /// `[split, chunk]`: [`mat_elem_mul`].
    CrdSplit {
        /// Number of chunks the dimension is divided into.
        split: usize,
    },
    /// One pseudo-dense bitvector level. The monolithic bitvector blocks
    /// have no IR node yet, so this configuration has no graph.
    Bv {
        /// Bits per bitvector word.
        width: u8,
    },
    /// Two bitvector levels (a bit-tree); no graph, like [`VecFormat::Bv`].
    BvSplit {
        /// Bits per bitvector word.
        width: u8,
    },
}

impl VecFormat {
    /// The label used in the Figure 13 plots.
    pub fn label(&self) -> &'static str {
        match self {
            VecFormat::Dense => "Dense",
            VecFormat::Crd => "Crd",
            VecFormat::CrdSkip => "Crd w/ skip",
            VecFormat::CrdSplit { .. } => "Crd w/ split",
            VecFormat::Bv { .. } => "BV",
            VecFormat::BvSplit { .. } => "BV w/ split",
        }
    }

    /// The six configurations studied in Figure 13, with the paper's
    /// parameters (split factor 64, 64-bit words).
    pub fn figure13_set() -> Vec<VecFormat> {
        vec![
            VecFormat::Crd,
            VecFormat::Dense,
            VecFormat::CrdSkip,
            VecFormat::CrdSplit { split: 64 },
            VecFormat::BvSplit { width: 64 },
            VecFormat::Bv { width: 64 },
        ]
    }
}

/// Every graph of this module by display name — the list `samlint --all`,
/// the verifier sweeps and the pinned tile schedules walk.
pub fn catalog() -> Vec<(&'static str, SamGraph)> {
    use SpmmDataflow as D;
    vec![
        ("vec_elem_mul(dense)", vec_elem_mul(false)),
        ("vec_elem_mul(compressed)", vec_elem_mul(true)),
        ("vec_elem_mul_with_skip(dense)", vec_elem_mul_with_skip(false)),
        ("vec_elem_mul_with_skip(compressed)", vec_elem_mul_with_skip(true)),
        ("mat_elem_mul", mat_elem_mul()),
        ("mat_elem_mul_locating", mat_elem_mul_locating()),
        ("identity", identity()),
        ("spmv", spmv()),
        ("spmv_coiteration", spmv_coiteration()),
        ("spmv_with_skip", spmv_with_skip()),
        ("spmm(linear-combination)", spmm(D::LinearCombination)),
        ("spmm(inner-product)", spmm(D::InnerProduct)),
        ("spmm(outer-product)", spmm(D::OuterProduct)),
        ("spmm_with_skip", spmm_with_skip(D::LinearCombination)),
        ("mttkrp", mttkrp()),
        ("residual", residual()),
        ("mat_trans_mul", mat_trans_mul()),
        ("plus3", plus3()),
        ("sddmm_coiteration", sddmm_coiteration()),
        ("sddmm_with_skip", sddmm_with_skip()),
        ("sddmm_locating", sddmm_locating()),
    ]
}

/// The graph [`lower_exec`] derives for `text` at loop order `order`, every
/// operand stored in that order, compressed unless `formats` says otherwise.
fn lowering(text: &str, order: &str, formats: Formats) -> Result<SamGraph, LowerExecError> {
    let assignment = parse(text).expect("catalog expressions parse");
    let cin = ConcreteIndexNotation::new(assignment, &Schedule::new().reorder(order), formats);
    lower_exec(&cin).map(|kernel| kernel.graph)
}

/// The [`lowering`] of an expression the catalog serves as lowered.
fn lowered(text: &str, order: &str, formats: Formats) -> SamGraph {
    lowering(text, order, formats).expect("catalog expressions lower")
}

/// `graph` plus the Section 4.2 coordinate-skip feedback lanes
/// ([`wire_skip_lanes`]) on every intersecter of the index variables `vars`.
///
/// # Panics
///
/// Panics unless every such intersecter merges two level scanners'
/// coordinate outputs: only a scanner can fast-forward its fiber cursor.
fn with_skip(mut graph: SamGraph, vars: &[char]) -> SamGraph {
    let intersecters: Vec<(NodeId, char)> = (0..graph.len())
        .filter_map(|id| match graph.nodes()[id] {
            NodeKind::Intersecter { index } if vars.contains(&index) => Some((NodeId(id), index)),
            _ => None,
        })
        .collect();
    for (intersecter, index) in intersecters {
        wire_skip_lanes(&mut graph, intersecter, index);
    }
    graph
}

/// Element-wise sparse vector multiplication `x(i) = b(i) * c(i)`
/// (Figure 13's `Crd` configuration; pass `compressed = false` for the
/// `Dense` configuration).
pub fn vec_elem_mul(compressed: bool) -> SamGraph {
    let formats = if compressed {
        Formats::new()
    } else {
        Formats::new().set("b", TensorFormat::dense_vec()).set("c", TensorFormat::dense_vec())
    };
    lowered("x(i) = b(i) * c(i)", "i", formats)
}

/// [`vec_elem_mul`] with coordinate-skip feedback on the intersection —
/// the purest demonstration of the Section 4.2 win when one vector is
/// dense-ish and the other hypersparse.
pub fn vec_elem_mul_with_skip(compressed: bool) -> SamGraph {
    with_skip(vec_elem_mul(compressed), &['i'])
}

/// Element-wise matrix multiplication `X(i,j) = B(i,j) * C(i,j)` over two
/// CSF operands, co-iterated level by level; a coordinate dropper removes
/// outer coordinates whose inner intersection came up empty. On a vector
/// reshaped into `[split, chunk]` this is Figure 13's `Crd w/ split`
/// configuration: whole chunks with no overlap are skipped at the outer level.
pub fn mat_elem_mul() -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,j) * C(i,j)");
    let rb = g.root("B");
    let rc = g.root("C");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (ci_crd, ci_ref) = g.scan("C", 'i', true, rc);
    let (i_crd, i_refs) = g.intersect('i', [bi_crd, ci_crd], [bi_ref, ci_ref]);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, i_refs[0]);
    let (cj_crd, cj_ref) = g.scan("C", 'j', true, i_refs[1]);
    let (j_crd, j_refs) = g.intersect('j', [bj_crd, cj_crd], [bj_ref, cj_ref]);
    let b_vals = g.array("B", j_refs[0]);
    let c_vals = g.array("C", j_refs[1]);
    let prod = g.alu("mul", b_vals, c_vals);
    let (xi_out, xj_out) = g.crd_drop('i', i_crd, j_crd);
    g.write_level("X", 'i', xi_out);
    g.write_level("X", 'j', xj_out);
    g.write_vals("X", prod);
    g.finish()
}

/// Element-wise sampling `X(i,j) = B(i,j) * T(i,j)` with `B` DCSR and `T`
/// dense: `B` drives iteration and each of its coordinates is located into
/// `T` (Section 4.2). The second phase of Figure 11's unfused SDDMM.
pub fn mat_elem_mul_locating() -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,j) * T(i,j)");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let rt = g.root("T");
    let t_per_i = g.repeat("T", 'i', bi_crd, rt);
    let (_ti_crd, _ti_pass, ti_ref) = g.locate("T", 'i', bi_crd, t_per_i);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, bi_ref);
    let ti_per_j = g.repeat("T", 'j', bj_crd, ti_ref);
    let (_tj_crd, _tj_pass, tj_ref) = g.locate("T", 'j', bj_crd, ti_per_j);
    let b_vals = g.array("B", bj_ref);
    let t_vals = g.array("T", tj_ref);
    let prod = g.alu("mul", b_vals, t_vals);
    g.write_level("X", 'i', bi_crd);
    g.write_level("X", 'j', bj_crd);
    g.write_vals("X", prod);
    g.finish()
}

/// The matrix identity `X(i,j) = B(i,j)` of the Figure 14 stream study.
pub fn identity() -> SamGraph {
    lowered("X(i,j) = B(i,j)", "ij", Formats::new())
}

/// Sparse matrix-vector multiplication `x(i) = sum_j B(i,j) * c(j)` with `B`
/// DCSR and `c` dense, using the Section 4.2 iterate-locate optimization:
/// each of `B`'s column coordinates is located into the dense vector.
pub fn spmv() -> SamGraph {
    let mut g = GraphBuilder::new("x(i) = B(i,j) * c(j)");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, bi_ref);
    // Broadcast c's root once per row, then once per column coordinate, and
    // locate each column coordinate into the dense vector.
    let rc = g.root("c");
    let c_per_i = g.repeat("c", 'i', bi_crd, rc);
    let c_per_j = g.repeat("c", 'j', bj_crd, c_per_i);
    let (_loc_crd, _loc_pass, c_val_ref) = g.locate("c", 'j', bj_crd, c_per_j);
    let b_vals = g.array("B", bj_ref);
    let c_vals = g.array("c", c_val_ref);
    let prod = g.alu("mul", b_vals, c_vals);
    let x_vals = g.reduce_scalar(prod);
    g.write_level("x", 'i', bi_crd);
    g.write_vals("x", x_vals);
    g.finish()
}

/// Co-iteration SpMV `x(i) = sum_j B(i,j) * c(j)` with `B` DCSR and `c`
/// *compressed*: instead of locating every `B` column into a dense vector
/// (the [`spmv`] iterate-locate form), `B`'s column fibers are intersected
/// against the sparse vector, rescanned per row.
pub fn spmv_coiteration() -> SamGraph {
    lowered("x(i) = B(i,j) * c(j)", "ij", Formats::new())
}

/// [`spmv_coiteration`] with coordinate-skip feedback on the `j`
/// intersection: when a `B` row is much denser than `c` (or vice versa),
/// the trailing scanner gallops instead of streaming every coordinate.
pub fn spmv_with_skip() -> SamGraph {
    with_skip(spmv_coiteration(), &['j'])
}

/// SpM*SpM `X(i,j) = sum_k B(i,k) * C(k,j)` in one of the three Figure 12
/// dataflow classes. Bind `B` and `C` in the formats
/// [`SpmmDataflow::operand_formats`] returns. The inner product (`i -> j ->
/// k`) closes each output with a scalar reducer, the outer product (`k -> i
/// -> j`) accumulates the partial products in a matrix reducer (OuterSPACE,
/// paper Figure 16).
pub fn spmm(dataflow: SpmmDataflow) -> SamGraph {
    let text = "X(i,j) = B(i,k) * C(k,j)";
    match dataflow {
        SpmmDataflow::LinearCombination => spmm_gustavson(),
        SpmmDataflow::InnerProduct => lowered(text, "ijk", Formats::new()),
        SpmmDataflow::OuterProduct => lowered(text, "kij", Formats::new()),
    }
}

/// [`spmm`] with coordinate-skip feedback on the `k` intersection of the
/// chosen dataflow.
pub fn spmm_with_skip(dataflow: SpmmDataflow) -> SamGraph {
    with_skip(spmm(dataflow), &['k'])
}

/// The linear-combination-of-rows (Gustavson) graph of paper Figure 4.
fn spmm_gustavson() -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,k) * C(k,j) [ikj]");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (bk_crd, bk_ref) = g.scan("B", 'k', true, bi_ref);
    let rc = g.root("C");
    let c_per_i = g.repeat("C", 'i', bi_crd, rc);
    let (ck_crd, ck_ref) = g.scan("C", 'k', true, c_per_i);
    let (_k_crd, k_refs) = g.intersect('k', [bk_crd, ck_crd], [bk_ref, ck_ref]);
    let (cj_crd, cj_ref) = g.scan("C", 'j', true, k_refs[1]);
    let b_per_j = g.repeat("B", 'j', cj_crd, k_refs[0]);
    let b_vals = g.array("B", b_per_j);
    let c_vals = g.array("C", cj_ref);
    let prod = g.alu("mul", b_vals, c_vals);
    let (xj_crd, x_vals) = g.reduce_vector(cj_crd, prod);
    let (xi_out, xj_out) = g.crd_drop('i', bi_crd, xj_crd);
    g.write_level("X", 'i', xi_out);
    g.write_level("X", 'j', xj_out);
    g.write_vals("X", x_vals);
    g.finish()
}

/// MTTKRP `X(i,j) = sum_kl B(i,k,l) * C(j,k) * D(j,l)` (Table 1) in the
/// `i -> k -> l -> j` dataflow: the order-3 operand `B` drives iteration
/// (CSF, mode order `i,k,l`), the factor matrices co-iterate against it
/// stored transposed (`C` as `k,j`, `D` as `l,j` — DCSC of their logical
/// `(j,k)` / `(j,l)` shapes), and two chained vector reducers accumulate
/// the inner `j` fibers across `l` and then across `k`.
pub fn mttkrp() -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (bk_crd, bk_ref) = g.scan("B", 'k', true, bi_ref);

    // Co-iterate B's k fibers with C's outer (k) level, rescanned per i.
    let rc = g.root("C");
    let c_per_i = g.repeat("C", 'i', bi_crd, rc);
    let (ck_crd, ck_ref) = g.scan("C", 'k', true, c_per_i);
    let (k_crd, k_refs) = g.intersect('k', [bk_crd, ck_crd], [bk_ref, ck_ref]);

    // Co-iterate B's l fibers with D's outer (l) level, rescanned per (i,k).
    let (bl_crd, bl_ref) = g.scan("B", 'l', true, k_refs[0]);
    let rd = g.root("D");
    let d_per_i = g.repeat("D", 'i', bi_crd, rd);
    let d_per_k = g.repeat("D", 'k', k_crd, d_per_i);
    let (dl_crd, dl_ref) = g.scan("D", 'l', true, d_per_k);
    let (l_crd, l_refs) = g.intersect('l', [bl_crd, dl_crd], [bl_ref, dl_ref]);

    // The innermost loop: C's and D's j fibers, intersected per (k, l).
    let c_per_l = g.repeat("C", 'l', l_crd, k_refs[1]);
    let (cj_crd, cj_ref) = g.scan("C", 'j', true, c_per_l);
    let (dj_crd, dj_ref) = g.scan("D", 'j', true, l_refs[1]);
    let (j_crd, j_refs) = g.intersect('j', [cj_crd, dj_crd], [cj_ref, dj_ref]);

    // B(i,k,l) * C(j,k) * D(j,l), with B's value broadcast over j.
    let c_vals = g.array("C", j_refs[0]);
    let d_vals = g.array("D", j_refs[1]);
    let b_per_j = g.repeat("B", 'j', j_crd, l_refs[0]);
    let b_vals = g.array("B", b_per_j);
    let cd = g.alu("mul", c_vals, d_vals);
    let prod = g.alu("mul", cd, b_vals);

    // Sum the j fibers over l (within each k), then over k (within each i).
    let (xj_l, xv_l) = g.reduce_vector(j_crd, prod);
    let (xj, xv) = g.reduce_vector(xj_l, xv_l);
    let (xi_out, xj_out) = g.crd_drop('i', bi_crd, xj);
    g.write_level("X", 'i', xi_out);
    g.write_level("X", 'j', xj_out);
    g.write_vals("X", xv);
    g.finish()
}

/// Residual `x(i) = b(i) - sum_j C(i,j) * d(j)` (Table 1): the paper's
/// canonical *mixed* expression — an additive co-iteration at the output
/// variable (union of `b` and `C`'s rows) around a multiplicative
/// co-iteration at the reduction variable (intersection of `C`'s columns
/// with `d`). The scalar reducer closes inside the subtraction, and its
/// explicit-zero policy keeps the per-row value stream aligned with the
/// union coordinates for rows where the dot product is empty. `b` and `d`
/// are sparse vectors, `C` is DCSR.
pub fn residual() -> SamGraph {
    lowered("x(i) = b(i) - C(i,j) * d(j)", "ij", Formats::new())
}

/// MatTransMul `x(i) = sum_j alpha * B(j,i) * c(j) + beta * d(i)` (Table 1):
/// mixed expression with two zero-index scalar operands lowered as
/// `ConstVal` sources shaped by the value streams they multiply. `B` is
/// bound transposed (storage order `i` then `j`, i.e. DCSC of its logical
/// `(j,i)` shape), `c` and `d` are sparse vectors, and `alpha`/`beta` bind
/// as single-value tensors.
pub fn mat_trans_mul() -> SamGraph {
    lowered("x(i) = alpha * B(j,i) * c(j) + beta * d(i)", "ij", Formats::new())
}

/// Plus3 `X(i,j) = B(i,j) + C(i,j) + D(i,j)` (Table 1): a three-way union
/// at each level, lowered as a chain of binary unioners plus one
/// *realignment* unioner per level — a parallel unioner over the same
/// coordinate pair whose ref lane re-aligns the first merge's second
/// reference stream to the final coordinate space. All operands are DCSR.
pub fn plus3() -> SamGraph {
    lowered("X(i,j) = B(i,j) + C(i,j) + D(i,j)", "ij", Formats::new())
}

/// Fused SDDMM `X(i,j) = sum_k B(i,j) * C(i,k) * D(j,k)` with the dense
/// factors' outer dimensions co-iterated against `B` (Figure 11's fused
/// co-iteration variant). `B` is DCSR; `C` and `D` are dense.
pub fn sddmm_coiteration() -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,j) * C(i,k) * D(j,k)");
    let rb = g.root("B");
    let rc = g.root("C");
    let rd = g.root("D");

    // Co-iterate B's i coordinates with C's dense i level.
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (ci_crd, ci_ref) = g.scan("C", 'i', false, rc);
    let (i_crd, i_refs) = g.intersect('i', [bi_crd, ci_crd], [bi_ref, ci_ref]);

    // Co-iterate B's j coordinates with D's dense j level (rescanned per row).
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, i_refs[0]);
    let d_per_i = g.repeat("D", 'i', i_crd, rd);
    let (dj_crd, dj_ref) = g.scan("D", 'j', false, d_per_i);
    let (j_crd, j_refs) = g.intersect('j', [bj_crd, dj_crd], [bj_ref, dj_ref]);

    // Broadcast C's row fiber reference over the surviving j coordinates.
    let c_per_j = g.repeat("C", 'j', j_crd, i_refs[1]);

    sddmm_tail(&mut g, c_per_j, j_refs[1], j_refs[0], i_crd, j_crd);
    g.finish()
}

/// [`sddmm_coiteration`] with coordinate-skip feedback on the `i` and `j`
/// intersections: the dense factors' scanners gallop straight to `B`'s next
/// nonzero coordinate instead of streaming the whole dimension.
pub fn sddmm_with_skip() -> SamGraph {
    with_skip(sddmm_coiteration(), &['i', 'j'])
}

/// Fused SDDMM with `B`'s coordinates *located* into the dense factors
/// (Figure 11's fused locating variant, Section 4.2): no scanner walks the
/// dense `i` and `j` dimensions, so the cost tracks `B`'s nonzeros. Operand
/// formats as in [`sddmm_coiteration`].
pub fn sddmm_locating() -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,j) * C(i,k) * D(j,k) [locate]");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, bi_ref);

    // Locate each B row coordinate into C's dense i level, then broadcast
    // that fiber reference over the row's column coordinates.
    let rc = g.root("C");
    let c_per_i = g.repeat("C", 'i', bi_crd, rc);
    let (_ci_crd, _ci_pass, ci_ref) = g.locate("C", 'i', bi_crd, c_per_i);
    let c_per_j = g.repeat("C", 'j', bj_crd, ci_ref);

    // Locate each B column coordinate into D's dense j level.
    let rd = g.root("D");
    let d_per_i = g.repeat("D", 'i', bi_crd, rd);
    let d_per_j = g.repeat("D", 'j', bj_crd, d_per_i);
    let (_dj_crd, _dj_pass, dj_ref) = g.locate("D", 'j', bj_crd, d_per_j);

    sddmm_tail(&mut g, c_per_j, dj_ref, bj_ref, bi_crd, bj_crd);
    g.finish()
}

/// The tail both fused SDDMM graphs share: given per-(i,j) fiber references
/// into `C`'s and `D`'s `k` levels, take the inner product over `k`, scale
/// it by `B`'s value and write the result.
fn sddmm_tail(g: &mut GraphBuilder, c_kfiber: Port, d_kfiber: Port, b_val_ref: Port, xi: Port, xj: Port) {
    let (ck_crd, ck_ref) = g.scan("C", 'k', false, c_kfiber);
    let (dk_crd, dk_ref) = g.scan("D", 'k', false, d_kfiber);
    let (_k_crd, k_refs) = g.intersect('k', [ck_crd, dk_crd], [ck_ref, dk_ref]);
    let c_vals = g.array("C", k_refs[0]);
    let d_vals = g.array("D", k_refs[1]);
    let prod_cd = g.alu("mul", c_vals, d_vals);
    let s = g.reduce_scalar(prod_cd);
    let b_vals = g.array("B", b_val_ref);
    let x_vals = g.alu("mul", b_vals, s);
    g.write_level("X", 'i', xi);
    g.write_level("X", 'j', xj);
    g.write_vals("X", x_vals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_core::graph::StreamKind;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    /// Whether `a` and `b` are one graph up to node renumbering: the same
    /// node kinds and labels, joined by the same labelled port-to-port edges.
    /// Each graph's nodes are named without their numbering — by kind, label
    /// and, recursively, what feeds each input port (skip lanes aside: they
    /// run against the dataflow) — and its edges by the names of their ends,
    /// their ports, kind and label; the two sorted lists must agree.
    ///
    /// # Panics
    ///
    /// Panics if two nodes of one graph get one name, since equal lists would
    /// then not pin down which node maps to which.
    fn same_structure(a: &SamGraph, b: &SamGraph) -> bool {
        fn name(g: &SamGraph, n: usize, names: &mut BTreeMap<usize, u64>) -> u64 {
            if let Some(&h) = names.get(&n) {
                return h;
            }
            let mut inputs: Vec<(usize, u64, usize, String)> = Vec::new();
            for e in g.edges().iter().filter(|e| e.to.0 == n && e.kind != StreamKind::Skip) {
                inputs.push((e.dst_port, name(g, e.from.0, names), e.src_port, g.edge_label(e)));
            }
            inputs.sort_unstable();
            let mut h = DefaultHasher::new();
            (&g.nodes()[n], g.node_label(NodeId(n)), inputs).hash(&mut h);
            names.insert(n, h.finish());
            h.finish()
        }
        let structure = |g: &SamGraph| {
            let mut names = BTreeMap::new();
            let mut nodes: Vec<u64> = (0..g.len()).map(|n| name(g, n, &mut names)).collect();
            nodes.sort_unstable();
            assert!(nodes.windows(2).all(|w| w[0] != w[1]), "{}: two nodes share a name", g.name);
            let mut edges: Vec<u64> = g
                .edges()
                .iter()
                .map(|e| {
                    let mut h = DefaultHasher::new();
                    let label = g.edge_label(e);
                    (names[&e.from.0], e.src_port, names[&e.to.0], e.dst_port, e.kind, label).hash(&mut h);
                    h.finish()
                })
                .collect();
            edges.sort_unstable();
            (nodes, edges)
        };
        structure(a) == structure(b)
    }

    #[test]
    fn structure_ignores_numbering_and_sees_ports() {
        let graph = plus3();
        // The same graph with its nodes numbered backwards.
        let last = graph.len() - 1;
        let mut reversed = SamGraph::new(graph.name.clone());
        for n in (0..=last).rev() {
            let id = reversed.add_node(graph.nodes()[n].clone());
            reversed.set_label(id, graph.node_label(NodeId(n)));
        }
        for e in graph.edges() {
            let (from, to) = (NodeId(last - e.from.0), NodeId(last - e.to.0));
            reversed.add_edge_on(from, e.src_port, to, e.dst_port, e.kind, graph.edge_label(e));
        }
        assert!(same_structure(&graph, &reversed));
        // One edge moved to the other port of the same consumer.
        let mut swapped = graph.clone();
        let at = graph.edges().iter().position(|e| graph.edge_label(e) == "val b").expect("an ALU input");
        swapped.edges_mut()[at].dst_port = 0;
        assert!(!same_structure(&graph, &swapped));
    }

    /// What tells a hand-wired entry from its lowering.
    #[derive(Debug, Clone, Copy)]
    enum Blocker {
        /// The catalog places a coordinate dropper; `lower_exec` never does.
        Dropper,
        /// The catalog locates where `lower_exec` co-iterates.
        Locator,
        /// `lower_exec` re-broadcasts `C` over `j` with a third repeater.
        ThirdRepeater,
        /// `lower_exec` rejects the loop order: its two non-innermost
        /// reduction variables are the catalog's chained vector reducers.
        ReducerChain,
    }

    impl Blocker {
        /// Whether this still tells `graph` from its `lowering`.
        fn holds(self, graph: &SamGraph, lowering: &Result<SamGraph, LowerExecError>) -> bool {
            let count = |g: &SamGraph| {
                let c = g.primitive_counts();
                match self {
                    Blocker::Dropper => c.crd_drop,
                    Blocker::Locator => c.locate,
                    Blocker::ThirdRepeater => c.repeat,
                    Blocker::ReducerChain => 0,
                }
            };
            match (self, lowering) {
                (Blocker::ReducerChain, _) => matches!(lowering, Err(LowerExecError::UnsupportedReduction)),
                (_, Ok(lowered)) => count(graph) != count(lowered),
                (_, Err(_)) => false,
            }
        }
    }

    /// The nine entries still wired by hand, each beside its lowering at the
    /// catalog's loop order and operand formats and what tells the two
    /// apart. Once custard derives one of them, this fails and names the
    /// builder to replace with a lowering.
    #[test]
    fn hand_wired_entries_are_not_yet_lowerings() {
        use Blocker::*;
        let lower = |text, order, dense: &[(&str, usize)]| {
            lowering(
                text,
                order,
                dense.iter().fold(Formats::new(), |f, &(t, rank)| f.set(t, TensorFormat::dense(rank))),
            )
        };
        let sddmm = "X(i,j) = B(i,j) * C(i,k) * D(j,k)";
        let gustavson = lower("X(i,j) = B(i,k) * C(k,j)", "ikj", &[]);
        let hand_wired = [
            ("mat_elem_mul", lower("X(i,j) = B(i,j) * C(i,j)", "ij", &[]), Dropper),
            ("spmm(linear-combination)", gustavson.clone(), Dropper),
            ("spmm_with_skip", gustavson.map(|g| with_skip(g, &['k'])), Dropper),
            ("mttkrp", lower("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", "iklj", &[]), ReducerChain),
            ("spmv", lower("x(i) = B(i,j) * c(j)", "ij", &[("c", 1)]), Locator),
            ("mat_elem_mul_locating", lower("X(i,j) = B(i,j) * T(i,j)", "ij", &[("T", 2)]), Locator),
            ("sddmm_locating", lower(sddmm, "ijk", &[("C", 2), ("D", 2)]), Locator),
            // The lowering wires the skip lanes itself: C and D are dense.
            (
                "sddmm_coiteration",
                lower(sddmm, "ijk", &[("C", 2), ("D", 2)]).map(|mut g| {
                    g.edges_mut().retain(|e| e.kind != StreamKind::Skip);
                    g
                }),
                ThirdRepeater,
            ),
            ("sddmm_with_skip", lower(sddmm, "ijk", &[("C", 2), ("D", 2)]), ThirdRepeater),
        ];
        let catalog: BTreeMap<_, _> = catalog().into_iter().collect();
        for (name, lowering, blocker) in &hand_wired {
            let graph = &catalog[name];
            if let Ok(lowered) = lowering {
                assert!(!same_structure(graph, lowered), "`{name}` is its lowering now: replace its builder");
            }
            assert!(
                blocker.holds(graph, lowering),
                "`{name}`: {blocker:?} no longer tells it from its lowering"
            );
        }
        // Every other entry is a lowering.
        assert_eq!(catalog.len() - hand_wired.len(), 12);
    }

    #[test]
    fn graphs_are_fully_port_wired() {
        let graphs = catalog();
        assert_eq!(graphs.len(), 21);
        for (_, graph) in graphs {
            assert!(!graph.is_empty());
            for e in graph.edges() {
                let outs = graph.nodes()[e.from.0].output_ports();
                let ins = graph.nodes()[e.to.0].input_ports();
                assert!(outs[e.src_port].accepts(e.kind), "{}: bad src", graph.name);
                assert!(ins[e.dst_port].accepts(e.kind), "{}: bad dst", graph.name);
            }
        }
    }

    #[test]
    fn order_mapping() {
        assert_eq!(SpmmDataflow::from_order("ikj"), Some((SpmmDataflow::LinearCombination, false)));
        assert_eq!(SpmmDataflow::from_order("kji"), Some((SpmmDataflow::OuterProduct, true)));
        assert_eq!(SpmmDataflow::from_order("zzz"), None);
    }

    #[test]
    fn spmv_graph_matches_hand_kernel_structure() {
        let c = spmv().primitive_counts();
        assert_eq!(c.level_scan, 2);
        assert_eq!(c.repeat, 2);
        assert_eq!(c.locate, 1);
        assert_eq!(c.array, 2);
        assert_eq!(c.alu, 1);
        assert_eq!(c.reduce, 1);
        assert_eq!(c.level_write, 2);
    }

    #[test]
    fn mttkrp_graph_chains_two_vector_reducers() {
        let g = mttkrp();
        let c = g.primitive_counts();
        assert_eq!(c.level_scan, 7);
        assert_eq!(c.intersect, 3);
        assert_eq!(c.repeat, 5);
        assert_eq!(c.reduce, 2);
        assert_eq!(c.array, 3);
        assert!(g.has_kind(|n| matches!(n, NodeKind::CoordDropper { .. })));
    }

    #[test]
    fn skip_variants_add_only_feedback_edges() {
        for (plain, with_skip, lanes) in [
            (vec_elem_mul(true), vec_elem_mul_with_skip(true), 2),
            (spmv_coiteration(), spmv_with_skip(), 2),
            (spmm(SpmmDataflow::LinearCombination), spmm_with_skip(SpmmDataflow::LinearCombination), 2),
            (spmm(SpmmDataflow::InnerProduct), spmm_with_skip(SpmmDataflow::InnerProduct), 2),
            (spmm(SpmmDataflow::OuterProduct), spmm_with_skip(SpmmDataflow::OuterProduct), 2),
            (sddmm_coiteration(), sddmm_with_skip(), 4),
        ] {
            let count = |g: &SamGraph| g.edges().iter().filter(|e| e.kind == StreamKind::Skip).count();
            assert_eq!(count(&plain), 0, "{}: unexpected skip edges", plain.name);
            assert_eq!(count(&with_skip), lanes, "{}: wrong skip lane count", with_skip.name);
            // The twins share their primitive structure exactly — skip is
            // pure feedback wiring, not extra compute nodes.
            assert_eq!(plain.primitive_counts(), with_skip.primitive_counts());
            assert_eq!(plain.len(), with_skip.len());
            // Every skip edge runs from an intersecter's skip port back to a
            // level scanner's skip input.
            for e in with_skip.edges().iter().filter(|e| e.kind == StreamKind::Skip) {
                assert!(matches!(with_skip.nodes()[e.from.0], NodeKind::Intersecter { .. }));
                assert!(matches!(with_skip.nodes()[e.to.0], NodeKind::LevelScanner { .. }));
                assert!(e.src_port == 3 || e.src_port == 4);
                assert_eq!(e.dst_port, 1);
            }
        }
    }

    #[test]
    fn mixed_kernels_merge_both_ways() {
        for (graph, unions, intersects) in [(residual(), 1, 1), (mat_trans_mul(), 1, 1), (plus3(), 6, 0)] {
            let c = graph.primitive_counts();
            assert_eq!(c.union, unions, "{}", graph.name);
            assert_eq!(c.intersect, intersects, "{}", graph.name);
        }
        assert!(mat_trans_mul().has_kind(|n| matches!(n, NodeKind::ConstVal { .. })));
        assert!(!residual().has_kind(|n| matches!(n, NodeKind::CoordDropper { .. })));
    }

    #[test]
    fn gustavson_graph_has_dropper_and_vector_reducer() {
        let g = spmm(SpmmDataflow::LinearCombination);
        assert!(g.has_kind(|n| matches!(n, NodeKind::CoordDropper { .. })));
        assert!(g.has_kind(|n| matches!(n, NodeKind::Reducer { order: 1 })));
        assert_eq!(g.primitive_counts().level_write, 3);
    }
}
