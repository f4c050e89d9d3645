//! The paper's kernels expressed once as executable [`SamGraph`]s.
//!
//! Each function builds the dataflow graph of one evaluation kernel
//! (Figures 11–14, Table 1) through [`crate::build::GraphBuilder`]. The
//! graphs carry explicit port wiring, so `sam-exec` can plan and run them on
//! any backend — the same graph, cycle-approximate, fast, threaded or tiled.
//! Stream fan-out is implicit: connecting one output port to several
//! consumers makes the `sam-exec` planner insert the fork the cycle backend
//! needs.
//!
//! The enums at the top are the legends of Figures 11–13: plain data naming
//! which graph (and which operand storage) a figure column stands for.
//! [`catalog`] lists every graph once, for the sweeps that walk them all.

use crate::build::{GraphBuilder, Port};
use crate::graph::SamGraph;
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
/// the verifier sweep and `sam_bench::graph_catalog` walk.
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

/// Adds an intersecter with or without the Section 4.2 coordinate-skip
/// feedback edges, so each kernel builder exists once and its skip-enabled
/// twin is one flag away.
fn isect(
    g: &mut GraphBuilder,
    skip: bool,
    index: char,
    in_crd: [Port; 2],
    in_ref: [Port; 2],
) -> (Port, [Port; 2]) {
    if skip {
        g.intersect_with_skip(index, in_crd, in_ref)
    } else {
        g.intersect(index, in_crd, in_ref)
    }
}

/// Element-wise sparse vector multiplication `x(i) = b(i) * c(i)`
/// (Figure 13's `Crd` configuration; pass `compressed = false` for the
/// `Dense` configuration).
pub fn vec_elem_mul(compressed: bool) -> SamGraph {
    vec_elem_mul_inner(compressed, false)
}

/// [`vec_elem_mul`] with coordinate-skip feedback on the intersection —
/// the purest demonstration of the Section 4.2 win when one vector is
/// dense-ish and the other hypersparse.
pub fn vec_elem_mul_with_skip(compressed: bool) -> SamGraph {
    vec_elem_mul_inner(compressed, true)
}

fn vec_elem_mul_inner(compressed: bool, skip: bool) -> SamGraph {
    let mut g = GraphBuilder::new("x(i) = b(i) * c(i)");
    let rb = g.root("b");
    let rc = g.root("c");
    let (b_crd, b_ref) = g.scan("b", 'i', compressed, rb);
    let (c_crd, c_ref) = g.scan("c", 'i', compressed, rc);
    let (i_crd, i_refs) = isect(&mut g, skip, 'i', [b_crd, c_crd], [b_ref, c_ref]);
    let bv = g.array("b", i_refs[0]);
    let cv = g.array("c", i_refs[1]);
    let prod = g.alu("mul", bv, cv);
    g.write_level("x", 'i', i_crd);
    g.write_vals("x", prod);
    g.finish()
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
    let mut g = GraphBuilder::new("X(i,j) = B(i,j)");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, bi_ref);
    let vals = g.array("B", bj_ref);
    g.write_level("X", 'i', bi_crd);
    g.write_level("X", 'j', bj_crd);
    g.write_vals("X", vals);
    g.finish()
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
    spmv_coiteration_inner(false)
}

/// [`spmv_coiteration`] with coordinate-skip feedback on the `j`
/// intersection: when a `B` row is much denser than `c` (or vice versa),
/// the trailing scanner gallops instead of streaming every coordinate.
pub fn spmv_with_skip() -> SamGraph {
    spmv_coiteration_inner(true)
}

fn spmv_coiteration_inner(skip: bool) -> SamGraph {
    let mut g = GraphBuilder::new("x(i) = B(i,j) * c(j) [coiter]");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, bi_ref);
    // Rescan the sparse vector once per row and intersect it with the row's
    // column coordinates.
    let rc = g.root("c");
    let c_per_i = g.repeat("c", 'i', bi_crd, rc);
    let (cj_crd, cj_ref) = g.scan("c", 'j', true, c_per_i);
    let (_j_crd, j_refs) = isect(&mut g, skip, 'j', [bj_crd, cj_crd], [bj_ref, cj_ref]);
    let b_vals = g.array("B", j_refs[0]);
    let c_vals = g.array("c", j_refs[1]);
    let prod = g.alu("mul", b_vals, c_vals);
    let x_vals = g.reduce_scalar(prod);
    g.write_level("x", 'i', bi_crd);
    g.write_vals("x", x_vals);
    g.finish()
}

/// SpM*SpM `X(i,j) = sum_k B(i,k) * C(k,j)` in one of the three Figure 12
/// dataflow classes. Bind `B` and `C` in the formats
/// [`SpmmDataflow::operand_formats`] returns.
pub fn spmm(dataflow: SpmmDataflow) -> SamGraph {
    match dataflow {
        SpmmDataflow::LinearCombination => spmm_gustavson(false),
        SpmmDataflow::InnerProduct => spmm_inner(false),
        SpmmDataflow::OuterProduct => spmm_outer(false),
    }
}

/// [`spmm`] with coordinate-skip feedback on the `k` intersection of the
/// chosen dataflow.
pub fn spmm_with_skip(dataflow: SpmmDataflow) -> SamGraph {
    match dataflow {
        SpmmDataflow::LinearCombination => spmm_gustavson(true),
        SpmmDataflow::InnerProduct => spmm_inner(true),
        SpmmDataflow::OuterProduct => spmm_outer(true),
    }
}

/// The linear-combination-of-rows (Gustavson) graph of paper Figure 4.
fn spmm_gustavson(skip: bool) -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,k) * C(k,j) [ikj]");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (bk_crd, bk_ref) = g.scan("B", 'k', true, bi_ref);
    let rc = g.root("C");
    let c_per_i = g.repeat("C", 'i', bi_crd, rc);
    let (ck_crd, ck_ref) = g.scan("C", 'k', true, c_per_i);
    let (_k_crd, k_refs) = isect(&mut g, skip, 'k', [bk_crd, ck_crd], [bk_ref, ck_ref]);
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

/// The inner-product graph (`i -> j -> k`).
fn spmm_inner(skip: bool) -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,k) * C(k,j) [ijk]");
    let rb = g.root("B");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let rc = g.root("C");
    let c_per_i = g.repeat("C", 'i', bi_crd, rc);
    let (cj_crd, cj_ref) = g.scan("C", 'j', true, c_per_i);
    let b_per_j = g.repeat("B", 'j', cj_crd, bi_ref);
    let (bk_crd, bk_ref) = g.scan("B", 'k', true, b_per_j);
    let (ck_crd, ck_ref) = g.scan("C", 'k', true, cj_ref);
    let (_k_crd, k_refs) = isect(&mut g, skip, 'k', [bk_crd, ck_crd], [bk_ref, ck_ref]);
    let b_vals = g.array("B", k_refs[0]);
    let c_vals = g.array("C", k_refs[1]);
    let prod = g.alu("mul", b_vals, c_vals);
    let x_vals = g.reduce_scalar(prod);
    g.write_level("X", 'i', bi_crd);
    g.write_level("X", 'j', cj_crd);
    g.write_vals("X", x_vals);
    g.finish()
}

/// The outer-product graph (`k -> i -> j`) with a matrix accumulator
/// (OuterSPACE, paper Figure 16).
fn spmm_outer(skip: bool) -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,k) * C(k,j) [kij]");
    let rb = g.root("B");
    let (bk_crd, bk_ref) = g.scan("B", 'k', true, rb);
    let rc = g.root("C");
    let (ck_crd, ck_ref) = g.scan("C", 'k', true, rc);
    let (_k_crd, k_refs) = isect(&mut g, skip, 'k', [bk_crd, ck_crd], [bk_ref, ck_ref]);
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, k_refs[0]);
    let c_per_i = g.repeat("C", 'i', bi_crd, k_refs[1]);
    let (cj_crd, cj_ref) = g.scan("C", 'j', true, c_per_i);
    let b_per_j = g.repeat("B", 'j', cj_crd, bi_ref);
    let b_vals = g.array("B", b_per_j);
    let c_vals = g.array("C", cj_ref);
    let prod = g.alu("mul", b_vals, c_vals);
    let (x_crds, x_vals) = g.reduce_matrix([bi_crd, cj_crd], prod);
    g.write_level("X", 'i', x_crds[0]);
    g.write_level("X", 'j', x_crds[1]);
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
    let mut g = GraphBuilder::new("x(i) = b(i) - C(i,j) * d(j)");
    let rb = g.root("b");
    let rc = g.root("C");
    let rd = g.root("d");
    let (bi_crd, bi_ref) = g.scan("b", 'i', true, rb);
    let (ci_crd, ci_ref) = g.scan("C", 'i', true, rc);
    let (i_crd, i_refs) = g.union('i', [bi_crd, ci_crd], [bi_ref, ci_ref]);
    let (cj_crd, cj_ref) = g.scan("C", 'j', true, i_refs[1]);
    let d_per_i = g.repeat("d", 'i', i_crd, rd);
    let (dj_crd, dj_ref) = g.scan("d", 'j', true, d_per_i);
    let (_j_crd, j_refs) = g.intersect('j', [cj_crd, dj_crd], [cj_ref, dj_ref]);
    let c_vals = g.array("C", j_refs[0]);
    let d_vals = g.array("d", j_refs[1]);
    let prod = g.alu("mul", c_vals, d_vals);
    let s = g.reduce_scalar(prod);
    let b_vals = g.array("b", i_refs[0]);
    let x_vals = g.alu("sub", b_vals, s);
    g.write_level("x", 'i', i_crd);
    g.write_vals("x", x_vals);
    g.finish()
}

/// MatTransMul `x(i) = sum_j alpha * B(j,i) * c(j) + beta * d(i)` (Table 1):
/// mixed expression with two zero-index scalar operands lowered as
/// `ConstVal` sources shaped by the value streams they multiply. `B` is
/// bound transposed (storage order `i` then `j`, i.e. DCSC of its logical
/// `(j,i)` shape), `c` and `d` are sparse vectors, and `alpha`/`beta` bind
/// as single-value tensors.
pub fn mat_trans_mul() -> SamGraph {
    let mut g = GraphBuilder::new("x(i) = alpha * B(j,i) * c(j) + beta * d(i)");
    let rb = g.root("B");
    let rd = g.root("d");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (di_crd, di_ref) = g.scan("d", 'i', true, rd);
    let (i_crd, i_refs) = g.union('i', [bi_crd, di_crd], [bi_ref, di_ref]);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, i_refs[0]);
    let rc = g.root("c");
    let c_per_i = g.repeat("c", 'i', i_crd, rc);
    let (cj_crd, cj_ref) = g.scan("c", 'j', true, c_per_i);
    let (_j_crd, j_refs) = g.intersect('j', [bj_crd, cj_crd], [bj_ref, cj_ref]);
    let b_vals = g.array("B", j_refs[0]);
    let alpha = g.scalar_source("alpha", b_vals);
    let ab = g.alu("mul", alpha, b_vals);
    let c_vals = g.array("c", j_refs[1]);
    let abc = g.alu("mul", ab, c_vals);
    let s = g.reduce_scalar(abc);
    let d_vals = g.array("d", i_refs[1]);
    let beta = g.scalar_source("beta", d_vals);
    let bd = g.alu("mul", beta, d_vals);
    let x_vals = g.alu("add", s, bd);
    g.write_level("x", 'i', i_crd);
    g.write_vals("x", x_vals);
    g.finish()
}

/// Plus3 `X(i,j) = B(i,j) + C(i,j) + D(i,j)` (Table 1): a three-way union
/// at each level, lowered as a chain of binary unioners plus one
/// *realignment* unioner per level — a parallel unioner over the same
/// coordinate pair whose ref lane re-aligns the first merge's second
/// reference stream to the final coordinate space (a unioner never
/// inspects reference payloads, so any stream aligned with its coordinate
/// input threads through faithfully). All operands are DCSR.
pub fn plus3() -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,j) + C(i,j) + D(i,j)");
    let rb = g.root("B");
    let rc = g.root("C");
    let rd = g.root("D");
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (ci_crd, ci_ref) = g.scan("C", 'i', true, rc);
    let (di_crd, di_ref) = g.scan("D", 'i', true, rd);
    // Chain + realignment at i.
    let (u1_crd, u1_refs) = g.union('i', [bi_crd, ci_crd], [bi_ref, ci_ref]);
    let (i_crd, i_bd) = g.union('i', [u1_crd, di_crd], [u1_refs[0], di_ref]);
    let (_, i_c) = g.union('i', [u1_crd, di_crd], [u1_refs[1], di_ref]);
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, i_bd[0]);
    let (cj_crd, cj_ref) = g.scan("C", 'j', true, i_c[0]);
    let (dj_crd, dj_ref) = g.scan("D", 'j', true, i_bd[1]);
    // Chain + realignment at j.
    let (v1_crd, v1_refs) = g.union('j', [bj_crd, cj_crd], [bj_ref, cj_ref]);
    let (j_crd, j_bd) = g.union('j', [v1_crd, dj_crd], [v1_refs[0], dj_ref]);
    let (_, j_c) = g.union('j', [v1_crd, dj_crd], [v1_refs[1], dj_ref]);
    let b_vals = g.array("B", j_bd[0]);
    let c_vals = g.array("C", j_c[0]);
    let d_vals = g.array("D", j_bd[1]);
    let bc = g.alu("add", b_vals, c_vals);
    let x_vals = g.alu("add", bc, d_vals);
    g.write_level("X", 'i', i_crd);
    g.write_level("X", 'j', j_crd);
    g.write_vals("X", x_vals);
    g.finish()
}

/// Fused SDDMM `X(i,j) = sum_k B(i,j) * C(i,k) * D(j,k)` with the dense
/// factors' outer dimensions co-iterated against `B` (Figure 11's fused
/// co-iteration variant). `B` is DCSR; `C` and `D` are dense.
pub fn sddmm_coiteration() -> SamGraph {
    sddmm_coiteration_inner(false)
}

/// [`sddmm_coiteration`] with coordinate-skip feedback on the `i` and `j`
/// intersections: the dense factors' scanners gallop straight to `B`'s next
/// nonzero coordinate instead of streaming the whole dimension.
pub fn sddmm_with_skip() -> SamGraph {
    sddmm_coiteration_inner(true)
}

fn sddmm_coiteration_inner(skip: bool) -> SamGraph {
    let mut g = GraphBuilder::new("X(i,j) = B(i,j) * C(i,k) * D(j,k)");
    let rb = g.root("B");
    let rc = g.root("C");
    let rd = g.root("D");

    // Co-iterate B's i coordinates with C's dense i level.
    let (bi_crd, bi_ref) = g.scan("B", 'i', true, rb);
    let (ci_crd, ci_ref) = g.scan("C", 'i', false, rc);
    let (i_crd, i_refs) = isect(&mut g, skip, 'i', [bi_crd, ci_crd], [bi_ref, ci_ref]);

    // Co-iterate B's j coordinates with D's dense j level (rescanned per row).
    let (bj_crd, bj_ref) = g.scan("B", 'j', true, i_refs[0]);
    let d_per_i = g.repeat("D", 'i', i_crd, rd);
    let (dj_crd, dj_ref) = g.scan("D", 'j', false, d_per_i);
    let (j_crd, j_refs) = isect(&mut g, skip, 'j', [bj_crd, dj_crd], [bj_ref, dj_ref]);

    // Broadcast C's row fiber reference over the surviving j coordinates.
    let c_per_j = g.repeat("C", 'j', j_crd, i_refs[1]);

    sddmm_tail(&mut g, c_per_j, j_refs[1], j_refs[0], i_crd, j_crd);
    g.finish()
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
    use crate::graph::NodeKind;

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
        use crate::graph::StreamKind;
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
