//! Tile schedule analysis: from a SAM graph to a [`KernelTiling`].
//!
//! The analysis answers three questions about a kernel graph, without
//! executing it:
//!
//! 1. **Which index variables can be tiled?** Output variables always can:
//!    a tile's partial output lands in a disjoint (or additively merged)
//!    coordinate window. Contraction variables can be tiled whenever the
//!    graph accumulates with vector/matrix reducers (which *drop* empty
//!    fibers, so "an entry exists" means "some tile produced a product" —
//!    associative over tile unions). With a scalar reducer the output
//!    carries *explicit zeros* for every visited iteration point, whose set
//!    depends on how the contraction dimension was windowed; tiling it is
//!    only structure-preserving in the single-level-writer, no-dropper case
//!    (SpMV-shaped kernels), which the analysis detects conservatively.
//! 2. **How does each bound tensor map onto those variables?** Every
//!    scanner/locator is traced along its reference chain to the storage
//!    level it reads, giving a per-level index variable per tensor.
//! 3. **When may a tile tuple be skipped?** A tensor belongs to the *skip
//!    set* when an empty tile of it provably produces zero output entries:
//!    its emptiness must reach every level writer's coordinate stream
//!    through "requires" edges (compressed scans require their tensor,
//!    intersections require both operands, unions only what both share).
//!    This is ExTensor's sparse tile skipping, restricted to where it is
//!    bit-exact.

use sam_core::graph::{Edge, NodeKind, SamGraph, StreamKind};
use sam_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a graph cannot be tiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingError {
    /// An edge lacks explicit port wiring, so streams cannot be traced.
    Unported {
        /// Label of the offending edge.
        edge: String,
    },
    /// The graph is structurally unsuitable (cycle, unknown shape).
    Unsupported {
        /// Human-readable reason.
        reason: String,
    },
    /// A node references a tensor the caller did not provide.
    UnknownTensor {
        /// The tensor name.
        name: String,
    },
    /// Two tensors disagree about an index variable's dimension.
    DimMismatch {
        /// The index variable.
        var: char,
        /// One recorded size.
        a: usize,
        /// The conflicting size.
        b: usize,
    },
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::Unported { edge } => {
                write!(f, "edge `{edge}` lacks explicit ports; tiling needs a fully port-wired graph")
            }
            TilingError::Unsupported { reason } => write!(f, "graph cannot be tiled: {reason}"),
            TilingError::UnknownTensor { name } => write!(f, "tensor `{name}` is not bound"),
            TilingError::DimMismatch { var, a, b } => {
                write!(f, "index `{var}` spans both {a} and {b} coordinates")
            }
        }
    }
}

impl std::error::Error for TilingError {}

/// One index variable of the tiled iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TiledVar {
    /// The index variable.
    pub var: char,
    /// Its dimension size.
    pub dim: usize,
    /// Number of tiles along it (1 when untiled).
    pub grid: usize,
    /// Whether the variable is actually cut into tiles.
    pub tiled: bool,
}

/// How one bound tensor's storage levels map onto the index variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorTiling {
    /// The tensor name.
    pub name: String,
    /// The index variable each storage level iterates, outermost first
    /// (`None` when no scanner/locator touches the level — it stays
    /// unwindowed).
    pub level_vars: Vec<Option<char>>,
}

/// A complete tile schedule for one kernel graph: the tiled iteration
/// space, the per-tensor level→variable maps and the skip set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTiling {
    /// Tile side length (coordinates per tile along every tiled variable).
    pub tile: usize,
    /// The index variables, in first-traced order.
    pub vars: Vec<TiledVar>,
    /// One entry per bound tensor the graph reads.
    pub tensors: Vec<TensorTiling>,
    /// The output level writers' index variables, outermost first.
    pub output_vars: Vec<char>,
    /// Tensors whose empty tile makes the whole tile tuple skippable.
    pub skip_tensors: BTreeSet<String>,
}

impl KernelTiling {
    /// Analyzes `graph` over the bound tensors reachable through `lookup`
    /// and plans tiles of `tile` coordinates per tiled variable.
    ///
    /// # Errors
    ///
    /// Returns a [`TilingError`] when the graph has unported edges, is not
    /// a DAG over its data edges, binds an unknown tensor, or uses one
    /// index variable at two different sizes.
    pub fn from_graph<'a>(
        graph: &SamGraph,
        lookup: impl Fn(&str) -> Option<&'a Tensor>,
        tile: usize,
    ) -> Result<KernelTiling, TilingError> {
        let tile = tile.max(1);
        let nodes = graph.nodes();
        let n = nodes.len();
        let data_edges: Vec<&Edge> = graph.edges().iter().filter(|e| e.kind != StreamKind::Skip).collect();
        for e in &data_edges {
            if e.src_port.is_none() || e.dst_port.is_none() {
                return Err(TilingError::Unported { edge: e.label.clone() });
            }
        }

        // Input wiring and a topological order over the data edges.
        let mut node_inputs: Vec<Vec<Option<(usize, usize)>>> =
            nodes.iter().map(|k| vec![None; k.input_ports().len()]).collect();
        let mut indegree = vec![0usize; n];
        for e in &data_edges {
            let (sp, dp) = (e.src_port.expect("checked"), e.dst_port.expect("checked"));
            if dp >= node_inputs[e.to.0].len() {
                return Err(TilingError::Unsupported {
                    reason: format!("edge `{}` port out of range", e.label),
                });
            }
            node_inputs[e.to.0][dp] = Some((e.from.0, sp));
            indegree[e.to.0] += 1;
        }
        let mut order: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for e in data_edges.iter().filter(|e| e.from.0 == u) {
                indegree[e.to.0] -= 1;
                if indegree[e.to.0] == 0 {
                    order.push(e.to.0);
                }
            }
        }
        if order.len() != n {
            return Err(TilingError::Unsupported { reason: "graph has a data cycle".to_string() });
        }

        // Trace reference chains (tensor, depth) and "requires" sets per
        // output port, in topological order.
        let mut ref_ann: BTreeMap<(usize, usize), (String, usize)> = BTreeMap::new();
        let mut req: BTreeMap<(usize, usize), BTreeSet<String>> = BTreeMap::new();
        let mut var_dims: BTreeMap<char, usize> = BTreeMap::new();
        let mut var_order: Vec<char> = Vec::new();
        let mut level_vars: BTreeMap<String, BTreeMap<usize, char>> = BTreeMap::new();
        let mut writers: Vec<(usize, char)> = Vec::new();
        let mut has_scalar_reduce = false;
        let mut has_reduce = false;
        let mut has_union = false;
        let mut has_dropper = false;

        let in_req = |req: &BTreeMap<(usize, usize), BTreeSet<String>>,
                      node_inputs: &[Vec<Option<(usize, usize)>>],
                      id: usize,
                      port: usize|
         -> BTreeSet<String> {
            node_inputs[id][port].and_then(|src| req.get(&src).cloned()).unwrap_or_default()
        };

        let record_var = |var_dims: &mut BTreeMap<char, usize>,
                          var_order: &mut Vec<char>,
                          var: char,
                          dim: usize|
         -> Result<(), TilingError> {
            match var_dims.get(&var) {
                Some(&d) if d != dim => Err(TilingError::DimMismatch { var, a: d, b: dim }),
                Some(_) => Ok(()),
                None => {
                    var_dims.insert(var, dim);
                    var_order.push(var);
                    Ok(())
                }
            }
        };

        for &id in &order {
            match &nodes[id] {
                NodeKind::Root { tensor } => {
                    if lookup(tensor).is_none() {
                        return Err(TilingError::UnknownTensor { name: tensor.clone() });
                    }
                    ref_ann.insert((id, 0), (tensor.clone(), 0));
                    req.insert((id, 0), BTreeSet::new());
                }
                NodeKind::LevelScanner { tensor, index, .. } => {
                    let bound = lookup(tensor).ok_or(TilingError::UnknownTensor { name: tensor.clone() })?;
                    let depth = node_inputs[id][0]
                        .and_then(|src| ref_ann.get(&src))
                        .filter(|(t, _)| t == tensor)
                        .map(|(_, d)| *d)
                        .ok_or(TilingError::Unsupported {
                            reason: format!("cannot trace the reference stream feeding `{tensor}`"),
                        })?;
                    if depth >= bound.levels().len() {
                        return Err(TilingError::Unsupported {
                            reason: format!("tensor `{tensor}` has no level {depth}"),
                        });
                    }
                    let level = bound.level(depth);
                    record_var(&mut var_dims, &mut var_order, *index, level.dimension())?;
                    level_vars.entry(tensor.clone()).or_default().insert(depth, *index);
                    ref_ann.insert((id, 1), (tensor.clone(), depth + 1));
                    let mut r = in_req(&req, &node_inputs, id, 0);
                    // Only compressed/bitvector scans vanish with an empty
                    // tile; dense levels emit every coordinate regardless.
                    if !level.is_dense() {
                        r.insert(tensor.clone());
                    }
                    req.insert((id, 0), r.clone());
                    req.insert((id, 1), r);
                }
                NodeKind::Locator { tensor, index } => {
                    let bound = lookup(tensor).ok_or(TilingError::UnknownTensor { name: tensor.clone() })?;
                    let depth = node_inputs[id][1]
                        .and_then(|src| ref_ann.get(&src))
                        .filter(|(t, _)| t == tensor)
                        .map(|(_, d)| *d)
                        .ok_or(TilingError::Unsupported {
                            reason: format!("cannot trace the reference stream feeding `{tensor}`"),
                        })?;
                    if depth >= bound.levels().len() {
                        return Err(TilingError::Unsupported {
                            reason: format!("tensor `{tensor}` has no level {depth}"),
                        });
                    }
                    let level = bound.level(depth);
                    record_var(&mut var_dims, &mut var_order, *index, level.dimension())?;
                    level_vars.entry(tensor.clone()).or_default().insert(depth, *index);
                    ref_ann.insert((id, 1), (tensor.clone(), depth));
                    ref_ann.insert((id, 2), (tensor.clone(), depth + 1));
                    let mut r = in_req(&req, &node_inputs, id, 0);
                    r.extend(in_req(&req, &node_inputs, id, 1));
                    if !level.is_dense() {
                        r.insert(tensor.clone());
                    }
                    for p in 0..3 {
                        req.insert((id, p), r.clone());
                    }
                }
                NodeKind::Repeater { .. } => {
                    if let Some(ann) = node_inputs[id][1].and_then(|src| ref_ann.get(&src)).cloned() {
                        ref_ann.insert((id, 0), ann);
                    }
                    let mut r = in_req(&req, &node_inputs, id, 0);
                    r.extend(in_req(&req, &node_inputs, id, 1));
                    req.insert((id, 0), r);
                }
                NodeKind::Intersecter { .. } => {
                    for (slot, port) in [(2usize, 1usize), (3, 2)] {
                        if let Some(ann) = node_inputs[id][slot].and_then(|src| ref_ann.get(&src)).cloned() {
                            ref_ann.insert((id, port), ann);
                        }
                    }
                    // An intersection emits only where *both* operands do.
                    let mut r = in_req(&req, &node_inputs, id, 0);
                    r.extend(in_req(&req, &node_inputs, id, 1));
                    for p in 0..3 {
                        req.insert((id, p), r.clone());
                    }
                }
                NodeKind::Unioner { .. } => {
                    has_union = true;
                    for (slot, port) in [(2usize, 1usize), (3, 2)] {
                        if let Some(ann) = node_inputs[id][slot].and_then(|src| ref_ann.get(&src)).cloned() {
                            ref_ann.insert((id, port), ann);
                        }
                    }
                    // A union emits when *either* operand does, so only
                    // tensors required by both sides gate it.
                    let a = in_req(&req, &node_inputs, id, 0);
                    let b = in_req(&req, &node_inputs, id, 1);
                    let r: BTreeSet<String> = a.intersection(&b).cloned().collect();
                    for p in 0..3 {
                        req.insert((id, p), r.clone());
                    }
                }
                // A ConstVal mirrors its shape stream token for token, so —
                // like an array — whatever gates its input gates its output.
                // The scalar binding itself is untiled (no storage levels).
                NodeKind::Array { .. } | NodeKind::ConstVal { .. } => {
                    req.insert((id, 0), in_req(&req, &node_inputs, id, 0));
                }
                NodeKind::Alu { .. } => {
                    // ALUs can synthesize values from empty tokens (x + 0),
                    // so only tensors both inputs require gate the output.
                    let a = in_req(&req, &node_inputs, id, 0);
                    let b = in_req(&req, &node_inputs, id, 1);
                    req.insert((id, 0), a.intersection(&b).cloned().collect());
                }
                NodeKind::Reducer { order } => {
                    has_reduce = true;
                    has_scalar_reduce |= *order == 0;
                    match order {
                        // A scalar reducer emits explicit zeros on bare fiber
                        // boundaries, so nothing gates its output.
                        0 => {
                            req.insert((id, 0), BTreeSet::new());
                        }
                        1 => {
                            let r = in_req(&req, &node_inputs, id, 0);
                            req.insert((id, 0), r.clone());
                            req.insert((id, 1), r);
                        }
                        _ => {
                            let mut r = in_req(&req, &node_inputs, id, 0);
                            r.extend(in_req(&req, &node_inputs, id, 1));
                            for p in 0..3 {
                                req.insert((id, p), r.clone());
                            }
                        }
                    }
                }
                NodeKind::CoordDropper { .. } => {
                    has_dropper = true;
                    // Outer coordinates survive only when their inner fiber
                    // holds data: both streams gate the outer output.
                    let mut outer = in_req(&req, &node_inputs, id, 0);
                    let inner = in_req(&req, &node_inputs, id, 1);
                    outer.extend(inner.iter().cloned());
                    req.insert((id, 0), outer);
                    req.insert((id, 1), inner);
                }
                NodeKind::LevelWriter { index, vals, .. } => {
                    if !vals {
                        writers.push((id, *index));
                    }
                }
                NodeKind::Parallelizer | NodeKind::Serializer | NodeKind::BitvectorConverter => {
                    return Err(TilingError::Unsupported {
                        reason: format!("node `{}` is not executable", nodes[id].label()),
                    });
                }
            }
        }

        // Contraction variables are tileable with Drop-policy accumulation
        // (vector/matrix reducers); with a scalar reducer only the
        // single-writer, dropper-free shape preserves the explicit-zero
        // structure (see the module docs). A union alongside any reducer
        // means an additive term sits *outside* the contraction (residual,
        // MatTransMul): tiling the contraction would re-evaluate that term
        // once per contraction tile and the merger would sum the copies, so
        // those graphs keep their contraction variables whole.
        let output_vars: Vec<char> = writers.iter().map(|&(_, v)| v).collect();
        let contraction_tileable =
            !(has_reduce && has_union) && (!has_scalar_reduce || (writers.len() == 1 && !has_dropper));

        let vars: Vec<TiledVar> = var_order
            .iter()
            .map(|&var| {
                let dim = var_dims[&var];
                let tiled = output_vars.contains(&var) || contraction_tileable;
                TiledVar { var, dim, grid: if tiled { dim.div_ceil(tile) } else { 1 }, tiled }
            })
            .collect();

        // Skip set: the intersection of the level writers' requirements.
        let mut skip_tensors: Option<BTreeSet<String>> = None;
        for &(id, _) in &writers {
            let r = in_req(&req, &node_inputs, id, 0);
            skip_tensors = Some(match skip_tensors {
                None => r,
                Some(acc) => acc.intersection(&r).cloned().collect(),
            });
        }
        let skip_tensors = skip_tensors.unwrap_or_default();

        // Per-tensor level→variable maps, in bound-name order.
        let tensors: Vec<TensorTiling> = level_vars
            .iter()
            .map(|(name, by_depth)| {
                let order = lookup(name).map(|t| t.levels().len()).unwrap_or(0);
                TensorTiling {
                    name: name.clone(),
                    level_vars: (0..order).map(|d| by_depth.get(&d).copied()).collect(),
                }
            })
            .collect();

        Ok(KernelTiling { tile, vars, tensors, output_vars, skip_tensors })
    }

    /// The tile-grid size along every variable, in [`KernelTiling::vars`]
    /// order — the tuple space a tiled executor enumerates.
    pub fn tuple_space(&self) -> Vec<usize> {
        self.vars.iter().map(|v| v.grid).collect()
    }

    /// The coordinate window of variable `var_idx` in tile `t`.
    pub fn var_window(&self, var_idx: usize, t: usize) -> (u32, u32) {
        let v = &self.vars[var_idx];
        if !v.tiled {
            return (0, v.dim as u32);
        }
        let lo = (t * self.tile) as u32;
        (lo, ((t + 1) * self.tile).min(v.dim) as u32)
    }

    /// The per-storage-level tile sizes for tensor `tensor_idx` (the full
    /// dimension for untiled or untraced levels), ready for
    /// [`crate::TileGrid::build`].
    pub fn level_tile_sizes(&self, tensor_idx: usize, tensor: &Tensor) -> Vec<usize> {
        self.tensors[tensor_idx]
            .level_vars
            .iter()
            .enumerate()
            .map(|(d, var)| {
                let dim = tensor.level(d).dimension();
                match var.and_then(|v| self.vars.iter().find(|tv| tv.var == v)) {
                    Some(tv) if tv.tiled => self.tile.min(dim),
                    _ => dim,
                }
            })
            .collect()
    }

    /// The per-level tile key of tensor `tensor_idx` under the variable
    /// tile tuple `tuple` (indices into [`KernelTiling::tuple_space`]).
    pub fn tile_key(&self, tensor_idx: usize, tuple: &[usize]) -> Vec<u32> {
        let mut out = Vec::new();
        self.tile_key_into(tensor_idx, tuple, &mut out);
        out
    }

    /// [`KernelTiling::tile_key`] into a reused buffer — the tile-tuple
    /// enumeration calls this millions of times on large sweeps.
    pub fn tile_key_into(&self, tensor_idx: usize, tuple: &[usize], out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.tensors[tensor_idx].level_vars.iter().map(|var| {
            match var.and_then(|v| self.vars.iter().position(|tv| tv.var == v)) {
                Some(vi) if self.vars[vi].tiled => tuple[vi] as u32,
                _ => 0,
            }
        }));
    }

    /// Index of `var` within [`KernelTiling::vars`], if traced.
    pub fn var_index(&self, var: char) -> Option<usize> {
        self.vars.iter().position(|tv| tv.var == var)
    }
}

/// A row-major flat enumeration of a tile tuple space.
///
/// [`KernelTiling::tuple_space`] gives the grid size per traced variable;
/// this wraps it so an executor can address tuples by a single flat index
/// without materializing the (possibly enormous) tuple list. Flat order is
/// the odometer's: the last variable varies fastest.
#[derive(Debug, Clone)]
pub struct TupleSpace {
    dims: Vec<usize>,
    total: usize,
}

impl TupleSpace {
    /// Wraps a per-variable grid-size vector (see
    /// [`KernelTiling::tuple_space`]). An empty `dims` describes the
    /// zero-variable space, which has exactly one (empty) tuple.
    pub fn new(dims: Vec<usize>) -> Self {
        let total = dims.iter().product();
        TupleSpace { dims, total }
    }

    /// The grid size along every variable.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of tuples in the space.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Writes the odometer tuple for flat index `i` into `out` (reused
    /// across calls; large sweeps visit millions of tuples).
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.total()`.
    pub fn tuple_at(&self, i: usize, out: &mut Vec<usize>) {
        assert!(i < self.total, "tuple index {i} out of {}", self.total);
        out.clear();
        out.resize(self.dims.len(), 0);
        let mut rest = i;
        for d in (0..self.dims.len()).rev() {
            out[d] = rest % self.dims[d];
            rest /= self.dims[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_core::graphs;
    use sam_core::graphs::SpmmDataflow;
    use sam_tensor::{synth, TensorFormat};

    fn bind(pairs: Vec<(&str, Tensor)>) -> BTreeMap<String, Tensor> {
        pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
    }

    #[test]
    fn gustavson_spmm_tiles_all_three_vars_and_skips_both_operands() {
        let b = synth::random_matrix_sparsity(20, 16, 0.8, 31);
        let c = synth::random_matrix_sparsity(16, 24, 0.8, 32);
        let tensors = bind(vec![
            ("B", Tensor::from_coo("B", &b, TensorFormat::dcsr())),
            ("C", Tensor::from_coo("C", &c, TensorFormat::dcsr())),
        ]);
        let graph = graphs::spmm(SpmmDataflow::LinearCombination);
        let t = KernelTiling::from_graph(&graph, |n| tensors.get(n), 4).unwrap();
        assert_eq!(t.output_vars, vec!['i', 'j']);
        for v in &t.vars {
            assert!(v.tiled, "{} should be tiled", v.var);
        }
        assert_eq!(t.skip_tensors, BTreeSet::from(["B".to_string(), "C".to_string()]));
        let k = t.var_index('k').unwrap();
        assert_eq!(t.vars[k].dim, 16);
        assert_eq!(t.vars[k].grid, 4);
    }

    #[test]
    fn scalar_reduce_with_two_writers_leaves_contraction_untiled() {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 33);
        let c = synth::random_matrix_sparsity(10, 12, 0.8, 34);
        let tensors = bind(vec![
            ("B", Tensor::from_coo("B", &b, TensorFormat::dcsr())),
            ("C", Tensor::from_coo("C", &c, TensorFormat::dcsc())),
        ]);
        let graph = graphs::spmm(SpmmDataflow::InnerProduct);
        let t = KernelTiling::from_graph(&graph, |n| tensors.get(n), 4).unwrap();
        let k = t.var_index('k').unwrap();
        assert!(!t.vars[k].tiled, "inner-product k must stay untiled");
        assert_eq!(t.vars[k].grid, 1);
        for v in ['i', 'j'] {
            assert!(t.vars[t.var_index(v).unwrap()].tiled);
        }
        // Only B's emptiness reaches every writer.
        assert_eq!(t.skip_tensors, BTreeSet::from(["B".to_string()]));
    }

    #[test]
    fn spmv_coiteration_skips_only_on_the_matrix() {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 35);
        let c = synth::random_vector(10, 5, 36);
        let tensors = bind(vec![
            ("B", Tensor::from_coo("B", &b, TensorFormat::dcsr())),
            ("c", Tensor::from_coo("c", &c, TensorFormat::sparse_vec())),
        ]);
        let t = KernelTiling::from_graph(&graphs::spmv_coiteration(), |n| tensors.get(n), 4).unwrap();
        // Single writer, no dropper: the scalar-reduce contraction (j) may
        // still be tiled.
        assert!(t.vars.iter().all(|v| v.tiled));
        // Skipping on the (explicit-zero-producing) vector would drop rows.
        assert_eq!(t.skip_tensors, BTreeSet::from(["B".to_string()]));
    }

    #[test]
    fn sddmm_skips_on_the_sparse_operand_only() {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 37);
        let c = synth::dense_matrix(12, 4, 38);
        let d = synth::dense_matrix(10, 4, 39);
        let tensors = bind(vec![
            ("B", Tensor::from_coo("B", &b, TensorFormat::dcsr())),
            ("C", Tensor::from_coo("C", &c, TensorFormat::dense(2))),
            ("D", Tensor::from_coo("D", &d, TensorFormat::dense(2))),
        ]);
        let t = KernelTiling::from_graph(&graphs::sddmm_coiteration(), |n| tensors.get(n), 4).unwrap();
        assert_eq!(t.skip_tensors, BTreeSet::from(["B".to_string()]));
        // Scalar reduce with two writers: k stays untiled, i and j tile.
        assert!(!t.vars[t.var_index('k').unwrap()].tiled);
        assert!(t.vars[t.var_index('i').unwrap()].tiled);
        assert!(t.vars[t.var_index('j').unwrap()].tiled);
    }

    #[test]
    fn dimension_conflicts_are_rejected() {
        let b = synth::random_vector(10, 4, 40);
        let c = synth::random_vector(12, 4, 41);
        let tensors = bind(vec![
            ("b", Tensor::from_coo("b", &b, TensorFormat::sparse_vec())),
            ("c", Tensor::from_coo("c", &c, TensorFormat::sparse_vec())),
        ]);
        let err = KernelTiling::from_graph(&graphs::vec_elem_mul(true), |n| tensors.get(n), 4);
        assert!(matches!(err, Err(TilingError::DimMismatch { var: 'i', .. })), "{err:?}");
    }

    #[test]
    fn tile_keys_follow_the_storage_order() {
        let b = synth::random_matrix_sparsity(16, 16, 0.8, 42);
        let c = synth::random_matrix_sparsity(16, 16, 0.8, 43);
        let tensors = bind(vec![
            // Outer-product dataflow: B is DCSC, so storage order is (k, i).
            ("B", Tensor::from_coo("B", &b, TensorFormat::dcsc())),
            ("C", Tensor::from_coo("C", &c, TensorFormat::dcsr())),
        ]);
        let graph = graphs::spmm(SpmmDataflow::OuterProduct);
        let t = KernelTiling::from_graph(&graph, |n| tensors.get(n), 4).unwrap();
        let (i, k) = (t.var_index('i').unwrap(), t.var_index('k').unwrap());
        let mut tuple = vec![0usize; t.vars.len()];
        tuple[i] = 2;
        tuple[k] = 3;
        let b_idx = t.tensors.iter().position(|x| x.name == "B").unwrap();
        // B's level 0 iterates k, level 1 iterates i.
        assert_eq!(t.tensors[b_idx].level_vars, vec![Some('k'), Some('i')]);
        assert_eq!(t.tile_key(b_idx, &tuple), vec![3, 2]);
    }

    #[test]
    fn tuple_space_flat_order_matches_the_odometer() {
        let space = TupleSpace::new(vec![2, 3, 2]);
        assert_eq!(space.total(), 12);
        assert_eq!(space.dims(), &[2, 3, 2]);
        // Reference odometer: last variable fastest.
        let mut expect = Vec::new();
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..2 {
                    expect.push(vec![a, b, c]);
                }
            }
        }
        let mut tuple = Vec::new();
        for (i, want) in expect.iter().enumerate() {
            space.tuple_at(i, &mut tuple);
            assert_eq!(&tuple, want, "flat index {i}");
        }
    }

    #[test]
    fn tuple_space_edge_shapes() {
        // Zero variables: one empty tuple.
        let scalar = TupleSpace::new(Vec::new());
        assert_eq!(scalar.total(), 1);
        let mut tuple = vec![7usize];
        scalar.tuple_at(0, &mut tuple);
        assert!(tuple.is_empty());
        // A zero-length axis empties the whole space.
        assert_eq!(TupleSpace::new(vec![3, 0, 2]).total(), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn tuple_space_rejects_out_of_range_indices() {
        TupleSpace::new(vec![2, 2]).tuple_at(4, &mut Vec::new());
    }
}
