//! A tile schedule and its arithmetic: [`KernelTiling`] and [`TupleSpace`].
//!
//! A [`KernelTiling`] says which index variables of a kernel are cut into
//! tiles, how each bound tensor's storage levels map onto those variables,
//! which level writers' variables offset a tile's partial output, and which
//! tensors' empty tiles make a tile tuple skippable. This module only does
//! the arithmetic on it — grid sizes, coordinate windows, per-tensor tile
//! keys; what goes *into* a schedule is decided where the kernel's graph is
//! known, by `sam-exec`'s tiled backend from its `Plan`.

use sam_tensor::Tensor;
use std::collections::BTreeSet;

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
