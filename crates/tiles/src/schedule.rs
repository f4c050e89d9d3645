//! A tile schedule and its arithmetic: [`KernelTiling`].
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
    /// Written into a reused buffer: the tile-tuple enumeration calls this
    /// millions of times on large sweeps.
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
