//! Tile extraction: cutting `tile x tile` sub-tensors out of a fibertree.
//!
//! Extraction works on any level hierarchy because it only uses the
//! positional slicing interface of [`sam_tensor::level::Level`]:
//! [`coord_range`](sam_tensor::level::Level::coord_range) finds the
//! positional window of a coordinate range (O(1) dense, O(log n)
//! compressed, a popcount walk for bitvector levels) and
//! [`entry_at`](sam_tensor::level::Level::entry_at) reads entries
//! positionally, so a tile touches only the fibers and positions that
//! actually intersect its window.
//!
//! A tile is cut by slicing, not rebuilt: [`tile_of`] walks its window once
//! and appends rebased coordinates, fiber ends and leaf values straight
//! into the flat arrays the tile's levels are made of, with no coordinate
//! list in between. The tile is therefore the exact positional window of
//! its parent's *stored* structure, explicit zeros included — which is what
//! bit-identity between a tiled and an untiled run rests on.

use sam_tensor::level::{BitvectorLevel, CompressedLevel, DenseLevel, Level};
use sam_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Walks every *stored* leaf entry of `tensor` in storage order — unlike
/// `Tensor::points`, explicit zeros are visited too (dense levels
/// materialize them) and coordinates are reported in storage order, not
/// logical order.
pub fn for_each_stored(tensor: &Tensor, mut f: impl FnMut(&[u32], f64)) {
    if tensor.levels().is_empty() {
        return;
    }
    let mut prefix = Vec::with_capacity(tensor.order());
    walk_stored(tensor, 0, 0, &mut prefix, &mut f);
}

fn walk_stored(
    tensor: &Tensor,
    level: usize,
    fiber: usize,
    prefix: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32], f64),
) {
    for entry in tensor.level(level).fiber(fiber) {
        prefix.push(entry.coord);
        if level + 1 == tensor.levels().len() {
            f(prefix, tensor.vals()[entry.child]);
        } else {
            walk_stored(tensor, level + 1, entry.child, prefix, f);
        }
        prefix.pop();
    }
}

/// Extracts the sub-tensor of `tensor` spanned by one half-open coordinate
/// window per *storage* level, rebased so the window origin becomes
/// coordinate zero. The tile keeps the original tensor's name and
/// [`sam_tensor::TensorFormat`], so it binds and plans exactly like its
/// parent.
///
/// The tile is the positional window of the parent's stored structure: a
/// dense level materializes every coordinate of its window, a compressed or
/// bitvector level keeps a coordinate exactly when the window below it
/// holds a stored leaf (an explicit zero is one), the root level has one
/// fiber and every deeper level one per parent entry — array for array the
/// fibertree [`sam_tensor::TensorBuilder`] builds from the window's stored
/// points, and its empty tensor when the window holds none.
///
/// # Panics
///
/// Panics if `windows.len()` differs from the tensor order or a window is
/// empty (`lo >= hi`).
pub fn tile_of(tensor: &Tensor, windows: &[(u32, u32)]) -> Tensor {
    assert_eq!(windows.len(), tensor.order(), "one window per storage level");
    assert!(windows.iter().all(|&(lo, hi)| lo < hi), "windows must be nonempty");
    let mut cut = TileCut {
        tensor,
        windows,
        levels: vec![LevelCut { seg: vec![0], crd: Vec::new() }; tensor.order()],
        vals: Vec::new(),
        marks: Vec::new(),
    };
    cut.fiber(0, 0);

    let mode_order = tensor.format().mode_order();
    let mut shape = vec![0usize; tensor.order()];
    let mut levels = Vec::with_capacity(tensor.order());
    for (d, LevelCut { seg, crd }) in cut.levels.into_iter().enumerate() {
        let width = (windows[d].1 - windows[d].0) as usize;
        shape[mode_order[d]] = width;
        levels.push(match tensor.level(d) {
            Level::Dense(_) => Level::Dense(DenseLevel::new(width, seg.len() - 1)),
            Level::Compressed(_) => Level::Compressed(CompressedLevel::new(width, seg, crd)),
            Level::Bitvector(source) => {
                let fibers: Vec<Vec<u32>> = seg.windows(2).map(|w| crd[w[0]..w[1]].to_vec()).collect();
                Level::Bitvector(BitvectorLevel::from_fibers(width, source.word_width, &fibers))
            }
        });
    }
    Tensor::from_parts(tensor.name(), shape, tensor.format().clone(), levels, cut.vals)
}

/// The flat arrays of one tile level under construction: the segment array
/// (a leading zero, then one end per closed fiber — all a dense level keeps
/// is their count) and the rebased coordinates (none for a dense level).
#[derive(Clone)]
struct LevelCut {
    seg: Vec<usize>,
    crd: Vec<u32>,
}

/// One tile under construction, see [`tile_of`].
struct TileCut<'a> {
    tensor: &'a Tensor,
    windows: &'a [(u32, u32)],
    levels: Vec<LevelCut>,
    vals: Vec<f64>,
    /// Scratch stack of deeper levels' fiber counts, see [`TileCut::fiber`].
    marks: Vec<usize>,
}

impl TileCut<'_> {
    /// Appends the window of fiber `fiber` of storage level `level`, and of
    /// everything below it, as one new fiber of the tile; returns how many
    /// stored leaves that added.
    fn fiber(&mut self, level: usize, fiber: usize) -> usize {
        let source = self.tensor.level(level);
        let (lo, hi) = self.windows[level];
        let (leaf, dense) = (level + 1 == self.levels.len(), source.is_dense());
        let mut leaves = 0;
        for pos in source.coord_range(fiber, lo, hi) {
            let entry = source.entry_at(fiber, pos);
            let below = if leaf {
                self.vals.push(self.tensor.vals()[entry.child]);
                1
            } else {
                // A subtree without a stored leaf appends no coordinate and
                // no value, only the empty fibers its dense levels
                // materialize: a compressed or bitvector level drops the
                // entry by rewinding the fiber counts below itself.
                let base = self.marks.len();
                self.marks.extend(self.levels[level + 1..].iter().map(|l| l.seg.len()));
                let below = self.fiber(level + 1, entry.child);
                if below == 0 && !dense {
                    for (l, &mark) in self.levels[level + 1..].iter_mut().zip(&self.marks[base..]) {
                        l.seg.truncate(mark);
                    }
                }
                self.marks.truncate(base);
                below
            };
            if below > 0 && !dense {
                self.levels[level].crd.push(entry.coord - lo);
            }
            leaves += below;
        }
        let LevelCut { seg, crd } = &mut self.levels[level];
        seg.push(crd.len());
        leaves
    }
}

/// A tensor cut into a grid of tiles: one tile size per storage level (use
/// the level's full dimension to leave it untiled), with only *nonempty*
/// tiles materialized.
///
/// "Nonempty" means the tile holds at least one stored leaf entry; for
/// fully dense formats every slot is stored, so every tile of a dense
/// operand is present — exactly the occupancy semantics ExTensor's tile
/// skipping keys on.
#[derive(Debug, Clone)]
pub struct TileGrid {
    tile_sizes: Vec<usize>,
    grids: Vec<usize>,
    dims: Vec<usize>,
    tiles: BTreeMap<Vec<u32>, Arc<Tensor>>,
}

/// The clamped coordinate windows of the tile at `key`, one per storage
/// level — the single source of the key → window mapping [`TileGrid`]
/// cuts and reports tiles with.
fn key_windows(key: &[u32], tile_sizes: &[usize], dims: &[usize]) -> Vec<(u32, u32)> {
    key.iter()
        .zip(tile_sizes)
        .zip(dims)
        .map(|((&k, &t), &d)| {
            let lo = k * t as u32;
            (lo, (lo + t as u32).min(d as u32))
        })
        .collect()
}

impl TileGrid {
    /// Cuts `tensor` into tiles of `tile_sizes[level]` coordinates per
    /// storage level. One occupancy pass over the stored entries keys each
    /// by its tile and cuts that tile with [`tile_of`] the first time it
    /// meets the key, so the pass allocates per nonempty tile, not per
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `tile_sizes` has the wrong length or contains a zero.
    pub fn build(tensor: &Tensor, tile_sizes: Vec<usize>) -> TileGrid {
        assert_eq!(tile_sizes.len(), tensor.order(), "one tile size per storage level");
        assert!(tile_sizes.iter().all(|&t| t > 0), "tile sizes must be positive");
        let dims: Vec<usize> = (0..tensor.order()).map(|l| tensor.level(l).dimension()).collect();
        let grids: Vec<usize> = dims.iter().zip(&tile_sizes).map(|(&d, &t)| d.div_ceil(t)).collect();

        let mut tiles = BTreeMap::new();
        let mut key = vec![0u32; tensor.order()];
        for_each_stored(tensor, |point, _| {
            for ((k, &c), &t) in key.iter_mut().zip(point).zip(&tile_sizes) {
                *k = c / t as u32;
            }
            if !tiles.contains_key(key.as_slice()) {
                let windows = key_windows(&key, &tile_sizes, &dims);
                tiles.insert(key.clone(), Arc::new(tile_of(tensor, &windows)));
            }
        });
        TileGrid { tile_sizes, grids, dims, tiles }
    }

    /// The tile at `key` (per-level tile indices), if it is nonempty.
    pub fn get(&self, key: &[u32]) -> Option<&Tensor> {
        self.tiles.get(key).map(|t| t.as_ref())
    }

    /// Like [`TileGrid::get`], but sharing ownership — binding the tile
    /// into an executor input set is a refcount bump, not a deep copy.
    pub fn get_shared(&self, key: &[u32]) -> Option<&Arc<Tensor>> {
        self.tiles.get(key)
    }

    /// Stored leaf entries of the tile at `key` (zero when empty).
    pub fn stored_entries(&self, key: &[u32]) -> u64 {
        self.get(key).map_or(0, |tile| tile.vals().len() as u64)
    }

    /// Number of nonempty tiles.
    pub fn nonempty(&self) -> usize {
        self.tiles.len()
    }

    /// Total number of tiles in the grid (empty ones included).
    pub fn total_tiles(&self) -> u64 {
        self.grids.iter().map(|&g| g as u64).product()
    }

    /// Tiles per storage level.
    pub fn grids(&self) -> &[usize] {
        &self.grids
    }

    /// The per-level tile sizes this grid was cut with.
    pub fn tile_sizes(&self) -> &[usize] {
        &self.tile_sizes
    }

    /// The coordinate windows (per storage level) of the tile at `key`.
    pub fn windows(&self, key: &[u32]) -> Vec<(u32, u32)> {
        key_windows(key, &self.tile_sizes, &self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_tensor::{synth, CooTensor, LevelFormat, TensorFormat};

    /// Narrow bitvector words, so the parent's fibers span several.
    const LEVEL_FORMATS: [LevelFormat; 3] =
        [LevelFormat::Dense, LevelFormat::Compressed, LevelFormat::Bitvector { word_width: 8 }];

    /// The round trip [`tile_of`] replaced, kept as its reference: the
    /// window's stored points, rebased, rebuilt from a coordinate list.
    fn tile_via_coo(tensor: &Tensor, windows: &[(u32, u32)]) -> Tensor {
        let mode_order = tensor.format().mode_order();
        let mut shape = vec![0usize; tensor.order()];
        for (&(lo, hi), &m) in windows.iter().zip(mode_order) {
            shape[m] = (hi - lo) as usize;
        }
        let mut coo = CooTensor::new(shape);
        for_each_stored(tensor, |stored, v| {
            if stored.iter().zip(windows).all(|(&c, &(lo, hi))| lo <= c && c < hi) {
                let mut logical = vec![0u32; stored.len()];
                for ((&c, &(lo, _)), &m) in stored.iter().zip(windows).zip(mode_order) {
                    logical[m] = c - lo;
                }
                assert!(coo.push(&logical, v).is_ok(), "rebased points are in bounds");
            }
        });
        Tensor::from_coo(tensor.name(), &coo, tensor.format().clone())
    }

    /// The coordinate list keeps no explicit zero, so the reference is only
    /// the parent's window where the parent stores none: a dense leaf level
    /// under a compressed or bitvector one stores them, and there the
    /// reference drops the coordinates above an all-zero window that the
    /// cut (rightly) keeps. Those formats are pinned by
    /// `explicit_zeros_below_a_compressed_level_stay_in_the_tile` instead.
    fn reference_drops_stored_zeros(levels: &[LevelFormat]) -> bool {
        levels.last() == Some(&LevelFormat::Dense) && levels.iter().any(|&l| l != LevelFormat::Dense)
    }

    /// Every window of the grid `tile_sizes` cuts `tensor` into, empty ones
    /// included.
    fn every_window(tensor: &Tensor, tile_sizes: &[usize]) -> Vec<Vec<(u32, u32)>> {
        let grid = TileGrid::build(tensor, tile_sizes.to_vec());
        let mut keys = vec![Vec::new()];
        for &g in grid.grids() {
            keys = keys
                .iter()
                .flat_map(|k: &Vec<u32>| (0..g as u32).map(move |i| [k.as_slice(), &[i]].concat()))
                .collect();
        }
        keys.iter().map(|k| grid.windows(k)).collect()
    }

    #[test]
    fn the_cut_equals_the_coo_round_trip() {
        let mut tiles = 0;
        for seed in 0..6 {
            let coo = synth::random_matrix_sparsity(23, 19, 0.8, 40 + seed);
            for (outer, inner) in LEVEL_FORMATS.iter().flat_map(|&o| LEVEL_FORMATS.map(|i| (o, i))) {
                if reference_drops_stored_zeros(&[outer, inner]) {
                    continue;
                }
                for mode_order in [vec![0, 1], vec![1, 0]] {
                    let fmt = TensorFormat::with_mode_order(vec![outer, inner], mode_order);
                    let t = Tensor::from_coo("B", &coo, fmt.clone());
                    // 23 x 19 cut 5 x 4: the last window of each level clamps.
                    for windows in every_window(&t, &[5, 4]) {
                        assert_eq!(tile_of(&t, &windows), tile_via_coo(&t, &windows), "{fmt} {windows:?}");
                        tiles += 1;
                    }
                }
            }
            // Three levels, the middle one untiled.
            let coo3 = synth::random_tensor3([7, 9, 11], 60, 50 + seed);
            for levels in LEVEL_FORMATS
                .iter()
                .flat_map(|&a| LEVEL_FORMATS.iter().flat_map(move |&b| LEVEL_FORMATS.map(|c| [a, b, c])))
            {
                if reference_drops_stored_zeros(&levels) {
                    continue;
                }
                let fmt = TensorFormat::with_mode_order(levels.to_vec(), vec![2, 0, 1]);
                let t = Tensor::from_coo("T", &coo3, fmt.clone());
                let middle = t.level(1).dimension();
                for windows in every_window(&t, &[4, middle, 3]) {
                    assert_eq!(tile_of(&t, &windows), tile_via_coo(&t, &windows), "{fmt} {windows:?}");
                    tiles += 1;
                }
            }
        }
        assert!(tiles > 1000, "only {tiles} tiles compared");
    }

    /// A 4 x 4 matrix holding `(0,1) = 1` and `(2,2) = 3`.
    fn two_point_matrix() -> CooTensor {
        let mut dense = [0.0; 16];
        (dense[1], dense[10]) = (1.0, 3.0);
        CooTensor::from_dense(vec![4, 4], &dense)
    }

    #[test]
    fn an_empty_window_is_the_empty_tensor() {
        for inner in [LevelFormat::Compressed, LevelFormat::bitvector()] {
            let fmt = TensorFormat::new(vec![LevelFormat::Compressed, inner]);
            let t = Tensor::from_coo("B", &two_point_matrix(), fmt.clone());
            // Row 0 is stored, but not in columns 2..4: its coordinate goes.
            let tile = tile_of(&t, &[(0, 2), (2, 4)]);
            assert_eq!(tile, Tensor::from_coo("B", &CooTensor::new(vec![2, 2]), fmt));
            assert_eq!(tile.level(0), &Level::Compressed(CompressedLevel::new(2, vec![0, 0], Vec::new())));
            assert_eq!(tile.level(1).num_fibers(), 0);
            assert!(tile.vals().is_empty());
        }
    }

    #[test]
    fn explicit_zeros_below_a_compressed_level_stay_in_the_tile() {
        // (Compressed, Dense): rows 0 and 2 are stored, every column of
        // them too. The right-hand tile of row 0 holds only explicit zeros
        // and is still the parent's window, coordinate and all.
        let fmt = TensorFormat::new(vec![LevelFormat::Compressed, LevelFormat::Dense]);
        let t = Tensor::from_coo("B", &two_point_matrix(), fmt);
        let grid = TileGrid::build(&t, vec![2, 2]);
        assert_eq!(grid.nonempty(), 4);
        let row_zero = Level::Compressed(CompressedLevel::new(2, vec![0, 1], vec![0]));
        assert_eq!(grid.get(&[0, 1]).map(|tile| tile.level(0)), Some(&row_zero));
        assert_eq!(grid.get(&[0, 1]).map(Tensor::vals), Some(&[0.0, 0.0][..]));
        assert_eq!(grid.get(&[1, 1]).map(Tensor::vals), Some(&[3.0, 0.0][..]));
    }

    #[test]
    fn stored_entries_is_the_tile_s_value_count() {
        let coo = synth::random_matrix_sparsity(23, 19, 0.8, 46);
        for (outer, inner) in LEVEL_FORMATS.iter().flat_map(|&o| LEVEL_FORMATS.map(|i| (o, i))) {
            let t = Tensor::from_coo("B", &coo, TensorFormat::new(vec![outer, inner]));
            let grid = TileGrid::build(&t, vec![5, 4]);
            let mut total = 0;
            for (key, tile) in grid.tiles.iter() {
                assert_eq!(tile.vals().len() as u64, grid.stored_entries(key), "{} {key:?}", t.format());
                assert!(grid.stored_entries(key) > 0, "only nonempty tiles are cut");
                total += grid.stored_entries(key);
            }
            assert_eq!(total as usize, t.vals().len(), "{}: every stored entry is in one tile", t.format());
            assert_eq!(grid.stored_entries(&[99, 99]), 0);
        }
    }

    #[test]
    fn tile_roundtrip_covers_the_matrix() {
        let coo = synth::random_matrix_sparsity(13, 17, 0.7, 21);
        for fmt in [TensorFormat::dcsr(), TensorFormat::csr(), TensorFormat::dcsc()] {
            let t = Tensor::from_coo("B", &coo, fmt.clone());
            let grid = TileGrid::build(&t, vec![4, 4]);
            // Reassemble the dense matrix from the tiles.
            let mut dense = vec![vec![0.0f64; 17]; 13];
            for (key, tile) in grid.tiles.iter() {
                let windows = grid.windows(key);
                for (point, v) in tile.points() {
                    // Points are logical; map windows through the mode order.
                    let mode_order = fmt.mode_order();
                    let mut global = [0u32; 2];
                    for (level, &m) in mode_order.iter().enumerate() {
                        global[m] = point[m] + windows[level].0;
                    }
                    dense[global[0] as usize][global[1] as usize] += v;
                }
            }
            for (point, v) in Tensor::from_coo("B", &coo, TensorFormat::dcsr()).points() {
                assert_eq!(dense[point[0] as usize][point[1] as usize], v, "format {fmt}");
            }
        }
    }

    #[test]
    fn tile_of_rebases_and_keeps_format() {
        let coo = CooTensor::from_entries(
            vec![8, 8],
            vec![(vec![1, 5], 2.0), (vec![2, 6], 3.0), (vec![6, 1], 4.0)],
        )
        .unwrap();
        let t = Tensor::from_coo("B", &coo, TensorFormat::dcsr());
        let tile = tile_of(&t, &[(0, 4), (4, 8)]);
        assert_eq!(tile.name(), "B");
        assert_eq!(tile.format(), t.format());
        assert_eq!(tile.shape(), &[4, 4]);
        assert_eq!(tile.get(&[1, 1]), 2.0);
        assert_eq!(tile.get(&[2, 2]), 3.0);
        assert_eq!(tile.nnz(), 2);
    }

    #[test]
    fn bitvector_levels_slice_too() {
        let coo = synth::random_matrix_sparsity(12, 12, 0.6, 22);
        let fmt = TensorFormat::new(vec![
            sam_tensor::LevelFormat::Compressed,
            sam_tensor::LevelFormat::bitvector(),
        ]);
        let t = Tensor::from_coo("B", &coo, fmt);
        let grid = TileGrid::build(&t, vec![5, 5]);
        let dense_ref = Tensor::from_coo("B", &coo, TensorFormat::dcsr());
        let mut total = 0.0;
        for (key, tile) in grid.tiles.iter() {
            let _ = grid.windows(key);
            total += tile.points().iter().map(|(_, v)| v).sum::<f64>();
        }
        let expect: f64 = dense_ref.points().iter().map(|(_, v)| v).sum();
        assert!((total - expect).abs() < 1e-9);
    }

    #[test]
    fn dense_operands_materialize_every_tile() {
        let coo = synth::dense_matrix(6, 6, 23);
        let t = Tensor::from_coo("C", &coo, TensorFormat::dense(2));
        let grid = TileGrid::build(&t, vec![4, 4]);
        assert_eq!(grid.nonempty(), 4);
        assert_eq!(grid.total_tiles(), 4);
        // Edge tiles clamp to the remaining coordinates.
        assert_eq!(grid.get(&[1, 1]).unwrap().shape(), &[2, 2]);
    }

    #[test]
    fn untiled_levels_use_one_full_window() {
        let coo = synth::random_matrix_sparsity(9, 9, 0.5, 24);
        let t = Tensor::from_coo("B", &coo, TensorFormat::dcsr());
        let grid = TileGrid::build(&t, vec![4, 9]);
        assert_eq!(grid.grids(), &[3, 1]);
        for key in grid.tiles.keys() {
            assert_eq!(key[1], 0);
        }
        assert_eq!(grid.tile_sizes(), &[4, 9]);
        let total: u64 = grid.tiles.keys().map(|key| grid.stored_entries(key)).sum();
        assert_eq!(total as usize, t.nnz());
    }
}
