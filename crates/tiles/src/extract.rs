//! Tile extraction: cutting a fibertree into a grid of `tile x tile`
//! sub-tensors in one pass.
//!
//! [`TileGrid::build`] walks the parent's stored levels once, depth first,
//! reading each fiber in place. An entry's window index is computed once,
//! at the entry's own level, and the leaves of one fiber in one window are
//! one *run* into one tile, found by the tile's linear key. A tile's level
//! opens a fiber or keeps a coordinate only when a run arrives below it, so
//! the walk logs, per run, the first level at which the run's path is new to
//! its tile and the path's rebased coordinates from there down, and counts
//! every tile's entries per level. A linear replay of that log then appends
//! coordinates and fiber ends straight into each tile's flat arrays, sized
//! exactly from the counts; a run's values (and a compressed leaf level's
//! coordinates) are copied from the parent's consecutive positions.
//!
//! A tile is therefore the exact positional window of its parent's *stored*
//! structure, explicit zeros included — which is what bit-identity between a
//! tiled and an untiled run rests on: a dense level keeps every coordinate
//! of its window (with an empty fiber below where nothing is stored), a
//! compressed or bitvector level keeps a coordinate exactly when a stored
//! leaf lies below it in the window, the root level has one fiber and every
//! deeper level one per parent entry — array for array the fibertree
//! [`sam_tensor::TensorBuilder`] builds from the window's stored points.
//! Only nonempty tiles are built. Where one window covers the whole tensor
//! that tile would equal the tensor, so the grid shares the tensor instead
//! of cutting it.

use sam_tensor::level::{BitvectorLevel, CompressedLevel, DenseLevel, Level};
use sam_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// Calls `f(coord, child)` for every entry of fiber `fiber` of `level`, in
/// coordinate order, reading the level's arrays in place.
#[inline]
fn each_entry(level: &Level, fiber: usize, mut f: impl FnMut(u32, usize)) {
    match level {
        Level::Dense(l) => {
            let base = fiber * l.size;
            for c in 0..l.size {
                f(c as u32, base + c);
            }
        }
        Level::Compressed(l) => {
            let start = l.seg[fiber];
            for (i, &c) in l.crd[start..l.seg[fiber + 1]].iter().enumerate() {
                f(c, start + i);
            }
        }
        Level::Bitvector(l) => {
            let mut rank = l.fiber_rank_base(fiber);
            for (wi, &word) in l.fiber_words(fiber).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    f((wi * l.word_width as usize) as u32 + bits.trailing_zeros(), rank);
                    rank += 1;
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// Walks every *stored* leaf entry of `tensor` in storage order — unlike
/// `Tensor::points`, explicit zeros are visited too (dense levels
/// materialize them) and coordinates are reported in storage order, not
/// logical order.
#[cfg(test)]
pub(crate) fn for_each_stored(tensor: &Tensor, mut f: impl FnMut(&[u32], f64)) {
    if tensor.levels().is_empty() {
        return;
    }
    let mut point = vec![0; tensor.order()];
    walk_stored(tensor, 0, 0, &mut point, &mut f);
}

/// Visits fiber `fiber` of storage level `level`, below the coordinates
/// `point[..level]`.
#[cfg(test)]
fn walk_stored(
    tensor: &Tensor,
    level: usize,
    fiber: usize,
    point: &mut [u32],
    f: &mut impl FnMut(&[u32], f64),
) {
    // One loop per case, so the leaf loop holds no recursion.
    let source = tensor.level(level);
    if level + 1 == point.len() {
        each_entry(source, fiber, |coord, child| {
            point[level] = coord;
            f(point, tensor.vals()[child]);
        });
    } else {
        each_entry(source, fiber, |coord, child| {
            point[level] = coord;
            walk_stored(tensor, level + 1, child, point, f);
        });
    }
}

/// A coordinate out of place, met while cutting a tensor: not above the
/// coordinate before it in its fiber, or not below its level's dimension.
/// No tile of the tensor can be cut: each entry's window and rebased
/// coordinate are found by walking a fiber in coordinate order, and an entry
/// past the dimension lies in no window of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Misplaced {
    /// The storage level holding the coordinate.
    pub level: usize,
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
    /// Row-major strides of the linear key, one per storage level.
    strides: Vec<u64>,
    /// The nonempty tiles' slots in `tiles`, by linear key: memory per
    /// nonempty tile, however fine the grid.
    index: HashMap<u64, usize>,
    /// The nonempty tiles, in the order the walk first reached them.
    tiles: Vec<Arc<Tensor>>,
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
    /// storage level, in one depth-first pass over its stored entries (see
    /// the [module docs](self)). Where the sizes reach every level's
    /// dimension, one window covers the tensor: the grid's only tile is
    /// `tensor` itself, shared rather than copied entry for entry (an empty
    /// tensor still has no tile).
    ///
    /// # Errors
    ///
    /// Returns [`Misplaced`] for a tensor it cuts one of whose fibers holds
    /// a coordinate that does not ascend or lies past its level's
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if `tile_sizes` has the wrong length or contains a zero.
    pub fn build(tensor: &Arc<Tensor>, tile_sizes: Vec<usize>) -> Result<TileGrid, Misplaced> {
        assert_eq!(tile_sizes.len(), tensor.order(), "one tile size per storage level");
        assert!(tile_sizes.iter().all(|&t| t > 0), "tile sizes must be positive");
        let order = tensor.order();
        let dims: Vec<usize> = (0..order).map(|l| tensor.level(l).dimension()).collect();
        let grids: Vec<usize> = dims.iter().zip(&tile_sizes).map(|(&d, &t)| d.div_ceil(t)).collect();
        let mut strides = vec![1u64; order];
        for l in (1..order).rev() {
            strides[l - 1] = strides[l] * grids[l] as u64;
        }
        let (index, tiles) = if tile_sizes.iter().zip(&dims).all(|(&t, &d)| t >= d) {
            if tensor.vals().is_empty() {
                (HashMap::new(), Vec::new())
            } else {
                (HashMap::from([(0, 0)]), vec![Arc::clone(tensor)])
            }
        } else {
            cut(tensor, &tile_sizes, &grids, &dims, &strides)?
        };
        Ok(TileGrid { tile_sizes, grids, dims, strides, index, tiles })
    }

    /// The row-major linear index of the tile at `key` (per-level tile
    /// indices) within the grid: a key that identifies one tile of this grid
    /// in a single integer.
    pub fn linear_key(&self, key: &[u32]) -> u64 {
        key.iter().zip(&self.strides).map(|(&k, &s)| k as u64 * s).sum()
    }

    /// The tile at `key` (per-level tile indices), if it is nonempty.
    pub fn get(&self, key: &[u32]) -> Option<&Tensor> {
        self.get_shared(key).map(|t| t.as_ref())
    }

    /// Like [`TileGrid::get`], but sharing ownership — binding the tile
    /// into an executor input set is a refcount bump, not a deep copy.
    pub fn get_shared(&self, key: &[u32]) -> Option<&Arc<Tensor>> {
        if key.len() != self.grids.len() || key.iter().zip(&self.grids).any(|(&k, &g)| k as usize >= g) {
            return None;
        }
        self.index.get(&self.linear_key(key)).map(|&slot| &self.tiles[slot])
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

/// The nonempty tiles' slots by linear key, and the tiles.
type Cut = (HashMap<u64, usize>, Vec<Arc<Tensor>>);

/// The nonempty tiles of `tensor` under `tile_sizes`, cut in one
/// depth-first pass, and their slots by linear key.
fn cut(
    tensor: &Tensor,
    tile_sizes: &[usize],
    grids: &[usize],
    dims: &[usize],
    strides: &[u64],
) -> Result<Cut, Misplaced> {
    let order = tensor.order();
    let stored = tensor.vals().len();
    // At most one run per stored leaf, and per leaf fiber and window.
    let runs =
        order.checked_sub(1).map_or(0, |leaf| stored.min(tensor.level(leaf).num_fibers() * grids[leaf]));
    let mut walk = Walk {
        tensor,
        sizes: tile_sizes.iter().map(|&t| u32::try_from(t).unwrap_or(u32::MAX)).collect(),
        strides,
        rebased: vec![0; order],
        entry: vec![0; order],
        index: HashMap::new(),
        keys: Vec::new(),
        last: Vec::new(),
        counts: Vec::new(),
        log: Vec::with_capacity(runs * (RUN_HEADER + order)),
        misplaced: None,
    };
    if order > 0 {
        walk.visit(0, 0, 0);
    }
    if let Some(level) = walk.misplaced {
        return Err(Misplaced { level });
    }
    let tiles = walk.fill(tile_sizes, grids, dims);
    Ok((walk.index, tiles))
}

/// The depth-first pass of [`cut`]: routes every stored leaf to
/// its tile and logs what each run of leaves adds to it.
struct Walk<'a> {
    tensor: &'a Tensor,
    sizes: Vec<u32>,
    strides: &'a [u64],
    /// The current path, one slot per level: each entry's coordinate
    /// rebased into its window, and its child position (which identifies
    /// the entry within its level).
    rebased: Vec<u32>,
    entry: Vec<usize>,
    index: HashMap<u64, usize>,
    /// Per slot, the tile's linear key.
    keys: Vec<u64>,
    /// Per slot and level, the child position of the entry the tile last
    /// kept at that level (`usize::MAX` before the first).
    last: Vec<usize>,
    /// Per slot and level, the entries the tile keeps there (for the leaf
    /// level, its values).
    counts: Vec<usize>,
    /// Per run of leaves of one fiber in one window: the tile's slot, the
    /// first level at which the run's path is new to the tile, the run's
    /// length, its first leaf's position, and the path's rebased
    /// coordinates from that level down to the leaves' parent. A run's
    /// values (and a compressed leaf level's coordinates) sit at consecutive
    /// positions of the parent, so only a bitvector leaf level logs the
    /// leaves' rebased coordinates, after the path's.
    log: Vec<usize>,
    /// The first level met holding a coordinate that does not ascend in its
    /// fiber or lies past its dimension: the log is not replayed then.
    misplaced: Option<usize>,
}

/// Log words of a run before its path's coordinates.
const RUN_HEADER: usize = 4;

impl Walk<'_> {
    /// Visits fiber `fiber` of storage level `level`, whose ancestors'
    /// windows put it at linear key `key` so far.
    fn visit(&mut self, level: usize, fiber: usize, key: u64) {
        let tensor = self.tensor;
        let (size, stride) = (self.sizes[level], self.strides[level]);
        // The window of the entry before: a fiber's coordinates ascend, so
        // the window index is recomputed only when one leaves it. A
        // coordinate that does not ascend, or lies past the dimension, fails
        // the cut; until the walk ends, its rebased coordinate and window are
        // placeholders nobody reads.
        let dim = tensor.level(level).dimension() as u64;
        let (mut lo, mut hi, mut window_key, mut least) = (0u32, 0u32, key, 0u64);
        let mut enter = move |coord: u32| {
            let placed = u64::from(coord) >= least && u64::from(coord) < dim;
            least = u64::from(coord) + 1;
            let left = coord >= hi;
            if left {
                let window = coord / size;
                lo = window * size;
                hi = lo.saturating_add(size);
                window_key = key + window as u64 * stride;
            }
            (placed, left, coord.wrapping_sub(lo), window_key)
        };
        let source = tensor.level(level);
        if level + 1 < self.rebased.len() {
            each_entry(source, fiber, |coord, child| {
                let (placed, _, rebased, key) = enter(coord);
                if !placed {
                    self.misplaced.get_or_insert(level);
                }
                self.rebased[level] = rebased;
                self.entry[level] = child;
                self.visit(level + 1, child, key);
            });
        } else {
            let bitvector = matches!(source, Level::Bitvector(_));
            let (mut run, mut len) = (None, 0);
            each_entry(source, fiber, |coord, child| {
                let (placed, left, rebased, key) = enter(coord);
                if !placed {
                    self.misplaced.get_or_insert(level);
                }
                if left {
                    self.close_run(run, len);
                    (run, len) = (Some(self.open_run(key, child)), 0);
                }
                len += 1;
                if bitvector {
                    self.log.push(rebased as usize);
                }
            });
            self.close_run(run, len);
        }
    }

    /// Opens a run of leaves, the first at child position `first`, below the
    /// current path in the tile at `key`; returns the log position of the
    /// run's length and the index of the tile's leaf count.
    fn open_run(&mut self, key: u64, first: usize) -> (usize, usize) {
        let order = self.rebased.len();
        let slot = *self.index.entry(key).or_insert(self.keys.len());
        if slot == self.keys.len() {
            self.keys.push(key);
            self.last.resize(self.last.len() + order, usize::MAX);
            self.counts.resize(self.counts.len() + order, 0);
        }
        let base = slot * order;
        let (last, counts) = (&mut self.last[base..][..order], &mut self.counts[base..][..order]);
        // A tile sees everything below one parent entry together, so the
        // path is new from just below the deepest level whose entry the
        // tile kept last (a child position is unique within its level).
        let mut new = order - 1;
        while new > 0 && last[new - 1] != self.entry[new - 1] {
            new -= 1;
        }
        last[new..order - 1].copy_from_slice(&self.entry[new..order - 1]);
        counts[new..order - 1].iter_mut().for_each(|count| *count += 1);
        let at = self.log.len() + 2;
        self.log.extend([slot, new, 0, first]);
        self.log.extend(self.rebased[new..order - 1].iter().map(|&c| c as usize));
        (at, base + order - 1)
    }

    /// Records the length of the run `open_run` returned `run` for.
    #[inline]
    fn close_run(&mut self, run: Option<(usize, usize)>, len: usize) {
        if let Some((at, count)) = run {
            self.log[at] = len;
            self.counts[count] += len;
        }
    }

    /// Builds every tile the walk reached, in slot order, by replaying the
    /// log into arrays sized from the counts.
    fn fill(&self, tile_sizes: &[usize], grids: &[usize], dims: &[usize]) -> Vec<Arc<Tensor>> {
        let tensor = self.tensor;
        let order = self.rebased.len();
        let dense: Vec<bool> = tensor.levels().iter().map(Level::is_dense).collect();
        let n = self.keys.len() * order;
        // Per slot and level: the window's origin and width, the tile's
        // fiber count, the level's arrays, and the tile child position of
        // its current entry.
        let (mut origin, mut width, mut fibers) = (vec![0u32; n], vec![0usize; n], vec![0usize; n]);
        let mut cuts: Vec<LevelCut> = Vec::with_capacity(n);
        let mut vals: Vec<Vec<f64>> = Vec::with_capacity(self.keys.len());
        for (slot, &key) in self.keys.iter().enumerate() {
            let base = slot * order;
            for l in 0..order {
                let lo = (key / self.strides[l]) as usize % grids[l] * tile_sizes[l];
                origin[base + l] = lo as u32;
                width[base + l] = tile_sizes[l].min(dims[l] - lo);
                fibers[base + l] = match l {
                    0 => 1,
                    _ if dense[l - 1] => fibers[base + l - 1] * width[base + l - 1],
                    _ => self.counts[base + l - 1],
                };
                cuts.push(if dense[l] {
                    LevelCut { seg: Vec::new(), crd: Vec::new() }
                } else {
                    let mut seg = Vec::with_capacity(fibers[base + l] + 1);
                    seg.push(0);
                    LevelCut { seg, crd: Vec::with_capacity(self.counts[base + l]) }
                });
            }
            vals.push(Vec::with_capacity(self.counts[base + order - 1]));
        }

        let leaf = order - 1;
        let mut child = vec![0usize; n];
        let mut at = 0;
        while at < self.log.len() {
            let [slot, new, len, first] = [0, 1, 2, 3].map(|i| self.log[at + i]);
            at += RUN_HEADER;
            let base = slot * order;
            let fiber_of = |child: &[usize], l: usize| if l == 0 { 0 } else { child[base + l - 1] };
            for l in new..leaf {
                let rebased = self.log[at];
                at += 1;
                let fiber = fiber_of(&child, l);
                child[base + l] = if dense[l] {
                    fiber * width[base + l] + rebased
                } else {
                    cuts[base + l].append(fiber, [rebased as u32])
                };
            }
            let (cut, fiber) = (&mut cuts[base + leaf], fiber_of(&child, leaf));
            match tensor.level(leaf) {
                Level::Dense(_) => {}
                Level::Compressed(source) => {
                    let lo = origin[base + leaf];
                    cut.append(fiber, source.crd[first..first + len].iter().map(|&c| c - lo));
                }
                Level::Bitvector(_) => {
                    cut.append(fiber, self.log[at..at + len].iter().map(|&c| c as u32));
                    at += len;
                }
            }
            vals[slot].extend_from_slice(&tensor.vals()[first..first + len]);
        }

        let mode_order = tensor.format().mode_order();
        let mut cuts = cuts.into_iter();
        vals.into_iter()
            .enumerate()
            .map(|(slot, vals)| {
                let base = slot * order;
                let mut shape = vec![0usize; order];
                let levels = (0..order)
                    .zip(cuts.by_ref())
                    .map(|(l, LevelCut { mut seg, crd })| {
                        let (width, fibers) = (width[base + l], fibers[base + l]);
                        shape[mode_order[l]] = width;
                        if dense[l] {
                            return Level::Dense(DenseLevel::new(width, fibers));
                        }
                        // Close the last fiber and the empty ones after it.
                        seg.resize(fibers + 1, crd.len());
                        match tensor.level(l) {
                            Level::Dense(_) | Level::Compressed(_) => {
                                Level::Compressed(CompressedLevel { dim: width, seg, crd })
                            }
                            Level::Bitvector(source) => {
                                let fibers: Vec<Vec<u32>> =
                                    seg.windows(2).map(|w| crd[w[0]..w[1]].to_vec()).collect();
                                Level::Bitvector(BitvectorLevel::from_fibers(
                                    width,
                                    source.word_width,
                                    &fibers,
                                ))
                            }
                        }
                    })
                    .collect();
                Arc::new(Tensor::from_parts(tensor.name(), shape, tensor.format().clone(), levels, vals))
            })
            .collect()
    }
}

/// The flat arrays of one tile level under construction: the segment array
/// (a leading zero, then one end per closed fiber) and the rebased
/// coordinates. A dense level keeps neither.
struct LevelCut {
    seg: Vec<usize>,
    crd: Vec<u32>,
}

impl LevelCut {
    /// Appends `coords` to fiber `fiber`, closing the fibers before it (the
    /// ones since the last append held nothing in the window); returns the
    /// last coordinate's position.
    #[inline]
    fn append(&mut self, fiber: usize, coords: impl IntoIterator<Item = u32>) -> usize {
        while self.seg.len() <= fiber {
            self.seg.push(self.crd.len());
        }
        self.crd.extend(coords);
        self.crd.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_tensor::{synth, CooTensor, LevelFormat, TensorFormat};

    /// Narrow bitvector words, so the parent's fibers span several.
    const LEVEL_FORMATS: [LevelFormat; 3] =
        [LevelFormat::Dense, LevelFormat::Compressed, LevelFormat::Bitvector { word_width: 8 }];

    /// The grid of `tensor` under `tile_sizes`, built over a shared copy of
    /// it.
    fn grid_of(tensor: &Tensor, tile_sizes: Vec<usize>) -> Result<TileGrid, Misplaced> {
        TileGrid::build(&Arc::new(tensor.clone()), tile_sizes)
    }

    /// The per-window cut [`TileGrid::build`] replaced, kept as its
    /// reference: slices one window out of `tensor` (one half-open
    /// coordinate window per *storage* level), rebased so the window origin
    /// becomes coordinate zero, walking only the fibers that intersect it
    /// and, in each, the entries of [`sam_tensor::level::Level::fiber`] that
    /// fall inside it. Its empty tensor when the window holds no stored
    /// leaf.
    fn tile_of(tensor: &Tensor, windows: &[(u32, u32)]) -> Tensor {
        assert_eq!(windows.len(), tensor.order(), "one window per storage level");
        assert!(windows.iter().all(|&(lo, hi)| lo < hi), "windows must be nonempty");
        let mut cut = TileCut {
            tensor,
            windows,
            levels: vec![(vec![0], Vec::new()); tensor.order()],
            vals: Vec::new(),
            marks: Vec::new(),
        };
        cut.fiber(0, 0);

        let mode_order = tensor.format().mode_order();
        let mut shape = vec![0usize; tensor.order()];
        let mut levels = Vec::with_capacity(tensor.order());
        for (d, (seg, crd)) in cut.levels.into_iter().enumerate() {
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

    /// One window under construction, see [`tile_of`]: per level the
    /// segment and coordinate arrays.
    struct TileCut<'a> {
        tensor: &'a Tensor,
        windows: &'a [(u32, u32)],
        levels: Vec<(Vec<usize>, Vec<u32>)>,
        vals: Vec<f64>,
        /// Scratch stack of deeper levels' fiber counts.
        marks: Vec<usize>,
    }

    impl TileCut<'_> {
        /// Appends the window of fiber `fiber` of storage level `level`, and
        /// of everything below it, as one new fiber of the tile; returns how
        /// many stored leaves that added.
        fn fiber(&mut self, level: usize, fiber: usize) -> usize {
            let source = self.tensor.level(level);
            let (lo, hi) = self.windows[level];
            let (leaf, dense) = (level + 1 == self.levels.len(), source.is_dense());
            let mut leaves = 0;
            for entry in source.fiber(fiber).into_iter().filter(|e| (lo..hi).contains(&e.coord)) {
                let below = if leaf {
                    self.vals.push(self.tensor.vals()[entry.child]);
                    1
                } else {
                    // A subtree without a stored leaf keeps only the empty
                    // fibers its dense levels materialize: a compressed or
                    // bitvector level drops the entry by rewinding them.
                    let base = self.marks.len();
                    self.marks.extend(self.levels[level + 1..].iter().map(|l| l.0.len()));
                    let below = self.fiber(level + 1, entry.child);
                    if below == 0 && !dense {
                        for (l, &mark) in self.levels[level + 1..].iter_mut().zip(&self.marks[base..]) {
                            l.0.truncate(mark);
                        }
                    }
                    self.marks.truncate(base);
                    below
                };
                if below > 0 && !dense {
                    self.levels[level].1.push(entry.coord - lo);
                }
                leaves += below;
            }
            let (seg, crd) = &mut self.levels[level];
            seg.push(crd.len());
            leaves
        }
    }

    /// The round trip the per-window cut replaced, kept as a second
    /// reference: the window's stored points, rebased, rebuilt from a
    /// coordinate list.
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
    /// `explicit_zeros_below_a_compressed_level_stay_in_the_tile` and
    /// `the_grid_equals_the_reference_cut_at_every_key` instead.
    fn reference_drops_stored_zeros(levels: &[LevelFormat]) -> bool {
        levels.last() == Some(&LevelFormat::Dense) && levels.iter().any(|&l| l != LevelFormat::Dense)
    }

    /// Every key of `grid`, empty tiles included, in row-major order.
    fn every_key(grid: &TileGrid) -> Vec<Vec<u32>> {
        let mut keys = vec![Vec::new()];
        for &g in grid.grids() {
            keys = keys
                .iter()
                .flat_map(|k: &Vec<u32>| (0..g as u32).map(move |i| [k.as_slice(), &[i]].concat()))
                .collect();
        }
        keys
    }

    /// The nonempty tiles of `grid` with their keys, in key order.
    fn nonempty_tiles(grid: &TileGrid) -> Vec<(Vec<u32>, &Tensor)> {
        every_key(grid).into_iter().filter_map(|key| Some((key.clone(), grid.get(&key)?))).collect()
    }

    /// Every level-format combination of `order` levels.
    fn format_combinations(order: usize) -> Vec<Vec<LevelFormat>> {
        (0..order).fold(vec![Vec::new()], |combos, _| {
            combos.iter().flat_map(|c| LEVEL_FORMATS.map(|f| [c.as_slice(), &[f]].concat())).collect()
        })
    }

    /// `tensor` with every third stored value set to zero: explicit zeros
    /// under every kind of level.
    fn with_explicit_zeros(tensor: &Tensor) -> Tensor {
        let vals = tensor.vals().iter().enumerate().map(|(i, &v)| if i % 3 == 0 { 0.0 } else { v }).collect();
        let levels = tensor.levels().to_vec();
        Tensor::from_parts(tensor.name(), tensor.shape().to_vec(), tensor.format().clone(), levels, vals)
    }

    /// Asserts that `grid`, cut from `tensor`, holds exactly the reference
    /// cut of every window that holds a stored leaf, and no other tile;
    /// returns how many windows it compared.
    fn assert_grid_matches_reference(tensor: &Tensor, grid: &TileGrid) -> usize {
        let keys = every_key(grid);
        for key in &keys {
            let reference = tile_of(tensor, &grid.windows(key));
            let expect = (!reference.vals().is_empty()).then_some(&reference);
            assert_eq!(grid.get(key), expect, "{} {:?} at {key:?}", tensor.format(), grid.tile_sizes());
        }
        let stored: usize = nonempty_tiles(grid).iter().map(|(_, t)| t.vals().len()).sum();
        assert_eq!(stored, tensor.vals().len(), "every stored entry is in one tile");
        keys.len()
    }

    #[test]
    fn the_grid_equals_the_reference_cut_at_every_key() -> Result<(), Misplaced> {
        let mut windows = 0;
        for seed in 0..3 {
            let vector = synth::random_vector(29, 11, 60 + seed);
            let matrix = synth::random_matrix_sparsity(23, 19, 0.8, 70 + seed);
            let tensor3 = synth::random_tensor3([7, 9, 11], 60, 80 + seed);
            // Per order: the points, the mode orders, and tile sizes (per
            // storage level) giving clamped edge windows, an untiled level
            // and a one-tile grid.
            let cases = [
                (&vector, vec![vec![0]], vec![vec![4], vec![29], vec![64]]),
                (&matrix, vec![vec![0, 1], vec![1, 0]], vec![vec![5, 4], vec![4, 23], vec![32, 32]]),
                (
                    &tensor3,
                    vec![vec![0, 1, 2], vec![2, 0, 1]],
                    vec![vec![4, 3, 2], vec![3, 11, 4], vec![16; 3]],
                ),
            ];
            for (coo, mode_orders, tile_sizes) in cases {
                for levels in format_combinations(coo.order()) {
                    for mode_order in &mode_orders {
                        let fmt = TensorFormat::with_mode_order(levels.clone(), mode_order.clone());
                        let t = Tensor::from_coo("T", coo, fmt);
                        for t in [with_explicit_zeros(&t), t] {
                            for sizes in &tile_sizes {
                                let sizes =
                                    sizes.iter().enumerate().map(|(l, &s)| s.min(t.level(l).dimension()));
                                let grid = grid_of(&t, sizes.collect())?;
                                windows += assert_grid_matches_reference(&t, &grid);
                            }
                        }
                    }
                }
            }
        }
        assert!(windows > 20_000, "only {windows} windows compared");
        Ok(())
    }

    /// Where one window covers a tensor, the cut copies the tensor
    /// unchanged: that is what lets [`TileGrid::build`] share it as the
    /// grid's only tile instead. Every level format at orders 1–3, in both
    /// mode orders, with explicit zeros and without, and empty.
    #[test]
    fn a_one_window_tile_is_its_tensor() -> Result<(), Misplaced> {
        let mut compared = 0;
        for order in 1..=3 {
            let coo = match order {
                1 => synth::random_vector(29, 11, 90),
                2 => synth::random_matrix_sparsity(23, 19, 0.8, 91),
                _ => synth::random_tensor3([7, 9, 11], 60, 92),
            };
            let empty = CooTensor::new(coo.shape().to_vec());
            for levels in format_combinations(order) {
                for mode_order in [(0..order).collect(), (0..order).rev().collect()] {
                    let fmt = TensorFormat::with_mode_order(levels.clone(), mode_order);
                    let t = Tensor::from_coo("T", &coo, fmt.clone());
                    let dims: Vec<usize> = (0..order).map(|l| t.level(l).dimension()).collect();
                    let one_window = |t: &Tensor| {
                        cut(t, &dims, &vec![1; order], &dims, &vec![1; order]).map(|(_, tiles)| tiles)
                    };
                    for t in [with_explicit_zeros(&t), t] {
                        assert_eq!(one_window(&t)?, [Arc::new(t.clone())], "{}", t.format());
                        let shared = Arc::new(t);
                        let grid = TileGrid::build(&shared, dims.clone())?;
                        let tile = grid.get_shared(&vec![0; order]);
                        assert!(tile.is_some_and(|tile| Arc::ptr_eq(tile, &shared)), "{}", shared.format());
                        assert_eq!(grid.nonempty(), 1);
                        compared += 1;
                    }
                    let empty = Tensor::from_coo("E", &empty, fmt);
                    let grid = grid_of(&empty, dims.clone())?;
                    assert_eq!(grid.nonempty(), one_window(&empty)?.len(), "{}", empty.format());
                    assert_eq!(grid.nonempty() > 0, !empty.vals().is_empty(), "{}", empty.format());
                }
            }
        }
        assert_eq!(compared, 2 * (2 * 3 + 2 * 9 + 2 * 27));
        Ok(())
    }

    /// A coordinate that does not ascend in its fiber, or lies past its
    /// dimension, at any level, fails the cut at every tile size that cuts;
    /// a tile covering the tensor is the tensor, uncut.
    #[test]
    fn a_coordinate_out_of_place_fails_the_cut() {
        use sam_tensor::level::CompressedLevel;
        let level = |seg: Vec<usize>, crd: Vec<u32>| Level::Compressed(CompressedLevel { dim: 8, seg, crd });
        let vector = |crd: Vec<u32>| {
            let vals = vec![1.0; crd.len()];
            Tensor::from_parts(
                "b",
                vec![8],
                TensorFormat::sparse_vec(),
                vec![level(vec![0, crd.len()], crd)],
                vals,
            )
        };
        for crd in [vec![5, 2, 1], vec![1, 2, 2], vec![0, 6, 7, 3], vec![1, 9], vec![3, 200]] {
            let t = vector(crd.clone());
            for tile in [1, 2, 3, 7] {
                assert_eq!(grid_of(&t, vec![tile]).err(), Some(Misplaced { level: 0 }), "{crd:?} at {tile}");
            }
            assert_eq!(grid_of(&t, vec![8]).map(|grid| grid.nonempty()), Ok(1), "{crd:?} uncut");
        }
        let rows = level(vec![0, 2], vec![1, 4]);
        let t = Tensor::from_parts(
            "B",
            vec![8, 8],
            TensorFormat::dcsr(),
            vec![rows, level(vec![0, 2, 4], vec![0, 3, 6, 5])],
            vec![1.0; 4],
        );
        assert_eq!(grid_of(&t, vec![4, 4]).err(), Some(Misplaced { level: 1 }));
        assert_eq!(grid_of(&vector(vec![0, 3, 7]), vec![2]).map(|grid| grid.nonempty()), Ok(3));
    }

    #[test]
    fn an_empty_tensor_has_no_tiles() -> Result<(), Misplaced> {
        for order in 1..=3 {
            for levels in format_combinations(order) {
                let fmt = TensorFormat::new(levels.clone());
                let t = Tensor::from_coo("E", &CooTensor::new(vec![6; order]), fmt);
                let grid = grid_of(&t, vec![4; order])?;
                assert_eq!(grid.total_tiles(), 2u64.pow(order as u32));
                assert_grid_matches_reference(&t, &grid);
                // With no points, only an all-dense format stores leaves (zeros).
                let stores_zeros = levels.iter().all(|&l| l == LevelFormat::Dense);
                assert_eq!(grid.nonempty() > 0, stores_zeros, "{}", t.format());
            }
        }
        Ok(())
    }

    #[test]
    fn the_cut_equals_the_coo_round_trip() -> Result<(), Misplaced> {
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
                    let grid = grid_of(&t, vec![5, 4])?;
                    for key in every_key(&grid) {
                        let windows = grid.windows(&key);
                        let expect = tile_via_coo(&t, &windows);
                        match grid.get(&key) {
                            Some(tile) => assert_eq!(tile, &expect, "{fmt} {windows:?}"),
                            None => assert!(expect.vals().is_empty(), "{fmt} {windows:?}"),
                        }
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
                let grid = grid_of(&t, vec![4, middle, 3])?;
                for key in every_key(&grid) {
                    let windows = grid.windows(&key);
                    let expect = tile_via_coo(&t, &windows);
                    match grid.get(&key) {
                        Some(tile) => assert_eq!(tile, &expect, "{fmt} {windows:?}"),
                        None => assert!(expect.vals().is_empty(), "{fmt} {windows:?}"),
                    }
                    tiles += 1;
                }
            }
        }
        assert!(tiles > 1000, "only {tiles} tiles compared");
        Ok(())
    }

    /// A 4 x 4 matrix holding `(0,1) = 1` and `(2,2) = 3`.
    fn two_point_matrix() -> CooTensor {
        let mut dense = [0.0; 16];
        (dense[1], dense[10]) = (1.0, 3.0);
        CooTensor::from_dense(vec![4, 4], &dense)
    }

    #[test]
    fn an_empty_window_is_the_empty_tensor() -> Result<(), Misplaced> {
        for inner in [LevelFormat::Compressed, LevelFormat::bitvector()] {
            let fmt = TensorFormat::new(vec![LevelFormat::Compressed, inner]);
            let t = Tensor::from_coo("B", &two_point_matrix(), fmt.clone());
            // Row 0 is stored, but not in columns 2..4: its coordinate goes,
            // and the grid keeps no tile there.
            let grid = grid_of(&t, vec![2, 2])?;
            assert_eq!(grid.get(&[0, 1]), None);
            let tile = tile_of(&t, &[(0, 2), (2, 4)]);
            assert_eq!(tile, Tensor::from_coo("B", &CooTensor::new(vec![2, 2]), fmt));
            assert_eq!(tile.level(0), &Level::Compressed(CompressedLevel::new(2, vec![0, 0], Vec::new())));
            assert_eq!(tile.level(1).num_fibers(), 0);
            assert!(tile.vals().is_empty());
            // Row 0's stored window keeps it, and only it.
            let row_zero = Level::Compressed(CompressedLevel::new(2, vec![0, 1], vec![0]));
            assert_eq!(grid.get(&[0, 0]).map(|tile| tile.level(0)), Some(&row_zero));
            assert_eq!(grid.nonempty(), 2);
        }
        Ok(())
    }

    #[test]
    fn explicit_zeros_below_a_compressed_level_stay_in_the_tile() -> Result<(), Misplaced> {
        // (Compressed, Dense): rows 0 and 2 are stored, every column of
        // them too. The right-hand tile of row 0 holds only explicit zeros
        // and is still the parent's window, coordinate and all.
        let fmt = TensorFormat::new(vec![LevelFormat::Compressed, LevelFormat::Dense]);
        let t = Tensor::from_coo("B", &two_point_matrix(), fmt);
        let grid = grid_of(&t, vec![2, 2])?;
        assert_eq!(grid.nonempty(), 4);
        let row_zero = Level::Compressed(CompressedLevel::new(2, vec![0, 1], vec![0]));
        assert_eq!(grid.get(&[0, 1]).map(|tile| tile.level(0)), Some(&row_zero));
        assert_eq!(grid.get(&[0, 1]).map(Tensor::vals), Some(&[0.0, 0.0][..]));
        assert_eq!(grid.get(&[1, 1]).map(Tensor::vals), Some(&[3.0, 0.0][..]));
        Ok(())
    }

    #[test]
    fn stored_entries_is_the_tile_s_value_count() -> Result<(), Misplaced> {
        let coo = synth::random_matrix_sparsity(23, 19, 0.8, 46);
        for (outer, inner) in LEVEL_FORMATS.iter().flat_map(|&o| LEVEL_FORMATS.map(|i| (o, i))) {
            let t = Tensor::from_coo("B", &coo, TensorFormat::new(vec![outer, inner]));
            let grid = grid_of(&t, vec![5, 4])?;
            let mut total = 0;
            for (key, tile) in nonempty_tiles(&grid) {
                assert!(!tile.vals().is_empty(), "{} {key:?}: only nonempty tiles are cut", t.format());
                total += tile.vals().len();
            }
            assert_eq!(total, t.vals().len(), "{}: every stored entry is in one tile", t.format());
            assert_eq!(grid.get(&[99, 99]), None);
        }
        Ok(())
    }

    #[test]
    fn tile_roundtrip_covers_the_matrix() -> Result<(), Misplaced> {
        let coo = synth::random_matrix_sparsity(13, 17, 0.7, 21);
        for fmt in [TensorFormat::dcsr(), TensorFormat::csr(), TensorFormat::dcsc()] {
            let t = Tensor::from_coo("B", &coo, fmt.clone());
            let grid = grid_of(&t, vec![4, 4])?;
            // Reassemble the dense matrix from the tiles.
            let mut dense = vec![vec![0.0f64; 17]; 13];
            for (key, tile) in nonempty_tiles(&grid) {
                let windows = grid.windows(&key);
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
        Ok(())
    }

    #[test]
    fn tile_of_rebases_and_keeps_format() -> Result<(), Misplaced> {
        let coo = CooTensor::from_entries(
            vec![8, 8],
            vec![(vec![1, 5], 2.0), (vec![2, 6], 3.0), (vec![6, 1], 4.0)],
        )
        .unwrap();
        let t = Tensor::from_coo("B", &coo, TensorFormat::dcsr());
        let grid = grid_of(&t, vec![4, 4])?;
        assert_eq!(grid.windows(&[0, 1]), vec![(0, 4), (4, 8)]);
        let tile = grid.get(&[0, 1]);
        assert_eq!(tile.map(Tensor::name), Some("B"));
        assert_eq!(tile.map(Tensor::format), Some(t.format()));
        assert_eq!(tile.map(Tensor::shape), Some(&[4, 4][..]));
        assert_eq!(tile.map(|tile| tile.get(&[1, 1])), Some(2.0));
        assert_eq!(tile.map(|tile| tile.get(&[2, 2])), Some(3.0));
        assert_eq!(tile.map(Tensor::nnz), Some(2));
        Ok(())
    }

    #[test]
    fn bitvector_levels_slice_too() -> Result<(), Misplaced> {
        let coo = synth::random_matrix_sparsity(12, 12, 0.6, 22);
        let fmt = TensorFormat::new(vec![
            sam_tensor::LevelFormat::Compressed,
            sam_tensor::LevelFormat::bitvector(),
        ]);
        let t = Tensor::from_coo("B", &coo, fmt);
        let grid = grid_of(&t, vec![5, 5])?;
        let dense_ref = Tensor::from_coo("B", &coo, TensorFormat::dcsr());
        let mut total = 0.0;
        for (key, tile) in nonempty_tiles(&grid) {
            let _ = grid.windows(&key);
            total += tile.points().iter().map(|(_, v)| v).sum::<f64>();
        }
        let expect: f64 = dense_ref.points().iter().map(|(_, v)| v).sum();
        assert!((total - expect).abs() < 1e-9);
        Ok(())
    }

    #[test]
    fn dense_operands_materialize_every_tile() -> Result<(), Misplaced> {
        let coo = synth::dense_matrix(6, 6, 23);
        let t = Tensor::from_coo("C", &coo, TensorFormat::dense(2));
        let grid = grid_of(&t, vec![4, 4])?;
        assert_eq!(grid.nonempty(), 4);
        assert_eq!(grid.total_tiles(), 4);
        // Edge tiles clamp to the remaining coordinates.
        assert_eq!(grid.get(&[1, 1]).unwrap().shape(), &[2, 2]);
        Ok(())
    }

    #[test]
    fn untiled_levels_use_one_full_window() -> Result<(), Misplaced> {
        let coo = synth::random_matrix_sparsity(9, 9, 0.5, 24);
        let t = Tensor::from_coo("B", &coo, TensorFormat::dcsr());
        let grid = grid_of(&t, vec![4, 9])?;
        assert_eq!(grid.grids(), &[3, 1]);
        let tiles = nonempty_tiles(&grid);
        assert_eq!(tiles.len(), grid.nonempty());
        for (key, _) in &tiles {
            assert_eq!(key[1], 0);
        }
        assert_eq!(grid.tile_sizes(), &[4, 9]);
        let total: usize = tiles.iter().map(|(_, tile)| tile.vals().len()).sum();
        assert_eq!(total, t.nnz());
        Ok(())
    }

    #[test]
    fn a_grid_of_more_tiles_than_entries_keeps_only_the_nonempty_ones() -> Result<(), Misplaced> {
        // 4000 x 4000 cut 1 x 1: sixteen million tiles, six nonempty.
        let coo = synth::random_matrix_nnz(4000, 4000, 6, 25);
        let t = Tensor::from_coo("B", &coo, TensorFormat::dcsr());
        let grid = grid_of(&t, vec![1, 1])?;
        assert_eq!(grid.total_tiles(), 16_000_000);
        assert_eq!(grid.nonempty(), 6);
        for (point, v) in t.points() {
            assert_eq!(grid.get(&point).map(Tensor::vals), Some(&[v][..]));
            assert_eq!(grid.linear_key(&point), point[0] as u64 * 4000 + point[1] as u64);
        }
        assert_eq!(grid.get(&[4000, 0]), None, "a key outside the grid");
        Ok(())
    }
}
