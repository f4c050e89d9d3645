//! Per-level storage of fibertrees.
//!
//! Each fibertree level is stored independently in one of three formats
//! (paper Sections 3.1 and 4.3):
//!
//! * [`DenseLevel`] (the paper's *uncompressed* level): only the dimension
//!   size is stored; every coordinate in `0..size` is present in every fiber.
//! * [`CompressedLevel`]: a segment array and a coordinate array, the level
//!   format used by CSR/DCSR/CSF.
//! * [`BitvectorLevel`]: fixed-width occupancy words per fiber; child
//!   positions are bit ranks (popcount sums), as described for the bitvector
//!   level scanner.
//!
//! All three expose the same *fiber view* interface so level scanners stay
//! format-agnostic (paper Figure 3).

use serde::{Deserialize, Serialize};

/// A storage-format-agnostic handle to one fiber of a level.
///
/// A fiber is an ordered list of `(coordinate, child position)` pairs; the
/// child position identifies the fiber at the next level (or the value for
/// the last level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiberEntry {
    /// The coordinate within this dimension.
    pub coord: u32,
    /// Position of the child fiber (or value) in the next level.
    pub child: usize,
}

/// One level of a fibertree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Level {
    /// Uncompressed level: all coordinates are materialized.
    Dense(DenseLevel),
    /// Compressed level: segment + coordinate arrays.
    Compressed(CompressedLevel),
    /// Bitvector level: occupancy words.
    Bitvector(BitvectorLevel),
}

impl Level {
    /// Number of fibers stored at this level.
    #[inline]
    pub fn num_fibers(&self) -> usize {
        match self {
            Level::Dense(l) => l.num_fibers,
            Level::Compressed(l) => l.seg.len().saturating_sub(1),
            Level::Bitvector(l) => l.words.len().checked_div(l.words_per_fiber).unwrap_or(0),
        }
    }

    /// Total number of child positions this level produces, which equals the
    /// number of fibers of the next level (or the length of the values array
    /// for the last level).
    pub fn num_children(&self) -> usize {
        match self {
            Level::Dense(l) => l.num_fibers * l.size,
            Level::Compressed(l) => l.crd.len(),
            Level::Bitvector(l) => l.words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// The dimension size this level spans.
    pub fn dimension(&self) -> usize {
        match self {
            Level::Dense(l) => l.size,
            Level::Compressed(l) => l.dim,
            Level::Bitvector(l) => l.dim,
        }
    }

    /// The entries of fiber `fiber` in coordinate order.
    ///
    /// # Panics
    ///
    /// Panics if `fiber` is out of range.
    pub fn fiber(&self, fiber: usize) -> Vec<FiberEntry> {
        match self {
            Level::Dense(l) => l.fiber(fiber),
            Level::Compressed(l) => l.fiber(fiber),
            Level::Bitvector(l) => l.fiber(fiber),
        }
    }

    /// Number of entries in fiber `fiber`.
    #[inline]
    pub fn fiber_len(&self, fiber: usize) -> usize {
        match self {
            Level::Dense(l) => {
                assert!(fiber < l.num_fibers, "fiber out of range");
                l.size
            }
            Level::Compressed(l) => {
                assert!(fiber + 1 < l.seg.len(), "fiber out of range");
                l.seg[fiber + 1] - l.seg[fiber]
            }
            Level::Bitvector(l) => l.fiber_words(fiber).iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Finds the child position of `coord` within fiber `fiber`, if that
    /// coordinate is present (iterate-locate, paper Definition 4.1).
    pub fn locate(&self, fiber: usize, coord: u32) -> Option<usize> {
        match self {
            Level::Dense(l) => l.locate(fiber, coord),
            Level::Compressed(l) => l.locate(fiber, coord),
            Level::Bitvector(l) => l.locate(fiber, coord),
        }
    }

    /// True when this level stores every coordinate (dense iteration space).
    pub fn is_dense(&self) -> bool {
        matches!(self, Level::Dense(_))
    }
}

/// An uncompressed (dense) level: stores only the dimension size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseLevel {
    /// Dimension size (fiber length).
    pub size: usize,
    /// Number of fibers at this level.
    pub num_fibers: usize,
}

impl DenseLevel {
    /// Creates a dense level of `num_fibers` fibers, each spanning `size`
    /// coordinates.
    pub fn new(size: usize, num_fibers: usize) -> Self {
        DenseLevel { size, num_fibers }
    }

    fn fiber(&self, fiber: usize) -> Vec<FiberEntry> {
        assert!(fiber < self.num_fibers, "fiber {fiber} out of range");
        (0..self.size).map(|c| FiberEntry { coord: c as u32, child: fiber * self.size + c }).collect()
    }

    fn locate(&self, fiber: usize, coord: u32) -> Option<usize> {
        if fiber < self.num_fibers && (coord as usize) < self.size {
            Some(fiber * self.size + coord as usize)
        } else {
            None
        }
    }
}

/// A compressed level: `seg[r]..seg[r+1]` delimits fiber `r`'s slice of the
/// coordinate array (paper Figure 1c).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedLevel {
    /// Dimension size spanned by the coordinates.
    pub dim: usize,
    /// Segment array of length `num_fibers + 1`.
    pub seg: Vec<usize>,
    /// Coordinate array; sorted within each fiber.
    pub crd: Vec<u32>,
}

impl CompressedLevel {
    /// Creates a compressed level from raw segment and coordinate arrays.
    ///
    /// # Panics
    ///
    /// Panics if the segment array is empty, unsorted, or does not end at the
    /// coordinate-array length, or if coordinates within a fiber are not
    /// strictly increasing.
    pub fn new(dim: usize, seg: Vec<usize>, crd: Vec<u32>) -> Self {
        assert!(!seg.is_empty(), "segment array must have at least one entry");
        assert!(seg.windows(2).all(|w| w[0] <= w[1]), "segment array must be non-decreasing");
        assert_eq!(
            *seg.last().expect("nonempty"),
            crd.len(),
            "segment array must cover the coordinate array"
        );
        for r in 0..seg.len() - 1 {
            let fiber = &crd[seg[r]..seg[r + 1]];
            assert!(
                fiber.windows(2).all(|w| w[0] < w[1]),
                "coordinates within a fiber must be strictly increasing"
            );
            assert!(fiber.iter().all(|&c| (c as usize) < dim), "coordinate exceeds dimension");
        }
        CompressedLevel { dim, seg, crd }
    }

    /// An empty compressed level (no fibers).
    pub fn empty(dim: usize) -> Self {
        CompressedLevel { dim, seg: vec![0], crd: Vec::new() }
    }

    /// Starts a builder for incremental construction (used by level writers).
    pub fn builder(dim: usize) -> CompressedLevelBuilder {
        CompressedLevelBuilder { dim, seg: vec![0], crd: Vec::new() }
    }

    fn fiber(&self, fiber: usize) -> Vec<FiberEntry> {
        assert!(fiber + 1 < self.seg.len(), "fiber {fiber} out of range");
        (self.seg[fiber]..self.seg[fiber + 1]).map(|p| FiberEntry { coord: self.crd[p], child: p }).collect()
    }

    fn locate(&self, fiber: usize, coord: u32) -> Option<usize> {
        if fiber + 1 >= self.seg.len() {
            return None;
        }
        let slice = &self.crd[self.seg[fiber]..self.seg[fiber + 1]];
        slice.binary_search(&coord).ok().map(|i| self.seg[fiber] + i)
    }
}

/// Incremental builder for [`CompressedLevel`], mirroring the level writer's
/// internal metadata generation (paper Definition 3.8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedLevelBuilder {
    dim: usize,
    seg: Vec<usize>,
    crd: Vec<u32>,
}

impl CompressedLevelBuilder {
    /// Appends one coordinate to the fiber currently being written.
    pub fn push_coord(&mut self, coord: u32) {
        self.crd.push(coord);
    }

    /// Ends the current fiber.
    pub fn end_fiber(&mut self) {
        self.seg.push(self.crd.len());
    }

    /// Number of coordinates written so far.
    pub fn len(&self) -> usize {
        self.crd.len()
    }

    /// True when no coordinates have been written.
    pub fn is_empty(&self) -> bool {
        self.crd.is_empty()
    }

    /// Finishes the level. An unterminated trailing fiber is closed
    /// automatically if it contains coordinates.
    pub fn finish(mut self) -> CompressedLevel {
        if *self.seg.last().expect("nonempty") != self.crd.len() {
            self.seg.push(self.crd.len());
        }
        CompressedLevel { dim: self.dim, seg: self.seg, crd: self.crd }
    }
}

/// A bitvector level: each fiber is a fixed number of occupancy words
/// (paper Section 4.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitvectorLevel {
    /// Dimension size spanned.
    pub dim: usize,
    /// Bits per word (at most 64).
    pub word_width: u8,
    /// Words per fiber: `ceil(dim / word_width)`.
    pub words_per_fiber: usize,
    /// Occupancy words, fiber-major.
    pub words: Vec<u64>,
}

impl BitvectorLevel {
    /// Creates a bitvector level from per-fiber coordinate lists.
    ///
    /// # Panics
    ///
    /// Panics if `word_width` is zero or exceeds 64, or any coordinate
    /// exceeds the dimension.
    pub fn from_fibers(dim: usize, word_width: u8, fibers: &[Vec<u32>]) -> Self {
        assert!(word_width > 0 && word_width <= 64, "word width must be in 1..=64");
        let words_per_fiber = dim.div_ceil(word_width as usize);
        let mut words = Vec::with_capacity(fibers.len() * words_per_fiber);
        for fiber in fibers {
            let mut fiber_words = vec![0u64; words_per_fiber];
            for &c in fiber {
                assert!((c as usize) < dim, "coordinate exceeds dimension");
                let w = c as usize / word_width as usize;
                let b = c as usize % word_width as usize;
                fiber_words[w] |= 1u64 << b;
            }
            words.extend(fiber_words);
        }
        BitvectorLevel { dim, word_width, words_per_fiber, words }
    }

    /// The occupancy words of fiber `fiber`.
    ///
    /// # Panics
    ///
    /// Panics if `fiber` is out of range.
    pub fn fiber_words(&self, fiber: usize) -> &[u64] {
        let start = fiber * self.words_per_fiber;
        let end = start + self.words_per_fiber;
        assert!(end <= self.words.len(), "fiber {fiber} out of range");
        &self.words[start..end]
    }

    /// Rank of the first bit of fiber `fiber`: the number of set bits in all
    /// preceding fibers. Child positions are global ranks so the values array
    /// is indexed exactly like a compressed level's.
    pub fn fiber_rank_base(&self, fiber: usize) -> usize {
        self.words[..fiber * self.words_per_fiber].iter().map(|w| w.count_ones() as usize).sum()
    }

    fn fiber(&self, fiber: usize) -> Vec<FiberEntry> {
        let base_rank = self.fiber_rank_base(fiber);
        let mut entries = Vec::new();
        let mut rank = base_rank;
        for (wi, &word) in self.fiber_words(fiber).iter().enumerate() {
            for b in 0..self.word_width as usize {
                if (word >> b) & 1 == 1 {
                    let coord = (wi * self.word_width as usize + b) as u32;
                    entries.push(FiberEntry { coord, child: rank });
                    rank += 1;
                }
            }
        }
        entries
    }

    /// The child position (global rank) of `coord` within fiber `fiber`,
    /// if that coordinate is present: [`Level::locate`] without building a
    /// [`Level`].
    pub fn locate(&self, fiber: usize, coord: u32) -> Option<usize> {
        if (coord as usize) >= self.dim || (fiber + 1) * self.words_per_fiber > self.words.len() {
            return None;
        }
        let w = coord as usize / self.word_width as usize;
        let b = coord as usize % self.word_width as usize;
        let words = self.fiber_words(fiber);
        if (words[w] >> b) & 1 == 0 {
            return None;
        }
        let mut rank = self.fiber_rank_base(fiber);
        rank += words[..w].iter().map(|x| x.count_ones() as usize).sum::<usize>();
        rank += (words[w] & ((1u64 << b) - 1)).count_ones() as usize;
        Some(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_levels() -> (CompressedLevel, CompressedLevel) {
        // The DCSR matrix of paper Figure 1c.
        let i = CompressedLevel::new(4, vec![0, 3], vec![0, 1, 3]);
        let j = CompressedLevel::new(4, vec![0, 1, 3, 5], vec![1, 0, 2, 1, 3]);
        (i, j)
    }

    #[test]
    fn compressed_fibers_match_figure1() {
        let (i, j) = figure1_levels();
        let li = Level::Compressed(i);
        let lj = Level::Compressed(j);
        assert_eq!(li.num_fibers(), 1);
        assert_eq!(li.num_children(), 3);
        assert_eq!(lj.num_fibers(), 3);
        assert_eq!(lj.num_children(), 5);
        let top: Vec<u32> = li.fiber(0).iter().map(|e| e.coord).collect();
        assert_eq!(top, vec![0, 1, 3]);
        let row1: Vec<u32> = lj.fiber(1).iter().map(|e| e.coord).collect();
        assert_eq!(row1, vec![0, 2]);
        assert_eq!(lj.fiber_len(2), 2);
    }

    #[test]
    fn compressed_locate() {
        let (_, j) = figure1_levels();
        assert_eq!(j.locate(1, 2), Some(2));
        assert_eq!(j.locate(1, 1), None);
        assert_eq!(j.locate(2, 3), Some(4));
        assert_eq!(j.locate(9, 0), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn compressed_rejects_unsorted_fibers() {
        let _ = CompressedLevel::new(4, vec![0, 2], vec![2, 1]);
    }

    #[test]
    fn compressed_builder() {
        let mut b = CompressedLevel::builder(4);
        b.push_coord(1);
        b.end_fiber();
        b.push_coord(0);
        b.push_coord(2);
        b.end_fiber();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        let level = b.finish();
        assert_eq!(level.seg, vec![0, 1, 3]);
        assert_eq!(level.crd, vec![1, 0, 2]);
    }

    #[test]
    fn dense_level_enumerates_all_coords() {
        let l = Level::Dense(DenseLevel::new(3, 2));
        assert_eq!(l.num_fibers(), 2);
        assert_eq!(l.num_children(), 6);
        assert_eq!(l.dimension(), 3);
        let f1 = l.fiber(1);
        assert_eq!(f1.iter().map(|e| e.coord).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(f1.iter().map(|e| e.child).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(l.locate(1, 2), Some(5));
        assert_eq!(l.locate(1, 3), None);
        assert!(l.is_dense());
    }

    #[test]
    fn bitvector_level_ranks() {
        // Two fibers over a dimension of 8 with width-4 words.
        let l = BitvectorLevel::from_fibers(8, 4, &[vec![0, 2, 5], vec![1, 7]]);
        assert_eq!(l.words_per_fiber, 2);
        let lvl = Level::Bitvector(l.clone());
        assert_eq!(lvl.num_fibers(), 2);
        assert_eq!(lvl.num_children(), 5);
        let f0 = lvl.fiber(0);
        assert_eq!(f0.iter().map(|e| (e.coord, e.child)).collect::<Vec<_>>(), vec![(0, 0), (2, 1), (5, 2)]);
        let f1 = lvl.fiber(1);
        assert_eq!(f1.iter().map(|e| (e.coord, e.child)).collect::<Vec<_>>(), vec![(1, 3), (7, 4)]);
        assert_eq!(lvl.locate(1, 7), Some(4));
        assert_eq!(lvl.locate(1, 2), None);
        assert_eq!(lvl.locate(0, 5), Some(2));
        assert_eq!(lvl.fiber_len(0), 3);
    }

    #[test]
    fn empty_compressed_level() {
        let l = Level::Compressed(CompressedLevel::empty(10));
        assert_eq!(l.num_fibers(), 0);
        assert_eq!(l.num_children(), 0);
    }
}
