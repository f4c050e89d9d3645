//! Construction of fibertrees from coordinate lists.

use crate::coo::CooTensor;
use crate::format::{LevelFormat, TensorFormat};
use crate::level::{BitvectorLevel, CompressedLevel, DenseLevel, Level};
use crate::tensor::Tensor;

/// Builds [`Tensor`] fibertrees from [`CooTensor`] staging data and a
/// [`TensorFormat`].
///
/// The builder first canonicalizes the points once, by a flat sort: every
/// point's coordinates, permuted into the storage mode order, go side by
/// side into one `u32` array; one stable sort of the entry indices orders
/// them (skipped when they already ascend); duplicates are summed in entry
/// order and zero sums dropped. It then walks the sorted keys level by
/// level, partitioning the points of each parent fiber into child fibers
/// (ranges of the sorted keys). Dense levels materialize every coordinate
/// (including empty sub-trees); compressed and bitvector levels store only
/// nonempty children. What it allocates is a fixed number of arrays per
/// tensor and per level, never one per point.
///
/// ```
/// use sam_tensor::{CooTensor, TensorBuilder, TensorFormat};
/// let coo = CooTensor::from_entries(
///     vec![4, 4],
///     vec![(vec![0, 1], 1.0), (vec![1, 0], 2.0), (vec![1, 2], 3.0), (vec![3, 1], 4.0), (vec![3, 3], 5.0)],
/// ).unwrap();
/// let b = TensorBuilder::new(TensorFormat::dcsr()).build("B", &coo);
/// assert_eq!(b.nnz(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct TensorBuilder {
    format: TensorFormat,
}

impl TensorBuilder {
    /// Creates a builder for the given format.
    pub fn new(format: TensorFormat) -> Self {
        TensorBuilder { format }
    }

    /// The format this builder produces.
    pub fn format(&self) -> &TensorFormat {
        &self.format
    }

    /// Builds a named fibertree from COO data.
    ///
    /// # Panics
    ///
    /// Panics if the COO order does not match the format order.
    pub fn build(&self, name: &str, coo: &CooTensor) -> Tensor {
        assert_eq!(
            coo.order(),
            self.format.order(),
            "tensor order {} does not match format order {}",
            coo.order(),
            self.format.order()
        );
        let mode_order = self.format.mode_order();
        let points = coo.canonical(mode_order);
        let order = points.order;

        // Each fiber is a half-open range of `points` that share the fiber's
        // position prefix. The root has a single fiber covering all points.
        // One level's fibers are the ranges the level above cut; the two
        // lists swap at each level.
        let mut fibers: Vec<(usize, usize)> = vec![(0, points.vals.len())];
        let mut children: Vec<(usize, usize)> = Vec::new();
        let mut levels = Vec::with_capacity(order);

        for (depth, (&fmt, &mode)) in self.format.levels().iter().zip(mode_order).enumerate() {
            let dim = coo.shape()[mode];
            let coord = |p: usize| points.keys[p * order + depth];
            children.clear();
            let level = match fmt {
                LevelFormat::Dense => {
                    children.reserve(fibers.len() * dim);
                    for &(start, end) in &fibers {
                        let mut cursor = start;
                        for c in 0..dim as u32 {
                            let child_start = cursor;
                            while cursor < end && coord(cursor) == c {
                                cursor += 1;
                            }
                            children.push((child_start, cursor));
                        }
                        debug_assert_eq!(cursor, end, "points outside dimension bound");
                    }
                    Level::Dense(DenseLevel::new(dim, fibers.len()))
                }
                LevelFormat::Compressed | LevelFormat::Bitvector { .. } => {
                    // One child per distinct coordinate of each fiber; `seg`
                    // delimits each fiber's children.
                    children.reserve(points.vals.len());
                    let mut seg = Vec::with_capacity(fibers.len() + 1);
                    seg.push(0);
                    for &(start, end) in &fibers {
                        let mut cursor = start;
                        while cursor < end {
                            let (c, child_start) = (coord(cursor), cursor);
                            while cursor < end && coord(cursor) == c {
                                cursor += 1;
                            }
                            children.push((child_start, cursor));
                        }
                        seg.push(children.len());
                    }
                    match fmt {
                        LevelFormat::Bitvector { word_width } => {
                            Level::Bitvector(bitvector(dim, word_width, &seg, &children, coord))
                        }
                        _ => {
                            let crd = children.iter().map(|&(start, _)| coord(start)).collect();
                            Level::Compressed(CompressedLevel { dim, seg, crd })
                        }
                    }
                }
            };
            levels.push(level);
            std::mem::swap(&mut fibers, &mut children);
        }

        // Each leaf fiber holds at most one (deduplicated) point; empty leaf
        // fibers from dense levels become explicit zeros.
        let vals: Vec<f64> = fibers
            .iter()
            .map(|&(start, end)| {
                debug_assert!(end - start <= 1, "leaf fiber should hold at most one point");
                if end > start {
                    points.vals[start]
                } else {
                    0.0
                }
            })
            .collect();

        Tensor::from_parts(name, coo.shape().to_vec(), self.format.clone(), levels, vals)
    }
}

/// A bitvector level of `word_width`-bit words whose fiber `f` holds the
/// coordinates of `children[seg[f]..seg[f + 1]]`, each child's first point
/// read through `coord`.
///
/// # Panics
///
/// Panics if `word_width` is zero or exceeds 64.
fn bitvector(
    dim: usize,
    word_width: u8,
    seg: &[usize],
    children: &[(usize, usize)],
    coord: impl Fn(usize) -> u32,
) -> BitvectorLevel {
    assert!(word_width > 0 && word_width <= 64, "word width must be in 1..=64");
    let width = word_width as usize;
    let words_per_fiber = dim.div_ceil(width);
    let mut words = vec![0u64; (seg.len() - 1) * words_per_fiber];
    for (fiber, range) in seg.windows(2).enumerate() {
        for &(start, _) in &children[range[0]..range[1]] {
            let c = coord(start) as usize;
            words[fiber * words_per_fiber + c / width] |= 1u64 << (c % width);
        }
    }
    BitvectorLevel { dim, word_width, words_per_fiber, words }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_coo() -> CooTensor {
        CooTensor::from_entries(
            vec![4, 4],
            vec![
                (vec![0, 1], 1.0),
                (vec![1, 0], 2.0),
                (vec![1, 2], 3.0),
                (vec![3, 1], 4.0),
                (vec![3, 3], 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dcsr_matches_figure1c() {
        let t = TensorBuilder::new(TensorFormat::dcsr()).build("B", &figure1_coo());
        match t.level(0) {
            Level::Compressed(l) => {
                assert_eq!(l.seg, vec![0, 3]);
                assert_eq!(l.crd, vec![0, 1, 3]);
            }
            other => panic!("expected compressed level, got {other:?}"),
        }
        match t.level(1) {
            Level::Compressed(l) => {
                assert_eq!(l.seg, vec![0, 1, 3, 5]);
                assert_eq!(l.crd, vec![1, 0, 2, 1, 3]);
            }
            other => panic!("expected compressed level, got {other:?}"),
        }
        assert_eq!(t.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn csr_has_dense_rows() {
        let t = TensorBuilder::new(TensorFormat::csr()).build("B", &figure1_coo());
        match t.level(0) {
            Level::Dense(l) => {
                assert_eq!(l.size, 4);
                assert_eq!(l.num_fibers, 1);
            }
            other => panic!("expected dense level, got {other:?}"),
        }
        match t.level(1) {
            Level::Compressed(l) => {
                // Row 2 is empty so its segment repeats.
                assert_eq!(l.seg, vec![0, 1, 3, 3, 5]);
                assert_eq!(l.crd, vec![1, 0, 2, 1, 3]);
            }
            other => panic!("expected compressed level, got {other:?}"),
        }
    }

    #[test]
    fn csc_transposes() {
        let t = TensorBuilder::new(TensorFormat::dcsc()).build("B", &figure1_coo());
        // Column-major: columns 0,1,2,3 -> nonempty columns 0,1,2,3 minus col with no nonzeros.
        match t.level(0) {
            Level::Compressed(l) => assert_eq!(l.crd, vec![0, 1, 2, 3]),
            other => panic!("expected compressed level, got {other:?}"),
        }
        // Values appear in column-major order.
        assert_eq!(t.vals(), &[2.0, 1.0, 4.0, 3.0, 5.0]);
    }

    #[test]
    fn dense_format_fills_zeros() {
        let t = TensorBuilder::new(TensorFormat::dense(2)).build("B", &figure1_coo());
        assert_eq!(t.vals().len(), 16);
        assert_eq!(t.vals()[1], 1.0); // (0,1)
        assert_eq!(t.vals()[4], 2.0); // (1,0)
        assert_eq!(t.vals()[15], 5.0); // (3,3)
        assert_eq!(t.vals()[0], 0.0);
    }

    #[test]
    fn bitvector_format_matches_compressed_value_order() {
        let fmt = TensorFormat::new(vec![LevelFormat::Compressed, LevelFormat::bitvector()]);
        let t = TensorBuilder::new(fmt).build("B", &figure1_coo());
        assert_eq!(t.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.level(1).num_children(), 5);
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let coo = CooTensor::from_entries(vec![2, 2], vec![(vec![0, 0], 1.0), (vec![0, 0], 2.5)]).unwrap();
        let t = TensorBuilder::new(TensorFormat::dcsr()).build("A", &coo);
        assert_eq!(t.vals(), &[3.5]);
    }

    #[test]
    #[should_panic(expected = "does not match format order")]
    fn order_mismatch_panics() {
        let coo = CooTensor::new(vec![2, 2, 2]);
        let _ = TensorBuilder::new(TensorFormat::dcsr()).build("A", &coo);
    }
}
