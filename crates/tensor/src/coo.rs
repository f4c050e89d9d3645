//! Coordinate-list (COO) staging representation.
//!
//! A [`CooTensor`] is the neutral interchange format used to build
//! fibertrees: an unordered list of `(point, value)` pairs plus a shape.
//! Building a [`crate::Tensor`] sorts the points in the storage mode order,
//! merges duplicates and drops explicit zeros.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An error produced when constructing or manipulating a [`CooTensor`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CooError {
    /// A point has a different number of coordinates than the tensor order.
    RankMismatch {
        /// Expected rank (length of the shape).
        expected: usize,
        /// Rank of the offending point.
        found: usize,
    },
    /// A coordinate lies outside the dimension size.
    OutOfBounds {
        /// Dimension index.
        dim: usize,
        /// Offending coordinate.
        coordinate: u32,
        /// Size of that dimension.
        size: usize,
    },
}

impl fmt::Display for CooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CooError::RankMismatch { expected, found } => {
                write!(f, "point rank {found} does not match tensor order {expected}")
            }
            CooError::OutOfBounds { dim, coordinate, size } => {
                write!(f, "coordinate {coordinate} out of bounds for dimension {dim} of size {size}")
            }
        }
    }
}

impl std::error::Error for CooError {}

/// A tensor's entries in storage order ([`CooTensor::canonical`]): sorted
/// by point, each point once, no value `0.0`. Entry `i`'s point is
/// `keys[i * order..(i + 1) * order]`.
pub(crate) struct Canonical {
    pub(crate) order: usize,
    pub(crate) keys: Vec<u32>,
    pub(crate) vals: Vec<f64>,
}

/// [`sum_runs`] over the entries sorted by `key`, ties in entry order.
fn sorted<K: Ord>(keys: &[u32], vals: &[f64], order: usize, key: impl Fn(usize) -> K) -> Canonical {
    let mut keyed: Vec<(K, usize)> = (0..vals.len()).map(|e| (key(e), e)).collect();
    keyed.sort_unstable();
    sum_runs(keys, vals, order, |i| keyed[i].1, |a, b| keyed[a].0 == keyed[b].0)
}

/// The entries `entry(0), entry(1), …`, whose keys ascend, with each run of
/// equal keys (`same(i, j)` when positions `i` and `j` hold one) summed in
/// that order from `0.0`, and the sums equal to `0.0` dropped.
fn sum_runs(
    keys: &[u32],
    vals: &[f64],
    order: usize,
    entry: impl Fn(usize) -> usize,
    same: impl Fn(usize, usize) -> bool,
) -> Canonical {
    let n = vals.len();
    let mut canonical =
        Canonical { order, keys: Vec::with_capacity(keys.len()), vals: Vec::with_capacity(n) };
    let mut i = 0;
    while i < n {
        let first = i;
        let mut sum = 0.0;
        while i < n && same(first, i) {
            sum += vals[entry(i)];
            i += 1;
        }
        if sum != 0.0 {
            let e = entry(first);
            canonical.keys.extend_from_slice(&keys[e * order..(e + 1) * order]);
            canonical.vals.push(sum);
        }
    }
    canonical
}

/// A sparse tensor as a list of coordinate points and values.
///
/// ```
/// use sam_tensor::CooTensor;
/// let mut coo = CooTensor::new(vec![4, 4]);
/// coo.push(&[0, 1], 1.0).unwrap();
/// coo.push(&[3, 3], 5.0).unwrap();
/// assert_eq!(coo.nnz(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooTensor {
    shape: Vec<usize>,
    entries: Vec<(Vec<u32>, f64)>,
}

impl CooTensor {
    /// Creates an empty COO tensor with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero-sized dimension.
    pub fn new(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "tensors must have at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "dimension sizes must be positive");
        CooTensor { shape, entries: Vec::new() }
    }

    /// Creates a COO tensor directly from entries.
    ///
    /// # Errors
    ///
    /// Returns an error if any point has the wrong rank or an out-of-bounds
    /// coordinate.
    pub fn from_entries(shape: Vec<usize>, entries: Vec<(Vec<u32>, f64)>) -> Result<Self, CooError> {
        let mut coo = CooTensor::new(shape);
        for (point, value) in entries {
            coo.push(&point, value)?;
        }
        Ok(coo)
    }

    /// Appends a point. Duplicate points are allowed; they are summed when a
    /// fibertree is built.
    ///
    /// # Errors
    ///
    /// Returns an error if the point has the wrong rank or an out-of-bounds
    /// coordinate.
    pub fn push(&mut self, point: &[u32], value: f64) -> Result<(), CooError> {
        if point.len() != self.shape.len() {
            return Err(CooError::RankMismatch { expected: self.shape.len(), found: point.len() });
        }
        for (dim, (&c, &size)) in point.iter().zip(&self.shape).enumerate() {
            if c as usize >= size {
                return Err(CooError::OutOfBounds { dim, coordinate: c, size });
            }
        }
        self.entries.push((point.to_vec(), value));
        Ok(())
    }

    /// The tensor shape (dimension sizes in logical mode order).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Tensor order (number of dimensions).
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Number of stored entries (before deduplication).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The raw entries.
    pub fn entries(&self) -> &[(Vec<u32>, f64)] {
        &self.entries
    }

    /// Returns the entries with coordinates permuted into `mode_order`
    /// (storage order), duplicates summed and explicit zeros removed, sorted
    /// lexicographically by the permuted point.
    ///
    /// `mode_order[level]` names the logical mode stored at that level.
    ///
    /// # Panics
    ///
    /// Panics if `mode_order` is not a permutation of `0..order`.
    pub fn canonicalized(&self, mode_order: &[usize]) -> Vec<(Vec<u32>, f64)> {
        let canonical = self.canonical(mode_order);
        canonical.keys.chunks_exact(canonical.order).map(<[u32]>::to_vec).zip(canonical.vals).collect()
    }

    /// The entries in storage order, as [`canonicalized`](Self::canonicalized)
    /// returns them, with their points in one flat array: every point's
    /// coordinates are permuted into `mode_order` side by side, the entry
    /// indices are sorted by those keys, ties kept in entry order (a stable
    /// sort; none when the keys already ascend), and each run of equal keys
    /// is summed in entry order, starting from `0.0`, and kept when the sum
    /// is not `0.0`. That is what summing into a map keyed by the permuted
    /// point and dropping the zeros gives, bit for bit, without a key per
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `mode_order` is not a permutation of `0..order`.
    pub(crate) fn canonical(&self, mode_order: &[usize]) -> Canonical {
        let order = self.order();
        assert_eq!(mode_order.len(), order, "mode order length mismatch");
        for (level, &m) in mode_order.iter().enumerate() {
            assert!(m < order && !mode_order[..level].contains(&m), "mode order must be a permutation");
        }
        let mut keys = Vec::with_capacity(self.entries.len() * order);
        let mut vals = Vec::with_capacity(self.entries.len());
        for (point, value) in &self.entries {
            keys.extend(mode_order.iter().map(|&m| point[m]));
            vals.push(*value);
        }
        let key = |entry: usize| &keys[entry * order..(entry + 1) * order];
        if (1..vals.len()).all(|e| key(e - 1) <= key(e)) {
            return sum_runs(&keys, &vals, order, |i| i, |a, b| key(a) == key(b));
        }
        // A key packed into one integer where it fits, the narrowest that
        // holds it: one integer compare is cheaper than a slice compare.
        let packed = |entry: usize| key(entry).iter().fold(0u128, |k, &c| k << 32 | u128::from(c));
        match order {
            1 | 2 => sorted(&keys, &vals, order, |e| packed(e) as u64),
            3 | 4 => sorted(&keys, &vals, order, packed),
            _ => sorted(&keys, &vals, order, key),
        }
    }

    /// The permuted shape under a mode order.
    pub fn permuted_shape(&self, mode_order: &[usize]) -> Vec<usize> {
        mode_order.iter().map(|&m| self.shape[m]).collect()
    }

    /// The same tensor with its modes reordered: mode `mode_order[d]` becomes
    /// mode `d` (`permuted(&[1, 0])` is the matrix transpose). Entries come
    /// out [`canonicalized`](Self::canonicalized).
    ///
    /// ```
    /// use sam_tensor::CooTensor;
    /// let t = CooTensor::from_entries(vec![2, 3], vec![(vec![0, 2], 5.0)]).unwrap();
    /// let tt = t.permuted(&[1, 0]);
    /// assert_eq!((tt.shape(), tt.entries()), (&[3, 2][..], &[(vec![2, 0], 5.0)][..]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `mode_order` is not a permutation of `0..order`.
    pub fn permuted(&self, mode_order: &[usize]) -> CooTensor {
        CooTensor { entries: self.canonicalized(mode_order), shape: self.permuted_shape(mode_order) }
    }

    /// Builds a COO tensor from a dense row-major array, keeping only
    /// nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of the shape.
    pub fn from_dense(shape: Vec<usize>, data: &[f64]) -> Self {
        let volume: usize = shape.iter().product();
        assert_eq!(data.len(), volume, "dense data length must match shape volume");
        let mut coo = CooTensor::new(shape.clone());
        for (flat, &v) in data.iter().enumerate() {
            if v != 0.0 {
                let mut point = vec![0u32; shape.len()];
                let mut rem = flat;
                for (d, &size) in shape.iter().enumerate().rev() {
                    point[d] = (rem % size) as u32;
                    rem /= size;
                }
                coo.push(&point, v).expect("in-bounds by construction");
            }
        }
        coo
    }

    /// Materializes the tensor as a dense row-major array (duplicates
    /// summed).
    pub fn to_dense(&self) -> Vec<f64> {
        let volume: usize = self.shape.iter().product();
        let mut data = vec![0.0; volume];
        for (point, value) in &self.entries {
            let mut flat = 0usize;
            for (d, &c) in point.iter().enumerate() {
                flat = flat * self.shape[d] + c as usize;
            }
            data[flat] += value;
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_rank_and_bounds() {
        let mut coo = CooTensor::new(vec![2, 3]);
        assert!(coo.push(&[1, 2], 1.0).is_ok());
        assert_eq!(coo.push(&[1], 1.0), Err(CooError::RankMismatch { expected: 2, found: 1 }));
        assert_eq!(coo.push(&[1, 3], 1.0), Err(CooError::OutOfBounds { dim: 1, coordinate: 3, size: 3 }));
    }

    #[test]
    fn canonicalize_sorts_dedups_and_drops_zeros() {
        let coo = CooTensor::from_entries(
            vec![4, 4],
            vec![
                (vec![3, 1], 4.0),
                (vec![0, 1], 1.0),
                (vec![0, 1], 2.0),
                (vec![2, 2], 1.0),
                (vec![2, 2], -1.0),
            ],
        )
        .unwrap();
        let canon = coo.canonicalized(&[0, 1]);
        assert_eq!(canon, vec![(vec![0, 1], 3.0), (vec![3, 1], 4.0)]);
    }

    #[test]
    fn canonicalize_with_mode_permutation() {
        // Column-major ordering swaps the coordinates.
        let coo = CooTensor::from_entries(vec![2, 3], vec![(vec![1, 0], 5.0), (vec![0, 2], 7.0)]).unwrap();
        let canon = coo.canonicalized(&[1, 0]);
        assert_eq!(canon, vec![(vec![0, 1], 5.0), (vec![2, 0], 7.0)]);
        assert_eq!(coo.permuted_shape(&[1, 0]), vec![3, 2]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_mode_order_panics() {
        let coo = CooTensor::new(vec![2, 2]);
        let _ = coo.canonicalized(&[0, 0]);
    }

    #[test]
    fn dense_roundtrip() {
        let data = vec![0.0, 1.0, 0.0, 2.0, 0.0, 3.0];
        let coo = CooTensor::from_dense(vec![2, 3], &data);
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.to_dense(), data);
    }

    #[test]
    fn error_display() {
        let e = CooError::OutOfBounds { dim: 1, coordinate: 9, size: 4 };
        assert!(e.to_string().contains("out of bounds"));
        let e = CooError::RankMismatch { expected: 2, found: 3 };
        assert!(e.to_string().contains("rank"));
    }
}
