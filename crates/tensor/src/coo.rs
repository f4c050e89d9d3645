//! Coordinate-list (COO) staging representation.
//!
//! A [`CooTensor`] is the neutral interchange format used to build
//! fibertrees: an unordered list of `(point, value)` pairs plus a shape.
//! Building a [`crate::Tensor`] sorts the points in the storage mode order,
//! merges duplicates and drops explicit zeros.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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
        assert_eq!(mode_order.len(), self.order(), "mode order length mismatch");
        let mut seen = vec![false; self.order()];
        for &m in mode_order {
            assert!(m < self.order() && !seen[m], "mode order must be a permutation");
            seen[m] = true;
        }
        let mut map: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (point, value) in &self.entries {
            let permuted: Vec<u32> = mode_order.iter().map(|&m| point[m]).collect();
            *map.entry(permuted).or_insert(0.0) += value;
        }
        map.into_iter().filter(|(_, v)| *v != 0.0).collect()
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
