//! Dense tensors, used as the functional-correctness oracle.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major tensor of `f64` values.
///
/// Dense tensors are used by the [`crate::reference`] evaluator to compute
/// ground-truth results that simulated SAM graphs are checked against, and to
/// stage dense operands (e.g. the dense matrices of SDDMM).
///
/// ```
/// use sam_tensor::DenseTensor;
/// let mut m = DenseTensor::zeros(vec![2, 3]);
/// *m.at_mut(&[1, 2]) = 4.0;
/// assert_eq!(m.at(&[1, 2]), 4.0);
/// assert_eq!(m.nnz(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseTensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// An all-zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics when the shape is empty or has a zero-sized dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "tensors must have at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "dimension sizes must be positive");
        let volume = shape.iter().product();
        DenseTensor { shape, data: vec![0.0; volume] }
    }

    /// Builds a tensor from a closure evaluated at every point.
    pub fn from_fn<F: FnMut(&[u32]) -> f64>(shape: Vec<usize>, mut f: F) -> Self {
        let mut t = DenseTensor::zeros(shape);
        let shape = t.shape.clone();
        let mut point = vec![0u32; shape.len()];
        for flat in 0..t.data.len() {
            let mut rem = flat;
            for (d, &size) in shape.iter().enumerate().rev() {
                point[d] = (rem % size) as u32;
                rem /= size;
            }
            t.data[flat] = f(&point);
        }
        t
    }

    /// Builds a tensor from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics when the data length does not match the shape volume.
    pub fn from_data(shape: Vec<usize>, data: Vec<f64>) -> Self {
        let volume: usize = shape.iter().product();
        assert_eq!(data.len(), volume, "data length must match shape volume");
        DenseTensor { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// The raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of nonzero components.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    fn flat_index(&self, point: &[u32]) -> usize {
        assert_eq!(point.len(), self.shape.len(), "point rank mismatch");
        let mut flat = 0usize;
        for (d, &c) in point.iter().enumerate() {
            assert!((c as usize) < self.shape[d], "coordinate {c} out of bounds for dim {d}");
            flat = flat * self.shape[d] + c as usize;
        }
        flat
    }

    /// The value at a point.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, point: &[u32]) -> f64 {
        self.data[self.flat_index(point)]
    }

    /// Mutable access to the value at a point.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at_mut(&mut self, point: &[u32]) -> &mut f64 {
        let idx = self.flat_index(point);
        &mut self.data[idx]
    }

    /// Element-wise approximate equality with a relative tolerance.
    pub fn approx_eq(&self, other: &DenseTensor) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= 1e-9 * scale
        })
    }
}

impl fmt::Display for DenseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dense{:?} nnz={}", self.shape, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t = DenseTensor::zeros(vec![2, 2, 2]);
        assert_eq!(t.data().len(), 8);
        *t.at_mut(&[1, 0, 1]) = 7.0;
        assert_eq!(t.at(&[1, 0, 1]), 7.0);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.order(), 3);
    }

    #[test]
    fn from_fn_row_major() {
        let t = DenseTensor::from_fn(vec![2, 3], |p| (p[0] * 10 + p[1]) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = DenseTensor::from_data(vec![2], vec![1.0, 2.0]);
        let b = DenseTensor::from_data(vec![2], vec![1.0, 2.0 + 1e-12]);
        assert!(a.approx_eq(&b));
        let c = DenseTensor::from_data(vec![2], vec![1.0, 3.0]);
        assert!(!a.approx_eq(&c));
        let d = DenseTensor::zeros(vec![3]);
        assert!(!a.approx_eq(&d));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = DenseTensor::zeros(vec![2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn display() {
        let t = DenseTensor::from_data(vec![2, 2], vec![1.0, 0.0, 0.0, 2.0]);
        assert_eq!(t.to_string(), "dense[2, 2] nnz=2");
    }
}
