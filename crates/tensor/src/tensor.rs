//! The in-memory fibertree tensor.

use crate::builder::TensorBuilder;
use crate::coo::CooTensor;
use crate::dense::DenseTensor;
use crate::format::TensorFormat;
use crate::level::Level;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An in-memory sparse tensor stored as a fibertree (paper Section 3.1).
///
/// A tensor has a logical shape, a [`TensorFormat`] describing how each
/// stored level is represented and which logical mode it holds, the level
/// storages themselves, and a flat values array indexed by the last level's
/// child positions.
///
/// ```
/// use sam_tensor::{CooTensor, Tensor, TensorFormat};
/// let coo = CooTensor::from_entries(vec![2, 2], vec![(vec![0, 1], 3.0)]).unwrap();
/// let t = Tensor::from_coo("A", &coo, TensorFormat::dcsr());
/// assert_eq!(t.get(&[0, 1]), 3.0);
/// assert_eq!(t.get(&[1, 1]), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    name: String,
    shape: Vec<usize>,
    format: TensorFormat,
    levels: Vec<Level>,
    vals: Vec<f64>,
}

impl Tensor {
    /// Assembles a tensor from already-built parts. Prefer
    /// [`Tensor::from_coo`] or [`TensorBuilder`].
    ///
    /// # Panics
    ///
    /// Panics when the number of levels does not match the format order or
    /// the values array does not match the last level's child count.
    pub fn from_parts(
        name: &str,
        shape: Vec<usize>,
        format: TensorFormat,
        levels: Vec<Level>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(levels.len(), format.order(), "level count must match format order");
        assert_eq!(shape.len(), format.order(), "shape length must match format order");
        let expected_vals = levels.last().map(Level::num_children).unwrap_or(0);
        assert_eq!(vals.len(), expected_vals, "values array must match last level child count");
        Tensor { name: name.to_string(), shape, format, levels, vals }
    }

    /// Builds a tensor from COO data with the given format.
    pub fn from_coo(name: &str, coo: &CooTensor, format: TensorFormat) -> Self {
        TensorBuilder::new(format).build(name, coo)
    }

    /// Builds a tensor from a dense row-major array.
    pub fn from_dense_data(name: &str, shape: Vec<usize>, data: &[f64], format: TensorFormat) -> Self {
        let coo = CooTensor::from_dense(shape, data);
        Tensor::from_coo(name, &coo, format)
    }

    /// The tensor's name (used in reports and DOT output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical shape (dimension sizes in logical mode order).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Tensor order (number of dimensions).
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// The storage format.
    pub fn format(&self) -> &TensorFormat {
        &self.format
    }

    /// The stored levels, outermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// One stored level.
    pub fn level(&self, level: usize) -> &Level {
        &self.levels[level]
    }

    /// The values array (indexed by last-level child positions).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Number of stored values that are nonzero.
    pub fn nnz(&self) -> usize {
        self.vals.iter().filter(|v| **v != 0.0).count()
    }

    /// Enumerates stored nonzero points in logical mode order.
    pub fn points(&self) -> Vec<(Vec<u32>, f64)> {
        let mut out = Vec::new();
        if self.levels.is_empty() {
            return out;
        }
        let mut prefix = Vec::with_capacity(self.order());
        self.walk(0, 0, &mut prefix, &mut out);
        // Un-permute storage order back to logical order.
        let mode_order = self.format.mode_order();
        out.into_iter()
            .map(|(stored, v)| {
                let mut logical = vec![0u32; stored.len()];
                for (lvl, &m) in mode_order.iter().enumerate() {
                    logical[m] = stored[lvl];
                }
                (logical, v)
            })
            .collect()
    }

    fn walk(&self, level: usize, fiber: usize, prefix: &mut Vec<u32>, out: &mut Vec<(Vec<u32>, f64)>) {
        for entry in self.levels[level].fiber(fiber) {
            prefix.push(entry.coord);
            if level + 1 == self.levels.len() {
                let v = self.vals[entry.child];
                if v != 0.0 {
                    out.push((prefix.clone(), v));
                }
            } else {
                self.walk(level + 1, entry.child, prefix, out);
            }
            prefix.pop();
        }
    }

    /// Converts back to COO (logical mode order, nonzeros only).
    pub fn to_coo(&self) -> CooTensor {
        CooTensor::from_entries(self.shape.clone(), self.points()).expect("points are in bounds")
    }

    /// Materializes as a dense tensor in logical mode order.
    pub fn to_dense(&self) -> DenseTensor {
        let mut dense = DenseTensor::zeros(self.shape.clone());
        for (point, v) in self.points() {
            *dense.at_mut(&point) += v;
        }
        dense
    }

    /// Looks up one component by its logical coordinates (zero when absent).
    ///
    /// # Panics
    ///
    /// Panics when the point rank does not match the tensor order.
    pub fn get(&self, point: &[u32]) -> f64 {
        assert_eq!(point.len(), self.order(), "point rank mismatch");
        let mode_order = self.format.mode_order();
        let mut fiber = 0usize;
        for (level, &mode) in mode_order.iter().enumerate() {
            match self.levels[level].locate(fiber, point[mode]) {
                Some(child) => fiber = child,
                None => return 0.0,
            }
        }
        self.vals[fiber]
    }

    /// True when the two tensors hold the same nonzero structure and values
    /// up to floating-point tolerance, regardless of format.
    pub fn approx_eq(&self, other: &Tensor) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.to_dense().approx_eq(&other.to_dense())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: shape={:?} format={} nnz={}", self.name, self.shape, self.format, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::LevelFormat;

    fn figure1_tensor(format: TensorFormat) -> Tensor {
        let coo = CooTensor::from_entries(
            vec![4, 4],
            vec![
                (vec![0, 1], 1.0),
                (vec![1, 0], 2.0),
                (vec![1, 2], 3.0),
                (vec![3, 1], 4.0),
                (vec![3, 3], 5.0),
            ],
        )
        .unwrap();
        Tensor::from_coo("B", &coo, format)
    }

    #[test]
    fn points_roundtrip_across_formats() {
        let reference = figure1_tensor(TensorFormat::dcsr()).points();
        for fmt in [
            TensorFormat::csr(),
            TensorFormat::csc(),
            TensorFormat::dcsc(),
            TensorFormat::dense(2),
            TensorFormat::new(vec![LevelFormat::Compressed, LevelFormat::bitvector()]),
        ] {
            let mut pts = figure1_tensor(fmt.clone()).points();
            pts.sort_by(|a, b| a.0.cmp(&b.0));
            let mut expect = reference.clone();
            expect.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(pts, expect, "format {fmt}");
        }
    }

    #[test]
    fn get_by_point() {
        let t = figure1_tensor(TensorFormat::csc());
        assert_eq!(t.get(&[1, 2]), 3.0);
        assert_eq!(t.get(&[2, 2]), 0.0);
        assert_eq!(t.get(&[3, 3]), 5.0);
    }

    #[test]
    fn to_dense_matches_points() {
        let t = figure1_tensor(TensorFormat::dcsr());
        let d = t.to_dense();
        assert_eq!(d.at(&[0, 1]), 1.0);
        assert_eq!(d.at(&[2, 0]), 0.0);
        assert_eq!(d.at(&[3, 3]), 5.0);
    }

    #[test]
    fn approx_eq_ignores_format() {
        let a = figure1_tensor(TensorFormat::dcsr());
        let b = figure1_tensor(TensorFormat::csc());
        assert!(a.approx_eq(&b));
    }

    #[test]
    fn nnz_and_storage_dim() {
        let t = figure1_tensor(TensorFormat::csc());
        assert_eq!(t.nnz(), 5);
        // CSC stores the columns at level 0.
        assert_eq!(t.level(0).dimension(), 4);
        assert_eq!(t.order(), 2);
        assert!(t.to_string().contains("nnz=5"));
    }

    #[test]
    fn csf_three_tensor() {
        let coo = CooTensor::from_entries(
            vec![2, 3, 4],
            vec![(vec![0, 0, 1], 1.0), (vec![0, 2, 3], 2.0), (vec![1, 1, 0], 3.0)],
        )
        .unwrap();
        let t = Tensor::from_coo("T", &coo, TensorFormat::csf(3));
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.get(&[0, 2, 3]), 2.0);
        assert_eq!(t.get(&[1, 2, 3]), 0.0);
        let rt = t.to_coo();
        assert_eq!(rt.nnz(), 3);
    }
}
