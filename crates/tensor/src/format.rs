//! The tensor format language: per-mode level formats plus a mode ordering.
//!
//! This mirrors the format abstraction of TACO/Custard (paper Sections 2.2
//! and 5): a tensor format assigns each stored level a representation and
//! says which logical mode each level stores.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Storage format of a single fibertree level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LevelFormat {
    /// Uncompressed: the level materializes every coordinate.
    Dense,
    /// Compressed: segment + coordinate arrays (CSR/DCSR/CSF levels).
    Compressed,
    /// Bitvector with the given word width in bits (1..=64).
    Bitvector {
        /// Bits per bitvector word.
        word_width: u8,
    },
}

impl LevelFormat {
    /// The default bitvector format used in the paper's Figure 13 study
    /// (64-bit words).
    pub fn bitvector() -> Self {
        LevelFormat::Bitvector { word_width: 64 }
    }

    /// Short name used in reports ("dense", "comp", "bv").
    pub fn short_name(&self) -> &'static str {
        match self {
            LevelFormat::Dense => "dense",
            LevelFormat::Compressed => "comp",
            LevelFormat::Bitvector { .. } => "bv",
        }
    }
}

impl fmt::Display for LevelFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelFormat::Dense => write!(f, "dense"),
            LevelFormat::Compressed => write!(f, "compressed"),
            LevelFormat::Bitvector { word_width } => write!(f, "bitvector({word_width})"),
        }
    }
}

/// A complete tensor format: one [`LevelFormat`] per stored level and the
/// mode order mapping storage levels to logical modes.
///
/// `mode_order[level]` is the logical mode stored at `level`; e.g. a CSC
/// matrix stores mode 1 (columns) at level 0.
///
/// ```
/// use sam_tensor::TensorFormat;
/// let dcsr = TensorFormat::dcsr();
/// assert_eq!(dcsr.order(), 2);
/// assert_eq!(dcsr.mode_order(), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorFormat {
    levels: Vec<LevelFormat>,
    mode_order: Vec<usize>,
}

impl TensorFormat {
    /// Creates a format with the identity mode order.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(levels: Vec<LevelFormat>) -> Self {
        assert!(!levels.is_empty(), "a tensor format needs at least one level");
        let order = levels.len();
        TensorFormat { levels, mode_order: (0..order).collect() }
    }

    /// Creates a format with an explicit mode order.
    ///
    /// # Panics
    ///
    /// Panics if `mode_order` is not a permutation of `0..levels.len()`.
    pub fn with_mode_order(levels: Vec<LevelFormat>, mode_order: Vec<usize>) -> Self {
        assert_eq!(levels.len(), mode_order.len(), "mode order length mismatch");
        let mut seen = vec![false; levels.len()];
        for &m in &mode_order {
            assert!(m < levels.len() && !seen[m], "mode order must be a permutation");
            seen[m] = true;
        }
        TensorFormat { levels, mode_order }
    }

    /// All-dense format of the given order.
    pub fn dense(order: usize) -> Self {
        TensorFormat::new(vec![LevelFormat::Dense; order])
    }

    /// Compressed sparse row: dense rows, compressed columns.
    pub fn csr() -> Self {
        TensorFormat::new(vec![LevelFormat::Dense, LevelFormat::Compressed])
    }

    /// Compressed sparse column: CSR of the transposed mode order.
    pub fn csc() -> Self {
        TensorFormat::with_mode_order(vec![LevelFormat::Dense, LevelFormat::Compressed], vec![1, 0])
    }

    /// Doubly compressed sparse rows (both levels compressed), the format of
    /// paper Figure 1c.
    pub fn dcsr() -> Self {
        TensorFormat::new(vec![LevelFormat::Compressed; 2])
    }

    /// Doubly compressed sparse columns.
    pub fn dcsc() -> Self {
        TensorFormat::with_mode_order(vec![LevelFormat::Compressed; 2], vec![1, 0])
    }

    /// Compressed sparse fiber: all levels compressed, identity order.
    pub fn csf(order: usize) -> Self {
        TensorFormat::new(vec![LevelFormat::Compressed; order])
    }

    /// A sparse (compressed) vector.
    pub fn sparse_vec() -> Self {
        TensorFormat::new(vec![LevelFormat::Compressed])
    }

    /// A dense vector.
    pub fn dense_vec() -> Self {
        TensorFormat::new(vec![LevelFormat::Dense])
    }

    /// Number of stored levels (tensor order).
    pub fn order(&self) -> usize {
        self.levels.len()
    }

    /// The per-level formats in storage order.
    pub fn levels(&self) -> &[LevelFormat] {
        &self.levels
    }

    /// The format of one storage level.
    pub fn level(&self, level: usize) -> LevelFormat {
        self.levels[level]
    }

    /// The mode order (`mode_order[level]` = logical mode stored there).
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }
}

impl fmt::Display for TensorFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", l.short_name())?;
        }
        write!(f, ";order=")?;
        for (i, m) in self.mode_order.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_formats() {
        assert_eq!(TensorFormat::csr().levels(), &[LevelFormat::Dense, LevelFormat::Compressed]);
        assert_eq!(TensorFormat::csc().mode_order(), &[1, 0]);
        assert_eq!(TensorFormat::dcsr().levels(), &[LevelFormat::Compressed; 2]);
        assert_eq!(TensorFormat::dense(3).levels(), &[LevelFormat::Dense; 3]);
        assert_eq!(TensorFormat::csf(3).order(), 3);
        assert_eq!(TensorFormat::sparse_vec().order(), 1);
        assert_eq!(TensorFormat::dense_vec().level(0), LevelFormat::Dense);
    }

    #[test]
    fn reordering() {
        let f = TensorFormat::with_mode_order(TensorFormat::dcsr().levels().to_vec(), vec![1, 0]);
        assert_eq!(f, TensorFormat::dcsc());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_mode_order_rejected() {
        let _ = TensorFormat::with_mode_order(vec![LevelFormat::Dense; 2], vec![0, 0]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TensorFormat::csr().to_string(), "(dense,comp;order=0,1)");
        assert_eq!(LevelFormat::bitvector().to_string(), "bitvector(64)");
        assert_eq!(LevelFormat::bitvector().short_name(), "bv");
    }
}
