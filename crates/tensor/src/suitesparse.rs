//! SuiteSparse-like matrix catalog for the Figure 14 stream-overhead study.
//!
//! The paper's Table 3 lists 15 SuiteSparse matrices (5 each from the
//! smallest, median and largest matrices that fit in memory). We do not ship
//! the SuiteSparse collection; instead each catalog entry records the
//! matrix's name, domain, dimensions and nonzero count from Table 3 and can
//! be *instantiated* as a seeded uniformly random matrix with exactly those
//! statistics. This is a substitution: the real matrices' nonzero patterns
//! (and so their row-length distributions and empty rows) are not
//! reproduced, only their shapes and nonzero counts. Figure 14 and
//! Section 3.8 count stream tokens, which those statistics plus the
//! instantiated matrix's nonempty rows determine.

use crate::coo::CooTensor;
use crate::synth::random_matrix_nnz;
use serde::{Deserialize, Serialize};

/// One row of the paper's Table 3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixInfo {
    /// SuiteSparse matrix name.
    pub name: &'static str,
    /// Application domain reported by SuiteSparse.
    pub domain: &'static str,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// Which size class the matrix was sampled from in the paper.
    pub size_class: SizeClass,
}

/// The Table 3 sampling buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizeClass {
    /// One of the 50 smallest matrices.
    Small,
    /// One of the 50 median matrices.
    Medium,
    /// One of the 50 largest matrices that fit in memory.
    Large,
}

impl MatrixInfo {
    /// Instantiates the catalog entry as a seeded random matrix with the same
    /// dimensions and nonzero count.
    pub fn instantiate(&self, seed: u64) -> CooTensor {
        random_matrix_nnz(self.rows, self.cols, self.nnz, seed)
    }
}

/// The 15 matrices of the paper's Table 3, in table order.
pub fn table3_catalog() -> Vec<MatrixInfo> {
    use SizeClass::*;
    vec![
        MatrixInfo { name: "relat3", domain: "Combinatorics", rows: 8, cols: 5, nnz: 24, size_class: Small },
        MatrixInfo {
            name: "lpi_itest6",
            domain: "Linear Programming",
            rows: 11,
            cols: 17,
            nnz: 29,
            size_class: Small,
        },
        MatrixInfo {
            name: "LFAT5",
            domain: "Model Reduction",
            rows: 14,
            cols: 14,
            nnz: 46,
            size_class: Small,
        },
        MatrixInfo {
            name: "ch4-4-b1",
            domain: "Combinatorics",
            rows: 72,
            cols: 16,
            nnz: 144,
            size_class: Small,
        },
        MatrixInfo {
            name: "ch7-6-b1",
            domain: "Combinatorics",
            rows: 630,
            cols: 42,
            nnz: 1260,
            size_class: Small,
        },
        MatrixInfo {
            name: "bwm2000",
            domain: "Chemical Process Simulation",
            rows: 2000,
            cols: 2000,
            nnz: 7996,
            size_class: Medium,
        },
        MatrixInfo {
            name: "G32",
            domain: "Undirected Weighted Random Graph",
            rows: 2000,
            cols: 2000,
            nnz: 8000,
            size_class: Medium,
        },
        MatrixInfo {
            name: "progas",
            domain: "Linear Programming",
            rows: 1650,
            cols: 1900,
            nnz: 8897,
            size_class: Medium,
        },
        MatrixInfo {
            name: "lp_maros",
            domain: "Linear Programming",
            rows: 846,
            cols: 1966,
            nnz: 10137,
            size_class: Medium,
        },
        MatrixInfo {
            name: "G42",
            domain: "Undirected Weighted Random Graph",
            rows: 2000,
            cols: 2000,
            nnz: 23558,
            size_class: Medium,
        },
        MatrixInfo {
            name: "stormg2-27",
            domain: "Linear Programming",
            rows: 14439,
            cols: 37485,
            nnz: 94274,
            size_class: Large,
        },
        MatrixInfo {
            name: "lpl3",
            domain: "Linear Programming",
            rows: 10828,
            cols: 33686,
            nnz: 100525,
            size_class: Large,
        },
        MatrixInfo {
            name: "nemsemm2",
            domain: "Linear Programming",
            rows: 6943,
            cols: 48878,
            nnz: 182012,
            size_class: Large,
        },
        MatrixInfo {
            name: "rlfdual",
            domain: "Linear Programming",
            rows: 8052,
            cols: 74970,
            nnz: 282031,
            size_class: Large,
        },
        MatrixInfo {
            name: "rail507",
            domain: "Linear Programming",
            rows: 507,
            cols: 63516,
            nnz: 409856,
            size_class: Large,
        },
    ]
}

/// Looks up one catalog entry by name.
pub fn find(name: &str) -> Option<MatrixInfo> {
    table3_catalog().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_fifteen_rows_in_three_classes() {
        let cat = table3_catalog();
        assert_eq!(cat.len(), 15);
        assert_eq!(cat.iter().filter(|m| m.size_class == SizeClass::Small).count(), 5);
        assert_eq!(cat.iter().filter(|m| m.size_class == SizeClass::Medium).count(), 5);
        assert_eq!(cat.iter().filter(|m| m.size_class == SizeClass::Large).count(), 5);
    }

    #[test]
    fn densities_match_table3() {
        // Spot-check the Table 3 "Density (%)" column.
        let density = |name: &str| {
            let m = find(name).unwrap();
            100.0 * m.nnz as f64 / (m.rows as f64 * m.cols as f64)
        };
        assert!((density("relat3") - 60.0).abs() < 0.5);
        assert!((density("rail507") - 1.3).abs() < 0.1);
        assert!((density("G32") - 0.2).abs() < 0.05);
    }

    #[test]
    fn instantiate_matches_statistics() {
        let info = find("LFAT5").unwrap();
        let m = info.instantiate(42);
        assert_eq!(m.shape(), &[14, 14]);
        assert_eq!(m.nnz(), 46);
    }

    #[test]
    fn unknown_matrix_not_found() {
        assert!(find("not-a-matrix").is_none());
    }
}
