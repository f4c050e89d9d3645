//! The mixed Table 1 workload: the paper's twelve kernels as service
//! queries over one shared corpus.
//!
//! [`table1_workload`] builds a [`TensorStore`] holding every operand of
//! the twelve Table 1 expressions (operand names are suffixed per kernel —
//! `B_mv`, `B_mm`, … — so the corpus is one flat namespace) and the twelve
//! matching [`Query`] values. Operand values are integers, so every
//! partial sum is exact and service results can be compared bit-for-bit
//! against one-shot execution on any backend. `samprof --serve` and the
//! service equivalence tests both iterate exactly this workload.

use crate::service::Query;
use crate::store::TensorStore;
use sam_tensor::{synth, CooTensor, TensorFormat};
use std::sync::Arc;

/// Rounds a synthetic tensor's values to small integers so floating-point
/// sums are exact across backends and the service pipeline.
fn int_coo(coo: &CooTensor) -> CooTensor {
    CooTensor::from_entries(
        coo.shape().to_vec(),
        coo.entries().iter().map(|(p, v)| (p.clone(), (v * 8.0).round() - 3.0)).collect(),
    )
    .expect("integerized tensor")
}

/// One named query of the mixed workload.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Table 1 kernel name (`"SpMV"`, `"MTTKRP"`, …).
    pub name: &'static str,
    /// The ready-to-submit query (default backend; callers re-route with
    /// [`Query::backend`]).
    pub query: Query,
}

/// Builds the corpus and the twelve Table 1 queries over it,
/// deterministically from `seed`. See the module docs.
pub fn table1_workload(seed: u64) -> (Arc<TensorStore>, Vec<WorkloadQuery>) {
    let mut store = TensorStore::new();
    let s = |k: u64| seed.wrapping_mul(1000).wrapping_add(k);

    // SpMV: x(i) = B_mv(i,j) * c_mv(j)
    store.insert("B_mv", int_coo(&synth::random_matrix_sparsity(14, 11, 0.8, s(1))));
    store.insert("c_mv", int_coo(&synth::random_vector(11, 8, s(2))));
    // SpM*SpM (Gustavson): X(i,j) = B_mm(i,k) * C_mm(k,j)
    store.insert("B_mm", int_coo(&synth::random_matrix_sparsity(14, 11, 0.8, s(3))));
    store.insert("C_mm", int_coo(&synth::random_matrix_sparsity(11, 12, 0.8, s(4))));
    // SDDMM: X(i,j) = B_sd(i,j) * C_sd(i,k) * D_sd(j,k), dense factors
    store.insert("B_sd", int_coo(&synth::random_matrix_sparsity(10, 9, 0.75, s(5))));
    store.insert("C_sd", int_coo(&synth::dense_matrix(10, 4, s(6))));
    store.insert("D_sd", int_coo(&synth::dense_matrix(9, 4, s(7))));
    // InnerProd: chi() = B_ip(i,j,k) * C_ip(i,j,k)
    store.insert("B_ip", int_coo(&synth::random_tensor3([6, 5, 7], 50, s(8))));
    store.insert("C_ip", int_coo(&synth::random_tensor3([6, 5, 7], 50, s(9))));
    // TTV: X(i,j) = B_tv(i,j,k) * c_tv(k)
    store.insert("B_tv", int_coo(&synth::random_tensor3([6, 5, 7], 50, s(10))));
    store.insert("c_tv", int_coo(&synth::random_vector(7, 5, s(11))));
    // TTM: X(i,j,k) = B_tm(i,j,l) * C_tm(k,l)
    store.insert("B_tm", int_coo(&synth::random_tensor3([6, 5, 7], 50, s(12))));
    store.insert("C_tm", int_coo(&synth::random_matrix_sparsity(8, 7, 0.6, s(13))));
    // MTTKRP: X(i,j) = B_mk(i,k,l) * C_mk(j,k) * D_mk(j,l)
    store.insert("B_mk", int_coo(&synth::random_tensor3([5, 4, 6], 30, s(14))));
    store.insert("C_mk", int_coo(&synth::random_matrix_sparsity(5, 4, 0.5, s(15))));
    store.insert("D_mk", int_coo(&synth::random_matrix_sparsity(5, 6, 0.5, s(16))));
    // Residual: x(i) = b_rs(i) - C_rs(i,j) * d_rs(j)
    store.insert("b_rs", int_coo(&synth::random_vector(14, 6, s(17))));
    store.insert("C_rs", int_coo(&synth::random_matrix_sparsity(14, 11, 0.7, s(18))));
    store.insert("d_rs", int_coo(&synth::random_vector(11, 7, s(19))));
    // MatTransMul: x(i) = alpha * B_mt(j,i) * c_mt(j) + beta * d_mt(i)
    store.insert("B_mt", int_coo(&synth::random_matrix_sparsity(13, 10, 0.7, s(20))));
    store.insert("c_mt", int_coo(&synth::random_vector(13, 7, s(21))));
    store.insert("d_mt", int_coo(&synth::random_vector(10, 6, s(22))));
    // MMAdd / Plus3: X(i,j) = B_ma(i,j) + C_ma(i,j) [+ D_ma(i,j)]
    store.insert("B_ma", int_coo(&synth::random_matrix_sparsity(12, 10, 0.75, s(23))));
    store.insert("C_ma", int_coo(&synth::random_matrix_sparsity(12, 10, 0.75, s(24))));
    store.insert("D_ma", int_coo(&synth::random_matrix_sparsity(12, 10, 0.75, s(25))));
    // Plus2: X(i,j,k) = B_p2(i,j,k) + C_p2(i,j,k)
    store.insert("B_p2", int_coo(&synth::random_tensor3([6, 5, 7], 50, s(26))));
    store.insert("C_p2", int_coo(&synth::random_tensor3([6, 5, 7], 50, s(27))));

    let queries = vec![
        WorkloadQuery {
            name: "SpMV",
            query: Query::new("x(i) = B_mv(i,j) * c_mv(j)").operand("B_mv").operand("c_mv"),
        },
        WorkloadQuery {
            name: "SpM*SpM",
            query: Query::new("X(i,j) = B_mm(i,k) * C_mm(k,j)").order("ikj").operand("B_mm").operand("C_mm"),
        },
        WorkloadQuery {
            name: "SDDMM",
            query: Query::new("X(i,j) = B_sd(i,j) * C_sd(i,k) * D_sd(j,k)")
                .format("C_sd", TensorFormat::dense(2))
                .format("D_sd", TensorFormat::dense(2))
                .operand("B_sd")
                .operand("C_sd")
                .operand("D_sd"),
        },
        WorkloadQuery {
            name: "InnerProd",
            query: Query::new("chi() = B_ip(i,j,k) * C_ip(i,j,k)").operand("B_ip").operand("C_ip"),
        },
        WorkloadQuery {
            name: "TTV",
            query: Query::new("X(i,j) = B_tv(i,j,k) * c_tv(k)").operand("B_tv").operand("c_tv"),
        },
        WorkloadQuery {
            name: "TTM",
            query: Query::new("X(i,j,k) = B_tm(i,j,l) * C_tm(k,l)").operand("B_tm").operand("C_tm"),
        },
        WorkloadQuery {
            name: "MTTKRP",
            query: Query::new("X(i,j) = B_mk(i,k,l) * C_mk(j,k) * D_mk(j,l)")
                .operand("B_mk")
                .operand("C_mk")
                .operand("D_mk"),
        },
        WorkloadQuery {
            name: "Residual",
            query: Query::new("x(i) = b_rs(i) - C_rs(i,j) * d_rs(j)")
                .operand("b_rs")
                .operand("C_rs")
                .operand("d_rs"),
        },
        WorkloadQuery {
            name: "MatTransMul",
            query: Query::new("x(i) = alpha * B_mt(j,i) * c_mt(j) + beta * d_mt(i)")
                .operand("B_mt")
                .operand("c_mt")
                .operand("d_mt")
                .scalar("alpha", 2.0)
                .scalar("beta", -3.0),
        },
        WorkloadQuery {
            name: "MMAdd",
            query: Query::new("X(i,j) = B_ma(i,j) + C_ma(i,j)").operand("B_ma").operand("C_ma"),
        },
        WorkloadQuery {
            name: "Plus3",
            query: Query::new("X(i,j) = B_ma(i,j) + C_ma(i,j) + D_ma(i,j)")
                .operand("B_ma")
                .operand("C_ma")
                .operand("D_ma"),
        },
        WorkloadQuery {
            name: "Plus2",
            query: Query::new("X(i,j,k) = B_p2(i,j,k) + C_p2(i,j,k)").operand("B_p2").operand("C_p2"),
        },
    ];
    (Arc::new(store), queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workload_has_twelve_distinct_expressions_over_the_corpus() {
        let (store, queries) = table1_workload(7);
        assert_eq!(queries.len(), 12);
        let mut exprs: Vec<&str> = queries.iter().map(|w| w.query.expression()).collect();
        exprs.sort_unstable();
        exprs.dedup();
        assert_eq!(exprs.len(), 12, "every query expression is distinct");
        assert!(store.len() >= 24, "every operand name is distinct in the corpus");
    }

    #[test]
    fn workloads_are_deterministic_in_the_seed() {
        let (a, _) = table1_workload(3);
        let (b, _) = table1_workload(3);
        let (c, _) = table1_workload(4);
        assert_eq!(a.coo("B_mv").unwrap().entries(), b.coo("B_mv").unwrap().entries());
        assert_ne!(a.coo("B_mv").unwrap().entries(), c.coo("B_mv").unwrap().entries());
    }
}
