//! Seeded operand corpora and the kernel lists that run over them.
//!
//! Nothing here calls `sam_tensor::synth` or `sam_serve::table1_workload`:
//! the load is owned by the benchmark. Tensors have an exact nonzero count
//! (not a Bernoulli density) so the work per round barely moves with the
//! seed, and small positive integer values so every result is exact.

use crate::rng::Rng;
use sam_tensor::{CooTensor, TensorFormat};
use std::collections::{BTreeMap, BTreeSet};

/// One product term of a kernel's right-hand side, written out by hand
/// beside the expression text for the independent reference evaluator
/// (which therefore never goes through custard's parser).
#[derive(Debug, Clone, Copy)]
pub struct Term {
    /// Sign and scalar operands folded into one coefficient.
    pub coef: f64,
    /// `(tensor, index variables)` of each indexed access.
    pub factors: &'static [(&'static str, &'static str)],
}

/// One expression of a workload's list.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// The per-kernel metric suffix (`exec.run_ms.<id>`).
    pub id: &'static str,
    /// Tensor index notation as custard parses it.
    pub text: &'static str,
    /// `Schedule::reorder`, if not the default loop order.
    pub order: Option<&'static str>,
    /// Operands bound in a fully dense format instead of the compressed default.
    pub dense: &'static [&'static str],
    /// Scalar operands bound by value.
    pub scalars: &'static [(&'static str, f64)],
    /// Output index variables.
    pub out: &'static str,
    pub terms: &'static [Term],
}

impl Kernel {
    /// The indexed operands, each once, in order of first appearance.
    pub fn operands(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for (name, _) in self.terms.iter().flat_map(|t| t.factors) {
            if !names.contains(name) {
                names.push(*name);
            }
        }
        names
    }
}

/// Named COO tensors plus the kernels that read them.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub tensors: BTreeMap<&'static str, CooTensor>,
    pub kernels: &'static [Kernel],
}

impl Corpus {
    /// The fully dense format of operand `name`, for the kernels that bind
    /// it dense.
    pub fn dense_format(&self, name: &str) -> TensorFormat {
        TensorFormat::dense(self.tensors[name].order())
    }

    pub fn nnz(&self) -> usize {
        self.tensors.values().map(CooTensor::nnz).sum()
    }

    /// Order-sensitive FNV-1a over every name, shape, coordinate and value:
    /// equal exactly when two corpora are the same input.
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, coo) in &self.tensors {
            name.bytes().for_each(|b| eat(u64::from(b)));
            coo.shape().iter().for_each(|&d| eat(d as u64));
            for (point, value) in coo.entries() {
                point.iter().for_each(|&c| eat(u64::from(c)));
                eat(value.to_bits());
            }
        }
        h
    }
}

/// Exactly `nnz` distinct uniformly placed nonzeros (Floyd's sampling), in
/// row-major order.
fn sparse(shape: &[usize], nnz: usize, rng: &mut Rng) -> CooTensor {
    let size: usize = shape.iter().product();
    assert!(nnz <= size, "{nnz} nonzeros do not fit in {shape:?}");
    let mut picked = BTreeSet::new();
    for j in size - nnz..size {
        let t = rng.below(j as u64 + 1) as usize;
        if !picked.insert(t) {
            picked.insert(j);
        }
    }
    let entries = picked
        .into_iter()
        .map(|mut linear| {
            let mut point = vec![0u32; shape.len()];
            for (c, &d) in point.iter_mut().zip(shape).rev() {
                *c = (linear % d) as u32;
                linear /= d;
            }
            (point, rng.small_int())
        })
        .collect();
    CooTensor::from_entries(shape.to_vec(), entries).expect("generated points are in bounds")
}

fn dense(shape: &[usize], rng: &mut Rng) -> CooTensor {
    sparse(shape, shape.iter().product(), rng)
}

/// Shape parameters of the seven-kernel list's operands.
#[derive(Debug, Clone, Copy)]
pub struct ListShape {
    /// Square matrix dimension and nonzeros per matrix.
    pub n: usize,
    pub nnz: usize,
    /// Inner dimension of SDDMM's dense factors.
    pub rank: usize,
    /// Cube dimension and nonzeros of the 3-tensor.
    pub t: usize,
    pub t_nnz: usize,
}

/// SuiteSparse Table 3 medium class, G32-shaped (2000 x 2000, 8000
/// nonzeros) scaled by one half in each dimension at the same nonzeros per
/// row, so that about forty rounds fit in one fifteen-second run.
pub const MEDIUM: ListShape = ListShape { n: 1000, nnz: 4000, rank: 16, t: 100, t_nnz: 8000 };

/// The same list at the size the cycle backend finishes a round of in
/// about the same time.
pub const CYCLE: ListShape = ListShape { n: 500, nnz: 2000, rank: 16, t: 30, t_nnz: 2400 };

const fn term(coef: f64, factors: &'static [(&'static str, &'static str)]) -> Term {
    Term { coef, factors }
}

/// A kernel in the default loop order over compressed operands, no scalars.
const fn kernel(id: &'static str, text: &'static str, out: &'static str, terms: &'static [Term]) -> Kernel {
    Kernel { id, text, order: None, dense: &[], scalars: &[], out, terms }
}

/// The seven-kernel list: the Table 1 expressions whose operands the
/// Table 3 medium class supplies.
pub static LIST: [Kernel; 7] = [
    kernel("spmv", "x(i) = A(i,j) * v(j)", "i", &[term(1.0, &[("A", "ij"), ("v", "j")])]),
    Kernel {
        order: Some("ikj"),
        ..kernel("spmspm", "X(i,j) = A(i,k) * B(k,j)", "ij", &[term(1.0, &[("A", "ik"), ("B", "kj")])])
    },
    kernel(
        "mmadd",
        "X(i,j) = A(i,j) + B(i,j)",
        "ij",
        &[term(1.0, &[("A", "ij")]), term(1.0, &[("B", "ij")])],
    ),
    Kernel {
        dense: &["P", "Q"],
        ..kernel(
            "sddmm",
            "X(i,j) = A(i,j) * P(i,k) * Q(j,k)",
            "ij",
            &[term(1.0, &[("A", "ij"), ("P", "ik"), ("Q", "jk")])],
        )
    },
    kernel(
        "residual",
        "x(i) = w(i) - A(i,j) * v(j)",
        "i",
        &[term(1.0, &[("w", "i")]), term(-1.0, &[("A", "ij"), ("v", "j")])],
    ),
    kernel(
        "mttkrp",
        "X(i,j) = T(i,k,l) * F(j,k) * G(j,l)",
        "ij",
        &[term(1.0, &[("T", "ikl"), ("F", "jk"), ("G", "jl")])],
    ),
    kernel("ttv", "X(i,j) = T(i,j,k) * u(k)", "ij", &[term(1.0, &[("T", "ijk"), ("u", "k")])]),
];

/// The operands of [`LIST`] at `shape`, from `seed`.
pub fn list_corpus(seed: u64, shape: ListShape) -> Corpus {
    let ListShape { n, nnz, rank, t, t_nnz } = shape;
    let mut stream = 0;
    let mut rng = || {
        stream += 1;
        Rng::new(seed, stream)
    };
    let mut tensors = BTreeMap::new();
    tensors.insert("A", sparse(&[n, n], nnz, &mut rng()));
    tensors.insert("B", sparse(&[n, n], nnz, &mut rng()));
    tensors.insert("v", dense(&[n], &mut rng()));
    tensors.insert("w", sparse(&[n], n / 2, &mut rng()));
    tensors.insert("P", dense(&[n, rank], &mut rng()));
    tensors.insert("Q", dense(&[n, rank], &mut rng()));
    tensors.insert("T", sparse(&[t, t, t], t_nnz, &mut rng()));
    tensors.insert("F", sparse(&[t, t], t * t / 10, &mut rng()));
    tensors.insert("G", sparse(&[t, t], t * t / 10, &mut rng()));
    tensors.insert("u", dense(&[t], &mut rng()));
    Corpus { tensors, kernels: &LIST }
}

/// The twelve Table 1 expressions over suffixed operand names, at the
/// shapes `sam_serve::table1_workload` uses (copied, not imported).
pub static TABLE1: [Kernel; 12] = [
    kernel("spmv", "x(i) = B_mv(i,j) * c_mv(j)", "i", &[term(1.0, &[("B_mv", "ij"), ("c_mv", "j")])]),
    Kernel {
        order: Some("ikj"),
        ..kernel(
            "spmspm",
            "X(i,j) = B_mm(i,k) * C_mm(k,j)",
            "ij",
            &[term(1.0, &[("B_mm", "ik"), ("C_mm", "kj")])],
        )
    },
    Kernel {
        dense: &["C_sd", "D_sd"],
        ..kernel(
            "sddmm",
            "X(i,j) = B_sd(i,j) * C_sd(i,k) * D_sd(j,k)",
            "ij",
            &[term(1.0, &[("B_sd", "ij"), ("C_sd", "ik"), ("D_sd", "jk")])],
        )
    },
    kernel(
        "innerprod",
        "chi() = B_ip(i,j,k) * C_ip(i,j,k)",
        "",
        &[term(1.0, &[("B_ip", "ijk"), ("C_ip", "ijk")])],
    ),
    kernel("ttv", "X(i,j) = B_tv(i,j,k) * c_tv(k)", "ij", &[term(1.0, &[("B_tv", "ijk"), ("c_tv", "k")])]),
    kernel(
        "ttm",
        "X(i,j,k) = B_tm(i,j,l) * C_tm(k,l)",
        "ijk",
        &[term(1.0, &[("B_tm", "ijl"), ("C_tm", "kl")])],
    ),
    kernel(
        "mttkrp",
        "X(i,j) = B_mk(i,k,l) * C_mk(j,k) * D_mk(j,l)",
        "ij",
        &[term(1.0, &[("B_mk", "ikl"), ("C_mk", "jk"), ("D_mk", "jl")])],
    ),
    kernel(
        "residual",
        "x(i) = b_rs(i) - C_rs(i,j) * d_rs(j)",
        "i",
        &[term(1.0, &[("b_rs", "i")]), term(-1.0, &[("C_rs", "ij"), ("d_rs", "j")])],
    ),
    Kernel {
        scalars: &[("alpha", 2.0), ("beta", -3.0)],
        ..kernel(
            "mattransmul",
            "x(i) = alpha * B_mt(j,i) * c_mt(j) + beta * d_mt(i)",
            "i",
            &[term(2.0, &[("B_mt", "ji"), ("c_mt", "j")]), term(-3.0, &[("d_mt", "i")])],
        )
    },
    kernel(
        "mmadd",
        "X(i,j) = B_ma(i,j) + C_ma(i,j)",
        "ij",
        &[term(1.0, &[("B_ma", "ij")]), term(1.0, &[("C_ma", "ij")])],
    ),
    kernel(
        "plus3",
        "X(i,j) = B_ma(i,j) + C_ma(i,j) + D_ma(i,j)",
        "ij",
        &[term(1.0, &[("B_ma", "ij")]), term(1.0, &[("C_ma", "ij")]), term(1.0, &[("D_ma", "ij")])],
    ),
    kernel(
        "plus2",
        "X(i,j,k) = B_p2(i,j,k) + C_p2(i,j,k)",
        "ijk",
        &[term(1.0, &[("B_p2", "ijk")]), term(1.0, &[("C_p2", "ijk")])],
    ),
];

/// The operands of [`TABLE1`], from `seed`.
pub fn table1_corpus(seed: u64) -> Corpus {
    // (name, shape, nonzeros); nonzero counts are the expected counts of
    // the densities `table1_workload` draws at.
    const OPERANDS: [(&str, &[usize], usize); 27] = [
        ("B_mv", &[14, 11], 31),
        ("c_mv", &[11], 8),
        ("B_mm", &[14, 11], 31),
        ("C_mm", &[11, 12], 26),
        ("B_sd", &[10, 9], 22),
        ("C_sd", &[10, 4], 40),
        ("D_sd", &[9, 4], 36),
        ("B_ip", &[6, 5, 7], 50),
        ("C_ip", &[6, 5, 7], 50),
        ("B_tv", &[6, 5, 7], 50),
        ("c_tv", &[7], 5),
        ("B_tm", &[6, 5, 7], 50),
        ("C_tm", &[8, 7], 22),
        ("B_mk", &[5, 4, 6], 30),
        ("C_mk", &[5, 4], 10),
        ("D_mk", &[5, 6], 15),
        ("b_rs", &[14], 6),
        ("C_rs", &[14, 11], 46),
        ("d_rs", &[11], 7),
        ("B_mt", &[13, 10], 39),
        ("c_mt", &[13], 7),
        ("d_mt", &[10], 6),
        ("B_ma", &[12, 10], 30),
        ("C_ma", &[12, 10], 30),
        ("D_ma", &[12, 10], 30),
        ("B_p2", &[6, 5, 7], 50),
        ("C_p2", &[6, 5, 7], 50),
    ];
    let mut tensors = BTreeMap::new();
    for (stream, (name, shape, nnz)) in OPERANDS.iter().enumerate() {
        tensors.insert(*name, sparse(shape, *nnz, &mut Rng::new(seed, stream as u64 + 1)));
    }
    Corpus { tensors, kernels: &TABLE1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_corpus_and_another_seed_changes_it() {
        for build in [|seed| list_corpus(seed, CYCLE), table1_corpus] {
            assert_eq!(build(5).checksum(), build(5).checksum());
            assert_ne!(build(5).checksum(), build(6).checksum());
            // The amount of work does not depend on the seed.
            assert_eq!(build(5).nnz(), build(6).nnz());
        }
    }

    #[test]
    fn tensors_hold_exactly_the_asked_nonzeros_at_distinct_points() {
        let coo = sparse(&[7, 5, 3], 40, &mut Rng::new(1, 1));
        assert_eq!(coo.nnz(), 40);
        let points: BTreeSet<&Vec<u32>> = coo.entries().iter().map(|(p, _)| p).collect();
        assert_eq!(points.len(), 40);
        assert!(coo.entries().iter().all(|(_, v)| (1.0..=5.0).contains(v) && v.fract() == 0.0));
        assert_eq!(dense(&[4, 3], &mut Rng::new(1, 2)).nnz(), 12);
    }

    #[test]
    fn every_operand_a_kernel_names_is_in_its_corpus() {
        for corpus in [list_corpus(1, CYCLE), table1_corpus(1)] {
            for kernel in corpus.kernels {
                for name in kernel.operands().iter().chain(kernel.dense) {
                    assert!(corpus.tensors.contains_key(name), "{}: {name}", kernel.id);
                }
            }
        }
    }
}
