//! The independent reference: a hash-join evaluator over COO entries.
//!
//! It reads only `CooTensor::entries` and the hand-written [`Term`]s, so it
//! shares no code with custard's parser or lowering, the planner or any
//! backend. A result is a map from output point to value with zeros
//! dropped, which is also how measured outputs are read back
//! (`Tensor::points` drops explicit zeros).

use crate::corpus::{Corpus, Kernel, Term};
use sam_exec::Execution;
use std::collections::{BTreeMap, HashMap};

pub type Points = BTreeMap<Vec<u32>, f64>;

/// What a correct execution of one kernel must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub points: Points,
    pub digest: Digest,
}

/// Count, sum and sum of squares of the nonzero values: exact for the
/// integer-valued corpora, and cheap enough to check on every query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    pub nnz: usize,
    pub sum: f64,
    pub sum_sq: f64,
}

impl Digest {
    pub fn of(values: impl IntoIterator<Item = f64>) -> Digest {
        let mut d = Digest { nnz: 0, sum: 0.0, sum_sq: 0.0 };
        for v in values.into_iter().filter(|v| *v != 0.0) {
            d.nnz += 1;
            d.sum += v;
            d.sum_sq += v * v;
        }
        d
    }
}

fn eval_term(term: &Term, corpus: &Corpus, out: &str, acc: &mut Points) {
    // One slot per index variable of the term, in order of appearance.
    let mut vars: Vec<char> = Vec::new();
    for c in term.factors.iter().flat_map(|(_, idx)| idx.chars()) {
        if !vars.contains(&c) {
            vars.push(c);
        }
    }
    let slot = |c: char| vars.iter().position(|v| *v == c).expect("variable of this term");
    let mut bound = vec![false; vars.len()];
    let mut partial: Vec<(Vec<u32>, f64)> = vec![(vec![0; vars.len()], term.coef)];
    for (name, idx) in term.factors {
        let coo = &corpus.tensors[name];
        let slots: Vec<usize> = idx.chars().map(slot).collect();
        let join: Vec<usize> = (0..slots.len()).filter(|&m| bound[slots[m]]).collect();
        let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for (e, (point, _)) in coo.entries().iter().enumerate() {
            index.entry(join.iter().map(|&m| point[m]).collect()).or_default().push(e);
        }
        let mut next = Vec::new();
        for (binding, value) in &partial {
            let key: Vec<u32> = join.iter().map(|&m| binding[slots[m]]).collect();
            for &e in index.get(&key).map_or(&[][..], Vec::as_slice) {
                let (point, v) = &coo.entries()[e];
                let mut extended = binding.clone();
                for (m, &s) in slots.iter().enumerate() {
                    extended[s] = point[m];
                }
                next.push((extended, value * v));
            }
        }
        partial = next;
        slots.iter().for_each(|&s| bound[s] = true);
    }
    for (binding, value) in partial {
        let key = out.chars().map(|c| binding[slot(c)]).collect();
        *acc.entry(key).or_insert(0.0) += value;
    }
}

/// Evaluates `kernel` over `corpus`.
pub fn evaluate(kernel: &Kernel, corpus: &Corpus) -> Expected {
    let mut points = Points::new();
    for term in kernel.terms {
        eval_term(term, corpus, kernel.out, &mut points);
    }
    points.retain(|_, v| *v != 0.0);
    let digest = Digest::of(points.values().copied());
    Expected { points, digest }
}

/// The measured output as points. A scalar result (no level writers, so no
/// output tensor) is the single value at the empty point.
pub fn measured_points(run: &Execution) -> Points {
    match &run.output {
        Some(tensor) => tensor.points().into_iter().collect(),
        None => run.vals.iter().filter(|v| **v != 0.0).map(|v| (Vec::new(), *v)).collect(),
    }
}

impl Expected {
    /// The full comparison, made on the warm-up round.
    pub fn matches_fully(&self, run: &Execution) -> bool {
        measured_points(run) == self.points
    }

    /// The per-query comparison of every measured round.
    pub fn matches_digest(&self, run: &Execution) -> bool {
        Digest::of(run.vals.iter().copied()) == self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{list_corpus, table1_corpus, ListShape};
    use sam_tensor::dense::DenseTensor;
    use sam_tensor::reference::Environment;

    /// `sam_tensor`'s dense loop-nest evaluator on the same kernel.
    fn dense_reference(kernel: &Kernel, corpus: &Corpus) -> DenseTensor {
        let assignment = custard::parse(kernel.text).unwrap();
        let mut env = Environment::new();
        for name in kernel.operands() {
            let coo = &corpus.tensors[name];
            env.insert(name, DenseTensor::from_data(coo.shape().to_vec(), coo.to_dense()));
        }
        for (name, value) in kernel.scalars {
            env.insert_scalar(name, *value);
        }
        env.bind_dims(&assignment, &[]);
        env.evaluate(&assignment).unwrap()
    }

    #[test]
    fn the_evaluator_agrees_with_the_dense_reference() {
        // The dense loop nest visits every point, so the seven-kernel list runs tiny.
        let tiny = ListShape { n: 24, nnz: 60, rank: 4, t: 8, t_nnz: 60 };
        for corpus in [table1_corpus(11), list_corpus(11, tiny)] {
            for kernel in corpus.kernels {
                let dense = dense_reference(kernel, &corpus);
                let expected = evaluate(kernel, &corpus);
                let mine = DenseTensor::from_fn(dense.shape().to_vec(), |point| {
                    // A scalar result is shape [1] there and the empty point here.
                    let key = if kernel.out.is_empty() { &[][..] } else { point };
                    expected.points.get(key).copied().unwrap_or(0.0)
                });
                assert_eq!(mine.data(), dense.data(), "{}", kernel.id);
                assert!(expected.digest.nnz > 0, "{}: an all-zero result checks nothing", kernel.id);
            }
        }
    }

    #[test]
    fn the_digest_ignores_explicit_zeros_and_sees_any_changed_value() {
        let base = Digest::of([3.0, 0.0, 4.0]);
        assert_eq!(base, Digest::of([3.0, 4.0]));
        assert_eq!(base, Digest { nnz: 2, sum: 7.0, sum_sq: 25.0 });
        assert_ne!(base, Digest::of([4.0, 3.0, 1.0]));
        assert_ne!(base, Digest::of([2.0, 5.0]), "same count and sum, different squares");
    }
}
