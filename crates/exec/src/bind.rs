//! Binding input tensors to a graph's tensor names.
//!
//! A graph names its tensors; a run reads them by *position*. An [`Inputs`]
//! keeps its bindings in name order, and [`Plan::build`](crate::Plan::build)
//! resolves every tensor a node reads to its position in that order once.
//! A plan runs only bindings of the names, in the order, it was built over
//! ([`Plan::check_inputs`](crate::Plan::check_inputs)), so the position a
//! node carries is the same tensor on every backend and in every tile tuple.

use sam_tensor::{CooTensor, DenseLevel, Level, Tensor, TensorFormat};
use std::sync::Arc;

/// The named tensors a graph executes over.
///
/// The planner binds every `Root`, `LevelScanner`, `Locator` and `Array`
/// node to a tensor by the name the node carries; binding is by name, so the
/// same graph runs over any operands.
///
/// ```
/// use sam_exec::Inputs;
/// use sam_tensor::{CooTensor, TensorFormat};
///
/// let b = CooTensor::from_entries(vec![4], vec![(vec![1], 2.0)]).unwrap();
/// let inputs = Inputs::new().coo("b", &b, TensorFormat::sparse_vec());
/// assert!(inputs.get("b").is_some());
/// assert!(inputs.get("missing").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    // In name order. Shared storage so cheap rebinds (the tiled backend
    // rebinds each tuple's tiles into the run's one input set) are refcount
    // bumps, not deep copies.
    tensors: Vec<(String, Arc<Tensor>)>,
}

impl Inputs {
    /// An empty binding set.
    pub fn new() -> Self {
        Inputs::default()
    }

    /// Binds a fibertree tensor under its own name.
    pub fn tensor(self, tensor: Tensor) -> Self {
        self.shared(Arc::new(tensor))
    }

    /// Binds an already-shared fibertree tensor under its own name,
    /// without copying its storage; it replaces a tensor already bound
    /// under that name.
    pub fn shared(mut self, tensor: Arc<Tensor>) -> Self {
        match self.position(tensor.name()) {
            Ok(at) => self.tensors[at].1 = tensor,
            Err(at) => self.tensors.insert(at, (tensor.name().to_string(), tensor)),
        }
        self
    }

    /// Builds a fibertree from COO data and binds it under `name`.
    pub fn coo(self, name: &str, coo: &CooTensor, format: TensorFormat) -> Self {
        self.tensor(Tensor::from_coo(name, coo, format))
    }

    /// Binds a zero-index scalar operand (a `ConstVal` source's tensor) as the
    /// 1-element dense vector [`Inputs::coo`] builds of it, which sums `value`
    /// from `0.0` (so `-0.0` binds as `0.0`): the planner's scalar.
    pub fn scalar(self, name: &str, value: f64) -> Self {
        let (shape, format, level) =
            (vec![1], TensorFormat::dense_vec(), Level::Dense(DenseLevel::new(1, 1)));
        self.tensor(Tensor::from_parts(name, shape, format, vec![level], vec![0.0 + value]))
    }

    /// The tensor bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.position(name).ok().map(|at| self.tensors[at].1.as_ref())
    }

    /// Where `name` is bound in name order, or where it would be.
    pub(crate) fn position(&self, name: &str) -> Result<usize, usize> {
        self.tensors.binary_search_by(|(bound, _)| bound.as_str().cmp(name))
    }

    /// The tensor at position `at` in name order, shared: binding it
    /// elsewhere is a refcount bump.
    pub(crate) fn at(&self, at: usize) -> &Arc<Tensor> {
        &self.tensors[at].1
    }

    /// Binds `tensor` at position `at` in place, under the name bound there:
    /// it allocates nothing.
    pub(crate) fn rebind_at(&mut self, at: usize, tensor: Arc<Tensor>) {
        self.tensors[at].1 = tensor;
    }

    /// Iterates the bound `(name, tensor)` pairs, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.tensors.iter().map(|(n, t)| (n.as_str(), t.as_ref()))
    }

    /// Number of bound tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binds_by_tensor_name() {
        let coo = CooTensor::from_entries(vec![3], vec![(vec![0], 1.0)]).unwrap();
        let t = Tensor::from_coo("c", &coo, TensorFormat::dense_vec());
        let inputs = Inputs::new().tensor(t);
        assert_eq!(inputs.len(), 1);
        assert!(!inputs.is_empty());
        assert_eq!(inputs.get("c").unwrap().name(), "c");
        assert_eq!(inputs.iter().count(), 1);
    }

    #[test]
    fn positions_follow_name_order_and_a_rebinding_keeps_its_place() -> Result<(), sam_tensor::coo::CooError>
    {
        let coo = CooTensor::from_entries(vec![3], vec![(vec![0], 1.0)])?;
        let bind = |inputs: Inputs, name: &str| inputs.coo(name, &coo, TensorFormat::dense_vec());
        let inputs = ["c", "a", "b", "a"].into_iter().fold(Inputs::new(), bind);
        let names: Vec<&str> = inputs.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!((inputs.position("b"), inputs.position("bb")), (Ok(1), Err(2)));
        assert_eq!(inputs.at(2).name(), "c");
        Ok(())
    }

    #[test]
    fn a_scalar_binds_as_its_one_entry_coo_does() -> Result<(), Box<dyn std::error::Error>> {
        for value in [0.0, -0.0, 1.5, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE / 2.0] {
            let coo = CooTensor::from_entries(vec![1], vec![(vec![0], value)])?;
            let want = Tensor::from_coo("alpha", &coo, TensorFormat::dense_vec());
            let inputs = Inputs::new().scalar("alpha", value);
            let got = inputs.get("alpha").ok_or("bound")?;
            assert_eq!(got.name(), want.name(), "{value}");
            assert_eq!(got.shape(), want.shape(), "{value}");
            assert_eq!(got.format(), want.format(), "{value}");
            assert_eq!(got.levels(), want.levels(), "{value}");
            let bits = |t: &Tensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "{value}");
        }
        Ok(())
    }
}
