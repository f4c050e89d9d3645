//! Binding input tensors to a graph's tensor names.

use sam_tensor::{CooTensor, Tensor, TensorFormat};
use std::collections::BTreeMap;
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
    // Shared storage so cheap rebinds (the tiled backend rebinds each
    // tuple's tiles into the run's one input set) are refcount bumps, not
    // deep copies.
    tensors: BTreeMap<String, Arc<Tensor>>,
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
    /// without copying its storage.
    pub fn shared(mut self, tensor: Arc<Tensor>) -> Self {
        self.rebind(tensor);
        self
    }

    /// Binds `tensor` under its own name in place: replacing a tensor
    /// already bound under that name allocates nothing.
    pub(crate) fn rebind(&mut self, tensor: Arc<Tensor>) {
        match self.tensors.get_mut(tensor.name()) {
            Some(bound) => *bound = tensor,
            None => {
                self.tensors.insert(tensor.name().to_string(), tensor);
            }
        }
    }

    /// Builds a fibertree from COO data and binds it under `name`.
    pub fn coo(self, name: &str, coo: &CooTensor, format: TensorFormat) -> Self {
        self.tensor(Tensor::from_coo(name, coo, format))
    }

    /// Binds a zero-index scalar operand (a `ConstVal` source's tensor) as
    /// the single-value tensor the planner's scalar validation expects: a
    /// 1-element dense vector holding `value`.
    pub fn scalar(self, name: &str, value: f64) -> Self {
        let coo = CooTensor::from_entries(vec![1], vec![(vec![0], value)]).expect("1-element scalar");
        self.coo(name, &coo, TensorFormat::dense_vec())
    }

    /// The tensor bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.tensors.get(name).map(|t| t.as_ref())
    }

    /// The shared tensor bound to `name`, if any: binding it elsewhere is a
    /// refcount bump.
    pub(crate) fn get_shared(&self, name: &str) -> Option<&Arc<Tensor>> {
        self.tensors.get(name)
    }

    /// Iterates the bound `(name, tensor)` pairs.
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
}
