//! Quickstart: build two sparse vectors, run the element-wise multiply SAM
//! graph on the cycle-approximate backend, and check the result against the
//! dense oracle.
use sam::custard::graphs;
use sam::exec::{CycleBackend, ExecRequest, Inputs};
use sam::tensor::expr::table1;
use sam::tensor::reference::Environment;
use sam::tensor::{synth, TensorFormat};

fn main() {
    let dim = 1000;
    let b = synth::random_vector(dim, 200, 1);
    let c = synth::random_vector(dim, 200, 2);

    // One graph, written once; the inputs bind by tensor name and the
    // executor picks the machine it runs on.
    let graph = graphs::vec_elem_mul(true);
    let inputs =
        Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
    let result = ExecRequest::new(&graph, &inputs).executor(&CycleBackend).run().expect("cycle run");
    let output = result.output.expect("tensor output");
    println!("x(i) = b(i) * c(i) over {dim}-element vectors");
    println!("  simulated blocks : {}", result.blocks);
    println!("  simulated cycles : {}", result.cycles.expect("the cycle backend reports cycles"));
    println!("  result nonzeros  : {}", output.nnz());

    // Check against the dense reference evaluator.
    let mut env = Environment::new();
    for (name, tensor) in inputs.iter() {
        env.insert(name, tensor.to_dense());
    }
    env.set_dim('i', dim);
    let expect = env.evaluate(&table1::vec_elem_mul()).unwrap();
    assert!(output.to_dense().approx_eq(&expect));
    println!("  matches the dense reference evaluator");
}
