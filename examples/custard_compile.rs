//! The full compile → IR → execute pipeline: compile tensor index notation
//! to a SAM dataflow graph with Custard, print its primitive composition,
//! then run the *same graph* on both `sam-exec` backends and check the
//! results against the dense reference evaluator.
use custard::{lower, lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
use sam::exec::{CycleBackend, ExecRequest, Executor, FastBackend, Inputs};
use sam::tensor::reference::Environment;
use sam::tensor::{synth, Tensor, TensorFormat};

fn main() {
    let text = "X(i,j) = B(i,k) * C(k,j)";
    let assignment = parse(text).expect("valid tensor index notation");
    let cin = ConcreteIndexNotation::new(assignment.clone(), &Schedule::new().reorder("ikj"), Formats::new());

    // The schematic: the unwired node multiset Table 1 counts.
    let schematic = lower(&cin);
    println!("expression : {}", cin.assignment);
    println!("loop order : {}", cin.order_string());
    println!("primitives : {}", schematic.primitive_counts());

    // The executable graph: plan it, bind operands, run on both backends.
    let kernel = lower_exec(&cin).expect("expression is in the executable fragment");
    let b = synth::random_matrix_sparsity(120, 80, 0.95, 7);
    let c = synth::random_matrix_sparsity(80, 100, 0.95, 8);
    let mut inputs = Inputs::new();
    for (name, fmt) in &kernel.formats {
        let coo = if name == "B" { &b } else { &c };
        inputs = inputs.coo(name, coo, fmt.clone());
    }

    let mut env = Environment::new();
    env.insert("B", Tensor::from_coo("B", &b, TensorFormat::dense(2)).to_dense());
    env.insert("C", Tensor::from_coo("C", &c, TensorFormat::dense(2)).to_dense());
    env.bind_dims(&assignment, &[]);
    let expect = env.evaluate(&assignment).expect("reference evaluation");

    for backend in [&CycleBackend as &dyn Executor, &FastBackend::new()] {
        let run =
            ExecRequest::new(&kernel.graph, &inputs).executor(backend).run().expect("execution succeeds");
        let ok = run.output.as_ref().expect("tensor output").to_dense().approx_eq(&expect);
        println!(
            "{:<6} backend: {:>9} tokens, {:>5} blocks, {} in {:?} — {}",
            run.backend,
            run.tokens,
            run.blocks,
            match run.cycles {
                Some(c) => format!("{c} cycles"),
                None => "no cycle model".to_string(),
            },
            run.elapsed,
            if ok { "matches dense reference" } else { "MISMATCH" }
        );
    }

    println!("--- DOT (executable graph) ---");
    println!("{}", kernel.graph.to_dot());
}
