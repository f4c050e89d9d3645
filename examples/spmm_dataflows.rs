//! Compare the three SpM*SpM dataflow classes (inner product, Gustavson,
//! outer product) on the same pair of sparse matrices — the Figure 12 study
//! at a laptop-friendly size.
use sam::custard::graphs::{self, SpmmDataflow};
use sam::exec::{CycleBackend, ExecRequest, Inputs};
use sam::tensor::synth;

fn main() {
    let b = synth::random_matrix_sparsity(120, 80, 0.95, 7);
    let c = synth::random_matrix_sparsity(80, 120, 0.95, 8);
    println!("X(i,j) = sum_k B(i,k) C(k,j) with 95% sparse 120x80 / 80x120 operands");
    for flow in [SpmmDataflow::InnerProduct, SpmmDataflow::LinearCombination, SpmmDataflow::OuterProduct] {
        // Each dataflow scans its operands in its own order, so it names
        // the storage formats it needs.
        let (b_format, c_format) = flow.operand_formats();
        let inputs = Inputs::new().coo("B", &b, b_format).coo("C", &c, c_format);
        let r =
            ExecRequest::new(&graphs::spmm(flow), &inputs).executor(&CycleBackend).run().expect("cycle run");
        println!(
            "  {:<28} {:>10} cycles ({} result nonzeros)",
            flow.label(),
            r.cycles.expect("the cycle backend reports cycles"),
            r.output.expect("tensor output").nnz()
        );
    }
}
