//! The Section 6.5 backend case study: the OuterSPACE accelerator's
//! outer-product dataflow expressed as a SAM graph (paper Figure 16),
//! compared against Gustavson's dataflow on the same operands.
use sam::custard::graphs::{self, SpmmDataflow};
use sam::exec::{CycleBackend, ExecRequest, Execution, Inputs};
use sam::tensor::synth;

fn main() {
    let b = synth::random_matrix_sparsity(100, 100, 0.98, 11);
    let c = synth::random_matrix_sparsity(100, 100, 0.98, 12);
    let run = |flow: SpmmDataflow| -> Execution {
        let (b_format, c_format) = flow.operand_formats();
        let inputs = Inputs::new().coo("B", &b, b_format).coo("C", &c, c_format);
        ExecRequest::new(&graphs::spmm(flow), &inputs).executor(&CycleBackend).run().expect("cycle run")
    };
    let outer = run(SpmmDataflow::OuterProduct);
    let rows = run(SpmmDataflow::LinearCombination);
    let cycles = |r: &Execution| r.cycles.expect("the cycle backend reports cycles");
    println!("OuterSPACE-style outer product : {:>9} cycles, {} blocks", cycles(&outer), outer.blocks);
    println!("Gustavson linear combination   : {:>9} cycles, {} blocks", cycles(&rows), rows.blocks);
    let (outer, rows) = (outer.output.expect("tensor output"), rows.output.expect("tensor output"));
    assert!(outer.approx_eq(&rows));
    println!("both dataflows produce the same result tensor ({} nonzeros)", outer.nnz());
}
