//! The Figure 11 fusion study: fused SDDMM asymptotically beats the unfused
//! factorized form, and locating beats co-iteration when K is small.
use sam::core::SamGraph;
use sam::custard::graphs::{self, SddmmVariant, SpmmDataflow};
use sam::exec::{CycleBackend, ExecRequest, Execution, Inputs};
use sam::tensor::{synth, TensorFormat};

fn run(graph: &SamGraph, inputs: &Inputs) -> Execution {
    ExecRequest::new(graph, inputs).executor(&CycleBackend).run().expect("cycle run")
}

fn cycles(run: &Execution) -> u64 {
    run.cycles.expect("the cycle backend reports cycles")
}

fn main() {
    let (i, j) = (100, 100);
    for k in [1usize, 10] {
        let b = synth::random_matrix_sparsity(i, j, 0.95, 1);
        let c = synth::dense_matrix(i, k, 2);
        let d = synth::dense_matrix(j, k, 3);
        let fused = Inputs::new()
            .coo("B", &b, TensorFormat::dcsr())
            .coo("C", &c, TensorFormat::dense(2))
            .coo("D", &d, TensorFormat::dense(2));
        println!("SDDMM with K = {k}:");
        for variant in [SddmmVariant::Unfused, SddmmVariant::FusedCoiteration, SddmmVariant::FusedLocating] {
            let total = match variant {
                SddmmVariant::FusedCoiteration => cycles(&run(&graphs::sddmm_coiteration(), &fused)),
                SddmmVariant::FusedLocating => cycles(&run(&graphs::sddmm_locating(), &fused)),
                SddmmVariant::Unfused => {
                    // Two graphs back to back: the dense product T = C * D^T
                    // (an inner-product SpM*SpM), then B sampling T.
                    let (c_format, d_format) = SpmmDataflow::InnerProduct.operand_formats();
                    let product = run(
                        &graphs::spmm(SpmmDataflow::InnerProduct),
                        &Inputs::new().coo("B", &c, c_format).coo("C", &d.permuted(&[1, 0]), d_format),
                    );
                    let t = product.output.as_ref().expect("tensor output").to_coo();
                    let sample = run(
                        &graphs::mat_elem_mul_locating(),
                        &Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo(
                            "T",
                            &t,
                            TensorFormat::dense(2),
                        ),
                    );
                    cycles(&product) + cycles(&sample)
                }
            };
            println!("  {:<20} {:>10} cycles", variant.label(), total);
        }
    }
}
