//! The cycle model, pinned: every graph a paper figure runs, at a small fixed
//! size and seed, must simulate in exactly this many cycles with exactly
//! this many blocks on the [`CycleBackend`]. A change to a primitive's
//! timing, to the planner's fork placement or to the simulator's scheduling
//! shows up here as a number, not as a drifting figure.
//!
//! The comment beside each constant is what the hand-wired twin of the
//! kernel (`sam_core::kernels`, deleted in favour of these graphs) gave on
//! the same operands: the same blocks, within two cycles.

use sam_core::graph::SamGraph;
use sam_core::graphs::{self, SpmmDataflow};
use sam_exec::{CycleBackend, ExecRequest, Inputs};
use sam_tensor::{synth, CooTensor, TensorFormat};

/// `[split, chunk]` reshape of a vector, Figure 13's `Crd w/ split` operand.
fn reshaped(t: &CooTensor, split: usize) -> CooTensor {
    let chunk = t.shape()[0].div_ceil(split) as u32;
    let entries = t.entries().iter().map(|(p, v)| (vec![p[0] / chunk, p[0] % chunk], *v)).collect();
    CooTensor::from_entries(vec![split, chunk as usize], entries).unwrap()
}

#[test]
fn paper_kernel_cycles_are_pinned() {
    let vb = synth::random_vector(2000, 400, 61);
    let vc = synth::random_vector(2000, 400, 62);
    let vec_inputs = |fmt: TensorFormat| Inputs::new().coo("b", &vb, fmt.clone()).coo("c", &vc, fmt);
    let m = synth::random_matrix_sparsity(60, 50, 0.9, 5);
    let n = synth::random_matrix_sparsity(50, 70, 0.9, 6);
    let spmm = |dataflow: SpmmDataflow| {
        let (fb, fc) = dataflow.operand_formats();
        (graphs::spmm(dataflow), Inputs::new().coo("B", &m, fb).coo("C", &n, fc))
    };
    let dv = synth::random_vector(50, 50, 8);
    let sb = synth::random_matrix_sparsity(40, 40, 0.95, 5);
    let sc = synth::dense_matrix(40, 4, 6);
    let sd = synth::dense_matrix(40, 4, 7);
    let sddmm_inputs = Inputs::new()
        .coo("B", &sb, TensorFormat::dcsr())
        .coo("C", &sc, TensorFormat::dense(2))
        .coo("D", &sd, TensorFormat::dense(2));
    // Unfused SDDMM, phase 1: the dense product T = C * D^T as an
    // inner-product SpM*SpM (D's DCSR levels are D^T's DCSC levels).
    let (inner_b, inner_c) = SpmmDataflow::InnerProduct.operand_formats();
    let product_inputs = Inputs::new().coo("B", &sc, inner_b).coo("C", &sd.permuted(&[1, 0]), inner_c);
    let product = ExecRequest::new(&graphs::spmm(SpmmDataflow::InnerProduct), &product_inputs)
        .executor(&CycleBackend::default())
        .run()
        .unwrap();
    let t = product.output.unwrap().to_coo();

    let (gustavson, gustavson_inputs) = spmm(SpmmDataflow::LinearCombination);
    let (inner, inner_inputs) = spmm(SpmmDataflow::InnerProduct);
    let (outer, outer_inputs) = spmm(SpmmDataflow::OuterProduct);
    #[rustfmt::skip]
    let pins: Vec<(&str, SamGraph, Inputs, u64, usize)> = vec![
        // Figure 13, row "400 nonzeros".            graph: cycles, blocks    hand: cycles / blocks
        ("vecmul Crd", graphs::vec_elem_mul(true), vec_inputs(TensorFormat::sparse_vec()), 724, 8), // 724 / 8
        ("vecmul Dense", graphs::vec_elem_mul(false), vec_inputs(TensorFormat::dense_vec()), 2002, 8), // 2002 / 8
        ("vecmul Crd w/ skip", graphs::vec_elem_mul_with_skip(true), vec_inputs(TensorFormat::sparse_vec()), 723, 8), // 723 / 8
        (
            "vecmul Crd w/ split",
            graphs::mat_elem_mul(),
            Inputs::new()
                .coo("B", &reshaped(&vb, 64), TensorFormat::csf(2))
                .coo("C", &reshaped(&vc, 64), TensorFormat::csf(2)),
            785, 13, // 785 / 13
        ),
        // Figure 12 at 60x50x70, 90 % sparse.
        ("spmm linear combination", gustavson, gustavson_inputs, 4283, 17), // 4281 / 17
        ("spmm inner product", inner, inner_inputs, 43633, 16), // 43631 / 16
        ("spmm outer product", outer, outer_inputs, 4276, 16), // 4274 / 16
        (
            "spmv",
            graphs::spmv(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &dv, TensorFormat::dense_vec()),
            362, 13, // 361 / 13
        ),
        // Figure 14. The hand kernel forked the inner stream into a sink to count it.
        ("identity", graphs::identity(), Inputs::new().coo("B", &m, TensorFormat::dcsr()), 360, 6), // 360 / 8
        // Figure 11 at 40x40, 95 % sparse, K = 4.
        ("sddmm coiteration", graphs::sddmm_coiteration(), sddmm_inputs.clone(), 1480, 22), // 1478 / 22
        ("sddmm locating", graphs::sddmm_locating(), sddmm_inputs, 438, 22), // 437 / 22
        ("sddmm unfused, product", graphs::spmm(SpmmDataflow::InnerProduct), product_inputs, 8043, 16), // 8041 / 16
        (
            "sddmm unfused, sampling",
            graphs::mat_elem_mul_locating(),
            Inputs::new().coo("B", &sb, TensorFormat::dcsr()).coo("T", &t, TensorFormat::dense(2)),
            118, 14, // 117 / 14
        ),
    ];

    let mut drift = Vec::new();
    for (name, graph, inputs, cycles, blocks) in pins {
        let run = ExecRequest::new(&graph, &inputs).executor(&CycleBackend::default()).run().unwrap();
        if (run.cycles, run.blocks) != (Some(cycles), blocks) {
            drift.push(format!("{name}: pinned {cycles} / {blocks}, ran {:?} / {}", run.cycles, run.blocks));
        }
    }
    assert!(drift.is_empty(), "cycle model drifted:\n{}", drift.join("\n"));
}
