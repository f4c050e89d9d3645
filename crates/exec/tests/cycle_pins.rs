//! The cycle model, pinned: every graph a paper figure runs, every other
//! `graphs::catalog()` entry and `custard`'s lowering of the benchmark's
//! seven list kernels, at a small fixed size and seed, must simulate in
//! exactly this many cycles with exactly this many blocks and tokens on the
//! [`CycleBackend`]. A change to a primitive's timing, to the planner's fork
//! placement or to the simulator's scheduling shows up here as a number,
//! not as a drifting figure.
//!
//! In the figure table the comment beside each constant is what the
//! kernel's simulator set up block by block, since deleted in favour of
//! these graphs, gave on the same operands: the same blocks, within two
//! cycles.

use custard::graphs::{self, SpmmDataflow};
use custard::{ConcreteIndexNotation, Formats, Schedule};
use sam_core::graph::SamGraph;
use sam_exec::{CycleBackend, ExecRequest, Inputs};
use sam_tensor::{synth, CooTensor, TensorFormat};

/// One pinned run: name, graph, operands, then cycles, blocks and tokens.
type Pin = (&'static str, SamGraph, Inputs, u64, usize, u64);

fn assert_pinned(pins: Vec<Pin>) {
    let mut drift = Vec::new();
    for (name, graph, inputs, cycles, blocks, tokens) in pins {
        let run = ExecRequest::new(&graph, &inputs).executor(&CycleBackend).run().unwrap();
        if (run.cycles, run.blocks, run.tokens) != (Some(cycles), blocks, tokens) {
            drift.push(format!(
                "{name}: pinned {cycles} / {blocks} / {tokens}, ran {:?} / {} / {}",
                run.cycles, run.blocks, run.tokens
            ));
        }
    }
    assert!(drift.is_empty(), "cycle model drifted:\n{}", drift.join("\n"));
}

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
        .executor(&CycleBackend)
        .run()
        .unwrap();
    let t = product.output.unwrap().to_coo();

    let (gustavson, gustavson_inputs) = spmm(SpmmDataflow::LinearCombination);
    let (inner, inner_inputs) = spmm(SpmmDataflow::InnerProduct);
    let (outer, outer_inputs) = spmm(SpmmDataflow::OuterProduct);
    #[rustfmt::skip]
    let pins: Vec<Pin> = vec![
        // Figure 13, row "400 nonzeros".            graph: cycles, blocks, tokens    hand: cycles / blocks
        ("vecmul Crd", graphs::vec_elem_mul(true), vec_inputs(TensorFormat::sparse_vec()), 724, 8, 2092), // 724 / 8
        ("vecmul Dense", graphs::vec_elem_mul(false), vec_inputs(TensorFormat::dense_vec()), 2002, 8, 20024), // 2002 / 8
        ("vecmul Crd w/ skip", graphs::vec_elem_mul_with_skip(true), vec_inputs(TensorFormat::sparse_vec()), 723, 8, 3362), // 723 / 8
        (
            "vecmul Crd w/ split",
            graphs::mat_elem_mul(),
            Inputs::new()
                .coo("B", &reshaped(&vb, 64), TensorFormat::csf(2))
                .coo("C", &reshaped(&vc, 64), TensorFormat::csf(2)),
            785, 13, 3319, // 785 / 13
        ),
        // Figure 12 at 60x50x70, 90 % sparse.
        ("spmm linear combination", gustavson, gustavson_inputs, 4283, 17, 33125), // 4281 / 17
        ("spmm inner product", inner, inner_inputs, 43633, 16, 162965), // 43631 / 16
        ("spmm outer product", outer, outer_inputs, 4276, 16, 27058), // 4274 / 16
        (
            "spmv",
            graphs::spmv(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &dv, TensorFormat::dense_vec()),
            362, 13, 4330, // 361 / 13
        ),
        // Figure 14. The hand kernel forked the inner stream into a sink to count it.
        ("identity", graphs::identity(), Inputs::new().coo("B", &m, TensorFormat::dcsr()), 360, 6, 1204), // 360 / 8
        // Figure 11 at 40x40, 95 % sparse, K = 4.
        ("sddmm coiteration", graphs::sddmm_coiteration(), sddmm_inputs.clone(), 1480, 22, 8645), // 1478 / 22
        ("sddmm locating", graphs::sddmm_locating(), sddmm_inputs, 438, 22, 6072), // 437 / 22
        ("sddmm unfused, product", graphs::spmm(SpmmDataflow::InnerProduct), product_inputs, 8043, 16, 90070), // 8041 / 16
        (
            "sddmm unfused, sampling",
            graphs::mat_elem_mul_locating(),
            Inputs::new().coo("B", &sb, TensorFormat::dcsr()).coo("T", &t, TensorFormat::dense(2)),
            118, 14, 1750, // 117 / 14
        ),
    ];

    assert_pinned(pins);
}

/// The catalog entries no figure runs. The three `_with_skip` graphs beyond
/// `vec_elem_mul_with_skip(compressed)` carry the Section 4.2 feedback lane,
/// the only edge from a later block to an earlier one: the one place where
/// the order blocks are scheduled in can change a cycle count.
#[test]
fn remaining_catalog_kernel_cycles_are_pinned() {
    let vb = synth::random_vector(600, 40, 71);
    let vc = synth::random_vector(600, 300, 72);
    let m = synth::random_matrix_sparsity(30, 40, 0.8, 73);
    let n = synth::random_matrix_sparsity(40, 25, 0.8, 74);
    // Dense-ish rows against a hypersparse vector: the skip lane gallops.
    let wide = synth::random_matrix_sparsity(20, 300, 0.6, 90);
    let sv = synth::random_vector(300, 10, 75);
    let sb = synth::random_matrix_sparsity(30, 30, 0.93, 76);
    let sc = synth::dense_matrix(30, 4, 77);
    let sd = synth::dense_matrix(30, 4, 78);
    let b3 = synth::random_tensor3([10, 7, 8], 120, 79);
    let fc = synth::random_matrix_sparsity(9, 7, 0.5, 80);
    let fd = synth::random_matrix_sparsity(9, 8, 0.5, 81);
    let rb = synth::random_vector(30, 12, 82);
    let rd = synth::random_vector(40, 20, 83);
    let tb = synth::random_matrix_sparsity(26, 20, 0.7, 84);
    let tc = synth::random_vector(26, 14, 85);
    let td = synth::random_vector(20, 9, 86);
    let p = |seed| synth::random_matrix_sparsity(20, 16, 0.75, seed);
    let spmv_sparse =
        || Inputs::new().coo("B", &wide, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec());
    let (gustavson_b, gustavson_c) = SpmmDataflow::LinearCombination.operand_formats();
    #[rustfmt::skip]
    let pins: Vec<Pin> = vec![
        (
            "vec_elem_mul_with_skip(dense)",
            graphs::vec_elem_mul_with_skip(false),
            Inputs::new().coo("b", &vb, TensorFormat::dense_vec()).coo("c", &vc, TensorFormat::dense_vec()),
            602, 8, 6024,
        ),
        ("spmv_with_skip", graphs::spmv_with_skip(), spmv_sparse(), 2468, 12, 9656),
        (
            "spmm_with_skip",
            graphs::spmm_with_skip(SpmmDataflow::LinearCombination),
            Inputs::new().coo("B", &m, gustavson_b).coo("C", &n, gustavson_c),
            2076, 17, 16221,
        ),
        (
            "sddmm_with_skip",
            graphs::sddmm_with_skip(),
            Inputs::new()
                .coo("B", &sb, TensorFormat::dcsr())
                .coo("C", &sc, TensorFormat::dense(2))
                .coo("D", &sd, TensorFormat::dense(2)),
            416, 22, 5399,
        ),
        ("spmv_coiteration", graphs::spmv_coiteration(), spmv_sparse(), 2543, 12, 6026),
        (
            "mttkrp",
            graphs::mttkrp(),
            Inputs::new()
                .coo("B", &b3, TensorFormat::csf(3))
                .coo("C", &fc, TensorFormat::dcsc())
                .coo("D", &fd, TensorFormat::dcsc()),
            873, 28, 10609,
        ),
        (
            "residual",
            graphs::residual(),
            Inputs::new()
                .coo("b", &rb, TensorFormat::sparse_vec())
                .coo("C", &m, TensorFormat::dcsr())
                .coo("d", &rd, TensorFormat::sparse_vec()),
            748, 16, 3126,
        ),
        (
            "mat_trans_mul",
            graphs::mat_trans_mul(),
            Inputs::new()
                .coo("B", &tb, TensorFormat::dcsc())
                .coo("c", &tc, TensorFormat::sparse_vec())
                .coo("d", &td, TensorFormat::sparse_vec())
                .scalar("alpha", 2.0)
                .scalar("beta", -3.0),
            375, 22, 2374,
        ),
        (
            "plus3",
            graphs::plus3(),
            Inputs::new()
                .coo("B", &p(87), TensorFormat::dcsr())
                .coo("C", &p(88), TensorFormat::dcsr())
                .coo("D", &p(89), TensorFormat::dcsr()),
            211, 26, 4608,
        ),
    ];
    assert_pinned(pins);
}

/// `custard::lower_exec`'s graphs of the benchmark's seven list kernels
/// (`sambench/src/corpus.rs`, copied, not imported) over operands of the
/// same kinds at a twelfth of `small-cycle`'s dimensions. They carry the vector
/// and matrix reducers and the unioners no catalog figure kernel does.
#[test]
fn compiled_list_kernel_cycles_are_pinned() {
    let (n, rank, t) = (40, 4, 8);
    let operands: Vec<(&str, CooTensor)> = vec![
        ("A", synth::random_matrix_nnz(n, n, 160, 91)),
        ("B", synth::random_matrix_nnz(n, n, 160, 92)),
        ("v", synth::random_vector(n, n, 93)),
        ("w", synth::random_vector(n, n / 2, 94)),
        ("P", synth::dense_matrix(n, rank, 95)),
        ("Q", synth::dense_matrix(n, rank, 96)),
        ("T", synth::random_tensor3([t, t, t], 100, 97)),
        ("F", synth::random_matrix_nnz(t, t, 12, 98)),
        ("G", synth::random_matrix_nnz(t, t, 12, 99)),
        ("u", synth::random_vector(t, t, 100)),
    ];
    let compiled = |name: &'static str,
                    text: &str,
                    order: Option<&str>,
                    dense: &[&str],
                    cycles: u64,
                    blocks: usize,
                    tokens: u64|
     -> Pin {
        let schedule = order.map_or_else(Schedule::new, |o| Schedule::new().reorder(o));
        let formats = dense.iter().fold(Formats::new(), |f, d| f.set(d, TensorFormat::dense(2)));
        let cin = ConcreteIndexNotation::new(custard::parse(text).unwrap(), &schedule, formats);
        let kernel = custard::lower_exec(&cin).unwrap();
        let inputs = kernel.formats.iter().fold(Inputs::new(), |inputs, (operand, format)| {
            let coo = &operands.iter().find(|(o, _)| o == operand).unwrap().1;
            inputs.coo(operand, coo, format.clone())
        });
        (name, kernel.graph, inputs, cycles, blocks, tokens)
    };
    assert_pinned(vec![
        compiled("spmv", "x(i) = A(i,j) * v(j)", None, &[], 1643, 12, 5146),
        compiled("spmspm", "X(i,j) = A(i,k) * B(k,j)", Some("ikj"), &[], 1655, 16, 12217),
        compiled("mmadd", "X(i,j) = A(i,j) + B(i,j)", None, &[], 345, 12, 3172),
        compiled("sddmm", "X(i,j) = A(i,j) * P(i,k) * Q(j,k)", None, &["P", "Q"], 896, 23, 14650),
        compiled("residual", "x(i) = w(i) - A(i,j) * v(j)", None, &[], 1643, 16, 5402),
        compiled("mttkrp", "X(i,j) = T(i,k,l) * F(j,k) * G(j,l)", None, &[], 350, 27, 4009),
        compiled("ttv", "X(i,j) = T(i,j,k) * u(k)", None, &[], 507, 16, 2710),
    ]);
}
