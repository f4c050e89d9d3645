//! Tiled-vs-untiled equivalence: every catalog kernel the `TiledBackend`
//! supports is executed untiled (serial fast backend) and tiled at tile
//! sizes {4, 16, 128}, and the results must be **bit-identical** — same
//! levels, same explicit zeros, same value order.
//!
//! Bit-identity across tilings requires exact partial sums, so the inputs
//! are integer-valued (every synth value is scaled and rounded to a small
//! integer; all sums stay far below 2^53). The untiled result itself is
//! checked against the dense reference evaluator first, so the suite
//! compares against validated ground truth.

use custard::graphs::{self, SpmmDataflow};
use sam_core::graph::SamGraph;
use sam_exec::{ExecRequest, FastBackend, Inputs, TiledBackend};
use sam_tensor::expr::{table1, Assignment, Expr};
use sam_tensor::reference::Environment;
use sam_tensor::{synth, CooTensor, LevelFormat, TensorFormat};

/// Rounds a synthetic COO tensor's values to small integers so partial
/// sums are exact under any tiling.
fn int_coo(coo: &CooTensor) -> CooTensor {
    CooTensor::from_entries(
        coo.shape().to_vec(),
        coo.entries().iter().map(|(p, v)| (p.clone(), (v * 4.0).round())).collect(),
    )
    .unwrap()
}

fn int_vector(dim: usize, nnz: usize, seed: u64) -> CooTensor {
    int_coo(&synth::random_vector(dim, nnz, seed))
}

fn int_matrix(rows: usize, cols: usize, sparsity: f64, seed: u64) -> CooTensor {
    int_coo(&synth::random_matrix_sparsity(rows, cols, sparsity, seed))
}

/// The tiled-backend catalog: graph, operands and the reference expression.
fn catalog() -> Vec<(SamGraph, Inputs, Assignment)> {
    let vb = int_vector(150, 45, 501);
    let vc = int_vector(150, 40, 502);
    let m = int_matrix(24, 18, 0.85, 503);
    let n = int_matrix(18, 21, 0.85, 504);
    let dv = int_vector(18, 18, 505);
    let sv = int_vector(18, 9, 506);
    let dense_c = int_coo(&synth::dense_matrix(24, 6, 507));
    let dense_d = int_coo(&synth::dense_matrix(18, 6, 508));
    let b3 = int_coo(&synth::random_tensor3([14, 8, 9], 160, 509));
    let fc = int_matrix(10, 8, 0.55, 510);
    let fd = int_matrix(10, 9, 0.55, 511);
    let bv_fmt = TensorFormat::new(vec![LevelFormat::bitvector()]);
    let m2 = int_matrix(24, 18, 0.7, 512);
    let dense_t = int_coo(&synth::dense_matrix(24, 18, 513));
    let spmm = |dataflow: SpmmDataflow| {
        let (fb, fc) = dataflow.operand_formats();
        (graphs::spmm(dataflow), Inputs::new().coo("B", &m, fb).coo("C", &n, fc), table1::spmm())
    };
    let sddmm_inputs = Inputs::new()
        .coo("B", &m, TensorFormat::dcsr())
        .coo("C", &dense_c, TensorFormat::dense(2))
        .coo("D", &dense_d, TensorFormat::dense(2));
    let elem_mul =
        |rhs: &str| Assignment::new("X", "ij", Expr::access("B", "ij").mul(Expr::access(rhs, "ij")));

    vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
            table1::vec_elem_mul(),
        ),
        // The same kernel over bitvector storage: tile extraction must
        // window occupancy words, not just crd arrays.
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, bv_fmt.clone()).coo("c", &vc, bv_fmt),
            table1::vec_elem_mul(),
        ),
        // …and over dense storage (the Figure 13 "Dense" configuration).
        (
            graphs::vec_elem_mul(false),
            Inputs::new().coo("b", &vb, TensorFormat::dense_vec()).coo("c", &vc, TensorFormat::dense_vec()),
            table1::vec_elem_mul(),
        ),
        // A skip twin: per-tile execution must compose with skip fusion.
        (
            graphs::vec_elem_mul_with_skip(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
            table1::vec_elem_mul(),
        ),
        (graphs::identity(), Inputs::new().coo("B", &m, TensorFormat::dcsr()), table1::identity()),
        (
            graphs::spmv(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &dv, TensorFormat::dense_vec()),
            table1::spmv(),
        ),
        (
            graphs::spmv_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
            table1::spmv(),
        ),
        spmm(SpmmDataflow::LinearCombination),
        spmm(SpmmDataflow::InnerProduct),
        spmm(SpmmDataflow::OuterProduct),
        (graphs::sddmm_coiteration(), sddmm_inputs.clone(), table1::sddmm()),
        (graphs::sddmm_locating(), sddmm_inputs, table1::sddmm()),
        (
            graphs::mat_elem_mul(),
            Inputs::new().coo("B", &m, TensorFormat::csf(2)).coo("C", &m2, TensorFormat::csf(2)),
            elem_mul("C"),
        ),
        (
            graphs::mat_elem_mul_locating(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("T", &dense_t, TensorFormat::dense(2)),
            elem_mul("T"),
        ),
        (
            graphs::mttkrp(),
            Inputs::new().coo("B", &b3, TensorFormat::csf(3)).coo("C", &fc, TensorFormat::dcsc()).coo(
                "D",
                &fd,
                TensorFormat::dcsc(),
            ),
            table1::mttkrp(),
        ),
    ]
}

#[test]
fn every_supported_kernel_is_bit_identical_across_tile_sizes() {
    for (graph, inputs, assignment) in catalog() {
        // Untiled ground truth, validated against the dense reference.
        let mut env = Environment::new();
        for (name, tensor) in inputs.iter() {
            env.insert(name, tensor.to_dense());
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).unwrap();
        let untiled = ExecRequest::new(&graph, &inputs)
            .executor(&FastBackend::new())
            .run()
            .unwrap_or_else(|e| panic!("{}: untiled run failed: {e}", graph.name));
        let untiled_out = untiled.output.expect("tensor output");
        assert!(
            untiled_out.to_dense().approx_eq(&expect),
            "{}: untiled output diverged from the dense reference",
            graph.name
        );

        for tile in [4usize, 16, 128] {
            let tiled = ExecRequest::new(&graph, &inputs)
                .executor(&TiledBackend::with_tile(tile))
                .run()
                .unwrap_or_else(|e| panic!("{}: tile {tile} run failed: {e}", graph.name));
            assert_eq!(tiled.backend, "tiled");
            assert_eq!(
                tiled.output.as_ref().expect("tensor output"),
                &untiled_out,
                "{}: tile {tile} output is not bit-identical to the untiled run",
                graph.name
            );
            assert_eq!(tiled.vals, untiled.vals, "{}: tile {tile} produced different raw values", graph.name);
            let mem = tiled.memory.expect("tiled runs report memory counters");
            assert_eq!(
                mem.tiles_visited,
                mem.tiles_skipped + mem.tiles_executed,
                "{}: tile {tile} counters must account for every tuple",
                graph.name
            );
            assert!(mem.tiles_executed > 0, "{}: tile {tile} executed nothing", graph.name);
        }
    }
}

/// Randomized (proptest-style, on the vendored PRNG) equivalence over
/// random sparse matrices: random shapes, densities and tile sizes, always
/// bit-identical to the untiled run and numerically equal to the dense
/// reference.
#[test]
fn random_sparse_matrices_stay_bit_identical_under_random_tilings() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x7115);
    for case in 0..25 {
        let i = rng.gen_range(3..28);
        let k = rng.gen_range(3..24);
        let j = rng.gen_range(3..26);
        let sparsity = 0.5 + 0.45 * rng.gen::<f64>();
        let tile = *[2usize, 3, 5, 8, 13, 32].get(rng.gen_range(0..6)).unwrap();
        let seed = rng.gen::<u64>();
        let b = int_matrix(i, k, sparsity, seed);
        let c = int_matrix(k, j, sparsity, seed.wrapping_add(1));
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
        let graph = graphs::spmm(SpmmDataflow::LinearCombination);

        let mut env = Environment::new();
        for (name, tensor) in inputs.iter() {
            env.insert(name, tensor.to_dense());
        }
        env.bind_dims(&table1::spmm(), &[]);
        let expect = env.evaluate(&table1::spmm()).unwrap();

        let untiled = ExecRequest::new(&graph, &inputs).executor(&FastBackend::new()).run().unwrap();
        let tiled = ExecRequest::new(&graph, &inputs)
            .executor(&TiledBackend::with_tile(tile))
            .run()
            .unwrap_or_else(|e| panic!("case {case} (i={i} k={k} j={j} tile={tile}): {e}"));
        let untiled_out = untiled.output.expect("tensor output");
        assert!(untiled_out.to_dense().approx_eq(&expect), "case {case}: untiled diverged from reference");
        assert_eq!(
            tiled.output.expect("tensor output"),
            untiled_out,
            "case {case} (i={i} k={k} j={j} tile={tile} sparsity={sparsity:.2}): tiled != untiled"
        );
    }
}

/// Compiles `text` with `B` = 4 x 4, `(0,1) = 1`, `(2,2) = 3`, stored
/// `(Compressed, Dense)` — rows 0 and 2 with every column of them, explicit
/// zeros included — against an all-2.0 `other` operand, and checks that
/// 2 x 2 tiles reproduce the untiled run bit for bit. A tile has to be the
/// window of what its parent *stores*: one rebuilt from the window's
/// nonzeros drops row 0 from the tiles right of column 1 and row 2 from
/// those left of column 2.
fn check_explicit_zero_tiles(text: &str, other: &str, other_shape: Vec<usize>, expect: &[f64]) {
    use custard::{lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};

    let b = CooTensor::from_entries(vec![4, 4], vec![(vec![0, 1], 1.0), (vec![2, 2], 3.0)]).unwrap();
    let twos = CooTensor::from_dense(other_shape.clone(), &vec![2.0; other_shape.iter().product()]);
    let formats =
        Formats::new().set("B", TensorFormat::new(vec![LevelFormat::Compressed, LevelFormat::Dense]));
    let cin = ConcreteIndexNotation::new(parse(text).unwrap(), &Schedule::new(), formats);
    let kernel = lower_exec(&cin).unwrap();
    let mut inputs = Inputs::new();
    for (name, coo) in [("B", &b), (other, &twos)] {
        let format = &kernel.formats.iter().find(|(n, _)| n == name).expect("operand in formats").1;
        inputs = inputs.coo(name, coo, format.clone());
    }

    let untiled = ExecRequest::new(&kernel.graph, &inputs).executor(&FastBackend::new()).run().unwrap();
    assert_eq!(untiled.vals, expect, "`{text}`: untiled");
    let tiled = ExecRequest::new(&kernel.graph, &inputs)
        .executor(&TiledBackend::with_tile(2))
        .run()
        .unwrap_or_else(|e| panic!("`{text}` tiled: {e}"));
    assert_eq!(tiled.output, untiled.output, "`{text}` tiled");
    let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&tiled.vals), bits(&untiled.vals), "`{text}` tiled");
}

#[test]
fn tiles_keep_explicit_zeros_elementwise() {
    let expect = [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0];
    check_explicit_zero_tiles("X(i,j) = B(i,j) * C(i,j)", "C", vec![4, 4], &expect);
}

#[test]
fn tiles_keep_explicit_zeros_under_a_reduction() {
    check_explicit_zero_tiles("x(i) = B(i,j) * c(j)", "c", vec![4], &[2.0, 6.0]);
}
