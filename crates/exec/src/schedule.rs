//! Tile schedule derivation: from a [`Plan`] to a [`KernelTiling`].
//!
//! The plan already holds the resolved wiring, the topological order and
//! the storage level every scanner and locator reads; what is derived here
//! is only what the tiler needs on top, without executing the kernel:
//!
//! 1. **Which index variables can be tiled?** Output variables always can:
//!    a tile's partial output lands in a disjoint (or additively merged)
//!    coordinate window. Contraction variables can be tiled whenever the
//!    graph accumulates with vector/matrix reducers (which *drop* empty
//!    fibers, so "an entry exists" means "some tile produced a product" —
//!    associative over tile unions). With a scalar reducer the output
//!    carries *explicit zeros* for every visited iteration point, whose set
//!    depends on how the contraction dimension was windowed; tiling it is
//!    only structure-preserving in the single-level-writer, no-dropper case
//!    (SpMV-shaped kernels), which is detected conservatively.
//! 2. **How does each bound tensor map onto those variables?** Every
//!    scanner and locator names its index variable and the plan knows the
//!    storage level it reads, giving a per-level variable per tensor.
//! 3. **When may a tile tuple be skipped?** A tensor belongs to the *skip
//!    set* when an empty tile of it provably produces zero output entries:
//!    its emptiness must reach every level writer's coordinate stream
//!    through "requires" edges (compressed scans require their tensor,
//!    intersections require both operands, unions only what both share).
//!    This is ExTensor's sparse tile skipping, restricted to where it is
//!    bit-exact.

use crate::bind::Inputs;
use crate::plan::{Merger, Op, Plan, Transfer};
use sam_core::graph::NodeId;
use sam_tiles::{KernelTiling, TensorTiling, TiledVar};
use std::collections::{BTreeMap, BTreeSet};

/// Per output port, by its flat number: the tensors, by binding position,
/// whose empty tile leaves the port's stream without data.
type Requires = Vec<BTreeSet<usize>>;

/// What the stream arriving on input `slot` of `id` requires (nothing when
/// the port is unwired).
fn in_req(plan: &Plan, req: &Requires, id: NodeId, slot: usize) -> BTreeSet<usize> {
    plan.inputs_of(id)[slot].map(|src| req[plan.analysis().port(src)].clone()).unwrap_or_default()
}

/// One tensor the schedule cuts, in [`KernelTiling::tensors`] order: the
/// position of its binding, and whether an empty tile of it lets a tuple be
/// skipped (it is in [`KernelTiling::skip_tensors`]).
pub(crate) struct Cut {
    pub(crate) tensor: usize,
    pub(crate) skips: bool,
}

/// The schedule of `plan`'s kernel over `inputs`, at `tile` coordinates per
/// tiled variable, and the tensors it cuts.
pub(crate) fn tile_schedule(plan: &Plan, inputs: &Inputs, tile: usize) -> (KernelTiling, Vec<Cut>) {
    let tile = tile.max(1);
    let n = plan.graph().len();

    let mut req: Requires = vec![BTreeSet::new(); plan.readers().len()];
    let mut vars: Vec<(char, usize)> = Vec::new();
    // Per tensor position, the variable each storage level iterates.
    let mut level_vars: BTreeMap<usize, BTreeMap<usize, char>> = BTreeMap::new();

    for &id in plan.order() {
        let input = |slot| in_req(plan, &req, id, slot);
        let r = match plan.node(id).op {
            Op::Transfer(
                Transfer::Scan { tensor, level: depth, index, .. }
                | Transfer::Locate { tensor, level: depth, index },
            ) => {
                let level = inputs.at(tensor).level(depth);
                if !vars.iter().any(|&(var, _)| var == index) {
                    vars.push((index, level.dimension()));
                }
                level_vars.entry(tensor).or_default().insert(depth, index);
                // A scanner's second input is its skip port, which no data
                // edge feeds.
                let mut r = &input(0) | &input(1);
                // Only compressed/bitvector levels vanish with an empty
                // tile; dense levels emit every coordinate regardless.
                if !level.is_dense() {
                    r.insert(tensor);
                }
                r
            }
            // An intersection emits only where *both* operands do, a
            // repeater only where both its coordinate and reference do.
            Op::Transfer(Transfer::Repeat) | Op::Merge(Merger { union: false, .. }) => &input(0) | &input(1),
            // A union emits when *either* operand does, so only tensors
            // required by both sides gate it; likewise an ALU, which can
            // synthesize values from empty tokens (x + 0).
            Op::Merge(Merger { union: true, .. }) | Op::Transfer(Transfer::Alu { .. }) => {
                &input(0) & &input(1)
            }
            // A constant mirrors its shape stream token for token, so — like
            // an array — whatever gates its input gates its output. The
            // scalar binding itself is untiled (no storage levels).
            Op::Transfer(Transfer::Array { .. } | Transfer::Const { .. }) => input(0),
            // A reducer's coordinate inputs gate its output; a scalar
            // reducer has none and emits explicit zeros on bare fiber
            // boundaries, so nothing gates its output.
            Op::Transfer(Transfer::Reduce { order }) => {
                (0..order).fold(BTreeSet::new(), |r, k| &r | &input(k))
            }
            Op::Transfer(Transfer::Drop) => {
                // Outer coordinates survive only when their inner fiber
                // holds data: both streams gate the outer output.
                let ports = plan.analysis().output_ports(id).start;
                (req[ports], req[ports + 1]) = (&input(0) | &input(1), input(1));
                continue;
            }
            Op::Transfer(Transfer::Root | Transfer::WriteLevel { .. } | Transfer::WriteVals) => continue,
        };
        req[plan.analysis().output_ports(id)].fill(r);
    }

    // Contraction variables are tileable under a vector or matrix reducer,
    // which emits only accumulated coordinates; with a scalar reducer only the
    // single-writer, dropper-free shape preserves the explicit-zero
    // structure (see the module docs). A union alongside any reducer
    // means an additive term sits *outside* the contraction (residual,
    // MatTransMul): tiling the contraction would re-evaluate that term
    // once per contraction tile and the merger would sum the copies, so
    // those graphs keep their contraction variables whole.
    let has = |pred: fn(&Op) -> bool| (0..n).any(|id| pred(&plan.node(NodeId(id)).op));
    let writers = plan.level_writers();
    let contraction_tileable = !(has(|op| matches!(op, Op::Transfer(Transfer::Reduce { .. })))
        && has(|op| matches!(op, Op::Merge(Merger { union: true, .. }))))
        && (!has(|op| matches!(op, Op::Transfer(Transfer::Reduce { order: 0 })))
            || (writers.len() == 1 && !has(|op| matches!(op, Op::Transfer(Transfer::Drop)))));
    let output_vars: Vec<char> = writers
        .iter()
        .filter_map(|w| match plan.node(*w).op {
            Op::Transfer(Transfer::WriteLevel { index, .. }) => Some(index),
            _ => None,
        })
        .collect();
    // What every level writer's coordinate stream requires.
    let skip: BTreeSet<usize> =
        writers.iter().map(|&w| in_req(plan, &req, w, 0)).reduce(|a, b| &a & &b).unwrap_or_default();

    let tiling = KernelTiling {
        tile,
        vars: vars
            .into_iter()
            .map(|(var, dim)| {
                let tiled = output_vars.contains(&var) || contraction_tileable;
                TiledVar { var, dim, grid: if tiled { dim.div_ceil(tile) } else { 1 }, tiled }
            })
            .collect(),
        // In binding (name) order.
        tensors: level_vars
            .iter()
            .map(|(&tensor, by_depth)| TensorTiling {
                name: plan.binding_name(tensor).to_string(),
                level_vars: (0..inputs.at(tensor).levels().len())
                    .map(|d| by_depth.get(&d).copied())
                    .collect(),
            })
            .collect(),
        output_vars,
        skip_tensors: skip.iter().map(|&tensor| plan.binding_name(tensor).to_string()).collect(),
    };
    let cuts = level_vars.keys().map(|&tensor| Cut { tensor, skips: skip.contains(&tensor) }).collect();
    (tiling, cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanError;
    use custard::graphs::{self, SpmmDataflow};
    use sam_core::graph::SamGraph;
    use sam_tensor::{synth, TensorFormat};

    fn schedule(graph: &SamGraph, inputs: &Inputs) -> Result<KernelTiling, PlanError> {
        Plan::build(graph, inputs).map(|plan| tile_schedule(&plan, inputs, 4).0)
    }

    fn names(tensors: &[&str]) -> BTreeSet<String> {
        tensors.iter().map(|t| t.to_string()).collect()
    }

    /// The variables of `t` that are cut into tiles, in traced order.
    fn tiled_vars(t: &KernelTiling) -> String {
        t.vars.iter().filter(|v| v.tiled).map(|v| v.var).collect()
    }

    #[test]
    fn gustavson_spmm_tiles_all_three_vars_and_skips_both_operands() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(20, 16, 0.8, 31);
        let c = synth::random_matrix_sparsity(16, 24, 0.8, 32);
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
        let t = schedule(&graphs::spmm(SpmmDataflow::LinearCombination), &inputs)?;
        assert_eq!(t.output_vars, vec!['i', 'j']);
        assert_eq!(tiled_vars(&t), "ikj");
        assert_eq!(t.skip_tensors, names(&["B", "C"]));
        assert_eq!(t.vars[1], TiledVar { var: 'k', dim: 16, grid: 4, tiled: true });
        Ok(())
    }

    #[test]
    fn scalar_reduce_with_two_writers_leaves_contraction_untiled() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 33);
        let c = synth::random_matrix_sparsity(10, 12, 0.8, 34);
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsc());
        let t = schedule(&graphs::spmm(SpmmDataflow::InnerProduct), &inputs)?;
        // The inner-product k must stay untiled.
        assert_eq!(tiled_vars(&t), "ij");
        assert_eq!(t.vars[2], TiledVar { var: 'k', dim: 10, grid: 1, tiled: false });
        // Only B's emptiness reaches every writer.
        assert_eq!(t.skip_tensors, names(&["B"]));
        Ok(())
    }

    #[test]
    fn spmv_coiteration_skips_only_on_the_matrix() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 35);
        let c = synth::random_vector(10, 5, 36);
        let inputs =
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::sparse_vec());
        let t = schedule(&graphs::spmv_coiteration(), &inputs)?;
        // Single writer, no dropper: the scalar-reduce contraction (j) may
        // still be tiled.
        assert_eq!(tiled_vars(&t), "ij");
        // Skipping on the (explicit-zero-producing) vector would drop rows.
        assert_eq!(t.skip_tensors, names(&["B"]));
        Ok(())
    }

    #[test]
    fn sddmm_skips_on_the_sparse_operand_only() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 37);
        let c = synth::dense_matrix(12, 4, 38);
        let d = synth::dense_matrix(10, 4, 39);
        let inputs = Inputs::new()
            .coo("B", &b, TensorFormat::dcsr())
            .coo("C", &c, TensorFormat::dense(2))
            .coo("D", &d, TensorFormat::dense(2));
        let t = schedule(&graphs::sddmm_coiteration(), &inputs)?;
        assert_eq!(t.skip_tensors, names(&["B"]));
        // Scalar reduce with two writers: k stays untiled, i and j tile.
        assert_eq!(tiled_vars(&t), "ij");
        assert_eq!(t.vars.len(), 3);
        Ok(())
    }

    /// Two sizes for one index variable never reach a backend: planning
    /// rejects them, so the schedule has no dimension check of its own.
    #[test]
    fn dimension_conflicts_are_rejected() {
        let b = synth::random_vector(10, 4, 40);
        let c = synth::random_vector(12, 4, 41);
        let inputs =
            Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
        let rejection = schedule(&graphs::vec_elem_mul(true), &inputs).err();
        let rules = rejection.map(|PlanError::Rejected { diagnostics }| {
            diagnostics.iter().map(|d| d.rule).collect::<Vec<_>>()
        });
        assert_eq!(rules, Some(vec![sam_verify::Rule::DimensionMismatch]));
    }

    #[test]
    fn tile_keys_follow_the_storage_order() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(16, 16, 0.8, 42);
        let c = synth::random_matrix_sparsity(16, 16, 0.8, 43);
        // Outer-product dataflow: B is DCSC, so storage order is (k, i).
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsc()).coo("C", &c, TensorFormat::dcsr());
        let t = schedule(&graphs::spmm(SpmmDataflow::OuterProduct), &inputs)?;
        assert_eq!((t.var_index('k'), t.var_index('i')), (Some(0), Some(1)));
        // B's level 0 iterates k, level 1 iterates i.
        assert_eq!(t.tensors[0].name, "B");
        assert_eq!(t.tensors[0].level_vars, vec![Some('k'), Some('i')]);
        // Tile 3 along k, tile 2 along i.
        let mut key = Vec::new();
        t.tile_key_into(0, &[3, 2, 0], &mut key);
        assert_eq!(key, vec![3, 2]);
        Ok(())
    }
}

/// `tests/tiling_pins.rs` holds what the graph-side derivation this module
/// replaced produced, and is written against the public API, which cannot
/// reach `tile_schedule`; compiled here a second time, its constants check
/// the derivation field for field.
#[cfg(test)]
mod tiling_pins {
    use crate as sam_exec;
    include!("../tests/tiling_pins.rs");

    #[test]
    fn the_derivation_reproduces_every_pinned_schedule() -> Result<(), sam_exec::PlanError> {
        for (pin, (name, graph, inputs)) in PINS.iter().zip(fixtures()) {
            let plan = Plan::build(&graph, &inputs)?;
            assert_eq!(super::tile_schedule(&plan, &inputs, TILE).0, pin.tiling(), "{name}");
        }
        Ok(())
    }

    /// The plan's reader counts are exact: a walk that succeeds, over every
    /// catalog graph and Table 1 lowering, has run every reader it counted
    /// and handed back every stream it stored. The walk checks the same
    /// after each tuple of a tiled run in a build with debug assertions.
    #[test]
    fn every_walk_releases_every_stream_it_stored() -> Result<(), Box<dyn std::error::Error>> {
        use sam_exec::Executor;
        for (name, graph, inputs) in fixtures() {
            let plan = Plan::build(&graph, &inputs)?;
            let mut ws = crate::fast::Workspace::default();
            crate::fast::walk(&plan, &inputs, &sam_trace::NullSink, &[], &mut ws)?;
            assert!(ws.drained(), "{name}");
            // Its outcome is not this test's: seven of the fixtures fail
            // tiled at this tile size (`Misaligned`, in a tuple's ALU or at
            // output assembly) as they do without this check.
            let _outcome = sam_exec::TiledBackend::with_tile(TILE).run(&plan, &inputs);
        }
        Ok(())
    }
}
