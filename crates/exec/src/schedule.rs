//! The tile schedule: one record, derived from a [`Plan`], of how the tiled
//! backend cuts a kernel — a tile is one more, coarser coordinate level of
//! the iteration space the plan already describes.
//!
//! A [`Schedule`] names everything by number: an index variable by its place
//! in first-traced order, a tensor by its binding's position, a node by its
//! id. The plan already holds the resolved wiring, the topological order and
//! the storage level every scanner and locator reads; what is derived here is
//! only what the tiler needs on top, without executing the kernel:
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
//! 3. **When may a tile tuple be skipped?** A tensor licenses a skip when
//!    an empty tile of it provably produces zero output entries: its
//!    emptiness must reach every level writer's coordinate stream through
//!    "requires" edges (compressed scans require their tensor,
//!    intersections require both operands, unions only what both share).
//!    This is ExTensor's sparse tile skipping, restricted to where it is
//!    bit-exact.
//!
//! The tile arithmetic — the tuple space, a variable's window, each level's
//! tile size and a tuple's tile key — is methods on the record.

use crate::bind::Inputs;
use crate::plan::{Merger, Op, Plan, Transfer};
use sam_core::graph::NodeId;
use sam_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};

/// Per output port, by its flat number: the tensors, by binding position,
/// whose empty tile leaves the port's stream without data.
type Requires = Vec<BTreeSet<usize>>;

/// What the stream arriving on input `slot` of `id` requires (nothing when
/// the port is unwired).
fn in_req(plan: &Plan, req: &Requires, id: NodeId, slot: usize) -> BTreeSet<usize> {
    plan.inputs_of(id)[slot].map(|src| req[plan.analysis().port(src)].clone()).unwrap_or_default()
}

/// A kernel's tile schedule at one tile size.
pub(crate) struct Schedule {
    /// Tile side length (coordinates per tile along every tiled variable).
    tile: usize,
    /// The index variables, in first-traced order.
    pub(crate) vars: Vec<Var>,
    /// The tensors the schedule cuts, in binding order.
    pub(crate) cuts: Vec<Cut>,
    /// Per output level writer, outermost first, the variable it writes.
    pub(crate) writer_vars: Vec<usize>,
}

/// One index variable of the tiled iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Var {
    pub(crate) dim: usize,
    /// Number of tiles along it (1 when untiled).
    pub(crate) grid: usize,
    pub(crate) tiled: bool,
}

/// One tensor the schedule cuts.
pub(crate) struct Cut {
    /// The position of its binding.
    pub(crate) tensor: usize,
    /// Whether an empty tile of it lets a tuple be skipped.
    pub(crate) skips: bool,
    /// Its storage levels, outermost first.
    pub(crate) levels: Vec<CutLevel>,
}

/// One storage level of a cut tensor; both fields are `None` when no
/// scanner or locator reads it, and it stays whole.
#[derive(Clone, Copy, Default)]
pub(crate) struct CutLevel {
    /// The variable the level iterates.
    pub(crate) var: Option<usize>,
    /// The first node in plan order that reads the level: the one a
    /// coordinate the cut finds out of place would reach first.
    pub(crate) reader: Option<NodeId>,
}

impl Schedule {
    /// The tile-grid size along every variable: the tuple space the tiled
    /// backend enumerates.
    pub(crate) fn tuple_space(&self) -> Vec<usize> {
        self.vars.iter().map(|v| v.grid).collect()
    }

    /// The first coordinate of variable `var`'s window in the tile tuple
    /// `tuple` (an untiled variable's one tile, 0, starts at 0).
    pub(crate) fn window_start(&self, tuple: &[usize], var: usize) -> u32 {
        (tuple[var] * self.tile) as u32
    }

    /// The tile size of every storage level of cut `cut`, bound as
    /// `tensor`: the level's full dimension where its variable is untiled or
    /// it has none. A zero-size level counts as size 1, one empty window:
    /// the cut takes no tile of size 0.
    pub(crate) fn level_tile_sizes(&self, cut: usize, tensor: &Tensor) -> Vec<usize> {
        let levels = self.cuts[cut].levels.iter().zip(tensor.levels());
        levels
            .map(|(read, level)| {
                let dim = level.dimension().max(1);
                match read.var {
                    Some(v) if self.vars[v].tiled => self.tile.min(dim),
                    _ => dim,
                }
            })
            .collect()
    }

    /// The per-level tile key of cut `cut` under the tile tuple `tuple`
    /// (indices into [`Schedule::tuple_space`]), written into a reused
    /// buffer: a tiled run calls this for every tensor of every tuple.
    pub(crate) fn tile_key_into(&self, cut: usize, tuple: &[usize], out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.cuts[cut].levels.iter().map(|read| read.var.map_or(0, |v| tuple[v] as u32)));
    }
}

/// The schedule of `plan`'s kernel over `inputs`, at `tile` coordinates per
/// tiled variable.
pub(crate) fn tile_schedule(plan: &Plan, inputs: &Inputs, tile: usize) -> Schedule {
    let tile = tile.max(1);
    let n = plan.graph().len();

    let mut req: Requires = vec![BTreeSet::new(); plan.readers().len()];
    // Each index variable's number, given the first time a scanner or
    // locator names it, and its dimension.
    let mut numbers: BTreeMap<char, usize> = BTreeMap::new();
    let mut dims: Vec<usize> = Vec::new();
    // Per tensor position, its storage levels as they are read.
    let mut cut_levels: BTreeMap<usize, Vec<CutLevel>> = BTreeMap::new();

    for &id in plan.order() {
        let input = |slot| in_req(plan, &req, id, slot);
        let r = match plan.node(id).op {
            Op::Transfer(
                Transfer::Scan { tensor, level: depth, index, .. }
                | Transfer::Locate { tensor, level: depth, index },
            ) => {
                let bound = inputs.at(tensor);
                let level = bound.level(depth);
                let var = *numbers.entry(index).or_insert_with(|| {
                    dims.push(level.dimension());
                    dims.len() - 1
                });
                let levels = cut_levels
                    .entry(tensor)
                    .or_insert_with(|| vec![CutLevel::default(); bound.levels().len()]);
                levels[depth].var = Some(var);
                levels[depth].reader.get_or_insert(id);
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
    // A plan gives every written variable a scanner or locator that
    // introduces it (`unknown-dimension`), so each one is numbered.
    let writer_vars: Vec<usize> = writers
        .iter()
        .filter_map(|w| match plan.node(*w).op {
            Op::Transfer(Transfer::WriteLevel { index, .. }) => numbers.get(&index).copied(),
            _ => None,
        })
        .collect();
    // What every level writer's coordinate stream requires.
    let skip: BTreeSet<usize> =
        writers.iter().map(|&w| in_req(plan, &req, w, 0)).reduce(|a, b| &a & &b).unwrap_or_default();

    let vars = dims.into_iter().enumerate().map(|(v, dim)| {
        let tiled = contraction_tileable || writer_vars.contains(&v);
        Var { dim, grid: if tiled { dim.div_ceil(tile) } else { 1 }, tiled }
    });
    let cuts =
        cut_levels.into_iter().map(|(tensor, levels)| Cut { tensor, skips: skip.contains(&tensor), levels });
    Schedule { tile, vars: vars.collect(), cuts: cuts.collect(), writer_vars }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanError;
    use custard::graphs::{self, SpmmDataflow};
    use sam_core::graph::SamGraph;
    use sam_tensor::{synth, TensorFormat};

    fn schedule(graph: &SamGraph, inputs: &Inputs) -> Result<(Plan, Schedule), PlanError> {
        Plan::build(graph, inputs).map(|plan| {
            let schedule = tile_schedule(&plan, inputs, 4);
            (plan, schedule)
        })
    }

    /// Which variables are cut into tiles, in traced order.
    fn tiled(s: &Schedule) -> Vec<bool> {
        s.vars.iter().map(|v| v.tiled).collect()
    }

    /// The names of the tensors whose empty tile licenses a skip.
    fn skipping<'p>(plan: &'p Plan, s: &Schedule) -> Vec<&'p str> {
        s.cuts.iter().filter(|c| c.skips).map(|c| plan.binding_name(c.tensor)).collect()
    }

    #[test]
    fn gustavson_spmm_tiles_all_three_vars_and_skips_both_operands() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(20, 16, 0.8, 31);
        let c = synth::random_matrix_sparsity(16, 24, 0.8, 32);
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
        let (plan, s) = schedule(&graphs::spmm(SpmmDataflow::LinearCombination), &inputs)?;
        // Traced order i, k, j; the writers write i and j.
        assert_eq!(s.writer_vars, [0, 2]);
        assert_eq!(tiled(&s), [true; 3]);
        assert_eq!(skipping(&plan, &s), ["B", "C"]);
        assert_eq!(s.vars[1], Var { dim: 16, grid: 4, tiled: true });
        Ok(())
    }

    #[test]
    fn scalar_reduce_with_two_writers_leaves_contraction_untiled() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 33);
        let c = synth::random_matrix_sparsity(10, 12, 0.8, 34);
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsc());
        let (plan, s) = schedule(&graphs::spmm(SpmmDataflow::InnerProduct), &inputs)?;
        // The inner-product k, traced last, must stay untiled.
        assert_eq!(tiled(&s), [true, true, false]);
        assert_eq!(s.vars[2], Var { dim: 10, grid: 1, tiled: false });
        // Only B's emptiness reaches every writer.
        assert_eq!(skipping(&plan, &s), ["B"]);
        Ok(())
    }

    #[test]
    fn spmv_coiteration_skips_only_on_the_matrix() -> Result<(), PlanError> {
        let b = synth::random_matrix_sparsity(12, 10, 0.8, 35);
        let c = synth::random_vector(10, 5, 36);
        let inputs =
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::sparse_vec());
        let (plan, s) = schedule(&graphs::spmv_coiteration(), &inputs)?;
        // Single writer, no dropper: the scalar-reduce contraction (j) may
        // still be tiled.
        assert_eq!(tiled(&s), [true, true]);
        // Skipping on the (explicit-zero-producing) vector would drop rows.
        assert_eq!(skipping(&plan, &s), ["B"]);
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
        let (plan, s) = schedule(&graphs::sddmm_coiteration(), &inputs)?;
        assert_eq!(skipping(&plan, &s), ["B"]);
        // Scalar reduce with two writers: k stays untiled, i and j tile.
        assert_eq!(tiled(&s), [true, true, false]);
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
        // Outer-product dataflow: B is DCSC, so storage order is (k, i),
        // and k is traced first.
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsc()).coo("C", &c, TensorFormat::dcsr());
        let (plan, s) = schedule(&graphs::spmm(SpmmDataflow::OuterProduct), &inputs)?;
        // B's level 0 iterates k, level 1 iterates i.
        assert_eq!(plan.binding_name(s.cuts[0].tensor), "B");
        assert_eq!(s.cuts[0].levels.iter().map(|l| l.var).collect::<Vec<_>>(), [Some(0), Some(1)]);
        // Tile 3 along k, tile 2 along i.
        let mut key = Vec::new();
        s.tile_key_into(0, &[3, 2, 0], &mut key);
        assert_eq!(key, vec![3, 2]);
        Ok(())
    }
}

/// `tests/tiling_pins.rs` holds what the graph-side derivation this module
/// replaced produced, and is written against the public API, which cannot
/// reach `tile_schedule`; compiled here a second time, its constants check
/// the derivation field for field, printed as the pins are: each derived
/// binding position as its name, each variable number as its `char`.
#[cfg(test)]
mod tiling_pins {
    use crate as sam_exec;
    include!("../tests/tiling_pins.rs");

    /// `schedule` as the pins print it. A variable's `char` is the one the
    /// scanner or locator that first names it in plan order carries.
    fn print(plan: &Plan, schedule: &super::Schedule) -> Printed {
        use crate::plan::{Op, Transfer};
        let mut chars: Vec<char> = Vec::new();
        for &id in plan.order() {
            if let Op::Transfer(Transfer::Scan { index, .. } | Transfer::Locate { index, .. }) =
                plan.node(id).op
            {
                if !chars.contains(&index) {
                    chars.push(index);
                }
            }
        }
        assert_eq!(chars.len(), schedule.vars.len());
        let name = |tensor| plan.binding_name(tensor).to_string();
        Printed {
            vars: schedule.vars.iter().zip(&chars).map(|(v, &c)| (c, v.dim, v.grid, v.tiled)).collect(),
            tensors: schedule
                .cuts
                .iter()
                .map(|cut| (name(cut.tensor), cut.levels.iter().map(|l| l.var.map(|v| chars[v])).collect()))
                .collect(),
            output_vars: schedule.writer_vars.iter().map(|&v| chars[v]).collect(),
            skip_tensors: schedule.cuts.iter().filter(|c| c.skips).map(|c| name(c.tensor)).collect(),
        }
    }

    #[test]
    fn the_derivation_reproduces_every_pinned_schedule() -> Result<(), sam_exec::PlanError> {
        for (pin, (name, graph, inputs)) in PINS.iter().zip(fixtures()) {
            let plan = Plan::build(&graph, &inputs)?;
            assert_eq!(print(&plan, &super::tile_schedule(&plan, &inputs, TILE)), pin.printed(), "{name}");
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
