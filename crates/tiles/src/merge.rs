//! The tile-merge reducer: accumulates per-tile partial outputs into one
//! global result tensor.
//!
//! Each executed tile yields its output writers' levels and values, in
//! local (rebased) coordinates. [`TileMerger::absorb`] walks those levels,
//! offsets every stored point back into the global coordinate space and
//! appends it to a flat log; [`TileMerger::finish`] orders the log with a
//! stable radix sort — one counting pass per 16-bit digit of each level's
//! coordinates, innermost level and lowest digit first — and *adds*
//! colliding values: tiles along contraction variables produce partial
//! sums for the same output point, tiles along output variables land in
//! disjoint windows. Every pass is stable, so the partial sums of one point
//! associate in the order their tiles were absorbed. Explicit zeros are
//! kept (a stored entry with value `0.0` stays a stored entry), so the
//! rebuilt output is structurally identical to what an untiled run writes.
//!
//! [`TileMerger::finish`] rebuilds the canonical CSF form the executor's
//! output assembly produces: level 0 holds one fiber of all outermost
//! coordinates, and every deeper level holds one fiber per parent entry.

use sam_tensor::level::{CompressedLevel, CompressedLevelBuilder, Level};
use sam_tensor::{Tensor, TensorFormat};
use std::ops::Range;

/// Logs tile outputs by global output coordinates, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct TileMerger {
    /// Levels per absorbed tile (zero until the first one).
    order: usize,
    /// `order` global coordinates per logged entry.
    coords: Vec<u32>,
    /// One value per logged entry.
    vals: Vec<f64>,
    /// The global coordinates of the path being logged, one per level.
    path: Vec<u32>,
}

/// Bits of a coordinate one radix pass orders by.
const DIGIT_BITS: u32 = 16;

impl TileMerger {
    /// An empty merger.
    pub fn new() -> TileMerger {
        TileMerger::default()
    }

    /// Adds one tile's output: its writers' `levels`, outermost first, and
    /// their `vals`. `offsets` holds the global origin of the tile's window,
    /// one per output level. The levels must form one tree — every level
    /// below the first holds one fiber per entry of the level above it, and
    /// `vals` one value per entry of the last — as the executor checks
    /// before it hands a tile over. Stored entries are logged including
    /// explicit zeros.
    ///
    /// # Panics
    ///
    /// Panics if the tile's order differs from `offsets.len()` or from the
    /// tiles absorbed before it, or if its levels do not form one tree.
    pub fn absorb(&mut self, levels: &[CompressedLevel], vals: &[f64], offsets: &[u32]) {
        assert_eq!(offsets.len(), levels.len(), "one offset per output level");
        if self.vals.is_empty() {
            self.order = offsets.len();
        }
        assert_eq!(offsets.len(), self.order, "the tiles of one merge share one order");
        let Some(root) = levels.first() else { return };
        self.coords.reserve(vals.len() * self.order);
        self.path.resize(self.order, 0);
        self.log(levels, offsets, 0, 0..root.crd.len());
        // A tree's depth-first walk reaches its leaves in storage order.
        self.vals.extend_from_slice(vals);
        assert_eq!(self.coords.len(), self.vals.len() * self.order, "the tile's levels form one tree");
    }

    /// Logs the coordinates of every leaf below `entries` of level `depth`,
    /// below the path `self.path[..depth]`.
    fn log(&mut self, levels: &[CompressedLevel], offsets: &[u32], depth: usize, entries: Range<usize>) {
        let (level, offset) = (&levels[depth], offsets[depth]);
        if depth + 1 == levels.len() {
            for &c in &level.crd[entries] {
                self.coords.extend_from_slice(&self.path[..depth]);
                self.coords.push(c + offset);
            }
        } else {
            let below = &levels[depth + 1].seg;
            for p in entries {
                self.path[depth] = level.crd[p] + offset;
                self.log(levels, offsets, depth + 1, below[p]..below[p + 1]);
            }
        }
    }

    /// The logged entries in point order, the entries of one point in
    /// arrival order: a least-significant-digit radix sort, one stable
    /// counting pass per [`DIGIT_BITS`]-bit digit of each level's
    /// coordinates, innermost level and lowest digit first. A digit no
    /// coordinate of its level reaches needs no pass.
    fn sorted(&self) -> Vec<u32> {
        let (order, n) = (self.order, self.vals.len());
        assert!(u32::try_from(n).is_ok(), "a merge logs fewer than 2^32 entries");
        let mut sorted: Vec<u32> = (0..n as u32).collect();
        let mut next = vec![0u32; n];
        let mut starts: Vec<usize> = Vec::new();
        for level in (0..order).rev() {
            let coord = |i: u32| self.coords[i as usize * order + level];
            let max = self.coords.iter().skip(level).step_by(order).copied().max().unwrap_or(0);
            let mut shift = 0;
            while shift < u32::BITS && max >> shift > 0 {
                let digit = |i: u32| (coord(i) >> shift & ((1 << DIGIT_BITS) - 1)) as usize;
                starts.clear();
                starts.resize((max >> shift).min((1 << DIGIT_BITS) - 1) as usize + 1, 0);
                for &i in &sorted {
                    starts[digit(i)] += 1;
                }
                let mut start = 0;
                for slot in &mut starts {
                    (*slot, start) = (start, start + *slot);
                }
                for &i in &sorted {
                    let slot = &mut starts[digit(i)];
                    next[*slot] = i;
                    *slot += 1;
                }
                std::mem::swap(&mut sorted, &mut next);
                shift += DIGIT_BITS;
            }
        }
        sorted
    }

    /// Rebuilds the merged output as a canonical CSF tensor of `shape`
    /// (plus the flat values array, in storage order) — the same form the
    /// untiled executor assembles, so equal runs compare bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or its length differs from the order of
    /// the absorbed tiles.
    pub fn finish(self, name: &str, shape: Vec<usize>) -> (Tensor, Vec<f64>) {
        let order = shape.len();
        assert!(order > 0, "merged outputs need at least one level");
        assert!(self.vals.is_empty() || self.order == order, "the merged tiles have the output's order");
        let point = |i: u32| &self.coords[i as usize * order..][..order];
        let sorted = self.sorted();

        let mut builders: Vec<CompressedLevelBuilder> =
            shape.iter().map(|&dim| CompressedLevel::builder(dim)).collect();
        let mut vals: Vec<f64> = Vec::new();
        let mut prev: Option<&[u32]> = None;
        for same_point in sorted.chunk_by(|&a, &b| point(a) == point(b)) {
            let p = point(same_point[0]);
            // The point leaves its predecessor's path at level `split`: the
            // fibers below that level close, and it is a new entry from
            // there down.
            let split = prev.map_or(0, |q| p.iter().zip(q).take_while(|(a, b)| a == b).count());
            if prev.is_some() {
                builders[split + 1..].iter_mut().for_each(CompressedLevelBuilder::end_fiber);
            }
            for (builder, &c) in builders[split..].iter_mut().zip(&p[split..]) {
                builder.push_coord(c);
            }
            vals.push(same_point.iter().fold(0.0, |sum, &i| sum + self.vals[i as usize]));
            prev = Some(p);
        }
        // The root level always holds exactly one fiber (possibly empty);
        // deeper levels hold one fiber per parent entry.
        let closing = if prev.is_some() { order } else { 1 };
        builders[..closing].iter_mut().for_each(CompressedLevelBuilder::end_fiber);
        let levels = builders.into_iter().map(|b| Level::Compressed(b.finish())).collect();
        let tensor = Tensor::from_parts(name, shape, TensorFormat::csf(order), levels, vals.clone());
        (tensor, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::for_each_stored;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sam_tensor::CooTensor;
    use std::collections::BTreeMap;

    fn tile(name: &str, shape: Vec<usize>, entries: Vec<(Vec<u32>, f64)>) -> Tensor {
        let coo = CooTensor::from_entries(shape.clone(), entries).unwrap();
        Tensor::from_coo(name, &coo, TensorFormat::csf(shape.len()))
    }

    /// Hands `m` the levels and values of `tile`, a CSF tensor, as the
    /// executor hands it a tile tuple's writers' output.
    fn absorb(m: &mut TileMerger, tile: &Tensor, offsets: &[u32]) {
        let levels: Vec<CompressedLevel> = tile
            .levels()
            .iter()
            .filter_map(|level| match level {
                Level::Compressed(level) => Some(level.clone()),
                _ => None,
            })
            .collect();
        m.absorb(&levels, tile.vals(), offsets);
    }

    #[test]
    fn disjoint_tiles_concatenate() {
        let mut m = TileMerger::new();
        absorb(&mut m, &tile("X", vec![2, 2], vec![(vec![0, 1], 1.0), (vec![1, 0], 2.0)]), &[0, 0]);
        absorb(&mut m, &tile("X", vec![2, 2], vec![(vec![0, 0], 3.0)]), &[2, 2]);
        let (out, vals) = m.finish("X", vec![4, 4]);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        assert_eq!(out.get(&[0, 1]), 1.0);
        assert_eq!(out.get(&[1, 0]), 2.0);
        assert_eq!(out.get(&[2, 2]), 3.0);
        // Canonical CSF: one root fiber, one level-1 fiber per row entry.
        let Level::Compressed(l0) = out.level(0) else { panic!("compressed") };
        assert_eq!(l0.seg, vec![0, 3]);
        assert_eq!(l0.crd, vec![0, 1, 2]);
        let Level::Compressed(l1) = out.level(1) else { panic!("compressed") };
        assert_eq!(l1.seg, vec![0, 1, 2, 3]);
    }

    #[test]
    fn contraction_tiles_accumulate() {
        let mut m = TileMerger::new();
        absorb(&mut m, &tile("x", vec![3], vec![(vec![1], 2.0)]), &[0]);
        absorb(&mut m, &tile("x", vec![3], vec![(vec![1], 3.0), (vec![2], -3.0)]), &[0]);
        let (out, vals) = m.finish("x", vec![3]);
        assert_eq!(vals, vec![5.0, -3.0]);
        assert_eq!(out.get(&[1]), 5.0);
        assert_eq!(out.get(&[2]), -3.0);
    }

    #[test]
    fn explicit_zero_sums_stay_stored() {
        let mut m = TileMerger::new();
        absorb(&mut m, &tile("x", vec![2], vec![(vec![0], 2.0)]), &[0]);
        absorb(&mut m, &tile("x", vec![2], vec![(vec![0], -2.0)]), &[0]);
        let (out, vals) = m.finish("x", vec![2]);
        assert_eq!(vals, vec![0.0]);
        let Level::Compressed(l0) = out.level(0) else { panic!("compressed") };
        assert_eq!(l0.crd, vec![0], "a zero-valued sum keeps its coordinate");
    }

    /// The keyed accumulator [`TileMerger`] replaced, kept as its reference.
    fn merge_via_map(tiles: &[(Tensor, Vec<u32>)]) -> (Vec<Vec<u32>>, Vec<f64>) {
        let mut acc: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (tile, offsets) in tiles {
            for_each_stored(tile, |point, v| {
                let global: Vec<u32> = point.iter().zip(offsets).map(|(&c, &o)| c + o).collect();
                *acc.entry(global).or_insert(0.0) += v;
            });
        }
        acc.into_iter().unzip()
    }

    #[test]
    fn random_colliding_tiles_match_the_keyed_accumulator_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x3e26e);
        for case in 0..80 {
            let order = 1 + case % 4;
            // Every other round of the four orders puts each level's origins
            // past 2^16, so global coordinates need more than 16 bits.
            let bases: Vec<u32> = (0..order)
                .map(|_| if (case / 4) % 2 == 1 { (1 << 16) + rng.gen_range(0u32..1 << 20) } else { 0 })
                .collect();
            // Tiles of 3 coordinates a level at one of two origins a level:
            // most points are hit by several tiles.
            let tiles: Vec<(Tensor, Vec<u32>)> = (0..rng.gen_range(1usize..9))
                .map(|_| {
                    let entries = (0..rng.gen_range(0usize..12))
                        .map(|_| {
                            let point = (0..order).map(|_| rng.gen_range(0u32..3)).collect();
                            // Magnitudes far apart: another association rounds differently.
                            let magnitude = 10f64.powi(rng.gen_range(0u32..17) as i32 - 8);
                            (point, (rng.gen::<f64>() - 0.5) * magnitude)
                        })
                        .collect();
                    let offsets = bases.iter().map(|&base| base + 2 * rng.gen_range(0u32..2)).collect();
                    (tile("X", vec![3; order], entries), offsets)
                })
                .collect();
            let mut m = TileMerger::new();
            for (tile, offsets) in &tiles {
                absorb(&mut m, tile, offsets);
            }
            let (out, vals) = m.finish("X", bases.iter().map(|&base| base as usize + 5).collect());
            let (points, expect) = merge_via_map(&tiles);
            let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&vals), bits(&expect), "case {case}");
            assert_eq!(bits(out.vals()), bits(&expect), "case {case}");
            let mut stored = Vec::new();
            for_each_stored(&out, |point, _| stored.push(point.to_vec()));
            assert_eq!(stored, points, "case {case}");
            for d in 1..order {
                assert_eq!(out.level(d).num_fibers(), out.level(d - 1).num_children(), "case {case}");
            }
        }
    }

    #[test]
    fn partial_sums_associate_in_arrival_order() {
        let mut m = TileMerger::new();
        for v in [1e16, 1.0, -1e16] {
            absorb(&mut m, &tile("x", vec![2], vec![(vec![1], v)]), &[0]);
        }
        // (1e16 + 1.0) - 1e16 in arrival order; a sum that cancels the large
        // pair first gives 1.0.
        assert_eq!(m.finish("x", vec![2]).1, vec![0.0]);
    }

    #[test]
    fn a_lone_negative_zero_comes_out_positive() {
        let negative_zero = Tensor::from_parts(
            "x",
            vec![2],
            TensorFormat::csf(1),
            tile("x", vec![2], vec![(vec![1], 1.0)]).levels().to_vec(),
            vec![-0.0],
        );
        let mut m = TileMerger::new();
        absorb(&mut m, &negative_zero, &[0]);
        let (_, vals) = m.finish("x", vec![2]);
        // Every point's sum starts from +0.0, as the keyed accumulator's did.
        assert_eq!(vals[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "the tiles of one merge share one order")]
    fn mixed_order_tiles_are_rejected_cleanly() {
        let mut m = TileMerger::new();
        absorb(&mut m, &tile("X", vec![2, 2], vec![(vec![0, 1], 1.0)]), &[0, 0]);
        absorb(&mut m, &tile("x", vec![2], vec![(vec![1], 1.0)]), &[0]);
    }

    #[test]
    fn empty_merge_builds_an_empty_fiber() {
        let (out, vals) = TileMerger::new().finish("x", vec![5]);
        assert!(vals.is_empty());
        let Level::Compressed(l0) = out.level(0) else { panic!("compressed") };
        assert_eq!(l0.seg, vec![0, 0]);
        assert!(l0.crd.is_empty());
    }
}
