//! Materialization is bit-identical to its definition: summing every entry
//! into a map keyed by its permuted point, in entry order from `0.0`,
//! dropping the sums equal to `0.0`, and building the levels from the map's
//! sorted points. The definition lives here only; `Tensor::from_coo` and
//! `CooTensor::permuted` sort one flat key array instead.

use sam_tensor::level::{BitvectorLevel, CompressedLevel, DenseLevel, Level};
use sam_tensor::{CooTensor, LevelFormat, Tensor, TensorFormat};
use std::collections::BTreeMap;

/// The entries permuted into `mode_order`, summed per point through a map
/// and with the zero sums dropped.
fn map_canonical(coo: &CooTensor, mode_order: &[usize]) -> Vec<(Vec<u32>, f64)> {
    let mut map: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    for (point, value) in coo.entries() {
        let permuted: Vec<u32> = mode_order.iter().map(|&m| point[m]).collect();
        *map.entry(permuted).or_insert(0.0) += value;
    }
    map.into_iter().filter(|(_, v)| *v != 0.0).collect()
}

/// The fibertree of the map's points: each level partitions the points of
/// every parent fiber into child fibers.
fn map_build(name: &str, coo: &CooTensor, format: &TensorFormat) -> Tensor {
    let points = map_canonical(coo, format.mode_order());
    let mut fibers = vec![(0, points.len())];
    let mut levels = Vec::new();
    for (depth, (&fmt, &mode)) in format.levels().iter().zip(format.mode_order()).enumerate() {
        let dim = coo.shape()[mode];
        let mut next = Vec::new();
        // Per fiber, its distinct coordinates, each with its child's range.
        let mut fiber_coords = Vec::new();
        for &(start, end) in &fibers {
            let mut coords = Vec::new();
            let mut cursor = start;
            while cursor < end {
                let c = points[cursor].0[depth];
                let child_start = cursor;
                while cursor < end && points[cursor].0[depth] == c {
                    cursor += 1;
                }
                coords.push((c, child_start, cursor));
            }
            fiber_coords.push(coords);
        }
        let level = match fmt {
            LevelFormat::Dense => {
                for (&(start, _), coords) in fibers.iter().zip(&fiber_coords) {
                    for c in 0..dim as u32 {
                        let child = coords.iter().find(|x| x.0 == c).map_or((start, start), |x| (x.1, x.2));
                        next.push(child);
                    }
                }
                Level::Dense(DenseLevel::new(dim, fibers.len()))
            }
            LevelFormat::Compressed => {
                let mut builder = CompressedLevel::builder(dim);
                for coords in &fiber_coords {
                    for &(c, start, end) in coords {
                        builder.push_coord(c);
                        next.push((start, end));
                    }
                    builder.end_fiber();
                }
                Level::Compressed(builder.finish())
            }
            LevelFormat::Bitvector { word_width } => {
                let lists: Vec<Vec<u32>> = fiber_coords
                    .iter()
                    .map(|coords| {
                        next.extend(coords.iter().map(|&(_, start, end)| (start, end)));
                        coords.iter().map(|x| x.0).collect()
                    })
                    .collect();
                Level::Bitvector(BitvectorLevel::from_fibers(dim, word_width, &lists))
            }
        };
        levels.push(level);
        fibers = next;
    }
    let vals = fibers.iter().map(|&(start, end)| if end > start { points[start].1 } else { 0.0 }).collect();
    Tensor::from_parts(name, coo.shape().to_vec(), format.clone(), levels, vals)
}

/// Field for field, values bit for bit.
fn assert_identical(built: &Tensor, expected: &Tensor, what: &str) {
    assert_eq!(built.name(), expected.name(), "{what}");
    assert_eq!(built.shape(), expected.shape(), "{what}");
    assert_eq!(built.format(), expected.format(), "{what}");
    assert_eq!(built.levels(), expected.levels(), "{what}");
    let bits = |t: &Tensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(built), bits(expected), "{what}");
}

/// A small linear congruential generator: the test needs no more.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// Random entries over `shape`, many on the same few points, with values
/// whose sum depends on the order they are added in (`0.1`, `0.2`, `0.3`),
/// pairs that cancel (`a`, `-a`) and negative zeros.
fn random_coo(shape: &[usize], seed: u64) -> CooTensor {
    const VALUES: [f64; 8] = [0.1, 0.2, 0.3, -1.5, 2.0, -0.0, 1e-300, 7.25];
    let mut rng = Lcg(seed);
    let mut coo = CooTensor::new(shape.to_vec());
    let volume: usize = shape.iter().product();
    for _ in 0..volume / 2 + 3 {
        let point: Vec<u32> = shape.iter().map(|&d| rng.below(d) as u32).collect();
        let value = VALUES[rng.below(VALUES.len())];
        coo.push(&point, value).expect("in bounds");
        match rng.below(4) {
            // Cancelled later, or at once.
            0 => coo.push(&point, -value).expect("in bounds"),
            1 => coo.push(&point, VALUES[rng.below(VALUES.len())]).expect("in bounds"),
            _ => {}
        }
    }
    coo
}

/// Every permutation of `0..order`.
fn permutations(order: usize) -> Vec<Vec<usize>> {
    if order == 0 {
        return vec![Vec::new()];
    }
    let mut all = Vec::new();
    for rest in permutations(order - 1) {
        for at in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(at, order - 1);
            all.push(p);
        }
    }
    all
}

/// Every assignment of dense, compressed and 8- and 64-bit bitvector
/// levels to `order` levels.
fn level_formats(order: usize) -> Vec<Vec<LevelFormat>> {
    let each = [
        LevelFormat::Dense,
        LevelFormat::Compressed,
        LevelFormat::Bitvector { word_width: 8 },
        LevelFormat::Bitvector { word_width: 64 },
    ];
    (0..each.len().pow(order as u32))
        .map(|mut k| {
            (0..order)
                .map(|_| {
                    let f = each[k % each.len()];
                    k /= each.len();
                    f
                })
                .collect()
        })
        .collect()
}

fn check(coo: &CooTensor, what: &str) {
    for mode_order in permutations(coo.order()) {
        let permuted = coo.permuted(&mode_order);
        let expected = map_canonical(coo, &mode_order);
        assert_eq!(permuted.shape(), coo.permuted_shape(&mode_order), "{what} {mode_order:?}");
        let bits = |entries: &[(Vec<u32>, f64)]| {
            entries.iter().map(|(p, v)| (p.clone(), v.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(permuted.entries()), bits(&expected), "{what} permuted {mode_order:?}");
        for levels in level_formats(coo.order()) {
            let format = TensorFormat::with_mode_order(levels, mode_order.clone());
            let what = format!("{what} as {format} {mode_order:?}");
            assert_identical(
                &Tensor::from_coo("T", coo, format.clone()),
                &map_build("T", coo, &format),
                &what,
            );
        }
    }
}

#[test]
fn random_coo_with_duplicates_cancellations_and_negative_zeros() {
    for (seed, shape) in [&[11][..], &[6, 11], &[9, 3], &[3, 9, 5], &[4, 2, 10]].into_iter().enumerate() {
        for round in 0..2 {
            let coo = random_coo(shape, 100 * seed as u64 + round);
            check(&coo, &format!("{shape:?} seed {seed}.{round}"));
        }
    }
}

#[test]
fn sorted_input_skips_the_sort_and_still_sums_duplicates() {
    let mut coo = CooTensor::new(vec![4, 9]);
    for (point, value) in
        [([0, 1], 0.1), ([0, 1], 0.2), ([0, 1], 0.3), ([2, 0], 1.0), ([2, 0], -1.0), ([3, 8], -0.0)]
    {
        coo.push(&point, value).expect("in bounds");
    }
    check(&coo, "sorted");
}

#[test]
fn empty_and_single_entry_coo() {
    for shape in [&[5][..], &[3, 10], &[2, 3, 9]] {
        check(&CooTensor::new(shape.to_vec()), &format!("empty {shape:?}"));
        let mut one = CooTensor::new(shape.to_vec());
        let point: Vec<u32> = shape.iter().map(|&d| d as u32 - 1).collect();
        one.push(&point, 4.5).expect("in bounds");
        check(&one, &format!("single {shape:?}"));
    }
}

/// Past four coordinates a key no longer packs into one integer and the
/// sort compares slices.
#[test]
fn order_five_keys_sort_as_slices() {
    let coo = random_coo(&[2, 3, 2, 3, 2], 7);
    for mode_order in [vec![0, 1, 2, 3, 4], vec![4, 2, 0, 3, 1]] {
        let bits = |entries: &[(Vec<u32>, f64)]| {
            entries.iter().map(|(p, v)| (p.clone(), v.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(coo.permuted(&mode_order).entries()), bits(&map_canonical(&coo, &mode_order)));
        let format = TensorFormat::with_mode_order(vec![LevelFormat::Compressed; 5], mode_order.clone());
        let what = format!("order 5 {mode_order:?}");
        assert_identical(&Tensor::from_coo("T", &coo, format.clone()), &map_build("T", &coo, &format), &what);
    }
}
