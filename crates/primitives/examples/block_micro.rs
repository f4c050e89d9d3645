//! Host cost of the cycle blocks, each a timing shell over a token rule,
//! each alone on the simulator over about 20 k to 200 k preloaded input
//! tokens: a compressed-level scanner, a repeater, an array, an ALU, a
//! scalar, a vector and a matrix reducer, a coordinate dropper, the two
//! writers, an intersecter and a unioner. The array, the ALU and the two
//! writers are one shell, `Lockstep`, over their rules. Prints, per block,
//! the simulated cycles (which a change to a block's host code must leave
//! as they are) and the median host nanoseconds per input token over
//! `REPS` runs.
//!
//! ```sh
//! cargo run --release -p sam-primitives --example block_micro
//! ```

use sam_primitives::writer::{level_sink, val_sink};
use sam_primitives::{
    alu, level_writer, val_array, val_writer, AluOp, CoordDropper, Intersecter, LevelScanner, Reducer,
    Repeater, Unioner,
};
use sam_sim::payload::tok;
use sam_sim::{Block, ChannelId, SimToken, Simulator};
use sam_tensor::level::{CompressedLevel, Level};
use std::sync::Arc;
use std::time::Instant;

/// Runs per block; the median is reported.
const REPS: usize = 15;
/// Inner fibers per stream.
const FIBERS: usize = 12_500;

/// A fixed linear congruential generator: the same streams on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, below: u32) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % below as u64) as u32
    }
}

/// Fibers of 0–14 increasing coordinates below 64, closed by `stop(0)`,
/// every 16th by `stop(1)`; the coordinate stream, and a value stream of the
/// same shape whose every fifth value is zero.
fn fibers(rng: &mut Lcg) -> (Vec<SimToken>, Vec<SimToken>) {
    let (mut crd, mut val) = (Vec::new(), Vec::new());
    for f in 0..FIBERS {
        let mut c = 0;
        for _ in 0..rng.next(8) * 2 {
            c += 1 + rng.next(4);
            crd.push(tok::crd(c));
            val.push(tok::val(if rng.next(5) == 0 { 0.0 } else { f64::from(c) }));
        }
        let stop = tok::stop(u8::from(f % 16 == 15 || f + 1 == FIBERS));
        crd.push(stop);
        val.push(stop);
    }
    crd.push(tok::done());
    val.push(tok::done());
    (crd, val)
}

/// The outer coordinate stream of `inner`: one coordinate per inner fiber,
/// `stop(0)` where the inner stream closes a level-1 fiber.
fn outer_of(inner: &[SimToken]) -> Vec<SimToken> {
    let mut outer = Vec::new();
    let mut next = 0;
    for t in inner {
        match t.stop_level() {
            Some(level) => {
                outer.push(tok::crd(next));
                next += 1;
                if level > 0 {
                    outer.push(tok::stop(level - 1));
                }
            }
            None if t.is_done() => outer.push(tok::done()),
            None => {}
        }
    }
    outer
}

/// `stream`, a stream of [`fibers`]' shape, with every 16th `stop(1)` and
/// the last raised to `stop(2)`: for an order-2 reducer, a reduced fiber
/// closed every 256 inner fibers and at the end.
fn reduced(stream: &[SimToken]) -> Vec<SimToken> {
    let mut closed = 0;
    let mut raised: Vec<SimToken> = stream
        .iter()
        .map(|&t| {
            if t.stop_level() == Some(1) {
                closed += 1;
                if closed % 16 == 0 {
                    return tok::stop(2);
                }
            }
            t
        })
        .collect();
    let last = raised.len() - 2;
    raised[last] = tok::stop(2);
    raised
}

/// Times one block over `inputs`, returning its cycles and the median
/// nanoseconds per input token.
fn time(
    inputs: &[Vec<SimToken>],
    outputs: usize,
    block: impl Fn(&[ChannelId], &[ChannelId]) -> Box<dyn Block>,
) -> (u64, f64) {
    let tokens: usize = inputs.iter().map(Vec::len).sum();
    let mut runs = Vec::with_capacity(REPS);
    let mut cycles = 0;
    for _ in 0..REPS {
        let mut sim = Simulator::new();
        let ins: Vec<_> = (0..inputs.len()).map(|k| sim.add_channel(format!("in{k}"))).collect();
        let outs: Vec<_> = (0..outputs).map(|k| sim.add_channel(format!("out{k}"))).collect();
        for (&ch, stream) in ins.iter().zip(inputs) {
            sim.preload(ch, stream.iter().copied());
        }
        sim.add_block(block(&ins, &outs));
        let start = Instant::now();
        cycles = sim.run(u64::MAX).expect("the block finishes").cycles;
        runs.push(start.elapsed().as_nanos() as f64 / tokens as f64);
    }
    runs.sort_by(f64::total_cmp);
    (cycles, runs[REPS / 2])
}

/// The compressed level whose fibers are those of `inner`, a coordinate
/// stream of [`fibers`]' shape.
fn level_of(inner: &[SimToken]) -> Level {
    let mut level = CompressedLevel::builder(64);
    for t in inner {
        match t.value() {
            Some(p) => level.push_coord(p.expect_crd()),
            None if t.is_stop() => level.end_fiber(),
            None => {}
        }
    }
    Level::Compressed(level.finish())
}

/// `stream` with every coordinate turned into a reference to it.
fn as_refs(stream: &[SimToken]) -> Vec<SimToken> {
    stream.iter().map(|t| t.value().map_or(*t, |p| tok::rf(p.expect_crd()))).collect()
}

fn main() {
    let (crd, val) = fibers(&mut Lcg(34));
    // The ALU needs two value streams of one shape.
    let b: Vec<SimToken> =
        val.iter().map(|t| if t.is_stop() || t.is_done() { *t } else { tok::val(2.0) }).collect();
    let outer = outer_of(&crd);

    println!("block            in_tokens     cycles   ns/token");
    let report = |name: &str, inputs: &[Vec<SimToken>], (cycles, ns): (u64, f64)| {
        let tokens: usize = inputs.iter().map(Vec::len).sum();
        println!("{name:<16} {tokens:>9} {cycles:>10} {ns:>10.2}");
    };
    // The scanner reads one reference per fiber of its level and rebuilds
    // `crd`; the repeater repeats that reference over each fiber of `crd`.
    let level = Arc::new(level_of(&crd));
    let fiber_refs = as_refs(&outer);
    let scan_in = [fiber_refs.clone()];
    report(
        "scanner",
        &scan_in,
        time(&scan_in, 2, |i, o| Box::new(LevelScanner::new("scan", level.clone(), i[0], o[0], o[1]))),
    );
    let repeat_in = [crd.clone(), fiber_refs];
    report(
        "repeater",
        &repeat_in,
        time(&repeat_in, 1, |i, o| Box::new(Repeater::new("repeat", i[0], i[1], o[0]))),
    );
    let refs = as_refs(&crd);
    let load_in = [refs.clone()];
    let vals: Arc<[f64]> = (0..64).map(f64::from).collect();
    report(
        "array",
        &load_in,
        time(&load_in, 1, |i, o| Box::new(val_array("array", vals.clone(), i[0], o[0]))),
    );
    let alu_in = [val.clone(), b];
    report("alu", &alu_in, time(&alu_in, 1, |i, o| Box::new(alu("alu", AluOp::Mul, [i[0], i[1]], o[0]))));
    let sum_in = [val.clone()];
    report(
        "scalar_reducer",
        &sum_in,
        time(&sum_in, 1, |i, o| Box::new(Reducer::<0>::new("sum", [], i[0], [], o[0]))),
    );
    let crd_in = [crd.clone()];
    report(
        "level_writer",
        &crd_in,
        time(&crd_in, 0, |i, _| Box::new(level_writer("write", 64, i[0], level_sink()))),
    );
    report("val_writer", &sum_in, time(&sum_in, 0, |i, _| Box::new(val_writer("vals", i[0], val_sink()))));
    let red_in = [crd.clone(), val.clone()];
    report(
        "vector_reducer",
        &red_in,
        time(&red_in, 2, |i, o| Box::new(Reducer::<1>::new("red", [i[0]], i[1], [o[0]], o[1]))),
    );
    // The matrix reducer sums outer products: 64 outer coordinates, each
    // the outer coordinate of every 64th inner fiber, and a reduced fiber
    // of 16 outer fibers (256 inner fibers) flushed at each `stop(2)`.
    let (cells_crd, cells_val) = (reduced(&crd), reduced(&val));
    let outer_cells: Vec<SimToken> = outer_of(&cells_crd)
        .iter()
        .map(|t| t.value().map_or(*t, |p| tok::crd(p.expect_crd() % 64)))
        .collect();
    let cells_in = [outer_cells, cells_crd, cells_val];
    report(
        "matrix_reducer",
        &cells_in,
        time(&cells_in, 3, |i, o| {
            Box::new(Reducer::<2>::new("cells", [i[0], i[1]], i[2], [o[0], o[1]], o[2]))
        }),
    );
    let drop_in = [outer, val];
    report(
        "dropper",
        &drop_in,
        time(&drop_in, 2, |i, o| Box::new(CoordDropper::new("drop", i[0], i[1], o[0], o[1]))),
    );
    // A second operand of the same fiber structure.
    let (other, _) = fibers(&mut Lcg(35));
    let merge_in = [crd, other.clone(), refs, as_refs(&other)];
    report(
        "intersecter",
        &merge_in,
        time(&merge_in, 3, |i, o| {
            Box::new(Intersecter::new("intersect", [i[0], i[1]], [i[2], i[3]], o[0], [o[1], o[2]]))
        }),
    );
    report(
        "unioner",
        &merge_in,
        time(&merge_in, 3, |i, o| {
            Box::new(Unioner::new("union", [i[0], i[1]], [i[2], i[3]], o[0], [o[1], o[2]]))
        }),
    );
}
