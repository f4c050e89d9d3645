//! Bitvector stream blocks (paper Section 4.3).
//!
//! Bitvectors trade asymptotic efficiency for implicit parallelism: an
//! `n`-bit word covering `n` coordinates is processed in a single cycle.
//! This module provides the bitvector level scanner, a word-wise
//! intersecter, and vectorized value units for the element-wise
//! vector-multiply study of Figure 13 (flat bitvector and two-level
//! bit-tree variants).
//!
//! The vectorized value units are monolithic blocks the graph IR cannot name
//! yet, so Figure 13's two bitvector configurations are the one place a
//! simulator is still wired by hand: [`bitvector_vec_mul`] and
//! [`bit_tree_vec_mul`]. Every other paper kernel is a `custard::graphs`
//! graph run through `sam-exec`.

use crate::source::root_stream;
use sam_sim::payload::{tok, Payload};
use sam_sim::{Block, BlockStatus, ChannelId, Context, SimulationError, Simulator};
use sam_streams::{BitVec, Token};
use sam_tensor::level::{BitvectorLevel, Level};
use sam_tensor::{CooTensor, LevelFormat, Tensor, TensorFormat};
use std::sync::{Arc, Mutex};

/// Scans a [`BitvectorLevel`], emitting one bitvector word per cycle plus a
/// reference stream of popcount-summed base positions (Section 4.3).
#[derive(Debug)]
pub struct BitvectorScanner {
    name: String,
    level: Arc<BitvectorLevel>,
    in_ref: ChannelId,
    out_bits: ChannelId,
    out_ref: ChannelId,
    current: Option<(usize, usize, usize)>, // (fiber, next word index, running rank)
    done: bool,
}

impl BitvectorScanner {
    /// Creates a bitvector level scanner.
    pub fn new(
        name: impl Into<String>,
        level: Arc<BitvectorLevel>,
        in_ref: ChannelId,
        out_bits: ChannelId,
        out_ref: ChannelId,
    ) -> Self {
        BitvectorScanner { name: name.into(), level, in_ref, out_bits, out_ref, current: None, done: false }
    }
}

impl Block for BitvectorScanner {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        if let Some((fiber, word_idx, rank)) = self.current {
            let words = self.level.fiber_words(fiber);
            if word_idx < words.len() {
                let word = words[word_idx];
                let bv = BitVec {
                    base: (word_idx * self.level.word_width as usize) as u32,
                    width: self.level.word_width,
                    bits: word,
                };
                ctx.push(self.out_bits, tok::bits(bv));
                ctx.push(self.out_ref, tok::rf(rank as u32));
                self.current = Some((fiber, word_idx + 1, rank + word.count_ones() as usize));
            } else {
                ctx.push(self.out_bits, tok::stop(0));
                ctx.push(self.out_ref, tok::stop(0));
                self.current = None;
            }
            return BlockStatus::Busy;
        }
        let Some(t) = ctx.peek(self.in_ref).cloned() else {
            return ctx.stall();
        };
        ctx.pop(self.in_ref);
        match t {
            Token::Val(p) => {
                let fiber = p.expect_ref() as usize;
                self.current = Some((fiber, 0, self.level.fiber_rank_base(fiber)));
                BlockStatus::Busy
            }
            Token::Empty => {
                ctx.push(self.out_bits, tok::stop(0));
                ctx.push(self.out_ref, tok::stop(0));
                BlockStatus::Busy
            }
            Token::Stop(n) => {
                ctx.push(self.out_bits, tok::stop(n + 1));
                ctx.push(self.out_ref, tok::stop(n + 1));
                BlockStatus::Busy
            }
            Token::Done => {
                ctx.push(self.out_bits, tok::done());
                ctx.push(self.out_ref, tok::done());
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

/// Word-wise bitvector intersecter: ANDs aligned words from two bitvector
/// streams, passing each operand's base-rank reference through for value
/// gathering.
#[derive(Debug)]
pub struct BitvectorIntersecter {
    name: String,
    in_bits: [ChannelId; 2],
    in_ref: [ChannelId; 2],
    out_bits: ChannelId,
    out_pairs: ChannelId,
    done: bool,
}

impl BitvectorIntersecter {
    /// Creates a bitvector intersecter. `out_pairs` carries, for each word,
    /// first operand 0's word/ref pair then operand 1's (two tokens per
    /// intersected word are not needed — the intersected word plus both base
    /// ranks are folded into the [`BitvectorVecMul`] block in this
    /// implementation, so `out_pairs` carries operand 0's base rank followed
    /// by operand 1's on alternating cycles).
    pub fn new(
        name: impl Into<String>,
        in_bits: [ChannelId; 2],
        in_ref: [ChannelId; 2],
        out_bits: ChannelId,
        out_pairs: ChannelId,
    ) -> Self {
        BitvectorIntersecter { name: name.into(), in_bits, in_ref, out_bits, out_pairs, done: false }
    }
}

impl Block for BitvectorIntersecter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let (Some(a), Some(b)) = (ctx.peek(self.in_bits[0]).cloned(), ctx.peek(self.in_bits[1]).cloned())
        else {
            return ctx.stall();
        };
        match (a, b) {
            (Token::Val(pa), Token::Val(pb)) => {
                ctx.pop(self.in_bits[0]);
                ctx.pop(self.in_bits[1]);
                let ra = ctx.pop(self.in_ref[0]).expect("aligned refs");
                let rb = ctx.pop(self.in_ref[1]).expect("aligned refs");
                let word = pa.expect_bits().intersect(&pb.expect_bits());
                ctx.push(self.out_bits, tok::bits(word));
                // Fold both base ranks into one token pair on the pairs
                // stream (ranks fit in 16 bits each for the studied sizes).
                let base_a = ra.value().map(|p| p.expect_ref()).unwrap_or(0);
                let base_b = rb.value().map(|p| p.expect_ref()).unwrap_or(0);
                ctx.push(self.out_pairs, tok::rf((base_a << 16) | (base_b & 0xFFFF)));
                BlockStatus::Busy
            }
            (Token::Stop(na), Token::Stop(_)) => {
                ctx.pop(self.in_bits[0]);
                ctx.pop(self.in_bits[1]);
                ctx.pop(self.in_ref[0]);
                ctx.pop(self.in_ref[1]);
                ctx.push(self.out_bits, tok::stop(na));
                ctx.push(self.out_pairs, tok::stop(na));
                BlockStatus::Busy
            }
            (Token::Done, Token::Done) => {
                ctx.pop(self.in_bits[0]);
                ctx.pop(self.in_bits[1]);
                ctx.pop(self.in_ref[0]);
                ctx.pop(self.in_ref[1]);
                ctx.push(self.out_bits, tok::done());
                ctx.push(self.out_pairs, tok::done());
                self.done = true;
                BlockStatus::Done
            }
            _ => BlockStatus::Busy,
        }
    }
}

/// Shared sink collecting `(coordinate, value)` results from the vectorized
/// bitvector value units.
pub type BitResultSink = Arc<Mutex<Vec<(u32, f64)>>>;

/// Creates an empty bitvector result sink.
pub fn bit_result_sink() -> BitResultSink {
    Arc::new(Mutex::new(Vec::new()))
}

/// Vectorized element-wise multiply over an intersected bitvector stream:
/// each cycle one word is processed, with all of its lanes' value reads,
/// multiplies and writes happening in parallel (the implicit-parallelism
/// advantage the paper ascribes to bitvectors).
#[derive(Debug)]
pub struct BitvectorVecMul {
    name: String,
    vals_a: Arc<Vec<f64>>,
    vals_b: Arc<Vec<f64>>,
    level_a: Arc<BitvectorLevel>,
    level_b: Arc<BitvectorLevel>,
    in_bits: ChannelId,
    sink: BitResultSink,
    done: bool,
}

impl BitvectorVecMul {
    /// Creates the vectorized multiply unit. Word-local ranks are recomputed
    /// from the operand levels, modelling per-lane popcount logic.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        level_a: Arc<BitvectorLevel>,
        level_b: Arc<BitvectorLevel>,
        vals_a: Arc<Vec<f64>>,
        vals_b: Arc<Vec<f64>>,
        in_bits: ChannelId,
        sink: BitResultSink,
    ) -> Self {
        BitvectorVecMul { name: name.into(), vals_a, vals_b, level_a, level_b, in_bits, sink, done: false }
    }
}

impl Block for BitvectorVecMul {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let Some(t) = ctx.peek(self.in_bits).cloned() else {
            return ctx.stall();
        };
        ctx.pop(self.in_bits);
        match t {
            Token::Val(Payload::Bits { base, width, bits }) => {
                let word = BitVec { base, width, bits };
                let mut out = self.sink.lock().expect("poisoned sink");
                for c in word.iter_coords() {
                    let (Some(ra), Some(rb)) = (self.level_a.locate(0, c), self.level_b.locate(0, c)) else {
                        continue;
                    };
                    out.push((c, self.vals_a[ra] * self.vals_b[rb]));
                }
                BlockStatus::Busy
            }
            Token::Val(other) => panic!("bitvector multiply expected bits, found {other:?}"),
            Token::Empty | Token::Stop(_) => BlockStatus::Busy,
            Token::Done => {
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

/// Two-level bit-tree element-wise multiply (the paper's "BV w/ split"):
/// an outer occupancy word gates which inner words are fetched and
/// intersected, so fully empty regions cost a single outer-word cycle.
///
/// The block is self-contained: it owns both operands' bit-tree data and
/// walks them one word per cycle, which keeps the model cycle-faithful while
/// avoiding a bespoke multi-protocol stream wiring.
#[derive(Debug)]
pub struct BitTreeVecMul {
    name: String,
    level_a: Arc<BitvectorLevel>,
    level_b: Arc<BitvectorLevel>,
    vals_a: Arc<Vec<f64>>,
    vals_b: Arc<Vec<f64>>,
    out_progress: ChannelId,
    sink: BitResultSink,
    /// Inner word indices that survive the outer intersection.
    work_list: Option<std::collections::VecDeque<usize>>,
    outer_words_processed: usize,
    done: bool,
}

impl BitTreeVecMul {
    /// Creates the bit-tree multiply unit over two single-fiber bitvector
    /// levels. `out_progress` receives one value token per processed word
    /// (the number of products produced that cycle) and a final done token.
    pub fn new(
        name: impl Into<String>,
        level_a: Arc<BitvectorLevel>,
        level_b: Arc<BitvectorLevel>,
        vals_a: Arc<Vec<f64>>,
        vals_b: Arc<Vec<f64>>,
        out_progress: ChannelId,
        sink: BitResultSink,
    ) -> Self {
        BitTreeVecMul {
            name: name.into(),
            level_a,
            level_b,
            vals_a,
            vals_b,
            out_progress,
            sink,
            work_list: None,
            outer_words_processed: 0,
            done: false,
        }
    }
}

impl Block for BitTreeVecMul {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        match &mut self.work_list {
            None => {
                // Build the outer level: one bit per inner word, then
                // intersect. Each 64 inner words cost one outer-word cycle;
                // count them all in this state by charging cycles lazily.
                let wa = self.level_a.fiber_words(0);
                let wb = self.level_b.fiber_words(0);
                let n = wa.len().max(wb.len());
                let outer_words = n.div_ceil(64).max(1);
                if self.outer_words_processed + 1 < outer_words {
                    self.outer_words_processed += 1;
                    ctx.push(self.out_progress, tok::val(0.0));
                    return BlockStatus::Busy;
                }
                ctx.push(self.out_progress, tok::val(0.0));
                let mut work = std::collections::VecDeque::new();
                for i in 0..n {
                    let a = wa.get(i).copied().unwrap_or(0);
                    let b = wb.get(i).copied().unwrap_or(0);
                    if a != 0 && b != 0 {
                        work.push_back(i);
                    }
                }
                self.work_list = Some(work);
                BlockStatus::Busy
            }
            Some(work) => {
                if let Some(word_idx) = work.pop_front() {
                    let a = self.level_a.fiber_words(0)[word_idx];
                    let b = self.level_b.fiber_words(0)[word_idx];
                    let both = a & b;
                    let mut produced = 0u32;
                    if both != 0 {
                        let width = self.level_a.word_width as usize;
                        let mut out = self.sink.lock().expect("poisoned sink");
                        for bit in 0..width {
                            if (both >> bit) & 1 == 1 {
                                let c = (word_idx * width + bit) as u32;
                                if let (Some(ra), Some(rb)) =
                                    (self.level_a.locate(0, c), self.level_b.locate(0, c))
                                {
                                    out.push((c, self.vals_a[ra] * self.vals_b[rb]));
                                    produced += 1;
                                }
                            }
                        }
                    }
                    ctx.push(self.out_progress, tok::val(produced as f64));
                    BlockStatus::Busy
                } else {
                    ctx.push(self.out_progress, tok::done());
                    self.done = true;
                    BlockStatus::Done
                }
            }
        }
    }
}

/// Cycle budget of the hand-wired Figure 13 runs; a vector multiply is
/// bounded by its word count, so this only ever trips on a wiring bug.
const MAX_CYCLES: u64 = 200_000_000;

/// A vector stored as one bitvector level of `width`-bit words, plus its
/// values, in the shared form the blocks take.
fn bitvector_operand(name: &str, coo: &CooTensor, width: u8) -> (Arc<BitvectorLevel>, Arc<Vec<f64>>) {
    let format = TensorFormat::new(vec![LevelFormat::Bitvector { word_width: width }]);
    let tensor = Tensor::from_coo(name, coo, format);
    let Level::Bitvector(level) = tensor.level(0) else { unreachable!("built with a bitvector format") };
    (Arc::new(level.clone()), Arc::new(tensor.vals().to_vec()))
}

/// Reads a finished run's `(coordinate, value)` sink back as a sparse vector.
fn result_vector(sink: &BitResultSink, dim: usize) -> Tensor {
    let entries = sink.lock().expect("poisoned sink").iter().map(|&(c, v)| (vec![c], v)).collect();
    let coo =
        CooTensor::from_entries(vec![dim], entries).expect("products lie inside the operands' dimension");
    Tensor::from_coo("x", &coo, TensorFormat::sparse_vec())
}

/// Figure 13's `BV` configuration of `x(i) = b(i) * c(i)`: both vectors are
/// scanned one `width`-bit word per cycle, intersected word-wise, and every
/// lane of a surviving word is multiplied in parallel. Returns the result
/// vector and the simulated cycle count.
///
/// # Errors
///
/// Propagates the simulator's error if the run does not quiesce.
pub fn bitvector_vec_mul(b: &CooTensor, c: &CooTensor, width: u8) -> Result<(Tensor, u64), SimulationError> {
    let (lb, vb) = bitvector_operand("b", b, width);
    let (lc, vc) = bitvector_operand("c", c, width);
    let mut sim = Simulator::new();
    let [rb, rc, b_bits, b_refs, c_bits, c_refs, inter, pairs] =
        ["b_root", "c_root", "b_bits", "b_refs", "c_bits", "c_refs", "intersected", "pairs"]
            .map(|name| sim.add_channel(name));
    sim.preload(rb, root_stream());
    sim.preload(rc, root_stream());
    let sink = bit_result_sink();
    sim.add_block(Box::new(BitvectorScanner::new("b_scan", lb.clone(), rb, b_bits, b_refs)));
    sim.add_block(Box::new(BitvectorScanner::new("c_scan", lc.clone(), rc, c_bits, c_refs)));
    sim.add_block(Box::new(BitvectorIntersecter::new(
        "bv_int",
        [b_bits, c_bits],
        [b_refs, c_refs],
        inter,
        pairs,
    )));
    sim.add_block(Box::new(BitvectorVecMul::new("bv_mul", lb, lc, vb, vc, inter, sink.clone())));
    let report = sim.run(MAX_CYCLES)?;
    Ok((result_vector(&sink, b.shape()[0]), report.cycles))
}

/// Figure 13's `BV w/ split` configuration: the same multiply on a two-level
/// bit-tree, one [`BitTreeVecMul`] block walking both operands. Returns the
/// result vector and the simulated cycle count.
///
/// # Errors
///
/// Propagates the simulator's error if the run does not quiesce.
pub fn bit_tree_vec_mul(b: &CooTensor, c: &CooTensor, width: u8) -> Result<(Tensor, u64), SimulationError> {
    let (lb, vb) = bitvector_operand("b", b, width);
    let (lc, vc) = bitvector_operand("c", c, width);
    let sink = bit_result_sink();
    let mut sim = Simulator::new();
    let progress = sim.add_channel("progress");
    sim.add_block(Box::new(BitTreeVecMul::new("bt_mul", lb, lc, vb, vc, progress, sink.clone())));
    let report = sim.run(MAX_CYCLES)?;
    Ok((result_vector(&sink, b.shape()[0]), report.cycles))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv_level(coords: &[u32], dim: usize) -> Arc<BitvectorLevel> {
        Arc::new(BitvectorLevel::from_fibers(dim, 64, &[coords.to_vec()]))
    }

    #[test]
    fn bitvector_scanner_emits_words_and_ranks() {
        // Coordinates 0, 2, 6, 8, 9 over dimension 12 with 4-bit words:
        // words 0101, 0100, 0011 and popcount-summed refs 0, 2, 3 (paper
        // Section 4.3 example).
        let level = Arc::new(BitvectorLevel::from_fibers(12, 4, &[vec![0, 2, 6, 8, 9]]));
        let mut sim = Simulator::new();
        let root = sim.add_channel("root");
        let bits = sim.add_channel("bits");
        let refs = sim.add_channel("refs");
        sim.record(bits);
        sim.record(refs);
        sim.add_block(Box::new(BitvectorScanner::new("bv", level, root, bits, refs)));
        sim.preload(root, crate::source::root_stream());
        sim.run(100).unwrap();
        let words: Vec<u64> =
            sim.history(bits).iter().filter_map(|t| t.value_ref().map(|p| p.expect_bits().bits)).collect();
        assert_eq!(words, vec![0b0101, 0b0100, 0b0011]);
        let ranks: Vec<u32> =
            sim.history(refs).iter().filter_map(|t| t.value_ref().map(|p| p.expect_ref())).collect();
        assert_eq!(ranks, vec![0, 2, 3]);
    }

    #[test]
    fn bitvector_intersect_and_vectorized_multiply() {
        let la = bv_level(&[0, 2, 5], 8);
        let lb = bv_level(&[2, 3, 5], 8);
        let va = Arc::new(vec![10.0, 20.0, 30.0]);
        let vb = Arc::new(vec![1.0, 2.0, 3.0]);
        let mut sim = Simulator::new();
        let root_a = sim.add_channel("root_a");
        let root_b = sim.add_channel("root_b");
        let bits_a = sim.add_channel("bits_a");
        let refs_a = sim.add_channel("refs_a");
        let bits_b = sim.add_channel("bits_b");
        let refs_b = sim.add_channel("refs_b");
        let inter = sim.add_channel("intersected");
        let pairs = sim.add_channel("pairs");
        let sink = bit_result_sink();
        sim.add_block(Box::new(BitvectorScanner::new("a", la.clone(), root_a, bits_a, refs_a)));
        sim.add_block(Box::new(BitvectorScanner::new("b", lb.clone(), root_b, bits_b, refs_b)));
        sim.add_block(Box::new(BitvectorIntersecter::new(
            "int",
            [bits_a, bits_b],
            [refs_a, refs_b],
            inter,
            pairs,
        )));
        sim.add_block(Box::new(BitvectorVecMul::new("mul", la, lb, va, vb, inter, sink.clone())));
        sim.preload(root_a, crate::source::root_stream());
        sim.preload(root_b, crate::source::root_stream());
        let report = sim.run(1000).unwrap();
        let mut results = sink.lock().unwrap().clone();
        results.sort_by_key(|(c, _)| *c);
        assert_eq!(results, vec![(2, 20.0 * 1.0), (5, 30.0 * 3.0)]);
        // One 64-bit word covers the whole dimension: a handful of cycles.
        assert!(report.cycles < 20, "cycles = {}", report.cycles);
    }

    #[test]
    fn bit_tree_skips_empty_regions() {
        // 2000-wide vectors whose nonzeros live in one narrow block: the
        // bit-tree visits only the overlapping inner words.
        let coords: Vec<u32> = (100..140).collect();
        let la = bv_level(&coords, 2000);
        let lb = bv_level(&coords, 2000);
        let vals: Arc<Vec<f64>> = Arc::new(coords.iter().map(|_| 2.0).collect());
        let sink = bit_result_sink();
        let mut sim = Simulator::new();
        let progress = sim.add_channel("progress");
        sim.add_block(Box::new(BitTreeVecMul::new("bt", la, lb, vals.clone(), vals, progress, sink.clone())));
        let report = sim.run(1000).unwrap();
        assert_eq!(sink.lock().unwrap().len(), 40);
        // 32 inner words exist but only ~2 overlap the block; plus one outer word.
        assert!(report.cycles < 10, "cycles = {}", report.cycles);
    }

    #[test]
    fn vector_multiply_runs_agree_with_the_dense_product() {
        let dim = 256;
        let b = sam_tensor::synth::random_vector(dim, 50, 1);
        let c = sam_tensor::synth::random_vector(dim, 60, 2);
        let (db, dc) = (b.to_dense(), c.to_dense());
        for (what, run) in
            [("BV", bitvector_vec_mul(&b, &c, 64)), ("BV w/ split", bit_tree_vec_mul(&b, &c, 64))]
        {
            let (x, cycles) = run.unwrap();
            assert!(cycles > 0, "{what}");
            let x = x.to_dense();
            for i in 0..dim {
                assert!((x.at(&[i as u32]) - db[i] * dc[i]).abs() < 1e-9, "{what} disagreed at {i}");
            }
        }
    }

    #[test]
    fn bitvector_cycles_are_word_bound() {
        let dim = 2048;
        let b = sam_tensor::synth::random_vector(dim, 400, 1);
        let c = sam_tensor::synth::random_vector(dim, 400, 2);
        let (_, cycles) = bitvector_vec_mul(&b, &c, 64).unwrap();
        // 32 words plus pipeline overhead.
        assert!(cycles < 200, "cycles = {cycles}");
    }
}
