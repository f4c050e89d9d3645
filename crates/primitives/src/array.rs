//! Array (memory) blocks: value loads and the locator (paper Definitions
//! 3.5 and 4.1).

use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context};
use sam_streams::Token;
use sam_tensor::level::Level;
use std::sync::Arc;

/// The array block in load mode (Definition 3.5): converts a reference
/// stream into a value stream by reading a values array.
///
/// Empty (`N`) references — produced by unions for missing operands — pass
/// through as empty tokens so the downstream ALU can treat them as zeros.
#[derive(Debug)]
pub struct ValArray {
    name: String,
    vals: Arc<Vec<f64>>,
    in_ref: ChannelId,
    out_val: ChannelId,
    done: bool,
}

impl ValArray {
    /// Creates a value-load array over `vals`.
    pub fn new(name: impl Into<String>, vals: Arc<Vec<f64>>, in_ref: ChannelId, out_val: ChannelId) -> Self {
        ValArray { name: name.into(), vals, in_ref, out_val, done: false }
    }
}

impl Block for ValArray {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let Some(t) = ctx.peek(self.in_ref).cloned() else {
            return ctx.stall();
        };
        ctx.pop(self.in_ref);
        match t {
            Token::Val(p) => {
                let r = p.expect_ref() as usize;
                assert!(r < self.vals.len(), "reference {r} out of bounds for values array `{}`", self.name);
                ctx.push(self.out_val, tok::val(self.vals[r]));
                BlockStatus::Busy
            }
            Token::Empty => {
                ctx.push(self.out_val, tok::empty());
                BlockStatus::Busy
            }
            Token::Stop(n) => {
                ctx.push(self.out_val, tok::stop(n));
                BlockStatus::Busy
            }
            Token::Done => {
                ctx.push(self.out_val, tok::done());
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

/// The locator block (Definition 4.1): iterate-locate intersection.
///
/// For each input `(coordinate, reference)` pair the locator looks the
/// coordinate up in its bound level within the fiber named by the reference.
/// When present it emits the coordinate, the pass-through reference and the
/// located child reference; when absent it emits empty tokens on all three
/// outputs so downstream streams stay aligned.
#[derive(Debug)]
pub struct Locator {
    name: String,
    level: Arc<Level>,
    in_crd: ChannelId,
    in_ref: ChannelId,
    out_crd: ChannelId,
    out_ref_pass: ChannelId,
    out_ref_located: ChannelId,
    done: bool,
}

impl Locator {
    /// Creates a locator over `level`.
    pub fn new(
        name: impl Into<String>,
        level: Arc<Level>,
        in_crd: ChannelId,
        in_ref: ChannelId,
        out_crd: ChannelId,
        out_ref_pass: ChannelId,
        out_ref_located: ChannelId,
    ) -> Self {
        Locator {
            name: name.into(),
            level,
            in_crd,
            in_ref,
            out_crd,
            out_ref_pass,
            out_ref_located,
            done: false,
        }
    }

    fn emit_all(&self, ctx: &mut Context, t: sam_sim::SimToken) {
        ctx.push(self.out_crd, t);
        ctx.push(self.out_ref_pass, t);
        ctx.push(self.out_ref_located, t);
    }
}

impl Block for Locator {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        let (Some(c), Some(r)) = (ctx.peek(self.in_crd).cloned(), ctx.peek(self.in_ref).cloned()) else {
            return ctx.stall();
        };
        match (c, r) {
            (Token::Val(pc), Token::Val(pr)) => {
                ctx.pop(self.in_crd);
                ctx.pop(self.in_ref);
                let coord = pc.expect_crd();
                let fiber = pr.expect_ref() as usize;
                match self.level.locate(fiber, coord) {
                    Some(child) => {
                        ctx.push(self.out_crd, tok::crd(coord));
                        ctx.push(self.out_ref_pass, tok::rf(fiber as u32));
                        ctx.push(self.out_ref_located, tok::rf(child as u32));
                    }
                    None => {
                        self.emit_all(ctx, tok::empty());
                    }
                }
                BlockStatus::Busy
            }
            (Token::Empty, _) | (_, Token::Empty) => {
                ctx.pop(self.in_crd);
                ctx.pop(self.in_ref);
                self.emit_all(ctx, tok::empty());
                BlockStatus::Busy
            }
            (Token::Stop(nc), Token::Stop(nr)) => {
                debug_assert_eq!(nc, nr, "locator inputs must have matching structure");
                ctx.pop(self.in_crd);
                ctx.pop(self.in_ref);
                self.emit_all(ctx, tok::stop(nc.max(nr)));
                BlockStatus::Busy
            }
            (Token::Done, Token::Done) => {
                ctx.pop(self.in_crd);
                ctx.pop(self.in_ref);
                self.emit_all(ctx, tok::done());
                self.done = true;
                BlockStatus::Done
            }
            _ => BlockStatus::Busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::Payload;
    use sam_sim::{SimToken, Simulator};
    use sam_tensor::level::{CompressedLevel, DenseLevel};

    fn vals(tokens: &[SimToken]) -> Vec<f64> {
        tokens.iter().filter_map(|t| t.value_ref().map(|p| p.expect_val())).collect()
    }

    #[test]
    fn val_array_loads_and_passes_controls() {
        let mut sim = Simulator::new();
        let r = sim.add_channel("ref");
        let v = sim.add_channel("val");
        sim.record(v);
        sim.add_block(Box::new(ValArray::new("B_vals", Arc::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]), r, v)));
        sim.preload(r, vec![tok::rf(4), tok::rf(0), Token::Empty, tok::stop(1), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(vals(sim.history(v)), vec![5.0, 1.0]);
        assert_eq!(sim.history(v).iter().filter(|t| t.is_empty_token()).count(), 1);
        assert_eq!(sim.history(v).iter().filter(|t| t.stop_level() == Some(1)).count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn val_array_rejects_bad_reference() {
        let mut sim = Simulator::new();
        let r = sim.add_channel("ref");
        let v = sim.add_channel("val");
        sim.add_block(Box::new(ValArray::new("B", Arc::new(vec![1.0]), r, v)));
        sim.preload(r, vec![tok::rf(7), tok::done()]);
        let _ = sim.run(100);
    }

    #[test]
    fn locator_finds_coordinates_in_dense_level() {
        // Locating into a dense vector always succeeds (SpMV use case).
        let level = Arc::new(Level::Dense(DenseLevel::new(10, 1)));
        let mut sim = Simulator::new();
        let c = sim.add_channel("crd");
        let r = sim.add_channel("ref");
        let oc = sim.add_channel("out_crd");
        let op = sim.add_channel("out_pass");
        let ol = sim.add_channel("out_loc");
        sim.record(ol);
        sim.add_block(Box::new(Locator::new("loc", level, c, r, oc, op, ol)));
        sim.preload(c, vec![tok::crd(3), tok::crd(7), tok::stop(0), tok::done()]);
        sim.preload(r, vec![tok::rf(0), tok::rf(0), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        let located: Vec<u32> =
            sim.history(ol).iter().filter_map(|t| t.value_ref().map(|p| p.expect_ref())).collect();
        assert_eq!(located, vec![3, 7]);
    }

    #[test]
    fn locator_emits_empty_on_miss() {
        let level = Arc::new(Level::Compressed(CompressedLevel::new(8, vec![0, 2], vec![1, 5])));
        let mut sim = Simulator::new();
        let c = sim.add_channel("crd");
        let r = sim.add_channel("ref");
        let oc = sim.add_channel("out_crd");
        let op = sim.add_channel("out_pass");
        let ol = sim.add_channel("out_loc");
        sim.record(oc);
        sim.record(ol);
        sim.add_block(Box::new(Locator::new("loc", level, c, r, oc, op, ol)));
        sim.preload(c, vec![tok::crd(1), tok::crd(3), tok::crd(5), tok::stop(0), tok::done()]);
        sim.preload(r, vec![tok::rf(0), tok::rf(0), tok::rf(0), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        let located: Vec<u32> =
            sim.history(ol).iter().filter_map(|t| t.value_ref().map(|p| p.expect_ref())).collect();
        assert_eq!(located, vec![0, 1]);
        assert_eq!(sim.history(oc).iter().filter(|t| t.is_empty_token()).count(), 1);
        assert_eq!(sim.history(ol).iter().filter(|t| t.is_empty_token()).count(), 1);
    }

    #[test]
    fn locator_with_payload_checks() {
        // Crd payload check via Payload::Crd round-trip.
        assert_eq!(Payload::Crd(9).expect_crd(), 9);
    }
}
