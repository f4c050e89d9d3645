//! Array (memory) blocks: value loads and the locator (paper Definitions
//! 3.5 and 4.1). Each block is the timing of its rule in [`crate::rule`].

use crate::rule;
use sam_sim::{Block, BlockStatus, ChannelId, Context, SimToken};
use sam_tensor::level::Level;
use std::sync::Arc;

/// The array block in load mode (Definition 3.5): converts a reference
/// stream into a value stream by reading a values array ([`rule::load`]),
/// one token per cycle.
#[derive(Debug)]
pub struct ValArray {
    name: String,
    vals: Arc<Vec<f64>>,
    in_ref: ChannelId,
    out_val: ChannelId,
}

impl ValArray {
    /// Creates a value-load array over `vals`.
    pub fn new(name: impl Into<String>, vals: Arc<Vec<f64>>, in_ref: ChannelId, out_val: ChannelId) -> Self {
        ValArray { name: name.into(), vals, in_ref, out_val }
    }
}

impl Block for ValArray {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        let Some(t) = ctx.pop(self.in_ref) else {
            return ctx.stall();
        };
        match rule::load(&self.vals, t) {
            Ok(v) => {
                ctx.push(self.out_val, v);
                crate::status(v.is_done())
            }
            Err(fault) => BlockStatus::Fault(fault),
        }
    }
}

/// The locator block (Definition 4.1): iterate-locate intersection
/// ([`rule::locate`]), one aligned `(coordinate, reference)` pair and three
/// output tokens per cycle.
#[derive(Debug)]
pub struct Locator {
    name: String,
    level: Arc<Level>,
    in_crd: ChannelId,
    in_ref: ChannelId,
    outs: [ChannelId; 3],
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
        Locator { name: name.into(), level, in_crd, in_ref, outs: [out_crd, out_ref_pass, out_ref_located] }
    }
}

impl Block for Locator {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        let (Some(c), Some(r)) = (ctx.peek(self.in_crd).copied(), ctx.peek(self.in_ref).copied()) else {
            return ctx.stall();
        };
        let located: [SimToken; 3] = match rule::locate(&self.level, c, r) {
            Ok(located) => located,
            Err(fault) => return BlockStatus::Fault(fault),
        };
        ctx.pop(self.in_crd);
        ctx.pop(self.in_ref);
        for (&out, t) in self.outs.iter().zip(located) {
            ctx.push(out, t);
        }
        crate::status(located[0].is_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::{tok, Payload};
    use sam_sim::{Fault, SimulationError, Simulator};
    use sam_streams::Token;
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
    fn val_array_rejects_bad_reference() {
        let mut sim = Simulator::new();
        let r = sim.add_channel("ref");
        let v = sim.add_channel("val");
        sim.add_block(Box::new(ValArray::new("B", Arc::new(vec![1.0]), r, v)));
        sim.preload(r, vec![tok::rf(0), tok::rf(7), tok::done()]);
        assert_eq!(
            sim.run(100),
            Err(SimulationError::Fault { cycle: 1, block: "B".into(), fault: Fault::RefOutOfBounds(7) })
        );
    }

    /// A locator whose heads cannot line up, or whose reference names no
    /// fiber of its level, ends the run with the fault instead of spinning.
    #[test]
    fn locator_faults_on_misaligned_heads_and_bad_references() {
        let level = Arc::new(Level::Dense(DenseLevel::new(10, 1)));
        for (crd, rf, fault) in [
            (tok::crd(3), tok::stop(0), Fault::Misaligned),
            (tok::rf(3), tok::rf(0), Fault::Misaligned),
            (tok::crd(3), tok::rf(1), Fault::RefOutOfBounds(1)),
        ] {
            let mut sim = Simulator::new();
            let [c, r, oc, op, ol] = ["crd", "ref", "oc", "op", "ol"].map(|n| sim.add_channel(n));
            sim.add_block(Box::new(Locator::new("loc", level.clone(), c, r, oc, op, ol)));
            sim.preload(c, vec![crd, tok::stop(0), tok::done()]);
            sim.preload(r, vec![rf, tok::stop(0), tok::done()]);
            assert_eq!(sim.run(100), Err(SimulationError::Fault { cycle: 0, block: "loc".into(), fault }));
        }
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
