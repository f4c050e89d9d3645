//! Array (memory) blocks: value loads and the locator (paper Definitions
//! 3.5 and 4.1). Each block is its rule in [`crate::rule`] run in
//! [`Lockstep`].

use crate::{rule, Lockstep};
use sam_sim::{Block, ChannelId};
use sam_tensor::level::Level;

/// The array block in load mode (Definition 3.5): converts a reference
/// stream into a value stream by reading the values array `vals`
/// ([`rule::load`]), one token per cycle.
pub fn val_array(
    name: impl Into<String>,
    vals: impl AsRef<[f64]> + Send + 'static,
    in_ref: ChannelId,
    out_val: ChannelId,
) -> impl Block {
    Lockstep::new(name, [in_ref], [out_val], move |[t]| Ok([rule::load(vals.as_ref(), t)?]))
}

/// The locator block (Definition 4.1): iterate-locate intersection into
/// `level` ([`rule::locate`]), one aligned `(coordinate, reference)` pair
/// in and a coordinate, a pass-through reference and a located reference
/// out per cycle.
pub fn locator(
    name: impl Into<String>,
    level: impl AsRef<Level> + Send + 'static,
    [in_crd, in_ref]: [ChannelId; 2],
    outs: [ChannelId; 3],
) -> impl Block {
    Lockstep::new(name, [in_crd, in_ref], outs, move |[c, r]| rule::locate(level.as_ref(), c, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::{tok, Payload};
    use sam_sim::{Fault, SimToken, SimulationError, Simulator};
    use sam_streams::Token;
    use sam_tensor::level::{CompressedLevel, DenseLevel};
    use std::sync::Arc;

    fn vals(tokens: &[SimToken]) -> Vec<f64> {
        tokens.iter().filter_map(|t| t.value_ref().map(|p| p.expect_val())).collect()
    }

    #[test]
    fn val_array_loads_and_passes_controls() {
        let mut sim = Simulator::new();
        let r = sim.add_channel("ref");
        let v = sim.add_channel("val");
        sim.record(v);
        sim.add_block(Box::new(val_array("B_vals", vec![1.0, 2.0, 3.0, 4.0, 5.0], r, v)));
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
        sim.add_block(Box::new(val_array("B", vec![1.0], r, v)));
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
            sim.add_block(Box::new(locator("loc", level.clone(), [c, r], [oc, op, ol])));
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
        sim.add_block(Box::new(locator("loc", level, [c, r], [oc, op, ol])));
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
        sim.add_block(Box::new(locator("loc", level, [c, r], [oc, op, ol])));
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
