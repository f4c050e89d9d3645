//! The repeater block: broadcasting operands across index variables
//! (paper Definition 3.4, Figures 4 and 6). The block is the timing of its
//! rule, [`rule::Repeat`].

use crate::rule;
use sam_sim::{Block, BlockStatus, ChannelId, Context};

/// Repeats each reference of the input reference stream once for every data
/// token of the corresponding fiber of the input coordinate stream
/// ([`rule::Repeat`]).
///
/// Each cycle it reads one reference token while the rule wants one, then
/// answers the coordinate stream's head with one output token, or waits
/// for the reference that head needs. At the done token it reads what is
/// left of the reference stream in the same cycle, for the rule to check
/// that the two streams end together.
#[derive(Debug)]
pub struct Repeater {
    name: String,
    in_crd: ChannelId,
    in_ref: ChannelId,
    out_ref: ChannelId,
    rule: rule::Repeat,
    done: bool,
}

impl Repeater {
    /// Creates a repeater.
    pub fn new(name: impl Into<String>, in_crd: ChannelId, in_ref: ChannelId, out_ref: ChannelId) -> Self {
        Repeater { name: name.into(), in_crd, in_ref, out_ref, rule: rule::Repeat::default(), done: false }
    }
}

impl Block for Repeater {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        // A tick that reads a reference has popped, so it is not a stall.
        if self.rule.wants_ref() {
            if let Some(t) = ctx.pop(self.in_ref) {
                self.rule.reference(t);
            }
        }
        let Some(head) = ctx.peek(self.in_crd).copied() else {
            return ctx.stall();
        };
        let mut step = self.rule.coordinate(head);
        while head.is_done() && step == Ok(None) {
            let Some(t) = ctx.pop(self.in_ref) else { break };
            self.rule.reference(t);
            step = self.rule.coordinate(head);
        }
        match step {
            Ok(Some(out)) => {
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, out);
                self.done = out.is_done();
                crate::status(self.done)
            }
            // Wait for the reference, or the rest of the reference stream,
            // to arrive.
            Ok(None) => ctx.stall(),
            Err(fault) => BlockStatus::Fault(fault),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::{tok, Payload};
    use sam_sim::{SimToken, Simulator};
    use sam_streams::Token;

    fn to_paper(tokens: &[SimToken]) -> String {
        let mut parts: Vec<String> = tokens
            .iter()
            .map(|t| match t {
                Token::Val(Payload::Ref(r)) => r.to_string(),
                Token::Val(Payload::Crd(c)) => c.to_string(),
                Token::Val(p) => p.to_string(),
                Token::Stop(n) => format!("S{n}"),
                Token::Empty => "N".to_string(),
                Token::Done => "D".to_string(),
            })
            .collect();
        parts.reverse();
        parts.join(", ")
    }

    #[test]
    fn figure6_scalar_broadcast() {
        let mut sim = Simulator::new();
        let crd = sim.add_channel("b_crd");
        let rf = sim.add_channel("c_root");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(
            crd,
            vec![tok::crd(0), tok::crd(2), tok::crd(6), tok::crd(8), tok::crd(9), tok::stop(0), tok::done()],
        );
        sim.preload(rf, vec![tok::rf(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(to_paper(sim.history(out)), "D, S0, 0, 0, 0, 0, 0");
    }

    #[test]
    fn one_ref_per_fiber() {
        // Two fibers of coordinates, two references: each reference is
        // repeated once per coordinate of its fiber.
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(
            crd,
            vec![tok::crd(1), tok::crd(3), tok::stop(0), tok::crd(0), tok::stop(1), tok::done()],
        );
        sim.preload(rf, vec![tok::rf(7), tok::rf(9), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(to_paper(sim.history(out)), "D, S1, 9, S0, 7, 7");
    }

    #[test]
    fn empty_reference_is_broadcast_as_empty() {
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(crd, vec![tok::crd(0), tok::crd(1), tok::stop(0), tok::done()]);
        sim.preload(rf, vec![tok::empty(), tok::done()]);
        sim.run(100).unwrap();
        let empties = sim.history(out).iter().filter(|t| t.is_empty_token()).count();
        assert_eq!(empties, 2);
    }

    /// Pushes one token every `gap` cycles: a producer slower than the
    /// repeater's other input.
    struct Slow {
        out: ChannelId,
        tokens: std::collections::VecDeque<SimToken>,
        gap: u32,
        wait: u32,
    }

    impl Block for Slow {
        fn name(&self) -> &str {
            "slow"
        }

        fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
            if self.wait > 0 {
                self.wait -= 1;
                return BlockStatus::Busy;
            }
            self.wait = self.gap;
            match self.tokens.pop_front() {
                Some(t) => {
                    ctx.push(self.out, t);
                    if self.tokens.is_empty() {
                        BlockStatus::Done
                    } else {
                        BlockStatus::Busy
                    }
                }
                None => BlockStatus::Done,
            }
        }
    }

    /// The middle fiber is empty: its reference is dropped, whether it
    /// arrives before that fiber closes or after.
    #[test]
    fn empty_fiber_repeats_zero_times() {
        let crd = vec![tok::crd(1), tok::stop(0), tok::stop(0), tok::crd(2), tok::stop(1), tok::done()];
        let rf = vec![tok::rf(5), tok::rf(6), tok::rf(7), tok::stop(0), tok::done()];
        for (crd_gap, ref_gap) in [(0, 0), (3, 0), (0, 3)] {
            let mut sim = Simulator::new();
            let c = sim.add_channel("crd");
            let r = sim.add_channel("ref");
            let out = sim.add_channel("out");
            sim.record(out);
            sim.add_block(Box::new(Repeater::new("rep", c, r, out)));
            sim.add_block(Box::new(Slow { out: c, tokens: crd.clone().into(), gap: crd_gap, wait: 0 }));
            sim.add_block(Box::new(Slow { out: r, tokens: rf.clone().into(), gap: ref_gap, wait: 0 }));
            sim.run(200).unwrap();
            assert_eq!(to_paper(sim.history(out)), "D, S1, 7, S0, S0, 5", "gaps {crd_gap}/{ref_gap}");
        }
    }

    /// An empty fiber upstream shows as a lone stop on both inputs. However
    /// far either input runs ahead of the other, the reference after it
    /// belongs to the fiber after it.
    #[test]
    fn references_stay_paired_when_one_input_lags() {
        let crd = vec![
            tok::crd(24),
            tok::stop(1),
            tok::stop(1),
            tok::crd(4),
            tok::crd(23),
            tok::stop(2),
            tok::done(),
        ];
        let rf = vec![tok::rf(6), tok::stop(0), tok::stop(0), tok::rf(8), tok::stop(1), tok::done()];
        for (crd_gap, ref_gap) in [(0, 0), (3, 0), (0, 3)] {
            let mut sim = Simulator::new();
            let c = sim.add_channel("crd");
            let r = sim.add_channel("ref");
            let out = sim.add_channel("out");
            sim.record(out);
            sim.add_block(Box::new(Repeater::new("rep", c, r, out)));
            sim.add_block(Box::new(Slow { out: c, tokens: crd.clone().into(), gap: crd_gap, wait: 0 }));
            sim.add_block(Box::new(Slow { out: r, tokens: rf.clone().into(), gap: ref_gap, wait: 0 }));
            sim.run(200).unwrap();
            assert_eq!(to_paper(sim.history(out)), "D, S2, 8, 8, S1, S1, 6", "gaps {crd_gap}/{ref_gap}");
        }
    }

    /// At the coordinate stream's done token the reference stream must end
    /// too. The streams of `one_ref_per_fiber` do; a reference past the last
    /// fiber is misaligned, and a reference stream that never brings its
    /// done token leaves the repeater waiting for it (a simulator cannot
    /// tell that from a slow producer), where it used to finish.
    #[test]
    fn the_reference_stream_must_end_with_the_coordinates() {
        use sam_sim::{Fault, SimulationError};
        let crd = vec![tok::crd(1), tok::crd(3), tok::stop(0), tok::crd(0), tok::stop(1), tok::done()];
        let cases = [
            (vec![tok::rf(7), tok::rf(9), tok::stop(0), tok::done()], "ends"),
            (vec![tok::rf(7), tok::rf(9), tok::rf(4), tok::stop(0), tok::done()], "misaligned"),
            (vec![tok::rf(7), tok::rf(9), tok::stop(0)], "waits"),
        ];
        for (rf, expected) in cases {
            let mut sim = Simulator::new();
            let (c, r, out) = (sim.add_channel("crd"), sim.add_channel("ref"), sim.add_channel("out"));
            sim.add_block(Box::new(Repeater::new("rep", c, r, out)));
            sim.preload(c, crd.clone());
            sim.preload(r, rf.clone());
            let run = sim.run(100);
            let seen = match &run {
                Ok(_) => "ends",
                Err(SimulationError::Fault { fault: Fault::Misaligned, .. }) => "misaligned",
                Err(SimulationError::Deadlock { .. }) => "waits",
                Err(_) => "fails otherwise",
            };
            assert_eq!(seen, expected, "{rf:?}: {run:?}");
        }
    }

    /// A coordinate fiber with no reference left to repeat ends the run with
    /// a misalignment instead of waiting for one forever.
    #[test]
    fn running_out_of_references_is_misaligned() {
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        sim.preload(crd, vec![tok::crd(1), tok::stop(0), tok::crd(2), tok::stop(1), tok::done()]);
        sim.preload(rf, vec![tok::rf(5), tok::stop(0), tok::done()]);
        let run = sim.run(100);
        assert!(
            matches!(run, Err(sam_sim::SimulationError::Fault { fault: sam_sim::Fault::Misaligned, .. })),
            "{run:?}"
        );
    }
}
