//! The coordinate dropper (paper Definition 3.9, Figure 8): the timing of
//! [`CoordDrop`].

use crate::rule::CoordDrop;
use sam_sim::{Block, BlockStatus, ChannelId, Context, SimToken};
use sam_streams::Token;
use std::collections::VecDeque;

/// Removes outer coordinates whose inner fibers turned out to be ineffectual
/// (empty after intersection, or all-zero after computation), together with
/// those fibers' tokens ([`CoordDrop`]).
///
/// It reads one inner token per cycle, and at an inner stop the outer
/// coordinate it closes (and the outer stop after it, if that has arrived).
/// What the rule emits is queued per output and sent one token per output
/// per cycle.
#[derive(Debug)]
pub struct CoordDropper {
    name: String,
    in_outer_crd: ChannelId,
    in_inner: ChannelId,
    /// The outer output, then the inner one.
    outs: [ChannelId; 2],
    rule: CoordDrop,
    /// Tokens awaiting emission, per output.
    pending: [VecDeque<SimToken>; 2],
    finishing: bool,
}

impl CoordDropper {
    /// Creates a coordinate dropper. The inner stream may carry coordinates
    /// or values; a value of exactly zero counts as ineffectual.
    pub fn new(
        name: impl Into<String>,
        in_outer_crd: ChannelId,
        in_inner: ChannelId,
        out_outer_crd: ChannelId,
        out_inner: ChannelId,
    ) -> Self {
        CoordDropper {
            name: name.into(),
            in_outer_crd,
            in_inner,
            outs: [out_outer_crd, out_inner],
            rule: CoordDrop::default(),
            pending: [VecDeque::new(), VecDeque::new()],
            finishing: false,
        }
    }
}

impl Block for CoordDropper {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        // One pending token per output per cycle. Draining pushes, so a tick
        // that drained anything is not a stall.
        for (queue, &out) in self.pending.iter_mut().zip(&self.outs) {
            if let Some(t) = queue.pop_front() {
                ctx.push(out, t);
            }
        }
        if self.finishing {
            // Waits on no input; only its own queues move.
            return crate::status(self.pending.iter().all(VecDeque::is_empty));
        }
        let Some(t) = ctx.peek(self.in_inner).copied() else {
            return ctx.stall();
        };
        let pending = &mut self.pending;
        let mut emit = |port: usize, t: SimToken| pending[port].push_back(t);
        match t {
            Token::Val(_) | Token::Empty => self.rule.data(t),
            Token::Stop(level) => {
                // The end of an inner fiber: it needs the owning outer
                // coordinate, and the token after it if that has arrived.
                let Some(outer) = ctx.peek(self.in_outer_crd).copied() else {
                    return ctx.stall();
                };
                let next = ctx.peek_nth(self.in_outer_crd, 1).copied();
                for _ in 0..self.rule.close(level, outer, next, emit) {
                    ctx.pop(self.in_outer_crd);
                }
            }
            Token::Done => {
                // Whatever of the outer stream has arrived, up to its done
                // token.
                while let Some(o) = ctx.pop(self.in_outer_crd) {
                    if o.is_done() {
                        break;
                    }
                    self.rule.rest(o, &mut emit);
                }
                self.rule.finish(emit);
                self.finishing = true;
            }
        }
        ctx.pop(self.in_inner);
        BlockStatus::Busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::{tok, Payload};
    use sam_sim::Simulator;

    fn to_paper(tokens: &[SimToken]) -> String {
        let mut parts: Vec<String> = tokens
            .iter()
            .map(|t| match t {
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

    fn run_dropper(outer: Vec<SimToken>, inner: Vec<SimToken>) -> (String, String) {
        let mut sim = Simulator::new();
        let ic = sim.add_channel("outer");
        let ii = sim.add_channel("inner");
        let oc = sim.add_channel("out_outer");
        let oi = sim.add_channel("out_inner");
        sim.record(oc);
        sim.record(oi);
        sim.add_block(Box::new(CoordDropper::new("drop", ic, ii, oc, oi)));
        sim.preload(ic, outer);
        sim.preload(ii, inner);
        sim.run(1000).unwrap();
        (to_paper(sim.history(oc)), to_paper(sim.history(oi)))
    }

    #[test]
    fn figure8_drops_empty_middle_fiber() {
        // Paper Figure 8: coordinate 2's fiber is empty and is dropped from
        // both streams.
        let outer = vec![tok::crd(0), tok::crd(1), tok::crd(2), tok::crd(3), tok::stop(0), tok::done()];
        let inner = vec![
            tok::crd(1),
            tok::stop(0),
            tok::crd(0),
            tok::crd(2),
            tok::stop(0),
            tok::stop(0),
            tok::crd(1),
            tok::crd(3),
            tok::stop(1),
            tok::done(),
        ];
        let (outer_out, inner_out) = run_dropper(outer, inner);
        assert_eq!(outer_out, "D, S0, 3, 1, 0");
        assert_eq!(inner_out, "D, S1, 3, 1, S0, 2, 0, S0, 1");
    }

    #[test]
    fn trailing_empty_fiber_merges_stop() {
        // The last fiber (outer coordinate 2) is empty: its group-closing
        // stop merges into the previous fiber's stop.
        let outer = vec![tok::crd(0), tok::crd(2), tok::stop(0), tok::done()];
        let inner = vec![tok::crd(1), tok::stop(0), tok::stop(1), tok::done()];
        let (outer_out, inner_out) = run_dropper(outer, inner);
        assert_eq!(outer_out, "D, S0, 0");
        assert_eq!(inner_out, "D, S1, 1");
    }

    #[test]
    fn all_fibers_kept_passes_through() {
        let outer = vec![tok::crd(0), tok::crd(1), tok::stop(0), tok::done()];
        let inner = vec![tok::crd(5), tok::stop(0), tok::crd(6), tok::stop(1), tok::done()];
        let (outer_out, inner_out) = run_dropper(outer.clone(), inner.clone());
        assert_eq!(outer_out, "D, S0, 1, 0");
        assert_eq!(inner_out, "D, S1, 6, S0, 5");
    }

    #[test]
    fn zero_values_count_as_ineffectual() {
        // Value-stream inner input: a fiber of explicit zeros is dropped.
        let outer = vec![tok::crd(0), tok::crd(1), tok::stop(0), tok::done()];
        let inner = vec![tok::val(0.0), tok::stop(0), tok::val(2.0), tok::stop(1), tok::done()];
        let (outer_out, inner_out) = run_dropper(outer, inner);
        assert_eq!(outer_out, "D, S0, 1");
        assert_eq!(inner_out, "D, S1, 2");
    }

    #[test]
    fn everything_dropped_leaves_empty_streams() {
        let outer = vec![tok::crd(0), tok::stop(0), tok::done()];
        let inner = vec![tok::stop(1), tok::done()];
        let (outer_out, inner_out) = run_dropper(outer, inner);
        assert_eq!(outer_out, "D, S0");
        assert_eq!(inner_out, "D, S1");
    }
}
