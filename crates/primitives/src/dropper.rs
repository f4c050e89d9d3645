//! The coordinate dropper (paper Definition 3.9, Figure 8).

use sam_sim::payload::{tok, Payload};
use sam_sim::{Block, BlockStatus, ChannelId, Context, SimToken};
use sam_streams::Token;
use std::collections::VecDeque;

/// Removes outer coordinates whose inner fibers turned out to be ineffectual
/// (empty after intersection, or all-zero after computation), together with
/// those fibers' tokens.
///
/// The dropper buffers one inner fiber at a time; when the fiber ends it
/// either forwards the fiber and emits the owning outer coordinate, or drops
/// both. Trailing stop tokens are held back so that a dropped last fiber can
/// merge its group-closing stop into the previous fiber's stop, exactly as in
/// Figure 8.
#[derive(Debug)]
pub struct CoordDropper {
    name: String,
    in_outer_crd: ChannelId,
    in_inner: ChannelId,
    out_outer_crd: ChannelId,
    out_inner: ChannelId,
    /// Tokens of the inner fiber currently being collected.
    fiber: Vec<SimToken>,
    /// Whether the current fiber has any effectual data token.
    effectual: bool,
    /// Tokens awaiting emission on the inner output.
    pending_inner: VecDeque<SimToken>,
    /// Tokens awaiting emission on the outer output.
    pending_outer: VecDeque<SimToken>,
    finishing: bool,
    done: bool,
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
            out_outer_crd,
            out_inner,
            fiber: Vec::new(),
            effectual: false,
            pending_inner: VecDeque::new(),
            pending_outer: VecDeque::new(),
            finishing: false,
            done: false,
        }
    }

    /// Appends a token to a pending queue, merging consecutive trailing stop
    /// tokens by keeping the higher level (the Figure 8 upgrade rule).
    fn push_pending(queue: &mut VecDeque<SimToken>, t: SimToken) {
        if let Token::Stop(new_level) = t {
            if let Some(Token::Stop(prev)) = queue.back_mut() {
                *prev = (*prev).max(new_level);
                return;
            }
        }
        queue.push_back(t);
    }

    /// Emits at most one pending token per output per cycle, holding back a
    /// trailing stop until it can no longer be upgraded.
    fn drain_pending(&mut self, ctx: &mut Context) -> bool {
        let mut emitted = false;
        let emit_ok = match self.pending_inner.front() {
            Some(Token::Stop(_)) => self.pending_inner.len() > 1 || self.finishing,
            Some(_) => true,
            None => false,
        };
        if emit_ok {
            let t = self.pending_inner.pop_front().expect("nonempty");
            ctx.push(self.out_inner, t);
            emitted = true;
        }
        let emit_ok = match self.pending_outer.front() {
            Some(Token::Stop(_)) => self.pending_outer.len() > 1 || self.finishing,
            Some(_) => true,
            None => false,
        };
        if emit_ok {
            let t = self.pending_outer.pop_front().expect("nonempty");
            ctx.push(self.out_outer_crd, t);
            emitted = true;
        }
        emitted
    }
}

impl Block for CoordDropper {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        // Draining pushes, so a tick that drained anything is not a stall.
        let drained = self.drain_pending(ctx);
        if self.finishing {
            if self.pending_inner.is_empty() && self.pending_outer.is_empty() {
                self.done = true;
                return BlockStatus::Done;
            }
            // Waits on no input; only its own queues move.
            return BlockStatus::Busy;
        }
        let Some(t) = ctx.peek(self.in_inner).cloned() else {
            return ctx.stall();
        };
        match t {
            Token::Val(p) => {
                ctx.pop(self.in_inner);
                let effectual = match p {
                    Payload::Val(v) => v != 0.0,
                    _ => true,
                };
                self.effectual |= effectual;
                self.fiber.push(Token::Val(p));
                BlockStatus::Busy
            }
            Token::Empty => {
                ctx.pop(self.in_inner);
                BlockStatus::Busy
            }
            Token::Stop(level) => {
                // The end of an inner fiber: consume the owning outer
                // coordinate and decide whether to keep the fiber.
                let Some(outer) = ctx.peek(self.in_outer_crd).cloned() else {
                    return ctx.stall();
                };
                ctx.pop(self.in_inner);
                match outer {
                    Token::Val(po) => {
                        ctx.pop(self.in_outer_crd);
                        if self.effectual {
                            for ft in self.fiber.drain(..) {
                                Self::push_pending(&mut self.pending_inner, ft);
                            }
                            Self::push_pending(&mut self.pending_inner, tok::stop(level));
                            Self::push_pending(&mut self.pending_outer, Token::Val(po));
                        } else {
                            self.fiber.clear();
                            if level > 0 {
                                Self::push_pending(&mut self.pending_inner, tok::stop(level));
                            }
                        }
                        if level > 0 {
                            // The outer level also closes: its own stop (one
                            // level lower) follows on the outer input.
                            if let Some(Token::Stop(no)) = ctx.peek(self.in_outer_crd).cloned() {
                                ctx.pop(self.in_outer_crd);
                                Self::push_pending(&mut self.pending_outer, tok::stop(no));
                            } else {
                                Self::push_pending(&mut self.pending_outer, tok::stop(level - 1));
                            }
                        }
                        self.effectual = false;
                    }
                    Token::Stop(_) | Token::Empty | Token::Done => {
                        // Structural slack: forward the stop and keep going.
                        Self::push_pending(&mut self.pending_inner, tok::stop(level));
                        if matches!(outer, Token::Stop(_)) {
                            ctx.pop(self.in_outer_crd);
                            Self::push_pending(&mut self.pending_outer, outer);
                        }
                        self.effectual = false;
                        self.fiber.clear();
                    }
                }
                BlockStatus::Busy
            }
            Token::Done => {
                ctx.pop(self.in_inner);
                // Drain the outer stream up to and including its done token.
                while let Some(o) = ctx.peek(self.in_outer_crd).cloned() {
                    ctx.pop(self.in_outer_crd);
                    if o.is_done() {
                        break;
                    }
                    Self::push_pending(&mut self.pending_outer, o);
                }
                Self::push_pending(&mut self.pending_inner, tok::done());
                Self::push_pending(&mut self.pending_outer, tok::done());
                self.finishing = true;
                let _ = drained;
                BlockStatus::Busy
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
