//! The repeater block: broadcasting operands across index variables
//! (paper Definition 3.4, Figures 4 and 6).

use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context, SimToken};
use sam_streams::Token;

/// Repeats each reference of the input reference stream once for every data
/// token of the corresponding fiber of the input coordinate stream.
///
/// The output reference stream mirrors the fiber structure of the input
/// coordinate stream: data tokens are replaced by the current reference and
/// control tokens pass through. Stop tokens on the input *reference* stream
/// are redundant with the coordinate stream's higher-level stops and are
/// absorbed.
///
/// The two inputs arrive at unrelated times, so the block pairs them by
/// counting *fibers* on both sides rather than by what happens to be at the
/// head of each channel: every reference owns one coordinate fiber, and a
/// reference-stream stop that does not directly follow a reference is an
/// empty fiber upstream, which the coordinate stream answers with a stop of
/// its own and no reference.
///
/// ```text
///  in_crd:  D, S0, 9, 8, 6, 2, 0      (the vector b in Figure 6)
///  in_ref:  D, 0                       (the scalar c's root reference)
///  out_ref: D, S0, 0, 0, 0, 0, 0
/// ```
#[derive(Debug)]
pub struct Repeater {
    name: String,
    in_crd: ChannelId,
    in_ref: ChannelId,
    out_ref: ChannelId,
    /// The reference being repeated and the fiber it belongs to.
    current: Option<(SimToken, u64)>,
    /// Fibers accounted for on the reference stream so far.
    ref_fibers: u64,
    /// Fibers closed on the coordinate stream so far.
    crd_fibers: u64,
    /// Whether the last reference-stream token was a reference, whose
    /// trailing stop the coordinate stream has merged into its own.
    ref_open: bool,
    in_ref_done: bool,
    done: bool,
}

impl Repeater {
    /// Creates a repeater.
    pub fn new(name: impl Into<String>, in_crd: ChannelId, in_ref: ChannelId, out_ref: ChannelId) -> Self {
        Repeater {
            name: name.into(),
            in_crd,
            in_ref,
            out_ref,
            current: None,
            ref_fibers: 0,
            crd_fibers: 0,
            ref_open: false,
            in_ref_done: false,
            done: false,
        }
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
        // Fetch the next reference to repeat when none is held.
        if self.current.is_none() && !self.in_ref_done {
            if let Some(t) = ctx.peek(self.in_ref).cloned() {
                ctx.pop(self.in_ref);
                match t {
                    Token::Val(_) | Token::Empty => {
                        // A reference whose (empty) fiber the coordinate
                        // stream already closed has nothing to repeat over.
                        if self.ref_fibers >= self.crd_fibers {
                            self.current = Some((t, self.ref_fibers));
                        }
                        self.ref_fibers += 1;
                        self.ref_open = true;
                    }
                    Token::Stop(_) => {
                        // Redundant with the coordinate stream's hierarchy;
                        // on its own it stands for a fiber with no reference.
                        if !self.ref_open {
                            self.ref_fibers += 1;
                        }
                        self.ref_open = false;
                    }
                    Token::Done => self.in_ref_done = true,
                }
            }
        }
        // Drive the output from the coordinate stream. (A tick that fetched
        // a reference above has popped, so it is not a stall.)
        let Some(head) = ctx.peek(self.in_crd).cloned() else {
            return ctx.stall();
        };
        match head {
            Token::Val(_) => {
                let Some((current, _)) = self.current else {
                    // Wait for the reference to arrive.
                    return ctx.stall();
                };
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, current);
                BlockStatus::Busy
            }
            Token::Empty => {
                // An empty coordinate slot repeats nothing.
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, tok::empty());
                BlockStatus::Busy
            }
            Token::Stop(n) => {
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, tok::stop(n));
                // The next fiber repeats the next reference. One fetched
                // ahead, while this stop was still in flight, stays.
                if self.current.is_some_and(|(_, fiber)| fiber <= self.crd_fibers) {
                    self.current = None;
                }
                self.crd_fibers += 1;
                BlockStatus::Busy
            }
            Token::Done => {
                ctx.pop(self.in_crd);
                ctx.push(self.out_ref, tok::done());
                // Drain whatever remains of the reference stream.
                while let Some(t) = ctx.peek(self.in_ref) {
                    let finished = t.is_done();
                    ctx.pop(self.in_ref);
                    if finished {
                        break;
                    }
                }
                self.done = true;
                BlockStatus::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::Payload;
    use sam_sim::Simulator;

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
    fn empty_fiber_repeats_zero_times() {
        let mut sim = Simulator::new();
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let out = sim.add_channel("out");
        sim.record(out);
        sim.add_block(Box::new(Repeater::new("rep", crd, rf, out)));
        // Middle fiber is empty: its reference is dropped.
        sim.preload(
            crd,
            vec![tok::crd(1), tok::stop(0), tok::stop(0), tok::crd(2), tok::stop(1), tok::done()],
        );
        sim.preload(rf, vec![tok::rf(5), tok::rf(6), tok::rf(7), tok::stop(0), tok::done()]);
        sim.run(100).unwrap();
        assert_eq!(to_paper(sim.history(out)), "D, S1, 7, S0, S0, 5");
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
}
