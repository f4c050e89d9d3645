//! Level scanners: tensor iteration (paper Definition 3.1, Section 4.2).
//! The block is the timing of its stop rule, [`rule::scan`].

use crate::rule::{self, Scan};
use sam_sim::payload::{tok, Payload};
use sam_sim::{Block, BlockStatus, ChannelId, Context, Fault, SimToken};
use sam_streams::Token;
use sam_tensor::level::{FiberEntry, Level};

/// Internal scanner state machine.
#[derive(Debug)]
enum ScanState {
    /// Waiting for the next input reference token.
    Idle,
    /// Emitting the entries of the current fiber one per cycle.
    Emitting { entries: Vec<FiberEntry>, pos: usize },
    /// The fiber finished; waiting to see the next input token to decide the
    /// level of the trailing stop token ([`rule::closing_stop`]).
    NeedStop,
}

/// A level scanner for dense (uncompressed) and compressed levels, reading
/// its level in place through `L` (an `Arc<Level>`, or a bound tensor's
/// level).
///
/// The scanner consumes a reference stream naming fibers of its level and
/// produces a coordinate stream and a reference stream for the next level
/// (Definition 3.1). It is format agnostic (Figure 3): the same block works
/// for dense and compressed levels because both expose the fiber-view
/// interface of [`Level`].
///
/// Its stop rule is [`rule::scan`] and [`rule::closing_stop`]: it takes an
/// input token, emits the fiber it opens one entry per cycle (the first in
/// the cycle it takes the token), then waits for the next input token to
/// pick the fiber's closing stop. A rule's fault ends the simulation.
///
/// With a `skip_in` channel connected, the scanner implements coordinate
/// skipping (Section 4.2): a skip request is the *epoch-tagged pair*
/// `Ref(epoch), Crd(target)` that [`crate::Intersecter`] emits, where the
/// epoch counts fiber-closing stop tokens. The pair gallops the fiber in
/// flight past coordinates below `target` only while the scanner is still
/// emitting that same fiber. A request that arrives after the fiber closed
/// is stale and dropped; without the tag it could gallop a *later* fiber
/// past coordinates that match (multi-fiber streams lag arbitrarily far
/// behind their consumers in the dataflow). Any other skip token is
/// misaligned.
#[derive(Debug)]
pub struct LevelScanner<L> {
    name: String,
    level: L,
    in_ref: ChannelId,
    out_crd: ChannelId,
    out_ref: ChannelId,
    skip_in: Option<ChannelId>,
    state: ScanState,
    /// Fiber-closing stop tokens emitted so far — the skip epoch.
    stops_emitted: u32,
    done: bool,
}

impl<L: AsRef<Level>> LevelScanner<L> {
    /// Creates a level scanner over `level`.
    pub fn new(
        name: impl Into<String>,
        level: L,
        in_ref: ChannelId,
        out_crd: ChannelId,
        out_ref: ChannelId,
    ) -> Self {
        LevelScanner {
            name: name.into(),
            level,
            in_ref,
            out_crd,
            out_ref,
            skip_in: None,
            state: ScanState::Idle,
            stops_emitted: 0,
            done: false,
        }
    }

    /// Connects a coordinate-skip input channel (Section 4.2).
    pub fn with_skip(mut self, skip_in: ChannelId) -> Self {
        self.skip_in = Some(skip_in);
        self
    }

    fn emit_both(&mut self, ctx: &mut Context, crd_tok: SimToken, ref_tok: SimToken) {
        if matches!(crd_tok, Token::Stop(_)) {
            self.stops_emitted = self.stops_emitted.wrapping_add(1);
        }
        ctx.push(self.out_crd, crd_tok);
        ctx.push(self.out_ref, ref_tok);
    }

    /// Emits entry `pos` of `entries` and moves on to the next state.
    fn emit_entry(&mut self, ctx: &mut Context, entries: Vec<FiberEntry>, pos: usize) {
        let e = entries[pos];
        self.emit_both(ctx, tok::crd(e.coord), tok::rf(e.child as u32));
        self.state = if pos + 1 < entries.len() {
            ScanState::Emitting { entries, pos: pos + 1 }
        } else {
            ScanState::NeedStop
        };
    }

    /// Applies any pending skip requests to the in-flight fiber position.
    fn apply_skips(&mut self, ctx: &mut Context) -> Result<(), Fault> {
        let Some(skip) = self.skip_in else { return Ok(()) };
        while let Some(&first) = ctx.peek(skip) {
            let (epoch, target) = match (first, ctx.peek_nth(skip, 1)) {
                (Token::Val(Payload::Ref(epoch)), Some(&Token::Val(Payload::Crd(target)))) => (epoch, target),
                // The pair's second token is still on its way.
                (Token::Val(Payload::Ref(_)), None) => break,
                _ => return Err(Fault::Misaligned),
            };
            let current = epoch == self.stops_emitted;
            match &mut self.state {
                // Keep it; it applies to the fiber about to start.
                ScanState::Idle if current => break,
                ScanState::Emitting { entries, pos } if current => {
                    while *pos < entries.len() && entries[*pos].coord < target {
                        *pos += 1;
                    }
                }
                // Stale: that fiber already closed (or just ended), and
                // galloping would drop a later fiber's data.
                _ => {}
            }
            ctx.pop(skip);
            ctx.pop(skip);
        }
        Ok(())
    }
}

impl<L: AsRef<Level> + Send> Block for LevelScanner<L> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        if let Err(fault) = self.apply_skips(ctx) {
            return BlockStatus::Fault(fault);
        }
        match std::mem::replace(&mut self.state, ScanState::Idle) {
            ScanState::Emitting { entries, pos } => {
                if pos < entries.len() {
                    self.emit_entry(ctx, entries, pos);
                } else {
                    self.state = ScanState::NeedStop;
                }
                BlockStatus::Busy
            }
            ScanState::NeedStop => {
                let Some(&next) = ctx.peek(self.in_ref) else {
                    // Stall until the lookahead token is available (the
                    // state is put back as it was; a tick that dropped stale
                    // skip requests is not a stall).
                    self.state = ScanState::NeedStop;
                    return ctx.stall();
                };
                let level = rule::closing_stop(next);
                if level.is_some() {
                    ctx.pop(self.in_ref);
                }
                let stop = tok::stop(level.unwrap_or(0));
                self.emit_both(ctx, stop, stop);
                BlockStatus::Busy
            }
            ScanState::Idle => {
                let Some(&head) = ctx.peek(self.in_ref) else {
                    return ctx.stall();
                };
                let scan = match rule::scan(self.level.as_ref(), head) {
                    Ok(scan) => scan,
                    Err(fault) => return BlockStatus::Fault(fault),
                };
                ctx.pop(self.in_ref);
                match scan {
                    // Stay fully pipelined: emit the first entry in the
                    // same cycle the reference is consumed. An empty fiber
                    // contributes only its trailing stop.
                    Scan::Fiber(fiber) => {
                        let entries = fiber.map_or_else(Vec::new, |f| self.level.as_ref().fiber(f));
                        if entries.is_empty() {
                            self.state = ScanState::NeedStop;
                        } else {
                            self.emit_entry(ctx, entries, 0);
                        }
                    }
                    Scan::Stop(n) => self.emit_both(ctx, tok::stop(n), tok::stop(n)),
                    Scan::Done => {
                        self.emit_both(ctx, tok::done(), tok::done());
                        self.done = true;
                    }
                }
                crate::status(self.done)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::{SimulationError, Simulator};
    use sam_tensor::level::{CompressedLevel, DenseLevel};
    use std::sync::Arc;

    fn paper_levels() -> (Arc<Level>, Arc<Level>) {
        // The DCSR matrix of paper Figure 1c.
        let i = Level::Compressed(CompressedLevel::new(4, vec![0, 3], vec![0, 1, 3]));
        let j = Level::Compressed(CompressedLevel::new(4, vec![0, 1, 3, 5], vec![1, 0, 2, 1, 3]));
        (Arc::new(i), Arc::new(j))
    }

    fn tokens_to_string(tokens: &[sam_sim::SimToken]) -> String {
        let mut parts: Vec<String> = tokens
            .iter()
            .map(|t| match t {
                Token::Val(Payload::Crd(c)) => c.to_string(),
                Token::Val(Payload::Ref(r)) => r.to_string(),
                Token::Val(Payload::Val(v)) => v.to_string(),
                Token::Val(p @ Payload::Bits { .. }) => p.to_string(),
                Token::Stop(n) => format!("S{n}"),
                Token::Empty => "N".to_string(),
                Token::Done => "D".to_string(),
            })
            .collect();
        parts.reverse();
        parts.join(", ")
    }

    #[test]
    fn figure2_scanner_composition() {
        // Two chained scanners over the Figure 1 matrix reproduce the streams
        // of paper Figure 2.
        let (li, lj) = paper_levels();
        let mut sim = Simulator::new();
        let root = sim.add_channel("root");
        let bi_crd = sim.add_channel("bi_crd");
        let bi_ref = sim.add_channel("bi_ref");
        let bj_crd = sim.add_channel("bj_crd");
        let bj_ref = sim.add_channel("bj_ref");
        sim.record(bi_crd);
        sim.record(bj_crd);
        sim.record(bj_ref);
        sim.add_block(Box::new(LevelScanner::new("Bi", li, root, bi_crd, bi_ref)));
        sim.add_block(Box::new(LevelScanner::new("Bj", lj, bi_ref, bj_crd, bj_ref)));
        sim.preload(root, crate::source::root_stream());
        sim.run(1000).unwrap();
        assert_eq!(tokens_to_string(sim.history(bi_crd)), "D, S0, 3, 1, 0");
        assert_eq!(tokens_to_string(sim.history(bj_crd)), "D, S1, 3, 1, S0, 2, 0, S0, 1");
        assert_eq!(tokens_to_string(sim.history(bj_ref)), "D, S1, 4, 3, S0, 2, 1, S0, 0");
    }

    #[test]
    fn dense_level_scan_emits_all_coordinates() {
        let level = Arc::new(Level::Dense(DenseLevel::new(3, 1)));
        let mut sim = Simulator::new();
        let root = sim.add_channel("root");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        sim.record(crd);
        sim.record(rf);
        sim.add_block(Box::new(LevelScanner::new("d", level, root, crd, rf)));
        sim.preload(root, crate::source::root_stream());
        sim.run(100).unwrap();
        assert_eq!(tokens_to_string(sim.history(crd)), "D, S0, 2, 1, 0");
        assert_eq!(tokens_to_string(sim.history(rf)), "D, S0, 2, 1, 0");
    }

    #[test]
    fn empty_fiber_in_csr_produces_standalone_stop() {
        // CSR storage of the Figure 1 matrix: row 2 is empty.
        let i = Arc::new(Level::Dense(DenseLevel::new(4, 1)));
        let j =
            Arc::new(Level::Compressed(CompressedLevel::new(4, vec![0, 1, 3, 3, 5], vec![1, 0, 2, 1, 3])));
        let mut sim = Simulator::new();
        let root = sim.add_channel("root");
        let bi_crd = sim.add_channel("bi_crd");
        let bi_ref = sim.add_channel("bi_ref");
        let bj_crd = sim.add_channel("bj_crd");
        let bj_ref = sim.add_channel("bj_ref");
        sim.record(bj_crd);
        sim.add_block(Box::new(LevelScanner::new("Bi", i, root, bi_crd, bi_ref)));
        sim.add_block(Box::new(LevelScanner::new("Bj", j, bi_ref, bj_crd, bj_ref)));
        sim.preload(root, crate::source::root_stream());
        sim.run(1000).unwrap();
        // Row 2 contributes only a stop token (an empty fiber), as in Figure 8.
        assert_eq!(tokens_to_string(sim.history(bj_crd)), "D, S1, 3, 1, S0, S0, 2, 0, S0, 1");
    }

    #[test]
    fn empty_ref_token_scans_as_empty_fiber() {
        let (_, lj) = paper_levels();
        let mut sim = Simulator::new();
        let in_ref = sim.add_channel("in_ref");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        sim.record(crd);
        sim.add_block(Box::new(LevelScanner::new("Bj", lj, in_ref, crd, rf)));
        sim.preload(in_ref, vec![tok::rf(0), Token::Empty, tok::rf(2), tok::stop(0), tok::done()]);
        sim.run(1000).unwrap();
        assert_eq!(tokens_to_string(sim.history(crd)), "D, S1, 3, 1, S0, S0, 1");
    }

    #[test]
    fn stale_epoch_tagged_skip_is_dropped() {
        // Two fibers of three coordinates each. A tagged request for fiber 0
        // (epoch 0) that is only seen while fiber 1 is in flight must NOT
        // gallop fiber 1 — its coordinates could match the other operand.
        let level =
            Arc::new(Level::Compressed(CompressedLevel::new(10, vec![0, 3, 6], vec![1, 2, 3, 1, 2, 3])));
        let mut sim = Simulator::new();
        let in_ref = sim.add_channel("in_ref");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let skip = sim.add_channel("skip");
        sim.record(crd);
        sim.add_block(Box::new(LevelScanner::new("b", level, in_ref, crd, rf).with_skip(skip)));
        sim.preload(in_ref, vec![tok::rf(0), tok::rf(1), tok::stop(0), tok::done()]);
        // Epoch 5 never matches: the whole level emits only two stops.
        sim.preload(skip, vec![tok::rf(5), tok::crd(9)]);
        sim.run(1000).unwrap();
        let data: Vec<u32> =
            sim.history(crd).iter().filter_map(|t| t.value_ref().map(|p| p.expect_crd())).collect();
        assert_eq!(data, vec![1, 2, 3, 1, 2, 3], "stale skip must not drop coordinates");
    }

    #[test]
    fn matching_epoch_tagged_skip_gallops_current_fiber() {
        let level = Arc::new(Level::Compressed(CompressedLevel::new(100, vec![0, 50], (0..50).collect())));
        let mut sim = Simulator::new();
        let in_ref = sim.add_channel("in_ref");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let skip = sim.add_channel("skip");
        sim.record(crd);
        sim.add_block(Box::new(LevelScanner::new("b", level, in_ref, crd, rf).with_skip(skip)));
        sim.preload(in_ref, vec![tok::rf(0), tok::stop(0), tok::done()]);
        sim.preload(skip, vec![tok::rf(0), tok::crd(45)]);
        sim.run(1000).unwrap();
        let data: Vec<u32> =
            sim.history(crd).iter().filter_map(|t| t.value_ref().map(|p| p.expect_crd())).collect();
        assert!(data.len() <= 7, "expected a galloped scan, got {data:?}");
        assert!(data.contains(&45));
    }

    #[test]
    fn scanner_reports_done() {
        let (li, _) = paper_levels();
        let mut sim = Simulator::new();
        let root = sim.add_channel("root");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        sim.add_block(Box::new(LevelScanner::new("Bi", li, root, crd, rf)));
        sim.preload(root, crate::source::root_stream());
        let report = sim.run(100).unwrap();
        // 3 coordinates + stop + done = 5 emission cycles (plus lookahead stalls).
        assert!(report.cycles >= 5 && report.cycles <= 8, "cycles = {}", report.cycles);
    }

    /// Runs one scanner over the Figure 1 matrix's `j` level (three fibers)
    /// on `input`; the error it ends with, if any.
    fn scan_j(input: Vec<sam_sim::SimToken>) -> Result<(), SimulationError> {
        let (_, lj) = paper_levels();
        let mut sim = Simulator::new();
        let in_ref = sim.add_channel("in_ref");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        sim.add_block(Box::new(LevelScanner::new("Bj", lj, in_ref, crd, rf)));
        sim.preload(in_ref, input);
        sim.run(1000).map(|_| ())
    }

    #[test]
    fn a_reference_past_the_level_is_out_of_bounds() {
        let run = scan_j(vec![tok::rf(0), tok::rf(3), tok::stop(0), tok::done()]);
        assert!(
            matches!(run, Err(SimulationError::Fault { fault: Fault::RefOutOfBounds(3), ref block, .. }) if block == "Bj"),
            "{run:?}"
        );
    }

    #[test]
    fn a_coordinate_on_the_reference_input_is_misaligned() {
        for bad in [tok::crd(1), tok::val(1.0)] {
            let run = scan_j(vec![tok::rf(0), bad, tok::stop(0), tok::done()]);
            assert!(matches!(run, Err(SimulationError::Fault { fault: Fault::Misaligned, .. })), "{run:?}");
        }
    }

    #[test]
    fn a_skip_token_that_is_not_an_epoch_tagged_pair_is_misaligned() {
        let level = Arc::new(Level::Compressed(CompressedLevel::new(100, vec![0, 50], (0..50).collect())));
        let mut sim = Simulator::new();
        let in_ref = sim.add_channel("in_ref");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let skip = sim.add_channel("skip");
        sim.add_block(Box::new(LevelScanner::new("b", level, in_ref, crd, rf).with_skip(skip)));
        sim.preload(in_ref, vec![tok::rf(0), tok::stop(0), tok::done()]);
        sim.preload(skip, vec![tok::crd(45)]);
        let run = sim.run(1000);
        assert!(matches!(run, Err(SimulationError::Fault { fault: Fault::Misaligned, .. })), "{run:?}");
    }
}
