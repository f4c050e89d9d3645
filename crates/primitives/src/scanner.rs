//! Level scanners: tensor iteration (paper Definition 3.1, Section 4.2).

use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context};
use sam_streams::Token;
use sam_tensor::level::{FiberEntry, Level};
use std::sync::Arc;

/// Internal scanner state machine.
#[derive(Debug)]
enum ScanState {
    /// Waiting for the next input reference token.
    Idle,
    /// Emitting the entries of the current fiber one per cycle.
    Emitting { entries: Vec<FiberEntry>, pos: usize },
    /// The fiber finished; waiting to see the next input token to decide the
    /// level of the trailing stop token (Section 3.3's hierarchical rule).
    NeedStop,
}

/// A level scanner for dense (uncompressed) and compressed levels.
///
/// The scanner consumes a reference stream naming fibers of its level and
/// produces a coordinate stream and a reference stream for the next level
/// (Definition 3.1). It is format agnostic (Figure 3): the same block works
/// for dense and compressed levels because both expose the fiber-view
/// interface of [`Level`].
///
/// Stop-token rule (Section 3.3): after scanning a fiber the scanner looks at
/// its next input token; it emits `S0` when another fiber follows (or the
/// stream ends) and merges into `S(n+1)` when the input carries `Sn`. Input
/// stop tokens arriving outside a fiber are incremented and passed through.
///
/// With a `skip_in` channel connected, the scanner implements coordinate
/// skipping (Section 4.2): skip tokens carry a target coordinate and the
/// scanner fast-forwards past smaller coordinates it has not yet emitted.
/// Two skip-token forms are understood:
///
/// * a bare coordinate token — applied to whatever fiber is in flight
///   (adequate for single-fiber streams, e.g. vector intersections);
/// * an *epoch-tagged pair* `Ref(epoch), Crd(target)` as emitted by
///   [`crate::Intersecter`] — the epoch counts fiber-closing stop tokens,
///   and the pair is applied only while the scanner is still emitting that
///   same fiber. A request that arrives after the fiber closed is stale and
///   dropped; without the tag it could gallop a *later* fiber past
///   coordinates that match (multi-fiber streams lag arbitrarily far behind
///   their consumers in the dataflow).
#[derive(Debug)]
pub struct LevelScanner {
    name: String,
    level: Arc<Level>,
    in_ref: ChannelId,
    out_crd: ChannelId,
    out_ref: ChannelId,
    skip_in: Option<ChannelId>,
    state: ScanState,
    /// Fiber-closing stop tokens emitted so far — the skip epoch.
    stops_emitted: u32,
    done: bool,
}

impl LevelScanner {
    /// Creates a level scanner over `level`.
    pub fn new(
        name: impl Into<String>,
        level: Arc<Level>,
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

    fn emit_both(&mut self, ctx: &mut Context, crd_tok: sam_sim::SimToken, ref_tok: sam_sim::SimToken) {
        if matches!(crd_tok, Token::Stop(_)) {
            self.stops_emitted = self.stops_emitted.wrapping_add(1);
        }
        ctx.push(self.out_crd, crd_tok);
        ctx.push(self.out_ref, ref_tok);
    }

    /// Gallops the in-flight fiber cursor past coordinates below `target`.
    fn gallop(&mut self, target: u32) {
        if let ScanState::Emitting { entries, pos } = &mut self.state {
            while *pos < entries.len() && entries[*pos].coord < target {
                *pos += 1;
            }
        }
    }

    /// Applies any pending skip tokens to the in-flight fiber position.
    fn apply_skips(&mut self, ctx: &mut Context) {
        use sam_sim::payload::Payload;
        let Some(skip) = self.skip_in else { return };
        loop {
            match ctx.peek(skip).cloned() {
                Some(Token::Val(Payload::Ref(epoch))) => {
                    // An epoch-tagged (epoch, target) pair; both tokens are
                    // pushed in one producer tick, so the pair is complete.
                    let Some(&Token::Val(p2)) = ctx.peek_nth(skip, 1) else { break };
                    if epoch != self.stops_emitted {
                        // Stale: that fiber already closed, and galloping
                        // would drop a later fiber's data.
                        ctx.pop(skip);
                        ctx.pop(skip);
                        continue;
                    }
                    match self.state {
                        ScanState::Emitting { .. } => {
                            ctx.pop(skip);
                            ctx.pop(skip);
                            self.gallop(p2.expect_crd());
                        }
                        // The fiber just ended; nothing left to skip.
                        ScanState::NeedStop => {
                            ctx.pop(skip);
                            ctx.pop(skip);
                        }
                        // Keep it; it applies to the fiber about to start.
                        ScanState::Idle => break,
                    }
                }
                Some(Token::Val(Payload::Crd(target))) => match self.state {
                    ScanState::Emitting { .. } => {
                        ctx.pop(skip);
                        self.gallop(target);
                    }
                    // Requests for the fiber that just ended are stale.
                    ScanState::NeedStop => {
                        ctx.pop(skip);
                    }
                    // Keep it; it applies to the fiber about to start.
                    ScanState::Idle => break,
                },
                Some(_) => {
                    ctx.pop(skip);
                }
                None => break,
            }
        }
    }
}

impl Block for LevelScanner {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        if self.done {
            return BlockStatus::Done;
        }
        self.apply_skips(ctx);
        let state = std::mem::replace(&mut self.state, ScanState::Idle);
        match state {
            ScanState::Emitting { entries, pos } => {
                if pos < entries.len() {
                    let e = entries[pos];
                    self.emit_both(ctx, tok::crd(e.coord), tok::rf(e.child as u32));
                    self.state = if pos + 1 >= entries.len() {
                        ScanState::NeedStop
                    } else {
                        ScanState::Emitting { entries, pos: pos + 1 }
                    };
                } else {
                    self.state = ScanState::NeedStop;
                }
                BlockStatus::Busy
            }
            ScanState::NeedStop => {
                match ctx.peek(self.in_ref) {
                    None => {
                        // Stall until the lookahead token is available
                        // (the state is put back as it was; a tick that
                        // dropped stale skip requests is not a stall).
                        self.state = ScanState::NeedStop;
                        ctx.stall()
                    }
                    Some(Token::Val(_)) | Some(Token::Empty) | Some(Token::Done) => {
                        // Another fiber (or the end of the stream) follows:
                        // close this fiber with a level-0 stop.
                        self.emit_both(ctx, tok::stop(0), tok::stop(0));
                        self.state = ScanState::Idle;
                        BlockStatus::Busy
                    }
                    Some(Token::Stop(n)) => {
                        let level = *n;
                        ctx.pop(self.in_ref);
                        self.emit_both(ctx, tok::stop(level + 1), tok::stop(level + 1));
                        self.state = ScanState::Idle;
                        BlockStatus::Busy
                    }
                }
            }
            ScanState::Idle => {
                let Some(head) = ctx.peek(self.in_ref).cloned() else {
                    return ctx.stall();
                };
                match head {
                    Token::Val(p) => {
                        ctx.pop(self.in_ref);
                        let fiber = p.expect_ref() as usize;
                        let entries = self.level.fiber(fiber);
                        if entries.is_empty() {
                            // An empty fiber contributes only its trailing stop.
                            self.state = ScanState::NeedStop;
                        } else {
                            // Stay fully pipelined: emit the first entry in the
                            // same cycle the reference is consumed.
                            let e = entries[0];
                            self.emit_both(ctx, tok::crd(e.coord), tok::rf(e.child as u32));
                            self.state = if entries.len() == 1 {
                                ScanState::NeedStop
                            } else {
                                ScanState::Emitting { entries, pos: 1 }
                            };
                        }
                        BlockStatus::Busy
                    }
                    Token::Empty => {
                        // A missing operand reference (from a union) scans as
                        // an empty fiber.
                        ctx.pop(self.in_ref);
                        self.state = ScanState::NeedStop;
                        BlockStatus::Busy
                    }
                    Token::Stop(n) => {
                        ctx.pop(self.in_ref);
                        self.emit_both(ctx, tok::stop(n + 1), tok::stop(n + 1));
                        BlockStatus::Busy
                    }
                    Token::Done => {
                        ctx.pop(self.in_ref);
                        self.emit_both(ctx, tok::done(), tok::done());
                        self.done = true;
                        BlockStatus::Done
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::Payload;
    use sam_sim::Simulator;
    use sam_tensor::level::{CompressedLevel, DenseLevel};

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
    fn coordinate_skipping_reduces_emitted_tokens() {
        // A long fiber with a skip request jumping most of it.
        let level = Arc::new(Level::Compressed(CompressedLevel::new(100, vec![0, 50], (0..50).collect())));
        let mut sim = Simulator::new();
        let root = sim.add_channel("root");
        let crd = sim.add_channel("crd");
        let rf = sim.add_channel("ref");
        let skip = sim.add_channel("skip");
        sim.record(crd);
        sim.add_block(Box::new(LevelScanner::new("b", level, root, crd, rf).with_skip(skip)));
        sim.preload(root, crate::source::root_stream());
        sim.preload(skip, vec![tok::crd(45)]);
        sim.run(1000).unwrap();
        // Coordinates 1..44 were skipped: the first coordinate is emitted
        // before the skip is applied, then the scan resumes at 45.
        let data: Vec<u32> =
            sim.history(crd).iter().filter_map(|t| t.value_ref().map(|p| p.expect_crd())).collect();
        assert!(data.len() <= 7, "expected a handful of coordinates, got {data:?}");
        assert!(data.contains(&45));
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
}
