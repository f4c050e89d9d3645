//! Fiber-boundary stream splitting for the work-stealing fast backend.
//!
//! Given a node's stored input streams and its
//! [`FiberSplit`](crate::plan::FiberSplit) legality class, this module
//! plans a set of *cuts* — per-input token indices — that partition the
//! streams into segments the node's transfer function can evaluate
//! independently, such that concatenating the segment outputs reproduces
//! the serial output bit for bit. The rules are derived from the transfer
//! functions in the `node` module:
//!
//! * **Elementwise** (array loads, constant sources): the function maps
//!   one input token to one output token with no state; cut anywhere.
//! * **Lockstep** (ALUs, locators): as above but over several inputs
//!   advancing in lockstep; cut all inputs at one common index. The
//!   lockstep loops treat an exhausted source as a misalignment, so middle
//!   segments get a *synthetic* trailing done token, and the matching done
//!   each middle segment emits is stripped before concatenation.
//! * **Scanner**: the scanner holds no state between input tokens, but its
//!   trailing-stop rule peeks one token ahead: a stop directly after the
//!   fiber it just emitted is consumed and merged (level + 1). Cutting
//!   between a data/empty token and a following stop would hide the stop
//!   from the first segment, so exactly those positions are illegal
//!   ([`sam_streams::fiber::scanner_cut_is_safe`]).
//! * **Repeater**: its repeat-value state resets at every stop of the
//!   repeat-signal (crd) input, so the crd stream may be cut after any
//!   stop — but the matching ref-input cut is wherever the repeater's
//!   consumption has advanced to at that point, which this module derives
//!   by simulating the transfer function's consumption rules over the real
//!   streams. The rules consume a ref token only after peeking that it
//!   matches, so a segment boundary (peek = none) makes the same decision
//!   the serial run makes on the real token that sits beyond the cut.
//! * **AfterStop** (order-0 reducers): the accumulator flushes and resets
//!   at every stop; cut after any stop.
//! * **AfterStopPair** (order-1 reducers): the accumulator flushes at a
//!   crd/val stop *pair* only when the pair's maximum level is at least 1;
//!   cut both inputs right after such a pair. Middle segments synthesize
//!   the done pair (the accumulator is provably empty there, so no
//!   spurious flush) and strip the emitted dones.
//! * **StopOrdinal** (intersect/union): the merge loops advance both
//!   operands to their next stop and pair those stops 1:1 by ordinal,
//!   resetting all run state; cut each operand (its crd and ref streams at
//!   the same index — they move in lockstep) right after its k-th stop.
//!
//! The driver re-checks the contract at merge time (segments consumed
//! their inputs exactly; stripped tokens really were dones) and falls back
//! to inline serial evaluation of the node on any anomaly, so a malformed
//! stream produces the serial error, never a silently different output.

use crate::node::Source;
use crate::plan::FiberSplit;
use sam_sim::SimToken;
use sam_streams::fiber;
use sam_streams::Token;

/// A [`Source`] over one segment of a stored stream, optionally
/// ending in a synthetic done token.
pub(crate) struct SegSource<'a> {
    tokens: &'a [SimToken],
    pos: usize,
    synth_done: bool,
    synth_emitted: bool,
}

impl<'a> SegSource<'a> {
    pub(crate) fn new(tokens: &'a [SimToken], synth_done: bool) -> Self {
        SegSource { tokens, pos: 0, synth_done, synth_emitted: false }
    }

    /// Whether the evaluation drained every real token of the segment —
    /// the driver's anomaly check.
    pub(crate) fn fully_consumed(&self) -> bool {
        self.pos >= self.tokens.len()
    }
}

impl Source for SegSource<'_> {
    fn next(&mut self) -> Option<SimToken> {
        if let Some(&t) = self.tokens.get(self.pos) {
            self.pos += 1;
            return Some(t);
        }
        if self.synth_done && !self.synth_emitted {
            self.synth_emitted = true;
            return Some(Token::Done);
        }
        None
    }

    fn peek(&mut self) -> Option<SimToken> {
        if let Some(&t) = self.tokens.get(self.pos) {
            return Some(t);
        }
        (self.synth_done && !self.synth_emitted).then_some(Token::Done)
    }
}

/// A planned segmentation of one node's inputs.
pub(crate) struct SplitPlan {
    /// `boundaries[s][i]` — the token index at which segment `s` ends on
    /// input `i`. Segment `s` spans `boundaries[s-1][i]..boundaries[s][i]`
    /// (from 0 for the first); the final segment runs to the end of each
    /// stream. There are `segments() - 1` boundary rows.
    pub(crate) boundaries: Vec<Vec<usize>>,
    /// Whether middle segments append a synthetic done to every input and
    /// strip the matching trailing done from every output.
    pub(crate) synth_done: bool,
}

impl SplitPlan {
    /// Total number of segments.
    pub(crate) fn segments(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The `(start, end)` token range of segment `s` on input `i`;
    /// `input_len` is that stream's total length.
    pub(crate) fn range(&self, s: usize, i: usize, input_len: usize) -> (usize, usize) {
        let start = if s == 0 { 0 } else { self.boundaries[s - 1][i] };
        let end = if s == self.boundaries.len() { input_len } else { self.boundaries[s][i] };
        (start, end)
    }
}

/// Plans cuts splitting `inputs` into about `segments` independently
/// evaluable pieces under the `kind` legality rule, with segment sizes on
/// an adaptive ramp (small early so every worker starts immediately, large
/// late so per-task overhead amortizes). Returns `None` when the streams
/// admit no legal cut (or the kind is [`FiberSplit::No`]).
pub(crate) fn plan_cuts(kind: FiberSplit, inputs: &[&[SimToken]], segments: usize) -> Option<SplitPlan> {
    if segments < 2 || inputs.is_empty() {
        return None;
    }
    let len = inputs[0].len();
    let targets = fiber::ramp_targets(len, segments);
    let plan = match kind {
        FiberSplit::No => return None,
        FiberSplit::Elementwise => {
            let legal: Vec<usize> = (1..len).collect();
            SplitPlan { boundaries: row_per_cut(fiber::snap_targets(&targets, &legal), 1), synth_done: false }
        }
        FiberSplit::Lockstep => {
            if inputs.iter().any(|s| s.len() != len) {
                return None;
            }
            let legal: Vec<usize> = (1..len).collect();
            SplitPlan {
                boundaries: row_per_cut(fiber::snap_targets(&targets, &legal), inputs.len()),
                synth_done: true,
            }
        }
        FiberSplit::Scanner => {
            let legal: Vec<usize> = (1..len).filter(|&p| fiber::scanner_cut_is_safe(inputs[0], p)).collect();
            SplitPlan { boundaries: row_per_cut(fiber::snap_targets(&targets, &legal), 1), synth_done: false }
        }
        FiberSplit::AfterStop => {
            let legal = fiber::after_stop_positions(inputs[0]);
            SplitPlan { boundaries: row_per_cut(fiber::snap_targets(&targets, &legal), 1), synth_done: false }
        }
        FiberSplit::AfterStopPair => {
            let [crd, val] = inputs else { return None };
            if crd.len() != val.len() {
                return None;
            }
            let legal: Vec<usize> = (1..len)
                .filter(|&p| match (&crd[p - 1], &val[p - 1]) {
                    (Token::Stop(nc), Token::Stop(nv)) => *nc.max(nv) >= 1,
                    _ => false,
                })
                .collect();
            SplitPlan { boundaries: row_per_cut(fiber::snap_targets(&targets, &legal), 2), synth_done: true }
        }
        FiberSplit::Repeater => plan_repeater(inputs, segments)?,
        FiberSplit::StopOrdinal => plan_stop_ordinal(inputs, segments)?,
    };
    (plan.segments() >= 2).then_some(plan)
}

/// Expands single-stream cut positions into per-input boundary rows for
/// kinds where every input is cut at the same index.
fn row_per_cut(cuts: Vec<usize>, inputs: usize) -> Vec<Vec<usize>> {
    cuts.into_iter().map(|p| vec![p; inputs]).collect()
}

/// Repeater cuts: the crd (repeat-signal) input is cut after stops; the
/// ref input cut is the number of ref tokens the transfer function has
/// consumed by that point, found by simulating its consumption rules once
/// over the full streams.
fn plan_repeater(inputs: &[&[SimToken]], segments: usize) -> Option<SplitPlan> {
    let [crd, rf] = inputs else { return None };
    // ref_pos_after[p] = ref tokens consumed by crd[..p].
    let mut ref_pos_after = Vec::with_capacity(crd.len() + 1);
    ref_pos_after.push(0usize);
    let mut rp = 0usize;
    let mut have_current = false;
    for t in *crd {
        match t {
            Token::Val(_) => {
                if !have_current {
                    // Serial fetches the fiber's reference unconditionally;
                    // a non-data token there is a misalignment — leave the
                    // node to the serial path so it reports the error.
                    match rf.get(rp) {
                        Some(Token::Val(_) | Token::Empty) => rp += 1,
                        _ => return None,
                    }
                    have_current = true;
                }
            }
            Token::Empty => {}
            Token::Stop(n) => {
                if !have_current {
                    if let Some(Token::Val(_) | Token::Empty) = rf.get(rp) {
                        rp += 1;
                    }
                }
                have_current = false;
                if *n > 0 {
                    if let Some(Token::Stop(_)) = rf.get(rp) {
                        rp += 1;
                    }
                }
            }
            Token::Done => {}
        }
        ref_pos_after.push(rp);
    }
    let legal = fiber::after_stop_positions(crd);
    let targets = fiber::ramp_targets(crd.len(), segments);
    let cuts = fiber::snap_targets(&targets, &legal);
    let boundaries = cuts.into_iter().map(|p| vec![p, ref_pos_after[p]]).collect();
    Some(SplitPlan { boundaries, synth_done: false })
}

/// Intersect/union cuts: each operand's crd and ref streams advance in
/// lockstep, and the merge pairs the operands' stops 1:1 by ordinal — so
/// segment `k` boundaries sit right after operand A's k-th stop and
/// operand B's k-th stop. Inputs arrive as `[crd_a, crd_b, ref_a, ref_b]`.
fn plan_stop_ordinal(inputs: &[&[SimToken]], segments: usize) -> Option<SplitPlan> {
    let [crd_a, crd_b, ref_a, ref_b] = inputs else { return None };
    let stops_a = fiber::after_stop_positions(crd_a);
    let stops_b = fiber::after_stop_positions(crd_b);
    // The crd/ref pair of an operand must be stop-aligned position for
    // position, or the serial merge would misalign; bail to serial if not.
    if fiber::after_stop_positions(ref_a) != stops_a || fiber::after_stop_positions(ref_b) != stops_b {
        return None;
    }
    let ordinals = stops_a.len().min(stops_b.len());
    if ordinals == 0 {
        return None;
    }
    // Ramp over stop ordinals instead of token positions: pick the k-th
    // stop boundaries so segments hold linearly growing fiber counts.
    let targets = fiber::ramp_targets(ordinals + 1, segments);
    let mut boundaries = Vec::new();
    let mut last = 0usize;
    for k in targets {
        let k = k.min(ordinals).max(last + 1);
        if k > ordinals {
            break;
        }
        boundaries.push(vec![stops_a[k - 1], stops_b[k - 1], stops_a[k - 1], stops_b[k - 1]]);
        last = k;
    }
    Some(SplitPlan { boundaries, synth_done: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::tok;

    #[test]
    fn elementwise_cuts_anywhere() {
        let s: Vec<SimToken> = (0..10).map(tok::rf).chain([tok::done()]).collect();
        let plan = plan_cuts(FiberSplit::Elementwise, &[&s], 4).expect("splittable");
        assert!(plan.segments() >= 2);
        assert!(!plan.synth_done);
        // Ranges tile the stream exactly.
        let mut covered = 0;
        for seg in 0..plan.segments() {
            let (start, end) = plan.range(seg, 0, s.len());
            assert_eq!(start, covered);
            covered = end;
        }
        assert_eq!(covered, s.len());
    }

    #[test]
    fn scanner_cuts_avoid_merged_stops() {
        // rf S0 rf S0 ... — a cut between rf and S0 is illegal.
        let mut s: Vec<SimToken> = Vec::new();
        for i in 0..20 {
            s.push(tok::rf(i));
            s.push(tok::stop(0));
        }
        s.push(tok::done());
        let plan = plan_cuts(FiberSplit::Scanner, &[&s], 4).expect("splittable");
        for row in &plan.boundaries {
            let p = row[0];
            assert!(
                !(matches!(s[p - 1], Token::Val(_) | Token::Empty) && s[p].is_stop()),
                "cut at {p} splits a merged stop"
            );
        }
    }

    #[test]
    fn stop_ordinal_aligns_both_operands() {
        // Operand A: 4 fibers of 2; operand B: 4 fibers of 1.
        let fibers = |per: usize| -> Vec<SimToken> {
            let mut s = Vec::new();
            for f in 0..4u32 {
                for e in 0..per as u32 {
                    s.push(tok::crd(f * 10 + e));
                }
                s.push(tok::stop(0));
            }
            s.push(tok::done());
            s
        };
        let (ca, cb) = (fibers(2), fibers(1));
        let (ra, rb) = (fibers(2), fibers(1));
        let plan = plan_cuts(FiberSplit::StopOrdinal, &[&ca, &cb, &ra, &rb], 3).expect("splittable");
        assert!(plan.synth_done);
        for row in &plan.boundaries {
            // Each operand's boundary sits right after one of its stops,
            // and both operands cut at the same stop ordinal.
            assert!(ca[row[0] - 1].is_stop());
            assert!(cb[row[1] - 1].is_stop());
            let ord_a = ca[..row[0]].iter().filter(|t| t.is_stop()).count();
            let ord_b = cb[..row[1]].iter().filter(|t| t.is_stop()).count();
            assert_eq!(ord_a, ord_b);
            assert_eq!(row[0], row[2]);
            assert_eq!(row[1], row[3]);
        }
    }

    #[test]
    fn repeater_ref_cut_tracks_consumption() {
        // crd: two fibers of 2 data tokens; ref: one data token per fiber.
        let crd: Vec<SimToken> =
            vec![tok::crd(0), tok::crd(1), tok::stop(0), tok::crd(2), tok::crd(3), tok::stop(1), tok::done()];
        let rf: Vec<SimToken> = vec![tok::rf(7), tok::rf(8), tok::stop(0), tok::done()];
        let plan = plan_cuts(FiberSplit::Repeater, &[&crd, &rf], 2).expect("splittable");
        // The only legal crd cut is after the first stop (position 3); by
        // then exactly one ref data token has been consumed.
        assert_eq!(plan.boundaries, vec![vec![3, 1]]);
    }

    #[test]
    fn degenerate_streams_refuse_to_split() {
        let tiny: Vec<SimToken> = vec![tok::done()];
        assert!(plan_cuts(FiberSplit::Elementwise, &[&tiny], 4).is_none());
        assert!(plan_cuts(FiberSplit::Scanner, &[&tiny], 4).is_none());
        let no_stops: Vec<SimToken> = vec![tok::crd(1), tok::crd(2), tok::done()];
        assert!(plan_cuts(FiberSplit::AfterStop, &[&no_stops], 4).is_none());
        assert!(plan_cuts(FiberSplit::No, &[&no_stops], 4).is_none());
    }

    #[test]
    fn seg_source_synthesizes_done_once() {
        let s: Vec<SimToken> = vec![tok::crd(1), tok::stop(0)];
        let mut src = SegSource::new(&s, true);
        assert_eq!(src.peek(), Some(tok::crd(1)));
        assert_eq!(src.next(), Some(tok::crd(1)));
        assert_eq!(src.next(), Some(tok::stop(0)));
        assert!(src.fully_consumed());
        assert_eq!(src.peek(), Some(tok::done()));
        assert_eq!(src.next(), Some(tok::done()));
        assert_eq!(src.next(), None);
        let mut bare = SegSource::new(&s, false);
        bare.next();
        bare.next();
        assert_eq!(bare.next(), None);
    }
}
