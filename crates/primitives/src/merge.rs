//! Stream merging: intersection and union (paper Definitions 3.2 and 3.3).

use crate::rule::{self, Merge};
use sam_sim::payload::tok;
use sam_sim::{Block, BlockStatus, ChannelId, Context, Fault, SimToken};

/// A binary merger's timing over [`rule::merge`]: it waits for the heads of
/// all four inputs, asks the rule what they do, and consumes and emits what
/// the rule says, one step per cycle — at most one token from each input.
/// `UNION` picks the unioner's emit rule; see [`Intersecter`] and
/// [`Unioner`].
#[derive(Debug)]
pub struct Merger<const UNION: bool> {
    name: String,
    ports: MergePorts,
    skip_out: [Option<ChannelId>; 2],
    /// Stop tokens consumed per operand — the skip epoch, which only the
    /// intersecter's skip requests carry.
    stops: [u32; 2],
    done: bool,
}

/// A binary coordinate intersecter (Definition 3.2).
///
/// Two pairs of coordinate and reference streams enter; one coordinate stream
/// and two reference streams leave. A coordinate (with both operands'
/// references) is emitted only when both inputs carry it.
///
/// With skip channels connected (Section 4.2), a mismatch sends the larger
/// coordinate back to the trailing operand's level scanner so it can gallop
/// forward. Skip requests are *epoch-tagged*: each is the token pair
/// `Ref(epoch), Crd(target)` where the epoch counts the stop tokens this
/// block has consumed from that operand — i.e. which fiber the request is
/// about. The scanner drops requests whose fiber already closed, which is
/// what keeps skipping sound on multi-fiber streams (see
/// [`crate::LevelScanner`]).
pub type Intersecter = Merger<false>;

/// A binary coordinate unioner (Definition 3.3).
///
/// Emits a coordinate whenever at least one input carries it; the reference
/// output of an operand that lacks the coordinate carries an empty (`N`)
/// token, as in paper Figure 5.
pub type Unioner = Merger<true>;

impl<const UNION: bool> Merger<UNION> {
    /// Creates a binary merger.
    pub fn new(
        name: impl Into<String>,
        in_crd: [ChannelId; 2],
        in_ref: [ChannelId; 2],
        out_crd: ChannelId,
        out_ref: [ChannelId; 2],
    ) -> Self {
        let ports = MergePorts { in_crd, in_ref, out: [out_crd, out_ref[0], out_ref[1]] };
        Merger { name: name.into(), ports, skip_out: [None, None], stops: [0, 0], done: false }
    }

    /// One cycle: the rule's step over the four heads, once all are there.
    #[inline(always)]
    fn step(&mut self, ctx: &mut Context) -> Result<BlockStatus, Fault> {
        if self.done {
            return Ok(BlockStatus::Done);
        }
        let Some([a, b, ra, rb]) = self.ports.heads(ctx) else {
            return Ok(ctx.stall());
        };
        match rule::merge::<UNION>([a, b], [ra, rb])? {
            Merge::Both(out) => {
                self.ports.pop(ctx, 0);
                self.ports.pop(ctx, 1);
                if !UNION && a.is_stop() {
                    self.stops = self.stops.map(|n| n.wrapping_add(1));
                }
                self.ports.emit(ctx, out);
                if out[0].is_done() {
                    self.done = true;
                    return Ok(BlockStatus::Done);
                }
            }
            Merge::Emit { side, out } => {
                self.ports.pop(ctx, side);
                self.ports.emit(ctx, out);
            }
            Merge::Drop { side, lead } => {
                // A stop advances the skip epoch; a trailing coordinate asks
                // its scanner to gallop to `lead` (both tokens in one tick).
                self.ports.pop(ctx, side);
                if !UNION && [a, b][side].is_stop() {
                    self.stops[side] = self.stops[side].wrapping_add(1);
                }
                if let (Some(target), Some(skip)) = (lead, self.skip_out[side]) {
                    ctx.push(skip, tok::rf(self.stops[side]));
                    ctx.push(skip, tok::crd(target));
                }
            }
        }
        Ok(BlockStatus::Busy)
    }
}

impl Intersecter {
    /// Connects coordinate-skip feedback lanes individually; `None` leaves
    /// that operand without skip feedback. Used by the `sam-exec` cycle
    /// backend, which lowers whatever subset of skip edges the graph wires.
    pub fn with_skip_lanes(mut self, skip_out: [Option<ChannelId>; 2]) -> Self {
        self.skip_out = skip_out;
        self
    }
}

impl<const UNION: bool> Block for Merger<UNION> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Context) -> BlockStatus {
        self.step(ctx).unwrap_or_else(BlockStatus::Fault)
    }
}

/// The channels of a binary merger: two operands' coordinate and
/// reference streams in, one coordinate and two reference streams out.
#[derive(Debug)]
struct MergePorts {
    in_crd: [ChannelId; 2],
    in_ref: [ChannelId; 2],
    out: [ChannelId; 3],
}

impl MergePorts {
    /// The heads of the four inputs, coordinates before references; `None`
    /// until all four have arrived. A reference stream may trail its
    /// coordinate stream (a fork between them delays it a cycle), and
    /// consuming a coordinate before its reference would pair every later
    /// reference with the wrong coordinate. (The three helpers are inlined
    /// into the tick: out of line, they cost a tick half again as much.)
    #[inline(always)]
    fn heads(&self, ctx: &mut Context) -> Option<[SimToken; 4]> {
        let a = ctx.peek(self.in_crd[0]).copied();
        let b = ctx.peek(self.in_crd[1]).copied();
        let ra = ctx.peek(self.in_ref[0]).copied();
        let rb = ctx.peek(self.in_ref[1]).copied();
        Some([a?, b?, ra?, rb?])
    }

    /// Consumes the head coordinate of operand `side` and its reference.
    #[inline(always)]
    fn pop(&self, ctx: &mut Context, side: usize) {
        ctx.pop(self.in_crd[side]);
        ctx.pop(self.in_ref[side]);
    }

    /// Pushes one position to the three outputs.
    #[inline(always)]
    fn emit(&self, ctx: &mut Context, [crd, r0, r1]: [SimToken; 3]) {
        ctx.push(self.out[0], crd);
        ctx.push(self.out[1], r0);
        ctx.push(self.out[2], r1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::Simulator;

    fn crd_stream(coords: &[u32]) -> Vec<SimToken> {
        let mut v: Vec<SimToken> = coords.iter().map(|&c| tok::crd(c)).collect();
        v.push(tok::stop(0));
        v.push(tok::done());
        v
    }

    fn ref_stream(refs: &[u32]) -> Vec<SimToken> {
        let mut v: Vec<SimToken> = refs.iter().map(|&r| tok::rf(r)).collect();
        v.push(tok::stop(0));
        v.push(tok::done());
        v
    }

    fn data_crds(tokens: &[SimToken]) -> Vec<u32> {
        tokens.iter().filter_map(|t| t.value_ref().map(|p| p.expect_crd())).collect()
    }

    fn setup_merge() -> (Simulator, [ChannelId; 2], [ChannelId; 2], ChannelId, [ChannelId; 2]) {
        let mut sim = Simulator::new();
        let ca = sim.add_channel("crd_a");
        let cb = sim.add_channel("crd_b");
        let ra = sim.add_channel("ref_a");
        let rb = sim.add_channel("ref_b");
        let oc = sim.add_channel("out_crd");
        let o0 = sim.add_channel("out_ref0");
        let o1 = sim.add_channel("out_ref1");
        sim.record(oc);
        sim.record(o0);
        sim.record(o1);
        (sim, [ca, cb], [ra, rb], oc, [o0, o1])
    }

    #[test]
    fn intersect_keeps_common_coordinates() {
        let (mut sim, in_crd, in_ref, oc, or) = setup_merge();
        sim.add_block(Box::new(Intersecter::new("int", in_crd, in_ref, oc, or)));
        sim.preload(in_crd[0], crd_stream(&[0, 2, 4, 6]));
        sim.preload(in_ref[0], ref_stream(&[10, 12, 14, 16]));
        sim.preload(in_crd[1], crd_stream(&[2, 3, 6, 9]));
        sim.preload(in_ref[1], ref_stream(&[20, 23, 26, 29]));
        sim.run(1000).unwrap();
        assert_eq!(data_crds(sim.history(oc)), vec![2, 6]);
        let r0: Vec<u32> =
            sim.history(or[0]).iter().filter_map(|t| t.value_ref().map(|p| p.expect_ref())).collect();
        let r1: Vec<u32> =
            sim.history(or[1]).iter().filter_map(|t| t.value_ref().map(|p| p.expect_ref())).collect();
        assert_eq!(r0, vec![12, 16]);
        assert_eq!(r1, vec![22 - 2, 26]);
        // Fiber structure preserved.
        assert!(sim.history(oc).iter().any(|t| t.is_stop()));
        assert!(sim.history(oc).last().unwrap().is_done());
    }

    #[test]
    fn intersect_empty_result_keeps_stops() {
        let (mut sim, in_crd, in_ref, oc, or) = setup_merge();
        sim.add_block(Box::new(Intersecter::new("int", in_crd, in_ref, oc, or)));
        sim.preload(in_crd[0], crd_stream(&[0, 2]));
        sim.preload(in_ref[0], ref_stream(&[0, 1]));
        sim.preload(in_crd[1], crd_stream(&[1, 3]));
        sim.preload(in_ref[1], ref_stream(&[0, 1]));
        sim.run(1000).unwrap();
        assert!(data_crds(sim.history(oc)).is_empty());
        assert_eq!(sim.history(oc).iter().filter(|t| t.is_stop()).count(), 1);
    }

    #[test]
    fn figure5_union_example() {
        // Paper Figure 5: union of (0,2,6,8,9) and (0,1,2,3,4).
        let (mut sim, in_crd, in_ref, oc, or) = setup_merge();
        sim.add_block(Box::new(Unioner::new("uni", in_crd, in_ref, oc, or)));
        sim.preload(in_crd[0], crd_stream(&[0, 2, 6, 8, 9]));
        sim.preload(in_ref[0], ref_stream(&[0, 1, 2, 3, 4]));
        sim.preload(in_crd[1], crd_stream(&[0, 1, 2, 3, 4]));
        sim.preload(in_ref[1], ref_stream(&[0, 1, 2, 3, 4]));
        sim.run(1000).unwrap();
        assert_eq!(data_crds(sim.history(oc)), vec![0, 1, 2, 3, 4, 6, 8, 9]);
        // Operand 0's reference stream has empty tokens where only operand 1
        // had coordinates (1, 3, 4) and vice versa (6, 8, 9).
        let empties0 = sim.history(or[0]).iter().filter(|t| t.is_empty_token()).count();
        let empties1 = sim.history(or[1]).iter().filter(|t| t.is_empty_token()).count();
        assert_eq!(empties0, 3);
        assert_eq!(empties1, 3);
    }

    #[test]
    fn intersect_with_skip_emits_epoch_tagged_skip_tokens() {
        use sam_sim::payload::Payload;
        let (mut sim, in_crd, in_ref, oc, or) = setup_merge();
        let sk0 = sim.add_channel("skip0");
        let sk1 = sim.add_channel("skip1");
        sim.record(sk1);
        sim.add_block(Box::new(
            Intersecter::new("int", in_crd, in_ref, oc, or).with_skip_lanes([Some(sk0), Some(sk1)]),
        ));
        sim.preload(in_crd[0], crd_stream(&[50]));
        sim.preload(in_ref[0], ref_stream(&[0]));
        sim.preload(in_crd[1], crd_stream(&[1, 50]));
        sim.preload(in_ref[1], ref_stream(&[0, 1]));
        sim.run(1000).unwrap();
        // Operand 1 trails at coordinate 1 < 50, so a skip to 50 is sent to
        // it, tagged with the current fiber epoch (no stops consumed yet).
        let skip_tokens: Vec<Payload> =
            sim.history(sk1).iter().filter_map(|t| t.value_ref().copied()).collect();
        assert_eq!(skip_tokens, vec![Payload::Ref(0), Payload::Crd(50)]);
        assert_eq!(data_crds(sim.history(oc)), vec![50]);
    }

    #[test]
    fn union_of_disjoint_inputs_is_concatenation() {
        let (mut sim, in_crd, in_ref, oc, or) = setup_merge();
        sim.add_block(Box::new(Unioner::new("uni", in_crd, in_ref, oc, or)));
        sim.preload(in_crd[0], crd_stream(&[0, 1]));
        sim.preload(in_ref[0], ref_stream(&[0, 1]));
        sim.preload(in_crd[1], crd_stream(&[5, 6]));
        sim.preload(in_ref[1], ref_stream(&[0, 1]));
        sim.run(1000).unwrap();
        assert_eq!(data_crds(sim.history(oc)), vec![0, 1, 5, 6]);
    }

    /// A payload other than a coordinate on a coordinate input ends the run
    /// with a misalignment, on either merger, on either side, against a
    /// coordinate, an ended fiber or an ended stream.
    #[test]
    fn a_non_coordinate_head_is_misaligned() {
        use sam_sim::SimulationError;
        for union in [false, true] {
            for bad in [tok::rf(2), tok::val(2.0)] {
                for other in [crd_stream(&[2]), crd_stream(&[]), vec![tok::done()]] {
                    for side in 0..2 {
                        let (mut sim, in_crd, in_ref, oc, or) = setup_merge();
                        sim.add_block(if union {
                            Box::new(Unioner::new("merge", in_crd, in_ref, oc, or))
                        } else {
                            Box::new(Intersecter::new("merge", in_crd, in_ref, oc, or))
                        });
                        // A reference for each data token, control tokens mirrored.
                        let refs = |crd: &[SimToken]| -> Vec<SimToken> {
                            crd.iter()
                                .map(|t| if t.value_ref().is_some() { tok::rf(0) } else { *t })
                                .collect()
                        };
                        let mine = [bad, tok::stop(0), tok::done()];
                        sim.preload(in_crd[side], mine);
                        sim.preload(in_ref[side], refs(&mine));
                        sim.preload(in_crd[1 - side], other.clone());
                        sim.preload(in_ref[1 - side], refs(&other));
                        let run = sim.run(1000);
                        assert!(
                            matches!(run, Err(SimulationError::Fault { fault: Fault::Misaligned, .. })),
                            "union {union}, {bad:?} on side {side} against {other:?}: {run:?}"
                        );
                    }
                }
            }
        }
    }
}
