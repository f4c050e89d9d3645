//! The coordinate dropper (Definition 3.9, Figure 8).

use sam_sim::payload::tok;
use sam_sim::{Payload, SimToken};
use sam_streams::Token;

/// A coordinate dropper: removes the outer coordinates whose inner fibers
/// turned out ineffectual — empty after intersection, or all zeros after
/// computation — together with those fibers' tokens.
///
/// It buffers one inner fiber at a time; when the fiber ends it either
/// emits the fiber and its outer coordinate or drops both. Output port 0
/// is the outer coordinate stream, port 1 the inner stream. A trailing stop
/// is held back until the next token on its port, which it merges into by
/// keeping the higher level when that token is a stop too, so a dropped
/// last fiber's group-closing stop upgrades the previous fiber's stop
/// (Figure 8).
#[derive(Debug, Default)]
pub struct CoordDrop {
    /// The data tokens of the inner fiber being read.
    fiber: Vec<SimToken>,
    /// Whether that fiber holds an effectual token: a coordinate, or a
    /// value other than zero.
    effectual: bool,
    /// Each port's held-back trailing stop.
    held: Held,
}

impl CoordDrop {
    /// Takes an inner data or `Empty` token.
    #[inline]
    pub fn data(&mut self, t: SimToken) {
        if let Token::Val(p) = t {
            self.effectual |= !matches!(p, Payload::Val(v) if v == 0.0);
            self.fiber.push(t);
        }
    }

    /// Closes the inner fiber with `stop(level)` against `outer`, the outer
    /// stream's head, and `next`, the token after it if there is one yet;
    /// returns how many of the two it consumed. An outer coordinate is kept
    /// with an effectual fiber and dropped with an ineffectual one; for
    /// `level ≥ 1` the outer fiber closes too, with `next` if that is a
    /// stop and else with `stop(level - 1)`. An outer stop, `Empty` or done
    /// is structural slack: the inner stop passes through, and an outer
    /// stop with it.
    #[inline]
    pub fn close(
        &mut self,
        level: u8,
        outer: SimToken,
        next: Option<SimToken>,
        mut emit: impl FnMut(usize, SimToken),
    ) -> usize {
        let effectual = std::mem::take(&mut self.effectual);
        match outer {
            Token::Val(_) => {
                if effectual {
                    for t in self.fiber.drain(..) {
                        self.held.send(1, t, &mut emit);
                    }
                    self.held.send(1, tok::stop(level), &mut emit);
                    self.held.send(0, outer, &mut emit);
                } else {
                    self.fiber.clear();
                    if level > 0 {
                        self.held.send(1, tok::stop(level), &mut emit);
                    }
                }
                if level == 0 {
                    return 1;
                }
                match next {
                    Some(Token::Stop(n)) => {
                        self.held.send(0, tok::stop(n), &mut emit);
                        2
                    }
                    _ => {
                        self.held.send(0, tok::stop(level - 1), &mut emit);
                        1
                    }
                }
            }
            Token::Stop(_) | Token::Empty | Token::Done => {
                self.fiber.clear();
                self.held.send(1, tok::stop(level), &mut emit);
                if outer.is_stop() {
                    self.held.send(0, outer, &mut emit);
                    1
                } else {
                    0
                }
            }
        }
    }

    /// Takes an outer token left after the inner stream's done: it passes
    /// through.
    #[inline]
    pub fn rest(&mut self, outer: SimToken, mut emit: impl FnMut(usize, SimToken)) {
        self.held.send(0, outer, &mut emit);
    }

    /// Ends both output streams: whatever stop is held, then done.
    #[inline]
    pub fn finish(&mut self, mut emit: impl FnMut(usize, SimToken)) {
        for port in [1, 0] {
            self.held.send(port, tok::done(), &mut emit);
        }
    }
}

/// Each output port's held-back trailing stop level.
#[derive(Debug, Default)]
struct Held([Option<u8>; 2]);

impl Held {
    /// Emits `t` on `port`, holding a stop back (merged into a held one)
    /// and releasing the held stop before anything else.
    #[inline]
    fn send(&mut self, port: usize, t: SimToken, emit: &mut impl FnMut(usize, SimToken)) {
        let held = &mut self.0[port];
        match t {
            Token::Stop(n) => *held = Some(held.map_or(n, |prev| prev.max(n))),
            _ => {
                if let Some(level) = held.take() {
                    emit(port, tok::stop(level));
                }
                emit(port, t);
            }
        }
    }
}
