//! Fiber-boundary analysis for splitting finished token streams.
//!
//! The work-stealing fast backend parallelizes *within* a node by cutting
//! its input streams into segments at fiber boundaries (stop tokens) and
//! evaluating the segments as independent stealable tasks. This module
//! holds the stream-level machinery: finding candidate cut positions,
//! checking per-operator legality predicates, and laying out an adaptive
//! ramp of segment sizes (small segments early so workers start quickly,
//! large segments late so per-task overhead amortizes).
//!
//! A *cut position* `p` splits `tokens` into `tokens[..p]` and
//! `tokens[p..]`. Valid cuts always satisfy `1 <= p <= len - 1`, so the
//! stream-terminating [`Token::Done`] stays in the final segment.

use crate::token::Token;

/// Positions immediately after each stop token, in stream order.
///
/// The `k`-th entry (0-based) is the cut position right after the `k`-th
/// [`Token::Stop`] — which is also the ordinal used to align cuts across
/// the operands of a co-iterating merger. Positions at or past the end of
/// the stream are excluded.
///
/// ```
/// use sam_streams::{fiber, Token};
/// let s: Vec<Token<u32>> = vec![
///     Token::Val(1), Token::Stop(0), Token::Val(2), Token::Stop(1), Token::Done,
/// ];
/// assert_eq!(fiber::after_stop_positions(&s), vec![2, 4]);
/// ```
pub fn after_stop_positions<T>(tokens: &[Token<T>]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| t.is_stop() && i + 1 < tokens.len())
        .map(|(i, _)| i + 1)
        .collect()
}

/// Whether cutting a level scanner's reference input at `p` is safe.
///
/// A scanner that has just emitted a fiber peeks at its next input token:
/// if that token is a stop, the scanner consumes it and re-emits it with
/// the level bumped, *merging* the fiber boundary into its own. Cutting
/// between a data (or empty) token and the following stop would hide the
/// stop from the first segment — the scanner would emit `Stop(0)` then a
/// separate `Stop(n+1)` instead of the single merged stop the serial run
/// produces. Every other position is safe: the scanner's state is empty
/// between input tokens.
pub fn scanner_cut_is_safe<T>(tokens: &[Token<T>], p: usize) -> bool {
    if p == 0 || p >= tokens.len() {
        return false;
    }
    let prev_opens_merge = matches!(tokens[p - 1], Token::Val(_) | Token::Empty);
    !(prev_opens_merge && tokens[p].is_stop())
}

/// Cut targets implementing the adaptive ramp: `segments` cuts over a
/// stream of `len` tokens, with segment sizes growing linearly (the first
/// segment is the smallest, the last the largest). Returns the cumulative
/// positions *between* segments — `segments - 1` values, each in
/// `1..len` — suitable for snapping forward to the nearest legal cut.
///
/// ```
/// use sam_streams::fiber;
/// // 4 segments over 100 tokens: sizes 10, 20, 30, 40.
/// assert_eq!(fiber::ramp_targets(100, 4), vec![10, 30, 60]);
/// assert!(fiber::ramp_targets(100, 1).is_empty());
/// ```
pub fn ramp_targets(len: usize, segments: usize) -> Vec<usize> {
    if segments < 2 || len < 2 {
        return Vec::new();
    }
    let total_weight = segments * (segments + 1) / 2;
    let mut targets = Vec::with_capacity(segments - 1);
    let mut cum_weight = 0usize;
    for i in 0..segments - 1 {
        cum_weight += i + 1;
        let p = (len * cum_weight / total_weight).clamp(1, len - 1);
        targets.push(p);
    }
    targets
}

/// Snaps each ramp target forward to the first legal cut at or after it,
/// deduplicating and keeping the result strictly increasing. `legal` is
/// the sorted list of legal cut positions (each in `1..len`).
///
/// ```
/// use sam_streams::fiber;
/// assert_eq!(fiber::snap_targets(&[3, 8, 12], &[5, 9, 10, 20]), vec![5, 9, 20]);
/// assert_eq!(fiber::snap_targets(&[15], &[5, 9]), Vec::<usize>::new());
/// ```
pub fn snap_targets(targets: &[usize], legal: &[usize]) -> Vec<usize> {
    let mut cuts = Vec::with_capacity(targets.len());
    let mut last = 0usize;
    for &t in targets {
        let want = t.max(last + 1);
        if let Some(&p) = legal.iter().find(|&&p| p >= want) {
            cuts.push(p);
            last = p;
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    fn v(c: u32) -> Token<u32> {
        Token::Val(c)
    }

    #[test]
    fn after_stop_positions_skip_trailing_stop() {
        // Stop right before Done still yields a position (Done is in range),
        // but a stop that *is* the last token yields none.
        let s = vec![v(1), Token::Stop(0), v(2), Token::Stop(1)];
        assert_eq!(after_stop_positions(&s), vec![2]);
        let with_done = vec![v(1), Token::Stop(0), Token::Done];
        assert_eq!(after_stop_positions(&with_done), vec![2]);
    }

    #[test]
    fn scanner_safety_rejects_val_then_stop() {
        let s = vec![v(1), Token::Stop(0), v(2), Token::Stop(1), Token::Done];
        // p=1: prev Val, cur Stop — the scanner would merge them. Unsafe.
        assert!(!scanner_cut_is_safe(&s, 1));
        // p=2: prev Stop, cur Val. Safe.
        assert!(scanner_cut_is_safe(&s, 2));
        // p=3: prev Val, cur Stop. Unsafe.
        assert!(!scanner_cut_is_safe(&s, 3));
        // p=4: prev Stop, cur Done. Safe.
        assert!(scanner_cut_is_safe(&s, 4));
        // Bounds: 0 and len are never cuts.
        assert!(!scanner_cut_is_safe(&s, 0));
        assert!(!scanner_cut_is_safe(&s, 5));
    }

    #[test]
    fn scanner_safety_rejects_empty_then_stop() {
        let s: Vec<Token<u32>> = vec![Token::Empty, Token::Stop(0), Token::Done];
        assert!(!scanner_cut_is_safe(&s, 1));
        assert!(scanner_cut_is_safe(&s, 2));
    }

    #[test]
    fn ramp_is_monotone_and_in_range() {
        for len in [2usize, 7, 100, 4096] {
            for segments in [2usize, 3, 8] {
                let t = ramp_targets(len, segments);
                assert_eq!(t.len(), segments - 1);
                for w in t.windows(2) {
                    assert!(w[0] <= w[1]);
                }
                assert!(t.iter().all(|&p| p >= 1 && p < len), "len={len} segs={segments}: {t:?}");
            }
        }
        assert!(ramp_targets(0, 4).is_empty());
        assert!(ramp_targets(100, 0).is_empty());
    }

    #[test]
    fn ramp_segments_grow() {
        let t = ramp_targets(1000, 5);
        let mut sizes = Vec::new();
        let mut prev = 0;
        for &p in &t {
            sizes.push(p - prev);
            prev = p;
        }
        sizes.push(1000 - prev);
        for w in sizes.windows(2) {
            assert!(w[0] <= w[1], "sizes not nondecreasing: {sizes:?}");
        }
    }

    #[test]
    fn snapping_dedups_and_stays_increasing() {
        // Two targets snapping to the same legal cut keep only one of it.
        assert_eq!(snap_targets(&[2, 3], &[10, 20]), vec![10, 20]);
        assert_eq!(snap_targets(&[2, 3], &[10]), vec![10]);
        assert!(snap_targets(&[5], &[]).is_empty());
    }
}
