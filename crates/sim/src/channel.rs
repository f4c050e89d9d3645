//! Channels: the simulator's model of SAM streams on wires.

use crate::payload::SimToken;
use std::collections::VecDeque;

/// Identifier of a channel within a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub usize);

/// A single-producer single-consumer, unbounded token queue connecting two
/// blocks.
///
/// A channel counts the tokens it has carried and, once
/// [`Channel::record`] is called, keeps every one of them in order.
#[derive(Debug, Clone)]
pub struct Channel {
    name: String,
    queue: VecDeque<SimToken>,
    history: Option<Vec<SimToken>>,
    total_pushed: u64,
    /// The block at the consuming end, learned the first time it looks at
    /// the channel through a [`crate::Context`]: whom the engine wakes when
    /// a token is pushed.
    reader: Option<usize>,
}

impl Channel {
    /// Creates an empty channel.
    pub fn new(name: impl Into<String>) -> Self {
        Channel { name: name.into(), queue: VecDeque::new(), history: None, total_pushed: 0, reader: None }
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pushes a token.
    pub fn push(&mut self, token: SimToken) {
        if let Some(history) = &mut self.history {
            history.push(token);
        }
        self.total_pushed += 1;
        self.queue.push_back(token);
    }

    /// Looks at the next token without consuming it.
    pub fn peek(&self) -> Option<&SimToken> {
        self.queue.front()
    }

    /// Looks `n` tokens ahead (0 = front).
    pub fn peek_nth(&self, n: usize) -> Option<&SimToken> {
        self.queue.get(n)
    }

    /// Consumes and returns the next token.
    pub fn pop(&mut self) -> Option<SimToken> {
        self.queue.pop_front()
    }

    /// Number of queued (not yet consumed) tokens.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total number of tokens ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Starts keeping every token pushed from now on (see
    /// [`Channel::history`]).
    pub fn record(&mut self) {
        self.history = Some(Vec::new());
    }

    /// Every token pushed since [`Channel::record`], oldest first; `None`
    /// when the channel is not recording.
    pub fn history(&self) -> Option<&[SimToken]> {
        self.history.as_deref()
    }

    /// Stamps `block` as the one that examines and consumes this channel.
    pub(crate) fn attach_reader(&mut self, block: usize) {
        debug_assert!(self.reader.is_none_or(|r| r == block), "channel `{}` has two readers", self.name);
        self.reader = Some(block);
    }

    /// The block a push can unblock.
    pub(crate) fn reader(&self) -> Option<usize> {
        self.reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::tok;

    #[test]
    fn push_pop_and_stats() {
        let mut c = Channel::new("crd");
        assert_eq!(c.history(), None);
        c.record();
        c.push(tok::crd(1));
        c.push(tok::stop(0));
        c.push(tok::done());
        assert_eq!(c.len(), 3);
        assert_eq!(c.pop(), Some(tok::crd(1)));
        assert_eq!(c.peek(), Some(&tok::stop(0)));
        assert_eq!(c.peek_nth(1), Some(&tok::done()));
        assert_eq!(c.total_pushed(), 3);
        assert_eq!(c.history(), Some(&[tok::crd(1), tok::stop(0), tok::done()][..]), "pops keep the log");
    }

    #[test]
    fn empty_checks() {
        let c = Channel::new("e");
        assert!(c.is_empty());
        assert_eq!(c.name(), "e");
    }
}
