//! Root reference streams.
//!
//! A SAM graph starts iterating a tensor by feeding its outermost level
//! scanner the *root* reference stream `0, D` (paper Figure 2). Graphs that
//! broadcast a whole tensor (via repeaters) also start from this stream.

use sam_sim::payload::tok;
use sam_sim::SimToken;

/// The root reference stream `D, 0` (in paper right-to-left notation): one
/// reference to the root fiber followed by the done token.
pub fn root_stream() -> [SimToken; 2] {
    [tok::rf(0), tok::done()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_stream_shape() {
        let s = root_stream();
        assert_eq!(s.len(), 2);
        assert!(s[1].is_done());
    }
}
