//! The level and value writers (Definition 3.8).

use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;
use sam_tensor::level::CompressedLevel;

/// A level writer: builds a compressed level (segment and coordinate
/// arrays) from one coordinate stream. Every stop closes the fiber being
/// written.
#[derive(Debug)]
pub struct LevelWrite {
    coords: Vec<u32>,
    seg: Vec<usize>,
}

impl Default for LevelWrite {
    fn default() -> Self {
        LevelWrite::reusing(Vec::new(), Vec::new())
    }
}

impl LevelWrite {
    /// A level writer that writes into `coords` and `seg`, emptied first
    /// but keeping their capacity: a caller that keeps a finished level's
    /// arrays hands them back here instead of allocating.
    pub fn reusing(mut coords: Vec<u32>, mut seg: Vec<usize>) -> Self {
        coords.clear();
        seg.clear();
        seg.push(0);
        LevelWrite { coords, seg }
    }

    /// Takes one token of the coordinate stream; `Empty` and done write
    /// nothing.
    #[inline]
    pub fn step(&mut self, t: SimToken) -> Result<(), Fault> {
        match t {
            Token::Val(Payload::Crd(c)) => self.coords.push(c),
            Token::Val(_) => return Err(Fault::Misaligned),
            Token::Stop(_) => self.seg.push(self.coords.len()),
            Token::Empty | Token::Done => {}
        }
        Ok(())
    }

    /// The level written so far, for a dimension of size `dim`, with a
    /// fiber still open closed.
    pub fn finish(mut self, dim: usize) -> CompressedLevel {
        if self.seg.last() != Some(&self.coords.len()) {
            self.seg.push(self.coords.len());
        }
        CompressedLevel::new(dim, self.seg, self.coords)
    }
}

/// A values writer: the store mode of the array block wrapped by a level
/// writer. `Empty` stores an explicit zero; stops and done store nothing.
#[derive(Debug, Default)]
pub struct ValWrite {
    vals: Vec<f64>,
}

impl ValWrite {
    /// A values writer that writes into `vals`, emptied first but keeping
    /// its capacity.
    pub fn reusing(mut vals: Vec<f64>) -> Self {
        vals.clear();
        ValWrite { vals }
    }

    /// Takes one token of the value stream.
    #[inline]
    pub fn step(&mut self, t: SimToken) -> Result<(), Fault> {
        match t {
            Token::Val(Payload::Val(v)) => self.vals.push(v),
            Token::Val(_) => return Err(Fault::Misaligned),
            Token::Empty => self.vals.push(0.0),
            Token::Stop(_) | Token::Done => {}
        }
        Ok(())
    }

    /// The values written so far.
    pub fn finish(self) -> Vec<f64> {
        self.vals
    }
}
