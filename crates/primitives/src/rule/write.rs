//! The level and value writers (Definition 3.8).

use sam_sim::{Fault, Payload, SimToken};
use sam_streams::Token;
use sam_tensor::level::CompressedLevel;

/// A level writer: builds a compressed level (segment and coordinate
/// arrays) from one coordinate stream. Every stop closes the fiber being
/// written.
#[derive(Debug)]
pub struct LevelWrite {
    dim: usize,
    coords: Vec<u32>,
    seg: Vec<usize>,
    /// The least coordinate the open fiber may take next.
    next: usize,
}

impl LevelWrite {
    /// A level writer for a dimension of size `dim`.
    pub fn new(dim: usize) -> Self {
        LevelWrite::reusing(dim, Vec::new(), Vec::new())
    }

    /// [`LevelWrite::new`] writing into `coords` and `seg`, emptied first
    /// but keeping their capacity: a caller that keeps a finished level's
    /// arrays hands them back here instead of allocating.
    pub fn reusing(dim: usize, mut coords: Vec<u32>, mut seg: Vec<usize>) -> Self {
        coords.clear();
        seg.clear();
        seg.push(0);
        LevelWrite { dim, coords, seg, next: 0 }
    }

    /// Takes one token of the coordinate stream; `Empty` and done write
    /// nothing. A coordinate that does not ascend within its fiber, or lies
    /// past the dimension, is misaligned.
    #[inline]
    pub fn step(&mut self, t: SimToken) -> Result<(), Fault> {
        match t {
            Token::Val(Payload::Crd(c)) if (self.next..self.dim).contains(&(c as usize)) => {
                self.coords.push(c);
                self.next = c as usize + 1;
            }
            Token::Val(_) => return Err(Fault::Misaligned),
            Token::Stop(_) => {
                self.seg.push(self.coords.len());
                self.next = 0;
            }
            Token::Empty | Token::Done => {}
        }
        Ok(())
    }

    /// The level written so far, with a fiber still open closed; its
    /// coordinates are as [`LevelWrite::step`] checked them.
    pub fn finish(mut self) -> CompressedLevel {
        if self.seg.last() != Some(&self.coords.len()) {
            self.seg.push(self.coords.len());
        }
        CompressedLevel { dim: self.dim, seg: self.seg, crd: self.coords }
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

#[cfg(test)]
mod tests {
    use super::*;
    use sam_sim::payload::tok;

    /// The level of `stream`, or the writer's fault.
    fn write(dim: usize, stream: &[SimToken]) -> Result<CompressedLevel, Fault> {
        let mut write = LevelWrite::new(dim);
        stream.iter().try_for_each(|&t| write.step(t))?;
        Ok(write.finish())
    }

    /// Coordinates ascend within a fiber and start over in the next one;
    /// one that does not ascend, or lies past the dimension, is misaligned
    /// the moment it arrives.
    #[test]
    fn a_coordinate_out_of_order_or_past_the_dimension_is_misaligned() {
        let (stop, done) = (tok::stop(0), tok::done());
        let level = write(4, &[tok::crd(1), tok::crd(3), stop, tok::crd(0), tok::empty(), tok::crd(2), done]);
        assert_eq!(level, Ok(CompressedLevel::new(4, vec![0, 2, 4], vec![1, 3, 0, 2])));
        for bad in [
            [tok::crd(2), tok::crd(1)],
            [tok::crd(2), tok::crd(2)],
            [tok::crd(1), tok::crd(4)],
            [tok::crd(4), stop],
            [tok::crd(0), tok::rf(1)],
        ] {
            assert_eq!(write(4, &bad), Err(Fault::Misaligned), "{bad:?}");
        }
    }
}
