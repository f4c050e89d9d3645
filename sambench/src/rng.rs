//! The benchmark's own PRNG (SplitMix64). Every input is drawn from this,
//! so a change to `sam_tensor::synth` or the vendored `rand` stand-in
//! cannot silently change the load.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from its neighbours by `stream`
    /// (one stream per generated tensor, so adding a tensor to a corpus
    /// leaves the others as they were).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for every
    /// `n` the corpus uses and does not matter for load generation.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A small nonzero integer in `1..=5`, as `f64`: sums and products of
    /// these stay exactly representable, so results compare bit for bit.
    pub fn small_int(&mut self) -> f64 {
        (1 + self.below(5)) as f64
    }
}
