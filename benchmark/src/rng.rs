//! The harness's own random numbers.
//!
//! Every input the benchmark makes — home points, request streams,
//! Poisson schedules — comes from this generator, so a seed names the
//! same inputs whatever happens to the repository's vendored `rand`.

/// SplitMix64: one `u64` of state, full period, good enough for load
/// generation and trivially reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed
    /// (connections, schedules, populations) are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is below 2^-40 for the sizes used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Exponentially distributed with the given mean: the gap between
    /// two arrivals of a Poisson process.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}
