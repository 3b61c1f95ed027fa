//! The benchmark's own deterministic randomness: every input is derived
//! from `--seed` through this SplitMix64, so the program under test only
//! ever receives generated inputs and the same seed gives the same op
//! list on every host and toolchain.

/// SplitMix64 (Steele, Lea, Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// part of a workload does not shift the inputs of another.
    pub fn fork(seed: u64, stream: u64) -> SplitMix64 {
        let mut r = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        SplitMix64(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias is below 2^-32 for every
    /// `n` the benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `s`, sampled by binary search of
/// the cumulative weights: rank 0 is the hottest key.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty key space");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a 64 over the op list: the `op_list_hash` fact that proves two
/// runs executed the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv64 {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One shuffled block of kinds: exactly `counts[k]` copies of `k`. Op
/// lists built from such blocks hold the same mix in every round and
/// under every seed; only the order and the parameters vary.
pub fn block(counts: &[usize], rng: &mut SplitMix64) -> Vec<usize> {
    let mut kinds: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(kind, n)| std::iter::repeat_n(kind, *n))
        .collect();
    shuffle(&mut kinds, rng);
    kinds
}

/// A deterministic Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 from the published reference code.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut r = SplitMix64::new(7);
        let mut top = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut r);
            assert!(k < 1000);
            if k < 10 {
                top += 1;
            }
        }
        // The ten hottest of a thousand keys draw well over a tenth.
        assert!(top > 3000, "top-10 share {top}/10000");
    }

    #[test]
    fn a_block_holds_exactly_its_counts() {
        let mut r = SplitMix64::new(5);
        let mut b = block(&[3, 0, 2], &mut r);
        assert_ne!(b, block(&[3, 0, 2], &mut r), "two blocks, two orders");
        b.sort_unstable();
        assert_eq!(b, vec![0, 0, 0, 2, 2]);
    }

    #[test]
    fn below_covers_the_range() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
