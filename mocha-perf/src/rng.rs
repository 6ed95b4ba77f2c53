//! The harness's own seeded generator, so workload inputs depend on
//! `--seed` alone and not on which `rand` the program under test links.

/// SplitMix64: tiny, fast, and every seed gives a distinct full-period
/// stream, which is all workload generation needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent child stream named by `tag` (a lock id, a site id),
    /// so each chain's inputs do not depend on how chains interleave.
    #[must_use]
    pub fn fork(&self, tag: u64) -> Rng {
        let mut child = Rng(self.0 ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        child.next_u64();
        child
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the bias of the multiply-shift reduction is
    /// below 2^-32 for every `n` the workloads use.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fills `out` with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "empty range");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_forks_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut f1 = a.fork(1);
        let mut f2 = a.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
        let mut buf = [0u8; 13];
        a.fill(&mut buf);
        assert!(buf.iter().any(|&x| x != 0));
        for _ in 0..1000 {
            assert!(a.below(7) < 7);
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(4, 1.0);
        let mut rng = Rng::new(3);
        let mut hits = [0usize; 4];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        // 1 : 1/2 : 1/3 : 1/4 -> 48 %, 24 %, 16 %, 12 %.
        assert!((9000..10_200).contains(&hits[0]), "{hits:?}");
        assert!(hits[0] > hits[1] && hits[1] > hits[2] && hits[2] > hits[3]);
    }
}
