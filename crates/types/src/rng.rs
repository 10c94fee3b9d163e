//! The workspace's one deterministic PRNG.
//!
//! Fuzz schedules and Byzantine injection plans must replay bit-for-bit
//! from a seed, on every platform and in every future version of the
//! standard library. SplitMix64 (Steele, Lea & Flood, OOPSLA'14) is a
//! 64-bit permutation with good avalanche behaviour and a trivially
//! portable implementation, so the workspace carries its own copy
//! instead of depending on an external generator whose stream might
//! change — and carries it once, here, so a fuzz seed and an injection
//! seed drawn from it stay mutually reproducible.

/// SplitMix64 generator state.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Derives the seed for an independent stream: every fuzzing
    /// iteration gets its own schedule from one root seed, every wrapped
    /// Byzantine process its own corruption stream from one plan seed.
    pub fn stream(root: u64, index: u64) -> u64 {
        let mut g = SplitMix64(root ^ index.wrapping_mul(GOLDEN));
        g.next_u64()
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`, or 0 when `n` is 0. The degenerate case is
    /// defined (rather than asserted) because injection code derives
    /// `n` from message counts that can legitimately be zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, if any.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        assert_ne!(SplitMix64::stream(1, 0), SplitMix64::stream(1, 1));
        assert_ne!(SplitMix64::stream(1, 0), SplitMix64::stream(2, 0));
    }

    #[test]
    fn known_reference_values() {
        // Pinned so a refactor cannot silently change every schedule in
        // the regression corpus.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_zero_is_zero_and_still_advances_the_stream() {
        let (mut a, mut b) = (SplitMix64::new(3), SplitMix64::new(3));
        assert_eq!(a.below(0), 0);
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_permutes() {
        let mut g = SplitMix64::new(7);
        let mut v: Vec<u32> = (0..10).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
