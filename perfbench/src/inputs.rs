//! Seeded input generation. Everything here runs before set-up timing
//! starts; the library only ever sees the generated values.

use mf_core::MultiFloat;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, tag)`, so that each input array has its own
    /// sequence and adding an array never shifts the others.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xd134_2543_de82_ef95));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * 2f64.powi(-53)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A full-precision `N`-term expansion with head in `[lo, hi)`: every
    /// component carries random bits, so no operation sees the short
    /// operands that make extended arithmetic look cheap.
    pub fn mf<const N: usize>(&mut self, lo: f64, hi: f64) -> MultiFloat<f64, N> {
        let mut c = [0.0f64; N];
        c[0] = self.range(lo, hi);
        for k in 1..N {
            c[k] = c[k - 1] * 2f64.powi(-53) * self.range(-1.0, 1.0);
        }
        MultiFloat::from_components_renorm(c)
    }

    pub fn mf_vec<const N: usize>(
        &mut self,
        len: usize,
        lo: f64,
        hi: f64,
    ) -> Vec<MultiFloat<f64, N>> {
        (0..len).map(|_| self.mf(lo, hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, tag: u64) -> Vec<u64> {
        let mut r = Rng::new(seed, tag);
        (0..4).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_per_tag() {
        assert_eq!(draws(1, 2), draws(1, 2));
        assert_ne!(draws(1, 2), draws(1, 3));
        assert_ne!(draws(1, 2), draws(2, 2));
    }

    #[test]
    fn expansions_are_canonical_and_in_range() {
        let mut r = Rng::new(9, 0);
        for _ in 0..1000 {
            let x: MultiFloat<f64, 4> = r.mf(0.5, 2.0);
            let c = x.components();
            assert!((0.5..2.0).contains(&c[0]) || c[0] == 2.0);
            for k in 1..4 {
                assert!(c[k].abs() <= c[k - 1].abs() * 2f64.powi(-52));
            }
        }
    }
}
