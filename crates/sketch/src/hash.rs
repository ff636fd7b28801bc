//! A family of independent 64-bit hash functions.
//!
//! The paper requires "F independently generated hash functions"; this
//! module derives them from a family seed with SplitMix64-style mixing.
//! All peers must share the family seed (it is a protocol constant
//! carried implicitly by the advertisement format), so hashing the same
//! user id on different peers sets the same sketch bits.

/// SplitMix64 finalizer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// `F` independent hash functions `u64 -> u64`.
///
/// The family is fully determined by `(family_seed, f)`, so it is a small
/// `Copy` value: function `i`'s seed is derived on demand rather than
/// stored, and building or copying a family never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFamily {
    family_seed: u64,
    f: usize,
}

impl HashFamily {
    /// Create a family of `f` functions from a family seed.
    pub fn new(family_seed: u64, f: usize) -> Self {
        assert!(f > 0, "empty hash family");
        HashFamily { family_seed, f }
    }

    /// Number of functions in the family.
    pub fn len(&self) -> usize {
        self.f
    }

    pub fn is_empty(&self) -> bool {
        self.f == 0
    }

    /// The seed of function `i`.
    #[inline]
    fn seed(&self, i: usize) -> u64 {
        assert!(i < self.f, "hash function {i} out of range");
        mix(mix(self.family_seed) ^ mix((i as u64).wrapping_mul(0xA24BAED4963EE407)))
    }

    /// Apply function `i` to `x`.
    #[inline]
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        mix(self.seed(i) ^ mix(x))
    }

    /// FM's `rho` statistic for function `i`: the number of trailing zero
    /// bits of the hash — geometrically distributed, `P(rho >= k) = 2^-k`.
    #[inline]
    pub fn rho(&self, i: usize, x: u64) -> u32 {
        self.hash(i, x).trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = HashFamily::new(42, 8);
        let b = HashFamily::new(42, 8);
        for i in 0..8 {
            assert_eq!(a.hash(i, 12345), b.hash(i, 12345));
        }
        let c = HashFamily::new(43, 8);
        assert_ne!(a.hash(0, 12345), c.hash(0, 12345));
    }

    #[test]
    fn functions_are_distinct() {
        let fam = HashFamily::new(7, 16);
        let x = 999u64;
        let mut outs: Vec<u64> = (0..16).map(|i| fam.hash(i, x)).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 16, "hash functions collide on a fixed input");
    }

    #[test]
    fn rho_is_geometric() {
        // Over many inputs, P(rho = 0) ~ 1/2, P(rho = 1) ~ 1/4, ...
        let fam = HashFamily::new(1, 1);
        let n = 100_000u64;
        let mut counts = [0u64; 4];
        for x in 0..n {
            let r = fam.rho(0, x);
            if (r as usize) < counts.len() {
                counts[r as usize] += 1;
            }
        }
        for (k, &c) in counts.iter().enumerate() {
            let expect = n as f64 / 2f64.powi(k as i32 + 1);
            let ratio = c as f64 / expect;
            assert!((0.9..1.1).contains(&ratio), "rho={k}: ratio {ratio}");
        }
    }

    #[test]
    fn avalanche_on_input_bit_flips() {
        let fam = HashFamily::new(3, 1);
        let base = fam.hash(0, 0);
        let mut total = 0;
        for bit in 0..64 {
            total += (base ^ fam.hash(0, 1u64 << bit)).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((avg - 32.0).abs() < 6.0, "poor avalanche: {avg}");
    }

    /// Every bit of the family is pinned: these values were recorded from
    /// the original implementation, which stored one precomputed seed per
    /// function. Sketches already on the wire depend on them.
    #[test]
    fn hash_and_rho_are_pinned() {
        #[rustfmt::skip]
        let table: [(u64, usize, usize, u64, u64, u32); 14] = [
            (0x0, 1, 0, 0x0, 0xe220a8397b1dcdaf, 0),
            (0x1, 16, 0, 0x1, 0x2efeb4f055a6abe3, 0),
            (0x1, 16, 15, 0xdeadbeef, 0x97bc2c075609a239, 0),
            (0x1ce5eed, 16, 7, 0x2a, 0x717191eaae76dd65, 0),
            (0x2a, 32, 31, u64::MAX, 0xcbd59b2ca585ea57, 0),
            (u64::MAX, 4, 3, 0x3039, 0xc705e2706083d89f, 0),
            (0x7, 255, 254, 0x9e3779b97f4a7c15, 0x37d183414f8650b1, 0),
            (0x3, 64, 33, 1 << 40, 0x933f7e132492d5ca, 1),
            (0x1adc0de5eed0, 16, 5, 91, 0x1c671cb28cc55b60, 5),
            (0x1adc0de5eed0, 16, 5, 100, 0x68d13ce8016c0200, 9),
            (0x1adc0de5eed0, 16, 5, 105, 0x72f6cc71b4f5af30, 4),
            (0x1adc0de5eed0, 16, 5, 132, 0xc0d1879e02747270, 4),
            (0x1adc0de5eed0, 16, 5, 160, 0x2d024acaaecd16a0, 5),
            (0x1adc0de5eed0, 16, 5, 193, 0x096936a31f575230, 4),
        ];
        for (seed, f, i, x, hash, rho) in table {
            let fam = HashFamily::new(seed, f);
            assert_eq!(
                fam.hash(i, x),
                hash,
                "hash({seed:#x}, f={f}, i={i}, x={x:#x})"
            );
            assert_eq!(fam.rho(i, x), rho, "rho({seed:#x}, f={f}, i={i}, x={x:#x})");
        }
        // A fold over every function of the default protocol family
        // (`GossipParams::sketch_seed`, F = 16) and a thousand user ids.
        let fam = HashFamily::new(0x1ADC_0DE5_EED0, 16);
        let (mut fold, mut rho_sum) = (0u64, 0u64);
        for i in 0..16 {
            for x in 0..1000u64 {
                fold = fold.rotate_left(5) ^ fam.hash(i, x);
                rho_sum += fam.rho(i, x) as u64;
            }
        }
        assert_eq!(fold, 0xc24e1504fe5e268f);
        assert_eq!(rho_sum, 15902);
    }

    #[test]
    #[should_panic(expected = "empty hash family")]
    fn zero_functions_rejected() {
        let _ = HashFamily::new(1, 0);
    }
}
