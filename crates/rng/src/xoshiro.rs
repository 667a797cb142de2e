//! xoshiro256++ 1.0 — Blackman & Vigna (2019), public domain reference
//! implementation translated to safe Rust.

use crate::source::RandomSource;
use crate::splitmix::SplitMix64;

/// xoshiro256++ 1.0: the workspace's default generator.
///
/// 256 bits of state, period `2²⁵⁶ − 1`, passes BigCrush and PractRand.
/// `jump()` advances by `2¹²⁸` steps, which yields up to `2¹²⁸`
/// non-overlapping parallel sub-sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

#[inline]
const fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Xoshiro256PlusPlus {
    /// Construct from a full 256-bit state.
    ///
    /// The state must not be all zeros (the all-zero state is a fixed point);
    /// such a state is replaced by a SplitMix64-derived non-zero one.
    #[must_use]
    pub fn from_state(state: [u64; 4]) -> Self {
        if state == [0, 0, 0, 0] {
            Self::seed_from_u64(0)
        } else {
            Self { s: state }
        }
    }

    /// Seed via SplitMix64, the method recommended by the xoshiro authors:
    /// the four state words are consecutive SplitMix64 outputs.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next(), sm.next(), sm.next(), sm.next()];
        // SplitMix64 is a bijection sequence; four consecutive outputs are
        // never all zero for any seed, but keep the guard for clarity.
        Self::from_state(s)
    }

    /// Advance the generator and return the next 64-bit output.
    #[inline]
    #[allow(clippy::should_implement_trait)] // RNG convention; these types are not iterators
    pub fn next(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Snapshot of the internal state (for checkpoint/restore).
    #[must_use]
    pub const fn state(&self) -> [u64; 4] {
        self.s
    }

    fn polynomial_jump(&mut self, table: [u64; 4]) {
        let mut acc = [0u64; 4];
        for word in table {
            for b in 0..64 {
                if (word >> b) & 1 == 1 {
                    acc[0] ^= self.s[0];
                    acc[1] ^= self.s[1];
                    acc[2] ^= self.s[2];
                    acc[3] ^= self.s[3];
                }
                self.next();
            }
        }
        self.s = acc;
    }

    /// Advance by `2¹²⁸` steps (reference `jump()` polynomial).
    pub fn jump(&mut self) {
        self.polynomial_jump([
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ]);
    }
}

impl RandomSource for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomSource;

    /// The reference implementation seeded with state {1, 2, 3, 4} — the
    /// standard cross-implementation check for xoshiro256++ (the same vector
    /// is used by `rand_xoshiro` and several other ports).
    #[test]
    fn reference_vector_state_1234() {
        let mut g = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for &e in &expected {
            assert_eq!(g.next(), e);
        }
    }

    #[test]
    fn zero_state_is_rejected() {
        let g = Xoshiro256PlusPlus::from_state([0; 4]);
        assert_ne!(g.state(), [0; 4]);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(123);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(123);
        for _ in 0..32 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn jump_commutes_with_stepping() {
        // jump(); next() must differ from next(); jump() — but
        // jump(); jump() must equal the direct 2^129 jump composition:
        // we verify the weaker, implementation-relevant property that
        // jumped streams never collide with the base stream early on.
        let base = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut a = base.clone();
        let mut b = base.clone();
        b.jump();
        let collisions = (0..1024).filter(|_| a.next() == b.next()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn bounded_u64_is_in_range() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(5);
        for bound in [1u64, 2, 3, 7, 10, 1000, u64::from(u32::MAX) + 5] {
            for _ in 0..200 {
                assert!(g.bounded_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_f64_is_in_unit_interval() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = g.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
