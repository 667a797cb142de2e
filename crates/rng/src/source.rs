//! The minimal generator trait the workspace programs against.

/// A source of uniformly distributed 64-bit words, with derived helpers.
///
/// Only [`next_u64`](RandomSource::next_u64) is required; everything else is
/// provided. The derived methods use textbook-correct constructions:
/// * bounded integers via Lemire's multiply-shift rejection method
///   (unbiased, at most one multiplication in the common case);
/// * floats via the 53-high-bits construction (`[0, 1)`, dyadic, uniform).
pub trait RandomSource {
    /// Next uniformly distributed 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Next uniformly distributed 32-bit word (upper half of a 64-bit draw —
    /// the high bits are the strongest bits of the xoshiro family).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Lemire's unbiased multiply-shift method: draw `x`, compute the 128-bit
    /// product `x·bound`; the high 64 bits are the candidate. Only when the
    /// low half lands in the biased zone (probability `< 2⁻⁶⁴·bound`) do we
    /// reject and redraw.
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 requires bound > 0");
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(bound);
        let mut low = m as u64;
        if low < bound {
            // threshold = 2^64 mod bound
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(bound);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in `[0, bound)` for 32-bit bounds. `bound` must be non-zero.
    #[inline]
    fn bounded_u32(&mut self, bound: u32) -> u32 {
        self.bounded_u64(u64::from(bound)) as u32
    }

    /// Uniform in the inclusive range `[lo, hi]`. Requires `lo <= hi`.
    #[inline]
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64 requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            self.next_u64()
        } else {
            lo + self.bounded_u64(span + 1)
        }
    }

    /// Uniform in the inclusive range `[lo, hi]` of `u32`. Requires `lo <= hi`.
    #[inline]
    fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Fill `out` with `range_u32(lo, hi)` draws, in order — the bulk
    /// form of [`range_u32`](RandomSource::range_u32). It consumes exactly
    /// the words the per-element loop would, so the two are
    /// interchangeable; through `&mut dyn RandomSource` it costs one
    /// virtual call per slice instead of one per element. Requires
    /// `lo <= hi`.
    #[inline]
    fn fill_range_u32(&mut self, lo: u32, hi: u32, out: &mut [u32]) {
        assert!(lo <= hi, "fill_range_u32 requires lo <= hi");
        let bound = u64::from(hi - lo) + 1;
        for x in out {
            *x = lo + self.bounded_u64(bound) as u32;
        }
    }

    /// Uniform in `[0, len)` as `usize` — the index helper. `len > 0`.
    #[inline]
    fn index(&mut self, len: usize) -> usize {
        self.bounded_u64(len as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits scaled by `2⁻⁵³`.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// Uniform `f64` in the open interval `(0, 1]` — safe to pass to `ln`.
    #[inline]
    fn unit_f64_open(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        ((self.next_u64() >> 11) + 1) as f64 * SCALE
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Fair coin.
    #[inline]
    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

impl<T: RandomSource + ?Sized> RandomSource for &mut T {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    #[inline]
    fn fill_range_u32(&mut self, lo: u32, hi: u32, out: &mut [u32]) {
        (**self).fill_range_u32(lo, hi, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    #[test]
    fn bounded_covers_all_residues() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[g.bounded_u64(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues mod 7 should appear");
    }

    #[test]
    fn bounded_one_is_always_zero() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(11);
        for _ in 0..32 {
            assert_eq!(g.bounded_u64(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "bound > 0")]
    fn bounded_zero_panics() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(11);
        let _ = g.bounded_u64(0);
    }

    #[test]
    fn range_is_inclusive() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let x = g.range_u64(10, 13);
            assert!((10..=13).contains(&x));
            lo_seen |= x == 10;
            hi_seen |= x == 13;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn full_u64_range_does_not_panic() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(3);
        let _ = g.range_u64(0, u64::MAX);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(3);
        assert!(!g.bernoulli(0.0));
        assert!(g.bernoulli(1.0));
        assert!(!g.bernoulli(-0.5));
        assert!(g.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_mean_is_close() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(3);
        let n = 40_000;
        let hits = (0..n).filter(|_| g.bernoulli(0.3)).count();
        let mean = hits as f64 / f64::from(n);
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn unit_open_never_zero() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(g.unit_f64_open() > 0.0);
        }
    }

    #[test]
    fn fill_range_matches_repeated_range_draws() {
        for (lo, hi) in [(1, 1), (1, 2), (1, 7), (3, 256), (0, u32::MAX)] {
            for len in [0usize, 1, 5, 1000] {
                let mut reference = Xoshiro256PlusPlus::seed_from_u64(u64::from(hi) ^ len as u64);
                let want: Vec<u32> = (0..len).map(|_| reference.range_u32(lo, hi)).collect();
                let tail = reference.next_u64();

                // Through `&mut dyn RandomSource`: the concrete provided
                // method behind one virtual call.
                let mut g = Xoshiro256PlusPlus::seed_from_u64(u64::from(hi) ^ len as u64);
                let mut got = vec![0; len];
                {
                    let dynamic: &mut dyn RandomSource = &mut g;
                    dynamic.fill_range_u32(lo, hi, &mut got);
                }
                assert_eq!(got, want, "dyn, range {lo}..={hi}, len {len}");
                assert_eq!(g.next_u64(), tail, "dyn draws consume the same words");

                // Through the `&mut T` blanket impl.
                let mut g = Xoshiro256PlusPlus::seed_from_u64(u64::from(hi) ^ len as u64);
                let mut got = vec![0; len];
                let mut borrowed = &mut g;
                <&mut Xoshiro256PlusPlus as RandomSource>::fill_range_u32(
                    &mut borrowed,
                    lo,
                    hi,
                    &mut got,
                );
                assert_eq!(got, want, "&mut T, range {lo}..={hi}, len {len}");
                assert_eq!(g.next_u64(), tail, "&mut T draws consume the same words");
            }
        }
    }

    #[test]
    fn works_through_mut_reference() {
        fn draw(r: &mut impl RandomSource) -> u64 {
            r.next_u64()
        }
        let mut g = Xoshiro256PlusPlus::seed_from_u64(3);
        let _ = draw(&mut g);
        let borrowed: &mut Xoshiro256PlusPlus = &mut g;
        let _ = draw(&mut &mut *borrowed);
    }
}
