//! Shuffling and sampling-without-replacement utilities.
//!
//! The delayed-revelation oracle (see `ephemeral-core`) repeatedly needs "`k`
//! distinct vertices out of `n`" with `k ≪ n`; [`sample_indices`] serves that
//! in `O(k)`/`O(k log k)` via Floyd's algorithm, switching to a partial
//! Fisher–Yates when `k` is a large fraction of `n`.

use crate::source::RandomSource;

/// In-place Fisher–Yates shuffle (uniform over all permutations).
pub fn shuffle<T>(items: &mut [T], rng: &mut impl RandomSource) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}

/// Partial Fisher–Yates: after the call, `items[..k]` is a uniform sample of
/// `k` distinct elements (in uniform random order); the rest of the slice is
/// unspecified. Requires `k <= items.len()`.
pub fn partial_shuffle<T>(items: &mut [T], k: usize, rng: &mut impl RandomSource) {
    let n = items.len();
    assert!(k <= n, "partial_shuffle: k = {k} > len = {n}");
    for i in 0..k {
        let j = i + rng.index(n - i);
        items.swap(i, j);
    }
}

/// A uniform sample of `k` **distinct** indices from `0..n` (panics if
/// `k > n`). Output order is unspecified (not uniform over orderings).
///
/// Uses Floyd's algorithm with a sorted membership vector when `k` is small
/// relative to `n` (expected `O(k log k)`, no `O(n)` allocation), and a
/// partial Fisher–Yates over `0..n` otherwise.
#[must_use]
pub fn sample_indices(n: usize, k: usize, rng: &mut impl RandomSource) -> Vec<usize> {
    assert!(k <= n, "sample_indices: k = {k} > n = {n}");
    if k == 0 {
        return Vec::new();
    }
    // Heuristic crossover: Floyd wins while the membership structure stays
    // small; 1/8 keeps the binary-search vector cheap.
    if k <= n / 8 || n <= 64 && k < n {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = rng.index(j + 1);
            match chosen.binary_search(&t) {
                // t already chosen: Floyd's rule inserts j instead.
                Ok(_) => {
                    let pos = chosen.binary_search(&j).unwrap_err();
                    chosen.insert(pos, j);
                }
                Err(pos) => chosen.insert(pos, t),
            }
        }
        chosen
    } else {
        let mut all: Vec<usize> = (0..n).collect();
        partial_shuffle(&mut all, k, rng);
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(271828)
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rng();
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut v, &mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut r = rng();
        let mut empty: [u8; 0] = [];
        shuffle(&mut empty, &mut r);
        let mut one = [7u8];
        shuffle(&mut one, &mut r);
        assert_eq!(one, [7]);
    }

    #[test]
    fn shuffle_is_roughly_uniform() {
        // Position of element 0 after shuffling [0,1,2] should be ~uniform.
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let mut v = [0u8, 1, 2];
            shuffle(&mut v, &mut r);
            let pos = v.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            let frac = f64::from(c) / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn partial_shuffle_prefix_is_distinct() {
        let mut r = rng();
        let mut v: Vec<u32> = (0..50).collect();
        partial_shuffle(&mut v, 10, &mut r);
        let mut prefix = v[..10].to_vec();
        prefix.sort_unstable();
        prefix.dedup();
        assert_eq!(prefix.len(), 10);
    }

    #[test]
    fn sample_indices_basic_contract() {
        let mut r = rng();
        for &(n, k) in &[
            (100usize, 5usize),
            (100, 50),
            (100, 100),
            (8, 8),
            (1, 1),
            (10, 0),
        ] {
            let s = sample_indices(n, k, &mut r);
            assert_eq!(s.len(), k, "n={n} k={k}");
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    #[should_panic(expected = "k = 5 > n = 3")]
    fn sample_indices_rejects_oversample() {
        let mut r = rng();
        let _ = sample_indices(3, 5, &mut r);
    }

    #[test]
    fn sample_indices_floyd_branch_is_uniform() {
        // n = 100, k = 2 (Floyd branch): each index should appear with
        // probability k/n = 0.02.
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        const TRIALS: usize = 50_000;
        for _ in 0..TRIALS {
            for i in sample_indices(100, 2, &mut r) {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = f64::from(c) / TRIALS as f64;
            assert!((frac - 0.02).abs() < 0.006, "index {i}: {frac}");
        }
    }
}
