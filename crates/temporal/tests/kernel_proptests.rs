//! Differential property tests for the word-kernel layer: every kernel in
//! [`ephemeral_temporal::kernels`] must be **bit-identical** to its naive
//! scalar reference in [`kernels::scalar`] — across ragged lengths
//! `0..257` (every unroll-remainder shape), every slab misalignment
//! offset (kernels run on arbitrary subslices, not just aligned bases),
//! random bit patterns, and — for the sorted-`u32` merge kernels — skew
//! ratios on both sides of [`kernels::GALLOP_FACTOR`], so the galloping
//! and branch-light linear paths are both pinned to the same contract.

use ephemeral_temporal::kernels::{self, scalar, AlignedLanes, AlignedSlab, SLAB_ALIGN_BYTES};
use proptest::prelude::*;

/// A deterministic word pattern mixing dense, sparse and structured runs
/// so carries/tails see both all-zero and all-one words.
fn words_from_seed(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i % 7 {
                0 => 0,
                1 => !0,
                2 => state & 0x8000_0000_0000_0001,
                _ => state,
            }
        })
        .collect()
}

/// An aligned slab pre-filled with `pattern`, so kernels can be exercised
/// on the subslice `[off..off + len]` — every misalignment offset within
/// one chunk.
fn slab_with(pattern: &[u64]) -> AlignedSlab {
    let mut s = AlignedSlab::new();
    s.resize_zeroed(pattern.len());
    s.words_mut().copy_from_slice(pattern);
    s
}

/// A sorted duplicate-free lane list of roughly `len` lanes.
fn sorted_lanes(seed: u64, len: usize, spread: u32) -> Vec<u32> {
    let mut out: Vec<u32> = words_from_seed(seed, len)
        .into_iter()
        .map(|w| (w % u64::from(spread.max(1))) as u32)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `ornot_accumulate` equals the per-word reference (dst bits and the
    /// any-fold) for every ragged length and misalignment offset.
    #[test]
    fn ornot_accumulate_matches_scalar(
        seed: u64,
        len in 0usize..257,
        off in 0usize..8,
    ) {
        let a = words_from_seed(seed ^ 1, off + len);
        let b = words_from_seed(seed ^ 2, off + len);
        let d0 = words_from_seed(seed ^ 3, off + len);
        let mut s1 = slab_with(&d0);
        let mut d2 = d0[off..].to_vec();
        let any1 = kernels::ornot_accumulate(&mut s1.words_mut()[off..], &a[off..], &b[off..]);
        let any2 = scalar::ornot_accumulate(&mut d2, &a[off..], &b[off..]);
        prop_assert_eq!(&s1.words()[off..], &d2[..]);
        prop_assert_eq!(&s1.words()[..off], &d0[..off], "prefix untouched");
        prop_assert_eq!(any1, any2);
    }

    /// `commit_fresh` equals the reference: same fresh masks in the same
    /// ascending word order, same popcount total, `before` identical, and
    /// `delta` fully zeroed — for every length and offset.
    #[test]
    fn commit_fresh_matches_scalar(
        seed: u64,
        len in 0usize..257,
        off in 0usize..8,
    ) {
        let delta0 = words_from_seed(seed ^ 5, off + len);
        let before0 = words_from_seed(seed ^ 6, off + len);
        let mut ds = slab_with(&delta0);
        let mut bs = slab_with(&before0);
        let (mut d2, mut b2) = (delta0[off..].to_vec(), before0[off..].to_vec());
        let (mut e1, mut e2) = (Vec::new(), Vec::new());
        let t1 = kernels::commit_fresh(
            &mut ds.words_mut()[off..],
            &mut bs.words_mut()[off..],
            |w, f| e1.push((w, f)),
        );
        let t2 = scalar::commit_fresh(&mut d2, &mut b2, |w, f| e2.push((w, f)));
        prop_assert_eq!(&ds.words()[off..], &d2[..]);
        prop_assert_eq!(&bs.words()[off..], &b2[..]);
        prop_assert_eq!(&e1, &e2);
        prop_assert_eq!(t1, t2);
        prop_assert!(ds.words()[off..].iter().all(|&w| w == 0), "delta zeroed");
        prop_assert!(e1.windows(2).all(|p| p[0].0 < p[1].0), "ascending words");
    }

    /// `popcount_words` and `nonzero_word_mask` equal brute scans on every
    /// ragged length and offset.
    #[test]
    fn popcount_and_occupancy_match_brute(
        seed: u64,
        len in 0usize..257,
        off in 0usize..8,
    ) {
        let w = words_from_seed(seed, off + len);
        let row = &w[off..];
        prop_assert_eq!(kernels::popcount_words(row), scalar::popcount_words(row));
        let mut occ = vec![0u64; len.div_ceil(64).max(1)];
        // Pre-set one stray bit: the kernel must OR, never clear.
        occ[0] = 1;
        kernels::nonzero_word_mask(row, &mut occ);
        for (i, &word) in row.iter().enumerate() {
            let set = occ[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(set, word != 0 || i == 0, "word {}", i);
        }
    }

    /// Lane-bit helpers roundtrip against a brute bitset: `set_lane_bits`
    /// + `for_each_set_lane` recover exactly the distinct lanes in
    /// ascending order, and `clear_lane_bits` restores all-zero.
    #[test]
    fn lane_bit_helpers_match_brute(
        seed: u64,
        len in 0usize..200,
        spread in 1u32..1000,
    ) {
        let lanes = sorted_lanes(seed, len, spread);
        let words = (spread as usize).div_ceil(64).max(1);
        let mut row = vec![0u64; words];
        kernels::set_lane_bits(&mut row, &lanes);
        prop_assert_eq!(kernels::popcount_words(&row), lanes.len());
        let mut seen = Vec::new();
        kernels::for_each_set_lane(&row, |l| seen.push(l as u32));
        prop_assert_eq!(&seen, &lanes);
        kernels::clear_lane_bits(&mut row, &lanes);
        prop_assert!(row.iter().all(|&w| w == 0));
    }

    /// `merge_into_emitting` equals the reference union + exclusives +
    /// word-grouped masks on both sides of the gallop threshold (the skew
    /// parameters push `d.len() / src.len()` through `GALLOP_FACTOR`),
    /// and on two equal lists (nothing fresh, nothing emitted).
    #[test]
    fn merge_into_matches_references_across_skews(
        seed: u64,
        d_len in 0usize..300,
        s_len in 0usize..40,
        spread in 1u32..2000,
    ) {
        let d = sorted_lanes(seed ^ 0xA, d_len, spread);
        let s = sorted_lanes(seed ^ 0xB, s_len, spread);
        for (d, s) in [(&d, &s), (&s, &d), (&d, &d)] {
            let mut out = Vec::new();
            let mut got = Vec::new();
            let fresh = kernels::merge_into_emitting(d, s, &mut out, 3, 9, &mut |v, w, m, t| {
                assert_eq!((v, t), (3, 9));
                got.push((w, m));
            });
            let excl = scalar::exclusives(d, s);
            prop_assert_eq!(&out, &scalar::merge_union(d, s));
            prop_assert_eq!(fresh as usize, excl.len());
            prop_assert_eq!(&got, &scalar::grouped_masks(&excl));
        }
    }

    /// `merge_dual_emitting` equals the reference union with each side's
    /// exclusives emitted to the *other* endpoint, word-grouped.
    #[test]
    fn merge_dual_matches_references(
        seed: u64,
        a_len in 0usize..200,
        b_len in 0usize..200,
        spread in 1u32..2000,
    ) {
        let a = sorted_lanes(seed ^ 0xC, a_len, spread);
        let b = sorted_lanes(seed ^ 0xD, b_len, spread);
        let mut out = Vec::new();
        let (mut got_u, mut got_v) = (Vec::new(), Vec::new());
        let (fu, fv) = kernels::merge_dual_emitting(&a, &b, &mut out, 1, 2, 7, &mut |v, w, m, _| {
            if v == 1 { got_u.push((w, m)); } else { got_v.push((w, m)); }
        });
        let (bu, av) = (scalar::exclusives(&a, &b), scalar::exclusives(&b, &a));
        prop_assert_eq!(&out, &scalar::merge_union(&a, &b));
        prop_assert_eq!((fu as usize, fv as usize), (bu.len(), av.len()));
        prop_assert_eq!(&got_u, &scalar::grouped_masks(&bu));
        prop_assert_eq!(&got_v, &scalar::grouped_masks(&av));
    }

    /// `emit` (and the `MaskEmitter` behind it) groups a sorted fresh-lane
    /// list exactly as the reference does.
    #[test]
    fn emit_matches_grouped_masks(
        seed: u64,
        len in 0usize..150,
        spread in 1u32..1500,
    ) {
        let news = sorted_lanes(seed, len, spread);
        let mut got = Vec::new();
        kernels::emit(&news, 4, 11, &mut |v, w, m, t| {
            assert_eq!((v, t), (4, 11));
            got.push((w, m));
        });
        prop_assert_eq!(got, scalar::grouped_masks(&news));
    }

    /// Slab invariant: the exposed base is 64-byte aligned after any
    /// resize sequence, and contents start zeroed.
    #[test]
    fn aligned_slab_invariants(lens in prop::collection::vec(0usize..3000, 1..8)) {
        let mut s = AlignedSlab::new();
        for &len in &lens {
            s.resize_zeroed(len);
            prop_assert_eq!(s.len(), len);
            prop_assert!(s.words().iter().all(|&w| w == 0));
            if len > 0 {
                prop_assert_eq!(s.words().as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
            }
            s.words_mut().iter_mut().for_each(|w| *w = !0);
        }
    }

    /// Arena invariant: pushes and slice-appends keep the live lanes
    /// 64-byte aligned and in insertion order across every growth path.
    #[test]
    fn aligned_lanes_invariants(
        ops in prop::collection::vec((any::<bool>(), 0u32..5000, 0usize..40), 1..60),
    ) {
        let mut a = AlignedLanes::new();
        a.clear();
        let mut expect = Vec::new();
        for &(push, lane, run) in &ops {
            if push {
                a.push(lane);
                expect.push(lane);
            } else {
                let chunk: Vec<u32> = (lane..lane + run as u32).collect();
                a.extend_from_slice(&chunk);
                expect.extend_from_slice(&chunk);
            }
            prop_assert_eq!(a.as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
            prop_assert_eq!(a.len(), expect.len());
        }
        prop_assert_eq!(&a[..], &expect[..]);
        a.clear();
        prop_assert!(a.is_empty());
        prop_assert_eq!(a.as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
    }
}
