//! The single explicit word-kernel layer under all three sweep engines.
//!
//! Every inner loop the engines run — the wide engine's `u64` OR/ANDN
//! row walks ([`ornot_accumulate`] / [`commit_fresh`]), the sparse
//! engine's sorted-`u32` reacher-list merges ([`merge_dual_emitting`] /
//! [`merge_into_emitting`]), the delta engine's retract/replay word ops
//! ([`ornot_word`] / [`nonzero_word_mask`]) and the streaming closure's
//! block fills ([`for_each_set_lane`] / [`set_lane_bits`]) — lives here
//! as one grep-able definition with an explicit semantics contract, so a
//! future GPU/ISPC backend replaces this module, not four engines.
//!
//! The word kernels are written as [`UNROLL_WORDS`]-word unrolled chunks
//! (fixed-size array refs, so bounds checks vanish and the chunk body is
//! straight-line autovectorization bait on any target; the unroll width
//! itself is `cfg(target_arch)`-gated to 8 words = one 64-byte line where
//! 256/512-bit vectors exist, 4 elsewhere) over 64-byte-aligned slabs:
//! [`AlignedSlab`] backs the wide engine's `before`/`delta` rows, the
//! delta cursor's row matrix and the streaming-closure block cache, and
//! [`AlignedLanes`] backs the sparse engine's append-only region arena.
//! Both are plain safe Rust (this crate forbids `unsafe`): they
//! over-allocate an ordinary `Vec` and re-derive the aligned interior
//! offset after any reallocation, so alignment is an invariant, not an
//! assumption.
//!
//! Block schedules round interior block edges to [`CHUNK_WORDS`]
//! multiples (`wide::word_blocks` / `wide::block_schedule`), so chunk
//! interiors of every parallel shard are whole aligned chunks and only
//! the final tail of the final block is ragged.
//!
//! Every kernel is pinned bit-identical to the naive per-word reference
//! in [`scalar`] by differential proptests
//! (`crates/temporal/tests/kernel_proptests.rs`: ragged lengths 0..257,
//! every slab misalignment offset, random bit patterns).

use crate::Time;
use ephemeral_graph::NodeId;

/// Words per aligned kernel chunk: the granularity interior block edges
/// are rounded to. **Fixed at 8 on every target** (8 × 8 B = one 64-byte
/// cache line) so block schedules — and therefore per-shard stats — are
/// platform-independent; only the loop-shape [`UNROLL_WORDS`] varies by
/// architecture.
pub const CHUNK_WORDS: usize = 8;

/// Byte alignment of [`AlignedSlab`] / [`AlignedLanes`] interiors: one
/// cache line, enough for any 512-bit vector the autovectorizer picks.
pub const SLAB_ALIGN_BYTES: usize = 64;

/// Unrolled words per iteration of the straight-line kernel bodies.
/// 8 (a full [`CHUNK_WORDS`] chunk) where wide vectors are the norm,
/// 4 elsewhere — always a divisor of [`CHUNK_WORDS`], so chunk-aligned
/// slabs stay unroll-aligned.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub const UNROLL_WORDS: usize = 8;
/// Unrolled words per iteration of the straight-line kernel bodies.
/// 8 (a full [`CHUNK_WORDS`] chunk) where wide vectors are the norm,
/// 4 elsewhere — always a divisor of [`CHUNK_WORDS`], so chunk-aligned
/// slabs stay unroll-aligned.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub const UNROLL_WORDS: usize = 4;

/// `dst.len()` ratio over `src.len()` above which
/// [`merge_into_emitting`] gallops (binary-searches each source lane and
/// block-copies the runs between) instead of stepping both lists word by
/// word — the regime of a long-lived frontier absorbing a small one.
pub const GALLOP_FACTOR: usize = 8;

const U64_BYTES: usize = std::mem::size_of::<u64>();
const U32_BYTES: usize = std::mem::size_of::<u32>();
/// Alignment slack in `u64` words an [`AlignedSlab`] over-allocates.
const ALIGN_U64S: usize = SLAB_ALIGN_BYTES / U64_BYTES;
/// Alignment slack in `u32` lanes an [`AlignedLanes`] over-allocates.
const ALIGN_U32S: usize = SLAB_ALIGN_BYTES / U32_BYTES;

/// Aligned offset (in `T`-sized units of `unit` bytes) of the first
/// 64-byte boundary at or after `addr`.
#[inline]
fn align_offset(addr: usize, unit: usize) -> usize {
    debug_assert_eq!(addr % unit, 0, "allocation must be unit-aligned");
    (SLAB_ALIGN_BYTES - addr % SLAB_ALIGN_BYTES) % SLAB_ALIGN_BYTES / unit
}

// ---------------------------------------------------------------------------
// Aligned slabs
// ---------------------------------------------------------------------------

/// A 64-byte-aligned `u64` slab: the backing store for frontier rows
/// (wide `before`/`delta`, delta-cursor rows, closure block cache).
///
/// Safe-Rust alignment: the slab over-allocates an ordinary `Vec<u64>`
/// and exposes the interior slice starting at the first 64-byte boundary.
/// [`AlignedSlab::resize_zeroed`] re-derives that offset after any
/// reallocation, so [`AlignedSlab::words`] is always 64-byte aligned.
/// Warm resizes within capacity never allocate (pinned by
/// `crates/core/tests/alloc_regression.rs`).
#[derive(Clone, Debug, Default)]
pub struct AlignedSlab {
    buf: Vec<u64>,
    offset: usize,
    len: usize,
}

impl AlignedSlab {
    /// An empty slab; allocates nothing until the first resize.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buf: Vec::new(),
            offset: 0,
            len: 0,
        }
    }

    /// Logical length in words.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds zero words.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to exactly `len` zeroed words at a 64-byte-aligned base,
    /// dropping previous contents. Allocates only when `len` outgrows the
    /// current capacity; warm calls just re-zero.
    pub fn resize_zeroed(&mut self, len: usize) {
        self.buf.clear();
        self.buf.reserve(len + ALIGN_U64S);
        self.offset = align_offset(self.buf.as_ptr() as usize, U64_BYTES);
        self.buf.resize(self.offset + len, 0);
        self.len = len;
    }

    /// The logical words, base 64-byte aligned.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.buf[self.offset..self.offset + self.len]
    }

    /// The logical words, mutable, base 64-byte aligned.
    #[inline]
    #[must_use]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.offset..self.offset + self.len]
    }
}

/// A 64-byte-aligned append-only `u32` buffer: the backing store for the
/// sparse engine's reacher-list arena (and its compaction scratch).
///
/// Derefs to the live lane slice, so region indexing
/// (`&arena[start..start + len]`) works unchanged; every growth path
/// ([`AlignedLanes::reserve`] / [`AlignedLanes::push`] /
/// [`AlignedLanes::extend_from_slice`]) re-derives the aligned interior
/// offset if the underlying allocation moved, shifting the live lanes in
/// place — so the arena base stays 64-byte aligned across reallocation,
/// compaction swaps, and `clear`.
#[derive(Clone, Debug, Default)]
pub struct AlignedLanes {
    buf: Vec<u32>,
    /// Live lanes are `buf[offset..]`; `buf[..offset]` is alignment pad.
    offset: usize,
}

impl AlignedLanes {
    /// An empty arena; allocates nothing until the first push.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buf: Vec::new(),
            offset: 0,
        }
    }

    /// Drop all lanes, keeping capacity, and re-establish alignment.
    pub fn clear(&mut self) {
        self.buf.clear();
        if self.buf.capacity() == 0 {
            // An unallocated Vec's pointer is dangling; materialise a
            // real allocation before deriving the offset from it.
            self.buf.reserve(ALIGN_U32S);
        }
        self.offset = align_offset(self.buf.as_ptr() as usize, U32_BYTES);
        self.buf.resize(self.offset, 0);
    }

    /// Ensure room for `additional` more lanes without reallocation,
    /// re-aligning the live lanes if the buffer moved.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.buf.len() + additional + ALIGN_U32S;
        if needed <= self.buf.capacity() {
            return;
        }
        self.buf.reserve(needed - self.buf.len());
        let new_off = align_offset(self.buf.as_ptr() as usize, U32_BYTES);
        let old_off = self.offset;
        if new_off == old_off {
            return;
        }
        let live = self.buf.len() - old_off;
        if new_off > old_off {
            // Grow the pad first; the extension stays within the fresh
            // capacity, so the buffer cannot move again.
            self.buf.resize(new_off + live, 0);
            self.buf.copy_within(old_off..old_off + live, new_off);
        } else {
            self.buf.copy_within(old_off..old_off + live, new_off);
            self.buf.truncate(new_off + live);
        }
        self.offset = new_off;
    }

    /// Append one lane.
    #[inline]
    pub fn push(&mut self, lane: u32) {
        if self.buf.len() + 1 + ALIGN_U32S > self.buf.capacity() {
            self.reserve(1);
        }
        self.buf.push(lane);
    }

    /// Append a lane slice (the arena's region copy: relabel re-points
    /// and compaction evacuations both land here).
    #[inline]
    pub fn extend_from_slice(&mut self, lanes: &[u32]) {
        if self.buf.len() + lanes.len() + ALIGN_U32S > self.buf.capacity() {
            self.reserve(lanes.len());
        }
        self.buf.extend_from_slice(lanes);
    }
}

impl std::ops::Deref for AlignedLanes {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        &self.buf[self.offset.min(self.buf.len())..]
    }
}

// ---------------------------------------------------------------------------
// u64 word kernels
// ---------------------------------------------------------------------------

/// OR/ANDN over one word: `a & !b` — the bits of `a` not already in `b`.
/// The single definition behind every "fresh = reached-from minus
/// already-reached" word op (batched engine exchanges, delta retract
/// masks and replay accumulation all route here).
#[inline(always)]
#[must_use]
pub const fn ornot_word(a: u64, b: u64) -> u64 {
    a & !b
}

/// Accumulating OR/ANDN over equal-length rows:
/// `dst[w] |= a[w] & !b[w]` for every word, returning the OR-fold of all
/// newly ORed-in bits (`0` ⇔ the row contributed nothing). Exact
/// semantics of the wide engine's `apply` inner loop. Panics if the
/// slice lengths differ.
#[must_use]
pub fn ornot_accumulate(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    let n = dst.len();
    assert!(
        a.len() == n && b.len() == n,
        "ornot_accumulate: slice lengths must match"
    );
    let mut any = 0u64;
    let mut dc = dst.chunks_exact_mut(UNROLL_WORDS);
    let mut ac = a.chunks_exact(UNROLL_WORDS);
    let mut bc = b.chunks_exact(UNROLL_WORDS);
    for ((d, a), b) in (&mut dc).zip(&mut ac).zip(&mut bc) {
        let d: &mut [u64; UNROLL_WORDS] = d.try_into().unwrap();
        let a: &[u64; UNROLL_WORDS] = a.try_into().unwrap();
        let b: &[u64; UNROLL_WORDS] = b.try_into().unwrap();
        for k in 0..UNROLL_WORDS {
            let f = a[k] & !b[k];
            d[k] |= f;
            any |= f;
        }
    }
    for ((d, &a), &b) in dc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        let f = a & !b;
        *d |= f;
        any |= f;
    }
    any
}

/// Bucket-commit over equal-length rows: for every word,
/// `fresh = delta[w] & !before[w]`, then `before[w] |= fresh` and
/// `delta[w] = 0`; calls `on_fresh(w, fresh)` **in ascending word order**
/// for each word with `fresh != 0` and returns the total fresh popcount.
/// Exact semantics of the wide engine's per-vertex commit loop — `delta`
/// is always fully zeroed, even where nothing was fresh. Panics if the
/// slice lengths differ.
pub fn commit_fresh(
    delta: &mut [u64],
    before: &mut [u64],
    mut on_fresh: impl FnMut(usize, u64),
) -> u32 {
    assert_eq!(
        delta.len(),
        before.len(),
        "commit_fresh: slice lengths must match"
    );
    let mut total = 0u32;
    let mut w = 0usize;
    let mut dc = delta.chunks_exact_mut(UNROLL_WORDS);
    let mut bc = before.chunks_exact_mut(UNROLL_WORDS);
    for (d, b) in (&mut dc).zip(&mut bc) {
        let d: &mut [u64; UNROLL_WORDS] = d.try_into().unwrap();
        let b: &mut [u64; UNROLL_WORDS] = b.try_into().unwrap();
        let mut fr = [0u64; UNROLL_WORDS];
        let mut any = 0u64;
        for k in 0..UNROLL_WORDS {
            fr[k] = d[k] & !b[k];
            b[k] |= fr[k];
            d[k] = 0;
            any |= fr[k];
        }
        if any != 0 {
            for (k, &f) in fr.iter().enumerate() {
                if f != 0 {
                    total += f.count_ones();
                    on_fresh(w + k, f);
                }
            }
        }
        w += UNROLL_WORDS;
    }
    for (d, b) in dc.into_remainder().iter_mut().zip(bc.into_remainder()) {
        let fresh = *d & !*b;
        *b |= fresh;
        *d = 0;
        if fresh != 0 {
            total += fresh.count_ones();
            on_fresh(w, fresh);
        }
        w += 1;
    }
    total
}

/// Total set-bit count over a word row (closure `out_count`, missing-pair
/// folds).
#[must_use]
pub fn popcount_words(words: &[u64]) -> usize {
    let mut chunks = words.chunks_exact(UNROLL_WORDS);
    let mut total = 0usize;
    for c in &mut chunks {
        let c: &[u64; UNROLL_WORDS] = c.try_into().unwrap();
        total += c.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    }
    total
        + chunks
            .remainder()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
}

/// Per-word occupancy mask: ORs bit `w` of `out` (layout
/// `out[w / 64] |= 1 << (w % 64)`) for every `w` with `words[w] != 0`.
/// The delta cursor's row-occupancy build. Never clears bits; panics if
/// `out` is shorter than `words.len().div_ceil(64)`.
pub fn nonzero_word_mask(words: &[u64], out: &mut [u64]) {
    assert!(
        out.len() >= words.len().div_ceil(64),
        "nonzero_word_mask: out too short"
    );
    for (w, &word) in words.iter().enumerate() {
        out[w / 64] |= u64::from(word != 0) << (w % 64);
    }
}

/// Set bit `lane` of `row` (layout `row[lane / 64] |= 1 << (lane % 64)`)
/// for every lane in the sorted-or-not slice — the sparse engine's
/// list-to-bitrow materialisation. Panics if any lane is out of range.
#[inline]
pub fn set_lane_bits(row: &mut [u64], lanes: &[u32]) {
    for &lane in lanes {
        row[lane as usize / 64] |= 1u64 << (lane % 64);
    }
}

/// Clear bit `lane` of `row` for every lane in the slice: the exact
/// inverse of [`set_lane_bits`], used to restore a pooled row buffer to
/// all-zero without an `O(W)` wipe.
#[inline]
pub fn clear_lane_bits(row: &mut [u64], lanes: &[u32]) {
    for &lane in lanes {
        row[lane as usize / 64] &= !(1u64 << (lane % 64));
    }
}

/// Call `f(lane)` for every set bit of the word row, in ascending lane
/// order (`lane = w * 64 + bit`): the closure transpose / lane-walk loop.
#[inline]
pub fn for_each_set_lane(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut lanes = word;
        while lanes != 0 {
            f(w * 64 + lanes.trailing_zeros() as usize);
            lanes &= lanes - 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Sorted-u32 merge kernels (the sparse arena's inner loops)
// ---------------------------------------------------------------------------

/// A word-grouped callback accumulator: collects consecutive fresh lanes
/// of one 64-lane word into a mask and flushes one `on_reach` per word —
/// the wide engine's callback granularity, produced inline during a
/// merge. Lanes **must** be pushed in ascending order.
pub struct MaskEmitter {
    word: usize,
    mask: u64,
    fresh: u32,
}

impl Default for MaskEmitter {
    fn default() -> Self {
        Self::new()
    }
}

impl MaskEmitter {
    /// An emitter with nothing buffered.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            word: usize::MAX,
            mask: 0,
            fresh: 0,
        }
    }

    /// Buffer fresh `lane`; flushes the previous word's mask through
    /// `on_reach(v, word, mask, t)` when the lane crosses a word boundary.
    #[inline]
    pub fn push(
        &mut self,
        lane: u32,
        v: NodeId,
        t: Time,
        on_reach: &mut impl FnMut(NodeId, usize, u64, Time),
    ) {
        let w = (lane / 64) as usize;
        if w != self.word {
            if self.mask != 0 {
                on_reach(v, self.word, self.mask, t);
            }
            self.word = w;
            self.mask = 0;
        }
        self.mask |= 1u64 << (lane % 64);
        self.fresh += 1;
    }

    /// Flush the final buffered word and return the total fresh count.
    #[inline]
    pub fn finish(
        self,
        v: NodeId,
        t: Time,
        on_reach: &mut impl FnMut(NodeId, usize, u64, Time),
    ) -> u32 {
        if self.mask != 0 {
            on_reach(v, self.word, self.mask, t);
        }
        self.fresh
    }
}

/// Fire `on_reach` for a sorted slice of fresh lanes, grouped per word.
#[inline]
pub fn emit(news: &[u32], v: NodeId, t: Time, on_reach: &mut impl FnMut(NodeId, usize, u64, Time)) {
    let mut em = MaskEmitter::new();
    for &lane in news {
        em.push(lane, v, t, on_reach);
    }
    let _ = em.finish(v, t, on_reach);
}

/// Union-merge the sorted duplicate-free lane lists of `u` and `v` into
/// `out` (cleared first), emitting each side's exclusives as the other
/// side's fresh arrivals inline (word-grouped, ascending). Returns
/// `(fresh_u, fresh_v)` — the counts of `b`-exclusives and
/// `a`-exclusives respectively. Branch-light: both cursors advance by
/// comparison masks, the union element is pushed unconditionally.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn merge_dual_emitting(
    a: &[u32],
    b: &[u32],
    out: &mut Vec<u32>,
    u: NodeId,
    v: NodeId,
    t: Time,
    on_reach: &mut impl FnMut(NodeId, usize, u64, Time),
) -> (u32, u32) {
    out.clear();
    out.reserve(a.len() + b.len());
    let mut em_u = MaskEmitter::new(); // b-exclusives reach u
    let mut em_v = MaskEmitter::new(); // a-exclusives reach v
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        out.push(x.min(y));
        if x < y {
            em_v.push(x, v, t, on_reach);
        }
        if y < x {
            em_u.push(y, u, t, on_reach);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    for &x in &a[i..] {
        em_v.push(x, v, t, on_reach);
    }
    out.extend_from_slice(&b[j..]);
    for &y in &b[j..] {
        em_u.push(y, u, t, on_reach);
    }
    (em_u.finish(u, t, on_reach), em_v.finish(v, t, on_reach))
}

/// Union-merge the frozen source list `src` into the live list `d` of
/// `dst`, writing the union into `out` (cleared first) and emitting the
/// `src`-exclusives as fresh arrivals of `dst` (word-grouped,
/// ascending). Returns the fresh count.
///
/// Two regimes behind one contract: when
/// `d.len() ≥ GALLOP_FACTOR · max(src.len(), 1)` the kernel **gallops**
/// — binary-searching each source lane's insertion point and
/// block-copying the `d`-run before it — otherwise it runs the
/// branch-light word-by-word merge. Output and emissions are identical
/// either way (pinned by the kernel proptests across skew ratios).
#[inline]
pub fn merge_into_emitting(
    d: &[u32],
    src: &[u32],
    out: &mut Vec<u32>,
    dst: NodeId,
    t: Time,
    on_reach: &mut impl FnMut(NodeId, usize, u64, Time),
) -> u32 {
    out.clear();
    out.reserve(d.len() + src.len());
    let mut em = MaskEmitter::new();
    if d.len() >= GALLOP_FACTOR * src.len().max(1) {
        let mut i = 0usize;
        for &y in src {
            let run = d[i..].partition_point(|&x| x < y);
            out.extend_from_slice(&d[i..i + run]);
            i += run;
            out.push(y);
            if i < d.len() && d[i] == y {
                i += 1;
            } else {
                em.push(y, dst, t, on_reach);
            }
        }
        out.extend_from_slice(&d[i..]);
        return em.finish(dst, t, on_reach);
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < d.len() && j < src.len() {
        let x = d[i];
        let y = src[j];
        out.push(x.min(y));
        if y < x {
            em.push(y, dst, t, on_reach);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&d[i..]);
    out.extend_from_slice(&src[j..]);
    for &y in &src[j..] {
        em.push(y, dst, t, on_reach);
    }
    em.finish(dst, t, on_reach)
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the differential oracle)
// ---------------------------------------------------------------------------

/// Naive one-word-at-a-time reference implementations of every kernel:
/// the differential oracle the unrolled kernels are pinned against by
/// `kernel_proptests`.
pub mod scalar {
    /// Reference for [`super::ornot_accumulate`].
    #[must_use]
    pub fn ornot_accumulate(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        assert!(a.len() == dst.len() && b.len() == dst.len());
        let mut any = 0u64;
        for ((d, &a), &b) in dst.iter_mut().zip(a).zip(b) {
            let f = a & !b;
            *d |= f;
            any |= f;
        }
        any
    }

    /// Reference for [`super::commit_fresh`].
    pub fn commit_fresh(
        delta: &mut [u64],
        before: &mut [u64],
        mut on_fresh: impl FnMut(usize, u64),
    ) -> u32 {
        assert_eq!(delta.len(), before.len());
        let mut total = 0u32;
        for (w, (d, b)) in delta.iter_mut().zip(before.iter_mut()).enumerate() {
            let fresh = *d & !*b;
            *d = 0;
            *b |= fresh;
            if fresh != 0 {
                total += fresh.count_ones();
                on_fresh(w, fresh);
            }
        }
        total
    }

    /// Reference for [`super::popcount_words`].
    #[must_use]
    pub fn popcount_words(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Reference union of two sorted duplicate-free lists.
    #[must_use]
    pub fn merge_union(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = a.iter().chain(b).copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Reference exclusives: elements of `src` absent from `d`, sorted.
    #[must_use]
    pub fn exclusives(d: &[u32], src: &[u32]) -> Vec<u32> {
        src.iter()
            .copied()
            .filter(|x| d.binary_search(x).is_err())
            .collect()
    }

    /// Reference word-grouped emission of a sorted fresh-lane list:
    /// `(word, mask)` pairs in ascending word order.
    #[must_use]
    pub fn grouped_masks(news: &[u32]) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = Vec::new();
        for &lane in news {
            let w = (lane / 64) as usize;
            match out.last_mut() {
                Some((lw, mask)) if *lw == w => *mask |= 1u64 << (lane % 64),
                _ => out.push((w, 1u64 << (lane % 64))),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(CHUNK_WORDS * U64_BYTES, SLAB_ALIGN_BYTES);
        assert_eq!(CHUNK_WORDS % UNROLL_WORDS, 0);
    }

    #[test]
    fn aligned_slab_bases_are_aligned_across_resizes() {
        let mut s = AlignedSlab::new();
        assert!(s.is_empty());
        for &len in &[0usize, 1, 7, 8, 9, 64, 257, 1 << 12, 3, 1 << 14] {
            s.resize_zeroed(len);
            assert_eq!(s.len(), len);
            assert!(s.words().iter().all(|&w| w == 0));
            if len > 0 {
                assert_eq!(s.words().as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
            }
            s.words_mut().iter_mut().for_each(|w| *w = !0);
        }
    }

    #[test]
    fn aligned_lanes_stay_aligned_and_ordered_across_growth() {
        let mut a = AlignedLanes::new();
        assert!(a.is_empty());
        a.clear();
        let mut expect = Vec::new();
        for i in 0..10_000u32 {
            if i % 257 == 0 {
                a.extend_from_slice(&[i, i + 1, i + 2]);
                expect.extend_from_slice(&[i, i + 1, i + 2]);
            } else {
                a.push(i);
                expect.push(i);
            }
            assert_eq!(a.as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
        }
        assert_eq!(&a[..], &expect[..]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
        a.push(7);
        assert_eq!(&a[..], &[7]);
    }

    #[test]
    fn ornot_accumulate_matches_scalar_on_ragged_lengths() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..70usize {
            let a: Vec<u64> = (0..len).map(|_| next()).collect();
            let b: Vec<u64> = (0..len).map(|_| next()).collect();
            let mut d1: Vec<u64> = (0..len).map(|_| next()).collect();
            let mut d2 = d1.clone();
            let any1 = ornot_accumulate(&mut d1, &a, &b);
            let any2 = scalar::ornot_accumulate(&mut d2, &a, &b);
            assert_eq!(d1, d2);
            assert_eq!(any1, any2);
        }
    }

    #[test]
    fn commit_fresh_matches_scalar_and_zeroes_delta() {
        for len in 0..70usize {
            let before: Vec<u64> = (0..len).map(|w| (w as u64).wrapping_mul(0xabcd)).collect();
            let delta: Vec<u64> = (0..len)
                .map(|w| (w as u64).wrapping_mul(0x1234_5678_9abc))
                .collect();
            let (mut d1, mut b1) = (delta.clone(), before.clone());
            let (mut d2, mut b2) = (delta, before);
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            let t1 = commit_fresh(&mut d1, &mut b1, |w, f| e1.push((w, f)));
            let t2 = scalar::commit_fresh(&mut d2, &mut b2, |w, f| e2.push((w, f)));
            assert_eq!((&d1, &b1, &e1, t1), (&d2, &b2, &e2, t2));
            assert!(d1.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn merge_kernels_match_references_across_skews() {
        let a: Vec<u32> = (0..400).map(|i| i * 3).collect();
        let b: Vec<u32> = vec![1, 3, 64, 65, 66, 600, 1199];
        let mut out = Vec::new();
        for (d, s) in [(&a, &b), (&b, &a), (&a, &a), (&b, &b)] {
            let mut got = Vec::new();
            let fresh = merge_into_emitting(d, s, &mut out, 9, 5, &mut |v, w, m, t| {
                assert_eq!((v, t), (9, 5));
                got.push((w, m));
            });
            assert_eq!(out, scalar::merge_union(d, s));
            let excl = scalar::exclusives(d, s);
            assert_eq!(fresh as usize, excl.len());
            assert_eq!(got, scalar::grouped_masks(&excl));
        }
        let mut got_u = Vec::new();
        let mut got_v = Vec::new();
        let (fu, fv) = merge_dual_emitting(&a, &b, &mut out, 1, 2, 7, &mut |v, w, m, _| {
            if v == 1 {
                got_u.push((w, m));
            } else {
                got_v.push((w, m));
            }
        });
        assert_eq!(out, scalar::merge_union(&a, &b));
        assert_eq!(got_u, scalar::grouped_masks(&scalar::exclusives(&a, &b)));
        assert_eq!(got_v, scalar::grouped_masks(&scalar::exclusives(&b, &a)));
        assert_eq!(fu as usize, scalar::exclusives(&a, &b).len());
        assert_eq!(fv as usize, scalar::exclusives(&b, &a).len());
    }

    #[test]
    fn lane_bit_helpers_roundtrip() {
        let lanes: Vec<u32> = vec![0, 1, 63, 64, 65, 127, 128, 300];
        let mut row = vec![0u64; 5];
        set_lane_bits(&mut row, &lanes);
        assert_eq!(popcount_words(&row), lanes.len());
        let mut seen = Vec::new();
        for_each_set_lane(&row, |l| seen.push(l as u32));
        assert_eq!(seen, lanes);
        let mut occ = vec![0u64; 1];
        nonzero_word_mask(&row, &mut occ);
        assert_eq!(occ[0], 0b10111);
        clear_lane_bits(&mut row, &lanes);
        assert!(row.iter().all(|&w| w == 0));
    }
}
