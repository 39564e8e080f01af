//! The root-skip prefilter (DESIGN.md §12): where, in a payload, the
//! automaton can first leave depth 2.
//!
//! An Aho-Corasick state's depth grows by at most one per byte, so a scan
//! can reach depth 3 only on the third byte of a window that spells a
//! depth-3 state — one of the table's 3-byte pattern prefixes. Before the
//! first such window the state sits at depth ≤ 2 and is a function of the
//! last two bytes alone. [`PrefixFilter`] finds candidates for that window
//! 32 windows at a time with Teddy-style nibble masks (`pshufb` on AVX2):
//! the sorted prefixes are split into eight buckets, and a window is a
//! candidate when one bucket admits the low and the high nibble of each
//! of its three bytes. The masks over-approximate — a candidate may be
//! no prefix — but never miss one; the caller confirms each candidate on
//! the table.

/// Most distinct 3-byte prefixes a filter is built over. Eight buckets
/// of at most eight prefixes keep the false candidates rare on traffic
/// that matches nothing; a set past it (binary signatures with thousands
/// of distinct prefixes) would flag most windows.
const MAX_PREFIXES: usize = 64;

const BUCKETS: usize = 8;

/// The compiled masks: for window byte `k`, row `2k` maps a low nibble
/// and row `2k + 1` a high nibble to the buckets whose prefixes have it
/// there, repeated in both 128-bit halves for the in-lane shuffle.
#[derive(Debug, Clone)]
pub(crate) struct PrefixFilter {
    masks: [[u8; 32]; 6],
}

impl PrefixFilter {
    /// Compiles `prefixes`, which come in sorted order; `None` past
    /// [`MAX_PREFIXES`] or where the CPU lacks AVX2, which is checked
    /// here, once, so that a filter's existence proves the instructions
    /// are there. Allocates nothing, and reads at most one prefix past
    /// the bound.
    pub(crate) fn new(prefixes: impl IntoIterator<Item = [u8; 3]>) -> Option<PrefixFilter> {
        if !has_avx2() {
            return None;
        }
        let mut kept = [[0u8; 3]; MAX_PREFIXES];
        let mut n = 0;
        for prefix in prefixes {
            *kept.get_mut(n)? = prefix;
            n += 1;
        }
        // Neighbours in sorted order share leading bytes, so a bucket of
        // them admits few windows beyond its own prefixes.
        let per_bucket = n.div_ceil(BUCKETS).max(1);
        let mut masks = [[0u8; 32]; 6];
        for (i, prefix) in kept[..n].iter().enumerate() {
            let bit = 1u8 << (i / per_bucket);
            for (k, &b) in prefix.iter().enumerate() {
                for half in [0, 16] {
                    masks[2 * k][half + usize::from(b & 0xf)] |= bit;
                    masks[2 * k + 1][half + usize::from(b >> 4)] |= bit;
                }
            }
        }
        Some(PrefixFilter { masks })
    }

    /// The first `i` whose window `data[i..i + 3]` is a candidate that
    /// `confirm(i)` accepts, or `None` when no window is.
    pub(crate) fn first(&self, data: &[u8], confirm: impl FnMut(usize) -> bool) -> Option<usize> {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `new` builds a filter only where AVX2 was detected.
            unsafe { avx2::first(&self.masks, data, confirm) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (data, confirm);
            unreachable!("`new` builds no filter off x86-64")
        }
    }
}

fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// The 32 bytes at the front of `bytes`.
    #[target_feature(enable = "avx2")]
    fn load(bytes: &[u8; 32]) -> __m256i {
        // SAFETY: the reference covers the 32 bytes read, and `loadu`
        // takes any alignment.
        unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
    }

    /// Bit `j` is set when the window starting at `block[j]` is a
    /// candidate, for `j` in `0..32`.
    #[target_feature(enable = "avx2")]
    fn candidates(masks: &[__m256i; 6], block: &[u8; 34]) -> u32 {
        let nibble = _mm256_set1_epi8(0xf);
        let mut all = _mm256_set1_epi8(-1);
        for k in 0..3 {
            let v = load(block[k..].first_chunk().expect("34 - k >= 32"));
            let lo = _mm256_and_si256(v, nibble);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), nibble);
            let buckets = _mm256_and_si256(
                _mm256_shuffle_epi8(masks[2 * k], lo),
                _mm256_shuffle_epi8(masks[2 * k + 1], hi),
            );
            all = _mm256_and_si256(all, buckets);
        }
        !(_mm256_movemask_epi8(_mm256_cmpeq_epi8(all, _mm256_setzero_si256())) as u32)
    }

    /// [`super::PrefixFilter::first`]: a block of 32 windows per step,
    /// each candidate confirmed in position order. The last windows are
    /// read from the block ending at the payload's end — its windows
    /// before `at` were confirmed against already, and fail again — or,
    /// in a payload shorter than a block, from a zero-padded copy, the
    /// bits past the payload cleared.
    #[target_feature(enable = "avx2")]
    pub(super) fn first(
        masks: &[[u8; 32]; 6],
        data: &[u8],
        mut confirm: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let masks = masks.each_ref().map(|row| load(row));
        let mut in_block = |at: usize, mut bits: u32| {
            while bits != 0 {
                let i = at + bits.trailing_zeros() as usize;
                if confirm(i) {
                    return Some(i);
                }
                bits &= bits - 1;
            }
            None
        };
        let mut at = 0;
        while let Some(block) = data.get(at..).and_then(|rest| rest.first_chunk()) {
            // Most blocks have no candidate: keep the confirming call,
            // and the register spills around it, off their path.
            let bits = candidates(&masks, block);
            if bits != 0 {
                if let Some(hit) = in_block(at, bits) {
                    return Some(hit);
                }
            }
            at += 32;
        }
        if at + 3 > data.len() {
            return None;
        }
        let (from, bits) = match data.len().checked_sub(34) {
            Some(from) => {
                let block = data[from..].first_chunk().expect("34 bytes from the end");
                (from, candidates(&masks, block))
            }
            None => {
                let mut padded = [0u8; 34];
                padded[..data.len()].copy_from_slice(data);
                (
                    0,
                    candidates(&masks, &padded) & ((1u32 << (data.len() - 2)) - 1),
                )
            }
        };
        in_block(from, bits)
    }
}
