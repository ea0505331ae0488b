//! Explicit-SIMD integer accumulation kernels (`std::arch`: x86 AVX2 and
//! SSE2, aarch64 NEON) — the [`tensor::backend::KernelBackend::Simd`]
//! implementation of the paper's hot path.
//!
//! # Bit-exactness
//!
//! Every kernel here produces exactly the accumulators of the scalar
//! reference loops. Integer multiplication is exact, and `i32` addition
//! (wrapping, as in release builds) is associative and commutative, so
//! the SIMD kernels are free to *reassociate* sums — which is exactly
//! what they do:
//!
//! * the row kernels compute `out[j] += av·b[j]` for eight `j` lanes at a
//!   time (`vpmulld` on AVX2, `vmlal` on NEON), identical term-by-term to
//!   the scalar loop;
//! * the pair kernels fold **two** non-zero activation rows per pass with
//!   `vpmaddwd`, computing `out[j] += (av₀·b₀[j] + av₁·b₁[j])` — the same
//!   two addends the scalar loop would add one after the other, grouped
//!   differently. `vpmaddwd` needs both factors in `i16`; activations are
//!   `i16` by contract and `i8` weights widen losslessly, and its internal
//!   pair-sum wraps in `i32` exactly like the release-mode scalar adds.
//!   (`vpmaddubsw` was rejected for the same slot: its `u8×i8` products
//!   *saturate* the intermediate `i16` pair-sum, which breaks exactness.)
//! * the **dense-row** kernels handle the 0%-sparsity regime: when an
//!   activation row has (almost) no zeros, the per-pass read-modify-write
//!   of `out` dominates, so instead each 8-column strip of the output row
//!   is held in registers while the *entire* `k` extent streams through
//!   `vpmaddwd` pairs (`vmlal` on NEON) — `out` is loaded and stored once
//!   per strip instead of once per activation pair. Skipping the zero-skip
//!   is free for integers: wrapping adds of zero products change nothing.
//!
//! The per-row **zero-skip** of delta execution is preserved where it
//! pays: rows above the density threshold take the dense kernel (zeros
//! there are pure overhead), all other rows keep the scanning pair fold.
//!
//! The dispatchers below run the kernels for the *active*
//! [`SimdLevel`] — so forcing `DITTO_SIMD_LEVEL=sse2` on an AVX2 host
//! exercises the real SSE2 kernels — and fall back to the scalar loops at
//! level `none` (architectures without kernels compile only the
//! fallback), so callers never need an architecture `cfg` of their own.

use tensor::backend::{simd_level, SimdLevel};

/// `Simd`-backend accumulation for `i8` weights: `out [m,n] += a [m,k] ×
/// b [k,n]` with zero-skip (sparse rows) or the dense-row kernel.
pub(super) fn accumulate_i8(out: &mut [i32], a: &[i16], b: &[i8], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    match simd_level() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdLevel::Avx2 => accumulate_rows(
            out,
            a,
            b,
            m,
            k,
            n,
            avx2::acc_pair_i8,
            avx2::acc_row_i8,
            avx2::dense_row_i8,
        ),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdLevel::Sse2 => accumulate_rows(
            out,
            a,
            b,
            m,
            k,
            n,
            sse2::acc_pair_i8,
            sse2::acc_row_i8,
            sse2::dense_row_i8,
        ),
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => accumulate_rows(
            out,
            a,
            b,
            m,
            k,
            n,
            neon::acc_pair_i8,
            neon::acc_row_i8,
            neon::dense_row_i8,
        ),
        _ => super::accumulate_scalar(out, a, b, m, k, n),
    }
}

/// `Simd`-backend accumulation for `i16` operands (attention scores).
pub(super) fn accumulate_i16(out: &mut [i32], a: &[i16], b: &[i16], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    match simd_level() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdLevel::Avx2 => accumulate_rows(
            out,
            a,
            b,
            m,
            k,
            n,
            avx2::acc_pair_i16,
            avx2::acc_row_i16,
            avx2::dense_row_i16,
        ),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdLevel::Sse2 => accumulate_rows(
            out,
            a,
            b,
            m,
            k,
            n,
            sse2::acc_pair_i16,
            sse2::acc_row_i16,
            sse2::dense_row_i16,
        ),
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => accumulate_rows(
            out,
            a,
            b,
            m,
            k,
            n,
            neon::acc_pair_i16,
            neon::acc_row_i16,
            neon::dense_row_i16,
        ),
        _ => super::accumulate_scalar(out, a, b, m, k, n),
    }
}

/// Zeros-per-row threshold for the dense-row kernel: rows with fewer than
/// `k/8` zero activations (⪅ 12.5% sparsity) take the register-resident
/// dense kernel; sparser rows keep the scanning pair fold, whose zero-skip
/// is what makes delta execution pay. Purely a performance dispatch —
/// wrapping-`i32` addition makes both orders exact.
const DENSE_ZEROS_PER_K: usize = 8;

/// The per-row driver shared by every SIMD level and operand type: rows
/// below the sparsity threshold go to the register-resident `dense`
/// kernel; all others scan activations, skip zeros, and hand non-zero
/// `(av, b-row)` entries to the `pair` kernel two at a time (an unpaired
/// leftover goes to the single-`row` kernel). Pairing halves the number
/// of accumulator read-modify-write passes over `out`; the dense kernel
/// eliminates them entirely.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
#[allow(clippy::too_many_arguments)]
fn accumulate_rows<W: Copy + Into<i32>>(
    out: &mut [i32],
    a: &[i16],
    b: &[W],
    m: usize,
    k: usize,
    n: usize,
    pair: unsafe fn(&mut [i32], i16, &[W], i16, &[W]),
    row: unsafe fn(&mut [i32], i32, &[W]),
    dense: unsafe fn(&mut [i32], &[i16], &[W], usize),
) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let zeros = arow.iter().filter(|&&av| av == 0).count();
        if k > 0 && zeros * DENSE_ZEROS_PER_K < k {
            // SAFETY: the kernels require only their declared target
            // feature, which `simd_level()` verified at runtime (only
            // hardware-supported levels can ever be active).
            unsafe { dense(orow, arow, b, n) };
            continue;
        }
        let mut pending: Option<(usize, i16)> = None;
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0 {
                continue;
            }
            match pending.take() {
                None => pending = Some((kk, av)),
                // SAFETY: as above.
                Some((k0, av0)) => unsafe {
                    pair(orow, av0, &b[k0 * n..(k0 + 1) * n], av, &b[kk * n..(kk + 1) * n])
                },
            }
        }
        if let Some((k0, av0)) = pending {
            // SAFETY: as above.
            unsafe { row(orow, av0 as i32, &b[k0 * n..(k0 + 1) * n]) };
        }
    }
}

/// Broadcast of an `(av₀, av₁)` multiplier pair packed into one 32-bit
/// lane, in the low/high `i16` layout `pmaddwd`/`vpmaddwd` expect.
/// Shared by the AVX2 and SSE2 kernels so the packing can never diverge
/// between levels.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
fn pair_multiplier(av0: i16, av1: i16) -> i32 {
    ((av1 as u16 as i32) << 16) | (av0 as u16 as i32)
}

/// Scalar tail of the row kernels (fewer than one vector of remaining
/// lanes), generic over the weight type so every SIMD level shares the
/// one copy.
///
/// # Safety
///
/// `j ≤ out.len()` and `out.len() ≤ brow.len()` elements must be valid.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
unsafe fn acc_row_tail<W: Copy + Into<i32>>(out: &mut [i32], av: i32, brow: &[W], mut j: usize) {
    let n = out.len();
    while j < n {
        let bv: i32 = (*brow.get_unchecked(j)).into();
        *out.get_unchecked_mut(j) = out.get_unchecked(j).wrapping_add(av.wrapping_mul(bv));
        j += 1;
    }
}

/// Scalar tail of the pair kernels, generic over the weight type and
/// shared across SIMD levels.
///
/// # Safety
///
/// As [`acc_row_tail`], for both `b` rows.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
unsafe fn acc_pair_tail<W: Copy + Into<i32>>(
    out: &mut [i32],
    av0: i16,
    brow0: &[W],
    av1: i16,
    brow1: &[W],
    mut j: usize,
) {
    let n = out.len();
    while j < n {
        let b0: i32 = (*brow0.get_unchecked(j)).into();
        let b1: i32 = (*brow1.get_unchecked(j)).into();
        let s = (av0 as i32).wrapping_mul(b0).wrapping_add((av1 as i32).wrapping_mul(b1));
        *out.get_unchecked_mut(j) = out.get_unchecked(j).wrapping_add(s);
        j += 1;
    }
}

/// Scalar column tail of the dense-row kernels: the remaining `n % 8`
/// output columns accumulate the whole activation row (no zero-skip, like
/// the vector body — exact for wrapping integer adds). Generic over the
/// weight type and shared across SIMD levels.
///
/// # Safety
///
/// `j ≤ n`, `orow.len() == n`, and `b` must hold `arow.len()·n` elements.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
unsafe fn dense_col_tail<W: Copy + Into<i32>>(
    orow: &mut [i32],
    arow: &[i16],
    b: &[W],
    n: usize,
    mut j: usize,
) {
    while j < n {
        let mut acc = *orow.get_unchecked(j);
        for (kk, &av) in arow.iter().enumerate() {
            let bv: i32 = (*b.get_unchecked(kk * n + j)).into();
            acc = acc.wrapping_add((av as i32).wrapping_mul(bv));
        }
        *orow.get_unchecked_mut(j) = acc;
        j += 1;
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{acc_pair_tail, acc_row_tail, dense_col_tail, pair_multiplier};

    /// `out[j] += av·b[j]` over one `i8` row (8 lanes per step).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn acc_row_i8(out: &mut [i32], av: i32, brow: &[i8]) {
        let n = brow.len();
        let vav = _mm256_set1_epi32(av);
        let mut j = 0;
        while j + 8 <= n {
            let b8 = _mm_loadl_epi64(brow.as_ptr().add(j) as *const __m128i);
            let prod = _mm256_mullo_epi32(_mm256_cvtepi8_epi32(b8), vav);
            let o = _mm256_loadu_si256(out.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, _mm256_add_epi32(o, prod));
            j += 8;
        }
        acc_row_tail(out, av, brow, j);
    }

    /// `out[j] += av·b[j]` over one `i16` row (8 lanes per step).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn acc_row_i16(out: &mut [i32], av: i32, brow: &[i16]) {
        let n = brow.len();
        let vav = _mm256_set1_epi32(av);
        let mut j = 0;
        while j + 8 <= n {
            let b16 = _mm_loadu_si128(brow.as_ptr().add(j) as *const __m128i);
            let prod = _mm256_mullo_epi32(_mm256_cvtepi16_epi32(b16), vav);
            let o = _mm256_loadu_si256(out.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, _mm256_add_epi32(o, prod));
            j += 8;
        }
        acc_row_tail(out, av, brow, j);
    }

    /// `out[j] += av₀·b₀[j] + av₁·b₁[j]` over two `i8` rows via
    /// `vpmaddwd`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn acc_pair_i8(
        out: &mut [i32],
        av0: i16,
        brow0: &[i8],
        av1: i16,
        brow1: &[i8],
    ) {
        let n = brow0.len();
        let pair = _mm256_set1_epi32(pair_multiplier(av0, av1));
        let mut j = 0;
        while j + 8 <= n {
            let b0 = _mm_cvtepi8_epi16(_mm_loadl_epi64(brow0.as_ptr().add(j) as *const __m128i));
            let b1 = _mm_cvtepi8_epi16(_mm_loadl_epi64(brow1.as_ptr().add(j) as *const __m128i));
            let inter = _mm256_set_m128i(_mm_unpackhi_epi16(b0, b1), _mm_unpacklo_epi16(b0, b1));
            let prod = _mm256_madd_epi16(inter, pair);
            let o = _mm256_loadu_si256(out.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, _mm256_add_epi32(o, prod));
            j += 8;
        }
        acc_pair_tail(out, av0, brow0, av1, brow1, j);
    }

    /// `out[j] += av₀·b₀[j] + av₁·b₁[j]` over two `i16` rows via
    /// `vpmaddwd`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn acc_pair_i16(
        out: &mut [i32],
        av0: i16,
        brow0: &[i16],
        av1: i16,
        brow1: &[i16],
    ) {
        let n = brow0.len();
        let pair = _mm256_set1_epi32(pair_multiplier(av0, av1));
        let mut j = 0;
        while j + 8 <= n {
            let b0 = _mm_loadu_si128(brow0.as_ptr().add(j) as *const __m128i);
            let b1 = _mm_loadu_si128(brow1.as_ptr().add(j) as *const __m128i);
            let inter = _mm256_set_m128i(_mm_unpackhi_epi16(b0, b1), _mm_unpacklo_epi16(b0, b1));
            let prod = _mm256_madd_epi16(inter, pair);
            let o = _mm256_loadu_si256(out.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, _mm256_add_epi32(o, prod));
            j += 8;
        }
        acc_pair_tail(out, av0, brow0, av1, brow1, j);
    }

    /// Dense-row `i8` kernel: one 8-column strip of `out` stays in a
    /// register while the whole activation row streams through `vpmaddwd`
    /// pairs (odd leftover via `vpmulld`) — `out` traffic drops from one
    /// read-modify-write per pair to one per strip.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense_row_i8(orow: &mut [i32], arow: &[i16], b: &[i8], n: usize) {
        let k = arow.len();
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = _mm256_loadu_si256(orow.as_ptr().add(j) as *const __m256i);
            let mut kk = 0;
            while kk + 2 <= k {
                let pair = _mm256_set1_epi32(pair_multiplier(
                    *arow.get_unchecked(kk),
                    *arow.get_unchecked(kk + 1),
                ));
                let b0 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    b.as_ptr().add(kk * n + j) as *const __m128i
                ));
                let b1 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    b.as_ptr().add((kk + 1) * n + j) as *const __m128i
                ));
                let inter =
                    _mm256_set_m128i(_mm_unpackhi_epi16(b0, b1), _mm_unpacklo_epi16(b0, b1));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(inter, pair));
                kk += 2;
            }
            if kk < k {
                let vav = _mm256_set1_epi32(*arow.get_unchecked(kk) as i32);
                let b8 = _mm_loadl_epi64(b.as_ptr().add(kk * n + j) as *const __m128i);
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(_mm256_cvtepi8_epi32(b8), vav));
            }
            _mm256_storeu_si256(orow.as_mut_ptr().add(j) as *mut __m256i, acc);
            j += 8;
        }
        dense_col_tail(orow, arow, b, n, j);
    }

    /// Dense-row `i16` kernel (attention scores at 0% sparsity).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense_row_i16(orow: &mut [i32], arow: &[i16], b: &[i16], n: usize) {
        let k = arow.len();
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = _mm256_loadu_si256(orow.as_ptr().add(j) as *const __m256i);
            let mut kk = 0;
            while kk + 2 <= k {
                let pair = _mm256_set1_epi32(pair_multiplier(
                    *arow.get_unchecked(kk),
                    *arow.get_unchecked(kk + 1),
                ));
                let b0 = _mm_loadu_si128(b.as_ptr().add(kk * n + j) as *const __m128i);
                let b1 = _mm_loadu_si128(b.as_ptr().add((kk + 1) * n + j) as *const __m128i);
                let inter =
                    _mm256_set_m128i(_mm_unpackhi_epi16(b0, b1), _mm_unpacklo_epi16(b0, b1));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(inter, pair));
                kk += 2;
            }
            if kk < k {
                let vav = _mm256_set1_epi32(*arow.get_unchecked(kk) as i32);
                let b16 = _mm_loadu_si128(b.as_ptr().add(kk * n + j) as *const __m128i);
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(_mm256_cvtepi16_epi32(b16), vav));
            }
            _mm256_storeu_si256(orow.as_mut_ptr().add(j) as *mut __m256i, acc);
            j += 8;
        }
        dense_col_tail(orow, arow, b, n, j);
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod sse2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{acc_pair_tail as pair_tail, dense_col_tail, pair_multiplier};

    /// Sign-extends the low 8 bytes of `v` to eight `i16` lanes (SSE2 has
    /// no `pmovsxbw`; interleave-with-self then arithmetic-shift does it).
    #[inline]
    unsafe fn widen_i8(v: __m128i) -> __m128i {
        _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8)
    }

    /// Two-row `i8` accumulation via `pmaddwd` (4 lanes per 128-bit op).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn acc_pair_i8(
        out: &mut [i32],
        av0: i16,
        brow0: &[i8],
        av1: i16,
        brow1: &[i8],
    ) {
        let n = brow0.len();
        let pair = _mm_set1_epi32(pair_multiplier(av0, av1));
        let mut j = 0;
        while j + 8 <= n {
            let b0 = widen_i8(_mm_loadl_epi64(brow0.as_ptr().add(j) as *const __m128i));
            let b1 = widen_i8(_mm_loadl_epi64(brow1.as_ptr().add(j) as *const __m128i));
            madd_store(out, j, _mm_unpacklo_epi16(b0, b1), _mm_unpackhi_epi16(b0, b1), pair);
            j += 8;
        }
        pair_tail(out, av0, brow0, av1, brow1, j);
    }

    /// Two-row `i16` accumulation via `pmaddwd`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn acc_pair_i16(
        out: &mut [i32],
        av0: i16,
        brow0: &[i16],
        av1: i16,
        brow1: &[i16],
    ) {
        let n = brow0.len();
        let pair = _mm_set1_epi32(pair_multiplier(av0, av1));
        let mut j = 0;
        while j + 8 <= n {
            let b0 = _mm_loadu_si128(brow0.as_ptr().add(j) as *const __m128i);
            let b1 = _mm_loadu_si128(brow1.as_ptr().add(j) as *const __m128i);
            madd_store(out, j, _mm_unpacklo_epi16(b0, b1), _mm_unpackhi_epi16(b0, b1), pair);
            j += 8;
        }
        pair_tail(out, av0, brow0, av1, brow1, j);
    }

    /// `pmaddwd` + accumulate for 8 output lanes given the interleaved
    /// low/high pair vectors.
    #[inline]
    unsafe fn madd_store(out: &mut [i32], j: usize, lo: __m128i, hi: __m128i, pair: __m128i) {
        let p_lo = _mm_madd_epi16(lo, pair);
        let p_hi = _mm_madd_epi16(hi, pair);
        let o_lo = _mm_loadu_si128(out.as_ptr().add(j) as *const __m128i);
        let o_hi = _mm_loadu_si128(out.as_ptr().add(j + 4) as *const __m128i);
        _mm_storeu_si128(out.as_mut_ptr().add(j) as *mut __m128i, _mm_add_epi32(o_lo, p_lo));
        _mm_storeu_si128(out.as_mut_ptr().add(j + 4) as *mut __m128i, _mm_add_epi32(o_hi, p_hi));
    }

    /// Single `i8` row: the pair kernel against itself with a zero second
    /// multiplier (`av·b[j] + 0·b[j]` is exactly `av·b[j]`).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn acc_row_i8(out: &mut [i32], av: i32, brow: &[i8]) {
        acc_pair_i8(out, av as i16, brow, 0, brow);
    }

    /// Single `i16` row, same zero-partner trick.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn acc_row_i16(out: &mut [i32], av: i32, brow: &[i16]) {
        acc_pair_i16(out, av as i16, brow, 0, brow);
    }

    /// Dense-row `i8` kernel: an 8-column strip of `out` stays in two
    /// `xmm` accumulators while the whole activation row streams through
    /// `pmaddwd` pairs; an odd leftover row reuses the zero-partner trick
    /// (SSE2 has no `pmulld`).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn dense_row_i8(orow: &mut [i32], arow: &[i16], b: &[i8], n: usize) {
        let k = arow.len();
        let zero = _mm_setzero_si128();
        let mut j = 0;
        while j + 8 <= n {
            let mut acc_lo = _mm_loadu_si128(orow.as_ptr().add(j) as *const __m128i);
            let mut acc_hi = _mm_loadu_si128(orow.as_ptr().add(j + 4) as *const __m128i);
            let mut kk = 0;
            while kk + 2 <= k {
                let pair = _mm_set1_epi32(pair_multiplier(
                    *arow.get_unchecked(kk),
                    *arow.get_unchecked(kk + 1),
                ));
                let b0 = widen_i8(_mm_loadl_epi64(b.as_ptr().add(kk * n + j) as *const __m128i));
                let b1 =
                    widen_i8(_mm_loadl_epi64(b.as_ptr().add((kk + 1) * n + j) as *const __m128i));
                acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(b0, b1), pair));
                acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(b0, b1), pair));
                kk += 2;
            }
            if kk < k {
                let pair = _mm_set1_epi32(pair_multiplier(*arow.get_unchecked(kk), 0));
                let b0 = widen_i8(_mm_loadl_epi64(b.as_ptr().add(kk * n + j) as *const __m128i));
                acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(b0, zero), pair));
                acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(b0, zero), pair));
            }
            _mm_storeu_si128(orow.as_mut_ptr().add(j) as *mut __m128i, acc_lo);
            _mm_storeu_si128(orow.as_mut_ptr().add(j + 4) as *mut __m128i, acc_hi);
            j += 8;
        }
        dense_col_tail(orow, arow, b, n, j);
    }

    /// Dense-row `i16` kernel.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn dense_row_i16(orow: &mut [i32], arow: &[i16], b: &[i16], n: usize) {
        let k = arow.len();
        let zero = _mm_setzero_si128();
        let mut j = 0;
        while j + 8 <= n {
            let mut acc_lo = _mm_loadu_si128(orow.as_ptr().add(j) as *const __m128i);
            let mut acc_hi = _mm_loadu_si128(orow.as_ptr().add(j + 4) as *const __m128i);
            let mut kk = 0;
            while kk + 2 <= k {
                let pair = _mm_set1_epi32(pair_multiplier(
                    *arow.get_unchecked(kk),
                    *arow.get_unchecked(kk + 1),
                ));
                let b0 = _mm_loadu_si128(b.as_ptr().add(kk * n + j) as *const __m128i);
                let b1 = _mm_loadu_si128(b.as_ptr().add((kk + 1) * n + j) as *const __m128i);
                acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(b0, b1), pair));
                acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(b0, b1), pair));
                kk += 2;
            }
            if kk < k {
                let pair = _mm_set1_epi32(pair_multiplier(*arow.get_unchecked(kk), 0));
                let b0 = _mm_loadu_si128(b.as_ptr().add(kk * n + j) as *const __m128i);
                acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(b0, zero), pair));
                acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(b0, zero), pair));
            }
            _mm_storeu_si128(orow.as_mut_ptr().add(j) as *mut __m128i, acc_lo);
            _mm_storeu_si128(orow.as_mut_ptr().add(j + 4) as *mut __m128i, acc_hi);
            j += 8;
        }
        dense_col_tail(orow, arow, b, n, j);
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    use super::{acc_pair_tail, acc_row_tail, dense_col_tail};

    /// `out[j] += av·b[j]` over one `i8` row (8 lanes per step via two
    /// `vmlal_s16` widening multiply-accumulates; products of `i16`
    /// operands are exact in `i32` and the accumulate add wraps).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn acc_row_i8(out: &mut [i32], av: i32, brow: &[i8]) {
        let n = brow.len();
        let vav = vdup_n_s16(av as i16);
        let mut j = 0;
        while j + 8 <= n {
            let b16 = vmovl_s8(vld1_s8(brow.as_ptr().add(j)));
            let lo = vmlal_s16(vld1q_s32(out.as_ptr().add(j)), vget_low_s16(b16), vav);
            let hi = vmlal_s16(vld1q_s32(out.as_ptr().add(j + 4)), vget_high_s16(b16), vav);
            vst1q_s32(out.as_mut_ptr().add(j), lo);
            vst1q_s32(out.as_mut_ptr().add(j + 4), hi);
            j += 8;
        }
        acc_row_tail(out, av, brow, j);
    }

    /// `out[j] += av·b[j]` over one `i16` row.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn acc_row_i16(out: &mut [i32], av: i32, brow: &[i16]) {
        let n = brow.len();
        let vav = vdup_n_s16(av as i16);
        let mut j = 0;
        while j + 8 <= n {
            let b16 = vld1q_s16(brow.as_ptr().add(j));
            let lo = vmlal_s16(vld1q_s32(out.as_ptr().add(j)), vget_low_s16(b16), vav);
            let hi = vmlal_s16(vld1q_s32(out.as_ptr().add(j + 4)), vget_high_s16(b16), vav);
            vst1q_s32(out.as_mut_ptr().add(j), lo);
            vst1q_s32(out.as_mut_ptr().add(j + 4), hi);
            j += 8;
        }
        acc_row_tail(out, av, brow, j);
    }

    /// `out[j] += av₀·b₀[j] + av₁·b₁[j]` over two `i8` rows (chained
    /// `vmlal_s16`; wrapping `i32` adds make the grouping exact).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn acc_pair_i8(
        out: &mut [i32],
        av0: i16,
        brow0: &[i8],
        av1: i16,
        brow1: &[i8],
    ) {
        let n = brow0.len();
        let vav0 = vdup_n_s16(av0);
        let vav1 = vdup_n_s16(av1);
        let mut j = 0;
        while j + 8 <= n {
            let b0 = vmovl_s8(vld1_s8(brow0.as_ptr().add(j)));
            let b1 = vmovl_s8(vld1_s8(brow1.as_ptr().add(j)));
            let mut lo = vld1q_s32(out.as_ptr().add(j));
            let mut hi = vld1q_s32(out.as_ptr().add(j + 4));
            lo = vmlal_s16(lo, vget_low_s16(b0), vav0);
            lo = vmlal_s16(lo, vget_low_s16(b1), vav1);
            hi = vmlal_s16(hi, vget_high_s16(b0), vav0);
            hi = vmlal_s16(hi, vget_high_s16(b1), vav1);
            vst1q_s32(out.as_mut_ptr().add(j), lo);
            vst1q_s32(out.as_mut_ptr().add(j + 4), hi);
            j += 8;
        }
        acc_pair_tail(out, av0, brow0, av1, brow1, j);
    }

    /// `out[j] += av₀·b₀[j] + av₁·b₁[j]` over two `i16` rows.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn acc_pair_i16(
        out: &mut [i32],
        av0: i16,
        brow0: &[i16],
        av1: i16,
        brow1: &[i16],
    ) {
        let n = brow0.len();
        let vav0 = vdup_n_s16(av0);
        let vav1 = vdup_n_s16(av1);
        let mut j = 0;
        while j + 8 <= n {
            let b0 = vld1q_s16(brow0.as_ptr().add(j));
            let b1 = vld1q_s16(brow1.as_ptr().add(j));
            let mut lo = vld1q_s32(out.as_ptr().add(j));
            let mut hi = vld1q_s32(out.as_ptr().add(j + 4));
            lo = vmlal_s16(lo, vget_low_s16(b0), vav0);
            lo = vmlal_s16(lo, vget_low_s16(b1), vav1);
            hi = vmlal_s16(hi, vget_high_s16(b0), vav0);
            hi = vmlal_s16(hi, vget_high_s16(b1), vav1);
            vst1q_s32(out.as_mut_ptr().add(j), lo);
            vst1q_s32(out.as_mut_ptr().add(j + 4), hi);
            j += 8;
        }
        acc_pair_tail(out, av0, brow0, av1, brow1, j);
    }

    /// Dense-row `i8` kernel: an 8-column strip of `out` stays in two
    /// `int32x4` accumulators while the whole activation row streams
    /// through `vmlal_s16`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dense_row_i8(orow: &mut [i32], arow: &[i16], b: &[i8], n: usize) {
        let mut j = 0;
        while j + 8 <= n {
            let mut acc_lo = vld1q_s32(orow.as_ptr().add(j));
            let mut acc_hi = vld1q_s32(orow.as_ptr().add(j + 4));
            for (kk, &av) in arow.iter().enumerate() {
                let vav = vdup_n_s16(av);
                let b16 = vmovl_s8(vld1_s8(b.as_ptr().add(kk * n + j)));
                acc_lo = vmlal_s16(acc_lo, vget_low_s16(b16), vav);
                acc_hi = vmlal_s16(acc_hi, vget_high_s16(b16), vav);
            }
            vst1q_s32(orow.as_mut_ptr().add(j), acc_lo);
            vst1q_s32(orow.as_mut_ptr().add(j + 4), acc_hi);
            j += 8;
        }
        dense_col_tail(orow, arow, b, n, j);
    }

    /// Dense-row `i16` kernel.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dense_row_i16(orow: &mut [i32], arow: &[i16], b: &[i16], n: usize) {
        let mut j = 0;
        while j + 8 <= n {
            let mut acc_lo = vld1q_s32(orow.as_ptr().add(j));
            let mut acc_hi = vld1q_s32(orow.as_ptr().add(j + 4));
            for (kk, &av) in arow.iter().enumerate() {
                let vav = vdup_n_s16(av);
                let b16 = vld1q_s16(b.as_ptr().add(kk * n + j));
                acc_lo = vmlal_s16(acc_lo, vget_low_s16(b16), vav);
                acc_hi = vmlal_s16(acc_hi, vget_high_s16(b16), vav);
            }
            vst1q_s32(orow.as_mut_ptr().add(j), acc_lo);
            vst1q_s32(orow.as_mut_ptr().add(j + 4), acc_hi);
            j += 8;
        }
        dense_col_tail(orow, arow, b, n, j);
    }
}

#[cfg(all(test, any(target_arch = "x86", target_arch = "x86_64")))]
mod tests {
    use super::*;
    use crate::kernels::reference;
    use tensor::backend::hw_simd_level;
    use tensor::Rng;

    fn rand_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
        (0..len).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect()
    }

    fn sparse_i16(len: usize, zero_frac: f64, rng: &mut Rng) -> Vec<i16> {
        (0..len)
            .map(|_| if rng.next_f64() < zero_frac { 0 } else { rng.next_below(511) as i16 - 255 })
            .collect()
    }

    /// Both the AVX2 and SSE2 per-level drivers — sparse pending-pair scan
    /// *and* the dense-row kernels — must reproduce the reference accumulators
    /// bit for bit on shapes around every lane boundary (8-lane steps,
    /// scalar tails, single-leftover rows, odd `k` for the pair fold).
    /// The kernels are taken directly per level (not through the mutable
    /// active-level global), so this is race-free under parallel tests.
    #[test]
    #[allow(clippy::type_complexity)]
    fn simd_levels_match_reference_bitwise() {
        let mut rng = Rng::seed_from(31);
        let mut level_kernels: Vec<(
            &str,
            unsafe fn(&mut [i32], i16, &[i8], i16, &[i8]),
            unsafe fn(&mut [i32], i32, &[i8]),
            unsafe fn(&mut [i32], &[i16], &[i8], usize),
            unsafe fn(&mut [i32], i16, &[i16], i16, &[i16]),
            unsafe fn(&mut [i32], i32, &[i16]),
            unsafe fn(&mut [i32], &[i16], &[i16], usize),
        )> = Vec::new();
        if matches!(hw_simd_level(), SimdLevel::Avx2) {
            level_kernels.push((
                "avx2",
                avx2::acc_pair_i8,
                avx2::acc_row_i8,
                avx2::dense_row_i8,
                avx2::acc_pair_i16,
                avx2::acc_row_i16,
                avx2::dense_row_i16,
            ));
        }
        if hw_simd_level() != SimdLevel::None {
            // SSE2 is testable whenever any x86 SIMD exists.
            level_kernels.push((
                "sse2",
                sse2::acc_pair_i8,
                sse2::acc_row_i8,
                sse2::dense_row_i8,
                sse2::acc_pair_i16,
                sse2::acc_row_i16,
                sse2::dense_row_i16,
            ));
        }
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 5, 7), (4, 9, 8), (5, 16, 19), (13, 64, 24)]
        {
            // 0.0 routes every row through the dense kernels; 0.5/0.9
            // keep the pending-pair scan (and 0.05 mixes both per row).
            for zero_frac in [0.0, 0.05, 0.5, 0.9] {
                let a = sparse_i16(m * k, zero_frac, &mut rng);
                let b8 = rand_i8(k * n, &mut rng);
                let b16 = sparse_i16(k * n, 0.0, &mut rng);
                let init: Vec<i32> =
                    (0..m * n).map(|_| rng.next_below(1 << 20) as i32 - (1 << 19)).collect();
                let want8 = reference::delta_matmul_update(&init, &a, &b8, m, k, n);
                let mut want16 = init.clone();
                reference::accumulate_i16_matmul(&mut want16, &a, &b16, m, k, n);
                for (name, pair8, row8, dense8, pair16, row16, dense16) in &level_kernels {
                    let mut got = init.clone();
                    accumulate_rows(&mut got, &a, &b8, m, k, n, *pair8, *row8, *dense8);
                    assert_eq!(got, want8, "{name} i8 diverged at {m}x{k}x{n} z={zero_frac}");
                    let mut got = init.clone();
                    accumulate_rows(&mut got, &a, &b16, m, k, n, *pair16, *row16, *dense16);
                    assert_eq!(got, want16, "{name} i16 diverged at {m}x{k}x{n} z={zero_frac}");
                }
            }
        }
    }
}
