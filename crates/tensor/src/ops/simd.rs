//! Explicit-SIMD `f32` kernels — the `Simd`-backend implementation of
//! [`super::matmul::matmul_acc_with`] and [`super::matmul::matvec_with`]
//! (and, through the im2col path, `conv2d`).
//!
//! # Bit-exactness strategy
//!
//! Floating-point addition does not associate, so unlike the integer
//! kernels in `quant::kernels::simd` these kernels may never *reassociate*
//! a reduction. Instead, **every SIMD lane is one independent output
//! element**: per element the products still arrive one at a time, in
//! ascending-`k` order, folded from the element's existing value (an
//! explicit `0.0` seed, or the bias the conv path pre-broadcast) with a
//! separate correctly rounded multiply and add — never FMA, whose single
//! rounding would change bits. That makes each kernel equal to the scalar
//! reference *by construction*; the cross-backend/cross-level proptest
//! matrices then verify the construction.
//!
//! The `a`-operand **zero-skip** of the reference kernels is semantic for
//! `f32` (skipping `0.0 × ∞` or `0.0 × NaN` products, and `+0.0 + -0.0`
//! corners, changes results), so the sparse paths here mirror the scalar
//! guarded passes exactly, and the register-tiled dense kernel is only
//! entered when `a` contains no zero at all — where skip and no-skip are
//! the same program.
//!
//! # Shape of the kernels
//!
//! One generic implementation ([`generic`]) is written against a minimal
//! vector abstraction (`VecF32`: load/store/splat/mul-then-add/strided
//! gather) and instantiated per instruction set: AVX2 (8 lanes), SSE2
//! (4 lanes), and NEON (4 lanes) — the rungs of the
//! [`crate::backend::SimdLevel`] ladder. Three matmul regimes:
//!
//! * **dense** (`a` has no zeros — e.g. the compiled-plan conv path, which
//!   hands the conv *weight* as `a`): an output-stationary register-tiled
//!   kernel holds a 2-row × 2-vector output tile in registers across the
//!   whole `k` extent, eliminating the per-`k` output traffic that
//!   dominates the streaming form;
//! * **streaming** (sparse `a`, small `B` or single row): the guarded
//!   eight-step pass of the scalar kernel with an explicitly vectorized
//!   column loop;
//! * **blocked** (sparse `a`, large `B`): an `MR`/`KC` cache-blocked loop
//!   nest with a vectorized column loop.
//!
//! Dispatch happens on the *active* level ([`crate::backend::simd_level`]),
//! so forcing `DITTO_SIMD_LEVEL=sse2` on an AVX2 host runs the real SSE2
//! kernels, and level `none` reports "no kernel" (`false`) and lets the
//! caller fall back to the scalar loops.

use crate::backend::{self, SimdLevel};

/// Explicit-SIMD `out [m,n] += a [m,k] × b [k,n]` at the active SIMD
/// level. Returns `false` (leaving `out` untouched) when no kernel exists
/// for the active level on this architecture — the caller falls back to
/// the scalar loops.
pub(crate) fn matmul_acc(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    match backend::simd_level() {
        // SAFETY (all arms): only hardware-supported levels can ever be
        // active (`set_simd_level` and the env resolution both enforce
        // `is_hw_supported`), so the matched level proves its feature.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::matmul_acc_avx2(out, a, b, m, k, n) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::matmul_acc_sse2(out, a, b, m, k, n) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::matmul_acc_neon(out, a, b, m, k, n) };
            true
        }
        _ => {
            let _ = (out, a, b, m, k, n);
            false
        }
    }
}

/// Explicit-SIMD `out [m] = a [m,k] × x [k]` at the active SIMD level
/// (lane-per-output-row; each row's dot product folds sequentially from an
/// explicit `0.0` seed exactly like the scalar `dot`). Returns `false`
/// when no kernel exists for the active level.
pub(crate) fn matvec(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) -> bool {
    match backend::simd_level() {
        // SAFETY (all arms): as in `matmul_acc` — an active level is
        // always hardware-supported.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::matvec_avx2(out, a, x, m, k) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::matvec_sse2(out, a, x, m, k) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::matvec_neon(out, a, x, m, k) };
            true
        }
        _ => {
            let _ = (out, a, x, m, k);
            false
        }
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) mod generic {
    use crate::ops::matmul;

    /// Rows of the left operand processed together by [`blocked_acc`].
    /// Each streamed row of `B` is reused `MR` times from L1 instead of
    /// being re-fetched per output row, and the `MR` live output rows stay
    /// cache-resident across the whole `k` loop.
    const MR: usize = 8;

    /// Depth block of [`blocked_acc`]: bounds the slice of `B` rows
    /// streamed per row block to `KC`·n·4 bytes so it survives in L2
    /// across row blocks.
    const KC: usize = 256;

    /// `B` element count below which blocking is not worth it: a `B` this
    /// small stays cache-resident across the plain streaming loop, so
    /// blocking only adds loop overhead and a strided `A` access pattern.
    /// Both orders are bit-identical per output element, so this is purely
    /// a performance dispatch.
    const B_ELEMS_BLOCK_THRESHOLD: usize = 1 << 14;

    /// The minimal vector contract the generic kernels are written
    /// against. All operations are lane-wise; `muladd` must lower to a
    /// separate correctly rounded multiply and add (never a fused
    /// multiply-add), because one rounding vs two changes bits.
    /// `pub(crate)` so the direct-conv kernels
    /// ([`crate::ops::conv_direct_simd`]) instantiate against the same
    /// contract (and the same per-ISA vector types) as the matmul family.
    pub(crate) trait VecF32: Copy {
        /// Lane count (vector width in `f32`s).
        const LANES: usize;
        /// # Safety
        /// `p` must be readable for `LANES` consecutive `f32`s.
        unsafe fn load(p: *const f32) -> Self;
        /// # Safety
        /// `p` must be writable for `LANES` consecutive `f32`s.
        unsafe fn store(self, p: *mut f32);
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn splat(v: f32) -> Self;
        /// `self + a·b`, separately rounded.
        /// # Safety
        /// Only unsafe because the underlying intrinsics are.
        unsafe fn muladd(self, a: Self, b: Self) -> Self;
        /// `{p[0], p[stride], …, p[(LANES-1)·stride]}`.
        /// # Safety
        /// Every strided element must be readable.
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self;
    }

    /// Full matmul-accumulate dispatch: register-tiled when `a` is
    /// entirely nonzero, guarded streaming for sparse small-`B`/single-row
    /// shapes, `MR`/`KC` blocked otherwise.
    ///
    /// # Safety
    ///
    /// The instantiating instruction set must be enabled in the enclosing
    /// `#[target_feature]` context, and the slices must have the declared
    /// `m·k` / `k·n` / `m·n` lengths (debug-asserted by the public entry).
    #[inline(always)]
    pub(super) unsafe fn matmul_acc_impl<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if a.is_empty() || n == 0 {
            return;
        }
        if a.iter().all(|&v| v != 0.0) {
            dense_acc::<V>(out, a, b, m, k, n);
        } else if k * n <= B_ELEMS_BLOCK_THRESHOLD || m < 2 {
            for i in 0..m {
                stream_row::<V>(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
            }
        } else {
            blocked_acc::<V>(out, a, b, m, k, n);
        }
    }

    /// Output-stationary register-tiled kernel for fully dense `a`: a
    /// 2-row × 2-vector output tile lives in four vector accumulators
    /// across the whole `k` extent (plus two broadcast and two `b`
    /// registers — comfortably inside 16 vector registers), so each output
    /// element is loaded and stored exactly once instead of once per
    /// streamed pass. Per element the products are still added one at a
    /// time in ascending `k` — the reference sequence — and `a` has no
    /// zeros, so the reference zero-skip is vacuously preserved.
    #[inline(always)]
    unsafe fn dense_acc<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let w = V::LANES;
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 2 <= m {
            let (o0, o1) = out[i * n..(i + 2) * n].split_at_mut(n);
            let a0row = &a[i * k..(i + 1) * k];
            let a1row = &a[(i + 1) * k..(i + 2) * k];
            let mut j = 0;
            while j + 2 * w <= n {
                let mut acc00 = V::load(o0.as_ptr().add(j));
                let mut acc01 = V::load(o0.as_ptr().add(j + w));
                let mut acc10 = V::load(o1.as_ptr().add(j));
                let mut acc11 = V::load(o1.as_ptr().add(j + w));
                for kk in 0..k {
                    let av0 = V::splat(*a0row.get_unchecked(kk));
                    let av1 = V::splat(*a1row.get_unchecked(kk));
                    let b0 = V::load(bp.add(kk * n + j));
                    let b1 = V::load(bp.add(kk * n + j + w));
                    acc00 = acc00.muladd(av0, b0);
                    acc01 = acc01.muladd(av0, b1);
                    acc10 = acc10.muladd(av1, b0);
                    acc11 = acc11.muladd(av1, b1);
                }
                acc00.store(o0.as_mut_ptr().add(j));
                acc01.store(o0.as_mut_ptr().add(j + w));
                acc10.store(o1.as_mut_ptr().add(j));
                acc11.store(o1.as_mut_ptr().add(j + w));
                j += 2 * w;
            }
            while j + w <= n {
                let mut acc0 = V::load(o0.as_ptr().add(j));
                let mut acc1 = V::load(o1.as_ptr().add(j));
                for kk in 0..k {
                    let bv = V::load(bp.add(kk * n + j));
                    acc0 = acc0.muladd(V::splat(*a0row.get_unchecked(kk)), bv);
                    acc1 = acc1.muladd(V::splat(*a1row.get_unchecked(kk)), bv);
                }
                acc0.store(o0.as_mut_ptr().add(j));
                acc1.store(o1.as_mut_ptr().add(j));
                j += w;
            }
            for jj in j..n {
                let (mut acc0, mut acc1) = (o0[jj], o1[jj]);
                for kk in 0..k {
                    let bv = b[kk * n + jj];
                    acc0 += a0row[kk] * bv;
                    acc1 += a1row[kk] * bv;
                }
                o0[jj] = acc0;
                o1[jj] = acc1;
            }
            i += 2;
        }
        if i < m {
            dense_row::<V>(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
        }
    }

    /// Single-row register-tiled kernel (the odd-`m` remainder of
    /// [`dense_acc`]): a 2-vector output strip in registers across `k`.
    #[inline(always)]
    unsafe fn dense_row<V: VecF32>(orow: &mut [f32], arow: &[f32], b: &[f32], k: usize, n: usize) {
        let w = V::LANES;
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 2 * w <= n {
            let mut acc0 = V::load(orow.as_ptr().add(j));
            let mut acc1 = V::load(orow.as_ptr().add(j + w));
            for kk in 0..k {
                let av = V::splat(*arow.get_unchecked(kk));
                acc0 = acc0.muladd(av, V::load(bp.add(kk * n + j)));
                acc1 = acc1.muladd(av, V::load(bp.add(kk * n + j + w)));
            }
            acc0.store(orow.as_mut_ptr().add(j));
            acc1.store(orow.as_mut_ptr().add(j + w));
            j += 2 * w;
        }
        while j + w <= n {
            let mut acc = V::load(orow.as_ptr().add(j));
            for kk in 0..k {
                acc = acc.muladd(V::splat(*arow.get_unchecked(kk)), V::load(bp.add(kk * n + j)));
            }
            acc.store(orow.as_mut_ptr().add(j));
            j += w;
        }
        for jj in j..n {
            let mut acc = orow[jj];
            for kk in 0..k {
                acc += arow[kk] * b[kk * n + jj];
            }
            orow[jj] = acc;
        }
    }

    /// One streaming output row: the scalar kernel's guarded eight-step
    /// head with an explicitly vectorized column loop, falling through to
    /// the shared scalar tail ([`matmul::stream_row_tail`]) at the first
    /// zero (or for `k % 8`), so zero-skip semantics are exactly the
    /// reference's.
    #[inline(always)]
    unsafe fn stream_row<V: VecF32>(orow: &mut [f32], arow: &[f32], b: &[f32], k: usize, n: usize) {
        let mut kk = 0;
        while kk + 8 <= k {
            let a8: [f32; 8] = arow[kk..kk + 8].try_into().expect("slice of 8");
            if a8.contains(&0.0) {
                break;
            }
            let bp = b.as_ptr().add(kk * n);
            let mut j = 0;
            while j + V::LANES <= n {
                let mut acc = V::load(orow.as_ptr().add(j));
                for (t, &av) in a8.iter().enumerate() {
                    acc = acc.muladd(V::splat(av), V::load(bp.add(t * n + j)));
                }
                acc.store(orow.as_mut_ptr().add(j));
                j += V::LANES;
            }
            for jj in j..n {
                let mut acc = orow[jj];
                for (t, &av) in a8.iter().enumerate() {
                    acc += av * b[(kk + t) * n + jj];
                }
                orow[jj] = acc;
            }
            kk += 8;
        }
        matmul::stream_row_tail(orow, arow, b, k, n, kk);
    }

    /// The `MR`/`KC` cache-blocked loop nest of the large-`B` path with a
    /// vectorized column loop. Per output element this is one product per
    /// non-zero `a[i,kk]` in ascending `k` order (the `kb` blocks ascend
    /// and `kk` ascends within each block), identical to the scalar
    /// streaming order.
    #[inline(always)]
    unsafe fn blocked_acc<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let w = V::LANES;
        for ib in (0..m).step_by(MR) {
            let ie = (ib + MR).min(m);
            for kb in (0..k).step_by(KC) {
                let ke = (kb + KC).min(k);
                for kk in kb..ke {
                    let brow = &b[kk * n..kk * n + n];
                    let bp = brow.as_ptr();
                    for i in ib..ie {
                        let aik = *a.get_unchecked(i * k + kk);
                        if aik == 0.0 {
                            continue;
                        }
                        let av = V::splat(aik);
                        let orow = &mut out[i * n..i * n + n];
                        let op = orow.as_mut_ptr();
                        let mut j = 0;
                        while j + w <= n {
                            V::load(op.add(j)).muladd(av, V::load(bp.add(j))).store(op.add(j));
                            j += w;
                        }
                        for jj in j..n {
                            orow[jj] += aik * brow[jj];
                        }
                    }
                }
            }
        }
    }

    /// Lane-per-output-row matvec: `LANES` rows accumulate in one vector
    /// register, gathering the rows' `kk`-th elements with a strided load
    /// per step. Each lane is an independent dot product folded from an
    /// explicit `0.0` seed in ascending `k` — exactly [`matmul::dot`],
    /// which also handles the `m % LANES` remainder rows.
    #[inline(always)]
    pub(super) unsafe fn matvec_impl<V: VecF32>(
        out: &mut [f32],
        a: &[f32],
        x: &[f32],
        m: usize,
        k: usize,
    ) {
        let w = V::LANES;
        let ap = a.as_ptr();
        let mut i = 0;
        if k > 0 {
            while i + w <= m {
                let mut acc = V::splat(0.0);
                for (kk, &xk) in x.iter().enumerate() {
                    let col = V::gather_stride(ap.add(i * k + kk), k);
                    acc = acc.muladd(col, V::splat(xk));
                }
                acc.store(out.as_mut_ptr().add(i));
                i += w;
            }
        }
        for r in i..m {
            out[r] = matmul::dot(&a[r * k..(r + 1) * k], x);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use super::generic::{matmul_acc_impl, matvec_impl, VecF32};

    /// 8-lane AVX2 vector. The arithmetic (`vmulps`/`vaddps`) only needs
    /// AVX, but the kernels are gated behind the `Avx2` ladder rung to
    /// keep one detection axis for the integer and float kernels alike.
    #[derive(Clone, Copy)]
    pub(crate) struct V256(__m256);

    impl VecF32 for V256 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V256(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V256(_mm256_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn muladd(self, a: Self, b: Self) -> Self {
            // Separate vmulps + vaddps; never vfmadd (single rounding).
            V256(_mm256_add_ps(self.0, _mm256_mul_ps(a.0, b.0)))
        }
        #[inline(always)]
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self {
            // `_mm256_set_ps` takes lanes high-to-low: lane t = p[t·stride].
            V256(_mm256_set_ps(
                *p.add(7 * stride),
                *p.add(6 * stride),
                *p.add(5 * stride),
                *p.add(4 * stride),
                *p.add(3 * stride),
                *p.add(2 * stride),
                *p.add(stride),
                *p,
            ))
        }
    }

    /// 4-lane SSE2 vector.
    #[derive(Clone, Copy)]
    pub(crate) struct V128(__m128);

    impl VecF32 for V128 {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V128(_mm_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V128(_mm_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn muladd(self, a: Self, b: Self) -> Self {
            V128(_mm_add_ps(self.0, _mm_mul_ps(a.0, b.0)))
        }
        #[inline(always)]
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self {
            V128(_mm_set_ps(*p.add(3 * stride), *p.add(2 * stride), *p.add(stride), *p))
        }
    }

    /// # Safety
    /// AVX2 must be available; slice lengths per [`matmul_acc_impl`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_acc_avx2(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V256>(out, a, b, m, k, n)
    }

    /// # Safety
    /// SSE2 must be available; slice lengths per [`matmul_acc_impl`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn matmul_acc_sse2(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V128>(out, a, b, m, k, n)
    }

    /// # Safety
    /// AVX2 must be available; slice lengths per [`matvec_impl`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matvec_avx2(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        matvec_impl::<V256>(out, a, x, m, k)
    }

    /// # Safety
    /// SSE2 must be available; slice lengths per [`matvec_impl`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn matvec_sse2(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        matvec_impl::<V128>(out, a, x, m, k)
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use core::arch::aarch64::*;

    use super::generic::{matmul_acc_impl, matvec_impl, VecF32};

    /// 4-lane NEON vector (NEON is aarch64 baseline).
    #[derive(Clone, Copy)]
    pub(crate) struct V128N(float32x4_t);

    impl VecF32 for V128N {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V128N(vld1q_f32(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            vst1q_f32(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V128N(vdupq_n_f32(v))
        }
        #[inline(always)]
        unsafe fn muladd(self, a: Self, b: Self) -> Self {
            // Separate vmulq + vaddq; never vfmaq (single rounding).
            V128N(vaddq_f32(self.0, vmulq_f32(a.0, b.0)))
        }
        #[inline(always)]
        unsafe fn gather_stride(p: *const f32, stride: usize) -> Self {
            let lanes = [*p, *p.add(stride), *p.add(2 * stride), *p.add(3 * stride)];
            V128N(vld1q_f32(lanes.as_ptr()))
        }
    }

    /// # Safety
    /// Slice lengths per [`matmul_acc_impl`] (NEON is always present on
    /// aarch64).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn matmul_acc_neon(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        matmul_acc_impl::<V128N>(out, a, b, m, k, n)
    }

    /// # Safety
    /// Slice lengths per [`matvec_impl`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn matvec_neon(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        matvec_impl::<V128N>(out, a, x, m, k)
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::Rng;

    /// Scalar reference: `ikj` with zero-skip — the ground truth every
    /// backend and level must match bitwise.
    fn reference_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
    }

    fn reference_matvec(out: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        for (i, o) in out.iter_mut().enumerate().take(m) {
            let mut acc = 0.0f32;
            for (kk, &xv) in x.iter().enumerate() {
                acc += a[i * k + kk] * xv;
            }
            *o = acc;
        }
    }

    fn rand_f32(rng: &mut Rng, zero_frac: f64) -> f32 {
        if zero_frac > 0.0 && rng.next_f64() < zero_frac {
            return 0.0;
        }
        let v = (rng.next_f64() * 2.0 - 1.0) as f32;
        // Dense cases must contain no *exact* zero, or the register-tiled
        // predicate flips to the streaming path.
        if v == 0.0 {
            0.5
        } else {
            v
        }
    }

    /// Every per-level kernel (called directly, independent of the mutable
    /// active-level global) matches the scalar reference bitwise on shapes
    /// around every lane and dispatch boundary.
    #[test]
    fn level_kernels_match_scalar_bitwise() {
        type AccFn = unsafe fn(&mut [f32], &[f32], &[f32], usize, usize, usize);
        type MvFn = unsafe fn(&mut [f32], &[f32], &[f32], usize, usize);
        let mut kernels: Vec<(&str, AccFn, MvFn)> =
            vec![("sse2", x86::matmul_acc_sse2, x86::matvec_sse2)];
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", x86::matmul_acc_avx2, x86::matvec_avx2));
        }
        let mut rng = Rng::seed_from(41);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 8, 16),   // exactly one dense register tile (AVX2)
            (3, 9, 17),   // k % 8 ≠ 0, odd-m remainder row, column tails
            (5, 13, 7),   // n below one AVX2 vector
            (2, 300, 3),  // n below one SSE2 vector
            (4, 7, 32),   // k below the eight-step streaming head
            (9, 300, 60), // k·n above the blocked-dispatch threshold
        ] {
            for zero_frac in [0.0, 0.35] {
                let a: Vec<f32> = (0..m * k).map(|_| rand_f32(&mut rng, zero_frac)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| rand_f32(&mut rng, 0.0)).collect();
                let x: Vec<f32> = (0..k).map(|_| rand_f32(&mut rng, 0.0)).collect();
                // Non-zero initial values: the conv path accumulates onto
                // a pre-broadcast bias.
                let seed: Vec<f32> = (0..m * n).map(|_| rand_f32(&mut rng, 0.0)).collect();
                let mut want = seed.clone();
                reference_acc(&mut want, &a, &b, m, k, n);
                let mut want_v = vec![0.0f32; m];
                reference_matvec(&mut want_v, &a, &x, m, k);
                for (name, acc_fn, mv_fn) in &kernels {
                    let mut got = seed.clone();
                    // SAFETY: SSE2 is x86-64 baseline; AVX2 entries are
                    // only pushed after runtime detection.
                    unsafe { acc_fn(&mut got, &a, &b, m, k, n) };
                    for (p, q) in got.iter().zip(&want) {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "{name} matmul_acc diverged at {m}x{k}x{n} z={zero_frac}"
                        );
                    }
                    let mut got_v = vec![0.0f32; m];
                    // SAFETY: as above.
                    unsafe { mv_fn(&mut got_v, &a, &x, m, k) };
                    for (p, q) in got_v.iter().zip(&want_v) {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "{name} matvec diverged at {m}x{k} z={zero_frac}"
                        );
                    }
                }
            }
        }
    }
}
