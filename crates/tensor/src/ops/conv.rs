//! 2-D convolution for NCHW tensors.
//!
//! [`conv2d`] classes every shape ([`conv2d_class`]) and routes it to one
//! of two formulations: the lowering-free **direct** path (the portable
//! sliding-window loop [`conv2d_direct`], or its SIMD strip kernel in
//! [`super::conv_direct_simd`] on the `Simd` backend), or the **im2col**
//! path (gather + the matmul kernel, the layout the Ditto hardware operates
//! on anyway). Pointwise 1×1 convs and gather-bound shapes stay direct;
//! wide-channel large shapes lower to im2col. The auto heuristic can be
//! overridden process-wide with `DITTO_CONV_MODE={auto,direct,im2col}`
//! (see [`conv_mode`]). All routes accumulate each output element's
//! products in the same order (bias first, then ascending `(c_in, ky,
//! kx)`), so they produce exactly equal results — see the
//! `im2col_route_bitwise_matches_direct` test.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

use crate::backend::{self, KernelBackend};
use crate::ops::matmul::matmul_acc_with;
use crate::{Result, Tensor, TensorError};

thread_local! {
    /// Reusable scratch for the im2col lowering: the im2col matrix, the
    /// transposed weight, and the pixel-major product. The trace path runs
    /// thousands of convolutions per reverse process; reusing these
    /// buffers cuts three large allocations per call. Safe because every
    /// call fully overwrites each buffer element it reads (see
    /// `scratch_reuse_is_bit_identical`).
    static IM2COL_SCRATCH: RefCell<Im2colScratch> = RefCell::new(Im2colScratch::default());
}

#[derive(Default)]
struct Im2colScratch {
    cols: Vec<f32>,
    wt: Vec<f32>,
    prod: Vec<f32>,
}

/// Dense-MAC threshold below which the auto-mode dispatcher keeps a shape
/// on the direct path unconditionally: the im2col materialization (plus
/// weight transpose and output de-interleave) costs more than any matmul
/// tiling saves on shapes this small.
const IM2COL_MAC_THRESHOLD: usize = 1 << 14;

/// Auto-mode `c_out` bound under which a multi-tap conv stays direct even
/// above the MAC threshold. The im2col gather writes `c_in*k*k` scratch
/// elements per output pixel while the matmul performs `c_in*k*k*c_out`
/// MACs for that pixel, so the (scalar, per-element) gather is roughly a
/// `8/c_out` fraction of the compute — for small `c_out` the lowering is
/// gather-bound and the direct strip kernels win outright.
const DIRECT_SMALL_C_OUT: usize = 16;

/// How the [`conv2d`] dispatcher chooses between the direct and im2col
/// routes. Resolved once per process from `DITTO_CONV_MODE` (see
/// [`conv_mode`]); all modes are bit-identical, they only trade speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvMode {
    /// Per-shape heuristic (the default): pointwise and gather-bound
    /// shapes run direct, wide-channel large shapes lower to im2col.
    Auto,
    /// Every conv runs the lowering-free direct path.
    Direct,
    /// Every conv lowers to im2col + matmul (the pre-dispatcher route).
    Im2col,
}

impl ConvMode {
    /// Every mode, in declaration order.
    pub const ALL: [ConvMode; 3] = [ConvMode::Auto, ConvMode::Direct, ConvMode::Im2col];

    /// Stable lower-case name (the `DITTO_CONV_MODE` value).
    pub fn name(self) -> &'static str {
        match self {
            ConvMode::Auto => "auto",
            ConvMode::Direct => "direct",
            ConvMode::Im2col => "im2col",
        }
    }

    /// Parses a `DITTO_CONV_MODE` value (case-insensitive).
    pub fn parse(s: &str) -> Option<ConvMode> {
        ConvMode::ALL.into_iter().find(|m| s.eq_ignore_ascii_case(m.name()))
    }

    /// Non-zero encoding for the process-wide atomic (0 = unresolved).
    fn encode(self) -> u8 {
        match self {
            ConvMode::Auto => 1,
            ConvMode::Direct => 2,
            ConvMode::Im2col => 3,
        }
    }

    /// Inverse of [`ConvMode::encode`]; `None` for the unresolved 0.
    fn decode(v: u8) -> Option<ConvMode> {
        ConvMode::ALL.into_iter().find(|m| m.encode() == v)
    }
}

impl std::fmt::Display for ConvMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide conv routing mode: 0 = unresolved, else
/// `ConvMode::encode`.
static ACTIVE_CONV_MODE: AtomicU8 = AtomicU8::new(0);

/// The active conv routing mode every [`conv2d`] dispatch consults,
/// resolving `DITTO_CONV_MODE` on first use. One relaxed atomic load on
/// the hot path.
pub fn conv_mode() -> ConvMode {
    match ConvMode::decode(ACTIVE_CONV_MODE.load(Ordering::Relaxed)) {
        Some(m) => m,
        None => {
            let resolved = resolve_conv_mode_from_env();
            // Publish only if still unresolved, so a racing
            // `set_conv_mode` override is never clobbered (same CAS
            // pattern as the backend's `ACTIVE`).
            match ACTIVE_CONV_MODE.compare_exchange(
                0,
                resolved.encode(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => resolved,
                Err(winner) => ConvMode::decode(winner)
                    .expect("non-zero ACTIVE_CONV_MODE values are encodings"),
            }
        }
    }
}

/// Overrides the conv routing mode for the rest of the process (or until
/// the next call) — the test/tooling hook behind `DITTO_CONV_MODE`. Every
/// mode is bit-identical, so flipping this concurrently with running
/// convolutions is benign — it changes speed, never values.
pub fn set_conv_mode(mode: ConvMode) {
    ACTIVE_CONV_MODE.store(mode.encode(), Ordering::Relaxed);
}

/// Resolves the startup conv mode from `DITTO_CONV_MODE`, falling back to
/// [`ConvMode::Auto`] with a (once-only) stderr warning on unknown values.
fn resolve_conv_mode_from_env() -> ConvMode {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let warn_once = |msg: String| {
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!("{msg}");
        }
    };
    match std::env::var("DITTO_CONV_MODE") {
        Ok(raw) if !raw.trim().is_empty() => match ConvMode::parse(raw.trim()) {
            Some(m) => m,
            None => {
                warn_once(format!(
                    "[tensor] unknown DITTO_CONV_MODE `{raw}` \
                     (expected auto|direct|im2col); using `auto`"
                ));
                ConvMode::Auto
            }
        },
        _ => ConvMode::Auto,
    }
}

/// The shape class the [`conv2d`] dispatcher assigns a convolution —
/// which formulation runs, and (for ahead-of-time compilers) whether the
/// shape needs im2col scratch at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvClass {
    /// Multi-tap direct: small shapes and gather-bound (narrow `c_out`)
    /// shapes where the im2col materialization would dominate.
    DirectSmall,
    /// 1×1 stride-1 unpadded conv: a pure channel mix with no borders —
    /// always direct (the strip kernel flattens the plane to one row).
    DirectPointwise,
    /// Wide-channel large shapes: lower to im2col + matmul.
    Im2col,
}

impl ConvClass {
    /// Whether this class runs the lowering-free direct path (no im2col
    /// scratch span in compiled plans).
    pub fn is_direct(self) -> bool {
        self != ConvClass::Im2col
    }
}

/// [`conv2d_class`] under an explicit mode — the pure (globals-free)
/// heuristic, usable from tests and plan compilers without touching the
/// process-wide mode.
pub fn conv2d_class_in_mode(
    mode: ConvMode,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    params: Conv2dParams,
) -> ConvClass {
    let k = params.kernel;
    let pointwise = k == 1 && params.stride == 1 && params.padding == 0;
    match mode {
        ConvMode::Direct => {
            if pointwise {
                ConvClass::DirectPointwise
            } else {
                ConvClass::DirectSmall
            }
        }
        ConvMode::Im2col => ConvClass::Im2col,
        ConvMode::Auto => {
            if pointwise {
                return ConvClass::DirectPointwise;
            }
            let wo = params.out_extent(w);
            let macs = c_out * params.out_extent(h) * wo * c_in * k * k;
            // Gather-bound guard: narrow-c_out shapes with rows wide
            // enough for vector strips beat the im2col gather at any MAC
            // count; narrow rows (wo < 2k) would run part-scalar, so they
            // keep the matmul tiling instead.
            if macs < IM2COL_MAC_THRESHOLD || (k > 1 && c_out <= DIRECT_SMALL_C_OUT && wo >= 2 * k)
            {
                ConvClass::DirectSmall
            } else {
                ConvClass::Im2col
            }
        }
    }
}

/// The shape class [`conv2d`] assigns this convolution under the active
/// [`conv_mode`].
///
/// Public so ahead-of-time compilers (`diffusion::plan`) can mirror the
/// routing decision at plan-build time: direct classes compile to the
/// scratch-free `Conv2dDirect` opcode, im2col classes pre-size scratch for
/// exactly the convolutions that will lower to matmul.
pub fn conv2d_class(
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    params: Conv2dParams,
) -> ConvClass {
    conv2d_class_in_mode(conv_mode(), c_in, h, w, c_out, params)
}

/// Whether [`conv2d`] routes this shape through the im2col + matmul path
/// (`true`) or the lowering-free direct path (`false`) — shorthand for
/// `conv2d_class(..) == ConvClass::Im2col`, kept for the plan compiler's
/// scratch sizing.
pub fn conv2d_uses_im2col(
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    params: Conv2dParams,
) -> bool {
    conv2d_class(c_in, h, w, c_out, params) == ConvClass::Im2col
}

/// Parameters of a 2-D convolution.
///
/// Only square kernels/strides/padding are needed by the Fig. 2 block
/// structures (1×1 and 3×3 convolutions, stride 1 or 2, "same" padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dParams {
    /// 3×3, stride 1, padding 1 — the workhorse ResNet-block convolution.
    pub fn same3x3() -> Self {
        Conv2dParams { kernel: 3, stride: 1, padding: 1 }
    }

    /// 1×1 pointwise convolution.
    pub fn pointwise() -> Self {
        Conv2dParams { kernel: 1, stride: 1, padding: 0 }
    }

    /// Output spatial extent for input extent `n`.
    pub fn out_extent(&self, n: usize) -> usize {
        (n + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams::same3x3()
    }
}

/// Validates conv2d operand shapes, returning `(c_in, h, w, c_out)`.
fn check_conv2d_shapes(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<(usize, usize, usize, usize)> {
    input.shape().expect_rank(3)?;
    weight.shape().expect_rank(4)?;
    let (c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (c_out, wc_in, kh, kw) =
        (weight.dims()[0], weight.dims()[1], weight.dims()[2], weight.dims()[3]);
    if wc_in != c_in || kh != params.kernel || kw != params.kernel {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: weight.dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        b.shape().expect_rank(1)?;
        if b.len() != c_out {
            return Err(TensorError::LengthMismatch { expected: c_out, actual: b.len() });
        }
    }
    Ok((c_in, h, w, c_out))
}

/// Validates weight/bias against a stated input channel count (the slice
/// entry point's analogue of [`check_conv2d_shapes`]), returning `c_out`.
fn check_conv2d_weight_shapes(
    c_in: usize,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<usize> {
    weight.shape().expect_rank(4)?;
    let (c_out, wc_in, kh, kw) =
        (weight.dims()[0], weight.dims()[1], weight.dims()[2], weight.dims()[3]);
    if wc_in != c_in || kh != params.kernel || kw != params.kernel {
        return Err(TensorError::ShapeMismatch { left: vec![c_in], right: weight.dims().to_vec() });
    }
    if let Some(b) = bias {
        b.shape().expect_rank(1)?;
        if b.len() != c_out {
            return Err(TensorError::LengthMismatch { expected: c_out, actual: b.len() });
        }
    }
    Ok(c_out)
}

/// 2-D convolution.
///
/// `input` is `[C_in, H, W]`, `weight` is `[C_out, C_in, K, K]`, optional
/// `bias` is `[C_out]`; output is `[C_out, H_out, W_out]`. (Batch size is
/// always 1 in the reproduction; the simulator scales counts instead.)
///
/// The shape's [`conv2d_class`] picks the formulation: im2col-classed
/// shapes lower through [`conv2d_im2col`]; direct classes run the
/// lowering-free path ([`conv2d_direct`] or its SIMD strip kernel). All
/// routes produce exactly equal results.
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    conv2d_with(backend::active(), input, weight, bias, params)
}

/// [`conv2d`] on an explicit backend. The shape-class routing is
/// backend-independent; the backend selects the kernel *inside* each
/// route (im2col: the backend's matmul kernel; direct: `Simd` = strip
/// kernel, `Scalar` = portable loop), so both backends stay
/// bit-identical — including the `-0.0` bias corner the two formulations
/// differ in (see [`conv2d_im2col`]).
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d_with(
    backend: KernelBackend,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let (c_in, h, w, c_out) = check_conv2d_shapes(input, weight, bias, params)?;
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    conv2d_into_with(
        backend,
        input.as_slice(),
        c_in,
        h,
        w,
        weight,
        bias,
        params,
        out.as_mut_slice(),
    )?;
    Ok(out)
}

/// [`conv2d_with`] over a caller-owned input slice and output buffer — the
/// entry point arena executors (`diffusion::plan`) use. `input` is a
/// `[c_in, h, w]` NCHW slice; `out` must hold exactly
/// `c_out * out_extent(h) * out_extent(w)` elements and is fully written.
/// Runs the identical direct-vs-im2col routing (and therefore the identical
/// accumulation orders) as the tensor path, so results are bit-identical to
/// [`conv2d`] on every backend.
///
/// # Errors
///
/// Returns shape errors if the weight/bias are inconsistent with `c_in` or
/// the slice lengths disagree with the stated dims.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into_with(
    backend: KernelBackend,
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut [f32],
) -> Result<()> {
    let c_out = check_conv2d_weight_shapes(c_in, weight, bias, params)?;
    if input.len() != c_in * h * w {
        return Err(TensorError::LengthMismatch { expected: c_in * h * w, actual: input.len() });
    }
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    if out.len() != c_out * ho * wo {
        return Err(TensorError::LengthMismatch { expected: c_out * ho * wo, actual: out.len() });
    }
    let bias = bias.map(Tensor::as_slice);
    crate::backend::count_dispatch(crate::backend::DispatchKernel::Conv2dF32, backend);
    if conv2d_class(c_in, h, w, c_out, params).is_direct() {
        conv2d_direct_dispatch(
            backend,
            input,
            c_in,
            h,
            w,
            weight.as_slice(),
            c_out,
            bias,
            params,
            out,
        );
    } else {
        conv2d_im2col_into(backend, input, c_in, h, w, weight.as_slice(), c_out, bias, params, out);
    }
    Ok(())
}

/// [`conv2d_into_with`] pinned to the lowering-free direct route, skipping
/// the shape-class dispatcher — the entry point the compiled-plan
/// `Conv2dDirect` opcode uses after classing the shape at plan-build time.
/// Counts under the `conv2d_direct_f32` dispatch kernel and never touches
/// the im2col scratch. Bit-identical to [`conv2d_direct`] on every backend.
///
/// # Errors
///
/// Returns shape errors if the weight/bias are inconsistent with `c_in` or
/// the slice lengths disagree with the stated dims.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_direct_into_with(
    backend: KernelBackend,
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut [f32],
) -> Result<()> {
    let c_out = check_conv2d_weight_shapes(c_in, weight, bias, params)?;
    if input.len() != c_in * h * w {
        return Err(TensorError::LengthMismatch { expected: c_in * h * w, actual: input.len() });
    }
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    if out.len() != c_out * ho * wo {
        return Err(TensorError::LengthMismatch { expected: c_out * ho * wo, actual: out.len() });
    }
    crate::backend::count_dispatch(crate::backend::DispatchKernel::Conv2dDirectF32, backend);
    conv2d_direct_dispatch(
        backend,
        input,
        c_in,
        h,
        w,
        weight.as_slice(),
        c_out,
        bias.map(Tensor::as_slice),
        params,
        out,
    );
    Ok(())
}

/// Runs the direct formulation on the given backend: the `Simd` backend
/// tries the register-strip kernel ([`super::conv_direct_simd`]), falling
/// back to the portable loop when the active level has no vector kernel;
/// `Scalar` always runs the portable loop. All routes are
/// bit-identical — the strip kernel replays the exact reference
/// accumulation order.
#[allow(clippy::too_many_arguments)]
fn conv2d_direct_dispatch(
    backend: KernelBackend,
    iv: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    wv: &[f32],
    c_out: usize,
    bias: Option<&[f32]>,
    params: Conv2dParams,
    ov: &mut [f32],
) {
    if backend == KernelBackend::Simd
        && super::conv_direct_simd::conv2d_direct_simd(iv, c_in, h, w, wv, c_out, bias, params, ov)
    {
        return;
    }
    conv2d_direct_into(iv, c_in, h, w, wv, c_out, bias, params, ov);
}

/// Direct (sliding-window loop) 2-D convolution — the reference kernel, and
/// the fast path for tiny shapes.
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let (c_in, h, w, c_out) = check_conv2d_shapes(input, weight, bias, params)?;
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    conv2d_direct_into(
        input.as_slice(),
        c_in,
        h,
        w,
        weight.as_slice(),
        c_out,
        bias.map(Tensor::as_slice),
        params,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Slice core of [`conv2d_direct`]: the sliding-window reference kernel
/// over pre-validated operands. Every `out` element is written.
///
/// The loop nest streams whole output rows per weight tap instead of
/// computing one output element at a time: each output plane is seeded
/// with the bias, then every `(c_in, ky, kx)` tap adds its shifted input
/// row into the valid output span. For any single output element the
/// addends are exactly those of the elementwise sliding-window loop in the
/// same order — bias first, then taps ascending in `(c_in, ky, kx)`, with
/// padding taps contributing nothing on both formulations — so this is a
/// pure loop-interchange: bit-identical output, but the inner loop is a
/// branch-free contiguous AXPY the compiler can vectorize.
#[allow(clippy::too_many_arguments)]
fn conv2d_direct_into(
    iv: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    wv: &[f32],
    c_out: usize,
    bias: Option<&[f32]>,
    params: Conv2dParams,
    ov: &mut [f32],
) {
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let k = params.kernel;
    let pad = params.padding as isize;
    for co in 0..c_out {
        let oplane = &mut ov[co * ho * wo..(co + 1) * ho * wo];
        oplane.fill(bias.map_or(0.0, |b| b[co]));
        for ci in 0..c_in {
            let plane = &iv[ci * h * w..(ci + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let wval = wv[((co * c_in + ci) * k + ky) * k + kx];
                    for oy in 0..ho {
                        let iy = (oy * params.stride + ky) as isize - pad;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let src = &plane[iy as usize * w..iy as usize * w + w];
                        let dst = &mut oplane[oy * wo..(oy + 1) * wo];
                        if params.stride == 1 {
                            // ix = ox + kx - pad must land in [0, w).
                            let shift = kx as isize - pad;
                            let lo = (-shift).clamp(0, wo as isize) as usize;
                            let hi = (w as isize - shift).clamp(lo as isize, wo as isize) as usize;
                            // An empty window (narrow input, wide padding:
                            // every ox of this kx falls in the pad) must be
                            // skipped before slicing `src` — `lo + shift`
                            // can sit past the plane width.
                            if lo < hi {
                                let src = &src[(lo as isize + shift) as usize
                                    ..(hi as isize + shift) as usize];
                                for (d, &s) in dst[lo..hi].iter_mut().zip(src) {
                                    *d += wval * s;
                                }
                            }
                        } else {
                            for (ox, d) in dst.iter_mut().enumerate() {
                                let ix = (ox * params.stride + kx) as isize - pad;
                                if ix >= 0 && (ix as usize) < w {
                                    *d += wval * src[ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// 2-D convolution lowered to im2col + the matmul kernel.
///
/// The `[H_out*W_out, C_in*K*K]` im2col matrix multiplies the transposed
/// weight `[C_in*K*K, C_out]` into a pixel-major `[H_out*W_out, C_out]`
/// product (initialized with the bias, so bias is the first addend exactly
/// as in [`conv2d_direct`]), which is then de-interleaved to channel-major
/// `[C_out, H_out, W_out]`.
///
/// Exactness: for every output element, the im2col column order equals the
/// direct loop's `(c_in, ky, kx)` order and padding taps contribute nothing
/// on both paths (skipped vs materialized as zeros the matmul zero-skips).
/// Zero *activations* are skipped here but add an exact `±0.0` on the
/// direct path; with finite operands that never changes a value, so the
/// two paths are equal (`==`) everywhere and bit-identical in tests. The
/// one reachable divergence is the sign of a zero: a `-0.0` accumulator
/// (e.g. a `-0.0` bias) stays `-0.0` here but flips to `+0.0` on the
/// direct path when a zero-activation product is added — numerically
/// equal, differing only in `to_bits()`.
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    conv2d_im2col_with(backend::active(), input, weight, bias, params)
}

/// [`conv2d_im2col`] with the accumulation kernel run on an explicit
/// backend (bit-identical across backends).
///
/// # Errors
///
/// Returns shape/rank errors if operands are inconsistent.
pub fn conv2d_im2col_with(
    backend: KernelBackend,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let (c_in, h, w, c_out) = check_conv2d_shapes(input, weight, bias, params)?;
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    conv2d_im2col_into(
        backend,
        input.as_slice(),
        c_in,
        h,
        w,
        weight.as_slice(),
        c_out,
        bias.map(Tensor::as_slice),
        params,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Slice core of [`conv2d_im2col_with`] over pre-validated operands: the
/// im2col lowering into the thread-local scratch, the bias-seeded matmul
/// accumulation, and the de-interleave into the caller's `[c_out, ho, wo]`
/// buffer. Every `out` element is written.
#[allow(clippy::too_many_arguments)]
fn conv2d_im2col_into(
    backend: KernelBackend,
    iv: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    wv: &[f32],
    c_out: usize,
    bias: Option<&[f32]>,
    params: Conv2dParams,
    out: &mut [f32],
) {
    let k = params.kernel;
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let pixels = ho * wo;
    let ckk = c_in * k * k;

    IM2COL_SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();

        // Every element of `cols` is written by the lowering (padding taps
        // are stored as explicit zeros), so reuse cannot leak state.
        s.cols.resize(pixels * ckk, 0.0);
        im2col_slice_into(iv, c_in, h, w, params, &mut s.cols);

        // Transpose the weight to [C_in*K*K, C_out] so output channels are
        // the matmul's streaming dimension; fully overwritten.
        s.wt.resize(ckk * c_out, 0.0);
        for co in 0..c_out {
            for col in 0..ckk {
                s.wt[col * c_out + co] = wv[co * ckk + col];
            }
        }

        // Pixel-major product, seeded with the bias (the direct loop's
        // first addend) before accumulation — every row is either bias-
        // copied or zero-filled, exactly like a fresh buffer.
        s.prod.resize(pixels * c_out, 0.0);
        match bias {
            Some(bv) => {
                for row in s.prod.chunks_exact_mut(c_out) {
                    row.copy_from_slice(bv);
                }
            }
            None => s.prod.fill(0.0),
        }
        matmul_acc_with(backend, &mut s.prod, &s.cols, &s.wt, pixels, ckk, c_out);

        // De-interleave to channel-major NCHW.
        for pix in 0..pixels {
            let prow = &s.prod[pix * c_out..(pix + 1) * c_out];
            for (co, &v) in prow.iter().enumerate() {
                out[co * pixels + pix] = v;
            }
        }
    });
}

/// Lowers a `[C, H, W]` input into an im2col matrix of shape
/// `[H_out*W_out, C*K*K]`, so convolution becomes a matmul against the
/// reshaped weight `[C*K*K, C_out]`.
///
/// This is the layout the Ditto hardware operates on: each im2col row is a
/// "sliding window", and Diffy's spatial differences are taken between
/// consecutive rows of exactly this matrix.
///
/// # Errors
///
/// Returns a rank error if `input` is not rank 3.
pub fn im2col(input: &Tensor, params: Conv2dParams) -> Result<Tensor> {
    input.shape().expect_rank(3)?;
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let cols = c * params.kernel * params.kernel;
    let mut out = Tensor::zeros(&[ho * wo, cols]);
    im2col_slice_into(input.as_slice(), c, h, w, params, out.as_mut_slice());
    Ok(out)
}

/// [`im2col`] into a caller-provided buffer of exactly
/// `H_out*W_out * C*K*K` elements (rank already validated). Writes every
/// element — padding taps become explicit zeros — so a reused scratch
/// buffer behaves exactly like a fresh one.
fn im2col_slice_into(
    iv: &[f32],
    c: usize,
    h: usize,
    w: usize,
    params: Conv2dParams,
    ov: &mut [f32],
) {
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let k = params.kernel;
    let cols = c * k * k;
    debug_assert_eq!(ov.len(), ho * wo * cols);
    for oy in 0..ho {
        for ox in 0..wo {
            let row = oy * wo + ox;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * params.stride + ky) as isize - params.padding as isize;
                    for kx in 0..k {
                        let ix = (ox * params.stride + kx) as isize - params.padding as isize;
                        let col = (ci * k + ky) * k + kx;
                        let val = if iy < 0 || iy as usize >= h || ix < 0 || ix as usize >= w {
                            0.0
                        } else {
                            iv[ci * h * w + iy as usize * w + ix as usize]
                        };
                        ov[row * cols + col] = val;
                    }
                }
            }
        }
    }
}

/// Lowers a `[C, H, W]` input into the **transposed** im2col matrix
/// `[C*K*K, H_out*W_out]` — element `[kidx, pix]` holds exactly the value
/// [`im2col`] puts at `[pix, kidx]` (padding taps are explicit zeros).
///
/// This K-major layout lets a convolution run as a *single* accumulation
/// `out += weight · colsT` with the weight in its native `[C_out, C*K*K]`
/// layout and the output written channel-major directly — no weight
/// transpose, no pixel-major intermediate, no de-interleave. It is the
/// lowering the compiled trace path (`diffusion::plan`) uses; crucially the
/// per-element accumulation order (ascending `(c_in, ky, kx)`) is unchanged,
/// so results stay bit-identical to the tensor path.
///
/// `ov` must hold exactly `C*K*K * H_out*W_out` elements; every element is
/// written, so a dirty scratch buffer behaves like a fresh one. Stride-1
/// rows are bulk `copy_from_slice` copies of input rows (with zero-filled
/// padding margins), which is most of why this beats the row-major lowering.
pub fn im2col_transposed_into(
    iv: &[f32],
    c: usize,
    h: usize,
    w: usize,
    params: Conv2dParams,
    ov: &mut [f32],
) {
    let ho = params.out_extent(h);
    let wo = params.out_extent(w);
    let k = params.kernel;
    let pad = params.padding as isize;
    debug_assert_eq!(ov.len(), c * k * k * ho * wo);
    let mut rows = ov.chunks_exact_mut(ho * wo);
    for ci in 0..c {
        let plane = &iv[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let orow = rows.next().expect("ov sized as ckk rows");
                for oy in 0..ho {
                    let iy = (oy * params.stride + ky) as isize - pad;
                    let dst = &mut orow[oy * wo..(oy + 1) * wo];
                    if iy < 0 || iy as usize >= h {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &plane[iy as usize * w..iy as usize * w + w];
                    if params.stride == 1 {
                        // ix = ox + kx - pad must land in [0, w); outside
                        // that window the taps are padding zeros.
                        let shift = kx as isize - pad;
                        let lo = (-shift).clamp(0, wo as isize) as usize;
                        let hi = (w as isize - shift).clamp(lo as isize, wo as isize) as usize;
                        dst[..lo].fill(0.0);
                        dst[hi..].fill(0.0);
                        dst[lo..hi].copy_from_slice(
                            &src[(lo as isize + shift) as usize..(hi as isize + shift) as usize],
                        );
                    } else {
                        for (ox, d) in dst.iter_mut().enumerate() {
                            let ix = (ox * params.stride + kx) as isize - pad;
                            *d = if ix < 0 || ix as usize >= w { 0.0 } else { src[ix as usize] };
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;
    use crate::Rng;

    #[test]
    fn pointwise_is_channel_mix() {
        // 1x1 conv over a 2-channel 2x2 input equals a per-pixel matmul.
        let input = Tensor::from_vec((1..=8).map(|x| x as f32).collect(), &[2, 2, 2]).unwrap();
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2, 1, 1]).unwrap();
        let out = conv2d(&input, &weight, None, Conv2dParams::pointwise()).unwrap();
        assert_eq!(out.dims(), &[2, 2, 2]);
        // out[0] = 1*in[0] + 2*in[1]; first pixel: 1*1 + 2*5 = 11.
        assert_eq!(out.at(&[0, 0, 0]), 11.0);
        // out[1] = 3*in[0] + 4*in[1]; first pixel: 3*1 + 4*5 = 23.
        assert_eq!(out.at(&[1, 0, 0]), 23.0);
    }

    #[test]
    fn bias_added() {
        let input = Tensor::full(&[1, 2, 2], 0.0);
        let weight = Tensor::zeros(&[3, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), Conv2dParams::pointwise()).unwrap();
        assert_eq!(out.at(&[0, 1, 1]), 1.0);
        assert_eq!(out.at(&[2, 0, 0]), 3.0);
    }

    #[test]
    fn same_padding_keeps_extent() {
        let input = Tensor::full(&[1, 5, 5], 1.0);
        let weight = Tensor::full(&[1, 1, 3, 3], 1.0);
        let out = conv2d(&input, &weight, None, Conv2dParams::same3x3()).unwrap();
        assert_eq!(out.dims(), &[1, 5, 5]);
        // Center pixel sees all nine taps; corner only four.
        assert_eq!(out.at(&[0, 2, 2]), 9.0);
        assert_eq!(out.at(&[0, 0, 0]), 4.0);
    }

    #[test]
    fn stride_two_halves_extent() {
        let p = Conv2dParams { kernel: 3, stride: 2, padding: 1 };
        assert_eq!(p.out_extent(8), 4);
        let input = Tensor::full(&[1, 8, 8], 1.0);
        let weight = Tensor::full(&[1, 1, 3, 3], 1.0);
        let out = conv2d(&input, &weight, None, p).unwrap();
        assert_eq!(out.dims(), &[1, 4, 4]);
    }

    #[test]
    fn im2col_route_bitwise_matches_direct() {
        // Every shape class the UNets produce: pointwise, 3x3 same,
        // stride-2, with and without bias, small and routing-sized. The two
        // paths must agree bit for bit — the Ditto equivalence chain sits on
        // top of these kernels.
        let mut rng = Rng::seed_from(7);
        let cases = [
            (1usize, 4usize, 3usize, Conv2dParams::pointwise()),
            (3, 6, 4, Conv2dParams::same3x3()),
            (8, 12, 16, Conv2dParams::same3x3()),
            (16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (32, 16, 32, Conv2dParams::same3x3()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            for b in [None, Some(&bias)] {
                let direct = conv2d_direct(&input, &weight, b, p).unwrap();
                let lowered = conv2d_im2col(&input, &weight, b, p).unwrap();
                let routed = conv2d(&input, &weight, b, p).unwrap();
                assert_eq!(direct.dims(), lowered.dims());
                for (d, l) in direct.as_slice().iter().zip(lowered.as_slice()) {
                    assert_eq!(
                        d.to_bits(),
                        l.to_bits(),
                        "im2col path diverged at c_in={c_in} hw={hw} c_out={c_out}"
                    );
                }
                assert_eq!(routed, direct);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // The thread-local im2col scratch is reused across calls of
        // *different* shapes (grow, shrink, regrow) and bias modes; every
        // call must still match the fresh-buffer reference — the direct
        // loop — bit for bit, and repeating a call must reproduce its own
        // output exactly.
        let mut rng = Rng::seed_from(11);
        let cases = [
            (16usize, 16usize, 32usize, Conv2dParams::same3x3()),
            (2, 5, 3, Conv2dParams::pointwise()),
            (32, 16, 32, Conv2dParams::same3x3()),
            (4, 7, 6, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (16, 16, 32, Conv2dParams::same3x3()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            for b in [None, Some(&bias)] {
                let direct = conv2d_direct(&input, &weight, b, p).unwrap();
                let first = conv2d_im2col(&input, &weight, b, p).unwrap();
                let second = conv2d_im2col(&input, &weight, b, p).unwrap();
                for ((d, f), s) in
                    direct.as_slice().iter().zip(first.as_slice()).zip(second.as_slice())
                {
                    assert_eq!(d.to_bits(), f.to_bits(), "reused scratch diverged from fresh");
                    assert_eq!(f.to_bits(), s.to_bits(), "repeat call not reproducible");
                }
            }
        }
    }

    #[test]
    fn every_backend_is_bit_identical() {
        let mut rng = Rng::seed_from(17);
        let cases = [
            (3usize, 6usize, 4usize, Conv2dParams::same3x3()),
            (16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (32, 16, 32, Conv2dParams::same3x3()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            for b in [None, Some(&bias)] {
                let want =
                    conv2d_with(crate::KernelBackend::Scalar, &input, &weight, b, p).unwrap();
                for backend in crate::backend::KernelBackend::available() {
                    let got = conv2d_with(backend, &input, &weight, b, p).unwrap();
                    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "conv2d backend {backend} diverged at c_in={c_in} hw={hw}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_route_error_paths_match_direct() {
        let input = Tensor::zeros(&[2, 4, 4]);
        let weight = Tensor::zeros(&[3, 5, 3, 3]); // wrong C_in
        assert!(conv2d_im2col(&input, &weight, None, Conv2dParams::same3x3()).is_err());
        let weight_ok = Tensor::zeros(&[3, 2, 3, 3]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(
            conv2d_im2col(&input, &weight_ok, Some(&bad_bias), Conv2dParams::same3x3()).is_err()
        );
    }

    #[test]
    fn im2col_matmul_matches_direct() {
        let mut rng = Rng::seed_from(3);
        let input = Tensor::randn(&[3, 6, 6], &mut rng);
        let weight = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let p = Conv2dParams::same3x3();
        let direct = conv2d(&input, &weight, None, p).unwrap();

        let cols = im2col(&input, p).unwrap();
        let wmat = weight.reshape(&[4, 27]).unwrap().transpose().unwrap();
        let prod = matmul(&cols, &wmat).unwrap(); // [H*W, C_out]
        for co in 0..4 {
            for pix in 0..36 {
                let d = direct.as_slice()[co * 36 + pix];
                let m = prod.as_slice()[pix * 4 + co];
                assert!((d - m).abs() < 1e-4, "mismatch at co={co} pix={pix}: {d} vs {m}");
            }
        }
    }

    #[test]
    fn transposed_im2col_matches_row_major_lowering() {
        // [kidx, pix] of the transposed lowering must equal [pix, kidx] of
        // `im2col`, bit for bit, across every shape class: pointwise, 3x3
        // same padding, stride 2, wide padding, and non-square spatial
        // extents (exercising both the bulk-copy stride-1 path and the
        // strided fallback).
        let mut rng = Rng::seed_from(23);
        let cases = [
            (1usize, 4usize, 4usize, Conv2dParams::pointwise()),
            (3, 6, 6, Conv2dParams::same3x3()),
            (2, 8, 8, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (2, 5, 9, Conv2dParams { kernel: 3, stride: 1, padding: 2 }),
            (4, 8, 4, Conv2dParams { kernel: 5, stride: 2, padding: 2 }),
        ];
        for &(c, h, w, p) in &cases {
            let input = Tensor::randn(&[c, h, w], &mut rng);
            let cols = im2col(&input, p).unwrap();
            let pixels = p.out_extent(h) * p.out_extent(w);
            let ckk = c * p.kernel * p.kernel;
            // Dirty scratch: the lowering must overwrite every element.
            let mut t = vec![f32::NAN; ckk * pixels];
            im2col_transposed_into(input.as_slice(), c, h, w, p, &mut t);
            for kidx in 0..ckk {
                for pix in 0..pixels {
                    assert_eq!(
                        t[kidx * pixels + pix].to_bits(),
                        cols.as_slice()[pix * ckk + kidx].to_bits(),
                        "c={c} h={h} w={w} k={} s={} p={} at kidx={kidx} pix={pix}",
                        p.kernel,
                        p.stride,
                        p.padding
                    );
                }
            }
        }
    }

    #[test]
    fn auto_mode_shape_classes() {
        use ConvClass::*;
        let class =
            |c_in, hw, c_out, p| conv2d_class_in_mode(ConvMode::Auto, c_in, hw, hw, c_out, p);
        // Pointwise is always direct, at any size: no borders, no gather.
        assert_eq!(class(8, 8, 8, Conv2dParams::pointwise()), DirectPointwise);
        assert_eq!(class(256, 16, 256, Conv2dParams::pointwise()), DirectPointwise);
        // Tiny multi-tap shapes below the MAC threshold stay direct.
        assert_eq!(class(3, 6, 4, Conv2dParams::same3x3()), DirectSmall);
        // Narrow-c_out shapes above the threshold are gather-bound: the
        // im2col materialization is ~8/c_out of the compute, so they run
        // the direct strips (12*8*8*12*9 = 82944 MACs, c_out=12 <= 16).
        assert_eq!(class(12, 8, 12, Conv2dParams::same3x3()), DirectSmall);
        // Wide-channel large shapes lower to im2col.
        assert_eq!(class(32, 16, 32, Conv2dParams::same3x3()), Im2col);
        assert_eq!(class(16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }), Im2col);
        // Narrow-row guard: c_out is small but wo < 2k would run the
        // strips part-scalar, so a large shape keeps the matmul tiling.
        assert_eq!(class(64, 4, 16, Conv2dParams::same3x3()), Im2col);
        // MAC-threshold arithmetic uses *output* extents.
        let p = Conv2dParams { kernel: 3, stride: 2, padding: 1 };
        let macs = 4 * 8 * 8 * 16 * 9; // c_out=4 <= 16 and wo=8 >= 6: direct.
        assert!(macs >= 1 << 14);
        assert_eq!(class(16, 16, 4, p), DirectSmall);
    }

    #[test]
    fn forced_modes_override_the_heuristic() {
        let p = Conv2dParams::same3x3();
        // A shape auto would run direct is forced onto the lowering...
        assert_eq!(conv2d_class_in_mode(ConvMode::Im2col, 1, 4, 4, 1, p), ConvClass::Im2col);
        // ...and an im2col-sized shape forced direct, preserving the
        // pointwise/multi-tap split.
        assert_eq!(
            conv2d_class_in_mode(ConvMode::Direct, 64, 32, 32, 64, p),
            ConvClass::DirectSmall
        );
        assert_eq!(
            conv2d_class_in_mode(ConvMode::Direct, 64, 32, 32, 64, Conv2dParams::pointwise()),
            ConvClass::DirectPointwise
        );
        assert!(ConvClass::DirectSmall.is_direct());
        assert!(ConvClass::DirectPointwise.is_direct());
        assert!(!ConvClass::Im2col.is_direct());
    }

    #[test]
    fn conv_mode_names_roundtrip() {
        for m in ConvMode::ALL {
            assert_eq!(ConvMode::parse(m.name()), Some(m));
            assert_eq!(ConvMode::decode(m.encode()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(ConvMode::parse("IM2COL"), Some(ConvMode::Im2col));
        assert_eq!(ConvMode::decode(0), None);
        assert!(ConvMode::parse("bogus").is_none());
    }

    #[test]
    fn uses_im2col_is_the_im2col_class() {
        // `conv2d_uses_im2col` is the plan compiler's scratch-sizing
        // mirror: it must be exactly "the dispatcher classes this shape
        // Im2col" under whatever mode the process is running.
        let cases = [
            (8usize, 8usize, 8usize, Conv2dParams::pointwise()),
            (12, 8, 12, Conv2dParams::same3x3()),
            (32, 16, 32, Conv2dParams::same3x3()),
            (16, 16, 4, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            assert_eq!(
                conv2d_uses_im2col(c_in, hw, hw, c_out, p),
                conv2d_class(c_in, hw, hw, c_out, p) == ConvClass::Im2col,
            );
        }
    }

    #[test]
    fn direct_entry_point_matches_reference_and_checks_shapes() {
        // `conv2d_direct_into_with` (the plan opcode's entry) must match
        // `conv2d_direct` bitwise on every backend — including im2col-sized
        // shapes it pins to the direct route — and validate like the
        // routed entry.
        let mut rng = Rng::seed_from(29);
        let cases = [
            (3usize, 6usize, 4usize, Conv2dParams::same3x3()),
            (32, 16, 32, Conv2dParams::same3x3()),
            (16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }),
            (8, 8, 8, Conv2dParams::pointwise()),
        ];
        for &(c_in, hw, c_out, p) in &cases {
            let input = Tensor::randn(&[c_in, hw, hw], &mut rng);
            let weight = Tensor::randn(&[c_out, c_in, p.kernel, p.kernel], &mut rng);
            let bias = Tensor::randn(&[c_out], &mut rng);
            for b in [None, Some(&bias)] {
                let want = conv2d_direct(&input, &weight, b, p).unwrap();
                for backend in crate::backend::KernelBackend::available() {
                    let mut out = vec![f32::NAN; want.len()];
                    conv2d_direct_into_with(
                        backend,
                        input.as_slice(),
                        c_in,
                        hw,
                        hw,
                        &weight,
                        b,
                        p,
                        &mut out,
                    )
                    .unwrap();
                    for (x, y) in out.iter().zip(want.as_slice()) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "direct entry diverged on {backend} at c_in={c_in} hw={hw}"
                        );
                    }
                }
            }
        }
        // Error paths mirror the routed entry.
        let input = Tensor::zeros(&[2, 4, 4]);
        let weight = Tensor::zeros(&[3, 2, 3, 3]);
        let mut out = vec![0.0; 3 * 4 * 4];
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d_direct_into_with(
            crate::KernelBackend::Scalar,
            input.as_slice(),
            2,
            4,
            4,
            &weight,
            Some(&bad_bias),
            Conv2dParams::same3x3(),
            &mut out,
        )
        .is_err());
        assert!(conv2d_direct_into_with(
            crate::KernelBackend::Scalar,
            &input.as_slice()[..7],
            2,
            4,
            4,
            &weight,
            None,
            Conv2dParams::same3x3(),
            &mut out,
        )
        .is_err());
    }

    #[test]
    fn shape_errors() {
        let input = Tensor::zeros(&[2, 4, 4]);
        let weight = Tensor::zeros(&[3, 5, 3, 3]); // wrong C_in
        assert!(conv2d(&input, &weight, None, Conv2dParams::same3x3()).is_err());
        let weight_ok = Tensor::zeros(&[3, 2, 3, 3]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d(&input, &weight_ok, Some(&bad_bias), Conv2dParams::same3x3()).is_err());
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    use crate::Tensor;
    #[test]
    fn narrow_input_wide_padding_direct() {
        // w=1, k=5, p=2 (same-style): valid shape, h+2p>=k.
        let input = Tensor::zeros(&[1, 5, 1]);
        let weight = Tensor::zeros(&[1, 1, 5, 5]);
        let p = Conv2dParams { kernel: 5, stride: 1, padding: 2 };
        let out = conv2d(&input, &weight, None, p).unwrap();
        assert_eq!(out.dims(), &[1, 5, 1]);
    }
}
