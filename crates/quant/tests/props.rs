//! Property tests for the quantization stack: exactness of difference
//! processing in the integer domain, quantization error bounds, and
//! histogram invariants.

use proptest::prelude::*;
use quant::kernels::{delta_matmul_update, int_matmul, widen};
use quant::{BitWidthClass, BitWidthHistogram, BopsModel, QTensor};
use tensor::backend::{available_simd_levels, hw_simd_level, set_simd_level, SimdLevel};
use tensor::{KernelBackend, Tensor};

/// Backend × SIMD-level configurations: the portable `scalar` backend,
/// then the `simd` backend once per hardware-supported level (the sweep
/// the `DITTO_SIMD_LEVEL` override makes CI-testable). Level `none` is
/// included deliberately — it exercises the graceful fallback from the
/// `simd` dispatchers to the scalar loops.
fn backend_level_matrix() -> Vec<(KernelBackend, Option<SimdLevel>)> {
    let mut configs = vec![(KernelBackend::Scalar, None)];
    for level in available_simd_levels() {
        configs.push((KernelBackend::Simd, Some(level)));
    }
    configs
}

fn i8_vec(n: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(any::<i8>().prop_map(|v| if v == -128 { -127 } else { v }), n)
}

/// The per-element classification the branch-free histogram builders
/// replaced, kept as their reference.
fn oracle(values: impl IntoIterator<Item = i16>) -> BitWidthHistogram {
    let mut h = BitWidthHistogram::new();
    for v in values {
        h.push(BitWidthClass::of(v));
    }
    h
}

/// `from_activations`, `from_deltas` and `from_i8_diff` against
/// [`oracle`] on one `(cur, prev)` pair.
fn assert_builders_match_oracle(cur: &[i8], prev: &[i8]) {
    let deltas: Vec<i16> = cur.iter().zip(prev).map(|(&c, &p)| c as i16 - p as i16).collect();
    let len = cur.len();
    assert_eq!(
        BitWidthHistogram::from_activations(cur),
        oracle(cur.iter().map(|&v| v as i16)),
        "activations, len {len}"
    );
    assert_eq!(
        BitWidthHistogram::from_deltas(&deltas),
        oracle(deltas.clone()),
        "deltas, len {len}"
    );
    assert_eq!(BitWidthHistogram::from_i8_diff(cur, prev), oracle(deltas), "i8 diff, len {len}");
}

/// `cur` perturbed per element by a random amount that is mostly small
/// (zero and ≤4-bit differences) and sometimes arbitrary (8-bit and
/// over-8-bit ones).
fn near_levels(rng: &mut tensor::Rng, cur: &[i8]) -> Vec<i8> {
    cur.iter()
        .map(|&c| match rng.next_below(4) {
            0 => c,
            1 => c.wrapping_add(rng.next_below(16) as i8 - 8),
            _ => rng.next_below(256) as u8 as i8,
        })
        .collect()
}

/// Slice lengths at the counters' edges: empty, one, one 16-byte SIMD
/// register ±1, and the builders' 255-element counting chunk ±1, once and
/// repeated.
const EDGE_LENGTHS: [usize; 14] = [0, 1, 15, 16, 17, 254, 255, 256, 509, 510, 511, 764, 765, 766];

#[test]
fn histogram_builders_match_oracle_on_every_value() {
    let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
    // Every (cur, prev) pair: all 256 activations as `cur`, and every
    // difference -255..=255 (the ±254 range of clamped levels, plus the
    // -128 corner).
    let cur: Vec<i8> = all.iter().flat_map(|&c| std::iter::repeat_n(c, all.len())).collect();
    let prev: Vec<i8> = all.iter().copied().cycle().take(cur.len()).collect();
    assert_builders_match_oracle(&cur, &prev);
    assert_builders_match_oracle(&all, &all);
    let deltas: Vec<i16> = (-255..=255).collect();
    assert_eq!(BitWidthHistogram::from_deltas(&deltas), oracle(deltas.clone()));
}

#[test]
fn histogram_builders_match_oracle_at_chunk_edges() {
    let mut rng = tensor::Rng::seed_from(0x4b17);
    for len in EDGE_LENGTHS {
        // Uniform slices fill one bucket completely, so every narrow
        // counter reaches its chunk's full length.
        for v in [0i8, 3, -100, 127] {
            assert_builders_match_oracle(&vec![v; len], &vec![0; len]);
            assert_builders_match_oracle(&vec![v; len], &vec![-v; len]);
        }
        let cur: Vec<i8> = (0..len).map(|_| rng.next_below(256) as u8 as i8).collect();
        let prev = near_levels(&mut rng, &cur);
        assert_builders_match_oracle(&cur, &prev);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense integer execution and delta-update execution are bit-identical
    /// for arbitrary previous/current activations (the §IV-A equivalence).
    #[test]
    fn delta_processing_bit_exact(
        m in 1usize..4, k in 1usize..6, n in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let prev: Vec<i8> = (0..m * k).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let curr: Vec<i8> = (0..m * k).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let w: Vec<i8> = (0..k * n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let delta: Vec<i16> = curr.iter().zip(&prev).map(|(&c, &p)| c as i16 - p as i16).collect();
        let out_prev = int_matmul(&widen(&prev), &w, m, k, n);
        let dense = int_matmul(&widen(&curr), &w, m, k, n);
        let via = delta_matmul_update(&out_prev, &delta, &w, m, k, n);
        prop_assert_eq!(dense, via);
    }

    /// The active backend's (row-tiled SIMD where available) kernels are
    /// bit-identical to the scalar reference loops on arbitrary shapes and
    /// sparsity (larger shapes than the exactness test above, straddling
    /// the register-tile boundary).
    #[test]
    fn tiled_kernels_match_reference(
        m in 1usize..12, k in 1usize..24, n in 1usize..12,
        zero_pct in 0u32..100, seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let a: Vec<i16> = (0..m * k)
            .map(|_| {
                if rng.next_below(100) < zero_pct as usize { 0 }
                else { rng.next_below(511) as i16 - 255 }
            })
            .collect();
        let w: Vec<i8> = (0..k * n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        prop_assert_eq!(
            int_matmul(&a, &w, m, k, n),
            quant::kernels::reference::int_matmul(&a, &w, m, k, n)
        );
        let prev: Vec<i32> =
            (0..m * n).map(|_| rng.next_below(1 << 16) as i32 - (1 << 15)).collect();
        prop_assert_eq!(
            delta_matmul_update(&prev, &a, &w, m, k, n),
            quant::kernels::reference::delta_matmul_update(&prev, &a, &w, m, k, n)
        );
    }

    /// Every kernel × every available backend × every available SIMD
    /// level is bit-identical to the scalar reference loops — the
    /// cross-backend matrix behind the pluggable kernel-backend layer
    /// (`tensor::backend`). Covers the dense matmul (`zero_pct == 0`
    /// drives every row through the dense-row register kernels), the
    /// fused delta update, and both attention kernels, at
    /// delta-realistic sparsities, on shapes straddling the 8-lane
    /// boundary (`n < 8`, odd `n`, odd `k` for the pair fold).
    #[test]
    fn backend_matrix_matches_reference(
        m in 1usize..14, k in 1usize..40, n in 1usize..24,
        zero_pct in 0u32..100, seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let mut sparse_i16 = |len: usize| -> Vec<i16> {
            (0..len)
                .map(|_| {
                    if rng.next_below(100) < zero_pct as usize { 0 }
                    else { rng.next_below(511) as i16 - 255 }
                })
                .collect()
        };
        let a = sparse_i16(m * k);
        let dq = sparse_i16(m * k);
        let k_t = sparse_i16(k * n);
        let dk_t = sparse_i16(k * n);
        let w: Vec<i8> = (0..k * n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect();
        let prev: Vec<i32> =
            (0..m * n).map(|_| rng.next_below(1 << 16) as i32 - (1 << 15)).collect();
        let want_mm = quant::kernels::reference::int_matmul(&a, &w, m, k, n);
        let want_delta = quant::kernels::reference::delta_matmul_update(&prev, &a, &w, m, k, n);
        let want_scores = quant::kernels::int_scores_with(KernelBackend::Scalar, &a, &k_t, m, k, n);
        let want_attn = quant::kernels::attention_delta_scores_with(
            KernelBackend::Scalar, &prev, &a, &dq, &k_t, &dk_t, m, k, n,
        );
        for (backend, level) in backend_level_matrix() {
            if let Some(level) = level {
                set_simd_level(level).unwrap();
            }
            prop_assert_eq!(
                &quant::kernels::int_matmul_with(backend, &a, &w, m, k, n),
                &want_mm, "int_matmul diverged on {} at {:?}", backend, level
            );
            prop_assert_eq!(
                &quant::kernels::delta_matmul_update_with(backend, &prev, &a, &w, m, k, n),
                &want_delta, "delta_matmul_update diverged on {} at {:?}", backend, level
            );
            prop_assert_eq!(
                &quant::kernels::int_scores_with(backend, &a, &k_t, m, k, n),
                &want_scores, "int_scores diverged on {} at {:?}", backend, level
            );
            prop_assert_eq!(
                &quant::kernels::attention_delta_scores_with(
                    backend, &prev, &a, &dq, &k_t, &dk_t, m, k, n,
                ),
                &want_attn, "attention_delta_scores diverged on {} at {:?}", backend, level
            );
        }
        set_simd_level(hw_simd_level()).unwrap();
    }

    /// Quantize→dequantize error is bounded by half a quantization step.
    #[test]
    fn quant_error_bounded(vals in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
        let n = vals.len();
        let x = Tensor::from_vec(vals, &[n]).unwrap();
        let q = QTensor::quantize_dynamic(&x);
        let y = q.dequantize();
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            prop_assert!((a - b).abs() <= q.scale() * 0.5 + 1e-5);
        }
    }

    /// Quantization is scale-equivariant: quantizing c*x dynamically gives
    /// the same levels as quantizing x (for c > 0).
    #[test]
    fn dynamic_quant_scale_invariant(
        vals in proptest::collection::vec(-10.0f32..10.0, 1..32),
        c in 0.5f32..20.0,
    ) {
        let n = vals.len();
        let x = Tensor::from_vec(vals.clone(), &[n]).unwrap();
        let xs = Tensor::from_vec(vals.iter().map(|v| v * c).collect(), &[n]).unwrap();
        let qa = QTensor::quantize_dynamic(&x);
        let qb = QTensor::quantize_dynamic(&xs);
        for (a, b) in qa.data().iter().zip(qb.data()) {
            prop_assert!((a - b).abs() <= 1, "levels {a} vs {b}");
        }
    }

    /// Histogram buckets partition the data: counts sum to the total and
    /// every value lands in exactly the bucket its magnitude implies.
    #[test]
    fn histogram_partitions(deltas in proptest::collection::vec(-254i16..=254, 0..256)) {
        let h = BitWidthHistogram::from_deltas(&deltas);
        prop_assert_eq!(h.total(), deltas.len() as u64);
        let zero = deltas.iter().filter(|&&d| d == 0).count() as u64;
        let low4 = deltas.iter().filter(|&&d| d != 0 && (-8..=7).contains(&d)).count() as u64;
        prop_assert_eq!(h.zero, zero);
        prop_assert_eq!(h.low4, low4);
        let ratios = h.zero_ratio() + h.low4_ratio() + h.over4_ratio();
        if !deltas.is_empty() {
            prop_assert!((ratios - 1.0).abs() < 1e-9);
        }
    }

    /// The branch-free builders agree with the per-element oracle on
    /// arbitrary slices, including lengths that straddle the counting
    /// chunk.
    #[test]
    fn histogram_builders_match_oracle(
        cur in proptest::collection::vec(any::<i8>(), 0..700),
        seed in any::<u64>(),
    ) {
        let mut rng = tensor::Rng::seed_from(seed);
        let prev = near_levels(&mut rng, &cur);
        assert_builders_match_oracle(&cur, &prev);
    }

    /// BOPs of difference processing never exceed dense BOPs when no delta
    /// needs more than 8 bits.
    #[test]
    fn bops_never_worse_without_over8(deltas in proptest::collection::vec(-127i16..=127, 1..256)) {
        let h = BitWidthHistogram::from_deltas(&deltas);
        let m = BopsModel::a8w8();
        prop_assert!(m.relative_bops(&h) <= 1.0);
    }

    /// Spatial delta rows reconstruct the original tensor by prefix sums.
    #[test]
    fn spatial_delta_reconstructs(rows in 1usize..6, cols in 1usize..6, data in i8_vec(36)) {
        let need = rows * cols;
        prop_assume!(need <= data.len());
        let q = QTensor::from_parts(data[..need].to_vec(), &[rows, cols], 1.0);
        let (base, deltas) = q.spatial_delta_rows();
        let mut cur: Vec<i16> = base.iter().map(|&v| v as i16).collect();
        prop_assert_eq!(&cur[..], &q.data()[..cols].iter().map(|&v| v as i16).collect::<Vec<_>>()[..]);
        for r in 1..rows {
            for c in 0..cols {
                cur[c] += deltas[(r - 1) * cols + c];
                prop_assert_eq!(cur[c], q.data()[r * cols + c] as i16);
            }
        }
    }

    /// Lane cost is monotone in bit-width class.
    #[test]
    fn lane_cost_monotone(v in -254i16..=254) {
        let c = BitWidthClass::of(v);
        let cost = c.lane_cost();
        prop_assert!(cost <= 4);
        if v == 0 { prop_assert_eq!(cost, 0); }
        if v != 0 { prop_assert!(cost >= 1); }
    }
}
