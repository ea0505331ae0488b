//! End-to-end kernel-backend invariance: the whole pipeline — integer
//! kernels → quantized tracing → (design × model) grid simulation — must
//! produce bit-identical results under every `DITTO_KERNEL_BACKEND`
//! value, at every `DITTO_SIMD_LEVEL` the host supports. This is the
//! property that lets the serve scheduler memoize cells across requests
//! that selected different backends, and lets CI run the same
//! golden-figure byte-diffs per backend × level leg.

use accel::design::Design;
use accel::grid::{self, SweepSpec};
use diffusion::{DiffusionModel, ModelKind, ModelScale};
use ditto_core::runner::{trace_model, ExecPolicy};
use ditto_core::trace::WorkloadTrace;
use tensor::backend::{self, KernelBackend, SimdLevel};

/// The swept configurations: the portable `scalar` backend at the hardware
/// SIMD level, then the `simd` backend once per hardware-supported level
/// (skipping `none`, where `set_active(Simd)` rightly refuses) — the same
/// ladder sweep the `DITTO_SIMD_LEVEL` override exposes to CI.
fn backend_level_matrix() -> Vec<(KernelBackend, SimdLevel)> {
    let hw = backend::hw_simd_level();
    let mut configs = vec![(KernelBackend::Scalar, hw)];
    for level in backend::available_simd_levels() {
        if level != SimdLevel::None {
            configs.push((KernelBackend::Simd, level));
        }
    }
    configs
}

/// Traces one Tiny model under an explicit backend + SIMD level, both
/// dense and delta-policy, asserting the two policies agree (the §IV-A
/// equivalence must hold on every backend, not just the default one).
fn trace_under(
    backend: KernelBackend,
    level: SimdLevel,
    kind: ModelKind,
) -> (WorkloadTrace, Vec<u32>) {
    backend::set_simd_level(level).unwrap();
    backend::set_active(backend).unwrap();
    let model = DiffusionModel::build(kind, ModelScale::Tiny, 6);
    let (trace, out_dense) = trace_model(&model, 2, ExecPolicy::Dense).unwrap();
    let (_, out_delta) = trace_model(&model, 2, ExecPolicy::TemporalDelta).unwrap();
    assert_eq!(
        out_dense, out_delta,
        "dense/delta equivalence broke under backend {backend} for {kind:?}"
    );
    let bits = out_dense.as_slice().iter().map(|v| v.to_bits()).collect();
    (trace, bits)
}

#[test]
fn tracing_and_grid_are_backend_invariant() {
    let initial = backend::active();
    // One conv-heavy UNet and one attention-heavy transformer cover every
    // integer kernel (dense matmul, fused delta update, attention scores).
    let kinds = [ModelKind::Ddpm, ModelKind::Dit];
    let hw = backend::hw_simd_level();
    let reference: Vec<(WorkloadTrace, Vec<u32>)> =
        kinds.iter().map(|&k| trace_under(KernelBackend::Scalar, hw, k)).collect();

    for (b, level) in backend_level_matrix() {
        for (&kind, (want_trace, want_bits)) in kinds.iter().zip(&reference) {
            let (trace, bits) = trace_under(b, level, kind);
            assert_eq!(&bits, want_bits, "{kind:?} sample bits diverged under backend {b}@{level}");
            // Byte-compare the serialized traces: every histogram of every
            // layer at every step must be identical.
            assert_eq!(
                ditto_core::binio::to_vec(&trace),
                ditto_core::binio::to_vec(want_trace),
                "{kind:?} workload trace diverged under backend {b}@{level}"
            );
        }
    }

    // The grid engine over backend-produced traces: identical traces in,
    // so every cell metric must match bit for bit regardless of which
    // backend is active while simulating.
    let traces: Vec<&WorkloadTrace> = reference.iter().map(|(t, _)| t).collect();
    let designs = vec![Design::itc(), Design::ditto(), Design::diffy()];
    backend::set_active(KernelBackend::Scalar).unwrap();
    let want = grid::run(&SweepSpec::new(designs.clone(), traces.clone())).unwrap();
    for (b, level) in backend_level_matrix() {
        backend::set_simd_level(level).unwrap();
        backend::set_active(b).unwrap();
        let got = grid::run(&SweepSpec::new(designs.clone(), traces.clone())).unwrap();
        assert_eq!(got.designs, want.designs);
        for (x, y) in got.cells.iter().zip(&want.cells) {
            assert_eq!(
                x.run.cycles.to_bits(),
                y.run.cycles.to_bits(),
                "grid diverged under {b}@{level}"
            );
            assert_eq!(x.run.energy.total().to_bits(), y.run.energy.total().to_bits());
            assert_eq!(x.speedup_vs_gpu.to_bits(), y.speedup_vs_gpu.to_bits());
        }
        for (x, y) in got.gpu.iter().zip(&want.gpu) {
            assert_eq!(x.cycles.to_bits(), y.cycles.to_bits());
        }
    }
    backend::set_simd_level(hw).unwrap();
    backend::set_active(initial).unwrap();
}
