//! Pins the exact bytes of every benchmark's Tiny-scale workload trace and
//! generated sample. The trace is what every figure and every simulated
//! grid cell is computed from, so a rewrite of the quantized execution path
//! (`ditto_core::runner`) or of the bit-width histogram builders must leave
//! these digests unchanged. Both execution policies must also record the
//! very same trace: the statistics describe the workload, not how the host
//! happened to compute it.

use diffusion::graph::{fnv1a_fold, FNV1A_OFFSET};
use diffusion::{DiffusionModel, ModelKind, ModelScale};
use ditto_core::binio;
use ditto_core::runner::{trace_model, ExecPolicy};

const WEIGHT_SEED: u64 = 99;
const SAMPLE_SEED: u64 = 5;

/// `(model, FNV-1a of binio::to_vec(&trace), FNV-1a of the sample's f32
/// bits)` at `ModelScale::Tiny`.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("DDPM", 0xb6c1_c042_3f14_85fc, 0x436a_26dd_1115_5af1),
    ("BED", 0xa75d_31a1_8355_277e, 0xde1d_94c4_3775_083d),
    ("CHUR", 0xacdc_f190_3c9c_53a4, 0x087f_72ad_6e4d_8d5a),
    ("IMG", 0x83ae_9b1f_2dd9_76e1, 0x12e2_af49_157c_1a71),
    ("SDM", 0x8f25_c4e6_d858_070f, 0xa650_12e7_f285_0a26),
    ("DiT", 0xd0f5_5e17_69d8_87c8, 0x4c84_e844_3724_ac72),
    ("Latte", 0x32c8_0aef_02fc_04df, 0x2685_02b5_2e3a_1fb1),
];

fn digest(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_OFFSET, bytes)
}

#[test]
fn tiny_traces_and_samples_are_pinned_under_both_policies() {
    let mut got = Vec::new();
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, WEIGHT_SEED);
        let (dense_trace, dense_out) =
            trace_model(&model, SAMPLE_SEED, ExecPolicy::Dense).expect("dense");
        let (delta_trace, delta_out) =
            trace_model(&model, SAMPLE_SEED, ExecPolicy::TemporalDelta).expect("delta");
        let dense_bytes = binio::to_vec(&dense_trace);
        assert!(
            dense_bytes == binio::to_vec(&delta_trace),
            "{kind:?}: Dense and TemporalDelta must record identical traces"
        );
        assert_eq!(dense_out, delta_out, "{kind:?}: samples must match across policies");
        let sample: Vec<u8> = dense_out.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        got.push((kind.abbr(), digest(&dense_bytes), digest(&sample)));
    }
    for (g, e) in got.iter().zip(EXPECTED) {
        assert_eq!(g, e, "digest drift (trace, sample); all: {got:#x?}");
    }
    assert_eq!(got.len(), EXPECTED.len(), "all: {got:#x?}");
}
