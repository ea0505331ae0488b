//! The Ditto execution engine: quantized linear-layer execution with
//! temporal-difference processing and workload tracing.
//!
//! [`DittoHook`] plugs into the diffusion executor's
//! [`LinearHook`] interface and:
//!
//! 1. executes every linear layer in the quantized integer domain (A8W8,
//!    §VI-A) — convolutions quantize their raw input once and feed its
//!    `i8` im2col expansion straight to the integer matmul, FC layers
//!    quantize their input directly, attention matmuls run on two
//!    quantized operands;
//! 2. maintains per-layer *grid-pinned* activation scales so temporal
//!    differences are exact integer subtractions (the Encoding Unit's
//!    subtractor, Fig. 11);
//! 3. optionally computes outputs through the three-stage difference path
//!    (delta → sparse low-bit matmul → summation, Fig. 7), which is
//!    bit-identical to dense integer execution — asserted in tests;
//! 4. records the [`WorkloadTrace`] of per-layer, per-step bit-width
//!    histograms that drives every analysis figure and the hardware
//!    simulator. The histograms count classes branch-free over the
//!    operand levels, and classify temporal and spatial differences
//!    without materializing them.
//!
//! Across steps each layer keeps its previous operand levels (both
//! policies: the temporal histogram needs them). Only
//! [`ExecPolicy::TemporalDelta`] also keeps the previous output
//! accumulators, and rebuilds them when a grid boundary re-quantizes the
//! stored operand; [`ExecPolicy::Dense`] never reads them, so it keeps
//! none.
//!
//! The integer kernels the hook drives (`quant::kernels::*`) dispatch
//! through the pluggable kernel-backend layer (`tensor::backend`:
//! scalar / explicit-SIMD). Backends are bit-identical, so traces
//! and samples — and therefore the trace cache, whose fingerprints cover
//! only the model definition — are backend-invariant; selecting a backend
//! (`DITTO_KERNEL_BACKEND` or the serve protocol's `backend` field) only
//! changes tracing speed.

use std::collections::HashMap;
use std::sync::Arc;

use diffusion::{DiffusionModel, LayerOp, LinearHook, Node, NodeId, StepInfo};
use quant::kernels::{attention_delta_scores, delta_matmul_update, int_matmul, widen};
use quant::{BitWidthHistogram, CalibrationTable, Calibrator, QTensor, Quantizer};
use tensor::ops::Conv2dParams;
use tensor::{stats, Tensor};

use crate::defo::{analyze, LayerBoundary};
use crate::trace::{LayerMeta, LinearKind, StepStats, SubOp, WorkloadTrace};

/// Headroom multiplier applied to grid scales pinned from the first step of
/// dynamically quantized models, absorbing the gradual range drift across
/// the reverse process (§II).
const DYNAMIC_GRID_HEADROOM: f32 = 1.25;

/// How [`DittoHook`] computes linear-layer outputs. Both policies are
/// numerically identical (difference processing is exact, §IV-A) and
/// record the same [`WorkloadTrace`]; the temporal policy actually walks
/// the three-stage path of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Dense integer matmuls — fastest host execution for trace capture.
    /// Per layer it keeps only the previous step's operand levels, which
    /// the temporal statistics need.
    Dense,
    /// Stage-1/2/3 temporal difference processing from the second model
    /// call onward. Per layer it additionally keeps the previous step's
    /// output accumulators, which the delta update starts from.
    TemporalDelta,
}

/// Quantized weight cache entry for a conv/FC layer.
#[derive(Debug)]
struct QWeight {
    /// `[k, n]` weight levels (k = reduction dim).
    data: Vec<i8>,
    scale: f32,
    k: usize,
    n: usize,
    bias: Option<Vec<f32>>,
}

impl QWeight {
    /// Quantizes a conv/FC layer's weights into `[k, n]` levels.
    fn of(node: &Node) -> Self {
        match &node.op {
            LayerOp::Conv2d { weight, bias, params } => {
                let c_out = weight.dims()[0];
                let k_red = weight.dims()[1] * params.kernel * params.kernel;
                // Reshape [C_out, C_in*K*K] → transpose to [k, n].
                let q = QTensor::quantize_dynamic(weight);
                let mut data = vec![0i8; k_red * c_out];
                for co in 0..c_out {
                    for kk in 0..k_red {
                        data[kk * c_out + co] = q.data()[co * k_red + kk];
                    }
                }
                QWeight {
                    data,
                    scale: q.scale(),
                    k: k_red,
                    n: c_out,
                    bias: bias.as_ref().map(|b| b.as_slice().to_vec()),
                }
            }
            LayerOp::Linear { weight, bias } => {
                let q = QTensor::quantize_dynamic(weight);
                QWeight {
                    scale: q.scale(),
                    data: q.into_data(),
                    k: weight.dims()[0],
                    n: weight.dims()[1],
                    bias: bias.as_ref().map(|b| b.as_slice().to_vec()),
                }
            }
            _ => unreachable!("attention matmuls have no weights"),
        }
    }

    /// Bias of output channel `co` (zero for a bias-free layer).
    fn bias(&self, co: usize) -> f32 {
        self.bias.as_ref().map_or(0.0, |b| b[co])
    }
}

/// Per-layer mutable state across steps.
#[derive(Debug, Clone, Default)]
struct LayerState {
    /// Pinned activation grid scale (primary operand).
    grid: Option<f32>,
    /// Pinned grid of the secondary operand (attention only).
    grid2: Option<f32>,
    /// Previous-step primary operand levels (im2col domain for convs),
    /// kept under both policies for the temporal statistics.
    prev_a: Vec<i8>,
    /// Grid scale `prev_a` (and `prev_acc`) were produced on.
    prev_a_grid: f32,
    /// Previous-step secondary operand levels (attention only).
    prev_b: Vec<i8>,
    /// Grid scale `prev_b` was produced on.
    prev_b_grid: f32,
    /// Previous-step output accumulators ([`ExecPolicy::TemporalDelta`]
    /// only; empty under [`ExecPolicy::Dense`], which never reads them).
    prev_acc: Vec<i32>,
}

/// Re-quantizes stored levels from `old` onto the `new` grid (exact in f32,
/// then rounded) — the boundary cost of calibrated grids that change
/// across time-step clusters (§VI-A).
fn regrid_levels(levels: &[i8], old: f32, new: f32) -> Vec<i8> {
    let ratio = old / new;
    levels.iter().map(|&v| (v as f32 * ratio).round().clamp(-127.0, 127.0) as i8).collect()
}

/// The Encoding Unit's subtractor output `cur - prev`, widened for the
/// difference kernels.
fn diff_i16(cur: &[i8], prev: &[i8]) -> Vec<i16> {
    cur.iter().zip(prev).map(|(&c, &p)| c as i16 - p as i16).collect()
}

/// The Ditto execution hook. See the module docs.
#[derive(Debug)]
pub struct DittoHook {
    quantizer: Quantizer,
    policy: ExecPolicy,
    boundaries: HashMap<NodeId, LayerBoundary>,
    weights: HashMap<NodeId, Arc<QWeight>>,
    states: HashMap<NodeId, LayerState>,
    layer_index: HashMap<NodeId, usize>,
    metas: Vec<LayerMeta>,
    steps: Vec<Vec<StepStats>>,
    model_abbr: &'static str,
}

impl DittoHook {
    /// Creates a hook for `model`, running Defo's static dependency
    /// analysis up front.
    pub fn new(model: &DiffusionModel, quantizer: Quantizer, policy: ExecPolicy) -> Self {
        let defo = analyze(&model.graph);
        let boundaries = defo.boundaries.into_iter().map(|b| (b.node, b)).collect();
        DittoHook {
            quantizer,
            policy,
            boundaries,
            weights: HashMap::new(),
            states: HashMap::new(),
            layer_index: HashMap::new(),
            metas: Vec::new(),
            steps: Vec::new(),
            model_abbr: model.kind.abbr(),
        }
    }

    /// Consumes the hook, returning the captured workload trace.
    pub fn into_trace(self) -> WorkloadTrace {
        WorkloadTrace { model: self.model_abbr.to_string(), layers: self.metas, steps: self.steps }
    }

    fn ensure_step_row(&mut self, step: usize) {
        while self.steps.len() <= step {
            self.steps.push(Vec::new());
        }
    }

    /// Resolves (or pins) the activation grid scale for a layer operand.
    fn grid_scale(&mut self, node: NodeId, step: usize, x: &Tensor, secondary: bool) -> f32 {
        // Static calibration tables already cluster steps; use their scale
        // directly (constant within a cluster, so deltas stay exact).
        // Secondary attention operands are keyed off the same node with a
        // large offset to keep their calibration records distinct.
        let key = if secondary { node + 1_000_000 } else { node };
        if let Some(table) = self.quantizer.table() {
            if let Some(s) = table.scale_for(key, step) {
                return s;
            }
        }
        let st = self.states.entry(node).or_default();
        let slot = if secondary { &mut st.grid2 } else { &mut st.grid };
        if let Some(s) = *slot {
            return s;
        }
        let amax = stats::abs_max(x.as_slice());
        let s = if amax == 0.0 {
            1.0
        } else {
            amax * DYNAMIC_GRID_HEADROOM / quant::qtensor::QMAX as f32
        };
        *slot = Some(s);
        s
    }

    /// The layer's quantized weights, quantized on first use and shared
    /// thereafter.
    fn quantize_weight(&mut self, node: &Node) -> Arc<QWeight> {
        Arc::clone(self.weights.entry(node.id).or_insert_with(|| Arc::new(QWeight::of(node))))
    }

    fn boundary(&self, node: NodeId) -> (bool, bool, Vec<String>, Vec<String>) {
        match self.boundaries.get(&node) {
            Some(b) => (
                b.needs_diff_calc,
                b.needs_summation,
                b.in_boundary.clone(),
                b.out_boundary.clone(),
            ),
            None => (true, true, Vec::new(), Vec::new()),
        }
    }

    /// Registers layer metadata on first encounter; returns the layer row
    /// index.
    #[allow(clippy::too_many_arguments)]
    fn register_layer(
        &mut self,
        node: &Node,
        kind: LinearKind,
        macs: u64,
        elems: u64,
        reuse: u64,
        subops: Vec<SubOp>,
        in_bytes: u64,
        weight_bytes: u64,
        out_bytes: u64,
    ) -> usize {
        if let Some(&idx) = self.layer_index.get(&node.id) {
            return idx;
        }
        let (needs_diff_calc, needs_summation, in_boundary, out_boundary) = self.boundary(node.id);
        let idx = self.metas.len();
        self.metas.push(LayerMeta {
            node: node.id,
            name: node.name.clone(),
            kind,
            macs,
            elems,
            reuse,
            subops,
            in_bytes,
            weight_bytes,
            out_bytes,
            needs_diff_calc,
            needs_summation,
            in_boundary,
            out_boundary,
        });
        self.layer_index.insert(node.id, idx);
        idx
    }

    fn record_stats(&mut self, step: usize, layer_idx: usize, stats: StepStats) {
        self.ensure_step_row(step);
        let row = &mut self.steps[step];
        while row.len() <= layer_idx {
            row.push(StepStats::default());
        }
        row[layer_idx] = stats;
    }

    /// Executes a conv/FC layer in the integer domain, records its stats
    /// and returns the `[m, n]` output accumulators (scale `grid *
    /// qw.scale`).
    ///
    /// `levels` is the flattened `[m, k]` operand (im2col for convs)
    /// already quantized on `grid`; it becomes the layer's stored previous
    /// operand. `raw_in_elems` is the raw input tensor size for byte
    /// accounting.
    #[allow(clippy::too_many_arguments)]
    fn run_weighted(
        &mut self,
        node: &Node,
        step: usize,
        kind: LinearKind,
        levels: Vec<i8>, // [m, k]
        grid: f32,
        raw_in_elems: u64,
        qw: &QWeight,
    ) -> Vec<i32> {
        let (k, n) = (qw.k, qw.n);
        let m = levels.len() / k;
        debug_assert_eq!(levels.len(), m * k, "operand shape");
        let macs = (m * k * n) as u64;
        let elems = (m * k) as u64;
        let idx = self.register_layer(
            node,
            kind,
            macs,
            elems,
            n as u64,
            vec![SubOp { label: "dx".into(), elems, reuse: n as u64 }],
            raw_in_elems,
            (k * n) as u64,
            (m * n) as u64,
        );

        let delta_policy = self.policy == ExecPolicy::TemporalDelta;
        let st = self.states.entry(node.id).or_default();
        let has_prev = st.prev_a.len() == levels.len();
        // Grid boundary (Q-Diffusion cluster change / TDQ step change):
        // re-quantize the stored previous operand onto the current grid
        // (and, for the delta path, rebuild its accumulators) so the
        // difference stays exact.
        if has_prev && st.prev_a_grid != grid {
            st.prev_a = regrid_levels(&st.prev_a, st.prev_a_grid, grid);
            if delta_policy {
                st.prev_acc = int_matmul(&widen(&st.prev_a), &qw.data, m, k, n);
            }
        }
        // Statistics under the three processing views.
        let act = BitWidthHistogram::from_activations(&levels);
        let spa = spatial_hist(&levels, m, k);
        let temporal = has_prev.then(|| vec![BitWidthHistogram::from_i8_diff(&levels, &st.prev_a)]);

        // Output accumulators: dense, or via the three-stage delta path.
        let acc = if has_prev && delta_policy {
            let d = diff_i16(&levels, &st.prev_a);
            delta_matmul_update(&st.prev_acc, &d, &qw.data, m, k, n)
        } else {
            int_matmul(&widen(&levels), &qw.data, m, k, n)
        };
        if delta_policy {
            st.prev_acc.clone_from(&acc);
        }
        st.prev_a = levels;
        st.prev_a_grid = grid;
        self.record_stats(step, idx, StepStats { act, spa, temporal });
        acc
    }

    /// Executes an attention matmul (`Q·Kᵀ` or `P·V`) in the integer
    /// domain and records two-sub-op difference statistics.
    fn run_attention(
        &mut self,
        node: &Node,
        step: usize,
        kind: LinearKind,
        a_f32: &Tensor, // Q [m, d] (or P [m, s])
        b_f32: &Tensor, // K [n, d] (or V [s, d]) — reduced along its matching dim
    ) -> (Vec<i32>, f32, usize, usize) {
        // Dimensions: QK: a=[m,d], b=[n,d], out [m,n] reducing d.
        //             PV: a=[m,s], b=[s,d], out [m,d] reducing s.
        let (m, red, n, b_is_transposed) = match kind {
            LinearKind::MatmulQk => (a_f32.dims()[0], a_f32.dims()[1], b_f32.dims()[0], true),
            LinearKind::MatmulPv => (a_f32.dims()[0], a_f32.dims()[1], b_f32.dims()[1], false),
            _ => unreachable!(),
        };
        let grid_a = self.grid_scale(node.id, step, a_f32, false);
        let grid_b = self.grid_scale(node.id, step, b_f32, true);
        let qa = QTensor::quantize_with_scale(a_f32, grid_a).into_data();
        let qb = QTensor::quantize_with_scale(b_f32, grid_b).into_data();
        // Bring B into [red, n] layout for the matmul.
        let b_mat: Vec<i8> = if b_is_transposed {
            // K is [n, red] → transpose.
            let mut t = vec![0i8; red * n];
            for r in 0..n {
                for c in 0..red {
                    t[c * n + r] = qb[r * red + c];
                }
            }
            t
        } else {
            qb
        };

        let macs = (m * red * n) as u64;
        let a_elems = (m * red) as u64;
        let b_elems = (red * n) as u64;
        let (sub_b_label, sub_a_label) = match kind {
            LinearKind::MatmulQk => ("dk", "dq"),
            _ => ("dv", "dp"),
        };
        let idx = self.register_layer(
            node,
            kind,
            macs,
            a_elems,
            n as u64,
            vec![
                SubOp { label: sub_b_label.into(), elems: b_elems, reuse: m as u64 },
                SubOp { label: sub_a_label.into(), elems: a_elems, reuse: n as u64 },
            ],
            a_elems + b_elems,
            0,
            (m * n) as u64,
        );

        let delta_policy = self.policy == ExecPolicy::TemporalDelta;
        let st = self.states.entry(node.id).or_default();
        let has_prev = st.prev_a.len() == qa.len() && st.prev_b.len() == b_mat.len();
        if has_prev && (st.prev_a_grid != grid_a || st.prev_b_grid != grid_b) {
            st.prev_a = regrid_levels(&st.prev_a, st.prev_a_grid, grid_a);
            st.prev_b = regrid_levels(&st.prev_b, st.prev_b_grid, grid_b);
            if delta_policy {
                st.prev_acc =
                    quant::kernels::int_scores(&widen(&st.prev_a), &widen(&st.prev_b), m, red, n);
            }
        }
        let act = BitWidthHistogram::from_activations(&qa);
        let spa = spatial_hist(&qa, m, red);
        let temporal = has_prev.then(|| {
            vec![
                BitWidthHistogram::from_i8_diff(&b_mat, &st.prev_b),
                BitWidthHistogram::from_i8_diff(&qa, &st.prev_a),
            ]
        });

        let acc = if has_prev && delta_policy {
            // scores_t = prev + A_t·ΔB + ΔA·B_prev (§IV-A).
            let (da, db) = (diff_i16(&qa, &st.prev_a), diff_i16(&b_mat, &st.prev_b));
            attention_delta_scores(
                &st.prev_acc,
                &widen(&qa),
                &da,
                &widen(&st.prev_b),
                &db,
                m,
                red,
                n,
            )
        } else {
            int_matmul(&widen(&qa), &b_mat, m, red, n)
        };
        if delta_policy {
            st.prev_acc.clone_from(&acc);
        }
        st.prev_a = qa;
        st.prev_a_grid = grid_a;
        st.prev_b = b_mat;
        st.prev_b_grid = grid_b;
        self.record_stats(step, idx, StepStats { act, spa, temporal });
        (acc, grid_a * grid_b, m, n)
    }
}

/// Spatial (row-wise) difference histogram: first row classified at its
/// activation bit-width, later rows as differences from the previous row —
/// the Diffy method extended to FC/attention rows (§III-B).
fn spatial_hist(data: &[i8], rows: usize, cols: usize) -> BitWidthHistogram {
    if rows == 0 || cols == 0 {
        return BitWidthHistogram::new();
    }
    let n = rows * cols;
    let mut h = BitWidthHistogram::from_activations(&data[..cols]);
    h.merge(&BitWidthHistogram::from_i8_diff(&data[cols..n], &data[..n - cols]));
    h
}

/// im2col on quantized levels; padding contributes exact zeros.
fn im2col_i8(
    data: &[i8],
    c: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
) -> (Vec<i8>, usize, usize) {
    /// Copies one `K`-tap run with fixed-size moves instead of a
    /// variable-length `memcpy`.
    fn taps<const K: usize>(dst: &mut [i8], src: &[i8]) {
        dst[..K].copy_from_slice(&src[..K]);
    }
    match p.kernel {
        1 => im2col_with(data, c, h, w, p, taps::<1>),
        3 => im2col_with(data, c, h, w, p, taps::<3>),
        _ => im2col_with(data, c, h, w, p, <[i8]>::copy_from_slice),
    }
}

/// [`im2col_i8`] with `copy` moving one kernel-width tap run. Each
/// (output row, channel, kernel row) copies its input row once into a
/// zero-padded buffer; every output pixel's run is then one copy from it,
/// with no per-tap bounds test.
fn im2col_with(
    data: &[i8],
    c: usize,
    h: usize,
    w: usize,
    p: Conv2dParams,
    copy: impl Fn(&mut [i8], &[i8]),
) -> (Vec<i8>, usize, usize) {
    let (ho, wo, k) = (p.out_extent(h), p.out_extent(w), p.kernel);
    let cols = c * k * k;
    let mut out = vec![0i8; ho * wo * cols];
    if out.is_empty() {
        return (out, ho * wo, cols);
    }
    let mut padded_row = vec![0i8; w + 2 * p.padding];
    for (oy, band) in out.chunks_exact_mut(wo * cols).enumerate() {
        for ci in 0..c {
            for ky in 0..k {
                let Some(iy) = (oy * p.stride + ky).checked_sub(p.padding).filter(|&iy| iy < h)
                else {
                    continue;
                };
                padded_row[p.padding..p.padding + w]
                    .copy_from_slice(&data[(ci * h + iy) * w..][..w]);
                let col0 = (ci * k + ky) * k;
                for (ox, row) in band.chunks_exact_mut(cols).enumerate() {
                    let x0 = ox * p.stride;
                    copy(&mut row[col0..col0 + k], &padded_row[x0..x0 + k]);
                }
            }
        }
    }
    (out, ho * wo, cols)
}

impl LinearHook for DittoHook {
    fn compute_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[&Tensor],
    ) -> Option<Tensor> {
        let s = step.step_index;
        match &node.op {
            LayerOp::Conv2d { params, .. } => {
                let x = inputs[0];
                let (c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2]);
                let p = *params;
                let qw = self.quantize_weight(node);
                // Quantize the raw input once, then expand to im2col so
                // padding zeros and duplicated taps are exact.
                let grid = self.grid_scale(node.id, s, x, false);
                let qx = QTensor::quantize_with_scale(x, grid);
                let (cols_mat, m, kdim) = im2col_i8(qx.data(), c, h, w, p);
                debug_assert_eq!(kdim, qw.k);
                let acc = self.run_weighted(
                    node,
                    s,
                    LinearKind::Conv,
                    cols_mat,
                    grid,
                    (c * h * w) as u64,
                    &qw,
                );
                let out_scale = grid * qw.scale;
                // [m, n] accumulators → [n, ho, wo] with bias.
                let n = qw.n;
                let mut out = Tensor::zeros(&[n, p.out_extent(h), p.out_extent(w)]);
                let ov = out.as_mut_slice();
                for co in 0..n {
                    let b = qw.bias(co);
                    for pix in 0..m {
                        ov[co * m + pix] = acc[pix * n + co] as f32 * out_scale + b;
                    }
                }
                Some(out)
            }
            LayerOp::Linear { .. } => {
                let x = inputs[0];
                let qw = self.quantize_weight(node);
                let grid = self.grid_scale(node.id, s, x, false);
                let qx = QTensor::quantize_with_scale(x, grid).into_data();
                let acc = self.run_weighted(node, s, LinearKind::Fc, qx, grid, x.len() as u64, &qw);
                let out_scale = grid * qw.scale;
                let (m, n) = (x.dims()[0], qw.n);
                let mut out = Tensor::zeros(&[m, n]);
                let ov = out.as_mut_slice();
                for r in 0..m {
                    for cidx in 0..n {
                        ov[r * n + cidx] = acc[r * n + cidx] as f32 * out_scale + qw.bias(cidx);
                    }
                }
                Some(out)
            }
            LayerOp::MatmulQK => {
                let (acc, scale, m, n) =
                    self.run_attention(node, s, LinearKind::MatmulQk, inputs[0], inputs[1]);
                let d = inputs[0].dims()[1] as f32;
                let sc = scale / d.sqrt();
                Some(
                    Tensor::from_vec(acc.iter().map(|&v| v as f32 * sc).collect(), &[m, n])
                        .expect("score shape"),
                )
            }
            LayerOp::MatmulPV => {
                let (acc, scale, m, n) =
                    self.run_attention(node, s, LinearKind::MatmulPv, inputs[0], inputs[1]);
                Some(
                    Tensor::from_vec(acc.iter().map(|&v| v as f32 * scale).collect(), &[m, n])
                        .expect("pv shape"),
                )
            }
            _ => None,
        }
    }
}

/// A hook that records per-layer absolute maxima for offline calibration
/// (the Q-Diffusion calibration pass of §VI-A), while leaving execution in
/// f32.
#[derive(Debug)]
pub struct CalibrationHook {
    cal: Calibrator,
}

impl CalibrationHook {
    /// Creates a calibration hook for a run of `steps` model calls.
    pub fn new(steps: usize) -> Self {
        CalibrationHook { cal: Calibrator::new(steps) }
    }

    /// Finishes calibration into a table with at most `clusters` time-step
    /// clusters per layer.
    pub fn finish(self, clusters: usize) -> CalibrationTable {
        self.cal.finish(clusters)
    }

    /// Finishes calibration TDQ-style: one scale per time step (see the
    /// quantization ablation bench for the trade-off against clustering).
    pub fn finish_per_step(self) -> CalibrationTable {
        self.cal.finish_per_step()
    }
}

impl LinearHook for CalibrationHook {
    fn observe(&mut self, node: &Node, step: StepInfo, inputs: &[&Tensor], _out: &Tensor) {
        if !node.op.is_linear_layer() {
            return;
        }
        self.cal.observe(node.id, step.step_index, stats::abs_max(inputs[0].as_slice()));
        if inputs.len() > 1 {
            // Secondary attention operand under its offset key.
            self.cal.observe(
                node.id + 1_000_000,
                step.step_index,
                stats::abs_max(inputs[1].as_slice()),
            );
        }
    }
}

/// Runs the full pipeline for one model: (optionally) calibrate, then trace
/// a quantized run. Returns the trace and the generated sample.
///
/// Models flagged [`diffusion::ModelKind::uses_dynamic_quant`] skip
/// calibration and pin grids from the first step (§VI-A: dynamic
/// quantization for the diffusion transformers).
///
/// # Errors
///
/// Propagates executor errors (impossible for zoo models).
pub fn trace_model(
    model: &DiffusionModel,
    sample_seed: u64,
    policy: ExecPolicy,
) -> tensor::Result<(WorkloadTrace, Tensor)> {
    let quantizer = build_quantizer(model, sample_seed)?;
    let mut hook = DittoHook::new(model, quantizer, policy);
    let out = model.run_reverse(sample_seed, &mut hook)?;
    Ok((hook.into_trace(), out))
}

/// Builds the quantization policy the paper applies to `model` (§VI-A):
/// an offline Q-Diffusion-style calibration pass with time-step clustering
/// for the UNet models, dynamic quantization for the diffusion
/// transformers. The calibration run samples with `calib_seed`.
///
/// # Errors
///
/// Propagates executor errors from the calibration run.
pub fn build_quantizer(model: &DiffusionModel, calib_seed: u64) -> tensor::Result<Quantizer> {
    if model.kind.uses_dynamic_quant() {
        Ok(Quantizer::dynamic())
    } else {
        let mut cal = CalibrationHook::new(model.model_calls());
        model.run_reverse(calib_seed, &mut cal)?;
        Ok(Quantizer::with_table(cal.finish(8)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffusion::{ModelKind, ModelScale};

    #[test]
    fn dense_and_delta_policies_are_bit_identical() {
        // The §IV-A equivalence, end to end through a real model.
        let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 7);
        let (_, out_dense) = trace_model(&model, 3, ExecPolicy::Dense).unwrap();
        let (_, out_delta) = trace_model(&model, 3, ExecPolicy::TemporalDelta).unwrap();
        assert_eq!(out_dense, out_delta);
    }

    #[test]
    fn attention_delta_policy_matches_dense() {
        let model = DiffusionModel::build(ModelKind::Dit, ModelScale::Tiny, 8);
        let (_, a) = trace_model(&model, 1, ExecPolicy::Dense).unwrap();
        let (_, b) = trace_model(&model, 1, ExecPolicy::TemporalDelta).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn delta_path_exact_across_grid_boundaries() {
        // A per-step (TDQ-style) table changes the activation grid every
        // step, forcing the re-grid path; difference processing must stay
        // bit-identical to dense execution through every boundary.
        let model = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 14);
        let mut cal = CalibrationHook::new(model.model_calls());
        model.run_reverse(2, &mut cal).unwrap();
        let table = cal.finish_per_step();
        let q1 = Quantizer::with_table(table.clone());
        let q2 = Quantizer::with_table(table);
        let mut dense_hook = DittoHook::new(&model, q1, ExecPolicy::Dense);
        let dense = model.run_reverse(2, &mut dense_hook).unwrap();
        let mut delta_hook = DittoHook::new(&model, q2, ExecPolicy::TemporalDelta);
        let delta = model.run_reverse(2, &mut delta_hook).unwrap();
        assert_eq!(dense, delta);
    }

    #[test]
    fn regrid_levels_roundtrip() {
        let levels = vec![10i8, -20, 127, 0];
        let same = regrid_levels(&levels, 0.5, 0.5);
        assert_eq!(same, levels);
        // Doubling the grid halves the levels.
        let halved = regrid_levels(&levels, 0.5, 1.0);
        assert_eq!(halved, vec![5, -10, 64, 0]);
        // Shrinking the grid saturates.
        let sat = regrid_levels(&levels, 1.0, 0.001);
        assert_eq!(sat[2], 127);
    }

    #[test]
    fn trace_covers_all_linear_layers_and_steps() {
        let model = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 9);
        let (trace, _) = trace_model(&model, 2, ExecPolicy::Dense).unwrap();
        assert_eq!(trace.layer_count(), model.graph.linear_layers().len());
        assert_eq!(trace.step_count(), model.model_calls());
        // Step 0 has no temporal stats; later steps do.
        for st in &trace.steps[0] {
            assert!(st.temporal.is_none());
        }
        for st in &trace.steps[1] {
            assert!(st.temporal.is_some());
        }
    }

    #[test]
    fn temporal_deltas_are_mostly_narrow() {
        // The paper's central observation, on our BED instance: most
        // temporal differences are zero or ≤4-bit.
        let model = DiffusionModel::build(ModelKind::Bed, ModelScale::Tiny, 10);
        let (trace, _) = trace_model(&model, 4, ExecPolicy::Dense).unwrap();
        let t = trace.merged(crate::trace::StatView::Temporal);
        let a = trace.merged(crate::trace::StatView::Activation);
        assert!(
            t.le4_ratio() > a.le4_ratio(),
            "temporal {:.3} must beat activation {:.3}",
            t.le4_ratio(),
            a.le4_ratio()
        );
        assert!(t.zero_ratio() > a.zero_ratio());
    }

    #[test]
    fn cross_attention_context_deltas_are_zero() {
        // K'/V' come from the constant context: their producing FC layers
        // see identical inputs every step → all-zero temporal deltas
        // (the §IV-A cross-attention observation).
        let model = DiffusionModel::build(ModelKind::Img, ModelScale::Tiny, 11);
        let (trace, _) = trace_model(&model, 5, ExecPolicy::Dense).unwrap();
        let k_idx = trace
            .layers
            .iter()
            .position(|l| l.name.contains("attn2.k"))
            .expect("cross-attention K projection exists");
        for step in 1..trace.step_count() {
            let st = &trace.steps[step][k_idx];
            let h = st.temporal_merged().unwrap();
            assert_eq!(h.total(), h.zero, "step {step}: context deltas must all be zero");
        }
    }

    #[test]
    fn conv_layers_classified_in_im2col_domain() {
        let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 12);
        let (trace, _) = trace_model(&model, 6, ExecPolicy::Dense).unwrap();
        let conv = trace.layers.iter().find(|l| l.kind == LinearKind::Conv).unwrap();
        // im2col elements = K² × raw elements for stride-1 same conv.
        assert!(conv.elems >= conv.in_bytes, "{} vs {}", conv.elems, conv.in_bytes);
        assert_eq!(conv.macs, conv.elems * conv.reuse);
    }

    /// The per-element reference [`spatial_hist`] replaced.
    fn spatial_hist_oracle(data: &[i8], rows: usize, cols: usize) -> BitWidthHistogram {
        let mut h = BitWidthHistogram::new();
        if rows == 0 || cols == 0 {
            return h;
        }
        for &v in &data[..cols] {
            h.push(quant::BitWidthClass::of_i8(v));
        }
        for r in 1..rows {
            for c in 0..cols {
                let d = data[r * cols + c] as i16 - data[(r - 1) * cols + c] as i16;
                h.push(quant::BitWidthClass::of(d));
            }
        }
        h
    }

    /// The per-element reference [`im2col_i8`] replaced.
    fn im2col_oracle(data: &[i8], c: usize, h: usize, w: usize, p: Conv2dParams) -> Vec<i8> {
        let (ho, wo, k) = (p.out_extent(h), p.out_extent(w), p.kernel);
        let cols = c * k * k;
        let mut out = vec![0i8; ho * wo * cols];
        for oy in 0..ho {
            for ox in 0..wo {
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                        for kx in 0..k {
                            let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                out[(oy * wo + ox) * cols + (ci * k + ky) * k + kx] =
                                    data[(ci * h + iy as usize) * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn random_levels(rng: &mut tensor::Rng, len: usize) -> Vec<i8> {
        // Mix narrow and full-range levels so every class occurs.
        (0..len)
            .map(|i| {
                let v = rng.next_below(255) as i32 - 127;
                (if i % 3 == 0 { v / 16 } else { v }) as i8
            })
            .collect()
    }

    #[test]
    fn spatial_hist_matches_per_element_oracle() {
        let mut rng = tensor::Rng::seed_from(21);
        for _ in 0..200 {
            let rows = 1 + rng.next_below(40);
            let cols = 1 + rng.next_below(300);
            let data = random_levels(&mut rng, rows * cols);
            assert_eq!(
                spatial_hist(&data, rows, cols),
                spatial_hist_oracle(&data, rows, cols),
                "{rows}x{cols}"
            );
        }
        assert_eq!(spatial_hist(&[], 0, 4), spatial_hist_oracle(&[], 0, 4));
        assert_eq!(spatial_hist(&[1, -128], 1, 2), spatial_hist_oracle(&[1, -128], 1, 2));
    }

    #[test]
    fn im2col_matches_per_element_oracle() {
        let mut rng = tensor::Rng::seed_from(22);
        for kernel in [1, 2, 3, 5] {
            for stride in [1, 2, 3] {
                for padding in 0..kernel {
                    let c = 1 + rng.next_below(3);
                    let h = kernel + rng.next_below(7);
                    let w = kernel + rng.next_below(7);
                    let p = Conv2dParams { kernel, stride, padding };
                    let data = random_levels(&mut rng, c * h * w);
                    let (got, m, cols) = im2col_i8(&data, c, h, w, p);
                    assert_eq!((m, cols), (p.out_extent(h) * p.out_extent(w), c * kernel * kernel));
                    assert_eq!(got, im2col_oracle(&data, c, h, w, p), "{c}x{h}x{w} {p:?}");
                }
            }
        }
    }

    #[test]
    fn spatial_hist_counts_base_row_plus_deltas() {
        let h = spatial_hist(&[10, 20, 10, 21, 10, 120], 3, 2);
        // Base row: 10, 20 (both Full8). Deltas: 0, 1, 0, 99.
        assert_eq!(h.total(), 6);
        assert_eq!(h.zero, 2);
        assert_eq!(h.low4, 1);
        assert_eq!(h.full8, 3);
    }

    #[test]
    fn quantized_outputs_track_fp32() {
        // Quantized execution must stay close to FP32 (Table II's premise).
        let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 13);
        let fp32 = model.run_reverse(5, &mut diffusion::NullHook).unwrap();
        let (_, q) = trace_model(&model, 5, ExecPolicy::Dense).unwrap();
        let sim = stats::cosine_similarity(fp32.as_slice(), q.as_slice());
        assert!(sim > 0.95, "cosine similarity {sim}");
    }
}
