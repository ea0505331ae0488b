//! `perfbench` — the machine-readable perf artifacts behind the committed
//! `BENCH_*.json` trajectory.
//!
//! Two documents, both in a stable schema the CI `perf` job validates
//! against the committed baselines (same key structure, sane value
//! ranges) on every push:
//!
//! * **`BENCH_kernels.json`** — GFLOP/s per kernel backend per shape for
//!   the hot kernels (integer matmul at near-dense and exactly-dense
//!   sparsity, the temporal-difference delta update at realistic
//!   sparsity, f32 matmul, and f32 conv2d via the auto dispatch plus the
//!   forced direct and im2col routes, one shape per dispatch class with a
//!   `speedup_vs_im2col` column) at the UNet im2col
//!   shapes plus the classic delta-update bench shape. The `simd` backend
//!   is measured once per *available* SIMD level (rows labeled with the
//!   resolved name, e.g. `simd:avx2` / `simd:sse2`, exercised via the
//!   same level override `DITTO_SIMD_LEVEL` uses). Every backend is
//!   asserted bit-identical to the scalar reference *before* it is
//!   timed. An `executor` section times one denoising model call
//!   per Table I benchmark under both the tree walker and the compiled
//!   trace plan (`diffusion::plan`), with bit-identity asserted in setup.
//! * **`BENCH_serve.json`** — loopback `ditto-serve` latency percentiles
//!   (client-observed, from a fixed-bucket log-scale histogram) and the
//!   cross-request memo hit rate under a deterministic overlapping
//!   request burst at the tiny scale, plus the server-side breakdown of
//!   scheduling wait vs simulation latency (and enqueue-time queue depth)
//!   folded from an in-memory obs handle.
//!
//! ```bash
//! cargo run --release -p ditto-repro --bin perfbench -- --out-dir .
//! ```
//!
//! Flags: `--out-dir DIR` (default `.`), `--kernels-only` /
//! `--serve-only`, `--min-ms N` (per-point measurement budget, default
//! 60), `--clients N` (default 8), `--repeat N` (requests per client,
//! default 4). `DITTO_CACHE_DIR` is honored by the serve half's trace
//! suite like everywhere else.
//!
//! Numbers are host-dependent by nature; the committed baselines document
//! the *trajectory* (reviewed like a changelog), while CI validates shape
//! and sanity, not exact values.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use diffusion::executor::{forward, Bindings, NullHook, StepInfo};
use diffusion::{DiffusionModel, ModelKind, ModelScale, PlanArena};
use ditto_core::hist::LogHistogram;
use ditto_core::jsonio::{self, ToJson, Value};
use quant::kernels::{delta_matmul_update_with, int_matmul_with, reference, widen};
use serve::server::{spawn, ServerConfig};
use serve::{Obs, SuiteApp};
use tensor::backend::{available_simd_levels, hw_simd_level, set_simd_level, SimdLevel};
use tensor::ops::{
    conv2d_class_in_mode, conv2d_direct, conv2d_direct_into_with, conv2d_im2col_with, conv2d_with,
    matmul_scalar, matmul_with, Conv2dParams, ConvClass, ConvMode,
};
use tensor::{KernelBackend, Rng, Tensor};

/// Schema tag stamped into both documents (bump on breaking changes; the
/// CI validator pins it).
const SCHEMA: &str = "ditto-perfbench/2";

/// The measured shapes: the delta-update bench shape plus the two UNet
/// im2col shapes (`[H·W, C_in·K²] × [C_in·K², C_out]`) the Small-scale
/// models actually produce.
const SHAPES: [(usize, usize, usize); 3] = [(64, 256, 128), (256, 288, 32), (256, 576, 64)];

/// The deterministic overlapping burst (the CI socket smoke's shapes):
/// 0 and 3 request the same 4 cells, 1 and 2 each overlap them by one.
const BURST: [&str; 4] = [
    r#"{"id":"ID","designs":["ITC","Ditto"],"models":["DDPM","SDM"],"scale":"tiny","priority":2}"#,
    r#"{"id":"ID","designs":["Ditto","Cam-D"],"models":["SDM","DiT"],"scale":"tiny"}"#,
    r#"{"id":"ID","designs":["ITC","Cam-D"],"models":["DDPM","CHUR"],"scale":"tiny","priority":-1}"#,
    r#"{"id":"ID","designs":["ITC","Ditto"],"models":["DDPM","SDM"],"scale":"tiny","priority":1}"#,
];

struct Args {
    out_dir: PathBuf,
    kernels: bool,
    serve: bool,
    min_ms: u64,
    clients: usize,
    repeat: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_dir: PathBuf::from("."),
        kernels: true,
        serve: true,
        min_ms: 60,
        clients: 8,
        repeat: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a positive integer"))
        };
        match arg.as_str() {
            "--out-dir" => args.out_dir = PathBuf::from(it.next().expect("--out-dir needs a path")),
            "--kernels-only" => args.serve = false,
            "--serve-only" => args.kernels = false,
            "--min-ms" => args.min_ms = num("--min-ms").max(1),
            "--clients" => args.clients = num("--clients").max(1) as usize,
            "--repeat" => args.repeat = num("--repeat").max(1) as usize,
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: perfbench [--out-dir DIR] \
                     [--kernels-only|--serve-only] [--min-ms N] [--clients N] [--repeat N]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_doc(path: &Path, doc: &Value) {
    std::fs::write(path, jsonio::to_vec_pretty(doc))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("perfbench: wrote {}", path.display());
}

/// Measures `f` for at least `min_ms`, doubling the iteration count until
/// the budget is met, and returns achieved GFLOP/s (`flops` per call).
fn gflops(flops: f64, min_ms: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and allocators
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= min_ms {
            return flops * iters as f64 / elapsed.as_secs_f64() / 1e9;
        }
        iters = iters.saturating_mul(2);
    }
}

/// Measures `f` for at least `min_ms`, doubling the iteration count until
/// the budget is met, and returns average wall-clock ns per call.
fn ns_per_call(min_ms: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and allocators
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= min_ms {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters = iters.saturating_mul(2);
    }
}

fn rand_i8(n: usize, rng: &mut Rng) -> Vec<i8> {
    (0..n).map(|_| (rng.next_below(255) as i32 - 127) as i8).collect()
}

/// Deltas with ~70% zeros, remainder small 4-bit values — the realistic
/// temporal sparsity regime (Fig. 5).
fn sparse_deltas(n: usize, rng: &mut Rng) -> Vec<i16> {
    (0..n).map(|_| if rng.next_f64() < 0.7 { 0 } else { rng.next_below(15) as i16 - 7 }).collect()
}

/// One measured point, pre-derivation. The speedup columns are computed
/// once all rows exist (a baseline row for a shape may be measured after
/// the row it normalizes).
struct KernelRow {
    kernel: &'static str,
    shape: String,
    backend: String,
    gflops: f64,
    /// Auto-mode dispatch class of the shape — conv rows only.
    class: Option<&'static str>,
}

/// The measured backend configurations: the portable `scalar` backend at
/// the hardware SIMD level, then the `simd` backend once per *available*
/// SIMD level (so an AVX2 host also measures and commits the SSE2 rows).
/// Labels are resolved names (`simd:avx2`), matching the serve protocol.
fn kernel_configs() -> Vec<(KernelBackend, SimdLevel, String)> {
    let hw = hw_simd_level();
    let mut configs = vec![(KernelBackend::Scalar, hw, "scalar".to_string())];
    for lvl in available_simd_levels() {
        if lvl != SimdLevel::None {
            configs.push((KernelBackend::Simd, lvl, format!("simd:{lvl}")));
        }
    }
    configs
}

/// The measured conv2d shapes `(c_in, h, w, c_out, params, class)` — at
/// least one per dispatch class of the shape-classed conv router, with the
/// expected auto-mode class pinned so a heuristic change that re-routes a
/// committed shape fails loudly here instead of silently shifting the
/// baselines. Each shape measures all three conv kernels: the auto route
/// (`conv2d_f32`), the forced lowering-free path (`conv2d_direct`), and
/// the forced lowered path (`conv2d_im2col`).
const CONV_SHAPES: [(usize, usize, usize, usize, Conv2dParams, ConvClass); 5] = [
    // ResNet 3×3 block body — small c_out, now direct-classed.
    (8, 16, 16, 16, Conv2dParams { kernel: 3, stride: 1, padding: 1 }, ConvClass::DirectSmall),
    // Small-spatial UNet inner block.
    (8, 12, 12, 8, Conv2dParams { kernel: 3, stride: 1, padding: 1 }, ConvClass::DirectSmall),
    // 1×1 channel-mixing projection.
    (32, 16, 16, 64, Conv2dParams { kernel: 1, stride: 1, padding: 0 }, ConvClass::DirectPointwise),
    // Stride-2 downsampling conv — wide c_out, stays on the im2col route.
    (16, 16, 16, 32, Conv2dParams { kernel: 3, stride: 2, padding: 1 }, ConvClass::Im2col),
    // Wide 3×3 body where the lowered matmul's reuse wins.
    (32, 16, 16, 32, Conv2dParams { kernel: 3, stride: 1, padding: 1 }, ConvClass::Im2col),
];

fn conv_shape_name(c_in: usize, h: usize, w: usize, c_out: usize, p: Conv2dParams) -> String {
    format!("c{c_in}-{c_out}_{h}x{w}_k{}s{}", p.kernel, p.stride)
}

fn conv_class_name(class: ConvClass) -> &'static str {
    match class {
        ConvClass::DirectSmall => "direct_small",
        ConvClass::DirectPointwise => "direct_pointwise",
        ConvClass::Im2col => "im2col",
    }
}

fn bench_kernels(min_ms: u64) -> Value {
    use std::hint::black_box;
    let configs = kernel_configs();
    let mut rows: Vec<KernelRow> = Vec::new();
    let mut rng = Rng::seed_from(11);
    for &(m, k, n) in &SHAPES {
        let shape = format!("{m}x{k}x{n}");
        let flops = (2 * m * k * n) as f64;
        let a = widen(&rand_i8(m * k, &mut rng));
        // The dense-path probe: exactly 0% sparsity, so every row takes
        // the register-resident dense kernel instead of the zero-skip
        // scan (`a` itself has ~0.4% zeros — enough to be realistic for
        // a first frame, mixed-path for the dispatcher).
        let a_dense: Vec<i16> = a.iter().map(|&v| if v == 0 { 1 } else { v }).collect();
        let w = rand_i8(k * n, &mut rng);
        let deltas = sparse_deltas(m * k, &mut rng);
        let fa = Tensor::randn(&[m, k], &mut rng);
        let fb = Tensor::randn(&[k, n], &mut rng);
        // Scalar references: the identity oracle and the speedup baseline.
        let want_int = reference::int_matmul(&a, &w, m, k, n);
        let want_dense = reference::int_matmul(&a_dense, &w, m, k, n);
        let want_delta = reference::delta_matmul_update(&want_int, &deltas, &w, m, k, n);
        let want_f32 = matmul_scalar(&fa, &fb).expect("scalar f32 matmul");
        for (backend, level, label) in &configs {
            let (backend, level) = (*backend, *level);
            set_simd_level(level).expect("measured levels are hardware-supported");
            // Bit-identity asserted in setup: a backend (at a SIMD level)
            // that drifts from the scalar reference must never produce a
            // perf number.
            assert_eq!(
                int_matmul_with(backend, &a, &w, m, k, n),
                want_int,
                "{label} int_matmul diverged from the scalar reference at {shape}"
            );
            assert_eq!(
                int_matmul_with(backend, &a_dense, &w, m, k, n),
                want_dense,
                "{label} dense int_matmul diverged from the scalar reference at {shape}"
            );
            assert_eq!(
                delta_matmul_update_with(backend, &want_int, &deltas, &w, m, k, n),
                want_delta,
                "{label} delta_matmul_update diverged from the reference at {shape}"
            );
            let got_f32 = matmul_with(backend, &fa, &fb).expect("f32 matmul");
            assert!(
                got_f32
                    .as_slice()
                    .iter()
                    .zip(want_f32.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label} f32 matmul diverged bitwise from the scalar reference at {shape}"
            );
            let points: [(&'static str, f64); 4] = [
                (
                    "int_matmul",
                    gflops(flops, min_ms, || {
                        black_box(int_matmul_with(backend, black_box(&a), black_box(&w), m, k, n));
                    }),
                ),
                (
                    "int_matmul_dense",
                    gflops(flops, min_ms, || {
                        black_box(int_matmul_with(
                            backend,
                            black_box(&a_dense),
                            black_box(&w),
                            m,
                            k,
                            n,
                        ));
                    }),
                ),
                (
                    "delta_matmul_update",
                    gflops(flops, min_ms, || {
                        black_box(delta_matmul_update_with(
                            backend,
                            black_box(&want_int),
                            black_box(&deltas),
                            &w,
                            m,
                            k,
                            n,
                        ));
                    }),
                ),
                (
                    "matmul_f32",
                    gflops(flops, min_ms, || {
                        black_box(matmul_with(backend, black_box(&fa), black_box(&fb)).unwrap());
                    }),
                ),
            ];
            for (kernel, gf) in points {
                println!("perfbench: {kernel:>20} {shape:>16} {label:>9}: {gf:8.3} GFLOP/s");
                rows.push(KernelRow {
                    kernel,
                    shape: shape.clone(),
                    backend: label.clone(),
                    gflops: gf,
                    class: None,
                });
            }
        }
    }
    for &(c_in, h, w, c_out, params, class) in &CONV_SHAPES {
        let shape = conv_shape_name(c_in, h, w, c_out, params);
        assert_eq!(
            conv2d_class_in_mode(ConvMode::Auto, c_in, h, w, c_out, params),
            class,
            "committed conv shape {shape} re-routed: update CONV_SHAPES to match the heuristic"
        );
        let class = conv_class_name(class);
        let kk = params.kernel;
        let (ho, wo) = (params.out_extent(h), params.out_extent(w));
        let flops = (2 * c_out * ho * wo * c_in * kk * kk) as f64;
        let input = Tensor::randn(&[c_in, h, w], &mut rng);
        let weight = Tensor::randn(&[c_out, c_in, kk, kk], &mut rng);
        let bias = Tensor::randn(&[c_out], &mut rng);
        let want = conv2d_direct(&input, &weight, Some(&bias), params).expect("direct conv2d");
        for (backend, level, label) in &configs {
            let (backend, level) = (*backend, *level);
            set_simd_level(level).expect("measured levels are hardware-supported");
            // Bit-identity asserted in setup for all three routes: the
            // auto dispatch, the forced direct path, and the forced im2col
            // path must agree with the scalar sliding-window reference
            // before any of them produces a perf number.
            let bitwise_eq = |got: &Tensor| {
                got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            let got = conv2d_with(backend, &input, &weight, Some(&bias), params).expect("conv2d");
            assert!(
                bitwise_eq(&got),
                "{label} conv2d diverged bitwise from the direct reference at {shape}"
            );
            let mut direct_out = Tensor::zeros(&[c_out, ho, wo]);
            conv2d_direct_into_with(
                backend,
                input.as_slice(),
                c_in,
                h,
                w,
                &weight,
                Some(&bias),
                params,
                direct_out.as_mut_slice(),
            )
            .expect("direct conv2d route");
            assert!(
                bitwise_eq(&direct_out),
                "{label} forced-direct conv2d diverged bitwise at {shape}"
            );
            let got_im2col = conv2d_im2col_with(backend, &input, &weight, Some(&bias), params)
                .expect("im2col conv2d route");
            assert!(
                bitwise_eq(&got_im2col),
                "{label} forced-im2col conv2d diverged bitwise at {shape}"
            );
            let mut scratch = vec![0.0f32; c_out * ho * wo];
            let points: [(&'static str, f64); 3] = [
                (
                    "conv2d_f32",
                    gflops(flops, min_ms, || {
                        black_box(
                            conv2d_with(
                                backend,
                                black_box(&input),
                                black_box(&weight),
                                Some(&bias),
                                params,
                            )
                            .unwrap(),
                        );
                    }),
                ),
                (
                    "conv2d_direct",
                    gflops(flops, min_ms, || {
                        conv2d_direct_into_with(
                            backend,
                            black_box(input.as_slice()),
                            c_in,
                            h,
                            w,
                            black_box(&weight),
                            Some(&bias),
                            params,
                            black_box(&mut scratch),
                        )
                        .unwrap();
                    }),
                ),
                (
                    "conv2d_im2col",
                    gflops(flops, min_ms, || {
                        black_box(
                            conv2d_im2col_with(
                                backend,
                                black_box(&input),
                                black_box(&weight),
                                Some(&bias),
                                params,
                            )
                            .unwrap(),
                        );
                    }),
                ),
            ];
            for (kernel, gf) in points {
                println!("perfbench: {kernel:>20} {shape:>16} {label:>9}: {gf:8.3} GFLOP/s");
                rows.push(KernelRow {
                    kernel,
                    shape: shape.clone(),
                    backend: label.clone(),
                    gflops: gf,
                    class: Some(class),
                });
            }
        }
    }
    set_simd_level(hw_simd_level()).expect("hardware level is always available");
    // Derive the speedup columns against the scalar baselines measured
    // for the same (kernel, shape).
    let baseline = |kernel: &str, shape: &str, backend: &str| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.shape == shape && r.backend == backend)
            .map(|r| r.gflops)
            .expect("every (kernel, shape) measures every config")
    };
    let results: Vec<Value> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("kernel", Value::Str(r.kernel.to_string())),
                ("shape", Value::Str(r.shape.clone())),
                ("backend", Value::Str(r.backend.clone())),
                ("gflops", Value::Num(r.gflops)),
                (
                    "speedup_vs_scalar",
                    Value::Num(r.gflops / baseline(r.kernel, &r.shape, "scalar")),
                ),
            ];
            if let Some(class) = r.class {
                // Conv rows: dispatch class plus the direct-vs-im2col
                // ratio against the forced-im2col row measured on the
                // *same* backend config (not the scalar baseline).
                fields.push(("class", Value::Str(class.to_string())));
                fields.push((
                    "speedup_vs_im2col",
                    Value::Num(r.gflops / baseline("conv2d_im2col", &r.shape, &r.backend)),
                ));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("kind", Value::Str("kernels".into())),
        ("units", Value::Str("gflops = 2*m*k*n ops / second / 1e9".into())),
        (
            "backends",
            Value::Arr(configs.iter().map(|(_, _, label)| Value::Str(label.clone())).collect()),
        ),
        (
            "shapes",
            Value::Arr(SHAPES.iter().map(|(m, k, n)| Value::Str(format!("{m}x{k}x{n}"))).collect()),
        ),
        (
            "conv_shapes",
            Value::Arr(
                CONV_SHAPES
                    .iter()
                    .map(|&(c, h, w, co, p, class)| {
                        obj(vec![
                            ("shape", Value::Str(conv_shape_name(c, h, w, co, p))),
                            ("class", Value::Str(conv_class_name(class).to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("results", Value::Arr(results)),
        ("executor", Value::Arr(bench_executor(min_ms))),
    ])
}

/// Times one denoising model call (one sampler step's worth of work) per
/// Table I benchmark at the tiny scale under both executors: the allocating
/// tree walker `executor::forward` and the compiled trace plan. Identity is
/// asserted in setup — a plan that drifts bitwise from the tree must never
/// produce a perf number.
/// Interleaved best-of-N trials per executor in the `executor` section —
/// see the measurement comment in [`bench_executor`].
const EXECUTOR_TRIALS: usize = 5;

fn bench_executor(min_ms: u64) -> Vec<Value> {
    use std::hint::black_box;
    let mut entries = Vec::new();
    for kind in ModelKind::all() {
        let model = DiffusionModel::build(kind, ModelScale::Tiny, 13);
        let plan = model.plan.as_ref().expect("benchmark model compiles a plan");
        let (latent, context) = model.sample_inputs(29);
        let bindings = Bindings { latent: &latent, context: context.as_ref(), t: 0.5 };
        let step = StepInfo { step_index: 0, t: 0.5, total_steps: 1 };
        let want = forward(&model.graph, &bindings, step, &mut NullHook).expect("tree forward");
        let mut arena = PlanArena::new();
        let got = plan.execute(&model.graph, &bindings, &mut arena).expect("plan execute");
        assert!(
            want.as_slice().iter().zip(got.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{kind:?}: plan output diverged bitwise from the tree executor"
        );
        // Alternate tree/plan trials and keep each side's minimum: on a
        // shared host the best-of-N per-step time is the noise-robust
        // estimator, and interleaving keeps a load spike from landing
        // entirely on one executor's measurement.
        let (mut tree_ns, mut plan_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..EXECUTOR_TRIALS {
            tree_ns = tree_ns.min(ns_per_call(min_ms, || {
                black_box(
                    forward(&model.graph, black_box(&bindings), step, &mut NullHook).unwrap(),
                );
            }));
            plan_ns = plan_ns.min(ns_per_call(min_ms, || {
                black_box(plan.execute(&model.graph, black_box(&bindings), &mut arena).unwrap());
            }));
        }
        let speedup = tree_ns / plan_ns;
        entries.push(obj(vec![
            ("model", Value::Str(kind.abbr().to_string())),
            ("graph_nodes", model.graph.len().to_json()),
            ("plan_ops", plan.op_count().to_json()),
            ("arena_f32", plan.arena_len().to_json()),
            ("tree_ns_per_step", Value::Num(tree_ns)),
            ("plan_ns_per_step", Value::Num(plan_ns)),
            ("tree_steps_per_s", Value::Num(1e9 / tree_ns)),
            ("plan_steps_per_s", Value::Num(1e9 / plan_ns)),
            ("speedup", Value::Num(speedup)),
        ]));
        println!(
            "perfbench: executor {:>5}: tree {tree_ns:>12.0} ns/step, plan {plan_ns:>12.0} \
             ns/step ({speedup:.2}x, {:.0} steps/s)",
            kind.abbr(),
            1e9 / plan_ns
        );
    }
    entries
}

/// One burst request over its own loopback connection; returns the
/// client-observed latency and the response's `cells` counters.
fn one_request(port: u16, line: &str) -> (u64, [u64; 4]) {
    let start = Instant::now();
    let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("connect loopback");
    conn.write_all(line.as_bytes()).expect("send request");
    conn.write_all(b"\n").expect("send newline");
    let mut response = String::new();
    BufReader::new(conn).read_line(&mut response).expect("read response");
    let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let v = jsonio::parse(response.as_bytes()).expect("well-formed response");
    assert_eq!(v.get("ok").expect("ok field"), &Value::Bool(true), "request failed: {response}");
    let cells = v.get("cells").expect("cells object");
    let count = |key: &str| match cells.get(key).expect(key) {
        Value::Int(i) => u64::try_from(*i).expect("non-negative counter"),
        other => panic!("cells.{key} must be an integer, got {other:?}"),
    };
    (us, [count("total"), count("memo_hits"), count("coalesced"), count("simulated")])
}

fn bench_serve(clients: usize, repeat: usize) -> Value {
    // The measurement server: in-process, obs in pure in-memory mode — no
    // stream file, no writer thread, just the fold-as-you-go aggregates,
    // so the scheduling-wait vs simulation-latency split lands in the doc
    // without perturbing what is being measured.
    let obs = Arc::new(Obs::in_memory());
    let app = Arc::new(SuiteApp::with_obs(accel::pool::default_workers().max(1), Arc::clone(&obs)));
    let handle = spawn(app, ServerConfig::default()).expect("spawn loopback server");
    let port = handle.addr().port();

    // Warm-up: one throwaway request traces (or cache-loads) the tiny
    // suite and its GPU references, so the burst measures serving, not
    // first-touch tracing.
    let _ = one_request(port, &BURST[0].replace("ID", "warmup"));

    let hist = Mutex::new(LogHistogram::new());
    let counters = Mutex::new([0u64; 4]);
    let burst_start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (hist, counters) = (&hist, &counters);
            s.spawn(move || {
                for r in 0..repeat {
                    let line = BURST[(c + r) % BURST.len()].replace("ID", &format!("c{c}r{r}"));
                    let (us, cells) = one_request(port, &line);
                    hist.lock().expect("latency hist").record(us);
                    let mut sums = counters.lock().expect("cell counters");
                    for (sum, cell) in sums.iter_mut().zip(cells) {
                        *sum += cell;
                    }
                }
            });
        }
    });
    let wall = burst_start.elapsed().as_secs_f64();
    handle.shutdown().expect("clean shutdown");

    let hist = hist.into_inner().expect("latency hist");
    let [total, memo_hits, coalesced, simulated] = counters.into_inner().expect("cell counters");
    let requests = (clients * repeat) as u64;
    assert_eq!(hist.count(), requests, "every request must be measured");
    assert_eq!(memo_hits + coalesced + simulated, total, "cell counters must partition");
    let hit_rate = if total == 0 { 0.0 } else { (memo_hits + coalesced) as f64 / total as f64 };
    // Server-side breakdown from the obs aggregates: how long simulated
    // cells sat queued behind other work vs how long the simulation itself
    // took, plus the queue depth seen at each enqueue. Covers every
    // simulated cell this server ran, warm-up request included (memo hits
    // and coalesced waiters never reach the histograms).
    let summary = obs.summary_json().expect("in-memory obs always has aggregates");
    let cell_summary =
        |key: &str| summary.get("cells").expect("cells").get(key).expect(key).clone();
    let sched_wait_us = cell_summary("sched_wait_us");
    let sim_us = cell_summary("sim_us");
    let queue_depth = summary.get("queue_depth").expect("queue_depth").clone();
    let wait_p50 = sched_wait_us.get("p50").map_or(0, |v| match v {
        Value::Int(i) => *i,
        _ => 0,
    });
    let sim_p50 = sim_us.get("p50").map_or(0, |v| match v {
        Value::Int(i) => *i,
        _ => 0,
    });
    println!(
        "perfbench: serve breakdown: sched wait p50 {wait_p50}us, sim p50 {sim_p50}us per \
         simulated cell"
    );
    println!(
        "perfbench: serve burst {requests} reqs × {total} cells: p50 {}us p99 {}us, \
         memo hit rate {hit_rate:.3}, {:.1} req/s",
        hist.percentile(50.0),
        hist.percentile(99.0),
        requests as f64 / wall
    );
    obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("kind", Value::Str("serve".into())),
        ("scale", Value::Str("tiny".into())),
        ("clients", clients.to_json()),
        ("requests", requests.to_json()),
        ("latency_us", hist.summary_json()),
        (
            "cells",
            obj(vec![
                ("total", total.to_json()),
                ("memo_hits", memo_hits.to_json()),
                ("coalesced", coalesced.to_json()),
                ("simulated", simulated.to_json()),
                ("memo_hit_rate", Value::Num(hit_rate)),
            ]),
        ),
        (
            "breakdown",
            obj(vec![
                ("sched_wait_us", sched_wait_us),
                ("sim_us", sim_us),
                ("queue_depth", queue_depth),
            ]),
        ),
        ("throughput_rps", Value::Num(requests as f64 / wall)),
    ])
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", args.out_dir.display()));
    if args.kernels {
        let doc = bench_kernels(args.min_ms);
        write_doc(&args.out_dir.join("BENCH_kernels.json"), &doc);
    }
    if args.serve {
        let doc = bench_serve(args.clients, args.repeat);
        write_doc(&args.out_dir.join("BENCH_serve.json"), &doc);
    }
}
