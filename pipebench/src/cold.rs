//! The pipeline's first stage: a cold Small-scale `Suite` load into an
//! empty trace-cache directory, i.e. calibrate + Ditto-trace all seven
//! Table I models on the default worker pool and write the binary cache.
//!
//! Every load runs in a fresh child process, so that no process-wide state
//! (compiled plans, allocator arenas) carries over between samples. The
//! traced run re-runs the same per-model pipeline from public calls with
//! timing hooks around `compute_linear`/`observe`.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::suite::{Suite, MODELS, SAMPLE_SEED, WEIGHT_SEED};
use diffusion::{DiffusionModel, LinearHook, ModelScale, Node, StepInfo};
use ditto_core::binio;
use ditto_core::jsonio::Value;
use ditto_core::runner::{CalibrationHook, DittoHook, ExecPolicy};
use quant::Quantizer;
use tensor::Tensor;

use crate::layers::KERNELS;
use crate::spans::Spans;
use crate::util::{self, num, obj};
use crate::{Outcome, CACHE_DIR_ENV};

/// Digests of each model's trace, `binio::to_vec(&trace)`, committed with
/// the benchmark: `<model> <fnv1a-64 hex>` per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// A traced child's model span must be covered by its child spans to
/// within this share of its duration.
const COVER_TOLERANCE: f64 = 0.01;

fn expected_digests() -> HashMap<&'static str, &'static str> {
    EXPECTED_DIGESTS.lines().filter_map(|l| l.split_once(' ')).collect()
}

fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", util::fnv1a(bytes))
}

fn digests_of(suite: &Suite) -> Value {
    let pairs = MODELS
        .iter()
        .map(|k| (k.abbr().to_string(), Value::Str(digest_hex(&binio::to_vec(suite.trace(*k))))))
        .collect();
    Value::Obj(pairs)
}

/// Counts the models whose digest in a child's `digests` object is missing
/// or differs from the committed one.
fn digest_failures(child: &Value) -> usize {
    let expected = expected_digests();
    MODELS
        .iter()
        .filter(|k| match child.get("digests").and_then(|d| d.get(k.abbr())) {
            Ok(Value::Str(got)) => expected.get(k.abbr()) != Some(&got.as_str()),
            _ => true,
        })
        .count()
}

// --------------------------------------------------------------------------
// Child processes
// --------------------------------------------------------------------------

/// `--child cold`: one cold load into the empty `DITTO_CACHE_DIR`. Reports
/// wall time, peak RSS, trace digests, and whether every cache file holds
/// exactly those trace bytes behind its fingerprint.
pub fn child_cold() -> Value {
    let t0 = Instant::now();
    let suite = Suite::load_scaled(ModelScale::Small);
    let wall = t0.elapsed().as_secs_f64();
    let dir = std::env::var_os(CACHE_DIR_ENV).expect("cache dir set by the parent");
    // The cache file is the binio header, an 8-byte model fingerprint,
    // then the trace body.
    let files_ok = MODELS.iter().all(|k| {
        let enc = binio::to_vec(suite.trace(*k));
        let file = std::fs::read(Path::new(&dir).join(format!("trace-{}.bin", k.abbr())));
        file.is_ok_and(|f| f.len() == enc.len() + 8 && f[..5] == enc[..5] && f[13..] == enc[5..])
    });
    obj(vec![
        ("wall_s", Value::Num(wall)),
        ("peak_rss_mb", Value::Num(util::peak_rss_mb())),
        ("fresh", Value::Int((MODELS.len() - suite.cache_hits()) as i128)),
        ("files_ok", Value::Bool(files_ok)),
        ("digests", digests_of(&suite)),
    ])
}

/// Forwards to an inner hook, timing `compute_linear` per layer kind and
/// `observe` in total.
struct TimedHook<H> {
    inner: H,
    linear_s: BTreeMap<&'static str, f64>,
    observe_s: f64,
}

impl<H: LinearHook> TimedHook<H> {
    fn new(inner: H) -> Self {
        TimedHook { inner, linear_s: BTreeMap::new(), observe_s: 0.0 }
    }

    fn hook_s(&self) -> f64 {
        self.linear_s.values().sum::<f64>() + self.observe_s
    }
}

impl<H: LinearHook> LinearHook for TimedHook<H> {
    fn compute_linear(
        &mut self,
        node: &Node,
        step: StepInfo,
        inputs: &[&Tensor],
    ) -> Option<Tensor> {
        let t = Instant::now();
        let out = self.inner.compute_linear(node, step, inputs);
        *self.linear_s.entry(node.op.kind_name()).or_default() += t.elapsed().as_secs_f64();
        out
    }

    fn observe(&mut self, node: &Node, step: StepInfo, inputs: &[&Tensor], output: &Tensor) {
        let t = Instant::now();
        self.inner.observe(node, step, inputs, output);
        self.observe_s += t.elapsed().as_secs_f64();
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}

/// What the traced pipeline measured for one model.
struct ModelTiming {
    digest: String,
    /// Seconds spent in `compute_linear` of the Ditto hook, per layer kind.
    linear_s: BTreeMap<&'static str, f64>,
    calibrate_fp32_s: f64,
    trace_fp32_s: f64,
}

/// `--child traced`: the same per-model pipeline as a cold `Suite` load —
/// build, calibrate (static-quantized models), Ditto trace (Dense),
/// binio encode + write — from public calls on the same worker count,
/// with a span around each call and timing hooks inside the reverse runs.
pub fn child_traced() -> Value {
    let dir = std::env::var_os(CACHE_DIR_ENV).expect("cache dir set by the parent");
    let spans = Spans::new();
    tensor::backend::set_dispatch_counting(true);
    let workers = accel::pool::default_workers();
    let t0 = Instant::now();
    let pool_id = spans.reserve();
    let timings = accel::pool::run_indexed(MODELS.len(), workers, |i| {
        let kind = MODELS[i];
        let model_id = spans.reserve();
        let m0 = Instant::now();
        let model = spans.time("diffusion.build", Some(model_id), || {
            DiffusionModel::build(kind, ModelScale::Small, WEIGHT_SEED)
        });
        let (quantizer, calibrate_fp32_s) = if kind.uses_dynamic_quant() {
            (Quantizer::dynamic(), 0.0)
        } else {
            spans.time("runner.calibrate", Some(model_id), || {
                let mut hook = TimedHook::new(CalibrationHook::new(model.model_calls()));
                let c0 = Instant::now();
                model.run_reverse(SAMPLE_SEED, &mut hook).expect("calibration run");
                let fp32 = c0.elapsed().as_secs_f64() - hook.hook_s();
                (Quantizer::with_table(hook.inner.finish(8)), fp32)
            })
        };
        let (trace, linear_s, trace_fp32_s) = spans.time("runner.trace", Some(model_id), || {
            let mut hook = TimedHook::new(DittoHook::new(&model, quantizer, ExecPolicy::Dense));
            let r0 = Instant::now();
            model.run_reverse(SAMPLE_SEED, &mut hook).expect("trace run");
            let fp32 = r0.elapsed().as_secs_f64() - hook.hook_s();
            let linear_s = std::mem::take(&mut hook.linear_s);
            (hook.inner.into_trace(), linear_s, fp32)
        });
        let bytes = spans.time("suite.encode", Some(model_id), || binio::to_vec(&trace));
        spans.time("suite.write", Some(model_id), || {
            std::fs::write(Path::new(&dir).join(format!("traced-{}.bin", kind.abbr())), &bytes)
                .expect("write traced cache")
        });
        spans.record_as(
            model_id,
            &format!("model.{}", kind.abbr()),
            Some(pool_id),
            m0,
            Instant::now(),
            None,
        );
        ModelTiming { digest: digest_hex(&bytes), linear_s, calibrate_fp32_s, trace_fp32_s }
    });
    let end = Instant::now();
    spans.record_as(pool_id, "suite.load_traced", None, t0, end, None);
    let wall = end.duration_since(t0).as_secs_f64();

    let all = spans.snapshot();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut uncovered = Vec::new();
    let mut busy = 0.0;
    for (i, kind) in MODELS.iter().enumerate() {
        let model =
            all.iter().find(|s| s.name == format!("model.{}", kind.abbr())).expect("model span");
        let children: Vec<_> = all.iter().filter(|s| s.parent == Some(model.id)).collect();
        let child_sum =
            |name: &str| children.iter().filter(|s| s.name == name).map(|s| s.secs()).sum::<f64>();
        let covered: f64 = children.iter().map(|s| s.secs()).sum();
        if (model.secs() - covered).abs() > COVER_TOLERANCE * model.secs() {
            uncovered.push(format!("{}: {covered:.4}s of {:.4}s", kind.abbr(), model.secs()));
        }
        busy += model.secs();
        let m = kind.abbr();
        metrics.insert(format!("diffusion.build_s.{m}"), child_sum("diffusion.build"));
        if !kind.uses_dynamic_quant() {
            metrics.insert(format!("runner.calibrate_s.{m}"), child_sum("runner.calibrate"));
        }
        metrics.insert(format!("runner.trace_s.{m}"), child_sum("runner.trace"));
        *metrics.entry("suite.encode_ms".into()).or_default() += child_sum("suite.encode") * 1e3;
        let t = &timings[i];
        for (k, s) in &t.linear_s {
            *metrics.entry(format!("runner.{k}_s")).or_default() += s;
        }
        *metrics.entry("diffusion.calibrate_fp32_s".into()).or_default() += t.calibrate_fp32_s;
        *metrics.entry("diffusion.trace_fp32_s".into()).or_default() += t.trace_fp32_s;
    }
    metrics.insert("pool.busy_ratio".into(), busy / (workers.min(MODELS.len()) as f64 * wall));
    for k in KERNELS {
        metrics.insert(format!("kernel.{k}.calls"), 0.0);
    }
    for row in tensor::backend::dispatch_counts() {
        *metrics.entry(format!("kernel.{}.calls", row.kernel)).or_default() += row.count as f64;
    }
    let _ = spans.write(&util::work_dir().join("spans-cold.json"));
    let digests = MODELS
        .iter()
        .zip(&timings)
        .map(|(k, t)| (k.abbr().to_string(), Value::Str(t.digest.clone())))
        .collect();
    obj(vec![
        ("wall_s", Value::Num(wall)),
        ("peak_rss_mb", Value::Num(util::peak_rss_mb())),
        ("uncovered", Value::Arr(uncovered.into_iter().map(Value::Str).collect())),
        ("digests", Value::Obj(digests)),
        ("metrics", Value::Obj(metrics.into_iter().map(|(k, v)| (k, Value::Num(v))).collect())),
    ])
}

// --------------------------------------------------------------------------
// The workload
// --------------------------------------------------------------------------

/// Runs a `cold` or `traced` child into a fresh directory and checks its
/// digests (and, for `traced`, its span coverage). Returns the child's
/// report and the directory it filled.
pub fn cold_load(kind: &str, o: &mut Outcome) -> Option<(Value, PathBuf)> {
    let dir = util::fresh_dir("cold");
    o.attempted += MODELS.len();
    let Some(child) = util::run_child(&[kind], &[(CACHE_DIR_ENV, dir.clone().into())]) else {
        o.fail(MODELS.len(), &format!("{kind} child failed"));
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    };
    let bad = digest_failures(&child);
    o.fail(bad, &format!("{bad} {kind} trace digest(s) differ from expected_digests.txt"));
    if kind == "cold"
        && (num(&child, "fresh") != MODELS.len() as f64
            || child.get("files_ok") != Ok(&Value::Bool(true)))
    {
        o.fail(1, "cold load did not trace every model into a well-formed cache file");
    }
    if let Ok(Value::Arr(u)) = child.get("uncovered") {
        o.fail(
            u.len(),
            &format!("model spans not covered by their children within {COVER_TOLERANCE}: {u:?}"),
        );
    }
    Some((child, dir))
}
