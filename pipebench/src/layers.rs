//! The per-layer metrics of a traced run, and which end-to-end metric on
//! which workload each one should move.
//!
//! `BENCHMARK.json` lists the same names (its entries carry only name,
//! unit and direction, so this table is where the "moves" mapping lives).
//! Every run of either workload is the whole pipeline, so a traced run
//! measures every name here.

/// Table I models, in the suite's order.
pub const MODELS: [&str; 7] = ["DDPM", "BED", "CHUR", "IMG", "SDM", "DiT", "Latte"];

/// The models that run an offline calibration pass (the diffusion
/// transformers quantize dynamically and skip it).
pub const CALIBRATED: [&str; 5] = ["DDPM", "BED", "CHUR", "IMG", "SDM"];

/// The counted kernel dispatchers of `tensor::backend`.
pub const KERNELS: [&str; 9] = [
    "matmul_f32",
    "matvec_f32",
    "conv2d_f32",
    "conv2d_direct_f32",
    "int_matmul",
    "int_conv2d_direct",
    "delta_matmul_update",
    "attention_delta_scores",
    "int_scores",
];

/// The `accel::Design::catalog()` names and the metric suffix each gets
/// (metric names allow only letters, digits, `_`, `.` and `-`).
pub const DESIGNS: [(&str, &str); 18] = [
    ("ITC", "ITC"),
    ("Diffy", "Diffy"),
    ("Cam-D", "Cam-D"),
    ("Ditto", "Ditto"),
    ("Ditto+", "Ditto-plus"),
    ("DS", "DS"),
    ("DB", "DB"),
    ("DB&DS", "DB-DS"),
    ("DB&DS&Attn.", "DB-DS-Attn"),
    ("Ideal-Ditto", "Ideal-Ditto"),
    ("Ideal-Ditto+", "Ideal-Ditto-plus"),
    ("Dyn.-Ditto", "Dyn-Ditto"),
    ("Org. Cam-D", "Org-Cam-D"),
    ("Org. Cam-D & Attn. Diff.", "Org-Cam-D-AttnDiff"),
    ("Org. Cam-D & Attn. Diff. & Defo", "Org-Cam-D-AttnDiff-Defo"),
    ("Org. Cam-D & Attn. Diff. & Defo+", "Org-Cam-D-AttnDiff-Defo-plus"),
    ("Ditto & Sign-mask", "Ditto-SignMask"),
    ("Ditto+ & Sign-mask", "Ditto-plus-SignMask"),
];

/// Steps of each workload's offered-rate ladder.
pub const LADDER_STEPS: usize = 3;

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this layer metric should move.
    pub moves: &'static str,
    /// The workloads on which it should move it.
    pub workloads: &'static str,
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workloads: &'static str,
) -> Layer {
    Layer { name: name.into(), unit, better, moves, workloads }
}

/// Every per-layer metric, in report order.
pub fn all() -> Vec<Layer> {
    const BOTH: &str = "serve_hit,serve_miss";
    const MISS: &str = "serve_miss";
    let mut v = Vec::new();
    for m in MODELS {
        v.push(layer(format!("diffusion.build_s.{m}"), "s", "lower", "cold_trace_s", BOTH));
    }
    for m in CALIBRATED {
        v.push(layer(format!("runner.calibrate_s.{m}"), "s", "lower", "cold_trace_s", BOTH));
    }
    for m in MODELS {
        v.push(layer(format!("runner.trace_s.{m}"), "s", "lower", "cold_trace_s", BOTH));
    }
    for kind in ["conv2d", "linear", "matmul_qk", "matmul_pv"] {
        v.push(layer(format!("runner.{kind}_s"), "s", "lower", "cold_trace_s", BOTH));
    }
    v.push(layer("diffusion.calibrate_fp32_s", "s", "lower", "cold_trace_s", BOTH));
    v.push(layer("diffusion.trace_fp32_s", "s", "lower", "cold_trace_s", BOTH));
    v.push(layer("suite.encode_ms", "ms", "lower", "cold_trace_s", BOTH));
    for k in KERNELS {
        v.push(layer(format!("kernel.{k}.calls"), "count", "lower", "cold_trace_s", BOTH));
    }
    v.push(layer("pool.busy_ratio", "ratio", "higher", "cold_trace_s", BOTH));
    for q in ["p50", "p99"] {
        v.push(layer(
            format!("serve.handler_ms.{q}"),
            "ms",
            "lower",
            "max_rate_rps (and client.latency_*)",
            BOTH,
        ));
    }
    for q in ["p50", "p99"] {
        v.push(layer(
            format!("serve.transport_ms.{q}"),
            "ms",
            "lower",
            "max_rate_rps (and client.latency_*)",
            BOTH,
        ));
    }
    v.push(layer(
        "sched.memo_hit_ratio",
        "ratio",
        "higher",
        "max_rate_rps (and client.latency_p99_ms)",
        MISS,
    ));
    v.push(layer(
        "sched.cells_simulated",
        "count",
        "lower",
        "max_rate_rps (and client.latency_p99_ms)",
        MISS,
    ));
    v.push(layer(
        "sched.evictions",
        "count",
        "lower",
        "max_rate_rps (and client.latency_p99_ms)",
        MISS,
    ));
    v.push(layer(
        "sched.wait_ms.p50",
        "ms",
        "lower",
        "max_rate_rps (and client.latency_p99_ms)",
        MISS,
    ));
    v.push(layer(
        "sched.wait_ms.p99",
        "ms",
        "lower",
        "max_rate_rps (and client.latency_p99_ms)",
        MISS,
    ));
    v.push(layer(
        "sched.sim_ms.p50",
        "ms",
        "lower",
        "max_rate_rps (and client.latency_p99_ms)",
        MISS,
    ));
    for (_, suffix) in DESIGNS {
        v.push(layer(
            format!("accel.cell_us.{suffix}"),
            "us",
            "lower",
            "max_rate_rps (and client.latency_*)",
            MISS,
        ));
    }
    v.push(layer("suite.decode_ms", "ms", "lower", "setup_s", BOTH));
    v.push(layer(
        "client.latency_p50_ms",
        "ms",
        "lower",
        "none (end-to-end, but too noisy on a shared host to bound)",
        BOTH,
    ));
    v.push(layer(
        "client.latency_p99_ms",
        "ms",
        "lower",
        "none (end-to-end, but too noisy on a shared host to bound)",
        BOTH,
    ));
    v.push(layer("loadgen.lag_ms.p99", "ms", "lower", "none (validity signal)", BOTH));
    for k in 1..=LADDER_STEPS {
        v.push(layer(
            format!("loadgen.step{k}.lag_ms.p99"),
            "ms",
            "lower",
            "none (validity signal)",
            BOTH,
        ));
        v.push(layer(
            format!("loadgen.step{k}.backlog_growth"),
            "count",
            "lower",
            "max_rate_rps",
            BOTH,
        ));
    }
    for (name, unit, better) in [
        ("cold_trace_s", "s", "lower"),
        ("latency_p50_ms", "ms", "lower"),
        ("latency_p99_ms", "ms", "lower"),
        ("max_rate_rps", "req/s", "higher"),
        ("setup_s", "s", "lower"),
        ("peak_rss_mb", "MB", "lower"),
    ] {
        v.push(layer(
            format!("overhead.{name}"),
            unit,
            better,
            "none (traced minus untraced)",
            BOTH,
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_core::jsonio::{self, Value};

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Ok(Value::Str(s)) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_layers() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = jsonio::parse(&std::fs::read(path).expect("read BENCHMARK.json")).unwrap();
        let Ok(Value::Arr(listed)) = doc.get("per_layer") else { panic!("per_layer") };
        let ours = all();
        assert_eq!(listed.len(), ours.len());
        for (entry, l) in listed.iter().zip(&ours) {
            assert_eq!(str_field(entry, "name"), l.name);
            assert_eq!(str_field(entry, "unit"), l.unit);
            assert_eq!(str_field(entry, "better"), l.better);
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let names: Vec<String> = all().into_iter().map(|l| l.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn design_table_matches_the_catalog() {
        let catalog: Vec<String> = accel::Design::catalog().into_iter().map(|d| d.name).collect();
        let ours: Vec<&str> = DESIGNS.iter().map(|(name, _)| *name).collect();
        assert_eq!(catalog, ours);
    }
}
