//! `pipebench`: the end-to-end benchmark of the Ditto pipeline.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload serve_hit|serve_miss --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every run is the whole pipeline: a cold
//! trace of the seven Table I models ([`cold`]), fresh `ditto-serve`
//! set-ups on the cache it wrote, and open-loop traffic against one server
//! ([`serve`]). The last stdout line is one JSON object: `{"correct",
//! "attempted", "failed", "metrics"}`. With `--trace 0` the metrics are
//! the end-to-end ones of `BENCHMARK.json`; with `--trace 1` they are the
//! per-layer ones of [`layers::all`], from a separate traced pass that
//! also reports the traced-minus-untraced overhead of every end-to-end
//! metric. Scratch files (trace caches, and the spans of the last traced
//! run as Chrome trace JSON) live under `.pipebench-work/`.
//!
//! The benchmark spawns itself as child processes (`--child <kind>`) so
//! that every cold load and every server set-up starts from a fresh
//! process.

mod cold;
mod layers;
mod loadgen;
mod serve;
mod spans;
mod util;

use std::collections::BTreeMap;

use ditto_core::jsonio::Value;

use crate::util::obj;

/// The trace-cache location variable read by `bench::suite`.
pub const CACHE_DIR_ENV: &str = bench::suite::CACHE_DIR_ENV;

/// End-to-end metrics and their units, reported by every workload.
const END_TO_END: [(&str, &str); 4] =
    [("cold_trace_s", "s"), ("max_rate_rps", "req/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Operations attempted and failed, and the metrics measured so far.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts `n` failed operations (none when `n == 0`) and says why on
    /// stderr, which child processes share with the parent.
    pub fn fail(&mut self, n: usize, why: &str) {
        if n > 0 {
            self.failed += n;
            eprintln!("[pipebench] FAILED: {why}");
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if serve::spec(&args.workload).is_none() {
        return Err(format!("unknown workload `{}` (serve_hit, serve_miss)", args.workload));
    }
    Ok(args)
}

/// `--child <kind> [flags]`: one measured process; prints one JSON line.
fn child(kind: &str, rest: &[String]) -> Result<Value, String> {
    Ok(match kind {
        "cold" => cold::child_cold(),
        "traced" => cold::child_traced(),
        "serve-setup" | "serve-setup-traced" => {
            let seed =
                rest.first().and_then(|s| s.parse().ok()).ok_or("serve-setup needs a seed")?;
            serve::child_setup(seed, kind.ends_with("traced"))
        }
        "serve-measure" => {
            let a = parse_args(rest)?;
            let spec = serve::spec(&a.workload).ok_or("serve-measure needs a serve workload")?;
            serve::child_measure(&spec, a.seed, a.seconds, a.trace)
        }
        other => return Err(format!("unknown child kind {other}")),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        match child(argv.get(1).map_or("", String::as_str), &argv[2.min(argv.len())..]) {
            Ok(v) => util::print_json(&v),
            Err(e) => {
                eprintln!("pipebench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    let mut o = Outcome::default();
    let spec = serve::spec(&args.workload).expect("validated workload");
    serve::run(&spec, args.seed, args.seconds, args.trace, &mut o);
    let metrics: Vec<(String, &str)> = if args.trace {
        layers::all().into_iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.into_iter().map(|(n, u)| (n.to_string(), u)).collect()
    };
    let mut missing = vec![];
    let rendered = metrics
        .into_iter()
        .map(|(name, unit)| {
            // A metric that could not be measured reads 0 and fails the run.
            let value = o.metrics.get(&name).copied().filter(|v| v.is_finite());
            if value.is_none() {
                missing.push(name.clone());
            }
            let value = Value::Num(value.unwrap_or(0.0));
            (name, obj(vec![("value", value), ("unit", Value::Str(unit.to_string()))]))
        })
        .collect();
    let failed = o.failed + missing.len();
    if !missing.is_empty() {
        eprintln!("[pipebench] FAILED: no measurement for {missing:?}");
    }
    util::print_json(&obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Int(o.attempted.max(1) as i128)),
        ("failed", Value::Int(failed as i128)),
        ("metrics", Value::Obj(rendered)),
    ]));
}
