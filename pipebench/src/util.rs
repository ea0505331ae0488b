//! Small helpers shared by the workloads: order statistics, digests, the
//! seeded generator, peak-RSS readout, JSON field access and child runs.

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use ditto_core::jsonio::{self, Value};

/// Median of `values` (the mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; 0 for an empty
/// slice. `f64::INFINITY` entries (failed requests) sort last.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// 64-bit FNV-1a digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own seeded generator, independent of the
/// program's RNG so that a change to the program never changes the inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct indices below `n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let i = (self.next_u64() % n as u64) as usize;
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's scratch directory, under the repository root it runs from.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".pipebench-work");
    std::fs::create_dir_all(&dir).expect("create .pipebench-work");
    dir
}

/// A fresh empty directory under the work dir, unique within the process.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = work_dir().join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fresh dir");
    dir
}

/// Runs this executable as a child (`--child <args>`) with extra
/// environment, waits for it, and parses the last stdout line as JSON.
/// A child that fails or prints no JSON yields `None`.
pub fn run_child(args: &[&str], env: &[(&str, OsString)]) -> Option<Value> {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.arg("--child").args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.stderr(Stdio::inherit()).output().ok()?;
    if !out.status.success() {
        eprintln!("[pipebench] child {args:?} exited with {}", out.status);
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    jsonio::parse(text.lines().last()?.as_bytes()).ok()
}

/// A JSON number as f64 (integers widen); NaN for anything else.
pub fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Num(x) => *x,
        Value::Int(i) => *i as f64,
        _ => f64::NAN,
    }
}

/// Numeric field `key` of a JSON object; NaN when absent.
pub fn num(v: &Value, key: &str) -> f64 {
    v.get(key).map_or(f64::NAN, as_f64)
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Prints `v` as one line on stdout.
pub fn print_json(v: &Value) {
    println!("{}", String::from_utf8(jsonio::to_vec(v)).expect("jsonio writes UTF-8"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_keep_failures_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        let failed = [1.0, 2.0, f64::INFINITY];
        assert!(percentile(&failed, 99.0).is_infinite());
        assert_eq!(median(&failed), 2.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4).scan(SplitMix::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(SplitMix::new(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(SplitMix::new(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
