//! The `serve_hit` and `serve_miss` workloads: an in-process
//! `serve::server` + `serve::SuiteApp` on the warm Small suite, driven by
//! the open-loop stream of [`crate::loadgen`].
//!
//! Both workloads send the same traffic. `serve_hit` keeps the cell memo
//! unbounded, so after the pre-warm every cell is a memo hit; `serve_miss`
//! caps it through `DITTO_MEMO_MAX_CELLS` well below the 126-cell working
//! set, so most cells are simulated again.
//!
//! A run is the whole pipeline, orchestrated from a parent process: one
//! cold trace fills a fresh trace cache ([`crate::cold`]), then
//! [`SETUP_SAMPLES`] fresh server processes are timed from spawn to first
//! response on it, then one measuring child offers the nominal rate and
//! climbs the rate ladder.

use std::collections::HashMap;
use std::ffi::OsString;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accel::{Design, SweepReport, SweepSpec};
use bench::sweep::response_ok;
use bench::{HitAccounting, Suite};
use diffusion::ModelScale;
use ditto_core::jsonio::{self, Value};
use serve::server::{App, ServerConfig};
use serve::SuiteApp;

use crate::layers::{DESIGNS, MODELS};
use crate::loadgen::{self, PhaseRecord, Request, TAIL_MARKER};
use crate::spans::Spans;
use crate::util::{self, median, num, obj, percentile};
use crate::{cold, Outcome, CACHE_DIR_ENV};

/// Fresh server processes timed per run for `setup_s`.
const SETUP_SAMPLES: usize = 5;
/// Requests of the untimed warm-up phase after the memo pre-warm.
const WARMUP_REQUESTS: usize = 300;
/// Share of `--seconds` spent at the nominal rate (the ladder follows).
const NOMINAL_SHARE: f64 = 0.5;
/// Length of one ladder step (s), at least [`MIN_PHASE_REQUESTS`] requests.
const STEP_SECONDS: f64 = 2.0;
/// Fewest requests per measured phase: p99 then has ten samples beyond it.
const MIN_PHASE_REQUESTS: usize = 1000;
/// A step's backlog grows when the median count of requests in flight over
/// its last third exceeds this multiple of the median over its first third,
/// plus [`BACKLOG_SLACK`]. Medians, so that one host stall does not read as
/// growth.
const BACKLOG_GROWTH: f64 = 2.0;
const BACKLOG_SLACK: f64 = 4.0;
/// A handler span must lie inside its client span to within this (ms).
const RECONCILE_TOLERANCE_MS: f64 = 0.01;
/// Passes over the 126 catalog cells when timing `simulate_cell`.
const CELL_TIMING_PASSES: usize = 5;

/// One serve workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// `DITTO_MEMO_MAX_CELLS`, or unbounded.
    pub memo_cap: Option<usize>,
    /// Offered rate of the nominal phase, which the client-latency and
    /// handler/transport metrics describe (req/s).
    pub nominal_rps: f64,
    /// Offered rates for `max_rate_rps`, ascending (req/s).
    pub ladder: &'static [f64],
    /// p99 latency limit a ladder step must meet (ms).
    pub p99_limit_ms: f64,
}

// Rates and limits. On a shared 2-vCPU host, `serve_hit` saturated
// between 3,000 and 6,000 req/s and `serve_miss` between 2,000 and 3,600
// req/s as the host's load changed (2 s steps), while p50 latency at the
// nominal rates moved by up to 2x. Each ladder therefore tops out below the
// slow-host knee, and the p99 limits sit far above host stalls (single
// stalls reach ~50 ms), so that a step fails when the server falls behind,
// not when the host hiccups.
const HIT: Spec = Spec {
    name: "serve_hit",
    memo_cap: None,
    nominal_rps: 1000.0,
    ladder: &[750.0, 1500.0, 3000.0],
    p99_limit_ms: 100.0,
};

const MISS: Spec = Spec {
    name: "serve_miss",
    memo_cap: Some(24),
    nominal_rps: 150.0,
    ladder: &[300.0, 600.0, 1200.0],
    p99_limit_ms: 200.0,
};

pub fn spec(workload: &str) -> Option<Spec> {
    [HIT, MISS].into_iter().find(|s| s.name == workload)
}

/// The environment of every serve child of `spec`, on the trace cache in
/// `cache`.
fn child_env(spec: &Spec, cache: &Path, traced: bool) -> Vec<(&'static str, OsString)> {
    let mut env = vec![(CACHE_DIR_ENV, cache.into())];
    if let Some(cap) = spec.memo_cap {
        env.push(("DITTO_MEMO_MAX_CELLS", cap.to_string().into()));
    }
    if traced {
        let summary = util::work_dir().join(format!("obs-summary-{}.json", std::process::id()));
        env.push(("DITTO_OBS_SUMMARY", summary.into()));
    }
    env
}

// --------------------------------------------------------------------------
// The server under test
// --------------------------------------------------------------------------

/// Wraps the app, recording one `serve.handle` span per request id.
struct TimedApp {
    inner: SuiteApp,
    spans: Arc<Spans>,
}

impl App for TimedApp {
    fn handle(&self, line: &str) -> String {
        let start = Instant::now();
        let out = self.inner.handle(line);
        let end = Instant::now();
        let id = line
            .strip_prefix("{\"id\":")
            .and_then(|r| r.split(',').next())
            .and_then(|n| n.parse().ok());
        self.spans.record_as(self.spans.reserve(), "serve.handle", None, start, end, id);
        out
    }
}

fn start_server(traced: bool, spans: &Arc<Spans>) -> std::io::Result<serve::ServerHandle> {
    let workers = accel::pool::default_workers();
    let app: Arc<dyn App> = if traced {
        Arc::new(TimedApp { inner: SuiteApp::new(workers), spans: Arc::clone(spans) })
    } else {
        Arc::new(SuiteApp::new(workers))
    };
    serve::server::spawn(app, ServerConfig::default())
}

/// The pre-warm request: every catalog design × every model.
fn prewarm_request() -> Request {
    let designs: Vec<usize> = (0..DESIGNS.len()).collect();
    let models: Vec<usize> = (0..MODELS.len()).collect();
    let line = loadgen::request_line(0, &designs, &models);
    Request { id: 0, due: Duration::ZERO, designs, models, line }
}

// --------------------------------------------------------------------------
// Checking responses
// --------------------------------------------------------------------------

/// Expected deterministic response parts, from one `accel::grid::run` over
/// the full catalog at set-up.
struct Expected {
    full: SweepReport,
    digests: HashMap<(Vec<usize>, Vec<usize>), u64>,
}

impl Expected {
    fn new(suite: &Suite) -> Self {
        let traces = bench::suite::MODELS.iter().map(|&k| suite.trace(k)).collect();
        let full =
            accel::grid::run(&SweepSpec::new(Design::catalog(), traces)).expect("reference grid");
        Expected { full, digests: HashMap::new() }
    }

    /// Digest of the response tail a correct server renders for `req`.
    fn tail_digest(&mut self, req: &Request) -> u64 {
        let full = &self.full;
        *self.digests.entry((req.designs.clone(), req.models.clone())).or_insert_with(|| {
            let mut cells = Vec::new();
            for (mi, &m) in req.models.iter().enumerate() {
                for (di, &d) in req.designs.iter().enumerate() {
                    let mut cell = full.cell(d, m).clone();
                    (cell.design, cell.model) = (di, mi);
                    cells.push(cell);
                }
            }
            let report = SweepReport {
                designs: req.designs.iter().map(|&d| full.designs[d].clone()).collect(),
                models: req.models.iter().map(|&m| full.models[m].clone()).collect(),
                cells,
                gpu: req.models.iter().map(|&m| full.gpu[m].clone()).collect(),
            };
            let line =
                response_ok("", &report, &HitAccounting::default(), tensor::backend::active());
            util::fnv1a(&line.as_bytes()[line.find(TAIL_MARKER).expect("tail marker")..])
        })
    }
}

/// Summed `cells` counters of the verified responses.
#[derive(Debug, Default, Clone, Copy)]
struct Cells {
    total: f64,
    memo_hits: f64,
    simulated: f64,
    evictions: f64,
}

/// Checks every response of a phase; returns per-request latency from the
/// due time in ms (infinite for a failed, refused or missing response) and
/// the summed cell counters.
fn check_phase(
    reqs: &[Request],
    rec: &PhaseRecord,
    expected: &mut Expected,
    o: &mut Outcome,
) -> (Vec<f64>, Cells) {
    let mut lat = Vec::with_capacity(reqs.len());
    let mut cells = Cells::default();
    let mut bad = 0;
    for (req, resp) in reqs.iter().zip(&rec.responses) {
        o.attempted += 1;
        let ok = resp.as_ref().and_then(|r| {
            let head = jsonio::parse(format!("{}}}", r.head).as_bytes()).ok()?;
            let c = head.get("cells").ok()?;
            let [total, memo_hits, coalesced, simulated, evictions] =
                ["total", "memo_hits", "coalesced", "simulated", "evictions"].map(|k| num(c, k));
            let sound = head.get("ok") == Ok(&Value::Bool(true))
                && total == (req.designs.len() * req.models.len()) as f64
                && memo_hits + coalesced + simulated == total
                && r.tail_digest == Some(expected.tail_digest(req));
            sound.then(|| {
                cells.total += total;
                cells.memo_hits += memo_hits;
                cells.simulated += simulated;
                cells.evictions += evictions;
                r.received.duration_since(rec.due(req)).as_secs_f64() * 1e3
            })
        });
        if ok.is_none() {
            bad += 1;
        }
        lat.push(ok.unwrap_or(f64::INFINITY));
    }
    o.fail(
        bad,
        &format!("{bad} response(s) missing, not ok, or differing from the reference grid"),
    );
    (lat, cells)
}

/// Generator lateness per request (ms).
fn lag_ms(reqs: &[Request], rec: &PhaseRecord) -> Vec<f64> {
    reqs.iter()
        .zip(&rec.sent)
        .map(|(r, s)| s.duration_since(rec.due(r)).as_secs_f64() * 1e3)
        .collect()
}

/// Median requests in flight over the first and the last third of a phase.
fn backlog_thirds(rec: &PhaseRecord) -> (f64, f64) {
    let n = rec.backlog.len();
    let third = (n / 3).max(1);
    let med = |s: &[usize]| median(&s.iter().map(|&b| b as f64).collect::<Vec<_>>());
    (med(&rec.backlog[..third.min(n)]), med(&rec.backlog[n.saturating_sub(third)..]))
}

// --------------------------------------------------------------------------
// Child processes
// --------------------------------------------------------------------------

/// `--child serve-setup[-traced]`: spawn a server in a fresh process and
/// time spawn → first response (the first request decodes the suite),
/// then check that response like any other.
pub fn child_setup(seed: u64, traced: bool) -> Value {
    let spans = Arc::new(Spans::new());
    let req = [Request { due: Duration::ZERO, ..loadgen::stream(seed, 0, 1.0, 1).remove(0) }];
    let t0 = Instant::now();
    let handle = start_server(traced, &spans).expect("spawn server");
    let rec = loadgen::run_phase(handle.addr(), &req).expect("connect");
    let wall =
        rec.responses[0].as_ref().map_or(f64::NAN, |r| r.received.duration_since(t0).as_secs_f64());
    drop(handle);
    let mut o = Outcome::default();
    check_phase(&req, &rec, &mut Expected::new(Suite::shared(ModelScale::Small)), &mut o);
    obj(vec![("wall_s", Value::Num(wall)), ("ok", Value::Bool(o.failed == 0))])
}

/// One ladder step's outcome.
struct Step {
    rate: f64,
    /// 1, or 2 when the first attempt missed a limit and the step ran again.
    attempts: usize,
    requests: usize,
    /// Answered requests per second, from the step's start to its last
    /// response.
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    lag_p99_ms: f64,
    backlog: (f64, f64),
    pass: bool,
}

/// Offers one ladder step and judges it against the workload's limits.
fn run_step(
    spec: &Spec,
    addr: SocketAddr,
    rate: f64,
    seed: u64,
    phase: u64,
    expected: &mut Expected,
    o: &mut Outcome,
) -> Step {
    let reqs = loadgen::stream(
        seed,
        phase,
        rate,
        ((rate * STEP_SECONDS) as usize).max(MIN_PHASE_REQUESTS),
    );
    let rec = loadgen::run_phase(addr, &reqs).expect("connect");
    let (lat, _) = check_phase(&reqs, &rec, expected, o);
    let backlog = backlog_thirds(&rec);
    let p99_ms = percentile(&lat, 99.0);
    let grows = backlog.1 > BACKLOG_GROWTH * backlog.0 + BACKLOG_SLACK;
    let last = rec.responses.iter().flatten().map(|r| r.received).max().unwrap_or(rec.start);
    let answered = lat.iter().filter(|l| l.is_finite()).count();
    Step {
        rate,
        attempts: 1,
        requests: reqs.len(),
        throughput_rps: answered as f64
            / last.saturating_duration_since(rec.start).as_secs_f64().max(1e-9),
        p50_ms: median(&lat),
        p99_ms,
        lag_p99_ms: percentile(&lag_ms(&reqs, &rec), 99.0),
        backlog,
        pass: p99_ms <= spec.p99_limit_ms && !grows && answered == reqs.len(),
    }
}

/// `--child serve-measure`: the measured server process. Offers the
/// nominal rate, then every step of the ladder. A step that misses a limit
/// runs once more and counts if the second attempt meets them all, so that
/// one host stall does not decide `max_rate_rps`.
pub fn child_measure(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Value {
    let mut o = Outcome::default();
    let spans = Arc::new(Spans::new());
    let t0 = Instant::now();
    let suite = Suite::shared(ModelScale::Small);
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut expected = Expected::new(suite);
    let handle = start_server(traced, &spans).expect("spawn server");
    let addr = handle.addr();

    let prewarm = [prewarm_request()];
    let rec = loadgen::run_phase(addr, &prewarm).expect("connect");
    check_phase(&prewarm, &rec, &mut expected, &mut o);
    let warmup = loadgen::stream(seed, 1, spec.nominal_rps, WARMUP_REQUESTS);
    let rec = loadgen::run_phase(addr, &warmup).expect("connect");
    check_phase(&warmup, &rec, &mut expected, &mut o);

    let n_nominal = ((spec.nominal_rps * seconds * NOMINAL_SHARE) as usize).max(MIN_PHASE_REQUESTS);
    let nominal = loadgen::stream(seed, 2, spec.nominal_rps, n_nominal);
    let nominal_rec = loadgen::run_phase(addr, &nominal).expect("connect");
    let (nominal_lat, cells) = check_phase(&nominal, &nominal_rec, &mut expected, &mut o);
    // Read before the ladder: steps past the knee queue requests (and
    // their handler threads) without bound.
    let peak_rss_mb = util::peak_rss_mb();
    let sched_summary = serve::obs::global().summary_json();

    let mut steps: Vec<Step> = Vec::new();
    for (k, &rate) in spec.ladder.iter().enumerate() {
        let phase = 3 + 2 * k as u64;
        let mut step = run_step(spec, addr, rate, seed, phase, &mut expected, &mut o);
        if !step.pass {
            step = Step {
                attempts: 2,
                ..run_step(spec, addr, rate, seed, phase + 1, &mut expected, &mut o)
            };
        }
        steps.push(step);
    }
    drop(handle);
    // The throughput of the highest step that meets the limits; its offered
    // rate is the step's ladder value.
    let max_rate = steps.iter().rev().find(|s| s.pass).map_or(0.0, |s| s.throughput_rps);
    eprintln!(
        "[pipebench] {} nominal {:.0} req/s: n={} p50={:.3}ms p99={:.3}ms",
        spec.name,
        spec.nominal_rps,
        nominal_lat.len(),
        median(&nominal_lat),
        percentile(&nominal_lat, 99.0)
    );
    for s in &steps {
        eprintln!(
            "[pipebench] {} step {:>6.0} req/s (attempt {}): n={} done {:.0}/s p50={:.3}ms p99={:.3}ms lag_p99={:.3}ms backlog {:.1} -> {:.1} {}",
            spec.name,
            s.rate,
            s.attempts,
            s.requests,
            s.throughput_rps,
            s.p50_ms,
            s.p99_ms,
            s.lag_p99_ms,
            s.backlog.0,
            s.backlog.1,
            if s.pass { "pass" } else { "FAIL" }
        );
    }

    let mut metrics = vec![];
    if traced {
        metrics = layer_metrics(
            &nominal,
            &nominal_rec,
            &nominal_lat,
            cells,
            sched_summary,
            &spans,
            suite,
            &expected.full,
            &mut o,
        );
        metrics.push(("suite.decode_ms".into(), decode_ms));
        for (k, s) in steps.iter().enumerate() {
            metrics.push((format!("loadgen.step{}.lag_ms.p99", k + 1), s.lag_p99_ms));
            metrics
                .push((format!("loadgen.step{}.backlog_growth", k + 1), s.backlog.1 - s.backlog.0));
        }
        let _ = spans.write(&util::work_dir().join(format!("spans-{}.json", spec.name)));
    }
    obj(vec![
        ("latency_p50_ms", Value::Num(median(&nominal_lat))),
        ("latency_p99_ms", Value::Num(percentile(&nominal_lat, 99.0))),
        ("max_rate_rps", Value::Num(max_rate)),
        ("peak_rss_mb", Value::Num(peak_rss_mb)),
        ("attempted", Value::Int(o.attempted as i128)),
        ("failed", Value::Int(o.failed as i128)),
        ("metrics", Value::Obj(metrics.into_iter().map(|(k, v)| (k, Value::Num(v))).collect())),
    ])
}

/// Per-layer metrics of the nominal phase of a traced run: handler and
/// transport time (reconciled against client latency per request), the
/// scheduler's memo figures and queue/simulation times (`Obs` aggregates
/// up to the end of the nominal phase), and `simulate_cell` per design.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    reqs: &[Request],
    rec: &PhaseRecord,
    lat: &[f64],
    cells: Cells,
    sched_summary: Option<Value>,
    spans: &Spans,
    suite: &Suite,
    full: &SweepReport,
    o: &mut Outcome,
) -> Vec<(String, f64)> {
    let handlers: HashMap<u64, (Instant, Instant)> =
        spans.snapshot().into_iter().filter_map(|s| Some((s.request?, (s.start, s.end)))).collect();
    let (mut handler_ms, mut transport_ms, mut unreconciled) = (vec![], vec![], 0);
    for ((req, resp), &client_ms) in reqs.iter().zip(&rec.responses).zip(lat) {
        let (Some(resp), Some(&(hs, he))) = (resp, handlers.get(&req.id)) else { continue };
        let due = rec.due(req);
        spans.record_as(spans.reserve(), "client.request", None, due, resp.received, Some(req.id));
        let h = he.duration_since(hs).as_secs_f64() * 1e3;
        let before = due.saturating_duration_since(hs).as_secs_f64() * 1e3;
        let after = he.saturating_duration_since(resp.received).as_secs_f64() * 1e3;
        if before > RECONCILE_TOLERANCE_MS || after > RECONCILE_TOLERANCE_MS {
            unreconciled += 1;
        }
        handler_ms.push(h);
        transport_ms.push(client_ms - h);
    }
    let missing = reqs.len() - handler_ms.len();
    o.fail(unreconciled + missing, &format!(
        "{unreconciled} handler span(s) outside their client span by more than {RECONCILE_TOLERANCE_MS} ms, {missing} request(s) without both spans"
    ));

    let mut m: Vec<(String, f64)> = vec![
        ("serve.handler_ms.p50".into(), median(&handler_ms)),
        ("serve.handler_ms.p99".into(), percentile(&handler_ms, 99.0)),
        ("serve.transport_ms.p50".into(), median(&transport_ms)),
        ("serve.transport_ms.p99".into(), percentile(&transport_ms, 99.0)),
        ("sched.memo_hit_ratio".into(), cells.memo_hits / cells.total),
        ("sched.cells_simulated".into(), cells.simulated),
        ("sched.evictions".into(), cells.evictions),
        ("loadgen.lag_ms.p99".into(), percentile(&lag_ms(reqs, rec), 99.0)),
    ];
    if let Some(summary) = sched_summary {
        let hist = |key: &str, q: &str| {
            summary.get("cells").and_then(|c| c.get(key)).map_or(f64::NAN, |h| num(h, q) / 1e3)
        };
        m.push(("sched.wait_ms.p50".into(), hist("sched_wait_us", "p50")));
        m.push(("sched.wait_ms.p99".into(), hist("sched_wait_us", "p99")));
        m.push(("sched.sim_ms.p50".into(), hist("sim_us", "p50")));
    }
    let catalog = Design::catalog();
    let mut cell_us: Vec<Vec<f64>> = vec![Vec::new(); catalog.len()];
    for _ in 0..CELL_TIMING_PASSES {
        for (mi, &kind) in bench::suite::MODELS.iter().enumerate() {
            for (di, design) in catalog.iter().enumerate() {
                let t = Instant::now();
                std::hint::black_box(accel::simulate_cell(
                    design,
                    suite.trace(kind),
                    &full.gpu[mi],
                ));
                cell_us[di].push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    for ((_, suffix), samples) in DESIGNS.iter().zip(&cell_us) {
        m.push((format!("accel.cell_us.{suffix}"), median(samples)));
    }
    m
}

// --------------------------------------------------------------------------
// The workload
// --------------------------------------------------------------------------

/// `SETUP_SAMPLES` fresh-process set-ups; their wall times in seconds.
fn setups(spec: &Spec, cache: &Path, seed: u64, traced: bool, o: &mut Outcome) -> Vec<f64> {
    let kind = if traced { "serve-setup-traced" } else { "serve-setup" };
    let seed = seed.to_string();
    let mut out = vec![];
    for _ in 0..SETUP_SAMPLES {
        o.attempted += 1;
        match util::run_child(&[kind, &seed], &child_env(spec, cache, traced)) {
            Some(c) if c.get("ok") == Ok(&Value::Bool(true)) => out.push(num(&c, "wall_s")),
            _ => o.fail(1, &format!("{kind} child failed or its first response was not ok")),
        }
    }
    out
}

/// Runs the measuring child and folds its counts into `o`.
fn measure(
    spec: &Spec,
    cache: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    o: &mut Outcome,
) -> Option<Value> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if traced { "1" } else { "0" };
    let args = [
        "serve-measure",
        "--workload",
        spec.name,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ];
    let Some(c) = util::run_child(&args, &child_env(spec, cache, traced)) else {
        o.attempted += 1;
        o.fail(1, "serve-measure child failed");
        return None;
    };
    o.attempted += num(&c, "attempted") as usize;
    o.failed += num(&c, "failed") as usize;
    Some(c)
}

/// One run of a serve workload: the whole pipeline. A cold trace fills a
/// fresh cache; fresh servers on that cache are timed to their first
/// response (`setup_s`); one server process then takes the open-loop
/// traffic (`latency_*`, `max_rate_rps`); a second cold trace closes the
/// run (`cold_trace_s` is the median of the two). Traced, the second cold
/// trace and the serve stages run with tracing instead, for the per-layer
/// metrics and the traced-minus-untraced overheads.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, o: &mut Outcome) {
    o.attempted += 1;
    if let Err(e) = loadgen::self_test(seed) {
        o.fail(1, &e);
    }
    let Some((cold, cache)) = cold::cold_load("cold", o) else { return };
    let setup_s = median(&setups(spec, &cache, seed, false, o));
    let plain = measure(spec, &cache, seed, seconds, false, o);
    let rss_mb = |serve: &Option<Value>, cold: &Value| {
        serve.as_ref().map_or(f64::NAN, |s| num(s, "peak_rss_mb")).max(num(cold, "peak_rss_mb"))
    };
    let cold_s = num(&cold, "wall_s");
    let plain_rss = rss_mb(&plain, &cold);
    const SERVE_E2E: [&str; 3] = ["latency_p50_ms", "latency_p99_ms", "max_rate_rps"];
    if !traced {
        let _ = std::fs::remove_dir_all(&cache);
        if let Some(plain) = &plain {
            o.metric("max_rate_rps", num(plain, "max_rate_rps"));
        }
        // A second cold trace, half a run after the first, so that
        // `cold_trace_s` is not one draw of the host's slower phases.
        let Some((late, late_cache)) = cold::cold_load("cold", o) else { return };
        let _ = std::fs::remove_dir_all(&late_cache);
        o.metric("cold_trace_s", median(&[cold_s, num(&late, "wall_s")]));
        o.metric("setup_s", setup_s);
        o.metric("peak_rss_mb", plain_rss.max(num(&late, "peak_rss_mb")));
        return;
    }
    let traced_cold = cold::cold_load("traced", o);
    let setup_traced_s = median(&setups(spec, &cache, seed, true, o));
    let with = measure(spec, &cache, seed, seconds, true, o);
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(
        util::work_dir().join(format!("obs-summary-{}.json", std::process::id())),
    );
    let (Some(plain), Some((traced_cold, traced_cache)), Some(with)) = (plain, traced_cold, with)
    else {
        return;
    };
    let _ = std::fs::remove_dir_all(&traced_cache);
    for child in [&traced_cold, &with] {
        if let Ok(Value::Obj(fields)) = child.get("metrics") {
            for (k, v) in fields {
                o.metric(k, util::as_f64(v));
            }
        }
    }
    for k in SERVE_E2E {
        o.metric(&format!("overhead.{k}"), num(&with, k) - num(&plain, k));
    }
    o.metric("client.latency_p50_ms", num(&plain, "latency_p50_ms"));
    o.metric("client.latency_p99_ms", num(&plain, "latency_p99_ms"));
    o.metric("overhead.cold_trace_s", num(&traced_cold, "wall_s") - cold_s);
    o.metric("overhead.setup_s", setup_traced_s - setup_s);
    o.metric("overhead.peak_rss_mb", rss_mb(&Some(with), &traced_cold) - plain_rss);
}
