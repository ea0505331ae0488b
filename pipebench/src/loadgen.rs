//! The open-loop request stream and the client that sends it.
//!
//! A phase's stream — every request line and its due time — is a pure
//! function of the seed, the phase number and the offered rate: Poisson
//! arrivals (independent users), each asking for a random subset of
//! catalog designs × Table I models. One generator thread sends each line
//! at its due time over [`CONNECTIONS`] connections, whatever the server is
//! doing; one reader thread per connection timestamps the responses.
//! Latency runs from the due time, so a stall also charges the requests
//! queued behind it.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::layers::{DESIGNS, MODELS};
use crate::util::{fnv1a, SplitMix};

/// Connections the generator spreads its requests over.
pub const CONNECTIONS: usize = 2;
/// Designs per request.
pub const DESIGNS_PER_REQUEST: usize = 4;
/// Models per request.
pub const MODELS_PER_REQUEST: usize = 3;
/// A response not received this long after the last send is a failure.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// Where the response's deterministic part (best designs, geomeans and
/// the full report) starts; everything before it is per-request
/// accounting.
pub const TAIL_MARKER: &str = ",\"best_design\":";

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    /// Send time, from the start of the phase.
    pub due: Duration,
    /// Indices into [`DESIGNS`].
    pub designs: Vec<usize>,
    /// Indices into [`MODELS`].
    pub models: Vec<usize>,
    /// The wire line, without its newline.
    pub line: String,
}

fn quoted(names: impl Iterator<Item = &'static str>) -> String {
    names.map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(",")
}

/// The request line for explicit axes.
pub fn request_line(id: u64, designs: &[usize], models: &[usize]) -> String {
    format!(
        "{{\"id\":{id},\"designs\":[{}],\"models\":[{}],\"scale\":\"small\"}}",
        quoted(designs.iter().map(|&d| DESIGNS[d].0)),
        quoted(models.iter().map(|&m| MODELS[m])),
    )
}

/// `n` requests of phase `phase` at `rate` requests per second. Ids are
/// unique across the phases of one run.
pub fn stream(seed: u64, phase: u64, rate: f64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ phase.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut t = 0.0;
    (0..n)
        .map(|k| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            let designs = rng.distinct(DESIGNS_PER_REQUEST, DESIGNS.len());
            let models = rng.distinct(MODELS_PER_REQUEST, MODELS.len());
            let id = phase * 1_000_000 + k as u64 + 1;
            let line = request_line(id, &designs, &models);
            Request { id, due: Duration::from_secs_f64(t), designs, models, line }
        })
        .collect()
}

/// The bytes the server would receive for a stream, with due times: the
/// unit the determinism self-test compares.
pub fn stream_bytes(reqs: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reqs {
        out.extend_from_slice(format!("{} ", r.due.as_nanos()).as_bytes());
        out.extend_from_slice(r.line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Checks that a seed fixes the stream: the same seed gives a
/// byte-identical stream, another seed a different one.
pub fn self_test(seed: u64) -> Result<(), String> {
    let a = stream_bytes(&stream(seed, 1, 100.0, 500));
    let b = stream_bytes(&stream(seed, 1, 100.0, 500));
    let c = stream_bytes(&stream(seed.wrapping_add(1), 1, 100.0, 500));
    if a != b {
        return Err("the same seed gave two different request streams".into());
    }
    if a == c {
        return Err("two seeds gave the same request stream".into());
    }
    Ok(())
}

/// One response as the client saw it.
#[derive(Debug, Clone)]
pub struct Response {
    pub received: Instant,
    /// The accounting part of the line (up to [`TAIL_MARKER`]).
    pub head: String,
    /// FNV-1a of the deterministic part; `None` if the marker is missing.
    pub tail_digest: Option<u64>,
}

/// What one phase observed, request by request (in stream order).
#[derive(Debug)]
pub struct PhaseRecord {
    pub start: Instant,
    pub sent: Vec<Instant>,
    pub responses: Vec<Option<Response>>,
    /// Requests in flight (sent, not yet answered) just before each send.
    pub backlog: Vec<usize>,
}

impl PhaseRecord {
    pub fn due(&self, req: &Request) -> Instant {
        self.start + req.due
    }
}

/// The `"id"` of a response line this client generated (a decimal string).
fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    rest[..rest.find('"')?].parse().ok()
}

fn read_responses(conn: TcpStream, received: Arc<AtomicUsize>) -> Vec<(u64, Response)> {
    let mut out = Vec::new();
    let mut reader = BufReader::with_capacity(1 << 16, conn);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let now = Instant::now();
        let text = line.trim_end();
        let Some(id) = response_id(text) else { continue };
        let (head, tail_digest) = match text.find(TAIL_MARKER) {
            Some(i) => (text[..i].to_string(), Some(fnv1a(&text.as_bytes()[i..]))),
            None => (text.to_string(), None),
        };
        out.push((id, Response { received: now, head, tail_digest }));
        received.fetch_add(1, Ordering::Relaxed);
    }
    out
}

/// Sends `reqs` open-loop to `addr` and collects every response (or the
/// lack of one within [`RESPONSE_TIMEOUT`] of the last send).
pub fn run_phase(addr: SocketAddr, reqs: &[Request]) -> std::io::Result<PhaseRecord> {
    let received = Arc::new(AtomicUsize::new(0));
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNECTIONS {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = conn.try_clone()?;
        let count = Arc::clone(&received);
        readers.push(std::thread::spawn(move || read_responses(reader, count)));
        writers.push(conn);
    }
    let start = Instant::now();
    let mut sent = Vec::with_capacity(reqs.len());
    let mut backlog = Vec::with_capacity(reqs.len());
    let mut buf = Vec::with_capacity(512);
    for (k, req) in reqs.iter().enumerate() {
        let due = start + req.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        backlog.push(k - received.load(Ordering::Relaxed).min(k));
        sent.push(Instant::now());
        buf.clear();
        buf.extend_from_slice(req.line.as_bytes());
        buf.push(b'\n');
        // A write error leaves this request (and its connection's later
        // ones) unanswered: they count as failures.
        let _ = writers[k % CONNECTIONS].write_all(&buf);
    }
    for w in &writers {
        let _ = w.shutdown(Shutdown::Write);
    }
    let mut by_id = std::collections::HashMap::new();
    for r in readers {
        by_id.extend(r.join().expect("reader thread"));
    }
    let responses = reqs.iter().map(|r| by_id.remove(&r.id)).collect();
    Ok(PhaseRecord { start, sent, responses, backlog })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_stream() {
        self_test(7).unwrap();
        self_test(0).unwrap();
        assert_eq!(stream(3, 2, 50.0, 20), stream(3, 2, 50.0, 20));
        assert_ne!(stream_bytes(&stream(3, 2, 50.0, 20)), stream_bytes(&stream(3, 3, 50.0, 20)));
    }

    #[test]
    fn stream_has_the_offered_rate_and_valid_axes() {
        let reqs = stream(11, 1, 200.0, 4000);
        let span = reqs.last().unwrap().due.as_secs_f64();
        assert!((span - 20.0).abs() < 1.0, "4000 requests at 200/s took {span}s");
        for r in &reqs {
            assert_eq!(r.designs.len(), DESIGNS_PER_REQUEST);
            assert_eq!(r.models.len(), MODELS_PER_REQUEST);
            let parsed = bench::sweep::parse_request(&r.line).expect("server parses the line");
            assert_eq!(parsed.id, r.id.to_string());
            assert_eq!(parsed.sweep.designs.len(), DESIGNS_PER_REQUEST);
        }
    }

    #[test]
    fn response_ids_parse() {
        assert_eq!(response_id("{\"id\":\"1000007\",\"ok\":true}"), Some(1_000_007));
        assert_eq!(response_id("{\"ok\":true}"), None);
    }
}
