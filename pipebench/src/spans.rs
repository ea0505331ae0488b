//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; spans
//! of one request also carry the request id. Nothing is written while the
//! benchmark measures: [`Spans::write`] emits Chrome trace JSON
//! (`chrome://tracing`, Perfetto) once, at the end.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ditto_core::jsonio::{self, Value};

use crate::util::obj;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub request: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// A process-wide span sink.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// A fresh span id, for a parent whose own span is recorded when it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        let span = Span { id, parent, name: name.to_string(), start, end, request };
        self.spans.lock().expect("spans").push(span);
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_as(self.reserve(), name, parent, start, Instant::now(), None);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("spans").clone()
    }

    /// Writes every span as Chrome trace JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let events: Vec<Value> = self
            .snapshot()
            .iter()
            .map(|s| {
                let mut args = vec![("id", Value::Int(s.id.into()))];
                if let Some(p) = s.parent {
                    args.push(("parent", Value::Int(p.into())));
                }
                if let Some(r) = s.request {
                    args.push(("request", Value::Int(r.into())));
                }
                obj(vec![
                    ("name", Value::Str(s.name.clone())),
                    ("ph", Value::Str("X".into())),
                    ("pid", Value::Int(std::process::id().into())),
                    // Spread concurrent request spans over 64 viewer rows.
                    ("tid", Value::Int(s.request.map_or(0, |r| r % 64).into())),
                    ("ts", Value::Num(us(s.start))),
                    ("dur", Value::Num(us(s.end) - us(s.start))),
                    ("args", obj(args)),
                ])
            })
            .collect();
        std::fs::write(path, jsonio::to_vec(&obj(vec![("traceEvents", Value::Arr(events))])))
    }
}
