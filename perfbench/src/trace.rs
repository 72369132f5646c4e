//! Bench-side tracing: spans around the calls the generator makes into
//! the program, and a transport wrapper timing the bench's own round
//! trips. Nothing here reaches inside the program; with tracing off
//! every hook is a branch on a flag.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use portalws_wire::{Request, Response, Transport, WireStats};

/// Count and total duration of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub ns: u64,
}

/// Per-generator-thread span recorder. Spans are the children of the op
/// running on the same thread; they never overlap one another.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    pub enabled: bool,
    pub spans: BTreeMap<&'static str, SpanTotal>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: BTreeMap::new(),
        }
    }

    /// Run `f`, recording its duration under `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let total = self.spans.entry(name).or_default();
        total.count += 1;
        total.ns += ns;
        out
    }

    pub fn merge(&mut self, other: &Tracer) {
        for (name, t) in &other.spans {
            let total = self.spans.entry(name).or_default();
            total.count += t.count;
            total.ns += t.ns;
        }
    }

    /// Summed duration of every span recorded.
    pub fn total_ns(&self) -> u64 {
        self.spans.values().map(|t| t.ns).sum()
    }

    /// Mean span duration of `name` in microseconds, if it was recorded.
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        self.spans
            .get(name)
            .filter(|t| t.count > 0)
            .map(|t| t.ns as f64 / 1e3 / t.count as f64)
    }
}

/// A [`Transport`] wrapper on the bench's own clients that times every
/// round trip while `enabled` is set.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    pub enabled: AtomicBool,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl TimedTransport {
    pub fn new(inner: Arc<dyn Transport>) -> Arc<TimedTransport> {
        Arc::new(TimedTransport {
            inner,
            enabled: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        })
    }

    /// (round trips timed, total nanoseconds).
    pub fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

impl Transport for TimedTransport {
    fn round_trip(&self, req: Request) -> portalws_wire::Result<Response> {
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.round_trip(req);
        }
        let t = Instant::now();
        let out = self.inner.round_trip(req);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn stats(&self) -> Arc<WireStats> {
        self.inner.stats()
    }
}
