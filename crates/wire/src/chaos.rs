//! Deterministic, seed-driven fault injection for the wire layer.
//!
//! The paper's portal only works if every capability survives its peers
//! misbehaving: the Fig. 4 shell talks to independently hosted services
//! over SOAP, and in the 2002 deployments (Gateway, GridPort) the
//! transport edge was where interoperability actually broke. This module
//! makes that failure surface testable:
//!
//! * [`ChaosTransport`] wraps any client [`Transport`] and injects
//!   connect-refused, stale-keep-alive close, mid-stream close, byte-level
//!   truncation, header/body corruption, and slow-loris pacing.
//! * [`ServerChaos`] is a per-request hook in the server pipeline that can
//!   drop, delay, or truncate responses after the handler has run — the
//!   "executed but unacknowledged" shape that non-idempotent operations
//!   must survive.
//!
//! Every decision is drawn from a [`ChaosRng`] seeded per schedule, and
//! each request consumes a fixed number of draws, so a failure sequence is
//! replayable from nothing but the printed seed. Injected faults are
//! counted per class in [`WireStats`] (see [`ChaosClass`]) so a soak run
//! can report what it actually exercised.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::http::{Request, Response};
use crate::stats::{ChaosClass, Counter, WireStats};
use crate::transport::Transport;
use crate::{Result, WireError};

/// A splitmix64 stream: the same generator the pool's backoff jitter uses,
/// but instanced per schedule instead of process-global so sequences are
/// replayable from a seed.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`; 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Derive a child seed for a labeled sub-stream (per host, per side), so
/// one printed schedule seed fans out into independent but replayable
/// streams.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = seed ^ 0x517C_C1B7_2722_0A95;
    for b in label.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    ChaosRng::new(h).next_u64()
}

/// Client-side fault intensities, each the per-request probability of one
/// fault class. At most one fault is injected per request (single uniform
/// draw against the cumulative mass), so the sum should stay below 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Dial refused before any bytes move.
    pub connect_refused: f64,
    /// Idle keep-alive connection found closed by the peer.
    pub stale_keep_alive: f64,
    /// Connection closed mid-exchange; the server may or may not have
    /// executed the request (decided by a separate draw).
    pub mid_stream_close: f64,
    /// Response cut at a byte offset strictly inside the frame.
    pub truncate_response: f64,
    /// Response header bytes corrupted (the Content-Length digits).
    pub corrupt_header: f64,
    /// Response XML body corrupted in place (length preserved).
    pub corrupt_body: f64,
    /// Exchange paced by a bounded delay before dispatch.
    pub slow_loris: f64,
    /// Upper bound on slow-loris pacing, milliseconds.
    pub max_delay_ms: u64,
}

impl ChaosConfig {
    /// No faults at all (the wrapper becomes a pass-through).
    pub fn quiet() -> ChaosConfig {
        ChaosConfig {
            connect_refused: 0.0,
            stale_keep_alive: 0.0,
            mid_stream_close: 0.0,
            truncate_response: 0.0,
            corrupt_header: 0.0,
            corrupt_body: 0.0,
            slow_loris: 0.0,
            max_delay_ms: 0,
        }
    }

    /// A fixed moderate mix: every class represented, ~23% total fault
    /// mass per request.
    pub fn moderate() -> ChaosConfig {
        ChaosConfig {
            connect_refused: 0.03,
            stale_keep_alive: 0.03,
            mid_stream_close: 0.03,
            truncate_response: 0.03,
            corrupt_header: 0.03,
            corrupt_body: 0.03,
            slow_loris: 0.05,
            max_delay_ms: 20,
        }
    }

    /// Derive a mix from a schedule seed: total fault mass in ~[10%, 45%],
    /// split across the classes by seeded weights. Same seed, same mix.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        let mut rng = ChaosRng::new(derive_seed(seed, "chaos-config"));
        let total = 0.10 + 0.35 * rng.unit();
        let mut weights = [0.0f64; 7];
        let mut sum = 0.0;
        for w in weights.iter_mut() {
            *w = 0.05 + rng.unit();
            sum += *w;
        }
        let mut share = weights.iter().map(|w| total * w / sum);
        // The iterator yields exactly 7 values; `unwrap_or` keeps this
        // total without a panic path.
        let mut next = || share.next().unwrap_or(0.0);
        ChaosConfig {
            connect_refused: next(),
            stale_keep_alive: next(),
            mid_stream_close: next(),
            truncate_response: next(),
            corrupt_header: next(),
            corrupt_body: next(),
            slow_loris: next(),
            max_delay_ms: 5 + rng.below(26),
        }
    }

    /// Sum of all per-class probabilities.
    pub fn total_mass(&self) -> f64 {
        self.connect_refused
            + self.stale_keep_alive
            + self.mid_stream_close
            + self.truncate_response
            + self.corrupt_header
            + self.corrupt_body
            + self.slow_loris
    }
}

/// The fault chosen for one request, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientFault {
    ConnectRefused,
    StaleKeepAlive,
    MidStreamClose,
    Truncate,
    CorruptHeader,
    CorruptBody,
    SlowLoris,
}

/// Per-request decisions, drawn up front so the RNG lock is never held
/// across I/O and every request consumes the same number of draws
/// (deterministic replay does not depend on outcomes).
struct Plan {
    fault: Option<ClientFault>,
    /// For mid-stream close: did the server execute before the cut?
    executed_before_cut: bool,
    cut_unit: f64,
    corrupt_unit: f64,
    delay_ms: u64,
}

/// A fault-injecting wrapper over any client transport. Composable over
/// [`crate::pool::PooledTransport`], [`crate::transport::HttpTransport`],
/// and [`crate::transport::InMemoryTransport`]; shares the inner
/// transport's [`WireStats`] so injected-fault counts land next to the
/// wire counters they perturb.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    config: ChaosConfig,
    seed: u64,
    rng: Mutex<ChaosRng>,
    stats: Arc<WireStats>,
}

impl ChaosTransport {
    /// Wrap `inner`, drawing the fault schedule from `seed`.
    pub fn new(inner: Arc<dyn Transport>, seed: u64, config: ChaosConfig) -> ChaosTransport {
        let stats = inner.stats();
        ChaosTransport {
            inner,
            config,
            seed,
            rng: Mutex::new(ChaosRng::new(seed)),
            stats,
        }
    }

    /// The schedule seed (print it: it replays the whole sequence).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault mix in force.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn plan(&self) -> Plan {
        let mut rng = self.rng.lock();
        let cfg = &self.config;
        let classes = [
            (cfg.connect_refused, ClientFault::ConnectRefused),
            (cfg.stale_keep_alive, ClientFault::StaleKeepAlive),
            (cfg.mid_stream_close, ClientFault::MidStreamClose),
            (cfg.truncate_response, ClientFault::Truncate),
            (cfg.corrupt_header, ClientFault::CorruptHeader),
            (cfg.corrupt_body, ClientFault::CorruptBody),
            (cfg.slow_loris, ClientFault::SlowLoris),
        ];
        let draw = rng.unit();
        let mut fault = None;
        let mut acc = 0.0;
        for (p, kind) in classes {
            acc += p;
            if draw < acc {
                fault = Some(kind);
                break;
            }
        }
        Plan {
            fault,
            executed_before_cut: rng.chance(0.5),
            cut_unit: rng.unit(),
            corrupt_unit: rng.unit(),
            delay_ms: rng.below(cfg.max_delay_ms.saturating_add(1)),
        }
    }

    fn io_fault(&self, kind: std::io::ErrorKind, what: &str) -> WireError {
        WireError::Io(std::io::Error::new(
            kind,
            format!("chaos(seed={:#018x}): {what}", self.seed),
        ))
    }
}

/// Cut `bytes` at a point strictly inside the frame (never 0, never the
/// full length), positioned by `unit` in `[0, 1)`. A frame shorter than
/// 2 bytes has no interior, so the cut collapses to 0 (write nothing) —
/// a fault schedule can land on an empty or 1-byte frame and must not
/// underflow or deliver the frame whole. Shared with `wire::dispatch`.
pub(crate) fn cut_inside(len: usize, unit: f64) -> usize {
    if len < 2 {
        return 0;
    }
    let span = len - 2;
    let cut = 1 + (span as f64 * unit.clamp(0.0, 1.0)) as usize;
    cut.min(len - 1)
}

/// Locate `needle` inside `haystack`.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Transport for ChaosTransport {
    fn round_trip(&self, req: Request) -> Result<Response> {
        let plan = self.plan();
        let Some(fault) = plan.fault else {
            return self.inner.round_trip(req);
        };
        match fault {
            ClientFault::ConnectRefused => {
                self.stats.record_chaos(ChaosClass::ConnectRefused);
                self.stats.add(Counter::Errors, 1);
                Err(self.io_fault(std::io::ErrorKind::ConnectionRefused, "connect refused"))
            }
            ClientFault::StaleKeepAlive => {
                self.stats.record_chaos(ChaosClass::StaleClose);
                self.stats.add(Counter::Errors, 1);
                Err(self.io_fault(
                    std::io::ErrorKind::ConnectionReset,
                    "peer closed idle keep-alive connection",
                ))
            }
            ClientFault::MidStreamClose => {
                self.stats.record_chaos(ChaosClass::MidStreamClose);
                if plan.executed_before_cut {
                    // The ambiguous half of the class: the server ran the
                    // handler, the client never saw the response.
                    let _ = self.inner.round_trip(req);
                }
                self.stats.add(Counter::Errors, 1);
                Err(self.io_fault(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-exchange",
                ))
            }
            ClientFault::Truncate => {
                let resp = self.inner.round_trip(req)?;
                self.stats.record_chaos(ChaosClass::Truncation);
                let bytes = resp.to_bytes();
                let cut = cut_inside(bytes.len(), plan.cut_unit);
                // Reparse the truncated prefix through the real frame
                // reader so the surfaced error is whatever the parser
                // genuinely produces for a short frame.
                match Response::read_from(bytes.get(..cut).unwrap_or(&[])) {
                    Ok(short) => Ok(short),
                    Err(e) => {
                        self.stats.add(Counter::Errors, 1);
                        Err(e)
                    }
                }
            }
            ClientFault::CorruptHeader => {
                let resp = self.inner.round_trip(req)?;
                self.stats.record_chaos(ChaosClass::Corruption);
                let mut bytes = resp.to_bytes();
                let marker = b"Content-Length: ";
                if let Some(pos) = find_subslice(&bytes, marker) {
                    if let Some(b) = bytes.get_mut(pos + marker.len()) {
                        *b = b'X';
                    }
                }
                match Response::read_from(bytes.as_slice()) {
                    Ok(parsed) => Ok(parsed),
                    Err(e) => {
                        self.stats.add(Counter::Errors, 1);
                        Err(e)
                    }
                }
            }
            ClientFault::CorruptBody => {
                let mut resp = self.inner.round_trip(req)?;
                self.stats.record_chaos(ChaosClass::Corruption);
                // Saturating index: a fault schedule can land on an empty
                // body (regression: `len - 1` underflowed here), in which
                // case `get_mut` misses and the response passes untouched.
                let len = resp.body.len();
                let i = ((plan.corrupt_unit * len as f64) as usize).min(len.saturating_sub(1));
                if let Some(b) = resp.body.get_mut(i) {
                    // 0x07 is not a legal XML character, so a SOAP
                    // envelope with it present cannot parse cleanly.
                    *b = 0x07;
                }
                Ok(resp)
            }
            ClientFault::SlowLoris => {
                self.stats.record_chaos(ChaosClass::Delay);
                std::thread::sleep(Duration::from_millis(plan.delay_ms));
                self.inner.round_trip(req)
            }
        }
    }

    fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }
}

/// Server-side fault decision for one request, taken after the handler has
/// run but before the response is written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerFault {
    /// Write the response normally.
    Deliver,
    /// Close the connection without writing anything (the handler's
    /// effects stand; the client sees a dead connection).
    Drop,
    /// Sleep before writing the response.
    Delay(Duration),
    /// Write only a prefix of the serialized response (the fraction in
    /// `[0, 1)` positions the cut strictly inside the frame), then close.
    Truncate(f64),
}

/// Per-request server-side chaos hook, consulted by the worker loop.
pub trait ServerChaos: Send + Sync {
    /// Decide the fate of the response to `req`.
    fn decide(&self, req: &Request) -> ServerFault;
}

/// Server-side fault intensities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerChaosConfig {
    /// Probability the response is dropped entirely.
    pub drop: f64,
    /// Probability the response is delayed.
    pub delay: f64,
    /// Probability the response is truncated mid-frame.
    pub truncate: f64,
    /// Upper bound on injected delay, milliseconds.
    pub max_delay_ms: u64,
}

impl ServerChaosConfig {
    /// No server-side faults.
    pub fn quiet() -> ServerChaosConfig {
        ServerChaosConfig {
            drop: 0.0,
            delay: 0.0,
            truncate: 0.0,
            max_delay_ms: 0,
        }
    }

    /// A fixed moderate mix.
    pub fn moderate() -> ServerChaosConfig {
        ServerChaosConfig {
            drop: 0.03,
            delay: 0.05,
            truncate: 0.03,
            max_delay_ms: 20,
        }
    }

    /// Derive a mix from a schedule seed. Same seed, same mix.
    pub fn from_seed(seed: u64) -> ServerChaosConfig {
        let mut rng = ChaosRng::new(derive_seed(seed, "server-chaos-config"));
        ServerChaosConfig {
            drop: 0.08 * rng.unit(),
            delay: 0.10 * rng.unit(),
            truncate: 0.08 * rng.unit(),
            max_delay_ms: 5 + rng.below(26),
        }
    }
}

/// Seed-driven [`ServerChaos`] implementation.
pub struct SeededServerChaos {
    config: ServerChaosConfig,
    seed: u64,
    rng: Mutex<ChaosRng>,
}

impl SeededServerChaos {
    /// Hook drawing its schedule from `seed`.
    pub fn new(seed: u64, config: ServerChaosConfig) -> SeededServerChaos {
        SeededServerChaos {
            config,
            seed,
            rng: Mutex::new(ChaosRng::new(seed)),
        }
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl ServerChaos for SeededServerChaos {
    fn decide(&self, _req: &Request) -> ServerFault {
        let mut rng = self.rng.lock();
        let draw = rng.unit();
        // Fixed draw count per request, as on the client side.
        let delay_ms = rng.below(self.config.max_delay_ms.saturating_add(1));
        let cut_unit = rng.unit();
        let mut acc = self.config.drop;
        if draw < acc {
            return ServerFault::Drop;
        }
        acc += self.config.delay;
        if draw < acc {
            return ServerFault::Delay(Duration::from_millis(delay_ms));
        }
        acc += self.config.truncate;
        if draw < acc {
            return ServerFault::Truncate(cut_unit);
        }
        ServerFault::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::server::Handler;
    use crate::transport::InMemoryTransport;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn echo() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::xml(req.body.clone()))
    }

    fn only(field: &str, p: f64) -> ChaosConfig {
        let mut cfg = ChaosConfig::quiet();
        match field {
            "connect_refused" => cfg.connect_refused = p,
            "stale_keep_alive" => cfg.stale_keep_alive = p,
            "mid_stream_close" => cfg.mid_stream_close = p,
            "truncate_response" => cfg.truncate_response = p,
            "corrupt_header" => cfg.corrupt_header = p,
            "corrupt_body" => cfg.corrupt_body = p,
            "slow_loris" => cfg.slow_loris = p,
            other => panic!("unknown field {other}"),
        }
        cfg
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        let mut c = ChaosRng::new(43);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        for _ in 0..1000 {
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(a.below(7) < 7);
        }
        assert_eq!(a.below(0), 0);
    }

    #[test]
    fn derived_seeds_differ_by_label_and_parent() {
        assert_eq!(derive_seed(1, "auth"), derive_seed(1, "auth"));
        assert_ne!(derive_seed(1, "auth"), derive_seed(1, "grid"));
        assert_ne!(derive_seed(1, "auth"), derive_seed(2, "auth"));
    }

    #[test]
    fn quiet_config_is_a_pass_through() {
        let inner = Arc::new(InMemoryTransport::new(echo()));
        let chaos = ChaosTransport::new(inner, 7, ChaosConfig::quiet());
        for _ in 0..32 {
            let resp = chaos.round_trip(Request::post("/x", "<a/>")).unwrap();
            assert_eq!(resp.body_str(), "<a/>");
        }
        assert_eq!(chaos.stats().snapshot().chaos_total(), 0);
    }

    #[test]
    fn connect_refused_never_reaches_the_inner_transport() {
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            hits2.fetch_add(1, Ordering::Relaxed);
            Response::xml(req.body.clone())
        });
        let inner = Arc::new(InMemoryTransport::new(handler));
        let chaos = ChaosTransport::new(inner, 11, only("connect_refused", 1.0));
        for _ in 0..8 {
            match chaos.round_trip(Request::post("/x", "<a/>")) {
                Err(WireError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused)
                }
                other => panic!("expected refused, got {other:?}"),
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        let snap = chaos.stats().snapshot();
        assert_eq!(snap.chaos_connect_refused, 8);
        assert_eq!(snap.errors, 8);
    }

    #[test]
    fn stale_keep_alive_surfaces_connection_reset() {
        let inner = Arc::new(InMemoryTransport::new(echo()));
        let chaos = ChaosTransport::new(inner, 12, only("stale_keep_alive", 1.0));
        match chaos.round_trip(Request::post("/x", "<a/>")) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
            other => panic!("expected reset, got {other:?}"),
        }
        assert_eq!(chaos.stats().snapshot().chaos_stale_closes, 1);
    }

    #[test]
    fn truncation_always_fails_to_parse() {
        let inner = Arc::new(InMemoryTransport::new(echo()));
        let chaos = ChaosTransport::new(inner, 13, only("truncate_response", 1.0));
        for _ in 0..32 {
            assert!(chaos
                .round_trip(Request::post("/x", "<payload>data</payload>"))
                .is_err());
        }
        assert_eq!(chaos.stats().snapshot().chaos_truncations, 32);
    }

    #[test]
    fn header_corruption_is_a_bad_frame() {
        let inner = Arc::new(InMemoryTransport::new(echo()));
        let chaos = ChaosTransport::new(inner, 14, only("corrupt_header", 1.0));
        match chaos.round_trip(Request::post("/x", "<a/>")) {
            Err(WireError::BadFrame(msg)) => assert!(msg.contains("Content-Length"), "{msg}"),
            other => panic!("expected BadFrame, got {other:?}"),
        }
        assert_eq!(chaos.stats().snapshot().chaos_corruptions, 1);
    }

    #[test]
    fn body_corruption_delivers_a_damaged_but_framed_response() {
        let inner = Arc::new(InMemoryTransport::new(echo()));
        let chaos = ChaosTransport::new(inner, 15, only("corrupt_body", 1.0));
        let body = "<envelope>important</envelope>";
        let resp = chaos.round_trip(Request::post("/x", body)).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body.len(), body.len(), "length preserved");
        assert_ne!(resp.body, body.as_bytes(), "content damaged");
        assert!(resp.body.contains(&0x07));
        assert_eq!(chaos.stats().snapshot().chaos_corruptions, 1);
    }

    #[test]
    fn slow_loris_delays_but_delivers() {
        let inner = Arc::new(InMemoryTransport::new(echo()));
        let mut cfg = only("slow_loris", 1.0);
        cfg.max_delay_ms = 5;
        let chaos = ChaosTransport::new(inner, 16, cfg);
        let resp = chaos.round_trip(Request::post("/x", "<a/>")).unwrap();
        assert_eq!(resp.body_str(), "<a/>");
        assert_eq!(chaos.stats().snapshot().chaos_delays, 1);
    }

    #[test]
    fn same_seed_replays_the_same_outcome_sequence() {
        let outcomes = |seed: u64| -> Vec<String> {
            let inner = Arc::new(InMemoryTransport::new(echo()));
            let chaos = ChaosTransport::new(inner, seed, ChaosConfig::moderate());
            (0..64)
                .map(
                    |_| match chaos.round_trip(Request::post("/x", "<job>run</job>")) {
                        Ok(resp) => format!("ok:{}", resp.body_str()),
                        Err(e) => format!("err:{e}"),
                    },
                )
                .collect()
        };
        let a = outcomes(0xDEAD_BEEF);
        let b = outcomes(0xDEAD_BEEF);
        let c = outcomes(0xBAD_CAFE);
        assert_eq!(a, b, "same seed must replay byte-for-byte");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(
            a.iter().any(|o| o.starts_with("err:")),
            "moderate mix should inject at least one fault in 64 calls"
        );
    }

    #[test]
    fn seeded_config_derivation_is_stable_and_bounded() {
        let a = ChaosConfig::from_seed(99);
        let b = ChaosConfig::from_seed(99);
        assert_eq!(a, b);
        assert!(a.total_mass() >= 0.10 && a.total_mass() <= 0.45, "{a:?}");
        let s = ServerChaosConfig::from_seed(99);
        assert_eq!(s, ServerChaosConfig::from_seed(99));
        assert!(s.drop + s.delay + s.truncate <= 0.26, "{s:?}");
    }

    #[test]
    fn cut_inside_never_yields_a_full_or_empty_frame() {
        for len in [2usize, 3, 10, 1000] {
            for unit in [0.0, 0.25, 0.5, 0.999] {
                let cut = cut_inside(len, unit);
                assert!(cut >= 1 && cut < len, "len={len} unit={unit} cut={cut}");
            }
        }
        // Regression: frames with no interior (0 or 1 byte) collapse to a
        // zero-byte cut instead of underflowing or delivering the frame.
        for unit in [0.0, 0.5, 0.999] {
            assert_eq!(cut_inside(0, unit), 0);
            assert_eq!(cut_inside(1, unit), 0);
        }
    }

    #[test]
    fn empty_body_responses_survive_every_chaos_class() {
        // Regression for the zero-length-body underflow: drive an
        // empty-body response through every client fault class at 100%
        // intensity. No class may panic; the chaos counters must record
        // each injection.
        let empty: Arc<dyn Handler> = Arc::new(|_: &Request| Response::xml(""));
        for field in [
            "connect_refused",
            "stale_keep_alive",
            "mid_stream_close",
            "truncate_response",
            "corrupt_header",
            "corrupt_body",
            "slow_loris",
        ] {
            let inner = Arc::new(InMemoryTransport::new(Arc::clone(&empty)));
            let chaos = ChaosTransport::new(inner, 0xE0, only(field, 1.0));
            for _ in 0..8 {
                let _ = chaos.round_trip(Request::post("/x", ""));
            }
            assert_eq!(
                chaos.stats().snapshot().chaos_total(),
                8,
                "class {field} must fire on every empty-body exchange"
            );
        }
    }

    #[test]
    fn body_corruption_of_an_empty_body_delivers_untouched() {
        // The corruption index saturates at the last byte; with no bytes
        // at all there is nothing to damage and the frame passes intact.
        let empty: Arc<dyn Handler> = Arc::new(|_: &Request| Response::xml(""));
        let inner = Arc::new(InMemoryTransport::new(empty));
        let chaos = ChaosTransport::new(inner, 17, only("corrupt_body", 1.0));
        let resp = chaos.round_trip(Request::post("/x", "")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.is_empty(), "nothing to corrupt in an empty body");
        assert_eq!(chaos.stats().snapshot().chaos_corruptions, 1);
    }
}
