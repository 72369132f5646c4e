//! The request pipeline both server arms share.
//!
//! A server arm is only an I/O driver: the blocking arm
//! ([`crate::server`]) reads one connection at a time on a worker thread,
//! the reactor arm ([`crate::reactor`]) multiplexes nonblocking
//! connections through epoll. Everything between "these bytes arrived"
//! and "these bytes go back on the wire" happens here, once, for both:
//!
//! * [`Inbox`] — the connection's [`RequestParser`] plus the deadline
//!   anchor of its buffered bytes;
//! * [`Pipeline::dispatch`] — deadline admission, the handler call,
//!   serialising into the driver's buffer with scratch accounting,
//!   exchange accounting, and the post-handler [`ServerChaos`] decision
//!   applied to that frame;
//! * [`Pipeline::bad_request`] — the 400 SOAP fault for bytes that can
//!   never parse.
//!
//! Chaos `Drop` and `Truncate` cut the frame in the buffer and end the
//! connection; only `Delay` goes back to the driver, which sleeps (blocking
//! arm) or parks the connection with the frame held (reactor). Nothing in
//! this module blocks, so the reactor may call all of it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chaos::{cut_inside, ServerChaos, ServerFault};
use crate::http::{wants_keep_alive, Request, RequestParser, Response};
use crate::pool::DEADLINE_HEADER;
use crate::server::Handler;
use crate::stats::{ChaosClass, Counter, WireStats};
use crate::Result;

/// A connection's read side: the request parser plus the instant each
/// request's deadline clock starts from.
///
/// **Anchor rule.** A request is charged from the moment the server took
/// its first byte: the read that delivered it, or — for a connection's
/// first bytes — whatever instant the driver passes for them (the blocking
/// arm passes the accept instant, so its accept-queue wait counts). Queue
/// delay counts in full, including time a pipelined request sat buffered
/// behind an earlier one; keep-alive idle time does not, because no byte
/// of the next request existed yet. Bytes that straddle several reads
/// before the request ahead of them completes are charged from the
/// earliest of those reads.
#[derive(Debug)]
pub(crate) struct Inbox {
    parser: RequestParser,
    /// Arrival of the bytes at the front of the buffer.
    front: Instant,
    /// Arrival of the latest feed, and the buffer offset it starts at.
    last: Instant,
    last_start: usize,
}

impl Inbox {
    pub(crate) fn new() -> Inbox {
        let now = Instant::now();
        Inbox {
            parser: RequestParser::new(),
            front: now,
            last: now,
            last_start: 0,
        }
    }

    /// Forget every buffered byte (capacity kept).
    pub(crate) fn clear(&mut self) {
        self.parser.clear();
    }

    /// True when no partial request is buffered: a peer close now is a
    /// clean EOF.
    pub(crate) fn is_empty(&self) -> bool {
        self.parser.is_empty()
    }

    /// Buffer bytes the driver took off the socket at `at`.
    pub(crate) fn feed(&mut self, bytes: &[u8], at: Instant) {
        let start = self.parser.buffered();
        if start == 0 {
            self.front = at;
        }
        self.last = at;
        self.last_start = start;
        self.parser.feed(bytes);
    }

    /// The next complete request and the instant its deadline clock
    /// starts from; `Ok(None)` until more bytes arrive.
    pub(crate) fn next_request(&mut self) -> Result<Option<(Request, Instant)>> {
        let before = self.parser.buffered();
        let Some(req) = self.parser.try_next()? else {
            return Ok(None);
        };
        let arrival = self.front;
        let consumed = before - self.parser.buffered();
        if consumed >= self.last_start {
            // What is left arrived with the latest feed.
            self.front = self.last;
            self.last_start = 0;
        } else {
            self.last_start -= consumed;
        }
        Ok(Some((req, arrival)))
    }
}

/// What a server runs per request: the handler, the counters and the
/// optional chaos hook. Cloned into every worker of both arms.
#[derive(Clone)]
pub(crate) struct Pipeline {
    pub(crate) handler: Arc<dyn Handler>,
    pub(crate) stats: Arc<WireStats>,
    pub(crate) chaos: Option<Arc<dyn ServerChaos>>,
}

/// What the driver does with the frame [`Pipeline::dispatch`] appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// The handler ran; false when the request was shed.
    pub(crate) ran: bool,
    /// Keep the connection once the frame is written. False when the
    /// request asked to close, and after a chaos drop or truncation.
    pub(crate) keep_alive: bool,
    /// Hold the frame this long before writing it (chaos `Delay`).
    pub(crate) delay: Option<Duration>,
}

impl Pipeline {
    /// Run one parsed request and append its response frame to `out`.
    ///
    /// `shed` is a refusal the driver decided before dispatch (the
    /// reactor's per-cycle dispatch budget); otherwise the deadline
    /// budget is checked against `arrival`. A shed is not a dispatch: the
    /// handler does not run, the exchange counters skip it (its `shed_*`
    /// counter accounts for it), and chaos never touches it — a shed
    /// reply promises the work did not run, so it must arrive whole.
    pub(crate) fn dispatch(
        &self,
        mut req: Request,
        arrival: Instant,
        shed: Option<Response>,
        out: &mut Vec<u8>,
    ) -> Outcome {
        // Received bytes as framed, before admission rewrites the budget.
        let received = req.wire_len();
        let shed = shed.or_else(|| admit_deadline(&mut req, arrival, &self.stats));
        let mut outcome = Outcome {
            ran: shed.is_none(),
            keep_alive: wants_keep_alive(req.header("Connection")),
            delay: None,
        };
        let resp = match shed {
            Some(fault) => fault,
            None => self.handler.handle(&req),
        };
        let frame_start = out.len();
        self.serialize(&resp, out);
        if !outcome.ran {
            return outcome;
        }
        self.stats
            .record_exchange(out.len() - frame_start, received);
        // After the handler: drop and truncate model "the operation
        // executed but the reply never (fully) arrived".
        let fault = self
            .chaos
            .as_deref()
            .map_or(ServerFault::Deliver, |c| c.decide(&req));
        match fault {
            ServerFault::Deliver => {}
            ServerFault::Drop => {
                self.stats.record_chaos(ChaosClass::Drop);
                out.truncate(frame_start);
                outcome.keep_alive = false;
            }
            ServerFault::Delay(d) => {
                self.stats.record_chaos(ChaosClass::Delay);
                outcome.delay = Some(d);
            }
            ServerFault::Truncate(unit) => {
                self.stats.record_chaos(ChaosClass::Truncation);
                let cut = cut_inside(out.len() - frame_start, unit);
                out.truncate(frame_start + cut);
                outcome.keep_alive = false;
            }
        }
        outcome
    }

    /// Append the 400 SOAP fault for bytes that can never parse as a
    /// request; the driver closes once it is written.
    pub(crate) fn bad_request(&self, detail: &str, out: &mut Vec<u8>) {
        self.stats.add(Counter::BadRequests, 1);
        self.serialize(&Response::bad_request_fault(detail), out);
    }

    fn serialize(&self, resp: &Response, out: &mut Vec<u8>) {
        let cap_before = out.capacity();
        resp.write_into(out);
        if out.capacity() > cap_before {
            self.stats.add(Counter::ScratchGrowths, 1);
        }
        self.stats
            .max(Counter::ScratchHighWater, out.capacity() as u64);
    }
}

/// Server-side deadline admission. Reads the client-stamped
/// `X-Deadline-Ms` budget (a duration in milliseconds, stamped at send
/// time by `pool::PooledTransport`); when the budget is already spent by
/// `arrival`-relative elapsed time the request is shed *before* the
/// handler runs, with a deadline-exceeded SOAP fault. Otherwise the
/// header is rewritten to the remaining budget so handlers and their
/// downstream calls inherit an honest end-to-end deadline. Requests
/// without the header (or with a malformed value) are admitted untouched
/// — the contract is opt-in and never invents a deadline.
fn admit_deadline(req: &mut Request, arrival: Instant, stats: &WireStats) -> Option<Response> {
    let val = req.header(DEADLINE_HEADER)?;
    let Ok(budget_ms) = val.trim().parse::<u64>() else {
        return None;
    };
    let elapsed_ms = arrival.elapsed().as_millis() as u64;
    if elapsed_ms >= budget_ms {
        stats.add(Counter::ShedDeadline, 1);
        return Some(Response::deadline_fault(&format!(
            "budget of {budget_ms} ms spent before dispatch"
        )));
    }
    let remaining = budget_ms - elapsed_ms;
    for (k, v) in req.headers.iter_mut() {
        if k.eq_ignore_ascii_case(DEADLINE_HEADER) {
            *v = remaining.to_string();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_pipeline(chaos: Option<Arc<dyn ServerChaos>>) -> Pipeline {
        Pipeline {
            handler: Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
            stats: Arc::new(WireStats::new()),
            chaos,
        }
    }

    struct Always(ServerFault);
    impl ServerChaos for Always {
        fn decide(&self, _req: &Request) -> ServerFault {
            self.0
        }
    }

    #[test]
    fn server_truncate_of_a_tiny_frame_writes_nothing() {
        // Regression: a server-side truncation landing on a frame with no
        // interior (empty or 1 byte) must write nothing rather than
        // underflow or deliver the frame whole.
        for frame_len in [0usize, 1] {
            assert_eq!(cut_inside(frame_len, 0.5), 0);
        }
        // A real frame is never that short, so drive the cut through the
        // pipeline with the unit at both ends of its range.
        for unit in [0.0, 0.999] {
            let p = echo_pipeline(Some(Arc::new(Always(ServerFault::Truncate(unit)))));
            let mut out = b"earlier".to_vec();
            let o = p.dispatch(Request::post("/x", "x"), Instant::now(), None, &mut out);
            assert!(!o.keep_alive);
            let cut = out.len() - b"earlier".len();
            let whole = Response::ok("text/plain", "x").wire_len();
            assert!(cut >= 1 && cut < whole, "cut {cut} of {whole}");
            assert!(out.starts_with(b"earlier"), "earlier frames untouched");
        }
    }

    #[test]
    fn server_fault_application_counts_and_gates_writes() {
        let frame = Response::ok("text/plain", "<ok/>").to_bytes();
        let run = |fault: ServerFault| {
            let p = echo_pipeline(Some(Arc::new(Always(fault))));
            let mut out = Vec::new();
            let req = Request::post("/x", "<ok/>").with_header("Connection", "keep-alive");
            let o = p.dispatch(req, Instant::now(), None, &mut out);
            (o, out, p.stats.snapshot())
        };
        let (o, out, snap) = run(ServerFault::Deliver);
        assert_eq!((o.keep_alive, o.delay), (true, None));
        assert_eq!(out, frame);
        assert_eq!(snap.chaos_total(), 0);

        let (o, out, snap) = run(ServerFault::Drop);
        assert!(o.ran && !o.keep_alive);
        assert!(out.is_empty(), "drop writes nothing");
        assert_eq!(snap.chaos_drops, 1);
        assert_eq!(snap.requests, 1, "the handler ran");

        let (o, out, snap) = run(ServerFault::Truncate(0.5));
        assert!(!o.keep_alive);
        assert!(!out.is_empty() && out.len() < frame.len(), "partial frame");
        assert!(Response::read_from(out.as_slice()).is_err());
        assert_eq!(snap.chaos_truncations, 1);

        // Delay goes back to the driver with the frame whole.
        let d = Duration::from_millis(7);
        let (o, out, snap) = run(ServerFault::Delay(d));
        assert_eq!((o.keep_alive, o.delay), (true, Some(d)));
        assert_eq!(out, frame);
        assert_eq!(snap.chaos_delays, 1);
    }

    #[test]
    fn a_shed_skips_handler_exchange_and_chaos() {
        let p = echo_pipeline(Some(Arc::new(Always(ServerFault::Drop))));
        let mut out = Vec::new();
        let busy = Response::shed_fault("test", 10);
        let o = p.dispatch(
            Request::post("/x", "a"),
            Instant::now(),
            Some(busy.clone()),
            &mut out,
        );
        assert!(!o.ran);
        assert_eq!(out, busy.to_bytes(), "shed frame whole despite the hook");
        let late = Request::post("/x", "b").with_header(DEADLINE_HEADER, "0");
        let o = p.dispatch(late, Instant::now(), None, &mut out);
        assert!(!o.ran);
        let snap = p.stats.snapshot();
        assert_eq!((snap.requests, snap.shed_deadline), (0, 1));
        assert_eq!(snap.chaos_total(), 0);
    }

    #[test]
    fn pipelined_bytes_keep_the_anchor_of_their_read() {
        let mut inbox = Inbox::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        let t2 = t0 + Duration::from_millis(9);
        let mut burst = Request::post("/a", "1").to_bytes();
        burst.extend_from_slice(&Request::post("/b", "2").to_bytes());
        let third = Request::post("/c", "3").to_bytes();
        // Two requests in one read, a third half-delivered by it.
        let split = third.len() / 2;
        burst.extend_from_slice(&third[..split]);
        inbox.feed(&burst, t0);
        let (a, at_a) = inbox.next_request().unwrap().unwrap();
        let (b, at_b) = inbox.next_request().unwrap().unwrap();
        assert_eq!((a.path.as_str(), at_a), ("/a", t0));
        assert_eq!((b.path.as_str(), at_b), ("/b", t0), "queued behind /a");
        assert!(inbox.next_request().unwrap().is_none());
        inbox.feed(&third[split..], t1);
        let (c, at_c) = inbox.next_request().unwrap().unwrap();
        assert_eq!((c.path.as_str(), at_c), ("/c", t0), "first byte came at t0");
        assert!(inbox.is_empty());
        // After idle, the next request is charged from its own read.
        inbox.feed(&Request::post("/d", "4").to_bytes(), t2);
        assert_eq!(inbox.next_request().unwrap().unwrap().1, t2);
    }
}
