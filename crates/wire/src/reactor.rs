//! In-tree epoll mini-reactor: the readiness-driven HTTP server arm.
//!
//! The blocking server pins one worker thread per live connection — an
//! idle keep-alive connection occupies a worker for its whole lifetime
//! (a blocking read that wakes every 100 ms only to poll for shutdown),
//! so closed-loop throughput goes flat as soon as connections outnumber
//! workers. This module removes the pin: each worker thread owns an epoll
//! instance and drives *every* connection assigned to it through a
//! nonblocking state machine, so one worker sustains thousands of parked
//! keep-alive connections.
//!
//! Connection lifecycle (`Accepted → ReadingHead → ReadingBody → Handling
//! → Writing → Idle`): the reading states live inside the connection's
//! request parser, handling is the shared `wire::dispatch` pipeline, and
//! writing drains the connection's serialize scratch through nonblocking
//! writes (registering `EPOLLOUT` only while bytes are pending). The
//! buffer-ownership rule from E11 — *scratch moves with the connection,
//! not the thread* — is preserved exactly: each [`Conn`] owns its read
//! scratch (the parser buffer) and its response serialize scratch, both
//! of which keep their capacity across keep-alive requests, with growths
//! and the capacity high-water mark recorded in [`WireStats`].
//!
//! There is no external runtime (the build is offline): epoll is reached
//! through three `extern "C"` declarations against the libc every Rust
//! binary already links (the `shims/` discipline of PR 1, applied to a
//! syscall surface instead of a crate). Everything else — nonblocking
//! sockets, accept, read, write — is std.
//!
//! Behaviour specific to the reactor, pinned by tests:
//!
//! * **Shutdown** joins promptly even with idle connections parked: the
//!   `ServerHandle::stop` poke wakes the listener in every worker's
//!   epoll, and the wait also times out at [`IDLE_POLL_MS`] as backstop.
//! * **Pipelining**: bytes beyond the current request stay in the parser
//!   and are served before the reactor returns to `epoll_wait`.
//! * **Chaos `Delay`**: the blocking arm *sleeps*; a reactor worker must
//!   never sleep, so a delayed connection is parked with its response
//!   held in the serialize scratch until the deadline, while other
//!   connections keep being served.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::dispatch::{Inbox, Pipeline};
use crate::http::Response;
use crate::server::ServerConfig;
use crate::stats::Counter;
use crate::Result;

/// Raw epoll bindings. The symbols live in the libc the binary is linked
/// against anyway; declaring them here keeps the build offline with no
/// new crate (see module docs).
mod sys {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`; packed on x86_64 per the kernel ABI.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

/// Backstop poll interval: the longest a worker waits in `epoll_wait`
/// before re-checking the shutdown flag (the blocking arm polls its
/// shutdown flag at 100 ms; the reactor is strictly more responsive).
const IDLE_POLL_MS: i32 = 25;

/// Events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 256;

/// Read staging chunk: bytes move socket → chunk → connection parser.
/// The chunk is per-worker (pure staging, no state survives in it); the
/// parser buffer is the per-connection read scratch.
const READ_CHUNK: usize = 64 * 1024;

/// RAII epoll instance.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // the only failure signal and is checked before the fd is owned.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created, unowned epoll descriptor.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait for events; returns how many of `events` were filled.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        let max = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: `events` is a valid, writable slice of `max` entries for
        // the duration of the call.
        let rc =
            unsafe { sys::epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

/// One connection's state machine. Both buffers — the parser's read
/// scratch and the serialize scratch — are owned here, so they move with
/// the connection and are reused across every keep-alive request it
/// carries, regardless of which readiness event wakes it.
struct Conn {
    stream: TcpStream,
    /// Request parser (the read scratch) and deadline anchors.
    inbox: Inbox,
    /// Response serialize scratch; cleared (capacity kept) once drained.
    out: Vec<u8>,
    /// How much of `out` has been written so far.
    out_pos: usize,
    /// Chaos-delayed: the serialized response is held in `out` until
    /// this instant, and no reads are processed while parked.
    delayed_until: Option<Instant>,
    /// Close once `out` drains (non-keep-alive, chaos drop/truncate, or a
    /// 400 answer).
    close_after_flush: bool,
    /// Whether the current epoll registration includes `EPOLLOUT`.
    armed_for_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbox: Inbox::new(),
            out: Vec::new(),
            out_pos: 0,
            delayed_until: None,
            close_after_flush: false,
            armed_for_write: false,
        }
    }

    fn has_pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// Why `drive` finished with this connection for now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Keep the connection registered.
    Keep,
    /// Deregister and drop it.
    Close,
}

/// Spawn the reactor arm's `config.workers` threads on a bound
/// listener, each owning an epoll instance. The shared listener is
/// registered in every worker's epoll (level-triggered), so any worker
/// can accept; an accepted connection stays with its worker for life.
pub(crate) fn spawn(
    listener: TcpListener,
    pipeline: Pipeline,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
) -> Result<Vec<JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    Ok((0..config.workers.max(1))
        .map(|_| {
            let listener = listener.try_clone();
            let pipeline = pipeline.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let Ok(listener) = listener else { return };
                let mut worker = Worker {
                    listener,
                    pipeline,
                    shutdown,
                    config,
                    conns: Vec::new(),
                    free: Vec::new(),
                    delayed: 0,
                    open: 0,
                    listener_paused: false,
                    dispatched: 0,
                };
                worker.run();
            })
        })
        .collect())
}

/// One reactor thread: epoll instance + connection slab.
struct Worker {
    listener: TcpListener,
    pipeline: Pipeline,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Number of connections currently chaos-delayed (skip the
    /// slab scan entirely while zero — the overwhelmingly common case).
    delayed: usize,
    /// Live connections this worker owns (`conns` occupancy).
    open: usize,
    /// Whether the listener has been deregistered because `open` hit
    /// `config.max_connections`; re-registered on the next close.
    listener_paused: bool,
    /// Requests dispatched to the handler in the current epoll cycle;
    /// reset each `epoll_wait` return. With `config.queue_cap: Some(n)`
    /// requests beyond `n` in one cycle are shed instead of dispatched.
    dispatched: usize,
}

/// Token 0 is the listener; connection tokens are `slot + 1`.
const LISTENER_TOKEN: u64 = 0;

impl Worker {
    // portalint: reactor-entry
    fn run(&mut self) {
        let Ok(epoll) = Epoll::new() else { return };
        if epoll
            .ctl(
                sys::EPOLL_CTL_ADD,
                self.listener.as_raw_fd(),
                sys::EPOLLIN,
                LISTENER_TOKEN,
            )
            .is_err()
        {
            return;
        }
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        let mut read_chunk = vec![0u8; READ_CHUNK];
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let timeout = self.next_timeout();
            let n = match epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => return,
            };
            self.dispatched = 0;
            for ev in events.iter().take(n) {
                // Copy the packed fields out before use.
                let token = ev.data;
                let flags = ev.events;
                if token == LISTENER_TOKEN {
                    self.accept_ready(&epoll);
                    continue;
                }
                let slot = (token - 1) as usize;
                let readable = flags & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0;
                let writable = flags & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0;
                self.drive(&epoll, slot, readable, writable, &mut read_chunk);
            }
            if self.delayed > 0 {
                self.expire_delays(&epoll, &mut read_chunk);
            }
        }
    }

    /// Milliseconds until the nearest chaos-delay deadline, capped at the
    /// idle backstop.
    fn next_timeout(&self) -> i32 {
        if self.delayed == 0 {
            return IDLE_POLL_MS;
        }
        let now = Instant::now();
        let mut timeout = IDLE_POLL_MS;
        for conn in self.conns.iter().flatten() {
            if let Some(until) = conn.delayed_until {
                let ms = until.saturating_duration_since(now).as_millis() as i32;
                timeout = timeout.min(ms.max(1));
            }
        }
        timeout
    }

    fn accept_ready(&mut self, epoll: &Epoll) {
        loop {
            // Connection cap: at the bound, stop accepting — deregister
            // the listener so a flood parks in the kernel backlog instead
            // of growing the slab without bound. `close` re-registers.
            if self.open >= self.config.max_connections {
                if !self.listener_paused
                    && epoll
                        .ctl(sys::EPOLL_CTL_DEL, self.listener.as_raw_fd(), 0, 0)
                        .is_ok()
                {
                    self.listener_paused = true;
                    self.pipeline.stats.add(Counter::ListenerPauses, 1);
                }
                return;
            }
            // portalint: allow(reactor-blocking) — listener is registered nonblocking; accept returns WouldBlock instead of parking
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.pipeline.stats.add(Counter::Connections, 1);
                    let conn = Conn::new(stream);
                    let slot = match self.free.pop() {
                        Some(slot) => slot,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    let token = slot as u64 + 1;
                    let fd = conn.stream.as_raw_fd();
                    if epoll
                        .ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue; // dropping `conn` closes the socket
                    }
                    if let Some(entry) = self.conns.get_mut(slot) {
                        *entry = Some(conn);
                        self.open += 1;
                        self.pipeline.stats.record_conn_open();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Advance one connection's state machine as far as readiness allows.
    fn drive(
        &mut self,
        epoll: &Epoll,
        slot: usize,
        readable: bool,
        writable: bool,
        read_chunk: &mut [u8],
    ) {
        let Some(Some(mut conn)) = self.conns.get_mut(slot).map(Option::take) else {
            return; // stale event for a slot already closed this batch
        };
        let verdict = self.step(&mut conn, readable, writable, read_chunk);
        match verdict {
            Verdict::Keep => {
                let _ = self.rearm(epoll, slot, &mut conn);
                if let Some(entry) = self.conns.get_mut(slot) {
                    *entry = Some(conn);
                }
            }
            Verdict::Close => self.close(epoll, slot, conn),
        }
    }

    fn close(&mut self, epoll: &Epoll, slot: usize, conn: Conn) {
        if conn.delayed_until.is_some() {
            self.delayed = self.delayed.saturating_sub(1);
        }
        let _ = epoll.ctl(sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
        self.pipeline.stats.record_conn_close();
        self.free.push(slot);
        self.open = self.open.saturating_sub(1);
        // A close frees a slot below the cap: resume accepting.
        if self.listener_paused
            && self.open < self.config.max_connections
            && epoll
                .ctl(
                    sys::EPOLL_CTL_ADD,
                    self.listener.as_raw_fd(),
                    sys::EPOLLIN,
                    LISTENER_TOKEN,
                )
                .is_ok()
        {
            self.listener_paused = false;
        }
        // `conn` drops here, closing the socket.
    }

    /// Keep the epoll registration in sync with write interest.
    fn rearm(&self, epoll: &Epoll, slot: usize, conn: &mut Conn) -> std::io::Result<()> {
        let want_write = conn.has_pending_write() && conn.delayed_until.is_none();
        if want_write == conn.armed_for_write {
            return Ok(());
        }
        let events = if want_write {
            sys::EPOLLIN | sys::EPOLLOUT
        } else {
            sys::EPOLLIN
        };
        epoll.ctl(
            sys::EPOLL_CTL_MOD,
            conn.stream.as_raw_fd(),
            events,
            slot as u64 + 1,
        )?;
        conn.armed_for_write = want_write;
        Ok(())
    }

    /// One readiness step: flush pending writes, read what the socket
    /// has, serve every complete request, flush again.
    fn step(
        &mut self,
        conn: &mut Conn,
        readable: bool,
        writable: bool,
        read_chunk: &mut [u8],
    ) -> Verdict {
        if writable && self.flush(conn) == Verdict::Close {
            return Verdict::Close;
        }
        if readable && self.fill(conn, read_chunk) == Verdict::Close {
            return Verdict::Close;
        }
        if self.serve_buffered(conn) == Verdict::Close {
            return Verdict::Close;
        }
        self.flush(conn)
    }

    /// Read whatever the socket holds into the connection's parser.
    fn fill(&mut self, conn: &mut Conn, read_chunk: &mut [u8]) -> Verdict {
        // A parked (chaos-delayed) connection reads nothing: back-pressure
        // mirrors the blocking arm, which sleeps before writing.
        if conn.delayed_until.is_some() {
            return Verdict::Keep;
        }
        loop {
            // portalint: allow(reactor-blocking) — stream was set_nonblocking at accept; read returns WouldBlock instead of parking
            match conn.stream.read(read_chunk) {
                Ok(0) => {
                    // Peer closed. Clean EOF (no partial request buffered,
                    // e.g. the shutdown poke or an idle keep-alive hangup)
                    // closes quietly; a half-sent request is malformed.
                    if !conn.inbox.is_empty() {
                        self.pipeline
                            .bad_request("connection closed mid-request", &mut conn.out);
                        // The peer is gone; flush is best-effort.
                        let _ = self.flush(conn);
                    }
                    return Verdict::Close;
                }
                Ok(n) => {
                    if let Some(chunk) = read_chunk.get(..n) {
                        conn.inbox.feed(chunk, Instant::now());
                    }
                    if n < read_chunk.len() {
                        return Verdict::Keep; // drained the socket
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
    }

    /// Serve every complete request already buffered (pipelining: no
    /// return to `epoll_wait` while a full request is waiting in memory).
    fn serve_buffered(&mut self, conn: &mut Conn) -> Verdict {
        loop {
            if conn.close_after_flush || conn.delayed_until.is_some() {
                return Verdict::Keep;
            }
            match conn.inbox.next_request() {
                Ok(Some((req, arrival))) => {
                    let shed = self.budget_shed();
                    let outcome = self.pipeline.dispatch(req, arrival, shed, &mut conn.out);
                    if outcome.ran {
                        self.dispatched += 1;
                        self.pipeline
                            .stats
                            .max(Counter::QueueDepthHighWater, self.dispatched as u64);
                    }
                    if let Some(delay) = outcome.delay {
                        conn.delayed_until = Some(Instant::now() + delay);
                        self.delayed += 1;
                    }
                    conn.close_after_flush = !outcome.keep_alive;
                }
                Ok(None) => return Verdict::Keep,
                Err(e) => {
                    self.pipeline.bad_request(&e.to_string(), &mut conn.out);
                    conn.close_after_flush = true;
                    return Verdict::Keep; // close happens after the flush
                }
            }
        }
    }

    /// The per-cycle dispatch budget, the reactor's analogue of the
    /// blocking arm's accept queue: with `config.queue_cap: Some(n)`, a
    /// request parsed after `n` dispatches in one epoll cycle is shed.
    /// A shed keeps the connection alive (the client is told to retry,
    /// not hung up on).
    fn budget_shed(&self) -> Option<Response> {
        let budget = self.config.queue_cap?;
        if self.dispatched < budget {
            return None;
        }
        self.pipeline.stats.add(Counter::ShedQueueFull, 1);
        Some(Response::shed_fault(
            &format!("dispatch budget ({budget}) spent this cycle"),
            self.config.shed_retry_after_ms,
        ))
    }

    /// Drain the serialize scratch as far as the socket accepts.
    fn flush(&mut self, conn: &mut Conn) -> Verdict {
        if conn.delayed_until.is_some() {
            return Verdict::Keep; // response held until the delay expires
        }
        while conn.has_pending_write() {
            let Some(pending) = conn.out.get(conn.out_pos..) else {
                break;
            };
            // portalint: allow(reactor-blocking) — stream was set_nonblocking at accept; write returns WouldBlock instead of parking
            match conn.stream.write(pending) {
                Ok(0) => return Verdict::Close,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        // Fully drained: clear keeps capacity — this is the per-connection
        // serialize scratch reuse the E11 counters account for.
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_flush {
            return Verdict::Close;
        }
        Verdict::Keep
    }

    /// Un-park connections whose chaos delay has expired: release the held
    /// response and resume serving whatever is buffered behind it.
    fn expire_delays(&mut self, epoll: &Epoll, read_chunk: &mut [u8]) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expired = matches!(
                self.conns.get(slot),
                Some(Some(conn)) if conn.delayed_until.is_some_and(|until| until <= now)
            );
            if !expired {
                continue;
            }
            if let Some(Some(conn)) = self.conns.get_mut(slot) {
                conn.delayed_until = None;
            }
            self.delayed = self.delayed.saturating_sub(1);
            // Readable too: bytes may have queued while parked.
            self.drive(epoll, slot, true, true, read_chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ServerChaos;
    use crate::http::{Request, Status};
    use crate::server::{Handler, HttpServer, ServerArm};
    use std::io::BufReader;
    use std::time::Duration;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()))
    }

    fn reactor_config(workers: usize) -> ServerConfig {
        ServerConfig {
            arm: ServerArm::Reactor,
            ..ServerConfig::with_workers(workers)
        }
    }

    #[test]
    fn serves_and_shuts_down() {
        let server = HttpServer::start_reactor(echo_handler(), 2).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(&Request::post("/x", "hello").to_bytes())
            .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.body_str(), "hello");
        assert_eq!(server.stats().snapshot().requests, 1);
        server.shutdown();
    }

    #[test]
    fn non_keep_alive_connection_closes_after_response() {
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(&Request::post("/x", "one-shot").to_bytes())
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let resp = Response::read_from_buffered(&mut reader).unwrap();
        assert_eq!(resp.body_str(), "one-shot");
        // The server closes: the next read sees EOF.
        let mut probe = [0u8; 1];
        use std::io::Read as _;
        assert_eq!(reader.read(&mut probe).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn keep_alive_sequence_on_one_connection() {
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for i in 0..8 {
            let body = format!("msg-{i}");
            let req = Request::post("/x", body.clone()).with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            let resp = Response::read_from_buffered(&mut reader).unwrap();
            assert_eq!(resp.body_str(), body);
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.requests, 8);
        assert_eq!(snap.connections, 1);
        server.shutdown();
    }

    #[test]
    fn pipelined_keep_alive_requests_both_served() {
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        let conn = TcpStream::connect(server.addr()).unwrap();
        let mut burst = Vec::new();
        Request::post("/x", "first")
            .with_header("Connection", "keep-alive")
            .write_into(&mut burst);
        Request::post("/x", "second")
            .with_header("Connection", "keep-alive")
            .write_into(&mut burst);
        (&conn).write_all(&burst).unwrap();
        let mut reader = BufReader::new(&conn);
        let r1 = Response::read_from_buffered(&mut reader).unwrap();
        let r2 = Response::read_from_buffered(&mut reader).unwrap();
        assert_eq!(r1.body_str(), "first");
        assert_eq!(r2.body_str(), "second");
        assert_eq!(server.stats().snapshot().requests, 2);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_promptly_with_idle_connections_parked() {
        let server = HttpServer::start_reactor(echo_handler(), 2).unwrap();
        let addr = server.addr();
        let mut parked = Vec::new();
        for _ in 0..50 {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(
                &Request::post("/x", "park")
                    .with_header("Connection", "keep-alive")
                    .to_bytes(),
            )
            .unwrap();
            let _ = Response::read_from(&conn).unwrap();
            parked.push(conn);
        }
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown took {:?} with idle connections parked",
            t0.elapsed()
        );
    }

    #[test]
    fn malformed_request_gets_400_soap_fault() {
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"GARBAGE WITHOUT MEANING\r\nbadheader\r\n\r\n")
            .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body_str().contains("SOAP-ENV:Fault"));
        assert_eq!(server.stats().snapshot().bad_requests, 1);
        server.shutdown();
    }

    #[test]
    fn clean_eof_before_any_byte_closes_quietly() {
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        {
            let _conn = TcpStream::connect(server.addr()).unwrap();
            // Connect and hang up without sending a byte (the shutdown
            // poke's shape): no 400, no request, no error.
        }
        // Give the reactor a moment to observe the close.
        std::thread::sleep(Duration::from_millis(100));
        let snap = server.stats().snapshot();
        assert_eq!(snap.bad_requests, 0, "{snap:?}");
        assert_eq!(snap.requests, 0, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn connection_close_token_honored() {
        // `Connection: keep-alive, close` must close (close wins), and a
        // token list with keep-alive among others must keep alive.
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(
            &Request::post("/x", "bye")
                .with_header("Connection", "keep-alive, close")
                .to_bytes(),
        )
        .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        assert_eq!(
            Response::read_from_buffered(&mut reader)
                .unwrap()
                .body_str(),
            "bye"
        );
        use std::io::Read as _;
        let mut probe = [0u8; 1];
        assert_eq!(reader.read(&mut probe).unwrap(), 0, "server must close");

        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for _ in 0..2 {
            conn.write_all(
                &Request::post("/x", "hi")
                    .with_header("Connection", "keep-alive, TE")
                    .to_bytes(),
            )
            .unwrap();
            assert_eq!(
                Response::read_from_buffered(&mut reader)
                    .unwrap()
                    .body_str(),
                "hi"
            );
        }
        server.shutdown();
    }

    #[test]
    fn scratch_grows_once_per_connection_then_reuses() {
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for _ in 0..16 {
            let req =
                Request::post("/x", "fixed-size-payload").with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            let resp = Response::read_from_buffered(&mut reader).unwrap();
            assert_eq!(resp.body_str(), "fixed-size-payload");
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.requests, 16);
        // The serialize scratch moves with the connection: identical
        // responses grow it on the first exchange only.
        assert_eq!(snap.scratch_growths, 1, "snapshot: {snap:?}");
        let resp_len = Response::ok("text/plain", "fixed-size-payload").wire_len() as u64;
        assert!(snap.scratch_high_water >= resp_len, "snapshot: {snap:?}");
        server.shutdown();
    }

    #[test]
    fn chaotic_reactor_drops_and_truncates_but_always_executes() {
        use crate::chaos::{SeededServerChaos, ServerChaosConfig};
        let cfg = ServerChaosConfig {
            drop: 0.3,
            delay: 0.1,
            truncate: 0.3,
            max_delay_ms: 2,
        };
        let chaos = Arc::new(SeededServerChaos::new(0x5EED, cfg));
        let server =
            HttpServer::start_with(echo_handler(), reactor_config(2), Some(chaos)).unwrap();
        let addr = server.addr();
        let n = 40;
        let mut failures = 0u64;
        for i in 0..n {
            let mut conn = TcpStream::connect(addr).unwrap();
            let body = format!("m{i}");
            conn.write_all(&Request::post("/x", body.clone()).to_bytes())
                .unwrap();
            match Response::read_from(&conn) {
                Ok(resp) => assert_eq!(resp.body_str(), body),
                Err(_) => failures += 1,
            }
        }
        let snap = server.stats().snapshot();
        assert_eq!(
            snap.requests, n,
            "handler runs even when the reply is dropped: {snap:?}"
        );
        assert!(failures > 0, "mix should break some replies: {snap:?}");
        assert_eq!(
            snap.chaos_drops + snap.chaos_truncations,
            failures,
            "every client-visible failure is an injected one: {snap:?}"
        );
        server.shutdown();
    }

    #[test]
    fn chaos_delay_parks_without_blocking_other_connections() {
        use crate::chaos::ServerFault;
        // Deterministic hook: delay responses to /slow, deliver the rest.
        struct SlowPath;
        impl ServerChaos for SlowPath {
            fn decide(&self, req: &Request) -> ServerFault {
                if req.path == "/slow" {
                    ServerFault::Delay(Duration::from_millis(300))
                } else {
                    ServerFault::Deliver
                }
            }
        }
        let server =
            HttpServer::start_with(echo_handler(), reactor_config(1), Some(Arc::new(SlowPath)))
                .unwrap();
        let addr = server.addr();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(&Request::post("/slow", "delayed").to_bytes())
            .unwrap();
        // While /slow is parked, the same single worker serves /fast.
        let t0 = Instant::now();
        let mut fast = TcpStream::connect(addr).unwrap();
        fast.write_all(&Request::post("/fast", "now").to_bytes())
            .unwrap();
        assert_eq!(Response::read_from(&fast).unwrap().body_str(), "now");
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "fast path stalled behind a parked delay: {:?}",
            t0.elapsed()
        );
        // The delayed response still arrives.
        assert_eq!(Response::read_from(&slow).unwrap().body_str(), "delayed");
        server.shutdown();
    }

    #[test]
    fn connection_cap_pauses_listener_and_resumes_on_close() {
        // Pinned regression: the reactor used to accept without bound —
        // every connection grew the slab. With a cap, the extra connection
        // must park unaccepted in the kernel backlog (no reply) until an
        // admitted connection closes, then be served.
        let config = ServerConfig {
            max_connections: 2,
            ..reactor_config(1)
        };
        let server = HttpServer::start_with(echo_handler(), config, None).unwrap();
        let addr = server.addr();
        // Fill the cap with two parked keep-alive connections.
        let mut held = Vec::new();
        for i in 0..2 {
            let mut conn = TcpStream::connect(addr).unwrap();
            let req =
                Request::post("/x", format!("hold-{i}")).with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            assert_eq!(
                Response::read_from(&conn).unwrap().body_str(),
                format!("hold-{i}")
            );
            held.push(conn);
        }
        // The third connection lands in the backlog: connect succeeds, but
        // no response arrives while the cap is full.
        let mut third = TcpStream::connect(addr).unwrap();
        third
            .write_all(&Request::post("/x", "overflow").to_bytes())
            .unwrap();
        third
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut probe = [0u8; 1];
        use std::io::Read as _;
        match (&third).read(&mut probe) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => panic!("third connection served past the cap: {other:?}"),
        }
        let snap = server.stats().snapshot();
        assert!(snap.listener_pauses >= 1, "{snap:?}");
        assert_eq!(snap.requests, 2, "{snap:?}");
        // Free a slot: the listener resumes and the parked connection is
        // accepted and served.
        drop(held.remove(0));
        third
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let resp = Response::read_from(&third).unwrap();
        assert_eq!(resp.body_str(), "overflow");
        server.shutdown();
    }

    #[test]
    fn dispatch_budget_sheds_burst_with_retry_hint() {
        // A pipelined burst past the per-cycle dispatch budget: admitted
        // requests are served correctly, the excess get well-formed BUSY
        // faults with retry hints on the same keep-alive connection.
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        let config = ServerConfig {
            queue_cap: Some(2),
            shed_retry_after_ms: 40,
            ..reactor_config(1)
        };
        let server = HttpServer::start_with(echo_handler(), config, None).unwrap();
        let conn = TcpStream::connect(server.addr()).unwrap();
        let n = 6;
        let mut burst = Vec::new();
        for i in 0..n {
            Request::post("/x", format!("m{i}"))
                .with_header("Connection", "keep-alive")
                .write_into(&mut burst);
        }
        (&conn).write_all(&burst).unwrap();
        let mut reader = BufReader::new(&conn);
        let mut ok = 0usize;
        let mut shed = 0usize;
        for i in 0..n {
            let resp = Response::read_from_buffered(&mut reader).unwrap();
            match resp.status {
                Status::Ok => {
                    ok += 1;
                    assert_eq!(resp.body_str(), format!("m{i}"));
                }
                Status::ServiceUnavailable => {
                    shed += 1;
                    assert_eq!(resp.header(RETRY_AFTER_MS_HEADER), Some("40"));
                    assert_eq!(resp.header(RETRY_AFTER_HEADER), Some("1"));
                    assert!(resp.body_str().contains("<code>BUSY</code>"));
                }
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert_eq!(ok + shed, n, "every request answered, none dropped");
        assert!(shed > 0, "burst of {n} must overrun budget 2");
        let snap = server.stats().snapshot();
        assert_eq!(snap.shed_queue_full, shed as u64, "{snap:?}");
        assert_eq!(snap.requests, ok as u64, "{snap:?}");
        assert!(snap.queue_depth_high_water <= 2, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_before_handler_on_reactor() {
        // The reactor half of the deadline bugfix pin: an already-spent
        // `X-Deadline-Ms` budget never reaches the handler.
        use crate::pool::DEADLINE_HEADER;
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let handler: Arc<dyn Handler> = {
            let calls = Arc::clone(&calls);
            Arc::new(move |req: &Request| {
                calls.fetch_add(1, Ordering::SeqCst);
                let budget = req.header(DEADLINE_HEADER).unwrap_or("none").to_string();
                Response::ok("text/plain", budget)
            })
        };
        let server = HttpServer::start_reactor(handler, 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(
            &Request::post("/x", "late")
                .with_header(DEADLINE_HEADER, "0")
                .to_bytes(),
        )
        .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.status, Status::ServiceUnavailable);
        assert!(resp.body_str().contains("DEADLINE_EXCEEDED"), "{resp:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "handler must not run");
        drop(conn);

        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(
            &Request::post("/x", "on-time")
                .with_header(DEADLINE_HEADER, "10000")
                .to_bytes(),
        )
        .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let remaining: u64 = resp.body_str().parse().unwrap();
        assert!(remaining > 0 && remaining <= 10_000, "{remaining}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let snap = server.stats().snapshot();
        assert_eq!(snap.shed_deadline, 1, "{snap:?}");
        assert_eq!(snap.requests, 1, "sheds are not dispatches: {snap:?}");
        server.shutdown();
    }

    #[test]
    fn reactor_restarts_on_a_known_port() {
        let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
        let addr = server.addr();
        server.shutdown();
        let server = HttpServer::start_with(
            echo_handler(),
            ServerConfig {
                addr,
                ..reactor_config(1)
            },
            None,
        )
        .unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&Request::post("/x", "back").to_bytes())
            .unwrap();
        assert_eq!(Response::read_from(&conn).unwrap().body_str(), "back");
        server.shutdown();
    }
}
