//! Thread-pooled HTTP server with a path router.
//!
//! Each portal service in the paper ran on its own server ("Each of these
//! runs on a separate web server", §2). [`HttpServer`] plays that role: one
//! instance per logical server (UI server, UDDI server, SOAP Service
//! Provider, Authentication Service), each with its own [`Router`] mapping
//! paths to [`Handler`]s.
//!
//! A server runs on one of two arms ([`ServerArm`]), both I/O drivers over
//! the one request pipeline in `wire::dispatch`. This module holds the
//! blocking arm: an acceptor thread pushes connections into a crossbeam
//! channel and `worker` threads pop and serve one connection at a time
//! (HTTP/1.0 semantics, as deployed in 2002, with keep-alive as the
//! ablation).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;

use crate::chaos::ServerChaos;
use crate::dispatch::{Inbox, Pipeline};
use crate::http::{Request, Response, Status};
use crate::stats::{Counter, WireStats};
use crate::Result;

/// Server concurrency regime. The blocking arm is the thread-per-connection
/// pool the 2002 servers ran; the reactor arm drives all connections per
/// worker through epoll state machines, so idle keep-alive sessions park
/// instead of pinning worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerArm {
    /// Fixed worker pool, one blocking connection per worker at a time
    /// (the ablation baseline).
    #[default]
    Blocking,
    /// Epoll reactor: each worker multiplexes many nonblocking
    /// connections ([`crate::reactor`]).
    Reactor,
}

/// How to run a server: arm, address, workers and admission bounds. The
/// defaults are the blocking arm on an ephemeral localhost port with
/// blocking-send backpressure and a generous connection cap; production
/// deployments set explicit bounds and pass the config to
/// [`HttpServer::start_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Which I/O driver serves the connections.
    pub arm: ServerArm,
    /// Address to bind (port 0 picks an ephemeral port; tests restart a
    /// server on a port a client already knows by naming it here).
    pub addr: SocketAddr,
    /// Worker threads (both arms).
    pub workers: usize,
    /// Admission queue bound. Blocking arm: capacity of the
    /// acceptor→worker connection queue — when full, the acceptor answers
    /// a `Retry-After` shed fault instead of blocking (`None` keeps the
    /// legacy backpressure of a blocking send into a `workers * 4` deep
    /// channel). Reactor arm: per-worker dispatch budget per epoll cycle —
    /// requests parsed beyond it in one readiness batch are shed.
    pub queue_cap: Option<usize>,
    /// Reactor arm: per-worker cap on concurrently open connections. At
    /// the cap the worker deregisters the listener from its epoll set
    /// (stops `EPOLLIN`) and resumes accepting when a connection closes,
    /// so a connection flood parks in the kernel backlog instead of
    /// growing the slab without bound.
    pub max_connections: usize,
    /// Retry hint stamped on queue-full shed faults, in milliseconds.
    pub shed_retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            arm: ServerArm::Blocking,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 2,
            queue_cap: None,
            max_connections: 4096,
            shed_retry_after_ms: 50,
        }
    }
}

impl ServerConfig {
    /// Config with `workers` threads and every admission default.
    pub fn with_workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }
}

/// A request handler. Handlers are shared across worker threads, so they
/// must provide their own interior synchronization.
pub trait Handler: Send + Sync {
    /// Produce a response for `req`.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Longest-prefix path router.
#[derive(Default)]
pub struct Router {
    routes: RwLock<Vec<(String, Arc<dyn Handler>)>>,
}

impl Router {
    /// New empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mount `handler` at `prefix`. Later mounts with the same prefix win.
    pub fn mount(&self, prefix: impl Into<String>, handler: Arc<dyn Handler>) {
        let mut routes = self.routes.write();
        let prefix = prefix.into();
        routes.retain(|(p, _)| *p != prefix);
        routes.push((prefix, handler));
        // Longest prefix first so matching can stop at the first hit.
        routes.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    }

    /// Resolve a path to its handler.
    pub fn resolve(&self, path: &str) -> Option<Arc<dyn Handler>> {
        let routes = self.routes.read();
        routes
            .iter()
            .find(|(prefix, _)| path.starts_with(prefix.as_str()))
            .map(|(_, h)| Arc::clone(h))
    }

    /// Mounted prefixes, longest first.
    pub fn prefixes(&self) -> Vec<String> {
        self.routes.read().iter().map(|(p, _)| p.clone()).collect()
    }
}

impl Handler for Router {
    fn handle(&self, req: &Request) -> Response {
        match self.resolve(req.path_only()) {
            Some(h) => h.handle(req),
            None => Response::error(Status::NotFound, format!("no route for {}", req.path)),
        }
    }
}

/// A running server; dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Every server thread, joined in order (the blocking arm's acceptor
    /// first).
    threads: Vec<JoinHandle<()>>,
    stats: Arc<WireStats>,
}

impl ServerHandle {
    /// The bound address (use for clients).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side wire statistics.
    pub fn stats(&self) -> &Arc<WireStats> {
        &self.stats
    }

    /// Request shutdown and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The server: binds a listener and serves a [`Handler`] on the arm and
/// bounds a [`ServerConfig`] names.
pub struct HttpServer;

impl HttpServer {
    /// Blocking arm with `workers` threads on an ephemeral localhost port.
    pub fn start(handler: Arc<dyn Handler>, workers: usize) -> Result<ServerHandle> {
        HttpServer::start_with(handler, ServerConfig::with_workers(workers), None)
    }

    /// Reactor arm with `workers` threads on an ephemeral localhost port.
    pub fn start_reactor(handler: Arc<dyn Handler>, workers: usize) -> Result<ServerHandle> {
        let config = ServerConfig {
            arm: ServerArm::Reactor,
            ..ServerConfig::with_workers(workers)
        };
        HttpServer::start_with(handler, config, None)
    }

    /// Start serving `handler` as `config` says. `chaos`, when given, is
    /// consulted per dispatched request after the handler runs and may
    /// drop, delay, or truncate the response (the fault classes of
    /// `wire::chaos`).
    pub fn start_with(
        handler: Arc<dyn Handler>,
        config: ServerConfig,
        chaos: Option<Arc<dyn ServerChaos>>,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let pipeline = Pipeline {
            handler,
            stats: Arc::new(WireStats::new()),
            chaos,
        };
        let stats = Arc::clone(&pipeline.stats);
        let threads = match config.arm {
            ServerArm::Blocking => {
                spawn_blocking(listener, pipeline, config, Arc::clone(&shutdown))
            }
            ServerArm::Reactor => {
                crate::reactor::spawn(listener, pipeline, config, Arc::clone(&shutdown))?
            }
        };
        Ok(ServerHandle {
            addr,
            shutdown,
            threads,
            stats,
        })
    }
}

/// The blocking arm: an acceptor thread (returned first) feeding a
/// bounded connection queue, and `config.workers` threads each serving
/// one connection at a time.
fn spawn_blocking(
    listener: TcpListener,
    pipeline: Pipeline,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    // Bounded queue: with the legacy default (`queue_cap: None`) it
    // applies back-pressure to the acceptor; with an explicit cap the
    // acceptor sheds instead of blocking (below). Each item carries the
    // accept instant so the deadline budget charges queue wait.
    let cap = config.queue_cap.unwrap_or(config.workers.max(1) * 4);
    type QueueItem = (TcpStream, Instant);
    let (tx, rx): (Sender<QueueItem>, Receiver<QueueItem>) = bounded(cap);

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&pipeline.stats);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                stats.add(Counter::Connections, 1);
                let item = (stream, Instant::now());
                if config.queue_cap.is_none() {
                    // Legacy arm: block until a worker frees a slot.
                    if tx.send(item).is_err() {
                        break;
                    }
                } else {
                    match tx.try_send(item) {
                        Ok(()) => {}
                        Err(TrySendError::Full((stream, _))) => {
                            // Admission control: answer a well-formed
                            // shed fault with a retry hint instead of
                            // letting the queue (and client latency)
                            // grow without bound.
                            stats.add(Counter::ShedQueueFull, 1);
                            let fault = Response::shed_fault(
                                &format!("accept queue at capacity ({cap})"),
                                config.shed_retry_after_ms,
                            )
                            .with_header("Connection", "close");
                            let _ = fault.write_to(&stream);
                            continue;
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                stats.max(Counter::QueueDepthHighWater, tx.len() as u64);
            }
        })
    };

    let workers = (0..config.workers.max(1)).map(|_| {
        let rx = rx.clone();
        let pipeline = pipeline.clone();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let mut scratch = WorkerScratch {
                inbox: Inbox::new(),
                chunk: vec![0; READ_CHUNK],
                out: Vec::new(),
            };
            while let Ok((stream, accepted)) = rx.recv() {
                serve_one(&pipeline, stream, accepted, &shutdown, &mut scratch);
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        })
    });
    std::iter::once(acceptor).chain(workers).collect()
}

/// Longest a blocking worker waits in one read before re-checking the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Read staging chunk of a blocking worker. Kept small: every worker
/// holds one for its lifetime, and a SOAP request fits one read.
const READ_CHUNK: usize = 16 * 1024;

/// Per-worker reusable buffers. Workers are fixed threads, so the scratch
/// warms up once and every later connection on the worker parses and
/// serializes into already-sized memory; [`WireStats`] records growths of
/// the serialize buffer and its capacity high-water mark so experiments
/// can verify the steady state.
struct WorkerScratch {
    /// The worker's request parser, cleared between connections.
    inbox: Inbox,
    /// Read staging chunk.
    chunk: Vec<u8>,
    /// Response serialize buffer, cleared (capacity kept) per request.
    out: Vec<u8>,
}

/// Serve one connection: a single HTTP/1.0 exchange by default, or a
/// sequence of exchanges when the client sends `Connection: keep-alive`
/// (the ablation that shows what the 2002 per-call-connection regime
/// cost). Reads time out every [`IDLE_POLL`] to poll the shutdown flag,
/// so the server can always join its workers; a timeout mid-request is
/// harmless because the partial request stays in the parser.
fn serve_one(
    pipeline: &Pipeline,
    mut stream: TcpStream,
    accepted: Instant,
    shutdown: &AtomicBool,
    scratch: &mut WorkerScratch,
) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    scratch.inbox.clear();
    // The first bytes are charged from the accept instant: the wait in
    // the accept queue counts against the client's budget.
    let mut first_read = Some(accepted);
    loop {
        // Serve every request already buffered (pipelining) before
        // reading again.
        loop {
            scratch.out.clear();
            match scratch.inbox.next_request() {
                Ok(Some((req, arrival))) => {
                    let outcome = pipeline.dispatch(req, arrival, None, &mut scratch.out);
                    if let Some(delay) = outcome.delay {
                        std::thread::sleep(delay);
                    }
                    if stream.write_all(&scratch.out).is_err() || !outcome.keep_alive {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    pipeline.bad_request(&e.to_string(), &mut scratch.out);
                    let _ = stream.write_all(&scratch.out);
                    return;
                }
            }
        }
        match stream.read(&mut scratch.chunk) {
            Ok(0) => {
                // Clean EOF (the shutdown poke, or a keep-alive peer
                // hanging up between requests) closes quietly; a
                // half-sent request is malformed.
                if !scratch.inbox.is_empty() {
                    pipeline.bad_request("connection closed mid-request", &mut scratch.out);
                    let _ = stream.write_all(&scratch.out);
                }
                return;
            }
            Ok(n) => {
                let at = first_read.take().unwrap_or_else(Instant::now);
                scratch
                    .inbox
                    .feed(scratch.chunk.get(..n).unwrap_or_default(), at);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::DEADLINE_HEADER;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()))
    }

    #[test]
    fn serves_and_shuts_down() {
        let server = HttpServer::start(echo_handler(), 2).unwrap();
        let addr = server.addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&Request::post("/x", "hello").to_bytes())
            .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.body_str(), "hello");
        assert_eq!(server.stats().snapshot().requests, 1);
        server.shutdown();
    }

    #[test]
    fn router_longest_prefix_wins() {
        let router = Router::new();
        router.mount("/soap", Arc::new(|_: &Request| Response::html("general")));
        router.mount(
            "/soap/jobsub",
            Arc::new(|_: &Request| Response::html("specific")),
        );
        let resp = router.handle(&Request::get("/soap/jobsub/run"));
        assert_eq!(resp.body_str(), "specific");
        let resp = router.handle(&Request::get("/soap/other"));
        assert_eq!(resp.body_str(), "general");
    }

    #[test]
    fn router_miss_is_404() {
        let router = Router::new();
        let resp = router.handle(&Request::get("/nope"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn router_remount_replaces() {
        let router = Router::new();
        router.mount("/a", Arc::new(|_: &Request| Response::html("one")));
        router.mount("/a", Arc::new(|_: &Request| Response::html("two")));
        assert_eq!(router.handle(&Request::get("/a")).body_str(), "two");
        assert_eq!(router.prefixes().len(), 1);
    }

    #[test]
    fn concurrent_clients() {
        let server = HttpServer::start(echo_handler(), 4).unwrap();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for i in 0..16 {
                scope.spawn(move || {
                    let body = format!("msg-{i}");
                    let mut conn = TcpStream::connect(addr).unwrap();
                    conn.write_all(&Request::post("/x", body.clone()).to_bytes())
                        .unwrap();
                    let resp = Response::read_from(&conn).unwrap();
                    assert_eq!(resp.body_str(), body);
                });
            }
        });
        assert_eq!(server.stats().snapshot().requests, 16);
    }

    #[test]
    fn keep_alive_scratch_grows_exactly_once() {
        // One worker, one keep-alive connection, N identical-size
        // exchanges: the worker's serialize scratch must grow on the first
        // response and then be reused untouched for every later one.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let n = 16;
        for _ in 0..n {
            let req =
                Request::post("/x", "fixed-size-payload").with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            let resp = Response::read_from(&conn).unwrap();
            assert_eq!(resp.body_str(), "fixed-size-payload");
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.requests, n);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.scratch_growths, 1, "snapshot: {snap:?}");
        // The high-water mark covers at least one serialized response.
        let resp_len = Response::ok("text/plain", "fixed-size-payload").wire_len() as u64;
        assert!(snap.scratch_high_water >= resp_len, "snapshot: {snap:?}");
        server.shutdown();
    }

    #[test]
    fn pipelined_keep_alive_requests_both_served() {
        // Two requests written back-to-back before any response is read:
        // the second lands in the connection reader's buffer, and the
        // keep-alive wait must notice it instead of peeking the socket.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let conn = TcpStream::connect(server.addr()).unwrap();
        let mut burst = Vec::new();
        Request::post("/x", "first")
            .with_header("Connection", "keep-alive")
            .write_into(&mut burst);
        Request::post("/x", "second")
            .with_header("Connection", "keep-alive")
            .write_into(&mut burst);
        (&conn).write_all(&burst).unwrap();
        let mut reader = std::io::BufReader::new(&conn);
        let r1 = Response::read_from_buffered(&mut reader).unwrap();
        let r2 = Response::read_from_buffered(&mut reader).unwrap();
        assert_eq!(r1.body_str(), "first");
        assert_eq!(r2.body_str(), "second");
        assert_eq!(server.stats().snapshot().requests, 2);
        server.shutdown();
    }

    #[test]
    fn chaotic_server_drops_and_truncates_but_always_executes() {
        use crate::chaos::{SeededServerChaos, ServerChaosConfig};
        // Heavy mix so a small sample exercises every class.
        let cfg = ServerChaosConfig {
            drop: 0.3,
            delay: 0.1,
            truncate: 0.3,
            max_delay_ms: 2,
        };
        let chaos = Arc::new(SeededServerChaos::new(0x5EED, cfg));
        let server =
            HttpServer::start_with(echo_handler(), ServerConfig::with_workers(2), Some(chaos))
                .unwrap();
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
    fn malformed_request_gets_400_soap_fault() {
        // Pinned regression: garbage used to be closed on silently,
        // leaving the client to hang until its own deadline.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"NONSENSE\r\nthis is not a header\r\n\r\n")
            .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body_str().contains("SOAP-ENV:Fault"));
        assert_eq!(resp.header("Connection"), Some("close"));
        assert_eq!(server.stats().snapshot().bad_requests, 1);
        server.shutdown();
    }

    #[test]
    fn clean_eof_before_any_byte_closes_quietly() {
        // Pinned regression companion: the shutdown poke's shape — connect
        // then hang up without a byte — is not a malformed request.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        {
            let _conn = TcpStream::connect(server.addr()).unwrap();
        }
        // Let the worker observe the close before sampling the counters.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let snap = server.stats().snapshot();
        assert_eq!(snap.bad_requests, 0, "{snap:?}");
        assert_eq!(snap.requests, 0, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn connection_header_token_list_respected() {
        // Pinned regression: `Connection: keep-alive, TE` is a legal token
        // list and must keep the connection alive; `close` anywhere in the
        // list must close it.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        for _ in 0..2 {
            conn.write_all(
                &Request::post("/x", "hi")
                    .with_header("Connection", "keep-alive, TE")
                    .to_bytes(),
            )
            .unwrap();
            let resp = Response::read_from_buffered(&mut reader).unwrap();
            assert_eq!(resp.body_str(), "hi");
        }
        assert_eq!(server.stats().snapshot().connections, 1);
        // Release the single blocking worker before dialing again.
        drop(reader);
        drop(conn);

        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(
            &Request::post("/x", "bye")
                .with_header("Connection", "keep-alive, close")
                .to_bytes(),
        )
        .unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        assert_eq!(
            Response::read_from_buffered(&mut reader)
                .unwrap()
                .body_str(),
            "bye"
        );
        use std::io::Read;
        let mut probe = [0u8; 1];
        assert_eq!(reader.read(&mut probe).unwrap(), 0, "server must close");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_before_handler() {
        // Pinned regression: clients have stamped `X-Deadline-Ms` since the
        // pool landed, but the server ignored it — a request whose budget
        // was already spent still burned a handler dispatch. Now it must be
        // shed pre-dispatch with a deadline fault and zero handler runs.
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let handler: Arc<dyn Handler> = {
            let calls = Arc::clone(&calls);
            Arc::new(move |req: &Request| {
                calls.fetch_add(1, Ordering::SeqCst);
                // Echo the (rewritten) budget so the propagation half of
                // the contract is observable from the client side.
                let budget = req.header(DEADLINE_HEADER).unwrap_or("none").to_string();
                Response::ok("text/plain", budget)
            })
        };
        let server = HttpServer::start(handler, 1).unwrap();

        // Budget already spent: shed before dispatch.
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

        // A live budget is admitted, rewritten to the remaining budget.
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
    fn burst_beyond_queue_cap_sheds_with_retry_hint() {
        // Pinned: with an explicit queue cap, a burst past it must produce
        // well-formed `Retry-After` shed faults — never silent drops, never
        // an unboundedly growing queue — while every admitted request
        // completes correctly.
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        let slow: Arc<dyn Handler> = Arc::new(|req: &Request| {
            std::thread::sleep(std::time::Duration::from_millis(80));
            Response::ok("text/plain", req.body.clone())
        });
        let config = ServerConfig {
            workers: 1,
            queue_cap: Some(1),
            shed_retry_after_ms: 25,
            ..ServerConfig::default()
        };
        let server = HttpServer::start_with(slow, config, None).unwrap();
        let addr = server.addr();

        let n = 8;
        let results: Vec<(Status, Option<String>, Option<String>, String)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        scope.spawn(move || {
                            let mut conn = TcpStream::connect(addr).unwrap();
                            let body = format!("m{i}");
                            conn.write_all(&Request::post("/x", body).to_bytes())
                                .unwrap();
                            let resp = Response::read_from(&conn).unwrap();
                            (
                                resp.status,
                                resp.header(RETRY_AFTER_HEADER).map(str::to_string),
                                resp.header(RETRY_AFTER_MS_HEADER).map(str::to_string),
                                resp.body_str().to_string(),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        let admitted = results.iter().filter(|r| r.0 == Status::Ok).count();
        let shed = results.iter().filter(|r| r.0 == Status::ServiceUnavailable);
        let mut shed_count = 0;
        for (_, retry_after, retry_after_ms, body) in shed {
            shed_count += 1;
            assert_eq!(retry_after.as_deref(), Some("1"), "ceil(25ms) = 1s");
            assert_eq!(retry_after_ms.as_deref(), Some("25"));
            assert!(body.contains("<code>BUSY</code>"), "{body}");
        }
        assert_eq!(admitted + shed_count, n, "no silent drops: {results:?}");
        assert!(
            shed_count > 0,
            "burst of {n} must overrun cap 1: {results:?}"
        );
        for (status, _, _, body) in &results {
            if *status == Status::Ok {
                assert!(body.starts_with('m'), "admitted echo intact: {body}");
            }
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.shed_queue_full, shed_count as u64, "{snap:?}");
        assert_eq!(snap.requests, admitted as u64, "{snap:?}");
        assert!(snap.queue_depth_high_water <= 1, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn sheds_are_never_torn_by_server_chaos() {
        // Pinned: a shed is a promise the work did NOT run, so the chaos
        // hook must never apply to it. Under a hook that truncates every
        // delivered response, admitted replies arrive torn — but every
        // 503 shed fault still arrives whole and parseable, hints intact.
        use crate::chaos::{ServerChaos, ServerFault};
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        struct AlwaysTruncate;
        impl ServerChaos for AlwaysTruncate {
            fn decide(&self, _req: &Request) -> ServerFault {
                ServerFault::Truncate(0.5)
            }
        }
        let slow: Arc<dyn Handler> = Arc::new(|req: &Request| {
            std::thread::sleep(std::time::Duration::from_millis(80));
            Response::ok("text/plain", req.body.clone())
        });
        let config = ServerConfig {
            workers: 1,
            queue_cap: Some(1),
            shed_retry_after_ms: 25,
            ..ServerConfig::default()
        };
        let server = HttpServer::start_with(slow, config, Some(Arc::new(AlwaysTruncate))).unwrap();
        let addr = server.addr();

        let n = 8;
        let results: Vec<std::result::Result<Response, crate::WireError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        scope.spawn(move || {
                            let conn = TcpStream::connect(addr).unwrap();
                            (&conn)
                                .write_all(&Request::post("/x", format!("m{i}")).to_bytes())
                                .unwrap();
                            Response::read_from(&conn)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        let mut shed = 0;
        let mut torn = 0;
        for result in &results {
            match result {
                Ok(resp) if resp.status == Status::ServiceUnavailable => {
                    shed += 1;
                    assert_eq!(resp.header(RETRY_AFTER_HEADER), Some("1"));
                    assert_eq!(resp.header(RETRY_AFTER_MS_HEADER), Some("25"));
                    let body = resp.body_str();
                    assert!(body.contains("<code>BUSY</code>"), "{body}");
                    assert!(body.contains("</SOAP-ENV:Envelope>"), "whole frame: {body}");
                }
                // An admitted-then-truncated reply, or a 200 whose cut
                // happened to land after the body — either way, not a shed.
                Ok(_) => torn += 1,
                Err(_) => torn += 1,
            }
        }
        assert!(shed > 0, "burst of {n} past cap 1 must shed");
        assert!(torn > 0, "the hook tears every delivered response");
        assert_eq!(shed + torn, n, "no silent drops");
        server.shutdown();
    }

    #[test]
    fn query_routing_ignores_query_string() {
        let router = Router::new();
        router.mount("/wsdl", Arc::new(|_: &Request| Response::html("w")));
        assert_eq!(
            router.handle(&Request::get("/wsdl?svc=jobsub")).body_str(),
            "w"
        );
    }
}
