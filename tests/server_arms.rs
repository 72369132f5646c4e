//! The two server arms — the blocking worker pool and the epoll reactor —
//! are I/O drivers over one request pipeline, so a client must not be able
//! to tell them apart. These tests drive both arms with the same bytes and
//! pin the answers: two framing/admission rules that once differed by arm,
//! and a seeded differential stream whose responses must be byte-identical
//! and whose pipeline counters must move by the same amounts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use portalws::wire::{
    ChaosRng, Handler, HttpServer, Request, Response, SeededServerChaos, ServerArm, ServerChaos,
    ServerChaosConfig, ServerConfig, ServerFault, ServerHandle, StatsSnapshot, Status,
    DEADLINE_HEADER, MAX_HEAD_BYTES,
};

const ARMS: [ServerArm; 2] = [ServerArm::Blocking, ServerArm::Reactor];

/// One worker on `arm`, so connections are served in the order they open.
fn start(
    arm: ServerArm,
    handler: Arc<dyn Handler>,
    chaos: Option<Arc<dyn ServerChaos>>,
) -> ServerHandle {
    let config = ServerConfig {
        arm,
        ..ServerConfig::with_workers(1)
    };
    HttpServer::start_with(handler, config, chaos).unwrap()
}

fn connect(server: &ServerHandle) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn
}

/// Echo handler that sleeps 60 ms on `/slow` and counts its calls.
fn slow_echo(calls: &Arc<AtomicUsize>) -> Arc<dyn Handler> {
    let calls = Arc::clone(calls);
    Arc::new(move |req: &Request| {
        calls.fetch_add(1, Ordering::SeqCst);
        if req.path == "/slow" {
            std::thread::sleep(Duration::from_millis(60));
        }
        Response::ok("text/plain", req.body.clone())
    })
}

/// A request whose head is `len` bytes long and properly terminated.
fn long_head(len: usize) -> Vec<u8> {
    let mut raw = b"POST /x HTTP/1.0\r\nX-Pad: ".to_vec();
    raw.resize(len - "\r\nContent-Length: 2\r\n\r\n".len(), b'a');
    raw.extend_from_slice(b"\r\nContent-Length: 2\r\n\r\nhi");
    raw
}

#[test]
fn terminated_head_past_the_cap_is_refused_on_both_arms() {
    // Regression: the cap used to apply only while a head was still
    // unterminated, so a 100 KiB head that one large read buffered whole
    // was accepted — and the blocking reader had no cap at all.
    for arm in ARMS {
        let calls = Arc::new(AtomicUsize::new(0));
        let server = start(arm, slow_echo(&calls), None);
        let mut conn = connect(&server);
        conn.write_all(&long_head(100 * 1024)).unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.status, Status::BadRequest, "{arm:?}: {resp:?}");
        let body = resp.body_str();
        assert!(body.contains("SOAP-ENV:Fault"), "{arm:?}: {body}");
        assert!(body.contains("head exceeds"), "{arm:?}: {body}");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "{arm:?}: handler ran");
        assert_eq!(server.stats().snapshot().bad_requests, 1, "{arm:?}");

        // A head just inside the cap is still served.
        let mut conn = connect(&server);
        conn.write_all(&long_head(MAX_HEAD_BYTES)).unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(
            (resp.status, resp.body_str().as_str()),
            (Status::Ok, "hi"),
            "{arm:?}"
        );
        server.shutdown();
    }
}

#[test]
fn pipelined_request_is_charged_for_its_wait_on_both_arms() {
    // Regression: the blocking arm re-anchored a pipelined request's
    // deadline at the end of the previous response, so time spent queued
    // behind a slow request was never charged. Request 2 arrives with
    // request 1, waits out request 1's 60 ms handler, and its 30 ms budget
    // is gone before dispatch.
    for arm in ARMS {
        let calls = Arc::new(AtomicUsize::new(0));
        let server = start(arm, slow_echo(&calls), None);
        let conn = connect(&server);
        let mut burst = Vec::new();
        Request::post("/slow", "first")
            .with_header("Connection", "keep-alive")
            .write_into(&mut burst);
        Request::post("/fast", "second")
            .with_header(DEADLINE_HEADER, "30")
            .write_into(&mut burst);
        (&conn).write_all(&burst).unwrap();
        let mut reader = BufReader::new(&conn);
        let first = Response::read_from_buffered(&mut reader).unwrap();
        let second = Response::read_from_buffered(&mut reader).unwrap();
        assert_eq!(first.body_str(), "first", "{arm:?}");
        assert_eq!(second.status, Status::ServiceUnavailable, "{arm:?}");
        assert!(
            second.body_str().contains("DEADLINE_EXCEEDED"),
            "{arm:?}: {second:?}"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "{arm:?}: request 2 ran");
        assert_eq!(server.stats().snapshot().shed_deadline, 1, "{arm:?}");
        server.shutdown();
    }
}

/// Consults the seeded hook only for requests under `/chaos`, so the rest
/// of the stream keeps deterministic answers while both arms draw the same
/// fault sequence.
struct ChaosUnder(SeededServerChaos);

impl ServerChaos for ChaosUnder {
    fn decide(&self, req: &Request) -> ServerFault {
        if req.path.starts_with("/chaos") {
            self.0.decide(req)
        } else {
            ServerFault::Deliver
        }
    }
}

/// One connection's worth of client behaviour.
#[derive(Debug, Clone)]
enum Script {
    /// One request, no keep-alive.
    Single(Vec<u8>),
    /// Keep-alive requests sent one at a time, each answered before the
    /// next is written; the last asks to close.
    KeepAlive(Vec<Vec<u8>>),
    /// Keep-alive requests written in one burst; the last asks to close.
    Pipelined(Vec<Vec<u8>>),
    /// Bytes that never parse as a request.
    Malformed,
    /// A terminated head past the cap.
    OversizedHead,
    /// A spent `X-Deadline-Ms` budget.
    Expired,
    /// A deadline request pipelined behind a slow one.
    BehindSlow,
    /// Half a request, then the client stops sending.
    HalfSent,
}

fn body(rng: &mut ChaosRng, max: u64) -> Vec<u8> {
    (0..rng.below(max))
        .map(|_| b'a' + rng.below(26) as u8)
        .collect()
}

/// The seeded stream: every script kind once, then a seeded mix with the
/// chaos-hooked paths interleaved.
fn scripts(seed: u64) -> Vec<Script> {
    let mut rng = ChaosRng::new(seed);
    let mut out = vec![
        Script::Single(body(&mut rng, 64)),
        Script::Single(vec![b'z'; 150 * 1024]), // spans several reads
        Script::KeepAlive((0..3).map(|_| body(&mut rng, 64)).collect()),
        Script::Pipelined((0..4).map(|_| body(&mut rng, 64)).collect()),
        Script::Malformed,
        Script::OversizedHead,
        Script::Expired,
        Script::BehindSlow,
        Script::HalfSent,
    ];
    for _ in 0..24 {
        let n = 1 + rng.below(3) as usize;
        let bodies: Vec<Vec<u8>> = (0..n).map(|_| body(&mut rng, 32)).collect();
        out.push(match rng.below(5) {
            0 => Script::Single(body(&mut rng, 32)),
            1 | 2 => Script::KeepAlive(bodies),
            _ => Script::Pipelined(bodies),
        });
    }
    out
}

fn request(path: &str, body: &[u8], keep_alive: bool) -> Request {
    let req = Request::post(path, body.to_vec());
    if keep_alive {
        req.with_header("Connection", "keep-alive")
    } else {
        req
    }
}

/// Requests of a keep-alive script: all but the last keep the connection.
fn series(path: &str, bodies: &[Vec<u8>]) -> Vec<Request> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, b)| request(path, b, i + 1 < bodies.len()))
        .collect()
}

/// Read one response frame's raw bytes; false if the connection ended
/// before the frame did.
fn read_frame(reader: &mut impl BufRead, into: &mut Vec<u8>) -> bool {
    let mut content_length = 0usize;
    loop {
        let start = into.len();
        match reader.read_until(b'\n', into) {
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        let line = String::from_utf8_lossy(&into[start..]).to_ascii_lowercase();
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
        if line.trim().is_empty() {
            break;
        }
    }
    let mut body = vec![0u8; content_length];
    let ok = reader.read_exact(&mut body).is_ok();
    into.extend_from_slice(&body);
    ok
}

/// Run one script on a fresh connection; everything the server sent,
/// read to EOF.
fn run(server: &ServerHandle, script: &Script, index: usize) -> Vec<u8> {
    let conn = connect(server);
    let path = if index.is_multiple_of(3) {
        "/chaos"
    } else {
        "/echo"
    };
    let mut reader = BufReader::new(&conn);
    let mut got = Vec::new();
    let send = |bytes: &[u8]| {
        let _ = (&conn).write_all(bytes);
    };
    match script {
        Script::Single(b) => send(&request(path, b, false).to_bytes()),
        Script::KeepAlive(bodies) => {
            for req in series(path, bodies) {
                send(&req.to_bytes());
                if !read_frame(&mut reader, &mut got) {
                    break;
                }
            }
        }
        Script::Pipelined(bodies) => {
            let mut burst = Vec::new();
            for req in series(path, bodies) {
                req.write_into(&mut burst);
            }
            send(&burst);
        }
        Script::Malformed => send(b"NONSENSE\r\nthis is not a header\r\n\r\n"),
        Script::OversizedHead => send(&long_head(100 * 1024)),
        Script::Expired => send(
            &Request::post("/echo", "late")
                .with_header(DEADLINE_HEADER, "0")
                .to_bytes(),
        ),
        Script::BehindSlow => {
            let mut burst = request("/slow", b"first", true).to_bytes();
            Request::post("/echo", "second")
                .with_header(DEADLINE_HEADER, "30")
                .write_into(&mut burst);
            send(&burst);
        }
        Script::HalfSent => {
            send(&request("/echo", b"0123456789", false).to_bytes()[..30]);
            let _ = conn.shutdown(Shutdown::Write);
        }
    }
    let _ = reader.read_to_end(&mut got);
    got
}

/// The counters the shared pipeline owns. Driver-owned counters are left
/// out on purpose: `connections`, `scratch_*`, `queue_depth_high_water`,
/// `open_connections`, `connections_high_water` and `listener_pauses`.
fn pipeline_counters(s: &StatsSnapshot) -> [(&'static str, u64); 12] {
    [
        ("requests", s.requests),
        ("bytes_sent", s.bytes_sent),
        ("bytes_received", s.bytes_received),
        ("bad_requests", s.bad_requests),
        ("shed_deadline", s.shed_deadline),
        ("chaos_connect_refused", s.chaos_connect_refused),
        ("chaos_mid_stream_closes", s.chaos_mid_stream_closes),
        ("chaos_truncations", s.chaos_truncations),
        ("chaos_corruptions", s.chaos_corruptions),
        ("chaos_delays", s.chaos_delays),
        ("chaos_stale_closes", s.chaos_stale_closes),
        ("chaos_drops", s.chaos_drops),
    ]
}

#[test]
fn arms_answer_a_seeded_stream_identically() {
    let seed = 0xA11_5EED;
    let stream = scripts(seed);
    let chaos_mix = ServerChaosConfig {
        drop: 0.2,
        delay: 0.2,
        truncate: 0.2,
        max_delay_ms: 3,
    };
    let mut results = Vec::new();
    for arm in ARMS {
        let calls = Arc::new(AtomicUsize::new(0));
        let hook = Arc::new(ChaosUnder(SeededServerChaos::new(seed, chaos_mix)));
        let server = start(arm, slow_echo(&calls), Some(hook));
        let before = server.stats().snapshot();
        let answers: Vec<Vec<u8>> = stream
            .iter()
            .enumerate()
            .map(|(i, script)| run(&server, script, i))
            .collect();
        let delta = server.stats().snapshot().since(&before);
        server.shutdown();
        results.push((arm, answers, delta));
    }
    let (_, blocking, b_delta) = &results[0];
    let (_, reactor, r_delta) = &results[1];
    for (i, script) in stream.iter().enumerate() {
        assert!(
            blocking[i] == reactor[i],
            "connection {i} ({script:?}) differs:\nblocking: {}\nreactor:  {}",
            String::from_utf8_lossy(&blocking[i]),
            String::from_utf8_lossy(&reactor[i]),
        );
    }
    assert_eq!(pipeline_counters(b_delta), pipeline_counters(r_delta));
    // The stream exercised what it claims to.
    assert_eq!(b_delta.bad_requests, 3, "{b_delta:?}");
    assert_eq!(b_delta.shed_deadline, 2, "{b_delta:?}");
    assert!(b_delta.chaos_drops > 0, "{b_delta:?}");
    assert!(b_delta.chaos_truncations > 0, "{b_delta:?}");
    assert!(b_delta.chaos_delays > 0, "{b_delta:?}");
}
