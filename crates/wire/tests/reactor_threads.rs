//! The reactor's "no thread per connection" claim, pinned on the
//! process-wide thread count. It lives alone in its own test binary: a
//! sibling test starting servers in parallel would move that count and
//! fail the exact comparison for reasons unrelated to the reactor.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use portalws_wire::{Handler, HttpServer, Request, Response};

fn echo_handler() -> Arc<dyn Handler> {
    Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()))
}

/// Current thread count of this process (Linux).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn thousand_idle_keep_alive_connections_on_one_worker() {
    // The acceptance claim: one reactor worker sustains ≥1k parked
    // keep-alive connections with no per-connection thread, and still
    // serves active traffic. (The blocking arm would pin its single
    // worker on the first idle connection and starve the rest.)
    let server = HttpServer::start_reactor(echo_handler(), 1).unwrap();
    let addr = server.addr();
    let threads_before = process_threads();
    let mut parked = Vec::with_capacity(1000);
    for i in 0..1000 {
        let mut conn = TcpStream::connect(addr).unwrap();
        let req = Request::post("/x", format!("park-{i}")).with_header("Connection", "keep-alive");
        conn.write_all(&req.to_bytes()).unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.body_str(), format!("park-{i}"));
        parked.push(conn);
    }
    // No thread per connection: the process grew by zero threads
    // while 1000 connections went idle.
    assert_eq!(
        process_threads(),
        threads_before,
        "reactor must not spawn per-connection threads"
    );
    let snap = server.stats().snapshot();
    assert!(snap.connections_high_water >= 1000, "snapshot: {snap:?}");
    // Active traffic still flows across the parked herd...
    let mut active = TcpStream::connect(addr).unwrap();
    active
        .write_all(&Request::post("/x", "still-alive").to_bytes())
        .unwrap();
    assert_eq!(
        Response::read_from(&active).unwrap().body_str(),
        "still-alive"
    );
    // ...and so do the parked connections themselves.
    for (i, conn) in parked.iter_mut().enumerate().step_by(250) {
        let req = Request::post("/x", format!("wake-{i}")).with_header("Connection", "keep-alive");
        conn.write_all(&req.to_bytes()).unwrap();
        let resp = Response::read_from(&*conn).unwrap();
        assert_eq!(resp.body_str(), format!("wake-{i}"));
    }
    assert_eq!(server.stats().snapshot().requests, 1005);
    server.shutdown();
}
