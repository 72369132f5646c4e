//! E11 — substrate throughput: the zero-copy XML substrate and per-worker
//! buffer reuse, measured end to end.
//!
//! Two series:
//!
//! 1. **µs/envelope** — median parse and serialize time for the
//!    representative SOAP envelope (a `submitXml` request with a SAML
//!    header), the unit the whole SOAP hot path is built from.
//! 2. **req/s vs worker count, per server arm** — closed-loop load
//!    against a pooled TCP server: one keep-alive client per server
//!    worker, each echoing the representative job payload through a full
//!    SOAP round trip, run on both the blocking thread-per-connection arm
//!    and the epoll reactor arm. Reuse diagnostics (scratch growths,
//!    capacity high-water, escape/unescape fast-path rates) come from the
//!    server's `WireStats`.
//! 3. **req/s vs idle connection count** — the axis the blocking arm
//!    cannot run at all: N idle keep-alive connections parked on ONE
//!    reactor worker while a handful of active clients drive closed-loop
//!    traffic through the same worker. (The blocking arm pins its worker
//!    on the first idle connection and starves every later one.)
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e11_substrate -- \
//!     [--quick] [--json PATH] [--baseline PATH]
//! ```
//!
//! `--json` writes the measurements as `BENCH_substrate.json`; `--baseline`
//! compares parse µs/envelope against a committed baseline and exits
//! nonzero on a >2× regression (the CI smoke gate).

use std::sync::Arc;
use std::time::{Duration, Instant};

use portalws_bench::measure::{self, median};
use portalws_bench::{jobs_request, representative_envelope};
use portalws_soap::{
    CallContext, Envelope, Fault, MethodDesc, SoapClient, SoapResult, SoapServer, SoapService,
    SoapType, SoapValue,
};
use portalws_wire::{Handler, HttpServer, PooledTransport};
use portalws_xml::stats::fast_path_rate;

/// Echo service: one full envelope decode + encode per call, so the
/// round trip is dominated by the substrate under measurement.
struct EchoService;

impl SoapService for EchoService {
    fn name(&self) -> &str {
        "Echo"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        _ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        match method {
            "echo" => Ok(args
                .first()
                .map(|(_, v)| v.clone())
                .unwrap_or(SoapValue::Null)),
            other => Err(Fault::client(format!("no method {other:?}"))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![MethodDesc::new(
            "echo",
            vec![("value", SoapType::Xml)],
            SoapType::Xml,
            "Echo the argument",
        )]
    }
}

struct ThroughputRow {
    arm: &'static str,
    workers: usize,
    req_per_s: f64,
    scratch_growths: u64,
    scratch_high_water: u64,
    escape_fast_path_rate: f64,
    unescape_fast_path_rate: f64,
}

/// Closed-loop load: `workers` keep-alive clients against a server with
/// `workers` worker threads, `per_client` echo calls each, on the chosen
/// server arm (`"blocking"` or `"reactor"`).
fn throughput(arm: &'static str, workers: usize, per_client: usize) -> ThroughputRow {
    let soap = SoapServer::new();
    soap.mount(Arc::new(EchoService));
    let handler: Arc<dyn Handler> = Arc::new(soap);
    let server = match arm {
        "reactor" => HttpServer::start_reactor(handler, workers),
        _ => HttpServer::start(handler, workers),
    }
    .expect("bind");
    let addr = server.addr();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                let client = SoapClient::new(Arc::new(PooledTransport::new(addr)), "Echo");
                let payload = SoapValue::Xml(jobs_request(4, 30, 2));
                for _ in 0..per_client {
                    client
                        .call("echo", std::slice::from_ref(&payload))
                        .expect("echo");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let snap = server.stats().snapshot();
    let row = ThroughputRow {
        arm,
        workers,
        req_per_s: (workers * per_client) as f64 / elapsed,
        scratch_growths: snap.scratch_growths,
        scratch_high_water: snap.scratch_high_water,
        escape_fast_path_rate: snap.escape_fast_path_rate(),
        unescape_fast_path_rate: snap.unescape_fast_path_rate(),
    };
    server.shutdown();
    row
}

struct IdleMixRow {
    idle: usize,
    active: usize,
    req_per_s: f64,
    connections_high_water: u64,
}

/// The connection-count axis: park `idle` keep-alive connections on ONE
/// reactor worker, then run `active` closed-loop clients through the same
/// worker. The parked herd must neither block the active traffic nor cost
/// a thread apiece — the server-side `connections_high_water` gauge
/// verifies the herd was actually simultaneous.
fn idle_mix(idle: usize, active: usize, per_client: usize) -> IdleMixRow {
    let soap = SoapServer::new();
    soap.mount(Arc::new(EchoService));
    let handler: Arc<dyn Handler> = Arc::new(soap);
    let server = HttpServer::start_reactor(handler, 1).expect("bind");
    let addr = server.addr();

    let parked: Vec<std::net::TcpStream> = (0..idle)
        .map(|_| std::net::TcpStream::connect(addr).expect("dial idle"))
        .collect();
    // Let the single worker register the whole herd before measuring.
    std::thread::sleep(Duration::from_millis(100));

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..active {
            scope.spawn(move || {
                let client = SoapClient::new(Arc::new(PooledTransport::new(addr)), "Echo");
                let payload = SoapValue::Xml(jobs_request(4, 30, 2));
                for _ in 0..per_client {
                    client
                        .call("echo", std::slice::from_ref(&payload))
                        .expect("echo");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let snap = server.stats().snapshot();
    let row = IdleMixRow {
        idle,
        active,
        req_per_s: (active * per_client) as f64 / elapsed,
        connections_high_water: snap.connections_high_water,
    };
    drop(parked);
    server.shutdown();
    row
}

fn main() {
    let args = measure::E11_SUBSTRATE.from_env();
    let (micro_iters, per_client) = if args.quick { (300, 100) } else { (3000, 1500) };

    // --- Series 1: µs/envelope for the representative envelope ----------
    let env = representative_envelope();
    let xml = env.to_xml();

    if args.assert_no_alloc {
        // Dynamic cross-check of portalint's static hot-path-alloc gate:
        // the lint proves no allocation site is reachable from the
        // parse/serialize entry points (outside audited allows), so the
        // substrate's owned-path counters must stay flat — identical
        // envelope batches must produce identical escape/unescape
        // allocate counts, at the borrow-path rate the zero-copy rework
        // pinned.
        for _ in 0..10 {
            std::hint::black_box(Envelope::parse(&xml).expect("parse"));
            std::hint::black_box(env.to_xml());
        }
        let iters = 200u64;
        let run_batch = || {
            let before = portalws_xml::stats::snapshot();
            for _ in 0..iters {
                std::hint::black_box(Envelope::parse(&xml).expect("parse"));
                std::hint::black_box(env.to_xml());
            }
            portalws_xml::stats::snapshot().since(&before)
        };
        let first = run_batch();
        let second = run_batch();
        println!(
            "E11 --assert-no-alloc: per {iters} envelopes — escape_owned {}→{}, unescape_owned {}→{}, escape-fast {:.3}, unescape-fast {:.3}",
            first.escape_owned,
            second.escape_owned,
            first.unescape_owned,
            second.unescape_owned,
            fast_path_rate(second.escape_borrowed, second.escape_owned),
            fast_path_rate(second.unescape_borrowed, second.unescape_owned),
        );
        assert_eq!(
            (second.escape_owned, second.unescape_owned),
            (first.escape_owned, first.unescape_owned),
            "substrate allocate-rate changed between identical batches: a data-dependent allocation is hiding on the hot path"
        );
        assert_eq!(
            (second.escape_owned, second.unescape_owned),
            (0, 0),
            "representative envelope took an owned escape/unescape path: the static hot-path-alloc result (0 unsuppressed) no longer matches runtime"
        );
        println!(
            "E11 --assert-no-alloc: OK (owned-path rate 0 per envelope, matching the static gate)"
        );
        return;
    }
    let parse_us = median(micro_iters, || {
        let parsed = Envelope::parse(&xml).expect("parse");
        std::hint::black_box(parsed);
    })
    .as_secs_f64()
        * 1e6;
    let serialize_us = median(micro_iters, || {
        std::hint::black_box(env.to_xml());
    })
    .as_secs_f64()
        * 1e6;

    println!("E11 — substrate throughput (envelope: {} bytes)", xml.len());
    println!("  parse:     {parse_us:>8.2} µs/envelope");
    println!("  serialize: {serialize_us:>8.2} µs/envelope");

    // --- Series 2: closed-loop req/s vs worker count, per arm ------------
    println!(
        "\n  arm        workers   req/s   scratch-growths   high-water   escape-fast   unescape-fast"
    );
    let mut rows = Vec::new();
    for arm in ["blocking", "reactor"] {
        for workers in [1usize, 2, 4, 8] {
            let row = throughput(arm, workers, per_client);
            println!(
                "  {:<9}  {:>7}   {:>7.0}   {:>15}   {:>10}   {:>10.3}   {:>12.3}",
                row.arm,
                row.workers,
                row.req_per_s,
                row.scratch_growths,
                row.scratch_high_water,
                row.escape_fast_path_rate,
                row.unescape_fast_path_rate,
            );
            rows.push(row);
        }
    }

    // --- Series 3: req/s vs idle keep-alive connections (reactor only) ---
    // The blocking arm cannot run this axis: its workers would pin on the
    // idle herd and the active clients would never be served.
    let idle_counts: &[usize] = if args.quick { &[100] } else { &[100, 1000] };
    println!("\n  idle-conns   active   req/s   conn-high-water   (1 reactor worker)");
    let mut idle_rows = Vec::new();
    for &idle in idle_counts {
        let row = idle_mix(idle, 4, per_client);
        println!(
            "  {:>10}   {:>6}   {:>7.0}   {:>15}",
            row.idle, row.active, row.req_per_s, row.connections_high_water,
        );
        idle_rows.push(row);
    }

    // --- JSON artifact ----------------------------------------------------
    if let Some(path) = args.json {
        let mut doc = String::new();
        doc.push_str("{\n");
        doc.push_str(&format!("  \"envelope_bytes\": {},\n", xml.len()));
        doc.push_str(&format!("  \"parse_us\": {parse_us:.3},\n"));
        doc.push_str(&format!("  \"serialize_us\": {serialize_us:.3},\n"));
        doc.push_str("  \"throughput\": [\n");
        for (i, row) in rows.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"arm\": \"{}\", \"workers\": {}, \"req_per_s\": {:.1}, \"scratch_growths\": {}, \"scratch_high_water\": {}, \"escape_fast_path_rate\": {:.4}, \"unescape_fast_path_rate\": {:.4}}}{}\n",
                row.arm,
                row.workers,
                row.req_per_s,
                row.scratch_growths,
                row.scratch_high_water,
                row.escape_fast_path_rate,
                row.unescape_fast_path_rate,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        doc.push_str("  ],\n");
        doc.push_str("  \"idle_mix\": [\n");
        for (i, row) in idle_rows.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"idle\": {}, \"active\": {}, \"req_per_s\": {:.1}, \"connections_high_water\": {}}}{}\n",
                row.idle,
                row.active,
                row.req_per_s,
                row.connections_high_water,
                if i + 1 < idle_rows.len() { "," } else { "" },
            ));
        }
        doc.push_str("  ]\n}\n");
        std::fs::write(&path, doc).expect("write json");
        println!("\nwrote {path}");
    }

    // --- Baseline gate ----------------------------------------------------
    if let Some(baseline) = &args.baseline {
        let base_parse = baseline.number("parse_us");
        println!("baseline parse: {base_parse:.2} µs/envelope, current: {parse_us:.2} µs/envelope");
        if parse_us > 2.0 * base_parse {
            eprintln!(
                "FAIL: parse-per-envelope regressed >2x ({parse_us:.2} µs vs baseline {base_parse:.2} µs)"
            );
            std::process::exit(1);
        }
        println!("baseline gate passed (threshold 2x)");
    }
}
