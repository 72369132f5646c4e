//! E13 — chunked streaming data path: bounded-memory, pipelined SRB
//! transfer over the pooled wire, against the single-envelope 2002 path.
//!
//! Three arms per file size, all through a real TCP `HttpServer` with a
//! pooled keep-alive client:
//!
//! 1. **string** — the paper's `put`/`get` string round trip: the whole
//!    file travels as one SOAP envelope, so peak buffering is the file
//!    size and the wire frame cap (`MAX_BODY_BYTES`) is a hard ceiling.
//! 2. **base64** — `putB64`/`getB64`: same single envelope, ~4/3 the
//!    bytes on the wire, same linear buffering and the same ceiling.
//! 3. **chunked** — the E13 transfer protocol (`open_put`/`put_chunk`/
//!    `commit`, `open_get`/`get_chunk`), pipelined by [`TransferClient`]
//!    with a bounded in-flight window, swept over chunk size × window.
//!
//! For each row we record MiB/s per direction, each the median over
//! repeated transfers (enough to move at least 16 MiB; one transfer of
//! 16 MiB and above), and the peak per-transfer buffering over the row:
//! the materialized payload for the single-envelope arms (linear in file
//! size), the client resident high-water plus the server reorder-buffer
//! high-water for the chunked arm (bounded by window × chunk by
//! construction). An arm whose envelope exceeds the
//! frame cap records 0 MiB/s — that is the measurement, not an error.
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e13_transfer -- \
//!     [--quick] [--json PATH]
//! ```
//!
//! Exits nonzero if any chunked row's peak buffering exceeds
//! (window + 1) × chunk — the bounded-memory claim is the gate.
//!
//! A `codec` row records, from the same run, the speed of the base64
//! kernel every chunk goes through: `base64::encode` and `decode` MiB/s on
//! the 1 MiB payload. It is recorded only, not gated.

use std::sync::Arc;

use portalws_bench::measure::{self, median};
use portalws_core::{TransferClient, TransferConfig};
use portalws_gridsim::Srb;
use portalws_services::DataManagementService;
use portalws_soap::{base64, SoapClient, SoapValue};
use portalws_wire::{Handler, HttpServer, PooledTransport, ServerHandle};

const MIB: usize = 1024 * 1024;

/// One measured transfer.
struct Row {
    arm: String,
    size: usize,
    /// 0 for the single-envelope arms (no chunking).
    chunk: usize,
    /// 0 for the single-envelope arms (no pipelining).
    window: usize,
    put_mib_s: f64,
    get_mib_s: f64,
    /// Peak bytes buffered for one transfer, client + server.
    peak_buffer: usize,
    /// Chunk round trips for the chunked arm (0 otherwise).
    chunks: usize,
}

/// A payload that is valid UTF-8, XML-inert, and incompressible enough
/// to be honest: repeated 64-byte lines with a rolling counter.
fn payload(size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    let mut i = 0usize;
    while out.len() < size {
        let line = format!("{i:08x} the quick brown fox jumps over the lazy dog 0123456789a\n");
        let take = line.len().min(size - out.len());
        out.extend_from_slice(&line.as_bytes()[..take]);
        i = i.wrapping_add(1);
    }
    out
}

/// Timed passes per codec direction; the median is reported.
const CODEC_PASSES: usize = 9;

/// Same-run speed of the base64 kernel on `body`: `(encode, decode)` in
/// MiB of payload per second, each the median of [`CODEC_PASSES`] passes.
fn codec_mib_s(body: &[u8]) -> (f64, f64) {
    let mib = body.len() as f64 / MIB as f64;
    let text = base64::encode(body);
    let encode = median(CODEC_PASSES, || {
        std::hint::black_box(base64::encode(std::hint::black_box(body)));
    });
    let decode = median(CODEC_PASSES, || {
        std::hint::black_box(base64::decode(std::hint::black_box(&text)));
    });
    (mib / encode.as_secs_f64(), mib / decode.as_secs_f64())
}

struct Rig {
    srb: Arc<Srb>,
    data: Arc<DataManagementService>,
    server: ServerHandle,
    client: SoapClient,
}

fn rig() -> Rig {
    let srb = Arc::new(Srb::new());
    srb.mkdir("/data").expect("mkdir /data");
    let data = Arc::new(DataManagementService::new(Arc::clone(&srb)));
    let server = portalws_soap::SoapServer::new();
    server.mount(Arc::clone(&data) as Arc<dyn portalws_soap::SoapService>);
    let handler: Arc<dyn Handler> = Arc::new(server);
    let server = HttpServer::start(handler, 8).expect("bind");
    let client = SoapClient::new(
        Arc::new(PooledTransport::new(server.addr())),
        "DataManagement",
    );
    Rig {
        srb,
        data,
        server,
        client,
    }
}

/// Single-envelope arm: `put`-flavored calls up, `get`-flavored calls
/// down, each direction timed as the median of `repeats` calls. Returns
/// MiB/s per direction; a frame-cap rejection (or any other failure)
/// measures as 0.
fn single_envelope(rig: &Rig, arm: &str, body: &[u8], repeats: usize) -> Row {
    let size = body.len();
    let up_path = format!("/data/up-{arm}-{size}");
    let down_path = format!("/data/down-{arm}-{size}");
    rig.srb
        .put("anonymous", &down_path, body)
        .expect("seed download object");

    let (put_method, put_args): (&str, Vec<SoapValue>) = match arm {
        "string" => (
            "put",
            vec![
                SoapValue::str(&up_path),
                SoapValue::String(String::from_utf8(body.to_vec()).expect("utf8 payload")),
            ],
        ),
        _ => (
            "putB64",
            vec![SoapValue::str(&up_path), SoapValue::Base64(body.to_vec())],
        ),
    };
    let mut put_ok = true;
    let put_s = median(repeats, || {
        put_ok &= rig.client.call(put_method, &put_args).is_ok();
    })
    .as_secs_f64();

    let get_method = if arm == "string" { "get" } else { "getB64" };
    let mut get_ok = true;
    let get_s = median(repeats, || {
        get_ok &= rig
            .client
            .call(get_method, &[SoapValue::str(&down_path)])
            .is_ok();
    })
    .as_secs_f64();

    let mib = size as f64 / MIB as f64;
    Row {
        arm: arm.to_owned(),
        size,
        chunk: 0,
        window: 0,
        put_mib_s: if put_ok { mib / put_s } else { 0.0 },
        get_mib_s: if get_ok { mib / get_s } else { 0.0 },
        // The whole payload is materialized at once on both ends; base64
        // expands 4/3 on the wire. Linear in file size by definition.
        peak_buffer: if arm == "string" { size } else { size * 4 / 3 },
        chunks: 0,
    }
}

/// Chunked arm: pipelined puts then pipelined gets through the transfer
/// protocol, each direction timed as the median of `repeats` transfers.
/// Peak buffering is measured, not assumed, over all of the row's
/// transfers: client resident high-water from the [`TransferClient`]
/// reports, server reorder-buffer high-water from the transfer table.
fn chunked(rig: &Rig, body: &[u8], chunk: usize, window: usize, repeats: usize) -> Row {
    let size = body.len();
    let path = format!("/data/chunked-{size}-{chunk}-{window}");
    let cfg = TransferConfig {
        chunk_bytes: chunk,
        window,
        ..TransferConfig::default()
    };
    let tc = TransferClient::with_config(&rig.client, cfg);

    let (mut client_high, mut put_chunks, mut get_chunks) = (0, 0, 0);
    let put_s = median(repeats, || {
        let report = tc.put(&path, body).expect("chunked put");
        client_high = client_high.max(report.buffer_high_water);
        put_chunks = report.chunks;
    })
    .as_secs_f64();
    let get_s = median(repeats, || {
        let (back, report) = tc.get(&path).expect("chunked get");
        assert_eq!(back, body, "chunked round trip must be lossless");
        client_high = client_high.max(report.buffer_high_water);
        get_chunks = report.chunks;
    })
    .as_secs_f64();

    let server_high = rig.data.transfers().buffered_high_water();
    let mib = size as f64 / MIB as f64;
    Row {
        arm: "chunked".into(),
        size,
        chunk,
        window,
        put_mib_s: mib / put_s,
        get_mib_s: mib / get_s,
        peak_buffer: client_high.max(server_high),
        chunks: put_chunks + get_chunks,
    }
}

/// Transfers timed per row: enough to move at least 16 MiB, so rows of
/// small files are not single-sample noise; one at 16 MiB and above.
fn repeats(size: usize) -> usize {
    (16 * MIB).div_ceil(size).max(1)
}

fn main() {
    let args = measure::E13_TRANSFER.from_env();

    // 64 MiB is always in the sweep: it is the point past the wire frame
    // cap where the single-envelope arms stop working at all, which is
    // the headline comparison.
    let sizes: &[usize] = if args.quick {
        &[MIB, 64 * MIB]
    } else {
        &[MIB, 4 * MIB, 16 * MIB, 64 * MIB]
    };
    let chunks: &[usize] = if args.quick {
        &[256 * 1024]
    } else {
        &[256 * 1024, MIB]
    };
    let windows: &[usize] = &[2, 4];

    println!("E13 — chunked streaming vs single-envelope transfer (pooled TCP)");
    println!(
        "\n  {:<8} {:>8} {:>9} {:>7} {:>10} {:>10} {:>13} {:>7}",
        "arm", "size", "chunk", "window", "put MiB/s", "get MiB/s", "peak buffer", "chunks"
    );

    let print_row = |row: &Row| {
        println!(
            "  {:<8} {:>8} {:>9} {:>7} {:>10.1} {:>10.1} {:>13} {:>7}",
            row.arm,
            row.size,
            row.chunk,
            row.window,
            row.put_mib_s,
            row.get_mib_s,
            row.peak_buffer,
            row.chunks,
        );
    };

    let codec_body = payload(MIB);
    let (encode_mib_s, decode_mib_s) = codec_mib_s(&codec_body);

    let mut rows: Vec<Row> = Vec::new();
    for &size in sizes {
        let body = payload(size);
        let r = rig();
        for arm in ["string", "base64"] {
            let row = single_envelope(&r, arm, &body, repeats(size));
            print_row(&row);
            rows.push(row);
        }
        r.server.shutdown();
        for &chunk in chunks {
            for &window in windows {
                // A fresh rig per row so the server-side buffering
                // high-water is attributable to this row's transfers.
                let r = rig();
                let row = chunked(&r, &body, chunk, window, repeats(size));
                print_row(&row);
                rows.push(row);
                r.server.shutdown();
            }
        }
    }

    println!(
        "\n  codec    {:>8}  base64 encode {encode_mib_s:.1} MiB/s, decode {decode_mib_s:.1} MiB/s",
        codec_body.len()
    );

    // --- The bounded-memory gate -----------------------------------------
    // Client residency is bounded by window × chunk by construction, and
    // the server reorder buffer can hold at most the in-flight window.
    // Allow one chunk of slack for the frontier chunk being appended.
    let mut failures = Vec::new();
    for row in rows.iter().filter(|r| r.arm == "chunked") {
        let bound = (row.window + 1) * row.chunk;
        if row.peak_buffer > bound {
            failures.push(format!(
                "chunked {} MiB (chunk {}, window {}): peak buffer {} > bound {}",
                row.size / MIB,
                row.chunk,
                row.window,
                row.peak_buffer,
                bound
            ));
        }
    }

    // Headline comparison at the largest size: the chunked path must beat
    // the single-envelope base64 arm (which scores 0 past the frame cap).
    let top = *sizes.last().expect("sizes nonempty");
    let best_chunked = rows
        .iter()
        .filter(|r| r.arm == "chunked" && r.size == top)
        .map(|r| r.put_mib_s.min(r.get_mib_s))
        .fold(0.0f64, f64::max);
    let b64 = rows
        .iter()
        .find(|r| r.arm == "base64" && r.size == top)
        .map(|r| r.put_mib_s.min(r.get_mib_s))
        .unwrap_or(0.0);
    println!(
        "\n  at {} MiB: chunked {best_chunked:.1} MiB/s vs single-envelope base64 {b64:.1} MiB/s",
        top / MIB
    );
    if best_chunked <= b64 {
        failures.push(format!(
            "chunked ({best_chunked:.1} MiB/s) did not beat single-envelope base64 ({b64:.1} MiB/s) at {} MiB",
            top / MIB
        ));
    }

    if let Some(path) = &args.json {
        let mut doc = String::new();
        doc.push_str("{\n  \"rows\": [\n");
        for (i, row) in rows.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"arm\": \"{}\", \"size\": {}, \"chunk\": {}, \"window\": {}, \"put_mib_s\": {:.2}, \"get_mib_s\": {:.2}, \"peak_buffer\": {}, \"chunks\": {}}}{}\n",
                row.arm,
                row.size,
                row.chunk,
                row.window,
                row.put_mib_s,
                row.get_mib_s,
                row.peak_buffer,
                row.chunks,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        doc.push_str(&format!(
            "  ],\n  \"codec\": {{\"size\": {}, \"encode_mib_s\": {encode_mib_s:.2}, \"decode_mib_s\": {decode_mib_s:.2}}}\n}}\n",
            codec_body.len()
        ));
        std::fs::write(path, doc).expect("write json");
        println!("\nwrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("\nbounded-memory gate passed: chunked peak ≤ (window + 1) × chunk");
}
