//! Client side of the chunked streaming transfer protocol (E13).
//!
//! [`TransferClient`] decorates a bound `DataManagement` proxy and moves a
//! file as a *pipeline* of bounded chunk calls over the pooled keep-alive
//! transport: up to `window` chunk requests are in flight concurrently
//! across pooled connections, so the wire stays busy while the client's
//! resident transfer memory stays O(window × chunk) — never O(file), the
//! failure mode of the paper's single-envelope string streaming.
//!
//! The memory bound is enforced by construction, not measured after the
//! fact: a worker may only claim the next chunk while the claimed-but-
//! undelivered span is under `window × chunk_bytes`, and the high-water of
//! that span is reported per transfer (and into the transport's
//! [`portalws_wire::WireStats`]) so E13 can assert it.
//!
//! Resume semantics lean on the server's idempotent protocol: every chunk
//! method is marked idempotent (the pooled transport's retry policy
//! re-sends it after a transport fault), `get_chunk` is a pure ranged
//! read, a duplicate `put_chunk` is acknowledged without re-appending, and
//! a retried `commit`/`abort` of a settled handle succeeds. On top of
//! that, a small bounded per-chunk retry loop rides out fault bursts;
//! transport errors that exhaust it are surfaced through the canonical
//! [`Fault::from_wire`] taxonomy.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use portalws_services::transfer::MAX_RESERVE_BYTES;
use portalws_soap::{Fault, PortalErrorKind, SoapClient, SoapError, SoapValue};
use portalws_wire::Counter;

/// Default chunk payload size.
pub const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Default window of in-flight chunk requests.
pub const DEFAULT_WINDOW: usize = 4;

/// Default bound on attempts per chunk call (on top of the pooled
/// transport's own idempotent retries).
pub const DEFAULT_CHUNK_ATTEMPTS: usize = 8;

/// The six protocol methods; all safe to re-send, so all are marked
/// idempotent on the proxy.
const TRANSFER_METHODS: [&str; 6] = [
    "open_get",
    "get_chunk",
    "open_put",
    "put_chunk",
    "commit",
    "abort",
];

/// Tunables for one transfer client.
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Payload bytes per chunk call.
    pub chunk_bytes: usize,
    /// In-flight chunk requests allowed concurrently.
    pub window: usize,
    /// Attempts per chunk call before the transfer fails.
    pub chunk_attempts: usize,
}

impl Default for TransferConfig {
    fn default() -> TransferConfig {
        TransferConfig {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            window: DEFAULT_WINDOW,
            chunk_attempts: DEFAULT_CHUNK_ATTEMPTS,
        }
    }
}

/// What one transfer did: the asserted numbers of E13.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferReport {
    /// File-content bytes moved.
    pub bytes: usize,
    /// Chunk round-trips performed.
    pub chunks: usize,
    /// Peak resident transfer memory on this client (bytes claimed but
    /// not yet delivered/acknowledged). Bounded by window × chunk_bytes.
    pub buffer_high_water: usize,
}

/// Streaming transfer client over a bound `DataManagement` proxy.
pub struct TransferClient<'a> {
    client: &'a SoapClient,
    cfg: TransferConfig,
}

struct GetState {
    /// Next byte offset a worker may claim.
    next_claim: usize,
    /// Bytes delivered to the sink, in order.
    frontier: usize,
    /// Completed chunks waiting for the frontier to reach them.
    done: BTreeMap<usize, Vec<u8>>,
    /// Claimed-but-undelivered bytes (in flight + parked in `done`).
    resident: usize,
    high_water: usize,
    chunks: usize,
    failed: Option<SoapError>,
}

struct PutState {
    next_claim: usize,
    /// Highest append frontier the server has acknowledged.
    acked: usize,
    /// Claimed-but-unacknowledged bytes (chunk copies in flight).
    resident: usize,
    high_water: usize,
    chunks: usize,
    failed: Option<SoapError>,
}

impl<'a> TransferClient<'a> {
    /// Wrap a proxy with default tunables.
    pub fn new(client: &'a SoapClient) -> TransferClient<'a> {
        TransferClient::with_config(client, TransferConfig::default())
    }

    /// Wrap a proxy with explicit tunables. Marks the protocol methods
    /// idempotent on the proxy (additively) so the pooled transport's
    /// retry policy covers every chunk call.
    pub fn with_config(client: &'a SoapClient, cfg: TransferConfig) -> TransferClient<'a> {
        client.add_idempotent_methods(&TRANSFER_METHODS);
        TransferClient { client, cfg }
    }

    /// Is this failure worth retrying on an idempotent method? Transport
    /// errors and garbled replies (`Protocol`/`Xml`) are wire damage;
    /// *untyped* faults are a corrupted request the server could only
    /// answer with a generic parse fault; `Busy`, `AuthFailed`, and
    /// `HostUnavailable` are transient infrastructure answers (capacity
    /// pressure, an auth-verification hop that lost its own connection).
    /// Every other typed fault is a real protocol answer — fail fast.
    fn transient(err: &SoapError) -> bool {
        match err {
            SoapError::Transport(_) | SoapError::Protocol(_) | SoapError::Xml(_) => true,
            SoapError::Fault(f) => matches!(
                f.kind(),
                None | Some(PortalErrorKind::Busy)
                    | Some(PortalErrorKind::AuthFailed)
                    | Some(PortalErrorKind::HostUnavailable)
            ),
        }
    }

    /// One protocol call with a bounded retry loop over transient
    /// failures (every transfer method is idempotent by design). A
    /// transport error that survives the loop is folded through the
    /// canonical wire→fault table so callers always see the portal's
    /// typed taxonomy.
    fn call_retry(&self, method: &str, args: &[SoapValue]) -> Result<SoapValue, SoapError> {
        let attempts = self.cfg.chunk_attempts.max(1);
        let mut attempt = 0;
        loop {
            match self.client.call(method, args) {
                Err(e) if Self::transient(&e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(match e {
                            SoapError::Transport(w) => SoapError::Fault(Fault::from_wire(&w)),
                            other => other,
                        });
                    }
                    // Deterministic linear backoff; the pooled transport
                    // already jitters its own idempotent retries.
                    std::thread::sleep(Duration::from_millis((attempt as u64).min(8)));
                }
                other => return other,
            }
        }
    }

    /// Download `path` into memory, pre-sized to the size `open_get`
    /// announces (clamped to [`MAX_RESERVE_BYTES`]). See
    /// [`TransferClient::get_with`].
    pub fn get(&self, path: &str) -> Result<(Vec<u8>, TransferReport), SoapError> {
        let (handle, size) = self.open_get(path)?;
        let mut out = Vec::new();
        // A hint: if the reservation is refused the buffer grows as it fills.
        let _ = out.try_reserve_exact(size.min(MAX_RESERVE_BYTES));
        let report = self.stream_get(handle, size, |chunk| out.extend_from_slice(chunk))?;
        Ok((out, report))
    }

    /// Stream `path` to `sink` in order, with up to `window` chunk reads
    /// in flight. The sink sees each byte exactly once, in file order.
    pub fn get_with(
        &self,
        path: &str,
        sink: impl FnMut(&[u8]),
    ) -> Result<TransferReport, SoapError> {
        let (handle, size) = self.open_get(path)?;
        self.stream_get(handle, size, sink)
    }

    /// Open a read handle: `(handle, size)`.
    fn open_get(&self, path: &str) -> Result<(String, usize), SoapError> {
        let opened = self.call_retry("open_get", &[SoapValue::str(path)])?;
        let handle = opened
            .field("handle")
            .and_then(|v| v.as_str())
            .ok_or_else(|| SoapError::Protocol("open_get reply missing handle".into()))?
            .to_owned();
        let size = opened
            .field("size")
            .and_then(|v| v.as_i64())
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| SoapError::Protocol("open_get reply missing size".into()))?;
        Ok((handle, size))
    }

    /// Read the `size` bytes behind an open read handle into `sink`.
    fn stream_get(
        &self,
        handle: String,
        size: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<TransferReport, SoapError> {
        let chunk = self.cfg.chunk_bytes.max(1);
        let window = self.cfg.window.max(1);
        let budget = window.saturating_mul(chunk);

        let state = Mutex::new(GetState {
            next_claim: 0,
            frontier: 0,
            done: BTreeMap::new(),
            resident: 0,
            high_water: 0,
            chunks: 0,
            failed: None,
        });
        let cv = Condvar::new();
        let workers = window.min(size.div_ceil(chunk)).max(1);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Claim the next chunk, or wait until the window has
                    // room. Claims are contiguous, so the lowest claimed
                    // chunk is always the frontier chunk — its completion
                    // re-opens the window and progress is guaranteed.
                    let (off, len) = {
                        let mut st = state.lock().expect("transfer lock");
                        loop {
                            if st.failed.is_some() || st.next_claim >= size {
                                return;
                            }
                            if st.next_claim < st.frontier.saturating_add(budget) {
                                break;
                            }
                            st = cv.wait(st).expect("transfer lock");
                        }
                        let off = st.next_claim;
                        let len = chunk.min(size - off);
                        st.next_claim += len;
                        st.resident += len;
                        st.high_water = st.high_water.max(st.resident);
                        (off, len)
                    };
                    let fetched = self.call_retry(
                        "get_chunk",
                        &[
                            SoapValue::str(handle.clone()),
                            SoapValue::Int(off as i64),
                            SoapValue::Int(len as i64),
                        ],
                    );
                    let mut st = state.lock().expect("transfer lock");
                    match fetched {
                        Ok(SoapValue::Base64(data)) if data.len() == len => {
                            st.done.insert(off, data);
                            st.chunks += 1;
                        }
                        Ok(SoapValue::Base64(data)) => {
                            st.failed.get_or_insert(SoapError::Protocol(format!(
                                "get_chunk at {off} returned {} bytes, wanted {len}",
                                data.len()
                            )));
                        }
                        Ok(_) => {
                            st.failed.get_or_insert(SoapError::Protocol(
                                "get_chunk reply was not base64 data".into(),
                            ));
                        }
                        Err(e) => {
                            st.failed.get_or_insert(e);
                        }
                    }
                    cv.notify_all();
                });
            }

            // This thread is the deliverer: it hands chunks to the sink in
            // file order as they become contiguous with the frontier.
            loop {
                let (off, data) = {
                    let mut st = state.lock().expect("transfer lock");
                    loop {
                        if st.failed.is_some() || st.frontier >= size {
                            return;
                        }
                        let frontier = st.frontier;
                        if let Some(data) = st.done.remove(&frontier) {
                            break (frontier, data);
                        }
                        st = cv.wait(st).expect("transfer lock");
                    }
                };
                sink(&data);
                let mut st = state.lock().expect("transfer lock");
                st.frontier = off + data.len();
                st.resident -= data.len();
                cv.notify_all();
            }
        });

        // Free the handle server-side; best effort (it would idle out).
        let _ = self.client.call("abort", &[SoapValue::str(handle)]);

        let mut st = state.into_inner().expect("transfer lock");
        if let Some(e) = st.failed.take() {
            return Err(e);
        }
        let report = TransferReport {
            bytes: size,
            chunks: st.chunks,
            buffer_high_water: st.high_water,
        };
        self.record(&report);
        Ok(report)
    }

    /// Upload `data` to `path` with up to `window` chunk writes in
    /// flight. The destination only ever flips to the complete content
    /// (server-side staging + atomic commit); on failure the staged
    /// partial is abandoned via `abort`.
    pub fn put(&self, path: &str, data: &[u8]) -> Result<TransferReport, SoapError> {
        let handle = self
            .call_retry(
                "open_put",
                &[SoapValue::str(path), SoapValue::Int(data.len() as i64)],
            )?
            .as_str()
            .ok_or_else(|| SoapError::Protocol("open_put reply was not a handle".into()))?
            .to_owned();
        let size = data.len();
        let chunk = self.cfg.chunk_bytes.max(1);
        let window = self.cfg.window.max(1);
        let budget = window.saturating_mul(chunk);

        let state = Mutex::new(PutState {
            next_claim: 0,
            acked: 0,
            resident: 0,
            high_water: 0,
            chunks: 0,
            failed: None,
        });
        let cv = Condvar::new();
        let workers = window.min(size.div_ceil(chunk)).max(1);

        if size > 0 {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let (off, len) = {
                            let mut st = state.lock().expect("transfer lock");
                            loop {
                                if st.failed.is_some() || st.next_claim >= size {
                                    return;
                                }
                                if st.next_claim < st.acked.saturating_add(budget) {
                                    break;
                                }
                                st = cv.wait(st).expect("transfer lock");
                            }
                            let off = st.next_claim;
                            let len = chunk.min(size - off);
                            st.next_claim += len;
                            st.resident += len;
                            st.high_water = st.high_water.max(st.resident);
                            (off, len)
                        };
                        // The owned chunk copy below is the resident
                        // memory the window bounds.
                        let sent = self.call_retry(
                            "put_chunk",
                            &[
                                SoapValue::str(handle.clone()),
                                SoapValue::Int(off as i64),
                                SoapValue::Base64(data[off..off + len].to_vec()),
                            ],
                        );
                        let mut st = state.lock().expect("transfer lock");
                        match sent.map(|v| v.as_i64()) {
                            Ok(Some(acked)) => {
                                let acked = usize::try_from(acked).unwrap_or(0);
                                st.acked = st.acked.max(acked);
                                st.resident -= len;
                                st.chunks += 1;
                            }
                            Ok(None) => {
                                st.failed.get_or_insert(SoapError::Protocol(
                                    "put_chunk reply was not a frontier".into(),
                                ));
                            }
                            Err(e) => {
                                st.failed.get_or_insert(e);
                            }
                        }
                        cv.notify_all();
                    });
                }
            });
        }

        let mut st = state.into_inner().expect("transfer lock");
        if let Some(e) = st.failed.take() {
            // Reclaim the staged partial; best effort (abort of a settled
            // or expired handle also succeeds).
            let _ = self.client.call("abort", &[SoapValue::str(handle)]);
            return Err(e);
        }
        let total = self
            .call_retry("commit", &[SoapValue::str(handle.clone())])?
            .as_i64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| SoapError::Protocol("commit reply was not a total".into()))?;
        if total != size {
            let _ = self.client.call("abort", &[SoapValue::str(handle)]);
            return Err(SoapError::Protocol(format!(
                "commit acknowledged {total} bytes, sent {size}"
            )));
        }
        let report = TransferReport {
            bytes: size,
            chunks: st.chunks,
            buffer_high_water: st.high_water,
        };
        self.record(&report);
        Ok(report)
    }

    /// Publish a finished transfer's numbers into the transport's wire
    /// stats so E13 reads them the same way it reads every other counter.
    fn record(&self, report: &TransferReport) {
        let stats = self.client.transport().stats();
        stats.record_transfer_chunks(report.chunks as u64, report.bytes as u64);
        stats.max(
            Counter::TransferBufferHighWater,
            report.buffer_high_water as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_gridsim::srb::Srb;
    use portalws_services::DataManagementService;
    use portalws_soap::SoapServer;
    use portalws_wire::{Handler, InMemoryTransport};
    use std::sync::Arc;

    fn harness() -> (Arc<Srb>, SoapClient) {
        let srb = Arc::new(Srb::new());
        srb.mkdir("/data").unwrap();
        let server = SoapServer::new();
        server.mount(Arc::new(DataManagementService::new(Arc::clone(&srb))));
        let handler: Arc<dyn Handler> = Arc::new(server);
        (
            srb,
            SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "DataManagement"),
        )
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn put_then_get_round_trip_pipelined() {
        let (srb, client) = harness();
        let tc = TransferClient::with_config(
            &client,
            TransferConfig {
                chunk_bytes: 1024,
                window: 4,
                chunk_attempts: 2,
            },
        );
        let data = payload(10_000);
        let up = tc.put("/data/f.bin", &data).unwrap();
        assert_eq!(up.bytes, 10_000);
        assert_eq!(up.chunks, 10);
        assert_eq!(srb.get("anonymous", "/data/f.bin").unwrap(), data);

        let (back, down) = tc.get("/data/f.bin").unwrap();
        assert_eq!(back, data);
        assert_eq!(down.bytes, 10_000);
        assert_eq!(down.chunks, 10);
    }

    #[test]
    fn buffer_high_water_is_bounded_by_window_times_chunk() {
        // The satellite's deterministic pin: with window ≤ 2 the client's
        // resident transfer memory never exceeds 2 × chunk — asserted on
        // the report, which tracks the bound the claim rule enforces.
        let (_, client) = harness();
        let chunk = 512;
        let tc = TransferClient::with_config(
            &client,
            TransferConfig {
                chunk_bytes: chunk,
                window: 2,
                chunk_attempts: 2,
            },
        );
        let data = payload(64 * 512); // 64 chunks
        let up = tc.put("/data/bounded.bin", &data).unwrap();
        assert!(
            up.buffer_high_water <= 2 * chunk,
            "put high-water {} > {}",
            up.buffer_high_water,
            2 * chunk
        );
        let (_, down) = tc.get("/data/bounded.bin").unwrap();
        assert!(
            down.buffer_high_water <= 2 * chunk,
            "get high-water {} > {}",
            down.buffer_high_water,
            2 * chunk
        );
        // And the numbers surface through the transport's wire stats.
        let snap = client.transport().stats().snapshot();
        assert!(snap.transfer_chunks >= 128);
        assert!(snap.transfer_bytes >= 2 * data.len() as u64);
        assert!(snap.transfer_buffer_high_water <= 2 * chunk as u64);
    }

    #[test]
    fn zero_length_file_round_trips() {
        let (srb, client) = harness();
        let tc = TransferClient::new(&client);
        let up = tc.put("/data/empty", b"").unwrap();
        assert_eq!(up.bytes, 0);
        assert_eq!(up.chunks, 0);
        assert_eq!(srb.get("anonymous", "/data/empty").unwrap(), b"");
        let (back, down) = tc.get("/data/empty").unwrap();
        assert_eq!(back, b"");
        assert_eq!(down.chunks, 0);
    }

    #[test]
    fn unaligned_tail_chunk_round_trips() {
        let (_, client) = harness();
        let tc = TransferClient::with_config(
            &client,
            TransferConfig {
                chunk_bytes: 1000,
                window: 3,
                chunk_attempts: 2,
            },
        );
        // 3 full chunks + 1-byte tail, and an exactly-one-chunk file.
        for n in [3001, 1000, 1, 999] {
            let data = payload(n);
            let path = format!("/data/tail-{n}");
            tc.put(&path, &data).unwrap();
            let (back, _) = tc.get(&path).unwrap();
            assert_eq!(back, data, "size {n}");
        }
    }

    #[test]
    fn typed_faults_surface_and_putting_missing_collection_fails_clean() {
        let (srb, client) = harness();
        let tc = TransferClient::new(&client);
        let err = tc.get("/data/ghost").unwrap_err();
        assert!(err.as_fault().is_some());
        let err = tc.put("/ghost/file", b"x").unwrap_err();
        assert!(err.as_fault().is_some());
        // No staging debris anywhere.
        let names: Vec<String> = srb
            .ls("anonymous", "/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.iter().all(|n| !n.starts_with(".part-")), "{names:?}");
    }

    /// A `DataManagement` that claims every object is `i64::MAX` bytes
    /// long and then serves empty chunks.
    struct HugeSizeStub;

    impl portalws_soap::SoapService for HugeSizeStub {
        fn name(&self) -> &str {
            "DataManagement"
        }

        fn invoke(
            &self,
            method: &str,
            _args: &[(String, SoapValue)],
            _ctx: &portalws_soap::CallContext,
        ) -> portalws_soap::SoapResult<SoapValue> {
            Ok(match method {
                "open_get" => SoapValue::Struct(vec![
                    ("handle".into(), SoapValue::str("t-1")),
                    ("size".into(), SoapValue::Int(i64::MAX)),
                ]),
                "get_chunk" => SoapValue::Base64(Vec::new()),
                _ => SoapValue::Null,
            })
        }

        fn methods(&self) -> Vec<portalws_soap::MethodDesc> {
            Vec::new()
        }
    }

    #[test]
    fn a_huge_announced_size_is_a_protocol_error_not_an_allocation() {
        let server = SoapServer::new();
        server.mount(Arc::new(HugeSizeStub));
        let handler: Arc<dyn Handler> = Arc::new(server);
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "DataManagement");
        let err = TransferClient::new(&client).get("/data/any").unwrap_err();
        assert!(matches!(err, SoapError::Protocol(_)), "{err:?}");
    }
}
