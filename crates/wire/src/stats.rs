//! Atomic wire-level counters.
//!
//! The experiments (E1 latency breakdown, E5 byte amplification, E6 round
//! trips, E11 substrate throughput) need to report not just time but
//! *message traffic* and *allocation behavior*. Both transports and the
//! server update a shared [`WireStats`]; the harness reads a
//! [`StatsSnapshot`] before and after a workload and diffs.
//!
//! Every counter is declared once, in the `wire_counters!` table below:
//! its [`Counter`] variant, its [`StatsSnapshot`] field, its doc line and
//! its kind (a sum, a maximum or a gauge). The atomic storage, the
//! snapshot and [`StatsSnapshot::since`] are derived from that table, so
//! a counter cannot be stored without being snapshotted or diffed.
//!
//! Beyond the per-instance wire counters, a snapshot also surfaces the XML
//! substrate's escape/unescape fast-path counters
//! ([`portalws_xml::stats`]). Those are process-global; each [`WireStats`]
//! keeps the [`SubstrateCounters`] value taken at construction and reports
//! the difference, so a snapshot covers activity since this instance
//! started counting, and `since()` scopes them to a workload like every
//! other counter.

use std::sync::atomic::{AtomicU64, Ordering};

use portalws_xml::stats::{self as xml_stats, SubstrateCounters};

/// Fault classes injected by `wire::chaos`, counted per class so a soak
/// run (E12) can report how many of each failure shape the schedule
/// actually exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosClass {
    /// Dial refused before any bytes were exchanged.
    ConnectRefused,
    /// Connection closed while a request or response was in flight.
    MidStreamClose,
    /// Response cut short at a byte boundary inside the frame.
    Truncation,
    /// Response delivered with corrupted header or XML body bytes.
    Corruption,
    /// Exchange paced/delayed (slow-loris or server-side delay).
    Delay,
    /// Idle keep-alive connection found closed by the peer.
    StaleClose,
    /// Response dropped entirely after the handler ran (server side).
    Drop,
}

impl ChaosClass {
    /// All classes, in display order.
    pub const ALL: [ChaosClass; 7] = [
        ChaosClass::ConnectRefused,
        ChaosClass::MidStreamClose,
        ChaosClass::Truncation,
        ChaosClass::Corruption,
        ChaosClass::Delay,
        ChaosClass::StaleClose,
        ChaosClass::Drop,
    ];

    /// Stable lowercase name (used in JSON artifacts and logs).
    pub fn name(&self) -> &'static str {
        match self {
            ChaosClass::ConnectRefused => "connect_refused",
            ChaosClass::MidStreamClose => "mid_stream_close",
            ChaosClass::Truncation => "truncation",
            ChaosClass::Corruption => "corruption",
            ChaosClass::Delay => "delay",
            ChaosClass::StaleClose => "stale_close",
            ChaosClass::Drop => "drop",
        }
    }

    /// The counter injections of this class are tallied in.
    fn counter(self) -> Counter {
        match self {
            ChaosClass::ConnectRefused => Counter::ChaosConnectRefused,
            ChaosClass::MidStreamClose => Counter::ChaosMidStreamCloses,
            ChaosClass::Truncation => Counter::ChaosTruncations,
            ChaosClass::Corruption => Counter::ChaosCorruptions,
            ChaosClass::Delay => Counter::ChaosDelays,
            ChaosClass::StaleClose => Counter::ChaosStaleCloses,
            ChaosClass::Drop => Counter::ChaosDrops,
        }
    }
}

/// How [`StatsSnapshot::since`] treats a counter.
#[derive(Clone, Copy)]
enum Kind {
    /// A monotone total: the interval reports the difference.
    Sum,
    /// A high-water mark: the later value carries over.
    Max,
    /// A current level: the later value carries over.
    Gauge,
}

impl Kind {
    fn since(self, later: u64, earlier: u64) -> u64 {
        match self {
            Kind::Sum => later - earlier,
            Kind::Max | Kind::Gauge => later,
        }
    }
}

/// Derives [`Counter`], [`StatsSnapshot`] and its `since()` from one
/// table: `Variant => snapshot_field: Kind` rows for the `WireStats`
/// counters, then the substrate fields copied from [`SubstrateCounters`].
macro_rules! wire_counters {
    (
        counters { $( $(#[$doc:meta])* $counter:ident => $field:ident : $kind:ident, )* }
        substrate { $( $(#[$sub_doc:meta])* $sub:ident, )* }
    ) => {
        /// One [`WireStats`] counter, named for [`WireStats::add`] and
        /// [`WireStats::max`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $( $(#[$doc])* $counter, )*
        }

        const COUNT: usize = [$(Counter::$counter),*].len();

        /// A point-in-time copy of the counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $field: u64, )*
            $( $(#[$sub_doc])* pub $sub: u64, )*
        }

        impl StatsSnapshot {
            fn from_counts(counts: [u64; COUNT], xml: SubstrateCounters) -> StatsSnapshot {
                let [$($field),*] = counts;
                StatsSnapshot { $($field,)* $($sub: xml.$sub,)* }
            }

            fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $( Counter::$counter => self.$field, )*
                }
            }

            /// Difference since an earlier snapshot (`self - earlier`).
            ///
            /// Maximums and gauges are not monotone sums, so the later
            /// snapshot's value carries over unchanged.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $field: Kind::$kind.since(self.$field, earlier.$field), )*
                    $( $sub: self.$sub - earlier.$sub, )*
                }
            }
        }
    };
}

wire_counters! {
    counters {
        /// Request/response exchanges completed.
        Requests => requests: Sum,
        /// TCP connections opened (always 0 for the in-memory transport).
        Connections => connections: Sum,
        /// Bytes written toward the server.
        BytesSent => bytes_sent: Sum,
        /// Bytes read back from the server.
        BytesReceived => bytes_received: Sum,
        /// Failed exchanges.
        Errors => errors: Sum,
        /// Pool checkouts satisfied by a live idle connection.
        PoolReuseHits => pool_reuse_hits: Sum,
        /// Pool checkouts that dialed a fresh connection (empty pool, or
        /// the idle connection turned out to be dead).
        PoolReuseMisses => pool_reuse_misses: Sum,
        /// Idle connections discarded by the pool (over-age, over-count,
        /// or found dead at checkout).
        PoolEvictions => pool_evictions: Sum,
        /// Idempotent requests re-sent after a failure.
        Retries => retries: Sum,
        /// Calls abandoned at their deadline.
        Timeouts => timeouts: Sum,
        /// Worker serialize-scratch reallocations (growths). Flat after
        /// warmup: the buffer reaches its high-water size once and every
        /// later response on a keep-alive connection reuses it.
        ScratchGrowths => scratch_growths: Sum,
        /// Largest worker serialize-scratch capacity seen (bytes).
        ScratchHighWater => scratch_high_water: Max,
        /// Requests that consumed bytes but failed to parse (answered 400).
        BadRequests => bad_requests: Sum,
        /// Connections currently registered with a reactor worker.
        OpenConnections => open_connections: Gauge,
        /// Most connections simultaneously open across the server's lifetime.
        ConnectionsHighWater => connections_high_water: Max,
        /// Injected connect-refused faults.
        ChaosConnectRefused => chaos_connect_refused: Sum,
        /// Injected mid-stream connection closes.
        ChaosMidStreamCloses => chaos_mid_stream_closes: Sum,
        /// Injected response truncations.
        ChaosTruncations => chaos_truncations: Sum,
        /// Injected header/body corruptions.
        ChaosCorruptions => chaos_corruptions: Sum,
        /// Injected pacing delays.
        ChaosDelays => chaos_delays: Sum,
        /// Injected stale-keep-alive closes.
        ChaosStaleCloses => chaos_stale_closes: Sum,
        /// Responses dropped by server-side chaos.
        ChaosDrops => chaos_drops: Sum,
        /// Chunk round-trips completed by streaming transfers (E13).
        TransferChunks => transfer_chunks: Sum,
        /// File-content bytes moved by streaming transfers.
        TransferBytes => transfer_bytes: Sum,
        /// Largest per-transfer reorder/pending buffering seen (bytes),
        /// making "bounded memory" an asserted number rather than a claim.
        TransferBufferHighWater => transfer_buffer_high_water: Max,
        /// Reads served from a `ReadCache` without touching the wire.
        CacheHits => cache_hits: Sum,
        /// Cacheable reads that performed the wire call (cold/expired/stale).
        CacheMisses => cache_misses: Sum,
        /// Cached entries discarded after an observed generation bump.
        CacheInvalidations => cache_invalidations: Sum,
        /// Lookups satisfied by attaching to an identical in-flight call.
        CoalescedCalls => coalesced_calls: Sum,
        /// Assertion verifications answered from the positive-result cache.
        AuthVerifyCached => auth_verify_cached: Sum,
        /// Pool reuse hits whose request was a cache-fill read, so E6 can
        /// attribute wins to caching vs pooling separately.
        PoolCacheFillHits => pool_cache_fill_hits: Sum,
        /// Requests shed because the admission queue was at capacity.
        ShedQueueFull => shed_queue_full: Sum,
        /// Requests shed pre-dispatch with an already-expired deadline budget.
        ShedDeadline => shed_deadline: Sum,
        /// Requests shed by a per-tenant quota (token bucket empty).
        ShedQuota => shed_quota: Sum,
        /// Deepest admission-queue backlog seen (high-water mark).
        QueueDepthHighWater => queue_depth_high_water: Max,
        /// Times a reactor worker paused its listener at the connection cap.
        ListenerPauses => listener_pauses: Sum,
    }
    substrate {
        /// `escape_text`/`escape_attr` calls that borrowed (no allocation).
        escape_borrowed,
        /// Escape calls that had to allocate an escaped copy.
        escape_owned,
        /// `unescape` calls that borrowed (no allocation).
        unescape_borrowed,
        /// Unescape calls that had to allocate a resolved copy.
        unescape_owned,
    }
}

/// Shared, lock-free wire counters. All methods use relaxed ordering: the
/// counters are statistics, not synchronization (per the atomics guidance:
/// use the weakest ordering that is correct for the purpose).
#[derive(Debug)]
pub struct WireStats {
    counts: [AtomicU64; COUNT],
    xml_base: SubstrateCounters,
}

impl Default for WireStats {
    fn default() -> Self {
        Self::new()
    }
}

impl WireStats {
    /// New zeroed counters, baselining the substrate counters at now.
    pub fn new() -> Self {
        WireStats {
            counts: [const { AtomicU64::new(0) }; COUNT],
            xml_base: xml_stats::snapshot(),
        }
    }

    fn cell(&self, counter: Counter) -> Option<&AtomicU64> {
        self.counts.get(counter as usize)
    }

    /// Add `n` to a sum counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(cell) = self.cell(counter) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise a high-water counter to `value` if it is below it.
    pub fn max(&self, counter: Counter, value: u64) {
        if let Some(cell) = self.cell(counter) {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Record one request/response exchange with its byte sizes.
    pub fn record_exchange(&self, sent: usize, received: usize) {
        self.add(Counter::Requests, 1);
        self.add(Counter::BytesSent, sent as u64);
        self.add(Counter::BytesReceived, received as u64);
    }

    /// Record a connection entering service (reactor registration); bumps
    /// the open-connection gauge and its high-water mark.
    pub fn record_conn_open(&self) {
        if let Some(open) = self.cell(Counter::OpenConnections) {
            let open = open.fetch_add(1, Ordering::Relaxed) + 1;
            self.max(Counter::ConnectionsHighWater, open);
        }
    }

    /// Record a connection leaving service (closed/deregistered).
    pub fn record_conn_close(&self) {
        if let Some(open) = self.cell(Counter::OpenConnections) {
            // Saturating decrement: a stray close must not wrap the gauge.
            let _ = open.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        }
    }

    /// Record one injected fault of the given class.
    pub fn record_chaos(&self, class: ChaosClass) {
        self.add(class.counter(), 1);
    }

    /// Record a batch of completed transfer chunk round-trips at once
    /// (a finished transfer reporting its totals).
    pub fn record_transfer_chunks(&self, chunks: u64, payload: u64) {
        self.add(Counter::TransferChunks, chunks);
        self.add(Counter::TransferBytes, payload);
    }

    /// Read all counters at once.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_counts(
            self.counts.each_ref().map(|c| c.load(Ordering::Relaxed)),
            xml_stats::snapshot().since(&self.xml_base),
        )
    }
}

impl StatsSnapshot {
    /// Total traffic in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Count for one injected-fault class.
    pub fn chaos_class(&self, class: ChaosClass) -> u64 {
        self.get(class.counter())
    }

    /// Total injected faults across all classes.
    pub fn chaos_total(&self) -> u64 {
        ChaosClass::ALL.iter().map(|c| self.chaos_class(*c)).sum()
    }

    /// Fraction of cacheable reads that avoided their own wire call (served
    /// from cache or coalesced onto an in-flight leader), in `[0, 1]`.
    /// Returns 0.0 when no cacheable reads ran.
    pub fn cache_hit_rate(&self) -> f64 {
        let served = self.cache_hits + self.coalesced_calls;
        let total = served + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }

    /// Fraction of escape calls that avoided allocating, in `[0, 1]`.
    /// Returns 1.0 when no escapes ran (nothing allocated).
    pub fn escape_fast_path_rate(&self) -> f64 {
        xml_stats::fast_path_rate(self.escape_borrowed, self.escape_owned)
    }

    /// Fraction of unescape calls that avoided allocating, in `[0, 1]`.
    pub fn unescape_fast_path_rate(&self) -> f64 {
        xml_stats::fast_path_rate(self.unescape_borrowed, self.unescape_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_snapshots() {
        let s = WireStats::new();
        s.add(Counter::Connections, 1);
        s.record_exchange(100, 250);
        s.record_exchange(10, 20);
        s.add(Counter::Errors, 1);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.bytes_sent, 110);
        assert_eq!(snap.bytes_received, 270);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.total_bytes(), 380);
    }

    #[test]
    fn pool_counters_snapshot_and_diff() {
        let s = WireStats::new();
        s.add(Counter::PoolReuseMisses, 1);
        s.add(Counter::PoolReuseHits, 1);
        s.add(Counter::PoolReuseHits, 1);
        s.add(Counter::PoolEvictions, 3);
        s.add(Counter::Retries, 1);
        s.add(Counter::Timeouts, 1);
        let snap = s.snapshot();
        assert_eq!(snap.pool_reuse_hits, 2);
        assert_eq!(snap.pool_reuse_misses, 1);
        assert_eq!(snap.pool_evictions, 3);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.timeouts, 1);
        let before = snap;
        s.add(Counter::PoolReuseHits, 1);
        assert_eq!(s.snapshot().since(&before).pool_reuse_hits, 1);
    }

    #[test]
    fn chaos_counters_track_per_class() {
        let s = WireStats::new();
        s.record_chaos(ChaosClass::ConnectRefused);
        s.record_chaos(ChaosClass::Corruption);
        s.record_chaos(ChaosClass::Corruption);
        s.record_chaos(ChaosClass::Drop);
        let snap = s.snapshot();
        assert_eq!(snap.chaos_class(ChaosClass::ConnectRefused), 1);
        assert_eq!(snap.chaos_class(ChaosClass::Corruption), 2);
        assert_eq!(snap.chaos_class(ChaosClass::Drop), 1);
        assert_eq!(snap.chaos_class(ChaosClass::Delay), 0);
        assert_eq!(snap.chaos_total(), 4);
        let before = snap;
        s.record_chaos(ChaosClass::StaleClose);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.chaos_total(), 1);
        assert_eq!(delta.chaos_class(ChaosClass::StaleClose), 1);
    }

    #[test]
    fn since_diffs() {
        let s = WireStats::new();
        s.record_exchange(5, 5);
        let before = s.snapshot();
        s.record_exchange(7, 3);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.total_bytes(), 10);
    }

    #[test]
    fn scratch_counters_track_growth_and_high_water() {
        let s = WireStats::new();
        s.add(Counter::ScratchGrowths, 1);
        s.max(Counter::ScratchHighWater, 4096);
        s.max(Counter::ScratchHighWater, 1024); // lower watermark: ignored
        let snap = s.snapshot();
        assert_eq!(snap.scratch_growths, 1);
        assert_eq!(snap.scratch_high_water, 4096);
        let before = snap;
        s.max(Counter::ScratchHighWater, 8192);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.scratch_growths, 0);
        // A high-water mark is not a sum; the later value carries over.
        assert_eq!(delta.scratch_high_water, 8192);
    }

    #[test]
    fn connection_gauge_tracks_open_and_high_water() {
        let s = WireStats::new();
        s.record_conn_open();
        s.record_conn_open();
        s.record_conn_open();
        s.record_conn_close();
        s.add(Counter::BadRequests, 1);
        let snap = s.snapshot();
        assert_eq!(snap.open_connections, 2);
        assert_eq!(snap.connections_high_water, 3);
        assert_eq!(snap.bad_requests, 1);
        let before = snap;
        s.record_conn_close();
        let delta = s.snapshot().since(&before);
        // Gauge/maximum: the later values carry over, not a difference.
        assert_eq!(delta.open_connections, 1);
        assert_eq!(delta.connections_high_water, 3);
        assert_eq!(delta.bad_requests, 0);
        // The gauge never wraps below zero on a stray close.
        s.record_conn_close();
        s.record_conn_close();
        assert_eq!(s.snapshot().open_connections, 0);
    }

    #[test]
    fn transfer_counters_track_chunks_bytes_and_high_water() {
        let s = WireStats::new();
        s.record_transfer_chunks(1, 65536);
        s.record_transfer_chunks(1, 65536);
        s.record_transfer_chunks(1, 100);
        s.max(Counter::TransferBufferHighWater, 131072);
        s.max(Counter::TransferBufferHighWater, 4096); // lower watermark: ignored
        let snap = s.snapshot();
        assert_eq!(snap.transfer_chunks, 3);
        assert_eq!(snap.transfer_bytes, 131172);
        assert_eq!(snap.transfer_buffer_high_water, 131072);
        let before = snap;
        s.record_transfer_chunks(1, 1);
        s.max(Counter::TransferBufferHighWater, 262144);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.transfer_chunks, 1);
        assert_eq!(delta.transfer_bytes, 1);
        // High-water is a maximum, not a sum; the later value carries over.
        assert_eq!(delta.transfer_buffer_high_water, 262144);
    }

    #[test]
    fn cache_counters_snapshot_diff_and_rate() {
        let s = WireStats::new();
        s.add(Counter::CacheMisses, 1);
        s.add(Counter::CacheHits, 1);
        s.add(Counter::CacheHits, 1);
        s.add(Counter::CacheHits, 1);
        s.add(Counter::CoalescedCalls, 1);
        s.add(Counter::CacheInvalidations, 1);
        s.add(Counter::AuthVerifyCached, 1);
        s.add(Counter::PoolCacheFillHits, 1);
        let snap = s.snapshot();
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_invalidations, 1);
        assert_eq!(snap.coalesced_calls, 1);
        assert_eq!(snap.auth_verify_cached, 1);
        assert_eq!(snap.pool_cache_fill_hits, 1);
        // 3 hits + 1 coalesced out of 5 cacheable reads.
        assert!((snap.cache_hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().cache_hit_rate(), 0.0);
        let before = snap;
        s.add(Counter::CacheHits, 1);
        s.add(Counter::AuthVerifyCached, 1);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(delta.cache_misses, 0);
        assert_eq!(delta.auth_verify_cached, 1);
    }

    #[test]
    fn shed_counters_track_and_diff() {
        let s = WireStats::new();
        s.add(Counter::ShedQueueFull, 1);
        s.add(Counter::ShedQueueFull, 1);
        s.add(Counter::ShedDeadline, 1);
        s.add(Counter::ShedQuota, 1);
        s.max(Counter::QueueDepthHighWater, 7);
        s.max(Counter::QueueDepthHighWater, 3); // lower watermark: ignored
        s.add(Counter::ListenerPauses, 1);
        let snap = s.snapshot();
        assert_eq!(snap.shed_queue_full, 2);
        assert_eq!(snap.shed_deadline, 1);
        assert_eq!(snap.shed_quota, 1);
        assert_eq!(snap.queue_depth_high_water, 7);
        assert_eq!(snap.listener_pauses, 1);
        let before = snap;
        s.add(Counter::ShedDeadline, 1);
        s.max(Counter::QueueDepthHighWater, 12);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.shed_queue_full, 0);
        assert_eq!(delta.shed_deadline, 1);
        // A high-water mark is not a sum; the later value carries over.
        assert_eq!(delta.queue_depth_high_water, 12);
    }

    #[test]
    fn substrate_counters_baselined_and_diffed() {
        let s = WireStats::new();
        let before = s.snapshot();
        let _ = portalws_xml::escape::escape_text("plain text");
        let _ = portalws_xml::escape::escape_text("a < b");
        let _ = portalws_xml::escape::unescape("no entities");
        // Lower bounds only: the counters are process-global and other
        // tests in this binary may run concurrently.
        let delta = s.snapshot().since(&before);
        assert!(delta.escape_borrowed >= 1, "{delta:?}");
        assert!(delta.escape_owned >= 1, "{delta:?}");
        assert!(delta.unescape_borrowed >= 1, "{delta:?}");
        let rate = delta.escape_fast_path_rate();
        assert!(rate > 0.0 && rate < 1.0, "rate={rate}");
        assert_eq!(StatsSnapshot::default().escape_fast_path_rate(), 1.0);
        assert_eq!(StatsSnapshot::default().unescape_fast_path_rate(), 1.0);
    }

    #[test]
    fn concurrent_updates_sum() {
        let s = Arc::new(WireStats::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_exchange(1, 2);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.requests, 8000);
        assert_eq!(snap.bytes_sent, 8000);
        assert_eq!(snap.bytes_received, 16000);
    }
}
