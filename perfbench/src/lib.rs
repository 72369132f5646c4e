//! Closed-loop benchmark of the portal deployment over real TCP.
//!
//! Four workloads drive the program through its public API from one
//! process with at most `nproc` generator threads and connections:
//!
//! * `echo` — keep-alive clients echo the representative `submitXml`
//!   envelope against a bare `SoapServer` on the blocking arm;
//! * `echo_reactor` — the same on the epoll reactor arm;
//! * `portal_session` — the Fig. 4 session (discover → bind → submit →
//!   status ×2 → put → get) on a Central-security pooled deployment;
//! * `bulk_transfer` — a chunked 4 MiB put and get on the same deployment.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! (`--trace 1`) alternates untraced and traced segments, and reports
//! per-layer numbers taken from outside the program: spans around the
//! bench's calls, the program's public counters, `/proc` scheduler
//! readings, and timings of each crate's public functions on the bodies
//! the workload sends.

pub mod bulk;
pub mod echo;
pub mod layers;
pub mod portal;
pub mod trace;
pub mod util;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use portalws_soap::Envelope;
use portalws_wire::{StatsSnapshot, WireStats};

use crate::trace::{TimedTransport, Tracer};
use crate::util::Sched;

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Echo,
    EchoReactor,
    PortalSession,
    BulkTransfer,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Echo,
        Workload::EchoReactor,
        Workload::PortalSession,
        Workload::BulkTransfer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo => "echo",
            Workload::EchoReactor => "echo_reactor",
            Workload::PortalSession => "portal_session",
            Workload::BulkTransfer => "bulk_transfer",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of the run, set-up excluded.
    pub seconds: f64,
    pub trace: bool,
    /// Same-run CPU-only calibration score ([`util::calibration_score`]).
    pub calibration: f64,
    /// Machine CPU counters when the run began (for the steal share).
    pub cpu_at_start: util::CpuTimes,
}

/// Length of one measured slice of the deployment workloads (the echo
/// workloads slice by epoch). The end-to-end metrics are taken over the
/// run's quietest slices ([`quietest`]); short slices let that choice
/// follow the host's steal, which comes and goes within a second.
pub const SLICE: Duration = Duration::from_millis(250);

/// Slices in a run of `seconds`.
pub fn slices(seconds: f64) -> usize {
    ((seconds / SLICE.as_secs_f64()).round() as usize).max(2)
}

/// Why an op did not count as done.
#[derive(Debug)]
pub enum OpError {
    /// The program returned an error (transport, fault, refusal).
    Failed(String),
    /// The program answered, but the answer was wrong.
    Wrong(String),
}

/// An op's verified application payload bytes, or why it failed.
pub type OpResult = Result<u64, OpError>;

/// Latencies each generator thread keeps per segment: a uniform sample
/// (reservoir sampling) of at most this many, so the benchmark's own memory
/// does not grow with the program's throughput and `peak_rss_mib` stays the
/// program's. A workload's threads all run the same op, so their samples
/// pool as equals.
pub const LATENCY_SAMPLE: usize = 256;

/// Everything a closed-loop segment (or several) observed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Latencies in milliseconds: every attempted op's while a thread's
    /// segment holds at most [`LATENCY_SAMPLE`], else a uniform sample.
    pub lat_ms: Vec<f64>,
    /// Summed latency of every attempted op, in milliseconds.
    pub lat_sum_ms: f64,
    pub ok: u64,
    pub failed: u64,
    pub wrong: u64,
    pub payload_bytes: u64,
    /// Measured wall time, set-up excluded.
    pub wall_s: f64,
    pub tracer: Tracer,
    /// Scheduler time of the generator threads.
    pub gen_sched: Sched,
    /// Generator threads used (largest segment).
    pub threads: usize,
    pub first_error: Option<String>,
    /// The machine's CPU time while this was measured, and the part the
    /// hypervisor gave to other guests.
    pub cpu: util::CpuTimes,
    /// The process's peak resident set (`VmHWM`, KiB) when it ended.
    pub peak_rss_kib: u64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed + self.wrong
    }

    pub fn ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ok as f64 / self.wall_s
        } else {
            0.0
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.cpu.total += other.cpu.total;
        self.cpu.steal += other.cpu.steal;
        self.peak_rss_kib = self.peak_rss_kib.max(other.peak_rss_kib);
        self.lat_ms.extend(other.lat_ms);
        self.lat_sum_ms += other.lat_sum_ms;
        self.ok += other.ok;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.payload_bytes += other.payload_bytes;
        self.wall_s += other.wall_s;
        self.tracer.merge(&other.tracer);
        self.gen_sched = self.gen_sched.plus(other.gen_sched);
        self.threads = self.threads.max(other.threads);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Drive `threads` closed-loop generators for `dur`: each sends its next
/// op only when the previous one has completed.
pub fn drive<F>(threads: usize, dur: Duration, tracing: bool, op: F) -> Tally
where
    F: Fn(usize, u64, &mut Tracer) -> OpResult + Sync,
{
    let cpu0 = util::cpu_times();
    let start = Instant::now();
    let deadline = start + dur;
    let parts: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let op = &op;
                scope.spawn(move || {
                    let tid = util::current_tid();
                    let s0 = tid.and_then(util::schedstat).unwrap_or_default();
                    let mut tally = Tally {
                        tracer: Tracer::new(tracing),
                        lat_ms: Vec::with_capacity(LATENCY_SAMPLE),
                        ..Tally::default()
                    };
                    let mut sampler = util::Rng::new(thread as u64);
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        let result = op(thread, i, &mut tally.tracer);
                        let lat = t.elapsed().as_secs_f64() * 1e3;
                        tally.lat_sum_ms += lat;
                        // Reservoir sampling: op `i` replaces a kept one
                        // with probability LATENCY_SAMPLE / (i + 1).
                        if tally.lat_ms.len() < LATENCY_SAMPLE {
                            tally.lat_ms.push(lat);
                        } else if let Some(slot) =
                            tally.lat_ms.get_mut(sampler.below(i + 1) as usize)
                        {
                            *slot = lat;
                        }
                        i += 1;
                        match result {
                            Ok(bytes) => {
                                tally.ok += 1;
                                tally.payload_bytes += bytes;
                            }
                            Err(e) => {
                                let msg = match &e {
                                    OpError::Failed(m) => {
                                        tally.failed += 1;
                                        format!("failed: {m}")
                                    }
                                    OpError::Wrong(m) => {
                                        tally.wrong += 1;
                                        format!("wrong output: {m}")
                                    }
                                };
                                tally.first_error.get_or_insert(msg);
                            }
                        }
                    }
                    let s1 = tid.and_then(util::schedstat).unwrap_or_default();
                    tally.gen_sched = s1.since(s0);
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Tally {
                    failed: 1,
                    first_error: Some("generator thread panicked".into()),
                    ..Tally::default()
                })
            })
            .collect()
    });
    let mut total = Tally {
        tracer: Tracer::new(tracing),
        ..Tally::default()
    };
    for part in parts {
        total.absorb(part);
    }
    total.wall_s = start.elapsed().as_secs_f64();
    total.threads = threads;
    total.cpu = util::cpu_times().since(cpu0);
    total.peak_rss_kib = util::peak_rss_kib();
    total
}

/// Run `per_thread` ops on every generator thread, unmeasured.
pub fn warm_up<F>(threads: usize, per_thread: u64, op: F) -> Result<(), String>
where
    F: Fn(usize, u64, &mut Tracer) -> OpResult + Sync,
{
    // The clients connect together, as a burst of users would.
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let op = &op;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(false);
                    barrier.wait();
                    for i in 0..per_thread {
                        op(t, i, &mut tracer).map_err(|e| format!("warm-up: {e:?}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().unwrap_or_else(|_| Err("warm-up panicked".into())))
    })
}

/// Measure `seconds` of closed-loop ops in slices; a traced run
/// alternates untraced and traced slices.
pub fn measure<F>(
    cfg: &Config,
    threads: usize,
    src: &Sources,
    timed: &[Arc<TimedTransport>],
    data: &mut RunData,
    op: F,
) where
    F: Fn(usize, u64, &mut Tracer) -> OpResult + Sync,
{
    // Op numbers continue across slices, so per-op schedules run on.
    let next: Vec<AtomicU64> = (0..threads).map(|_| Default::default()).collect();
    let numbered = |t: usize, _: u64, tracer: &mut Tracer| {
        let i = next.get(t).map_or(0, |n| n.fetch_add(1, Ordering::Relaxed));
        op(t, i, tracer)
    };
    for s in 0..slices(cfg.seconds) {
        let traced = cfg.trace && s % 2 == 1;
        for t in timed {
            t.enabled.store(traced, Ordering::Relaxed);
        }
        let window = traced.then(|| Window::open(src));
        let tally = drive(threads, SLICE, traced, numbered);
        if let Some(w) = window {
            w.close(src, &mut data.delta);
        }
        if traced {
            data.traced.absorb(tally);
        } else {
            data.untraced.push(tally);
        }
    }
    for t in timed {
        let (calls, ns) = t.totals();
        data.rtt.0 += calls;
        data.rtt.1 += ns;
    }
}

/// Server and client counters the per-layer metrics difference.
#[derive(Debug, Clone, Default)]
pub struct Sources {
    /// Server-side counters of every host the workload reaches.
    pub servers: Vec<Arc<WireStats>>,
    /// Server-side counters of the Authentication host, if any.
    pub auth_host: Option<Arc<WireStats>>,
    /// Client-side counters of the transports the workload calls through.
    pub clients: Vec<Arc<WireStats>>,
    /// The read cache's counters, if the workload caches.
    pub cache: Option<Arc<WireStats>>,
    /// The Authentication Service's own counters (verify-cache hits).
    pub auth_service: Option<Arc<WireStats>>,
    /// Kernel ids of the program's server threads.
    pub server_tids: Vec<u32>,
    /// Worker threads per server (for the idle-worker share).
    pub workers: usize,
}

/// Counter readings at the start of a measured window.
pub struct Window {
    servers: Vec<StatsSnapshot>,
    auth_host: Option<StatsSnapshot>,
    clients: Vec<StatsSnapshot>,
    cache: Option<StatsSnapshot>,
    auth_service: Option<StatsSnapshot>,
    xml: portalws_xml::stats::SubstrateCounters,
    sched: HashMap<u32, Sched>,
    cpu_ns: u64,
    started: Instant,
}

/// What happened in the program during measured windows, summed.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    pub requests: u64,
    pub connections: u64,
    pub bytes: u64,
    pub sheds: u64,
    pub transfer_chunks: u64,
    pub transfer_high_water: u64,
    pub auth_requests: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub retries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub verify_cached: u64,
    pub escape_borrowed: u64,
    pub escape_owned: u64,
    pub unescape_borrowed: u64,
    pub unescape_owned: u64,
    /// CPU and run-queue wait of the server threads.
    pub server_sched: Sched,
    /// Whole-process CPU, exited threads included.
    pub process_cpu_ns: u64,
    /// Server worker threads observed, and those that stayed idle.
    pub workers_seen: u64,
    pub workers_idle: u64,
    pub wall_s: f64,
}

impl Window {
    pub fn open(src: &Sources) -> Window {
        let snap = |s: &Arc<WireStats>| s.snapshot();
        Window {
            servers: src.servers.iter().map(snap).collect(),
            auth_host: src.auth_host.as_ref().map(snap),
            clients: src.clients.iter().map(snap).collect(),
            cache: src.cache.as_ref().map(snap),
            auth_service: src.auth_service.as_ref().map(snap),
            xml: portalws_xml::stats::snapshot(),
            sched: util::schedstats(&src.server_tids),
            cpu_ns: util::process_cpu_ns(),
            started: Instant::now(),
        }
    }

    /// Difference the counters since [`Window::open`] into `into`.
    pub fn close(self, src: &Sources, into: &mut Delta) {
        let wall_s = self.started.elapsed().as_secs_f64();
        let sched_after = util::schedstats(&src.server_tids);
        let cpu_after = util::process_cpu_ns();
        for (s, before) in src.servers.iter().zip(&self.servers) {
            let d = s.snapshot().since(before);
            into.requests += d.requests;
            into.connections += d.connections;
            into.bytes += d.bytes_sent + d.bytes_received;
            into.sheds += d.shed_queue_full + d.shed_deadline + d.shed_quota;
        }
        if let (Some(s), Some(before)) = (&src.auth_host, &self.auth_host) {
            into.auth_requests += s.snapshot().since(before).requests;
        }
        for (s, before) in src.clients.iter().zip(&self.clients) {
            let d = s.snapshot().since(before);
            into.pool_hits += d.pool_reuse_hits;
            into.pool_misses += d.pool_reuse_misses;
            into.retries += d.retries;
            // The transfer client counts its chunks on its transport.
            into.transfer_chunks += d.transfer_chunks;
            into.transfer_high_water = into.transfer_high_water.max(d.transfer_buffer_high_water);
        }
        if let (Some(s), Some(before)) = (&src.cache, &self.cache) {
            let d = s.snapshot().since(before);
            into.cache_hits += d.cache_hits;
            into.cache_misses += d.cache_misses;
            into.cache_invalidations += d.cache_invalidations;
        }
        if let (Some(s), Some(before)) = (&src.auth_service, &self.auth_service) {
            into.verify_cached += s.snapshot().since(before).auth_verify_cached;
        }
        let xml = portalws_xml::stats::snapshot().since(&self.xml);
        into.escape_borrowed += xml.escape_borrowed;
        into.escape_owned += xml.escape_owned;
        into.unescape_borrowed += xml.unescape_borrowed;
        into.unescape_owned += xml.unescape_owned;

        let deltas = util::sched_deltas(&self.sched, &sched_after);
        for d in &deltas {
            into.server_sched = into.server_sched.plus(*d);
        }
        // The busiest `workers` threads of the server are its workers (the
        // blocking arm's acceptor only accepts); a worker that ran for
        // under 5% of the window served nothing.
        let mut runs: Vec<u64> = deltas.iter().map(|d| d.run_ns).collect();
        runs.sort_unstable_by(|a, b| b.cmp(a));
        let workers = src.workers.min(runs.len());
        let idle_below = (wall_s * 0.05 * 1e9) as u64;
        into.workers_seen += workers as u64;
        into.workers_idle += runs
            .iter()
            .take(workers)
            .filter(|&&r| r < idle_below)
            .count() as u64;
        into.process_cpu_ns += cpu_after.saturating_sub(self.cpu_ns);
        into.wall_s += wall_s;
    }
}

/// Kernel ids of the threads `start` spawns (the program's server threads).
pub fn spawned_by<T>(start: impl FnOnce() -> T) -> (T, Vec<u32>) {
    let before = util::task_ids();
    let out = start();
    let tids = util::task_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    (out, tids)
}

/// One kind of call an op makes, with the bodies it sends and receives —
/// the inputs of the per-layer timings of xml, soap and wire.
pub struct Body {
    /// Request path, as the client sends it.
    pub path: String,
    pub request: Envelope,
    pub reply: Envelope,
    /// How many such calls one op makes.
    pub per_op: f64,
}

/// The program's own work per op that the per-layer timings can explain:
/// calls into gridsim and registry that one op causes on the server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerWork {
    pub submits: f64,
    pub polls: f64,
    pub srb_puts: f64,
    pub srb_gets: f64,
    pub registry_finds: f64,
    pub srb_append_mib: f64,
    pub srb_read_mib: f64,
    pub base64_mib: f64,
}

/// A finished run: what the JSON result line reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Diagnostics printed before the result line.
    pub notes: Vec<String>,
}

/// Run one workload as configured.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Echo | Workload::EchoReactor => echo::run(cfg),
        Workload::PortalSession => portal::run(cfg),
        Workload::BulkTransfer => bulk::run(cfg),
    }
}

/// Everything a workload hands over to build the result line.
#[derive(Default)]
pub struct RunData {
    pub setups: Vec<Setup>,
    /// Untraced slices: the end-to-end metrics come from these alone.
    pub untraced: Vec<Tally>,
    /// Traced slices, merged (empty in an untraced run).
    pub traced: Tally,
    /// Counter deltas over the traced segments.
    pub delta: Delta,
    pub rtt: (u64, u64),
    /// Largest number of connections one generator-facing server
    /// accepted, to check against `nproc`.
    pub max_connections: u64,
    /// Extra correctness failures found outside the op loop.
    pub violations: Vec<String>,
}

/// Assemble the result line from a workload's run.
pub fn finish(
    cfg: &Config,
    data: RunData,
    layer_probe: impl FnOnce(&RunData, &Tally) -> Result<Vec<(String, f64, &'static str)>, String>,
) -> Result<Outcome, String> {
    // Before the result's own bookkeeping allocates.
    let peak_rss_kib = util::peak_rss_kib();
    let nproc = util::nproc();
    let mut violations = data.violations.clone();
    let mut untraced = Tally::default();
    for slice in &data.untraced {
        untraced.absorb(slice.clone());
    }
    let threads = untraced.threads.max(data.traced.threads);
    if threads > nproc {
        violations.push(format!("{threads} generator threads > nproc {nproc}"));
    }
    if data.max_connections > nproc as u64 {
        violations.push(format!(
            "generator opened {} connections to one server > nproc {nproc}",
            data.max_connections
        ));
    }
    let mut notes = vec![format!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"calibration_score\": {:?}, \"steal_frac\": {:?}, \"quiet_steal_frac\": {:?}, \"generator_threads\": {threads}, \"max_connections_per_server\": {}}}}}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        cfg.calibration,
        util::steal_frac_since(&cfg.cpu_at_start),
        {
            let quiet = quietest(&data.untraced, |s| s.cpu);
            let cpu = quiet.iter().fold(util::CpuTimes::default(), |acc, s| util::CpuTimes {
                total: acc.total + s.cpu.total,
                steal: acc.steal + s.cpu.steal,
            });
            cpu.steal_frac()
        },
        data.max_connections
    )];
    for tally in [&untraced, &data.traced] {
        if let Some(e) = &tally.first_error {
            notes.push(format!("first op error: {e}"));
        }
    }
    for v in &violations {
        notes.push(format!("violation: {v}"));
    }
    let attempted = untraced.attempted() + data.traced.attempted();
    let failed = untraced.failed + untraced.wrong + data.traced.failed + data.traced.wrong;
    let correct = untraced.wrong + data.traced.wrong == 0 && violations.is_empty();
    let metrics = if cfg.trace {
        layer_probe(&data, &untraced)?
    } else {
        let (metrics, p99) = end_to_end(&data.setups, &data.untraced, &untraced, peak_rss_kib);
        // Recorded beside the result, not as an end-to-end metric: its
        // run-to-run spread follows the host's steal, not the program.
        notes.push(format!("{{\"tail\": {{\"latency_p99_ms\": {p99:?}}}}}"));
        metrics
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The end-to-end metrics of an untraced run, in output order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "success_frac",
    "goodput_mib_s",
    "peak_rss_mib",
];

const MIB: f64 = 1024.0 * 1024.0;
/// Timed ops after which `peak_rss_mib` is read. The portal's grid job
/// table keeps every submitted job, so its memory grows with the sessions
/// done: read at a fixed count of ops, it compares runs of unequal
/// throughput on the same work.
pub const RSS_AFTER_OPS: u64 = 10_000;
/// Ops the typical slice must hold for per-slice rates.
const MIN_SLICE_OPS: u64 = 100;

/// The quietest third of a run's slices (or set-ups), ties included: those
/// during which the hypervisor stole no more of the machine's CPU time than
/// the slice a third of the way up the steal order. Steal comes from other
/// guests on the host, not from the program, and it arrives in bursts that
/// would otherwise decide the run-to-run spread; on a quiet host most
/// slices steal nothing and all of those are kept. The program's own
/// contention (generator and server threads sharing `nproc` CPUs) is in
/// every slice alike. Slices keep their run order.
pub fn quietest<T>(items: &[T], cpu: impl Fn(&T) -> util::CpuTimes) -> Vec<&T> {
    let mut steal: Vec<f64> = items.iter().map(|i| cpu(i).steal_frac()).collect();
    steal.sort_by(f64::total_cmp);
    let Some(&cut) = steal.get(items.len().div_ceil(3).saturating_sub(1)) else {
        return Vec::new();
    };
    items
        .iter()
        .filter(|i| cpu(i).steal_frac() <= cut)
        .collect()
}

/// One set-up's wall time and the machine's CPU counters over it.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub secs: f64,
    pub cpu: util::CpuTimes,
}

/// Times one set-up.
pub struct SetupTimer {
    start: Instant,
    cpu: util::CpuTimes,
}

impl SetupTimer {
    pub fn start() -> SetupTimer {
        SetupTimer {
            start: Instant::now(),
            cpu: util::cpu_times(),
        }
    }

    pub fn stop(self) -> Setup {
        Setup {
            secs: self.start.elapsed().as_secs_f64(),
            cpu: util::cpu_times().since(self.cpu),
        }
    }
}

/// The end-to-end metrics, from the untraced slices only. Rates and
/// percentiles are interquartile means over the quietest slices
/// ([`quietest`]) of the per-slice value, `setup_s` the median of the
/// quietest set-ups. The interquartile mean drops the odd slow slice the
/// steal counter missed, as a median would, but moves smoothly with the
/// share of slices in each of the program's modes (the reactor's worker
/// placement, which thread shares a CPU with which), where a median jumps
/// from one mode to the other. A rate whose typical (median) slice holds
/// too few ops, or a percentile whose typical slice keeps too few samples
/// to have ten beyond it, is taken over those slices pooled, and on runs
/// too small even for that, at the highest percentile that has ten.
/// `success_frac` counts every op; `peak_rss_mib` is read after
/// [`RSS_AFTER_OPS`] timed ops. Also returns the 99th percentile, computed
/// the same way.
fn end_to_end(
    setups: &[Setup],
    slices: &[Tally],
    all: &Tally,
    peak_rss_kib: u64,
) -> (Vec<(String, f64, &'static str)>, f64) {
    let quiet = quietest(slices, |s| s.cpu);
    let typical = |f: &dyn Fn(&Tally) -> usize| {
        util::median(&quiet.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let typical_ops = typical(&|s| s.attempted() as usize);
    let typical_samples = typical(&|s| s.lat_ms.len());
    let mut pooled = Tally::default();
    for s in &quiet {
        pooled.absorb((*s).clone());
    }
    let mut pooled_lat = pooled.lat_ms.clone();
    pooled_lat.sort_by(f64::total_cmp);
    let percentile = |q: f64| {
        let beyond = (10.0 / (1.0 - q)).ceil() as usize;
        if typical_samples >= beyond as f64 {
            let per_slice: Vec<f64> = quiet
                .iter()
                .map(|s| {
                    let mut lat = s.lat_ms.clone();
                    lat.sort_by(f64::total_cmp);
                    util::quantile(&lat, q)
                })
                .collect();
            util::interquartile_mean(&per_slice)
        } else {
            let n = pooled_lat.len().max(1) as f64;
            util::quantile(&pooled_lat, q.min(1.0 - 10.0 / n).max(0.5))
        }
    };
    // A rate is taken per slice when the typical slice holds enough ops
    // for its count not to be coarse; otherwise over the slices pooled.
    let rate = |f: &dyn Fn(&Tally) -> f64| {
        if typical_ops >= MIN_SLICE_OPS as f64 {
            util::interquartile_mean(&quiet.iter().map(|s| f(s)).collect::<Vec<_>>())
        } else {
            f(&pooled)
        }
    };
    // The first untraced slice by which the run had done RSS_AFTER_OPS ops,
    // or the run's end on runs that do fewer.
    let mut done = 0;
    let peak_rss_kib = slices
        .iter()
        .find(|s| {
            done += s.attempted();
            done >= RSS_AFTER_OPS
        })
        .map_or(peak_rss_kib, |s| s.peak_rss_kib);
    let metrics = vec![
        (
            "setup_s".into(),
            util::median(
                &quietest(setups, |s| s.cpu)
                    .iter()
                    .map(|s| s.secs)
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        ("ops_per_s".into(), rate(&|s| s.ops_per_s()), "1/s"),
        ("latency_p50_ms".into(), percentile(0.50), "ms"),
        ("latency_p90_ms".into(), percentile(0.90), "ms"),
        (
            "success_frac".into(),
            all.ok as f64 / all.attempted().max(1) as f64,
            "frac",
        ),
        (
            "goodput_mib_s".into(),
            rate(&|s| s.payload_bytes as f64 / MIB / s.wall_s.max(1e-9)),
            "MiB/s",
        ),
        (
            "peak_rss_mib".into(),
            peak_rss_kib as f64 / 1024.0,
            "MiB",
        ),
    ];
    (metrics, percentile(0.99))
}
