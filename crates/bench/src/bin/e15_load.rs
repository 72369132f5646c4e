//! E15 — open-loop load: admission control, per-tenant fairness, and
//! end-to-end deadline propagation.
//!
//! An open-loop generator offers Poisson session arrivals (with
//! clustered bursts) to a real TCP [`PortalDeployment`] in its
//! production posture — bounded accept/dispatch queues, shed faults with
//! `Retry-After` hints, per-tenant token-bucket quotas, and per-call
//! deadline budgets. Each session runs the Fig. 4 mixed flow:
//!
//! ```text
//! auth (verify) → discover (UDDI find) → submit → poll ×2 → transfer
//! ```
//!
//! Two phases per server arm (blocking pool and epoll reactor):
//!
//! 1. **Knee sweep**: a ladder of offered rates, reporting p50/p99/p999
//!    of *admitted* calls at each rung. The knee is the highest rung
//!    whose p99 stays within 8× the lightly-loaded baseline with <5%
//!    sheds.
//! 2. **Overload**: 2× the knee with tenant quotas enabled. The gate is
//!    "shed, don't collapse": admitted p99 stays bounded, every excess
//!    call gets a *typed* fault (`BUSY` with retry hints, or
//!    `DEADLINE_EXCEEDED`) — never a silent drop, hang, or panic — and
//!    no tenant is starved outright.
//!
//! Being open-loop matters: arrivals are scheduled by the clock, not by
//! completions, so a slow server faces a growing backlog exactly as a
//! real portal under a class-load spike would. (Scheduling is sharded
//! over a fixed worker pool, so an arrival can start late when every
//! worker is mid-flow; at the rates swept here that lateness is small
//! next to the interarrival gap.)
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e15_load -- \
//!     [--quick] [--json PATH] [--baseline PATH]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use portalws_auth::{QuotaConfig, TenantQuotas, UserSession};
use portalws_core::{DeploymentSpec, PortalDeployment, SecurityMode, ServerArm, TransportMode};
use portalws_gridsim::cred::Mechanism;
use portalws_soap::{PortalErrorKind, SoapClient, SoapError, SoapValue};
use portalws_wire::ServerConfig;

const PBS_SCRIPT: &str =
    "#!/bin/sh\n#PBS -N e15\n#PBS -q batch\n#PBS -l nodes=1\n#PBS -l walltime=00:01:00\nhostname\n";

/// Per-call deadline budget carried by every request in the flow.
const CALL_DEADLINE_MS: u64 = 200;

/// Harness worker threads driving the open-loop schedule.
const DRIVE_WORKERS: usize = 12;

/// The production admission posture every host serves under.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 8,
        queue_cap: Some(16),
        max_connections: 256,
        shed_retry_after_ms: 10,
        ..ServerConfig::default()
    }
}

/// Quotas for the overload phase: a healthy burst, a sustained rate well
/// under 2× knee so the excess actually sheds.
fn quota_config() -> QuotaConfig {
    QuotaConfig {
        burst: 32.0,
        refill_per_sec: 150.0,
    }
}

// ---------------------------------------------------------------------
// Seeded PRNG (splitmix64) — the schedule replays from one seed.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    /// Uniform in (0, 1].
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
    /// Exponential interarrival at `rate` per second.
    fn exp(&mut self, rate: f64) -> f64 {
        -self.next_f64().ln() / rate
    }
}

// ---------------------------------------------------------------------
// Outcome classification
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Served within its deadline.
    Admitted,
    /// Typed `BUSY` shed (queue full or quota spent) with retry hints.
    Busy,
    /// Typed `DEADLINE_EXCEEDED` shed before dispatch.
    Deadline,
    /// Client-side deadline enforcement gave up (pool timeout). Still a
    /// well-formed typed error, counted separately from server sheds.
    Late,
    /// Anything else — a malformed reply, a panic, a silent drop. The
    /// gate requires zero of these.
    Fail,
}

fn classify(err: &SoapError) -> Class {
    match err.as_fault().and_then(|f| f.kind()) {
        Some(PortalErrorKind::Busy) => Class::Busy,
        Some(PortalErrorKind::DeadlineExceeded) => Class::Deadline,
        Some(PortalErrorKind::HostUnavailable) => Class::Late,
        _ => Class::Fail,
    }
}

// ---------------------------------------------------------------------
// Tenant clients
// ---------------------------------------------------------------------

/// One tenant's session-backed proxies to every host the flow touches.
struct Tenant {
    session: Arc<UserSession>,
    auth: SoapClient,
    uddi: SoapClient,
    job: SoapClient,
    data: SoapClient,
}

fn provision_tenants(dep: &Arc<PortalDeployment>, count: usize) -> Vec<Arc<Tenant>> {
    (0..count)
        .map(|i| {
            let principal = format!("tenant{i}@GCE.ORG");
            dep.auth.register_user(&principal, "load-pass");
            let gss = dep
                .auth
                .login(&principal, "load-pass", Mechanism::Kerberos)
                .expect("tenant login");
            let session = UserSession::new(gss, Arc::clone(dep.auth.clock()));
            let client = |host: &str, service: &str| {
                let c = SoapClient::new(dep.transport(host).expect("host"), service);
                c.set_header_supplier(session.header_supplier());
                c.set_call_deadline(Duration::from_millis(CALL_DEADLINE_MS));
                c
            };
            let job = client("grid.sdsc.edu", "JobSubmission");
            job.set_idempotent_methods(&["status", "listHosts"]);
            let data = client("grid.sdsc.edu", "DataManagement");
            data.set_idempotent_methods(&["get", "ls", "cat"]);
            let uddi = client("registry.gce.org", "Uddi");
            uddi.set_idempotent_methods(&["findService"]);
            let auth = client("auth.gce.org", "Authentication");
            auth.set_idempotent_methods(&["verify"]);
            Arc::new(Tenant {
                session,
                auth,
                uddi,
                job,
                data,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// The Fig. 4 session flow
// ---------------------------------------------------------------------

/// One timed call: (latency ms, outcome).
fn timed(call: impl FnOnce() -> Result<SoapValue, SoapError>) -> (f64, Class) {
    let t0 = Instant::now();
    let out = call();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok(_) => (ms, Class::Admitted),
        Err(e) => (ms, classify(&e)),
    }
}

/// Run one session's flow, appending `(ms, class, tenant)` per call.
/// A shed submit aborts the polls (there is no job id to poll).
fn session_flow(t: &Tenant, tenant_ix: usize, out: &mut Vec<(f64, Class, usize)>) {
    let mut push = |r: (f64, Class)| {
        out.push((r.0, r.1, tenant_ix));
        r.1 == Class::Admitted
    };
    let assertion = t.session.make_assertion();
    push(timed(|| {
        t.auth
            .call("verify", &[SoapValue::Xml(assertion.to_element())])
    }));
    push(timed(|| {
        t.uddi.call("findService", &[SoapValue::str("Job")])
    }));
    let t0 = Instant::now();
    let submit = t.job.call(
        "submit",
        &[
            SoapValue::str("tg-login"),
            SoapValue::str("PBS"),
            SoapValue::str(PBS_SCRIPT),
        ],
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match submit {
        Ok(id) => {
            push((ms, Class::Admitted));
            for _ in 0..2 {
                push(timed(|| t.job.call("status", std::slice::from_ref(&id))));
            }
        }
        Err(e) => {
            push((ms, classify(&e)));
        }
    }
    push(timed(|| {
        t.data.call("get", &[SoapValue::str("/public/README")])
    }));
}

// ---------------------------------------------------------------------
// Open-loop schedule + drive
// ---------------------------------------------------------------------

/// Poisson arrivals with clustered bursts (a gateway fanning one user
/// action out as several near-simultaneous sessions).
fn arrival_schedule(seed: u64, rate: f64, dur_s: f64, tenants: usize) -> Vec<(f64, usize)> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(rate);
        if t >= dur_s {
            break;
        }
        out.push((t, (rng.next_u64() as usize) % tenants));
        if rng.next_f64() < 0.08 {
            let extra = 1 + (rng.next_u64() % 3) as usize;
            for _ in 0..extra {
                out.push((t, (rng.next_u64() as usize) % tenants));
            }
        }
    }
    out
}

struct Run {
    /// Sessions offered per second (including bursts).
    offered: f64,
    /// Latencies (ms) of admitted calls, sorted ascending.
    admitted: Vec<f64>,
    busy: u64,
    deadline: u64,
    late: u64,
    fail: u64,
    /// Admitted calls per tenant index.
    per_tenant: Vec<u64>,
}

impl Run {
    fn sheds(&self) -> u64 {
        self.busy + self.deadline
    }
    fn calls(&self) -> u64 {
        self.admitted.len() as u64 + self.busy + self.deadline + self.late + self.fail
    }
    fn shed_frac(&self) -> f64 {
        let calls = self.calls();
        if calls == 0 {
            return 0.0;
        }
        (self.sheds() + self.late) as f64 / calls as f64
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let ix = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[ix]
}

/// Stand up a fresh deployment on `arm` and drive `rate` sessions/sec at
/// it for `dur_s`, open-loop.
fn run_load(
    arm: ServerArm,
    rate: f64,
    dur_s: f64,
    tenants_n: usize,
    with_quotas: bool,
    seed: u64,
) -> Run {
    let dep = DeploymentSpec {
        mode: TransportMode::TcpPooled,
        server: ServerConfig {
            arm,
            ..server_config()
        },
        ..DeploymentSpec::new(SecurityMode::Local)
    }
    .build();
    if with_quotas {
        dep.enable_tenant_quotas(TenantQuotas::new(quota_config()));
    }
    let tenants = provision_tenants(&dep, tenants_n);
    let schedule = arrival_schedule(seed, rate, dur_s, tenants_n);
    let offered = schedule.len() as f64 / dur_s;
    let schedule = Arc::new(schedule);
    let start = Instant::now() + Duration::from_millis(20);

    let mut handles = Vec::new();
    for w in 0..DRIVE_WORKERS {
        let schedule = Arc::clone(&schedule);
        let tenants: Vec<Arc<Tenant>> = tenants.clone();
        handles.push(std::thread::spawn(move || {
            let mut records: Vec<(f64, Class, usize)> = Vec::new();
            let mut ix = w;
            while ix < schedule.len() {
                let (offset, tenant_ix) = schedule[ix];
                let target = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                session_flow(&tenants[tenant_ix], tenant_ix, &mut records);
                ix += DRIVE_WORKERS;
            }
            records
        }));
    }

    let mut admitted = Vec::new();
    let (mut busy, mut deadline, mut late, mut fail) = (0u64, 0u64, 0u64, 0u64);
    let mut per_tenant = vec![0u64; tenants_n];
    for handle in handles {
        for (ms, class, tenant_ix) in handle.join().expect("drive worker") {
            match class {
                Class::Admitted => {
                    admitted.push(ms);
                    per_tenant[tenant_ix] += 1;
                }
                Class::Busy => busy += 1,
                Class::Deadline => deadline += 1,
                Class::Late => late += 1,
                Class::Fail => fail += 1,
            }
        }
    }
    admitted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    Run {
        offered,
        admitted,
        busy,
        deadline,
        late,
        fail,
        per_tenant,
    }
}

fn arm_name(arm: ServerArm) -> &'static str {
    match arm {
        ServerArm::Blocking => "blocking",
        ServerArm::Reactor => "reactor",
    }
}

fn print_run(label: &str, run: &Run) {
    println!(
        "  {:<12} {:>8.0} {:>8} {:>8.2} {:>8.2} {:>8.2} {:>6} {:>6} {:>6} {:>6}",
        label,
        run.offered,
        run.admitted.len(),
        percentile(&run.admitted, 0.50),
        percentile(&run.admitted, 0.99),
        percentile(&run.admitted, 0.999),
        run.busy,
        run.deadline,
        run.late,
        run.fail,
    );
}

struct ArmReport {
    knee_rate: f64,
    overload: Run,
}

fn drive_arm(arm: ServerArm, rates: &[f64], dur_s: f64, tenants: usize, seed: u64) -> ArmReport {
    println!(
        "\n{} arm — knee sweep ({dur_s:.1}s per rung)",
        arm_name(arm)
    );
    println!(
        "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6}",
        "rate", "offered", "admit", "p50ms", "p99ms", "p999ms", "busy", "ddl", "late", "fail"
    );
    let mut knee = rates[0];
    let mut base_p99 = f64::NAN;
    for (i, &rate) in rates.iter().enumerate() {
        let run = run_load(arm, rate, dur_s, tenants, false, seed + i as u64);
        print_run(&format!("{rate:.0}/s"), &run);
        let p99 = percentile(&run.admitted, 0.99);
        if i == 0 {
            // Floor the lightly-loaded baseline so sub-ms jitter cannot
            // fake a knee.
            base_p99 = p99.max(0.5);
        }
        if p99 <= 8.0 * base_p99 && run.shed_frac() < 0.05 {
            knee = rate;
        } else {
            break;
        }
    }
    println!("  knee: {knee:.0} sessions/s");

    let overload_rate = 2.0 * knee;
    println!(
        "{} arm — overload at 2x knee ({overload_rate:.0}/s), tenant quotas on",
        arm_name(arm)
    );
    let overload = run_load(arm, overload_rate, dur_s, tenants, true, seed + 97);
    print_run(&format!("{overload_rate:.0}/s"), &overload);
    println!(
        "  sheds: {} busy + {} deadline; per-tenant admitted: {:?}",
        overload.busy, overload.deadline, overload.per_tenant
    );
    ArmReport {
        knee_rate: knee,
        overload,
    }
}

/// Pull the number after `"key":` out of a flat JSON document (the
/// baseline file this binary writes itself).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let tail = doc.get(at..)?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail.get(..end)?.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let json_path = flag_value("--json");
    let baseline_path = flag_value("--baseline");

    let (rates, dur_s, tenants): (&[f64], f64, usize) = if quick {
        (&[40.0, 80.0, 160.0], 1.0, 4)
    } else {
        (&[50.0, 100.0, 200.0, 400.0], 3.0, 6)
    };
    let seed = 0xE15_0001u64;

    println!("E15 — open-loop load: admission control, fairness, deadlines");
    println!(
        "flow: verify -> findService -> submit -> status x2 -> get; deadline {CALL_DEADLINE_MS} ms/call"
    );
    let cfg = server_config();
    println!(
        "admission: workers {}, queue cap {:?}, max conns {}, retry hint {} ms",
        cfg.workers, cfg.queue_cap, cfg.max_connections, cfg.shed_retry_after_ms
    );

    let blocking = drive_arm(ServerArm::Blocking, rates, dur_s, tenants, seed);
    let reactor = drive_arm(ServerArm::Reactor, rates, dur_s, tenants, seed);

    // --- Gates: shed, don't collapse -------------------------------------
    let p99_max_ms = baseline_path
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|doc| json_number(&doc, "p99_max_ms"))
        .unwrap_or(250.0);
    let mut failures = Vec::new();
    for (name, report) in [("blocking", &blocking), ("reactor", &reactor)] {
        let run = &report.overload;
        let p99 = percentile(&run.admitted, 0.99);
        if run.fail > 0 {
            failures.push(format!(
                "{name}: {} calls failed untyped under overload (sheds must be well-formed faults)",
                run.fail
            ));
        }
        if run.sheds() == 0 {
            failures.push(format!(
                "{name}: overload at 2x knee produced no sheds — admission control never engaged"
            ));
        }
        if p99 > p99_max_ms {
            failures.push(format!(
                "{name}: admitted p99 {p99:.1} ms exceeds the {p99_max_ms:.0} ms bound under overload"
            ));
        }
        if run.admitted.is_empty() {
            failures.push(format!("{name}: nothing admitted under overload"));
        }
        if let Some(starved) = run.per_tenant.iter().position(|&n| n == 0) {
            failures.push(format!(
                "{name}: tenant {starved} was starved outright under overload"
            ));
        }
    }

    // --- JSON artifact ----------------------------------------------------
    if let Some(path) = json_path {
        let mut doc = String::new();
        doc.push_str("{\n");
        for (name, report) in [("blocking", &blocking), ("reactor", &reactor)] {
            let run = &report.overload;
            doc.push_str(&format!(
                "  \"knee_rate_{name}\": {:.1},\n  \"overload_p50_ms_{name}\": {:.3},\n  \"overload_p99_ms_{name}\": {:.3},\n  \"overload_p999_ms_{name}\": {:.3},\n  \"overload_admitted_{name}\": {},\n  \"overload_busy_{name}\": {},\n  \"overload_deadline_{name}\": {},\n  \"overload_late_{name}\": {},\n  \"overload_fail_{name}\": {},\n",
                report.knee_rate,
                percentile(&run.admitted, 0.50),
                percentile(&run.admitted, 0.99),
                percentile(&run.admitted, 0.999),
                run.admitted.len(),
                run.busy,
                run.deadline,
                run.late,
                run.fail,
            ));
        }
        doc.push_str(&format!("  \"p99_max_ms\": {p99_max_ms:.1}\n"));
        doc.push_str("}\n");
        std::fs::write(&path, doc).expect("write json");
        println!("\nwrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nload gates passed: typed sheds only, admitted p99 ≤ {p99_max_ms:.0} ms at 2x knee, no tenant starved"
    );
}
