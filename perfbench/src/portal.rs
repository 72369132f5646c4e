//! `portal_session`: the Fig. 4 session on a Central-security pooled TCP
//! deployment. Two tenants (alice, bob), each logged in once through
//! `UiServer::login` with read caching on, run sessions of
//! `discover_and_bind("JobSubmission")` → `submit` → `status` ×2 → `put`
//! of a 1 KiB result into the tenant's home → `get` of it back. Every
//! 20th session of a tenant first re-publishes a registry entry, which
//! bumps the registry generation so the next discovery revalidates.

use std::sync::Arc;

use portalws_core::deployment::USERS;
use portalws_core::{PortalDeployment, SecurityMode, UiServer};
use portalws_soap::{Envelope, ReadCache, SoapClient, SoapValue};

use crate::trace::{TimedTransport, Tracer};
use crate::util::{self, Rng};
use crate::{Body, Config, OpError, OpResult, RunData, Sources};

/// Set-ups per run; the last one is measured.
const SETUPS: usize = 9;
/// Warm-up sessions per tenant in each set-up.
const WARMUP_SESSIONS: u64 = 20;
/// A tenant re-publishes a registry entry once every this many sessions.
const PUBLISH_EVERY: u64 = 20;
/// Bytes of the result each session stores and reads back.
pub const RESULT_BYTES: usize = 1024;
/// Distinct seeded results per tenant, cycled through by session.
const VARIANTS: usize = 16;

fn pbs_script(tag: &str) -> String {
    format!(
        "#!/bin/sh\n#PBS -N pb{tag}\n#PBS -q batch\n#PBS -l nodes=1\n#PBS -l walltime=00:01:00\nhostname\n"
    )
}

/// One tenant: its UI server, its own `DataManagement` proxy, inputs.
struct Tenant {
    ui: UiServer,
    data: SoapClient,
    home: String,
    script: String,
    results: Vec<String>,
}

/// Logged-in tenants over one deployment.
pub struct Rig {
    pub dep: Arc<PortalDeployment>,
    tenants: Vec<Tenant>,
    publisher: SoapClient,
    business: String,
    pub cache: Arc<ReadCache>,
    pub timed: Vec<Arc<TimedTransport>>,
    /// Offset of the seeded registry-write schedule.
    phase: u64,
}

impl Rig {
    pub fn new(dep: Arc<PortalDeployment>, threads: usize, rng: &Rng) -> Result<Rig, String> {
        let cache = Arc::new(ReadCache::default());
        let grid = dep.transport("grid.sdsc.edu").map_err(|e| e.to_string())?;
        let mut timed = Vec::new();
        let mut tenants = Vec::new();
        for t in 0..threads {
            let (principal, secret) = USERS[t % USERS.len()];
            let ui = UiServer::new(Arc::clone(&dep));
            ui.login(principal, secret)
                .map_err(|e| format!("login {principal}: {e}"))?;
            ui.enable_read_caching(Arc::clone(&cache));
            let session = ui.session().ok_or("no session after login")?;
            let transport = TimedTransport::new(Arc::clone(&grid));
            timed.push(Arc::clone(&transport));
            let data = SoapClient::new(transport, "DataManagement");
            data.set_header_supplier(session.header_supplier());
            let mut r = rng.fork(t as u64);
            tenants.push(Tenant {
                ui,
                data,
                home: format!("/home-{principal}"),
                script: pbs_script(&r.text(6)),
                results: (0..VARIANTS).map(|_| r.text(RESULT_BYTES)).collect(),
            });
        }
        // Registry writes go through the registry's SOAP facade; the
        // publisher shares the read cache so the bump it observes
        // invalidates cached discoveries at once.
        let publisher = SoapClient::new(
            dep.transport("registry.gce.org")
                .map_err(|e| e.to_string())?,
            "Uddi",
        );
        publisher.enable_read_cache(Arc::clone(&cache), &[]);
        let business = publisher
            .call(
                "publishBusiness",
                &[
                    SoapValue::str(format!("PerfBench {}", rng.clone().text(6))),
                    SoapValue::str("Portal session result indexes"),
                ],
            )
            .map_err(|e| format!("publishBusiness: {e}"))?
            .as_str()
            .ok_or("publishBusiness returned no key")?
            .to_owned();
        Ok(Rig {
            dep,
            tenants,
            publisher,
            business,
            cache,
            timed,
            phase: rng.clone().below(PUBLISH_EVERY),
        })
    }

    /// The first tenant's UI server (logged in).
    pub fn ui(&self) -> Option<&UiServer> {
        self.tenants.first().map(|t| &t.ui)
    }

    /// One session of tenant `thread`; `i` is its session number.
    pub fn op(&self, thread: usize, i: u64, tracer: &mut Tracer) -> OpResult {
        let t = self
            .tenants
            .get(thread)
            .ok_or_else(|| OpError::Failed(format!("no tenant {thread}")))?;
        let failed =
            |what: &str, e: &dyn std::fmt::Display| OpError::Failed(format!("{what}: {e}"));
        if (i + self.phase).is_multiple_of(PUBLISH_EVERY) {
            tracer
                .span("soap.call_us.Uddi.publishService", || {
                    self.publisher.call(
                        "publishService",
                        &[
                            SoapValue::str(self.business.as_str()),
                            SoapValue::str(format!("Results {thread}-{i}")),
                            SoapValue::str("Index of stored portal session results"),
                            SoapValue::str("http://grid.sdsc.edu/soap/DataManagement"),
                        ],
                    )
                })
                .map_err(|e| failed("publishService", &e))?;
        }
        let job = tracer
            .span("core.discover_and_bind_us", || {
                t.ui.discover_and_bind("JobSubmission")
            })
            .map_err(|e| failed("discover_and_bind", &e))?;
        let id = tracer
            .span("soap.call_us.JobSubmission.submit", || {
                job.call(
                    "submit",
                    &[
                        SoapValue::str("tg-login"),
                        SoapValue::str("PBS"),
                        SoapValue::str(t.script.as_str()),
                    ],
                )
            })
            .map_err(|e| failed("submit", &e))?;
        let id = match id.as_i64() {
            Some(id) if id > 0 => id,
            _ => return Err(OpError::Wrong(format!("submit returned {id:?}"))),
        };
        for _ in 0..2 {
            let status = tracer
                .span("soap.call_us.JobSubmission.status", || {
                    job.call("status", &[SoapValue::Int(id)])
                })
                .map_err(|e| failed("status", &e))?;
            let state = status.field("state").and_then(SoapValue::as_str);
            if status.field("jobId").and_then(SoapValue::as_i64) != Some(id)
                || !matches!(state, Some(s) if !s.is_empty())
            {
                return Err(OpError::Wrong(format!("status of job {id}: {status:?}")));
            }
        }
        let content = &t.results[(i as usize) % t.results.len()];
        let path = format!("{}/perfbench-{thread}", t.home);
        let stored = tracer
            .span("soap.call_us.DataManagement.put", || {
                t.data.call(
                    "put",
                    &[
                        SoapValue::str(path.as_str()),
                        SoapValue::str(content.as_str()),
                    ],
                )
            })
            .map_err(|e| failed("put", &e))?;
        if stored.as_i64() != Some(content.len() as i64) {
            return Err(OpError::Wrong(format!("put stored {stored:?}")));
        }
        let got = tracer
            .span("soap.call_us.DataManagement.get", || {
                t.data.call("get", &[SoapValue::str(path.as_str())])
            })
            .map_err(|e| failed("get", &e))?;
        if got.as_str() != Some(content.as_str()) {
            return Err(OpError::Wrong("get returned other bytes than put".into()));
        }
        Ok(2 * content.len() as u64)
    }

    /// The bodies one session sends and receives, rebuilt from its inputs.
    pub fn bodies(&self) -> Vec<Body> {
        let Some(t) = self.tenants.first() else {
            return Vec::new();
        };
        let header = t.ui.session().map(|s| s.make_assertion().to_element());
        let signed = |env: Envelope| match &header {
            Some(h) => env.with_header(h.clone()),
            None => env,
        };
        let id = SoapValue::Int(1);
        let submit = [
            SoapValue::str("tg-login"),
            SoapValue::str("PBS"),
            SoapValue::str(t.script.as_str()),
        ];
        let status = SoapValue::Struct(vec![
            ("jobId".into(), id.clone()),
            ("state".into(), SoapValue::str("QUEUED")),
            ("host".into(), SoapValue::str("tg-login")),
            ("scheduler".into(), SoapValue::str("PBS")),
            ("queue".into(), SoapValue::str("batch")),
        ]);
        let content = SoapValue::str(t.results[0].as_str());
        let path = SoapValue::str(format!("{}/perfbench-0", t.home));
        vec![
            Body {
                path: "/soap/JobSubmission".into(),
                request: signed(Envelope::request("JobSubmission", "submit", &submit)),
                reply: Envelope::response("submit", &id),
                per_op: 1.0,
            },
            Body {
                path: "/soap/JobSubmission".into(),
                request: signed(Envelope::request(
                    "JobSubmission",
                    "status",
                    std::slice::from_ref(&id),
                )),
                reply: Envelope::response("status", &status),
                per_op: 2.0,
            },
            Body {
                path: "/soap/DataManagement".into(),
                request: signed(Envelope::request(
                    "DataManagement",
                    "put",
                    &[path.clone(), content.clone()],
                )),
                reply: Envelope::response("put", &SoapValue::Int(RESULT_BYTES as i64)),
                per_op: 1.0,
            },
            Body {
                path: "/soap/DataManagement".into(),
                request: signed(Envelope::request("DataManagement", "get", &[path])),
                reply: Envelope::response("get", &content),
                per_op: 1.0,
            },
        ]
    }
}

/// The deployment's counters and server threads.
pub fn sources(dep: &PortalDeployment, tids: Vec<u32>, cache: Option<&ReadCache>) -> Sources {
    let hosts = dep.hosts();
    Sources {
        servers: hosts
            .iter()
            .filter_map(|h| dep.server_wire_stats(h))
            .collect(),
        auth_host: dep.server_wire_stats("auth.gce.org"),
        clients: hosts
            .iter()
            .filter_map(|h| dep.transport(h).ok().map(|t| t.stats()))
            .collect(),
        cache: cache.map(|c| Arc::clone(c.stats())),
        auth_service: Some(dep.auth.stats()),
        server_tids: tids,
        workers: 2 * hosts.len(),
    }
}

/// Largest count of connections a generator-facing host accepted.
pub fn max_connections(dep: &PortalDeployment) -> u64 {
    ["registry.gce.org", "grid.sdsc.edu"]
        .iter()
        .filter_map(|h| dep.server_wire_stats(h))
        .map(|s| s.snapshot().connections)
        .max()
        .unwrap_or(0)
}

pub fn run(cfg: &Config) -> Result<crate::Outcome, String> {
    let threads = util::nproc().min(USERS.len());
    let rng = Rng::new(cfg.seed);
    let mut data = RunData::default();
    let mut kept = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down before timing the next.
        drop(kept.take());
        let timer = crate::SetupTimer::start();
        let (dep, tids) =
            crate::spawned_by(|| PortalDeployment::over_tcp_pooled(SecurityMode::Central));
        let rig = Rig::new(dep, threads, &rng)?;
        crate::warm_up(threads, WARMUP_SESSIONS, |t, i, tr| rig.op(t, i, tr))?;
        data.setups.push(timer.stop());
        kept = Some((rig, tids));
    }
    let (rig, tids) = kept.ok_or("no set-up")?;
    let src = sources(&rig.dep, tids, Some(&rig.cache));
    // Measured sessions continue the warm-up's numbering, so the
    // registry-write schedule runs on unbroken.
    crate::measure(cfg, threads, &src, &rig.timed, &mut data, |t, i, tr| {
        rig.op(t, i + WARMUP_SESSIONS, tr)
    });
    data.max_connections = max_connections(&rig.dep);
    let bodies = rig.bodies();
    let work = crate::ServerWork {
        submits: 1.0,
        polls: 2.0,
        srb_puts: 1.0,
        srb_gets: 1.0,
        ..crate::ServerWork::default()
    };
    let probe = crate::layers::Probe {
        dep: Some(&rig.dep),
        ui: rig.ui(),
    };
    crate::finish(cfg, data, |data, untraced| {
        crate::layers::per_layer(cfg, data, untraced, &bodies, work, probe)
    })
}
