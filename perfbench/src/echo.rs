//! `echo` and `echo_reactor`: keep-alive clients echo the representative
//! `submitXml` job document through a bare `SoapServer`, on the blocking
//! arm or the epoll reactor arm, with 2 server workers.
//!
//! The run is a sequence of epochs, each with a fresh server and fresh
//! connections: which reactor worker accepts which connection is decided
//! once per server, so one long-lived server would sample that placement
//! only once per run. Every epoch's set-up (server start, connects,
//! warm-up) is one `setup_s` sample.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use portalws_bench::jobs_request;
use portalws_soap::{
    CallContext, Envelope, Fault, MethodDesc, SoapClient, SoapResult, SoapServer, SoapService,
    SoapType, SoapValue,
};
use portalws_wire::{Handler, HttpServer, InMemoryTransport, PooledTransport, ServerHandle};
use portalws_xml::Element;

use crate::layers::Probe;
use crate::trace::{TimedTransport, Tracer};
use crate::util::{self, Rng};
use crate::{Body, Config, OpError, OpResult, RunData, ServerWork, Sources, Window};

/// Server worker threads, as in the deployment's default.
pub const WORKERS: usize = 2;
/// Measured time per epoch; every epoch is one slice.
const EPOCH: Duration = Duration::from_millis(100);
/// Warm-up calls per client in each epoch's set-up.
const WARMUP_CALLS: u64 = 50;

/// Echo service: one full envelope decode and encode per call.
pub struct EchoService;

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

/// The representative job document (`jobs_request(4, 30, 2)`, the body
/// of the 1.3 KB `submitXml` envelope) with a seeded run tag.
pub fn payload(rng: &mut Rng) -> Element {
    let mut jobs = jobs_request(4, 30, 2);
    jobs.set_attr("run", rng.text(8));
    jobs
}

/// Clients and their payloads, over any transport.
pub struct Clients {
    clients: Vec<(SoapClient, SoapValue)>,
    pub timed: Vec<Arc<TimedTransport>>,
    payload_bytes: u64,
}

impl Clients {
    pub fn new(transports: Vec<Arc<dyn portalws_wire::Transport>>, rng: &Rng) -> Clients {
        let mut payload_bytes = 0;
        let mut timed = Vec::new();
        let clients = transports
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let t = TimedTransport::new(t);
                timed.push(Arc::clone(&t));
                let doc = payload(&mut rng.fork(i as u64));
                payload_bytes = doc.to_xml().len() as u64;
                (SoapClient::new(t, "Echo"), SoapValue::Xml(doc))
            })
            .collect();
        Clients {
            clients,
            timed,
            payload_bytes,
        }
    }

    /// One echo call, checked equal to what was sent.
    pub fn op(&self, thread: usize, tracer: &mut Tracer) -> OpResult {
        let (client, payload) = self
            .clients
            .get(thread)
            .ok_or_else(|| OpError::Failed(format!("no client {thread}")))?;
        let reply = tracer
            .span("soap.call_us.Echo.echo", || {
                client.call("echo", std::slice::from_ref(payload))
            })
            .map_err(|e| OpError::Failed(e.to_string()))?;
        if &reply != payload {
            return Err(OpError::Wrong("echo reply differs from the payload".into()));
        }
        // The document went there and back.
        Ok(2 * self.payload_bytes)
    }

    pub fn bodies(&self) -> Vec<Body> {
        self.clients
            .first()
            .map(|(_, payload)| Body {
                path: "/soap/Echo".into(),
                request: Envelope::request("Echo", "echo", std::slice::from_ref(payload)),
                reply: Envelope::response("echo", payload),
                per_op: 1.0,
            })
            .into_iter()
            .collect()
    }
}

fn echo_handler() -> Arc<dyn Handler> {
    let soap = SoapServer::new();
    soap.mount(Arc::new(EchoService));
    Arc::new(soap)
}

/// In-process echo clients (no sockets) for span probes.
pub fn in_memory(threads: usize, rng: &Rng) -> Clients {
    let handler = echo_handler();
    let transports = (0..threads)
        .map(|_| {
            Arc::new(InMemoryTransport::new(Arc::clone(&handler)))
                as Arc<dyn portalws_wire::Transport>
        })
        .collect();
    Clients::new(transports, rng)
}

/// One epoch's server and clients.
struct Rig {
    server: ServerHandle,
    clients: Clients,
    sources: Sources,
}

fn start(reactor: bool, threads: usize, rng: &Rng) -> Result<Rig, String> {
    let (server, tids) = crate::spawned_by(|| {
        if reactor {
            HttpServer::start_reactor(echo_handler(), WORKERS)
        } else {
            HttpServer::start(echo_handler(), WORKERS)
        }
    });
    let server = server.map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let pooled: Vec<Arc<PooledTransport>> = (0..threads)
        .map(|_| Arc::new(PooledTransport::new(addr)))
        .collect();
    let clients = Clients::new(
        pooled
            .iter()
            .map(|p| Arc::clone(p) as Arc<dyn portalws_wire::Transport>)
            .collect(),
        rng,
    );
    let sources = Sources {
        servers: vec![Arc::clone(server.stats())],
        clients: pooled
            .iter()
            .map(|p| portalws_wire::Transport::stats(&**p))
            .collect(),
        server_tids: tids,
        workers: WORKERS,
        ..Sources::default()
    };
    crate::warm_up(threads, WARMUP_CALLS, |t, _, tracer| clients.op(t, tracer))?;
    Ok(Rig {
        server,
        clients,
        sources,
    })
}

pub fn run(cfg: &Config) -> Result<crate::Outcome, String> {
    let reactor = cfg.workload == crate::Workload::EchoReactor;
    let threads = util::nproc().min(2);
    let rng = Rng::new(cfg.seed);
    let mut data = RunData::default();
    let mut bodies = Vec::new();
    let epochs = ((cfg.seconds / EPOCH.as_secs_f64()).round() as usize).max(2);
    for epoch in 0..epochs {
        // A traced run alternates untraced and traced epochs.
        let traced = cfg.trace && epoch % 2 == 1;
        let timer = crate::SetupTimer::start();
        let rig = start(reactor, threads, &rng.fork(epoch as u64))?;
        data.setups.push(timer.stop());
        if bodies.is_empty() {
            bodies = rig.clients.bodies();
        }
        for t in &rig.clients.timed {
            t.enabled.store(traced, Ordering::Relaxed);
        }
        let window = traced.then(|| Window::open(&rig.sources));
        let tally = crate::drive(threads, EPOCH, traced, |t, _, tracer| {
            rig.clients.op(t, tracer)
        });
        if let Some(w) = window {
            w.close(&rig.sources, &mut data.delta);
            for t in &rig.clients.timed {
                let (calls, ns) = t.totals();
                data.rtt.0 += calls;
                data.rtt.1 += ns;
            }
        }
        data.max_connections = data
            .max_connections
            .max(rig.server.stats().snapshot().connections);

        if traced {
            data.traced.absorb(tally);
        } else {
            data.untraced.push(tally);
        }
        // Clients close their connections before the server joins its
        // workers.
        drop(rig.clients);
        rig.server.shutdown();
    }
    crate::finish(cfg, data, |data, untraced| {
        crate::layers::per_layer(
            cfg,
            data,
            untraced,
            &bodies,
            ServerWork::default(),
            Probe::default(),
        )
    })
}
