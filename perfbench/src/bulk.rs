//! `bulk_transfer`: one tenant on the portal deployment moves a 4 MiB
//! object up and back down with the chunked `TransferClient` (window 2,
//! default 256 KiB chunks) and byte-compares it. The object lives in a
//! collection created at set-up, since tenant homes have a 1 MiB quota.

use std::sync::Arc;

use portalws_core::deployment::USERS;
use portalws_core::{PortalDeployment, SecurityMode, TransferClient, TransferConfig, UiServer};
use portalws_soap::{Envelope, SoapClient, SoapValue};

use crate::portal::{max_connections, sources};
use crate::trace::{TimedTransport, Tracer};
use crate::util::Rng;
use crate::{Body, Config, OpError, OpResult};

/// Set-ups per run; the last one is measured.
const SETUPS: usize = 9;
/// Warm-up put/get pairs in each set-up.
const WARMUP_OPS: u64 = 1;
pub const OBJECT_BYTES: usize = 4 * 1024 * 1024;
const WINDOW: usize = 2;
const COLLECTION: &str = "/perfbench-bulk";

/// A logged-in tenant with a transfer-ready `DataManagement` proxy.
pub struct Rig {
    pub dep: Arc<PortalDeployment>,
    pub ui: UiServer,
    data: SoapClient,
    pub timed: Arc<TimedTransport>,
    /// Two seeded objects, alternated so each get must return the latest put.
    objects: [Vec<u8>; 2],
}

impl Rig {
    pub fn new(dep: Arc<PortalDeployment>, rng: &Rng) -> Result<Rig, String> {
        let (principal, secret) = USERS[0];
        let ui = UiServer::new(Arc::clone(&dep));
        ui.login(principal, secret)
            .map_err(|e| format!("login {principal}: {e}"))?;
        let session = ui.session().ok_or("no session after login")?;
        let timed = TimedTransport::new(dep.transport("grid.sdsc.edu").map_err(|e| e.to_string())?);
        let data = SoapClient::new(Arc::clone(&timed) as _, "DataManagement");
        data.set_header_supplier(session.header_supplier());
        data.call("mkdir", &[SoapValue::str(COLLECTION)])
            .map_err(|e| format!("mkdir {COLLECTION}: {e}"))?;
        let mut r = rng.fork(0x6275_6c6b);
        Ok(Rig {
            dep,
            ui,
            data,
            timed,
            objects: [r.bytes(OBJECT_BYTES), r.bytes(OBJECT_BYTES)],
        })
    }

    /// One 4 MiB put and get, byte-compared.
    pub fn op(&self, i: u64, tracer: &mut Tracer) -> OpResult {
        let object = &self.objects[(i % 2) as usize];
        let path = format!("{COLLECTION}/object");
        let client = TransferClient::with_config(
            &self.data,
            TransferConfig {
                window: WINDOW,
                ..TransferConfig::default()
            },
        );
        let put = tracer
            .span("core.transfer_put_us", || client.put(&path, object))
            .map_err(|e| OpError::Failed(format!("put: {e}")))?;
        if put.bytes != object.len() {
            return Err(OpError::Wrong(format!("put moved {} bytes", put.bytes)));
        }
        let (got, _) = tracer
            .span("core.transfer_get_us", || client.get(&path))
            .map_err(|e| OpError::Failed(format!("get: {e}")))?;
        if &got != object {
            return Err(OpError::Wrong("get returned other bytes than put".into()));
        }
        Ok((2 * object.len()) as u64)
    }

    /// The chunk bodies one put/get pair sends and receives.
    pub fn bodies(&self) -> Vec<Body> {
        let chunk = portalws_core::transfer::DEFAULT_CHUNK_BYTES;
        let chunks = OBJECT_BYTES.div_ceil(chunk) as f64;
        let header = self.ui.session().map(|s| s.make_assertion().to_element());
        let signed = |env: Envelope| match &header {
            Some(h) => env.with_header(h.clone()),
            None => env,
        };
        let bytes = SoapValue::Base64(self.objects[0][..chunk].to_vec());
        let handle = SoapValue::str("t-1");
        vec![
            Body {
                path: "/soap/DataManagement".into(),
                request: signed(Envelope::request(
                    "DataManagement",
                    "put_chunk",
                    &[handle.clone(), SoapValue::Int(0), bytes.clone()],
                )),
                reply: Envelope::response("put_chunk", &SoapValue::Int(chunk as i64)),
                per_op: chunks,
            },
            Body {
                path: "/soap/DataManagement".into(),
                request: signed(Envelope::request(
                    "DataManagement",
                    "get_chunk",
                    &[handle, SoapValue::Int(0), SoapValue::Int(chunk as i64)],
                )),
                reply: Envelope::response("get_chunk", &bytes),
                per_op: chunks,
            },
        ]
    }
}

pub fn run(cfg: &Config) -> Result<crate::Outcome, String> {
    let rng = Rng::new(cfg.seed);
    let mut data = crate::RunData::default();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let timer = crate::SetupTimer::start();
        let (dep, tids) =
            crate::spawned_by(|| PortalDeployment::over_tcp_pooled(SecurityMode::Central));
        let rig = Rig::new(dep, &rng)?;
        crate::warm_up(1, WARMUP_OPS, |_, i, tr| rig.op(i, tr))?;
        data.setups.push(timer.stop());
        kept = Some((rig, tids));
    }
    let (rig, tids) = kept.ok_or("no set-up")?;
    let src = sources(&rig.dep, tids, None);
    crate::measure(
        cfg,
        1,
        &src,
        std::slice::from_ref(&rig.timed),
        &mut data,
        |_, i, tr| rig.op(i + WARMUP_OPS, tr),
    );
    data.max_connections = max_connections(&rig.dep);
    let bodies = rig.bodies();
    let mib = OBJECT_BYTES as f64 / (1024.0 * 1024.0);
    let work = crate::ServerWork {
        srb_append_mib: mib,
        srb_read_mib: mib,
        base64_mib: 2.0 * mib,
        ..crate::ServerWork::default()
    };
    let probe = crate::layers::Probe {
        dep: Some(&rig.dep),
        ui: Some(&rig.ui),
    };
    crate::finish(cfg, data, |data, untraced| {
        crate::layers::per_layer(cfg, data, untraced, &bodies, work, probe)
    })
}
