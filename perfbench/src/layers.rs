//! Per-layer metrics of a traced run, all taken from outside the program:
//! spans around the bench's calls, deltas of the program's public
//! counters, `/proc` scheduler readings, and timings of each crate's
//! public functions on the bodies the workload's op sends.
//!
//! [`METRICS`] is the single list of per-layer metrics: their units, which
//! way is better, and which end-to-end metric on which workload each one
//! should move. `BENCHMARK.json` is written from it (`--describe`).

use std::sync::Arc;
use std::time::Duration;

use portalws_core::deployment::USERS;
use portalws_core::{PortalDeployment, SecurityMode, UiServer};
use portalws_gridsim::SchedulerKind;
use portalws_soap::Envelope;
use portalws_wire::{Request, Response};
use portalws_xml::Element;

use crate::trace::Tracer;
use crate::util::{self, Rng};
use crate::{Body, Config, RunData, ServerWork, Tally};

/// One per-layer metric: name, unit, better, should move, most work in.
pub type MetricSpec = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

pub const METRICS: &[MetricSpec] = &[
    (
        "xml.parse_us",
        "us",
        "lower",
        "latency_p50_ms, ops_per_s",
        "echo -> portal_session",
    ),
    (
        "xml.write_us",
        "us",
        "lower",
        "latency_p50_ms, ops_per_s",
        "echo -> portal_session",
    ),
    (
        "xml.escape_fast_path_rate",
        "frac",
        "higher",
        "goodput_mib_s",
        "bulk_transfer -> echo",
    ),
    (
        "xml.unescape_fast_path_rate",
        "frac",
        "higher",
        "goodput_mib_s",
        "bulk_transfer -> echo",
    ),
    (
        "soap.envelope_parse_us",
        "us",
        "lower",
        "latency_p50_ms",
        "echo -> portal_session",
    ),
    (
        "soap.envelope_write_us",
        "us",
        "lower",
        "latency_p50_ms",
        "echo -> portal_session",
    ),
    (
        "soap.call_us.Echo.echo",
        "us",
        "lower",
        "latency_p50_ms",
        "echo, echo_reactor",
    ),
    (
        "soap.call_us.Uddi.publishService",
        "us",
        "lower",
        "latency_p90_ms",
        "portal_session",
    ),
    (
        "soap.call_us.JobSubmission.submit",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session",
    ),
    (
        "soap.call_us.JobSubmission.status",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session",
    ),
    (
        "soap.call_us.DataManagement.put",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session",
    ),
    (
        "soap.call_us.DataManagement.get",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session",
    ),
    (
        "soap.cache_hit_rate",
        "frac",
        "higher",
        "ops_per_s",
        "portal_session -> none elsewhere",
    ),
    (
        "soap.cache_invalidations_per_op",
        "count",
        "lower",
        "ops_per_s",
        "portal_session -> none elsewhere",
    ),
    (
        "soap.base64_us_per_mib",
        "us/MiB",
        "lower",
        "goodput_mib_s",
        "bulk_transfer -> echo",
    ),
    (
        "wire.requests_per_op",
        "count",
        "lower",
        "ops_per_s",
        "portal_session, bulk_transfer",
    ),
    (
        "wire.auth_hops_per_op",
        "count",
        "lower",
        "ops_per_s",
        "portal_session, bulk_transfer",
    ),
    (
        "wire.bytes_per_op",
        "bytes",
        "lower",
        "ops_per_s",
        "portal_session, bulk_transfer",
    ),
    (
        "wire.frame_us",
        "us",
        "lower",
        "latency_p50_ms",
        "echo -> bulk_transfer",
    ),
    (
        "wire.rtt_us",
        "us",
        "lower",
        "latency_p50_ms",
        "echo, echo_reactor",
    ),
    (
        "wire.pool_reuse_rate",
        "frac",
        "higher",
        "latency_p90_ms, success_frac",
        "all",
    ),
    (
        "wire.connections_per_op",
        "count",
        "lower",
        "latency_p90_ms, success_frac",
        "all",
    ),
    (
        "wire.retries_per_op",
        "count",
        "lower",
        "latency_p90_ms, success_frac",
        "all",
    ),
    (
        "wire.sheds_per_op",
        "count",
        "lower",
        "latency_p90_ms, success_frac",
        "all",
    ),
    (
        "wire.idle_worker_frac",
        "frac",
        "lower",
        "ops_per_s, latency_p90_ms",
        "echo_reactor -> echo",
    ),
    (
        "auth.verify_us",
        "us",
        "lower",
        "latency_p50_ms, goodput_mib_s",
        "portal_session, bulk_transfer -> echo (none)",
    ),
    (
        "auth.verify_cached_per_op",
        "count",
        "higher",
        "latency_p50_ms, goodput_mib_s",
        "portal_session, bulk_transfer -> echo (none)",
    ),
    (
        "registry.find_us",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session",
    ),
    (
        "core.discover_and_bind_us",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session",
    ),
    (
        "core.transfer_put_us",
        "us",
        "lower",
        "goodput_mib_s, latency_p50_ms",
        "bulk_transfer",
    ),
    (
        "core.transfer_get_us",
        "us",
        "lower",
        "goodput_mib_s, latency_p50_ms",
        "bulk_transfer",
    ),
    (
        "gridsim.submit_us",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session -> bulk_transfer",
    ),
    (
        "gridsim.status_us",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session -> bulk_transfer",
    ),
    (
        "gridsim.srb_put_us",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session -> bulk_transfer",
    ),
    (
        "gridsim.srb_get_us",
        "us",
        "lower",
        "latency_p50_ms",
        "portal_session -> bulk_transfer",
    ),
    (
        "gridsim.srb_append_us_per_mib",
        "us/MiB",
        "lower",
        "goodput_mib_s",
        "bulk_transfer -> portal_session",
    ),
    (
        "gridsim.srb_read_us_per_mib",
        "us/MiB",
        "lower",
        "goodput_mib_s",
        "bulk_transfer -> portal_session",
    ),
    (
        "services.transfer_chunks_per_op",
        "count",
        "lower",
        "peak_rss_mib",
        "bulk_transfer",
    ),
    (
        "services.transfer_buffer_high_water_kib",
        "KiB",
        "lower",
        "peak_rss_mib",
        "bulk_transfer",
    ),
    (
        "sched.cpu_us_per_op.client",
        "us",
        "lower",
        "ops_per_s",
        "all",
    ),
    (
        "sched.cpu_us_per_op.server",
        "us",
        "lower",
        "ops_per_s",
        "all",
    ),
    (
        "sched.runqueue_wait_frac",
        "frac",
        "lower",
        "ops_per_s",
        "all",
    ),
    (
        "sched.steal_frac",
        "frac",
        "lower",
        "(none; host contention, recorded with every result)",
        "all",
    ),
    (
        "sched.nproc",
        "count",
        "higher",
        "(none; recorded with every result)",
        "all",
    ),
    (
        "sched.calibration_score",
        "score",
        "higher",
        "(none; recorded, never used to scale)",
        "all",
    ),
    (
        "trace.overhead_frac",
        "frac",
        "lower",
        "(none; validity check)",
        "all",
    ),
    (
        "trace.span_coverage",
        "frac",
        "higher",
        "(none; validity check)",
        "all",
    ),
    (
        "trace.unattributed_frac",
        "frac",
        "lower",
        "(none; validity check)",
        "all",
    ),
];

/// Span names a workload records; absent ones are timed in memory.
const ECHO_SPANS: &[&str] = &["soap.call_us.Echo.echo"];
const PORTAL_SPANS: &[&str] = &[
    "soap.call_us.Uddi.publishService",
    "core.discover_and_bind_us",
    "soap.call_us.JobSubmission.submit",
    "soap.call_us.JobSubmission.status",
    "soap.call_us.DataManagement.put",
    "soap.call_us.DataManagement.get",
];
const BULK_SPANS: &[&str] = &["core.transfer_put_us", "core.transfer_get_us"];

/// Calls per micro-timing batch are sized to fill this; the median of
/// [`BATCHES`] batch means is reported.
const BATCH: Duration = Duration::from_millis(8);
const BATCHES: usize = 7;

fn time(mut f: impl FnMut()) -> f64 {
    let n = util::calls_for(BATCH, &mut f);
    util::time_us(BATCHES, n, f)
}

/// What the workload offers the micro-timings: its deployment and a
/// logged-in UI server, when it has them.
#[derive(Default)]
pub struct Probe<'a> {
    pub dep: Option<&'a Arc<PortalDeployment>>,
    pub ui: Option<&'a UiServer>,
}

/// In-memory stand-in for a workload without a deployment.
fn in_memory_portal() -> Result<(Arc<PortalDeployment>, UiServer), String> {
    let dep = PortalDeployment::in_memory(SecurityMode::Central);
    let ui = UiServer::new(Arc::clone(&dep));
    let (principal, secret) = USERS[0];
    ui.login(principal, secret).map_err(|e| e.to_string())?;
    Ok((dep, ui))
}

/// Span means of calls the workload does not make, timed against an
/// in-memory deployment so every metric is measured on every workload.
fn fill_missing_spans(spans: &mut Tracer, seed: u64) -> Result<(), String> {
    let missing = |names: &[&str], spans: &Tracer| names.iter().any(|n| spans.mean_us(n).is_none());
    let rng = Rng::new(seed ^ 0x7072_6f62);
    let mut probe = Tracer::new(true);
    if missing(ECHO_SPANS, spans) {
        let clients = crate::echo::in_memory(1, &rng);
        for _ in 0..300 {
            clients
                .op(0, &mut probe)
                .map_err(|e| format!("echo probe: {e:?}"))?;
        }
    }
    if missing(PORTAL_SPANS, spans) {
        let rig =
            crate::portal::Rig::new(PortalDeployment::in_memory(SecurityMode::Central), 1, &rng)?;
        for i in 0..60 {
            rig.op(0, i, &mut probe)
                .map_err(|e| format!("portal probe: {e:?}"))?;
        }
    }
    if missing(BULK_SPANS, spans) {
        let rig = crate::bulk::Rig::new(PortalDeployment::in_memory(SecurityMode::Central), &rng)?;
        for i in 0..3 {
            rig.op(i, &mut probe)
                .map_err(|e| format!("bulk probe: {e:?}"))?;
        }
    }
    for (name, total) in &probe.spans {
        spans.spans.entry(name).or_insert(*total);
    }
    Ok(())
}

/// Per-op costs of xml, soap and wire on the op's bodies, in µs:
/// (DOM parse, DOM write, envelope parse, envelope write, framing).
fn body_costs(bodies: &[Body]) -> [f64; 5] {
    let mut out = [0.0; 5];
    for b in bodies {
        for (env, is_request) in [(&b.request, true), (&b.reply, false)] {
            let xml = env.to_xml();
            let Ok(dom) = Element::parse(&xml) else {
                continue;
            };
            let mut text = String::with_capacity(xml.len());
            let costs = [
                time(|| {
                    std::hint::black_box(Element::parse(&xml).ok());
                }),
                time(|| {
                    text.clear();
                    dom.write_xml_into(&mut text);
                    std::hint::black_box(&text);
                }),
                time(|| {
                    std::hint::black_box(Envelope::parse(&xml).ok());
                }),
                time(|| {
                    text.clear();
                    env.write_xml_into(&mut text);
                    std::hint::black_box(&text);
                }),
                frame_cost(&b.path, xml.as_bytes(), is_request),
            ];
            for (slot, c) in out.iter_mut().zip(costs) {
                *slot += c * b.per_op;
            }
        }
    }
    out
}

/// Serialize one frame and read it back, as client and server each do.
fn frame_cost(path: &str, body: &[u8], is_request: bool) -> f64 {
    let mut buf = Vec::with_capacity(body.len() + 256);
    if is_request {
        let req = Request::post(path.to_owned(), body.to_vec())
            .with_header("Content-Type", "text/xml; charset=utf-8")
            .with_header("SOAPAction", "urn:Service#method");
        time(|| {
            buf.clear();
            req.write_into(&mut buf);
            std::hint::black_box(Request::read_from_buffered(&mut buf.as_slice()).ok());
        })
    } else {
        let resp = Response::xml(body.to_vec());
        time(|| {
            buf.clear();
            resp.write_into(&mut buf);
            std::hint::black_box(Response::read_from_buffered(&mut buf.as_slice()).ok());
        })
    }
}

/// Microseconds per MiB of ranged SRB appends and reads in 256 KiB chunks.
fn srb_costs(rng: &mut Rng) -> (f64, f64) {
    const CHUNK: usize = 256 * 1024;
    let srb = portalws_gridsim::Srb::new();
    if srb.mkdir("/probe").is_err() {
        return (0.0, 0.0);
    }
    let chunk = rng.bytes(CHUNK);
    let chunks_per_mib = (1024 * 1024) / CHUNK;
    let mut n = 0u64;
    let append = time(|| {
        let path = format!("/probe/o{n}");
        n += 1;
        for k in 0..chunks_per_mib {
            std::hint::black_box(srb.append_at("bench", &path, k * CHUNK, &chunk).ok());
        }
        let _ = srb.rm("bench", &path);
    });
    let full: Vec<u8> = (0..chunks_per_mib)
        .flat_map(|_| chunk.iter().copied())
        .collect();
    let _ = srb.put("bench", "/probe/read", &full);
    let read = time(|| {
        for k in 0..chunks_per_mib {
            std::hint::black_box(srb.read_at("bench", "/probe/read", k * CHUNK, CHUNK).ok());
        }
    });
    (append, read)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of [`METRICS`], in order.
pub fn per_layer(
    cfg: &Config,
    data: &RunData,
    untraced: &Tally,
    bodies: &[Body],
    work: ServerWork,
    probe: Probe,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let t = &data.traced;
    let d = &data.delta;
    let ops = t.attempted().max(1) as f64;
    let lat_ns = t.lat_sum_ms * 1e6;
    let span_coverage = ratio(t.tracer.total_ns() as f64, lat_ns);
    let mut spans = Tracer::new(true);
    spans.merge(&t.tracer);
    fill_missing_spans(&mut spans, cfg.seed)?;

    let own;
    let (dep, ui) = match (probe.dep, probe.ui) {
        (Some(dep), Some(ui)) => (dep, ui),
        _ => {
            own = in_memory_portal()?;
            (&own.0, &own.1)
        }
    };
    let session = ui.session().ok_or("probe UI server is not logged in")?;
    let principal = session.principal().to_owned();
    let mut rng = Rng::new(cfg.seed).fork(0x6c61_7965);

    let [xml_parse, xml_write, env_parse, env_write, frame] = body_costs(bodies);
    let mib = rng.bytes(1024 * 1024);
    let text = portalws_soap::base64::encode(&mib);
    let base64 = time(|| {
        std::hint::black_box(portalws_soap::base64::encode(&mib));
    }) + time(|| {
        std::hint::black_box(portalws_soap::base64::decode(&text));
    });
    let assertion = session.make_assertion();
    let verify = time(|| {
        std::hint::black_box(dep.auth.verify_assertion(&assertion).ok());
    });
    let find = time(|| {
        std::hint::black_box(dep.uddi.find_service("JobSubmission"));
    });
    let script = "#!/bin/sh\n#PBS -N probe\n#PBS -q batch\n#PBS -l nodes=1\n#PBS -l walltime=00:01:00\nhostname\n";
    let job = dep
        .grid
        .submit(&principal, "tg-login", SchedulerKind::Pbs, script)
        .map_err(|e| format!("probe submit: {e}"))?;
    let submit = time(|| {
        std::hint::black_box(
            dep.grid
                .submit(&principal, "tg-login", SchedulerKind::Pbs, script)
                .ok(),
        );
    });
    let status = time(|| {
        std::hint::black_box(dep.grid.poll(job).ok());
    });
    let object = rng.bytes(crate::portal::RESULT_BYTES);
    let path = format!("/home-{principal}/perfbench-probe");
    let srb_put = time(|| {
        std::hint::black_box(dep.srb.put(&principal, &path, &object).ok());
    });
    let srb_get = time(|| {
        std::hint::black_box(dep.srb.get(&principal, &path).ok());
    });
    let (append, read) = srb_costs(&mut rng);

    let auth_hops = d.auth_requests as f64 / ops;
    let registry_finds = d.cache_misses as f64 / ops;
    let explained_us = env_parse
        + env_write
        + frame
        + verify * auth_hops
        + find * registry_finds
        + submit * work.submits
        + status * work.polls
        + srb_put * work.srb_puts
        + srb_get * work.srb_gets
        + append * work.srb_append_mib
        + read * work.srb_read_mib
        + base64 * work.base64_mib;
    let mean_lat_us = ratio(lat_ns / 1e3, t.attempted() as f64);
    let server_cpu = d.server_sched.run_ns as f64;
    let client_cpu = (d.process_cpu_ns as f64 - server_cpu).max(0.0);
    let run_ns = (d.server_sched.run_ns + t.gen_sched.run_ns) as f64;
    let wait_ns = (d.server_sched.wait_ns + t.gen_sched.wait_ns) as f64;
    let span = |name: &str| spans.mean_us(name).unwrap_or(0.0);

    let values: Vec<(&str, f64)> = vec![
        ("xml.parse_us", xml_parse),
        ("xml.write_us", xml_write),
        (
            "xml.escape_fast_path_rate",
            ratio(
                d.escape_borrowed as f64,
                (d.escape_borrowed + d.escape_owned) as f64,
            ),
        ),
        (
            "xml.unescape_fast_path_rate",
            ratio(
                d.unescape_borrowed as f64,
                (d.unescape_borrowed + d.unescape_owned) as f64,
            ),
        ),
        ("soap.envelope_parse_us", env_parse),
        ("soap.envelope_write_us", env_write),
        ("soap.call_us.Echo.echo", span("soap.call_us.Echo.echo")),
        (
            "soap.call_us.Uddi.publishService",
            span("soap.call_us.Uddi.publishService"),
        ),
        (
            "soap.call_us.JobSubmission.submit",
            span("soap.call_us.JobSubmission.submit"),
        ),
        (
            "soap.call_us.JobSubmission.status",
            span("soap.call_us.JobSubmission.status"),
        ),
        (
            "soap.call_us.DataManagement.put",
            span("soap.call_us.DataManagement.put"),
        ),
        (
            "soap.call_us.DataManagement.get",
            span("soap.call_us.DataManagement.get"),
        ),
        (
            "soap.cache_hit_rate",
            ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
        ),
        (
            "soap.cache_invalidations_per_op",
            d.cache_invalidations as f64 / ops,
        ),
        ("soap.base64_us_per_mib", base64),
        ("wire.requests_per_op", d.requests as f64 / ops),
        ("wire.auth_hops_per_op", auth_hops),
        ("wire.bytes_per_op", d.bytes as f64 / ops),
        ("wire.frame_us", frame),
        (
            "wire.rtt_us",
            ratio(data.rtt.1 as f64 / 1e3, data.rtt.0 as f64),
        ),
        (
            "wire.pool_reuse_rate",
            ratio(d.pool_hits as f64, (d.pool_hits + d.pool_misses) as f64),
        ),
        ("wire.connections_per_op", d.connections as f64 / ops),
        ("wire.retries_per_op", d.retries as f64 / ops),
        ("wire.sheds_per_op", d.sheds as f64 / ops),
        (
            "wire.idle_worker_frac",
            ratio(d.workers_idle as f64, d.workers_seen as f64),
        ),
        ("auth.verify_us", verify),
        ("auth.verify_cached_per_op", d.verify_cached as f64 / ops),
        ("registry.find_us", find),
        (
            "core.discover_and_bind_us",
            span("core.discover_and_bind_us"),
        ),
        ("core.transfer_put_us", span("core.transfer_put_us")),
        ("core.transfer_get_us", span("core.transfer_get_us")),
        ("gridsim.submit_us", submit),
        ("gridsim.status_us", status),
        ("gridsim.srb_put_us", srb_put),
        ("gridsim.srb_get_us", srb_get),
        ("gridsim.srb_append_us_per_mib", append),
        ("gridsim.srb_read_us_per_mib", read),
        (
            "services.transfer_chunks_per_op",
            d.transfer_chunks as f64 / ops,
        ),
        (
            "services.transfer_buffer_high_water_kib",
            d.transfer_high_water as f64 / 1024.0,
        ),
        ("sched.cpu_us_per_op.client", client_cpu / 1e3 / ops),
        ("sched.cpu_us_per_op.server", server_cpu / 1e3 / ops),
        ("sched.runqueue_wait_frac", ratio(wait_ns, run_ns + wait_ns)),
        (
            "sched.steal_frac",
            util::steal_frac_since(&cfg.cpu_at_start),
        ),
        ("sched.nproc", util::nproc() as f64),
        ("sched.calibration_score", cfg.calibration),
        (
            "trace.overhead_frac",
            1.0 - ratio(t.ops_per_s(), untraced.ops_per_s()),
        ),
        ("trace.span_coverage", span_coverage),
        (
            "trace.unattributed_frac",
            1.0 - ratio(explained_us, mean_lat_us),
        ),
    ];
    debug_assert_eq!(values.len(), METRICS.len());
    Ok(METRICS
        .iter()
        .zip(values)
        .map(|(spec, (name, v))| {
            debug_assert_eq!(spec.0, name);
            (spec.0.to_owned(), v, spec.1)
        })
        .collect())
}
