//! Smoke test: every workload runs briefly over real TCP with all output
//! checks on, untraced and traced, so a broken workload fails in seconds.

use portalws_perfbench::{layers, run, util, Config, Workload, END_TO_END};

fn check(workload: Workload, trace: bool) {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        calibration: 1.0,
        cpu_at_start: util::cpu_times(),
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(out.correct, "{}: {:?}", workload.name(), out.notes);
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.notes);
    assert!(out.attempted > 0);
    let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let expected: Vec<&str> = if trace {
        layers::METRICS.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.to_vec()
    };
    assert_eq!(names, expected);
    for (name, value, _) in &out.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn echo() {
    check(Workload::Echo, false);
}

#[test]
fn echo_reactor() {
    check(Workload::EchoReactor, false);
}

#[test]
fn portal_session() {
    check(Workload::PortalSession, false);
}

#[test]
fn bulk_transfer() {
    check(Workload::BulkTransfer, false);
}

#[test]
fn echo_traced() {
    check(Workload::Echo, true);
}

#[test]
fn portal_session_traced() {
    check(Workload::PortalSession, true);
}
