//! Call-graph and reachability fixture suite: cross-crate resolution,
//! method-call ambiguity (the documented over-approximation),
//! `#[cfg(test)]` extent exclusion, depth ≥3 transitive chains for both
//! reachability families (firing and suppressed), and pins that the real
//! workspace sources carry the entry markers the families key off.

use portalint::{
    check_reachability, check_stats_coverage, CallGraph, Violation, RULE_HOTPATH, RULE_REACTOR,
    RULE_STATS,
};

fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

fn firing<'v>(violations: &'v [Violation], rule: &str) -> Vec<&'v Violation> {
    violations
        .iter()
        .filter(|v| v.rule == rule && !v.suppressed)
        .collect()
}

#[test]
fn reactor_chain_fixture_fires_deep_and_suppresses_allowed_io() {
    let fs = files(&[(
        "crates/wire/src/reactor_chain.rs",
        include_str!("fixtures/reactor_chain.rs"),
    )]);
    let vs = check_reachability(&fs);
    let fires = firing(&vs, RULE_REACTOR);
    // The depth-3 sleep fires; the unreachable read_to_end does not.
    assert_eq!(fires.len(), 1, "{vs:?}");
    assert_eq!(fires[0].kind, "sleep");
    assert!(
        fires[0]
            .message
            .contains("run → drive → step → idle_backoff"),
        "{}",
        fires[0].message
    );
    // The nonblocking read carries its allow.
    let suppressed: Vec<&Violation> = vs.iter().filter(|v| v.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "{vs:?}");
    assert_eq!(suppressed[0].kind, "blocking-read");
    assert!(suppressed[0]
        .reason
        .as_deref()
        .is_some_and(|r| r.contains("nonblocking")));
}

#[test]
fn hotpath_fixture_resolves_cross_crate_and_skips_lazy_and_test_code() {
    let fs = files(&[
        (
            "crates/soap/src/hotpath_soap.rs",
            include_str!("fixtures/hotpath_soap.rs"),
        ),
        (
            "crates/xml/src/hotpath_xml.rs",
            include_str!("fixtures/hotpath_xml.rs"),
        ),
    ]);
    let vs = check_reachability(&fs);
    let fires = firing(&vs, RULE_HOTPATH);
    // Exactly one live sink: the format! at depth 3 across the crate
    // boundary. The ok_or_else(to_owned) is lazy-exempt and the
    // #[cfg(test)] String::from is excluded entirely.
    assert_eq!(fires.len(), 1, "{vs:?}");
    assert_eq!(fires[0].kind, "format!");
    assert_eq!(fires[0].file, "crates/xml/src/hotpath_xml.rs");
    assert!(
        fires[0]
            .message
            .contains("write_envelope → render_header → render_attrs → render_one"),
        "{}",
        fires[0].message
    );
    // The audited to_owned in the entry file is suppressed with a reason.
    let suppressed: Vec<&Violation> = vs.iter().filter(|v| v.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "{vs:?}");
    assert_eq!(suppressed[0].kind, "to_owned");
}

#[test]
fn method_ambiguity_over_approximates_to_every_candidate() {
    // `x.finish()` cannot be typed by a lexer: the resolver walks every
    // same-name definition, so a blocking sink behind either candidate
    // fires. This is the documented over-approximation — better a
    // reviewed allow than a silent block.
    let fs = files(&[
        (
            "crates/wire/src/reactor.rs",
            "// portalint: reactor-entry\nfn run() { x.finish(); }",
        ),
        ("crates/soap/src/clean.rs", "pub fn finish() {}"),
        (
            "crates/xml/src/dirty.rs",
            "pub fn finish() { std::thread::sleep(d); }",
        ),
    ]);
    let vs = check_reachability(&fs);
    assert_eq!(firing(&vs, RULE_REACTOR).len(), 1, "{vs:?}");
    assert_eq!(vs[0].file, "crates/xml/src/dirty.rs");
}

#[test]
fn cfg_test_fns_are_not_call_targets() {
    let fs = files(&[(
        "crates/wire/src/reactor.rs",
        "// portalint: reactor-entry\nfn run() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { std::thread::sleep(d); }\n}",
    )]);
    assert!(check_reachability(&fs).is_empty());
}

#[test]
fn real_reactor_carries_the_entry_marker() {
    // Pin the marker in the shipped source: if Worker::run loses its
    // `// portalint: reactor-entry` comment, the whole family silently
    // stops analyzing anything.
    let g = CallGraph::build(&files(&[(
        "crates/wire/src/reactor.rs",
        include_str!("../../wire/src/reactor.rs"),
    )]));
    let entries: Vec<&str> = g
        .entries(true)
        .into_iter()
        .map(|i| g.fns[i].name.as_str())
        .collect();
    assert_eq!(entries, vec!["run"], "reactor entry marker missing");
}

/// The wire sources a reactor worker can reach, as shipped.
fn wire_server_sources() -> Vec<(String, String)> {
    files(&[
        (
            "crates/wire/src/reactor.rs",
            include_str!("../../wire/src/reactor.rs"),
        ),
        (
            "crates/wire/src/dispatch.rs",
            include_str!("../../wire/src/dispatch.rs"),
        ),
        (
            "crates/wire/src/server.rs",
            include_str!("../../wire/src/server.rs"),
        ),
        (
            "crates/wire/src/http.rs",
            include_str!("../../wire/src/http.rs"),
        ),
        (
            "crates/wire/src/chaos.rs",
            include_str!("../../wire/src/chaos.rs"),
        ),
        (
            "crates/wire/src/stats.rs",
            include_str!("../../wire/src/stats.rs"),
        ),
    ])
}

/// Display names of every function reachable from the reactor entry.
fn reached_from_reactor_entry(fs: &[(String, String)]) -> Vec<(String, String)> {
    let g = CallGraph::build(fs);
    let mut seen: Vec<usize> = g.entries(true);
    let mut i = 0;
    while let Some(&f) = seen.get(i) {
        for call in &g.fns[f].calls {
            for t in g.resolve(f, call) {
                if !seen.contains(&t) {
                    seen.push(t);
                }
            }
        }
        i += 1;
    }
    seen.into_iter()
        .map(|f| (g.fns[f].file.clone(), g.fns[f].display()))
        .collect()
}

#[test]
fn reactor_entry_reaches_the_shared_dispatch_without_blocking() {
    // Both arms run one request pipeline, so the reactor's non-blocking
    // guarantee now covers `wire::dispatch` too: chaos `Delay` must go
    // back to the driver, never sleep inside the pipeline. Pin that the
    // reactor entry does reach the pipeline (a refactor that routes
    // around it would make the check below vacuous) and that nothing it
    // reaches blocks, with the blocking arm's driver in the graph.
    let fs = wire_server_sources();
    let reached = reached_from_reactor_entry(&fs);
    for f in [
        "Pipeline::dispatch",
        "Pipeline::bad_request",
        "Inbox::next_request",
        "RequestParser::try_next",
    ] {
        assert!(
            reached.iter().any(|(_, name)| name == f),
            "{f} not reached: {reached:?}"
        );
    }
    assert!(
        !reached.iter().any(|(_, name)| name == "serve_one"),
        "the blocking driver leaked into the reactor's graph"
    );
    let vs = check_reachability(&fs);
    assert!(firing(&vs, RULE_REACTOR).is_empty(), "{vs:?}");

    // The same graph with a pipeline that sleeps on `Delay` fires, naming
    // the chain through the shared stage.
    let sleeping = include_str!("../../wire/src/dispatch.rs").replacen(
        "outcome.delay = Some(d);",
        "std::thread::sleep(d);",
        1,
    );
    assert_ne!(sleeping, include_str!("../../wire/src/dispatch.rs"));
    let mut fs = fs;
    fs[1].1 = sleeping;
    let vs = check_reachability(&fs);
    let fires = firing(&vs, RULE_REACTOR);
    assert_eq!(fires.len(), 1, "{vs:?}");
    assert_eq!(fires[0].kind, "sleep");
    assert!(
        fires[0]
            .message
            .contains("serve_buffered → Pipeline::dispatch")
            || fires[0].message.contains("serve_buffered → dispatch"),
        "{}",
        fires[0].message
    );
}

#[test]
fn real_substrate_carries_the_hot_path_markers() {
    let sources = files(&[
        (
            "crates/xml/src/event.rs",
            include_str!("../../xml/src/event.rs"),
        ),
        (
            "crates/xml/src/writer.rs",
            include_str!("../../xml/src/writer.rs"),
        ),
        (
            "crates/soap/src/envelope.rs",
            include_str!("../../soap/src/envelope.rs"),
        ),
        (
            "crates/wire/src/http.rs",
            include_str!("../../wire/src/http.rs"),
        ),
    ]);
    let g = CallGraph::build(&sources);
    let mut entries: Vec<String> = g
        .entries(false)
        .into_iter()
        .map(|i| g.fns[i].display())
        .collect();
    entries.sort();
    assert_eq!(
        entries,
        vec![
            "Envelope::from_root",
            "Envelope::write_xml_into",
            "Request::write_into",
            "Response::write_into",
            "Tokenizer::next_event",
            "write_compact_into",
        ],
        "hot-path entry markers drifted"
    );
}

#[test]
fn stats_coverage_fires_and_suppresses_in_fixture() {
    let stats = "\
pub enum ChaosClass { Drop }
wire_counters! {
    counters {
        Requests => requests: Sum,
        // portalint: allow(stats-coverage) — counter lands with the admission-control PR
        Queued => queued: Sum,
        ChaosDrops => chaos_drops: Sum,
    }
    substrate {}
}
impl ChaosClass {
    fn counter(self) -> Counter { match self { ChaosClass::Drop => Counter::ChaosDrops } }
}
impl WireStats {
    pub fn record_chaos(&self, class: ChaosClass) { self.add(class.counter(), 1); }
    fn record_request(&self) { self.add(Counter::Requests, 1); }
}
";
    let fs = files(&[
        ("crates/wire/src/stats.rs", stats),
        (
            "crates/wire/src/chaos.rs",
            "fn plan(s: &WireStats) { s.record_chaos(ChaosClass::Drop); }",
        ),
    ]);
    let vs = check_stats_coverage(&fs);
    // `requests` is bumped only inside stats.rs by a method nobody else
    // calls → fires. `queued` has no increment either, but its finding
    // sits under its allow.
    let fires = firing(&vs, RULE_STATS);
    assert_eq!(fires.len(), 1, "{vs:?}");
    assert_eq!(fires[0].kind, "no-increment");
    assert!(fires[0].message.contains("Requests"));
    assert_eq!(vs.iter().filter(|v| v.suppressed).count(), 1, "{vs:?}");
}
