//! The `stats-coverage` rule: instrumentation completeness for the wire
//! observability surface, extending the cross-file `wire-error-map`
//! pattern.
//!
//! Telemetry that silently stops moving is worse than none — dashboards
//! keep rendering zeros. `crates/wire/src/stats.rs` declares every counter
//! once, as a `Variant => snapshot_field: Kind` row of the
//! `wire_counters!` table, and generates the storage, the snapshot and
//! `since()` from it, so "stored but never snapshotted" and "snapshotted
//! but missing from `since()`" cannot happen. What the table cannot
//! guarantee is that anything moves a counter. Two checks:
//!
//! * every `Counter` variant has a non-test increment site outside
//!   stats.rs (`no-increment`): a function body that names
//!   `Counter::Variant` and calls an increment method (`add`, `max`, the
//!   `fetch_*` family), or one that calls a stats.rs method incrementing
//!   the variant. A stats.rs method increments a variant when it calls an
//!   increment method and its body, or a stats.rs function it calls
//!   (transitively), names the variant — so `record_chaos` covers the
//!   chaos counters through `ChaosClass::counter`. A method nobody
//!   outside stats.rs calls, or a bump under `#[cfg(test)]`, does not
//!   count;
//! * every `ChaosClass` variant is constructed somewhere outside stats.rs
//!   (`chaos-never-injected`) — a fault class the injector never throws is
//!   untested error handling. That each class is tallied is the
//!   compiler's job (`ChaosClass::counter` is an exhaustive match); a
//!   class mapped onto another class's counter leaves a counter with no
//!   increment, which `no-increment` reports.
//!
//! Suppression: `// portalint: allow(stats-coverage) — <reason>` on the
//! table row or variant declaration line (or the line above).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Lexed, Tok};
use crate::rules::{parse_allow, Violation, RULE_STATS};

/// The macro whose invocation in stats.rs is the counter table.
const TABLE_MACRO: &str = "wire_counters";

/// Calls that move a counter: `WireStats::add`/`max` and the atomic
/// read-modify-write family. `store` is deliberately absent: it sets a
/// value, it does not count anything.
const INCREMENTS: &[&str] = &[
    "add",
    "max",
    "fetch_add",
    "fetch_max",
    "fetch_sub",
    "fetch_update",
];

/// The live (non-test, non-`macro_rules!`) tokens of one file.
struct Live {
    lexed: Lexed,
    idx: Vec<usize>,
}

impl Live {
    fn new(source: &str) -> Live {
        let lexed = lex(source);
        let idx = lexed.live_indices();
        Live { lexed, idx }
    }

    fn len(&self) -> usize {
        self.idx.len()
    }

    fn tok(&self, k: usize) -> Option<&Tok> {
        self.idx.get(k).map(|&i| &self.lexed.tokens[i].tok)
    }

    fn ident(&self, k: usize) -> Option<&str> {
        match self.tok(k) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn punct(&self, k: usize, c: char) -> bool {
        matches!(self.tok(k), Some(Tok::Punct(p)) if *p == c)
    }

    fn line(&self, k: usize) -> u32 {
        self.idx.get(k).map_or(0, |&i| self.lexed.tokens[i].line)
    }

    /// The `Variant` of a `ty::Variant` path starting at `k`.
    fn path_at(&self, k: usize, ty: &str) -> Option<&str> {
        if self.ident(k) == Some(ty) && self.punct(k + 1, ':') && self.punct(k + 2, ':') {
            self.ident(k + 3)
        } else {
            None
        }
    }

    /// Index just past the group whose opening brace is at `open`.
    fn group_end(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for k in open..self.len() {
            if self.punct(k, '{') {
                depth += 1;
            } else if self.punct(k, '}') {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
        }
        self.len()
    }
}

/// What one `fn` body does with counters.
#[derive(Default)]
struct Body {
    /// `Counter::Variant` variants the body names.
    counters: BTreeSet<String>,
    /// Names the body calls (`f(…)`, `x.f(…)`, `T::f(…)`).
    calls: BTreeSet<String>,
    /// The body calls an increment method.
    bumps: bool,
}

/// Every live `fn` body in a file, by function name.
fn bodies(live: &Live) -> Vec<(String, Body)> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < live.len() {
        let name = match (live.ident(k), live.ident(k + 1)) {
            (Some("fn"), Some(name)) => name.to_string(),
            _ => {
                k += 1;
                continue;
            }
        };
        // The signature runs to the body's `{`, or to `;` when there is
        // no body.
        let mut open = k + 2;
        let mut paren = 0i32;
        while open < live.len() {
            if live.punct(open, '(') {
                paren += 1;
            } else if live.punct(open, ')') {
                paren -= 1;
            } else if paren == 0 && (live.punct(open, '{') || live.punct(open, ';')) {
                break;
            }
            open += 1;
        }
        if !live.punct(open, '{') {
            k = open + 1;
            continue;
        }
        let end = live.group_end(open);
        let mut body = Body::default();
        for j in open..end {
            if let Some(variant) = live.path_at(j, "Counter") {
                body.counters.insert(variant.to_string());
            }
            if let (Some(id), true) = (live.ident(j), live.punct(j + 1, '(')) {
                body.bumps |= INCREMENTS.contains(&id);
                body.calls.insert(id.to_string());
            }
        }
        out.push((name, body));
        k = end;
    }
    out
}

/// `(variant, line)` of every `Variant => field: Kind` row of the table.
fn table_rows(live: &Live) -> Vec<(String, u32)> {
    let Some(start) =
        (0..live.len()).find(|&k| live.ident(k) == Some(TABLE_MACRO) && live.punct(k + 1, '!'))
    else {
        return Vec::new();
    };
    (start..live.group_end(start + 2))
        .filter(|&k| {
            live.punct(k + 1, '=')
                && live.punct(k + 2, '>')
                && live.ident(k + 3).is_some()
                && live.punct(k + 4, ':')
        })
        .filter_map(|k| Some((live.ident(k)?.to_string(), live.line(k))))
        .collect()
}

/// `(variant, line)` of each variant of a fieldless `enum <name>`.
fn enum_variants(live: &Live, name: &str) -> Vec<(String, u32)> {
    let Some(start) =
        (0..live.len()).find(|&k| live.ident(k) == Some("enum") && live.ident(k + 1) == Some(name))
    else {
        return Vec::new();
    };
    (start + 3..live.group_end(start + 2))
        .filter(|&k| {
            live.punct(k - 1, '{')
                || live.punct(k - 1, ',')
                || matches!(live.tok(k - 1), Some(Tok::Attr(_)))
        })
        .filter_map(|k| Some((live.ident(k)?.to_string(), live.line(k))))
        .collect()
}

/// What each stats.rs function increments: its own increments plus those
/// of the stats.rs functions it calls, to a fixed point.
fn increments_by_fn(stats: &[(String, Body)]) -> BTreeMap<&str, BTreeSet<String>> {
    // `reach`: variants a function names, directly or through callees.
    let mut reach: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut incr: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut changed = true;
    while changed {
        changed = false;
        for (name, body) in stats {
            let mut r = body.counters.clone();
            let mut i = BTreeSet::new();
            for callee in &body.calls {
                r.extend(reach.get(callee.as_str()).into_iter().flatten().cloned());
                i.extend(incr.get(callee.as_str()).into_iter().flatten().cloned());
            }
            if body.bumps {
                i.extend(r.iter().cloned());
            }
            for (map, new) in [(&mut reach, r), (&mut incr, i)] {
                let set = map.entry(name.as_str()).or_default();
                let before = set.len();
                set.extend(new);
                changed |= set.len() != before;
            }
        }
    }
    incr
}

/// Run the stats-coverage checks over the workspace sources.
pub fn check_stats_coverage(files: &[(String, String)]) -> Vec<Violation> {
    let Some((stats_path, stats_src)) =
        files.iter().find(|(p, _)| p.ends_with("wire/src/stats.rs"))
    else {
        return Vec::new();
    };
    let stats = Live::new(stats_src);
    let others: Vec<Live> = files
        .iter()
        .filter(|(p, _)| p != stats_path)
        .map(|(_, src)| Live::new(src))
        .collect();

    let allow_lines: Vec<(u32, String)> = stats
        .lexed
        .comments
        .iter()
        .filter_map(|c| match parse_allow(&c.text) {
            Some(Ok((rule, reason))) if rule == RULE_STATS => Some((c.line, reason)),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    let mut push = |line: u32, kind: &str, message: String| {
        let reason = allow_lines
            .iter()
            .find(|(l, _)| *l == line || *l == line.saturating_sub(1))
            .map(|(_, r)| r.clone());
        out.push(Violation {
            file: stats_path.clone(),
            line,
            rule: RULE_STATS,
            kind: kind.to_string(),
            message,
            suppressed: reason.is_some(),
            reason,
        });
    };

    let stats_fns = bodies(&stats);
    let incr = increments_by_fn(&stats_fns);
    let mut bumped: BTreeSet<String> = BTreeSet::new();
    for (_, body) in others.iter().flat_map(bodies) {
        if body.bumps {
            bumped.extend(body.counters);
        }
        for callee in &body.calls {
            bumped.extend(incr.get(callee.as_str()).into_iter().flatten().cloned());
        }
    }
    for (variant, line) in table_rows(&stats) {
        if !bumped.contains(&variant) {
            push(
                line,
                "no-increment",
                format!("Counter::{variant} has no non-test increment site outside stats.rs, direct or through a stats.rs method; dead counters report zeros forever"),
            );
        }
    }

    for (variant, line) in enum_variants(&stats, "ChaosClass") {
        let injected = others
            .iter()
            .any(|l| (0..l.len()).any(|k| l.path_at(k, "ChaosClass") == Some(variant.as_str())));
        if !injected {
            push(
                line,
                "chaos-never-injected",
                format!("ChaosClass::{variant} is never constructed outside stats.rs; the fault class is declared but untested"),
            );
        }
    }

    out.sort_by_key(|v| v.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS_OK: &str = "\
pub enum ChaosClass { Drop, Delay }
impl ChaosClass {
    fn counter(self) -> Counter {
        match self { ChaosClass::Drop => Counter::ChaosDrops, ChaosClass::Delay => Counter::ChaosDelays }
    }
}
macro_rules! wire_counters {
    (counters { $( $c:ident => $f:ident : $k:ident, )* } substrate { $( $s:ident, )* }) => {};
}
wire_counters! {
    counters {
        /// Exchanges completed.
        Requests => requests: Sum,
        /// Failed exchanges.
        Errors => errors: Sum,
        ChaosDrops => chaos_drops: Sum,
        ChaosDelays => chaos_delays: Sum,
    }
    substrate {
        escape_borrowed,
    }
}
impl WireStats {
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(cell) = self.cell(c) { cell.fetch_add(n, Relaxed); }
    }
    pub fn record_exchange(&self) { self.add(Counter::Requests, 1); }
    pub fn record_chaos(&self, class: ChaosClass) { self.add(class.counter(), 1); }
}
impl StatsSnapshot {
    pub fn chaos_class(&self, class: ChaosClass) -> u64 { self.get(class.counter()) }
}
";

    const CALLER: &str = "\
fn serve(s: &WireStats) {
    s.record_exchange();
    s.record_chaos(ChaosClass::Drop);
    s.record_chaos(ChaosClass::Delay);
}
fn fail(s: &WireStats) { s.add(Counter::Errors, 1); }
";

    fn check(stats: &str, caller: &str) -> Vec<Violation> {
        check_stats_coverage(&[
            ("crates/wire/src/stats.rs".to_string(), stats.to_string()),
            ("crates/wire/src/chaos.rs".to_string(), caller.to_string()),
        ])
    }

    fn kinds(v: &[Violation]) -> Vec<(&str, bool)> {
        v.iter().map(|x| (x.kind.as_str(), x.suppressed)).collect()
    }

    #[test]
    fn complete_table_is_clean() {
        let v = check(STATS_OK, CALLER);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn counter_with_no_bump_is_flagged() {
        let v = check(STATS_OK, &CALLER.replace("s.add(Counter::Errors, 1);", ""));
        assert_eq!(kinds(&v), [("no-increment", false)], "{v:?}");
        assert!(v[0].message.contains("Errors"));
    }

    #[test]
    fn naming_a_counter_without_bumping_it_is_not_an_increment() {
        let caller = CALLER.replace("s.add(Counter::Errors, 1);", "let _ = Counter::Errors;");
        let v = check(STATS_OK, &caller);
        assert_eq!(kinds(&v), [("no-increment", false)], "{v:?}");
    }

    #[test]
    fn bump_in_a_stats_method_nobody_calls_is_flagged() {
        // `record_exchange` still bumps `Requests`, but nothing outside
        // stats.rs calls it.
        let v = check(STATS_OK, &CALLER.replace("s.record_exchange();", ""));
        assert_eq!(kinds(&v), [("no-increment", false)], "{v:?}");
        assert!(v[0].message.contains("Requests"));
    }

    #[test]
    fn bump_only_under_cfg_test_is_flagged() {
        let caller = CALLER.replace(
            "fn fail(s: &WireStats) { s.add(Counter::Errors, 1); }",
            "#[cfg(test)]\nmod tests {\n    fn fail(s: &WireStats) { s.add(Counter::Errors, 1); }\n}",
        );
        let v = check(STATS_OK, &caller);
        assert_eq!(kinds(&v), [("no-increment", false)], "{v:?}");
        assert!(v[0].message.contains("Errors"));
    }

    #[test]
    fn class_mapped_onto_another_counter_leaves_a_dead_counter() {
        // `record_chaos` covers the chaos counters through `counter()`;
        // a wrong mapping strands the counter it no longer names.
        let stats = STATS_OK.replace(
            "ChaosClass::Delay => Counter::ChaosDelays",
            "ChaosClass::Delay => Counter::ChaosDrops",
        );
        let v = check(&stats, CALLER);
        assert_eq!(kinds(&v), [("no-increment", false)], "{v:?}");
        assert!(v[0].message.contains("ChaosDelays"));
    }

    #[test]
    fn chaos_class_never_constructed_outside_stats_is_flagged() {
        let v = check(
            STATS_OK,
            &CALLER.replace("s.record_chaos(ChaosClass::Delay);", ""),
        );
        assert_eq!(kinds(&v), [("chaos-never-injected", false)], "{v:?}");
        assert!(v[0].message.contains("Delay"));
    }

    #[test]
    fn allow_suppresses_on_the_table_row() {
        let stats = STATS_OK.replace(
            "        Errors => errors: Sum,",
            "        // portalint: allow(stats-coverage) — bumped from the next admission stage\n        Errors => errors: Sum,",
        );
        let v = check(&stats, &CALLER.replace("s.add(Counter::Errors, 1);", ""));
        assert_eq!(kinds(&v), [("no-increment", true)], "{v:?}");
    }
}
