//! The rule engine: three invariant families over lexed token streams.
//!
//! * `panic` — panic-freedom on server request paths: no `unwrap`/
//!   `expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` and no
//!   direct slice indexing in the request-handling crates.
//! * `wire-fault-map` — every `WireError` variant must appear in the SOAP
//!   fault mapping (the function marked `portalint: wire-error-map`).
//! * `wsdl-port` — every literal method arm dispatched by a
//!   `SoapService::invoke` must appear in the same file's `methods()`
//!   bodies (the WSDL port type is generated from `methods()`).
//! * `size-cap` — size guards must compare against named cap constants,
//!   not inline magic numbers.
//!
//! Suppression: `// portalint: allow(<rule>) — <reason>` on the violation
//! line or the line directly above. An allow without a reason is itself a
//! violation (`bad-allow`), so the escape hatch always leaves an audit
//! trail. Lock acquisition sites (`.lock()`, `.read()`, `.write()`,
//! `.try_lock()`) are extracted as an inventory, not as violations; the
//! runtime half of lock discipline lives in `shims/parking_lot`.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::lexer::{lex, Lexed, Tok};

/// Rule identifier: panic-freedom family.
pub const RULE_PANIC: &str = "panic";
/// Rule identifier: WireError → SOAP fault mapping completeness.
pub const RULE_WIRE_MAP: &str = "wire-fault-map";
/// Rule identifier: invoke arms ⊆ WSDL port type.
pub const RULE_WSDL_PORT: &str = "wsdl-port";
/// Rule identifier: size guards cite named cap constants.
pub const RULE_SIZE_CAP: &str = "size-cap";
/// Rule identifier: malformed allow directive.
pub const RULE_BAD_ALLOW: &str = "bad-allow";
/// Rule identifier: blocking calls reachable from reactor worker entries.
pub const RULE_REACTOR: &str = "reactor-blocking";
/// Rule identifier: allocation reachable from hot-path entries.
pub const RULE_HOTPATH: &str = "hot-path-alloc";
/// Rule identifier: WireStats / ChaosClass instrumentation completeness.
pub const RULE_STATS: &str = "stats-coverage";

/// Crates whose `src/` trees are server request paths (panic + size-cap
/// rules apply). `xml` joined when the zero-copy substrate landed: every
/// envelope a server parses or serializes runs through it, so its hot
/// loops are server path as much as the socket code is (the `xml::scan`
/// helpers exist so those loops have a panic-free shape to use).
pub const SERVER_CRATES: &[&str] = &[
    "wire", "soap", "xml", "registry", "auth", "services", "appws", "portlets",
];

/// Integer literals below this bound never trigger `size-cap`; small
/// structural comparisons (`args.len() > 3`) are not size guards.
pub const SIZE_CAP_THRESHOLD: u128 = 4096;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier.
    pub rule: &'static str,
    /// Short kind within the rule (e.g. `unwrap`, `index`).
    pub kind: String,
    /// Human message.
    pub message: String,
    /// True when an allow directive covers this site.
    pub suppressed: bool,
    /// The allow reason, when suppressed.
    pub reason: Option<String>,
}

/// One statically extracted lock acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Acquisition kind: `lock`, `read`, `write`, or `try_lock`.
    pub kind: String,
}

/// A parsed allow directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line of the directive comment.
    pub line: u32,
    /// Rule it suppresses.
    pub rule: String,
    /// Mandatory reason text.
    pub reason: String,
}

/// Which rules to run on a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileRules {
    /// Panic-freedom family.
    pub panic: bool,
    /// Size-cap rule.
    pub size_cap: bool,
    /// invoke-arm ⊆ methods() rule.
    pub wsdl_port: bool,
    /// Extract lock acquisition sites.
    pub locks: bool,
}

impl FileRules {
    /// Everything on (used for fixtures and server crates).
    pub fn all() -> FileRules {
        FileRules {
            panic: true,
            size_cap: true,
            wsdl_port: true,
            locks: true,
        }
    }
}

/// Per-file analysis result.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Findings (suppressed and not).
    pub violations: Vec<Violation>,
    /// Lock inventory.
    pub locks: Vec<LockSite>,
    /// Allow directives found in the file.
    pub allows: Vec<Allow>,
}

/// Parse `portalint: allow(<rule>) — <reason>` out of a comment body.
/// Returns `Err(line-relative message)` for a malformed directive.
pub fn parse_allow(text: &str) -> Option<Result<(String, String), String>> {
    let at = text.find("portalint:")?;
    let rest = text[at + "portalint:".len()..].trim_start();
    if rest.starts_with("wire-error-map")
        || rest.starts_with("reactor-entry")
        || rest.starts_with("hot-path-entry")
    {
        // Marker directives (mapping site, reachability roots), not allows.
        return None;
    }
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some(Err(format!(
            "unrecognized portalint directive {rest:?}; expected allow(<rule>) — <reason>"
        )));
    };
    let Some(close) = args.find(')') else {
        return Some(Err("unclosed allow(".to_string()));
    };
    let rule = args[..close].trim().to_string();
    if rule.is_empty() {
        return Some(Err("allow() names no rule".to_string()));
    }
    let tail = args[close + 1..].trim_start();
    let reason = tail
        .strip_prefix('—')
        .or_else(|| tail.strip_prefix("--"))
        .or_else(|| tail.strip_prefix('-'))
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Some(Err(format!(
            "allow({rule}) has no reason; write: portalint: allow({rule}) — <why this site is safe>"
        )));
    }
    Some(Ok((rule, reason.to_string())))
}

/// Rust keywords that may legally precede `[` without it being indexing.
fn is_keyword(id: &str) -> bool {
    matches!(
        id,
        "as" | "async"
            | "await"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Analyze one file. `file` is the label used in findings (repo-relative
/// path); suppression is resolved internally against the file's comments.
pub fn analyze_file(file: &str, source: &str, rules: FileRules) -> FileAnalysis {
    let lexed = lex(source);
    let mut out = FileAnalysis::default();

    // Allow directives first: they gate everything else.
    let mut allows: Vec<Allow> = Vec::new();
    let mut allow_index: HashMap<(String, u32), usize> = HashMap::new();
    for comment in &lexed.comments {
        match parse_allow(&comment.text) {
            None => {}
            Some(Err(msg)) => out.violations.push(Violation {
                file: file.to_string(),
                line: comment.line,
                rule: RULE_BAD_ALLOW,
                kind: "syntax".into(),
                message: msg,
                suppressed: false,
                reason: None,
            }),
            Some(Ok((rule, reason))) => {
                let idx = allows.len();
                allows.push(Allow {
                    line: comment.line,
                    rule: rule.clone(),
                    reason,
                });
                allow_index.insert((rule, comment.line), idx);
            }
        }
    }
    let allow_for = |rule: &str, line: u32| -> Option<&Allow> {
        // Same line (trailing comment) or the line directly above.
        allow_index
            .get(&(rule.to_string(), line))
            .or_else(|| allow_index.get(&(rule.to_string(), line.saturating_sub(1))))
            .map(|&i| &allows[i])
    };

    let live = lexed.live_indices();
    let tok = |k: usize| -> Option<&Tok> { live.get(k).map(|&i| &lexed.tokens[i].tok) };
    let line_of = |k: usize| -> u32 { lexed.tokens[live[k]].line };

    let mut raw_violations: Vec<(u32, &'static str, String, String)> = Vec::new();

    if rules.panic {
        for k in 0..live.len() {
            match tok(k) {
                Some(Tok::Ident(id)) if PANIC_METHODS.contains(&id.as_str()) => {
                    // `.unwrap(` — method call only.
                    let prev_dot = k > 0 && matches!(tok(k - 1), Some(Tok::Punct('.')));
                    let next_paren = matches!(tok(k + 1), Some(Tok::Punct('(')));
                    if prev_dot && next_paren {
                        raw_violations.push((
                            line_of(k),
                            RULE_PANIC,
                            id.clone(),
                            format!(".{id}() on a server path can panic; return a typed error → SOAP fault instead"),
                        ));
                    }
                }
                Some(Tok::Ident(id)) if PANIC_MACROS.contains(&id.as_str()) => {
                    let next_bang = matches!(tok(k + 1), Some(Tok::Punct('!')));
                    // `core::panic` paths etc. still end with ident + `!`.
                    if next_bang {
                        raw_violations.push((
                            line_of(k),
                            RULE_PANIC,
                            format!("{id}!"),
                            format!("{id}! on a server path takes the whole capability down; convert to a SOAP fault"),
                        ));
                    }
                }
                Some(Tok::Punct('[')) if k > 0 => {
                    let indexing = match tok(k - 1) {
                        Some(Tok::Ident(id)) => !is_keyword(id),
                        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('?')) => {
                            true
                        }
                        _ => false,
                    };
                    // `expr[..]` (full-range) is infallible — never flag it.
                    let full_range = matches!(tok(k + 1), Some(Tok::Punct('.')))
                        && matches!(tok(k + 2), Some(Tok::Punct('.')))
                        && matches!(tok(k + 3), Some(Tok::Punct(']')));
                    if indexing && !full_range {
                        raw_violations.push((
                            line_of(k),
                            RULE_PANIC,
                            "index".into(),
                            "direct indexing/slicing can panic on a server path; use .get()/split_first()/split_last()".into(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    if rules.size_cap {
        for k in 0..live.len() {
            let Some(Tok::Int(Some(v))) = tok(k) else {
                continue;
            };
            if *v < SIZE_CAP_THRESHOLD {
                continue;
            }
            let cmp_before = k >= 2
                && matches!(
                    tok(k - 1),
                    Some(Tok::Punct('=')) | Some(Tok::Punct('<')) | Some(Tok::Punct('>'))
                )
                && matches!(tok(k - 2), Some(Tok::Punct('<')) | Some(Tok::Punct('>')))
                || k >= 1 && matches!(tok(k - 1), Some(Tok::Punct('<')) | Some(Tok::Punct('>')));
            let cmp_after = matches!(tok(k + 1), Some(Tok::Punct('<')) | Some(Tok::Punct('>')));
            if cmp_before || cmp_after {
                raw_violations.push((
                    line_of(k),
                    RULE_SIZE_CAP,
                    "magic-cap".into(),
                    format!("size guard compares against bare literal {v}; cite a named cap constant (e.g. MAX_BODY_BYTES)"),
                ));
            }
        }
    }

    if rules.wsdl_port && file_impls_soap_service(&lexed, &live) {
        let advertised = methods_literals(&lexed, &live);
        for (line, arm) in invoke_match_arms(&lexed, &live) {
            if !advertised.contains(&arm) {
                raw_violations.push((
                    line,
                    RULE_WSDL_PORT,
                    "unadvertised-method".into(),
                    format!("invoke arm {arm:?} does not appear in methods(): the WSDL port type will omit it"),
                ));
            }
        }
    }

    if rules.locks {
        for k in 0..live.len() {
            let Some(Tok::Ident(id)) = tok(k) else {
                continue;
            };
            let is_acq = matches!(id.as_str(), "lock" | "read" | "write" | "try_lock");
            if !is_acq {
                continue;
            }
            // `.lock()` with no arguments: dot before, `()` after. This
            // drops io read/write calls, which always take arguments.
            let prev_dot = k > 0 && matches!(tok(k - 1), Some(Tok::Punct('.')));
            let empty_call = matches!(tok(k + 1), Some(Tok::Punct('(')))
                && matches!(tok(k + 2), Some(Tok::Punct(')')));
            if prev_dot && empty_call {
                out.locks.push(LockSite {
                    file: file.to_string(),
                    line: line_of(k),
                    kind: id.clone(),
                });
            }
        }
    }

    for (line, rule, kind, message) in raw_violations {
        let allow = allow_for(rule, line).cloned();
        out.violations.push(Violation {
            file: file.to_string(),
            line,
            rule,
            kind,
            message,
            suppressed: allow.is_some(),
            reason: allow.map(|a| a.reason),
        });
    }
    out.violations.sort_by_key(|a| a.line);
    out.allows = allows;
    out
}

/// Does this file (outside test code) implement `SoapService`?
fn file_impls_soap_service(lexed: &Lexed, live: &[usize]) -> bool {
    live.windows(3).any(|w| {
        matches!(
            (
                &lexed.tokens[w[0]].tok,
                &lexed.tokens[w[1]].tok,
                &lexed.tokens[w[2]].tok,
            ),
            (Tok::Ident(a), Tok::Ident(b), Tok::Ident(c))
                if a == "impl" && b == "SoapService" && c == "for"
        )
    })
}

/// All string literals inside port-type-defining function bodies: any
/// `fn` whose body mentions `MethodDesc` (that covers `fn methods` itself
/// and shared interface helpers like `scriptgen_interface()`), with
/// `{L}`/`{l}`/`{lname}` level templates expanded (the ContextManager
/// monolith builds its 60+ method names from per-level templates).
fn methods_literals(lexed: &Lexed, live: &[usize]) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut k = 0usize;
    while k + 1 < live.len() {
        let is_fn = matches!(
            (&lexed.tokens[live[k]].tok, &lexed.tokens[live[k + 1]].tok),
            (Tok::Ident(a), Tok::Ident(_)) if a == "fn"
        );
        if !is_fn {
            k += 1;
            continue;
        }
        // Find the body open brace, then collect the body's extent. The
        // `MethodDesc` mention may sit in the signature (`-> Vec<MethodDesc>`)
        // rather than the body, so scan the signature for it on the way.
        let mut j = k + 2;
        let mut mentions_method_desc = false;
        while j < live.len() && !matches!(&lexed.tokens[live[j]].tok, Tok::Punct('{')) {
            if matches!(&lexed.tokens[live[j]].tok, Tok::Ident(id) if id == "MethodDesc") {
                mentions_method_desc = true;
            }
            j += 1;
        }
        let mut depth = 0usize;
        let mut literals: Vec<String> = Vec::new();
        while j < live.len() {
            match &lexed.tokens[live[j]].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(id) if id == "MethodDesc" => mentions_method_desc = true,
                Tok::Str(s) => literals.push(s.clone()),
                _ => {}
            }
            j += 1;
        }
        if mentions_method_desc {
            for s in literals {
                for expanded in expand_level_templates(&s) {
                    out.insert(expanded);
                }
            }
        }
        k = j.max(k + 2);
    }
    out
}

const LEVEL_NAMES: &[&str] = &["User", "Problem", "Session"];

/// Expand `{L}`/`{lname}` (capitalized) and `{l}` (lowercase) placeholders
/// against the three context levels; literals without placeholders pass
/// through unchanged.
fn expand_level_templates(s: &str) -> Vec<String> {
    if !(s.contains("{L}") || s.contains("{l}") || s.contains("{lname}")) {
        return vec![s.to_string()];
    }
    LEVEL_NAMES
        .iter()
        .map(|level| {
            s.replace("{L}", level)
                .replace("{lname}", level)
                .replace("{l}", &level.to_lowercase())
        })
        .collect()
}

/// Literal string arms of `match method { ... }` /
/// `match method.as_str() { ... }` blocks: `(line, arm)` pairs.
fn invoke_match_arms(lexed: &Lexed, live: &[usize]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k + 1 < live.len() {
        let is_match_method = matches!(
            (&lexed.tokens[live[k]].tok, &lexed.tokens[live[k + 1]].tok),
            (Tok::Ident(a), Tok::Ident(b)) if a == "match" && b == "method"
        );
        if !is_match_method {
            k += 1;
            continue;
        }
        // Skip to the block's `{` (tolerating `.as_str()` etc.).
        let mut j = k + 2;
        while j < live.len() && !matches!(&lexed.tokens[live[j]].tok, Tok::Punct('{')) {
            j += 1;
        }
        let mut depth = 0usize;
        while j < live.len() {
            match &lexed.tokens[live[j]].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                // An arm pattern at depth 1: "literal" followed by `=>`
                // or `|`.
                Tok::Str(s) if depth == 1 => {
                    let next_arrow = matches!(
                        (
                            live.get(j + 1).map(|&i| &lexed.tokens[i].tok),
                            live.get(j + 2).map(|&i| &lexed.tokens[i].tok)
                        ),
                        (Some(Tok::Punct('=')), Some(Tok::Punct('>')))
                    );
                    let next_pipe = matches!(
                        live.get(j + 1).map(|&i| &lexed.tokens[i].tok),
                        Some(Tok::Punct('|'))
                    );
                    if next_arrow || next_pipe {
                        out.push((lexed.tokens[live[j]].line, s.clone()));
                    }
                }
                _ => {}
            }
            j += 1;
        }
        k = j;
    }
    out
}

/// Extract the variant names of `enum WireError` from the wire crate's
/// `lib.rs` source.
pub fn wire_error_variants(wire_lib_src: &str) -> Vec<String> {
    enum_variants(wire_lib_src, "WireError")
}

/// Extract the variant names of `enum <name>` from a source file. Tuple
/// and struct variant payloads are skipped; only the names come back.
pub fn enum_variants(src: &str, name: &str) -> Vec<String> {
    let lexed = lex(src);
    let live = lexed.live_indices();
    let mut out = Vec::new();
    let mut k = 0usize;
    while k + 1 < live.len() {
        let is_enum = matches!(
            (&lexed.tokens[live[k]].tok, &lexed.tokens[live[k + 1]].tok),
            (Tok::Ident(a), Tok::Ident(b)) if a == "enum" && b == name
        );
        if !is_enum {
            k += 1;
            continue;
        }
        let mut j = k + 2;
        while j < live.len() && !matches!(&lexed.tokens[live[j]].tok, Tok::Punct('{')) {
            j += 1;
        }
        let mut depth = 0usize;
        let mut parens = 0usize;
        let mut expect_variant = true;
        while j < live.len() {
            match &lexed.tokens[live[j]].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                }
                Tok::Punct('(') => {
                    parens += 1;
                    expect_variant = false;
                }
                Tok::Punct(')') => parens = parens.saturating_sub(1),
                Tok::Punct(',') if depth == 1 && parens == 0 => expect_variant = true,
                Tok::Ident(name) if depth == 1 && parens == 0 && expect_variant => {
                    out.push(name.clone());
                    expect_variant = false;
                }
                _ => {}
            }
            j += 1;
        }
        break;
    }
    out
}

/// Check the `wire-fault-map` invariant across the workspace: exactly one
/// file carries the `portalint: wire-error-map` marker, and that file
/// mentions `WireError::<V>` for every declared variant.
pub fn check_wire_map(
    wire_lib: Option<(&str, &str)>,
    files: &[(String, String)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some((wire_path, wire_src)) = wire_lib else {
        return out;
    };
    let variants = wire_error_variants(wire_src);
    if variants.is_empty() {
        return out;
    }
    let marker_files: Vec<&(String, String)> = files
        .iter()
        .filter(|(_, src)| {
            lex(src)
                .comments
                .iter()
                .any(|c| c.text.contains("portalint: wire-error-map"))
        })
        .collect();
    let Some((map_path, map_src)) = marker_files.first().map(|(p, s)| (p, s)) else {
        out.push(Violation {
            file: wire_path.to_string(),
            line: 1,
            rule: RULE_WIRE_MAP,
            kind: "no-mapping".into(),
            message: format!(
                "WireError has {} variants but no file carries the `portalint: wire-error-map` marker on its fault mapping",
                variants.len()
            ),
            suppressed: false,
            reason: None,
        });
        return out;
    };
    let lexed = lex(map_src);
    let live = lexed.live_indices();
    let mut mapped: HashSet<&str> = HashSet::new();
    for w in live.windows(4) {
        if let (Tok::Ident(a), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(v)) = (
            &lexed.tokens[w[0]].tok,
            &lexed.tokens[w[1]].tok,
            &lexed.tokens[w[2]].tok,
            &lexed.tokens[w[3]].tok,
        ) {
            if a == "WireError" {
                if let Some(known) = variants.iter().find(|known| *known == v) {
                    mapped.insert(known.as_str());
                }
            }
        }
    }
    for v in &variants {
        if !mapped.contains(v.as_str()) {
            out.push(Violation {
                file: map_path.to_string(),
                line: 1,
                rule: RULE_WIRE_MAP,
                kind: "unmapped-variant".into(),
                message: format!(
                    "WireError::{v} has no SOAP fault mapping in the file marked `portalint: wire-error-map`"
                ),
                suppressed: false,
                reason: None,
            });
        }
    }
    out
}

/// Violation counts keyed by `(crate, rule)`, for the EXPERIMENTS.md
/// baseline table.
pub fn tally_by_crate<'v>(
    violations: impl IntoIterator<Item = &'v Violation>,
) -> BTreeMap<(String, &'static str), usize> {
    let mut out = BTreeMap::new();
    for v in violations {
        let crate_name = v
            .file
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("workspace")
            .to_string();
        *out.entry((crate_name, v.rule)).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parses_with_reason() {
        let parsed = parse_allow(" portalint: allow(panic) — index is bounds-checked above");
        assert!(matches!(parsed, Some(Ok((rule, _))) if rule == "panic"));
    }

    #[test]
    fn allow_without_reason_is_error() {
        assert!(matches!(
            parse_allow(" portalint: allow(panic)"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_allow(" portalint: allow(panic) — "),
            Some(Err(_))
        ));
    }

    #[test]
    fn ordinary_comments_are_not_directives() {
        assert!(parse_allow(" just a comment about portals").is_none());
        assert!(parse_allow(" portalint: wire-error-map — the mapping").is_none());
    }

    #[test]
    fn unwrap_detected_and_suppressed() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap();\n    // portalint: allow(panic) — startup-only path, config is validated\n    x.unwrap();\n}\n";
        let a = analyze_file("crates/wire/src/f.rs", src, FileRules::all());
        let live: Vec<&Violation> = a.violations.iter().filter(|v| !v.suppressed).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].line, 2);
        assert_eq!(a.violations.iter().filter(|v| v.suppressed).count(), 1);
    }

    #[test]
    fn chaos_module_is_covered_by_the_panic_rule() {
        // Pin: the fault-injection module rides the server hot path (the
        // workspace scan derives panic rules from SERVER_CRATES by crate
        // directory), so a panic sneaking into wire::chaos must be flagged
        // exactly like any other wire source file.
        assert!(SERVER_CRATES.contains(&"wire"));
        let src = "fn plan(rng: &std::sync::Mutex<u64>) -> u64 {\n    *rng.lock().unwrap()\n}\n";
        let a = analyze_file("crates/wire/src/chaos.rs", src, FileRules::all());
        let live: Vec<&Violation> = a
            .violations
            .iter()
            .filter(|v| !v.suppressed && v.kind == "unwrap")
            .collect();
        assert_eq!(live.len(), 1, "{:?}", a.violations);
        assert_eq!(live[0].line, 2);
    }

    #[test]
    fn reactor_module_is_covered_by_the_panic_rule() {
        // Pin: the epoll reactor drives every connection on the reactor
        // server arm — a panic there kills a worker that owns thousands
        // of live connections, so wire::reactor must stay under the
        // panic rule like the rest of the wire crate.
        assert!(SERVER_CRATES.contains(&"wire"));
        let src = "fn drive(slot: usize, conns: &[u64]) -> u64 {\n    conns[slot]\n}\n";
        let a = analyze_file("crates/wire/src/reactor.rs", src, FileRules::all());
        let live: Vec<&Violation> = a
            .violations
            .iter()
            .filter(|v| !v.suppressed && v.kind == "index")
            .collect();
        assert_eq!(live.len(), 1, "{:?}", a.violations);
        assert_eq!(live[0].line, 2);
    }

    #[test]
    fn dispatch_module_is_covered_by_the_panic_rule() {
        // Pin: wire::dispatch runs every request on both server arms — a
        // panic there kills a blocking worker, or a reactor worker and
        // every connection it owns — so it stays under the panic rule
        // like the rest of the wire crate.
        assert!(SERVER_CRATES.contains(&"wire"));
        let src = "fn dispatch(out: &[u8], frame_start: usize) -> u8 {\n    out[frame_start]\n}\nfn next(q: Option<u8>) -> u8 {\n    q.unwrap()\n}\n";
        let a = analyze_file("crates/wire/src/dispatch.rs", src, FileRules::all());
        let live: Vec<(&str, u32)> = a
            .violations
            .iter()
            .filter(|v| !v.suppressed)
            .map(|v| (v.kind.as_str(), v.line))
            .collect();
        assert_eq!(
            live,
            vec![("index", 2), ("unwrap", 5)],
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn transfer_modules_are_covered_by_the_panic_rule() {
        // Pin: the chunked-transfer handle table lives in the services
        // crate and every byte of uploaded data flows through it, so a
        // panic (or unchecked indexing) sneaking into the transfer module
        // must be flagged exactly like any other server source file.
        assert!(SERVER_CRATES.contains(&"services"));
        let src = "fn frontier(pending: &std::collections::BTreeMap<usize, Vec<u8>>) -> usize {\n    *pending.keys().next().unwrap()\n}\n";
        let a = analyze_file("crates/services/src/transfer.rs", src, FileRules::all());
        let live: Vec<&Violation> = a
            .violations
            .iter()
            .filter(|v| !v.suppressed && v.kind == "unwrap")
            .collect();
        assert_eq!(live.len(), 1, "{:?}", a.violations);
        assert_eq!(live[0].line, 2);

        let src = "fn tail(data: &[u8], off: usize) -> u8 {\n    data[off]\n}\n";
        let a = analyze_file("crates/services/src/transfer.rs", src, FileRules::all());
        let idx: Vec<&Violation> = a
            .violations
            .iter()
            .filter(|v| !v.suppressed && v.kind == "index")
            .collect();
        assert_eq!(idx.len(), 1, "{:?}", a.violations);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }";
        let a = analyze_file("f.rs", src, FileRules::all());
        assert!(a.violations.is_empty());
    }

    #[test]
    fn indexing_detected_array_literals_not() {
        let src = "fn f(v: &[u8]) -> u8 { let a = [1, 2]; let _ = vec![3]; v[0] + a[1] }";
        let a = analyze_file("f.rs", src, FileRules::all());
        let idx: Vec<&Violation> = a.violations.iter().filter(|v| v.kind == "index").collect();
        assert_eq!(idx.len(), 2, "{:?}", a.violations);
    }

    #[test]
    fn size_cap_fires_on_magic_compare_only() {
        let src =
            "const CAP: usize = 65536;\nfn f(n: usize) -> bool { n > 65536 && n < CAP && n > 3 }";
        let a = analyze_file("f.rs", src, FileRules::all());
        let caps: Vec<&Violation> = a
            .violations
            .iter()
            .filter(|v| v.rule == RULE_SIZE_CAP)
            .collect();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].line, 2);
    }

    #[test]
    fn wire_variants_extracted() {
        let src = "pub enum WireError {\n    Io(std::io::Error),\n    BadFrame(String),\n    HttpStatus(u16, String),\n    Timeout(String),\n}";
        assert_eq!(
            wire_error_variants(src),
            vec!["Io", "BadFrame", "HttpStatus", "Timeout"]
        );
    }

    #[test]
    fn wire_map_missing_variant_reported() {
        let wire = "pub enum WireError { Io(std::io::Error), Timeout(String) }";
        let map = "// portalint: wire-error-map\nfn m(e: &WireError) { match e { WireError::Io(_) => {}, _ => {} } }";
        let v = check_wire_map(
            Some(("crates/wire/src/lib.rs", wire)),
            &[("crates/soap/src/fault.rs".into(), map.into())],
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("Timeout"));
    }

    #[test]
    fn wsdl_port_catches_unadvertised_arm() {
        let src = r#"
impl SoapService for S {
    fn invoke(&self, method: &str) {
        match method {
            "ping" => {}
            "ghost" => {}
            _ => {}
        }
    }
    fn methods(&self) -> Vec<MethodDesc> {
        vec![MethodDesc::new("ping", vec![], SoapType::Void, "Ping")]
    }
}
"#;
        let a = analyze_file("s.rs", src, FileRules::all());
        let ports: Vec<&Violation> = a
            .violations
            .iter()
            .filter(|v| v.rule == RULE_WSDL_PORT)
            .collect();
        assert_eq!(ports.len(), 1);
        assert!(ports[0].message.contains("ghost"));
    }

    #[test]
    fn wsdl_port_expands_level_templates() {
        let src = r#"
impl SoapService for S {
    fn invoke(&self, method: &str) {
        match method {
            "addUserContext" => {}
            "clearSessionProperties" => {}
            _ => {}
        }
    }
    fn methods(&self) -> Vec<MethodDesc> {
        let t = "add{L}Context";
        let c = format!("clear{lname}Properties");
        vec![]
    }
}
"#;
        let a = analyze_file("s.rs", src, FileRules::all());
        assert!(a.violations.iter().all(|v| v.rule != RULE_WSDL_PORT));
    }

    #[test]
    fn lock_sites_extracted_io_write_not() {
        let src =
            "fn f() { let g = m.lock(); let r = l.read(); s.write(buf); let t = m.try_lock(); }";
        let a = analyze_file("f.rs", src, FileRules::all());
        let kinds: Vec<&str> = a.locks.iter().map(|l| l.kind.as_str()).collect();
        assert_eq!(kinds, vec!["lock", "read", "try_lock"]);
    }

    #[test]
    fn striped_lock_sites_inventoried_per_acquisition() {
        // The PR 10 striping idiom: locks live inside a stripe vector and
        // are acquired through an index. Every acquisition is a distinct
        // inventory entry; `new_named` constructor calls take arguments
        // and must not be counted as acquisitions.
        let src = r#"
fn put(&self, path: &str) {
    let idx = self.stripe_idx(path);
    let mut state = self.stripes[idx].state.write();
    let _io = self.stripes[idx].device.lock();
    state.touch();
}
fn build() -> Stripe {
    Stripe { state: RwLock::new_named(SrbState::default(), "srb-stripe"), ops: 0 }
}
fn scan(&self) -> usize {
    self.stripes.iter().map(|s| s.state.read().objects()).sum()
}
"#;
        let a = analyze_file("srb.rs", src, FileRules::all());
        let kinds: Vec<&str> = a.locks.iter().map(|l| l.kind.as_str()).collect();
        assert_eq!(kinds, vec!["write", "lock", "read"]);
    }

    #[test]
    fn tally_groups_by_crate_and_rule() {
        let v = Violation {
            file: "crates/wire/src/http.rs".into(),
            line: 1,
            rule: RULE_PANIC,
            kind: "unwrap".into(),
            message: String::new(),
            suppressed: false,
            reason: None,
        };
        let t = tally_by_crate([&v, &v]);
        assert_eq!(t.get(&("wire".to_string(), RULE_PANIC)), Some(&2));
    }
}
