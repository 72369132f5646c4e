//! `portalint` — in-tree static analysis for the portal workspace.
//!
//! The portal runs as a mesh of long-lived SOAP services; a single
//! `unwrap()` on a request path takes a whole capability down for every
//! connected portal (the stove-pipe fragility the paper's Web-services
//! architecture is supposed to eliminate). The build is fully offline —
//! no `syn`, no clippy — so the analysis is grown in-tree on a
//! dependency-free lexer ([`lexer`]) that understands strings, nested
//! comments, attributes, and `#[cfg(test)]` extents.
//!
//! Three invariant families ([`rules`]):
//!
//! 1. **Panic-freedom on server paths** — no `unwrap`/`expect`/`panic!`/
//!    `unreachable!`/`todo!`/`unimplemented!`/direct indexing in the
//!    request-handling crates, with an audited escape hatch:
//!    `// portalint: allow(panic) — <reason>`.
//! 2. **Lock discipline** — every `Mutex`/`RwLock` acquisition site is
//!    extracted statically; the dynamic half (an acquired-before graph
//!    with cycle detection) lives in `shims/parking_lot` and fails the
//!    test suite on a potential deadlock.
//! 3. **Wire-protocol invariants** — every `WireError` variant has a SOAP
//!    fault mapping (`portalint: wire-error-map` marker), every literal
//!    `invoke` arm of a `SoapService` appears in its `methods()` (hence
//!    in its WSDL port type), and size guards cite named cap constants.
//!
//! A second layer builds a workspace call graph ([`graph`]) on the same
//! lexer — per-file `fn` inventory, call-site extraction, conservative
//! name resolution, no type inference — and adds three transitive
//! families:
//!
//! 4. **`reactor-blocking`** ([`reach`]) — nothing reachable from a
//!    `// portalint: reactor-entry` function may reach a blocking sink
//!    (`sleep`, `read_to_end`, `accept`, arg-taking `.read(…)`, …): a
//!    reactor worker that blocks stalls every connection it owns.
//! 5. **`hot-path-alloc`** ([`reach`]) — nothing reachable from a
//!    `// portalint: hot-path-entry` function may reach an allocation
//!    sink (`format!`, `to_owned`, `String::new`, …); `with_capacity`
//!    and lazy error-path closures are exempt by design. Cross-checked
//!    dynamically by E11's `--assert-no-alloc` counter deltas.
//! 6. **`stats-coverage`** ([`coverage`]) — every `Counter` in the
//!    `wire_counters!` table has a non-test increment site outside
//!    `stats.rs`, direct or through a `stats.rs` method that such code
//!    calls; every `ChaosClass` variant is injected.
//!
//! Run as `cargo run -p portalint -- check` (human output, exit 1 on any
//! unsuppressed violation) with `--json <path>` for the machine-readable
//! JSON-lines report the CI gate uploads, and
//! `--baseline <snapshot> --diff` ([`baseline`]) to fail on any finding
//! or allow-count growth relative to the committed
//! `portalint-baseline.jsonl`.

pub mod baseline;
pub mod coverage;
pub mod graph;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod workspace;

pub use baseline::{allow_count, diff, parse_baseline, Baseline, Diff};
pub use coverage::check_stats_coverage;
pub use graph::{CallGraph, CallSite, FnDef};
pub use reach::check_reachability;
pub use rules::{
    analyze_file, check_wire_map, enum_variants, parse_allow, wire_error_variants, Allow,
    FileRules, LockSite, Violation, RULE_BAD_ALLOW, RULE_HOTPATH, RULE_PANIC, RULE_REACTOR,
    RULE_SIZE_CAP, RULE_STATS, RULE_WIRE_MAP, RULE_WSDL_PORT, SERVER_CRATES,
};
pub use workspace::{analyze_root, Analysis};
