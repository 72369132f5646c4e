//! `report --quick` runs every E1–E10 row once. This pins that the whole
//! report still runs and prints each experiment and each of the series
//! DESIGN.md §4 names.

use std::process::Command;

#[test]
fn quick_report_prints_every_experiment_and_series() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--quick")
        .output()
        .expect("run report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "report --quick failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let headings = [
        "E1 (Fig. 1)",
        "E2 (Fig. 2)",
        "E3 (Fig. 3)",
        "E4 (Fig. 4)",
        "E5 —",
        "E6 —",
        "E7 —",
        "E8 —",
        "E9 —",
        "E10 —",
    ];
    for heading in headings {
        assert!(
            stdout.lines().any(|l| l.starts_with(heading)),
            "missing heading {heading:?}\n{stdout}"
        );
    }
    let series = [
        "throughput vs concurrent clients",
        "concurrent central-verified users",
        "nesting-depth sweep",
        "marshal round trip",
        "full secured session",
        "get string",
        "get base64",
        "wall-clock processing",
    ];
    for line in series {
        assert!(stdout.contains(line), "missing series {line:?}\n{stdout}");
    }
}

#[test]
fn report_rejects_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--json")
        .output()
        .expect("run report");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: report [--quick]"));
}
