//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics, then as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits nonzero when an output was wrong or the run could
//! not be made. `perfbench --describe` prints the per-layer metric table.

use std::process::ExitCode;

use portalws_perfbench::{layers, run, Config, Workload};

fn usage() -> String {
    "usage: perfbench --workload <echo|echo_reactor|portal_session|bulk_transfer> \
     --seed <n> --seconds <s> --trace <0|1> | --describe"
        .to_owned()
}

fn parse(args: &[String]) -> Result<Config, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))
    };
    let workload = value("--workload")?;
    Ok(Config {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}\n{}", usage()))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        cpu_at_start: portalws_perfbench::util::cpu_times(),
        // Also warms the CPUs up before anything is timed.
        calibration: portalws_perfbench::util::calibration_score(),
    })
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every per-layer metric with its unit, direction and target.
fn describe() {
    for (name, unit, better, moves, workloads) in layers::METRICS {
        println!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"moves\": {}, \"workloads\": {}}}",
            quote(name),
            quote(unit),
            quote(better),
            quote(moves),
            quote(workloads)
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--describe") {
        describe();
        return ExitCode::SUCCESS;
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric that could not be
            // computed reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
