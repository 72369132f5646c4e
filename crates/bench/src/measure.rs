//! What every bench binary shares: the command-line reader, the baseline
//! reader, and the two statistics the binaries report (the median over
//! repeated runs and a percentile).
//!
//! The reader fails closed. An unknown flag, a flag missing its value, or
//! a `--baseline` file that cannot be read or lacks a key the gate reads
//! ends the run (exit 2) before anything is measured, so a typo can never
//! skip or weaken a gate.

use std::time::{Duration, Instant};

/// A command-line flag a bench binary may accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the CI-sized run.
    Quick,
    /// `--json PATH`: write the measurements to `PATH`.
    Json,
    /// `--baseline PATH`: gate against a committed baseline file.
    Baseline,
    /// `--seed N`: the base seed of a seeded run.
    Seed,
    /// `--assert-no-alloc`: run only the substrate's allocation check.
    AssertNoAlloc,
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Quick => "--quick",
            Flag::Json => "--json",
            Flag::Baseline => "--baseline",
            Flag::Seed => "--seed",
            Flag::AssertNoAlloc => "--assert-no-alloc",
        }
    }

    /// The placeholder of the value the flag takes, if it takes one.
    fn value(self) -> Option<&'static str> {
        match self {
            Flag::Json | Flag::Baseline => Some("PATH"),
            Flag::Seed => Some("N"),
            Flag::Quick | Flag::AssertNoAlloc => None,
        }
    }
}

/// The command line one binary accepts: its flags, and the keys its gate
/// reads from a `--baseline` file.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    pub bin: &'static str,
    pub flags: &'static [Flag],
    pub baseline_keys: &'static [&'static str],
}

pub const REPORT: Cli = Cli {
    bin: "report",
    flags: &[Flag::Quick],
    baseline_keys: &[],
};

pub const E11_SUBSTRATE: Cli = Cli {
    bin: "e11_substrate",
    flags: &[Flag::Quick, Flag::Json, Flag::Baseline, Flag::AssertNoAlloc],
    baseline_keys: &["parse_us"],
};

pub const E12_CHAOS: Cli = Cli {
    bin: "e12_chaos",
    flags: &[Flag::Quick, Flag::Json, Flag::Seed],
    baseline_keys: &[],
};

pub const E13_TRANSFER: Cli = Cli {
    bin: "e13_transfer",
    flags: &[Flag::Quick, Flag::Json],
    baseline_keys: &[],
};

pub const E14_CACHE: Cli = Cli {
    bin: "e14_cache",
    flags: &[Flag::Quick, Flag::Json, Flag::Baseline],
    baseline_keys: &["cached_read_us", "min_hit_rate"],
};

pub const E15_LOAD: Cli = Cli {
    bin: "e15_load",
    flags: &[Flag::Quick, Flag::Json, Flag::Baseline],
    baseline_keys: &["p99_max_ms"],
};

pub const E16_SHARD: Cli = Cli {
    bin: "e16_shard",
    flags: &[Flag::Quick, Flag::Json, Flag::Baseline],
    baseline_keys: &["min_scaling", "max_balance"],
};

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    pub quick: bool,
    pub json: Option<String>,
    /// Read and checked while parsing: every declared key is present.
    pub baseline: Option<Baseline>,
    pub seed: Option<u64>,
    pub assert_no_alloc: bool,
}

impl Cli {
    /// One usage line listing the accepted flags.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {}", self.bin);
        for flag in self.flags {
            match flag.value() {
                Some(v) => line.push_str(&format!(" [{} {v}]", flag.name())),
                None => line.push_str(&format!(" [{}]", flag.name())),
            }
        }
        line
    }

    /// Parse `args` (without the program name) and read the baseline.
    pub fn parse_args(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut baseline_path = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let flag = self
                .flags
                .iter()
                .copied()
                .find(|f| f.name() == arg)
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            let value = match flag.value() {
                Some(placeholder) => match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("{arg} needs a value ({arg} {placeholder})")),
                },
                None => None,
            };
            match flag {
                Flag::Quick => out.quick = true,
                Flag::AssertNoAlloc => out.assert_no_alloc = true,
                Flag::Json => out.json = value,
                Flag::Baseline => baseline_path = value,
                Flag::Seed => {
                    let v = value.unwrap_or_default();
                    let seed = v
                        .parse()
                        .map_err(|_| format!("--seed {v:?} is not an unsigned integer"))?;
                    out.seed = Some(seed);
                }
            }
        }
        if let Some(path) = baseline_path {
            out.baseline = Some(Baseline::from_file(&path, self.baseline_keys)?);
        }
        Ok(out)
    }

    /// Parse the process arguments; on any error print it with the usage
    /// line and exit 2.
    pub fn from_env(&self) -> Args {
        self.parse_args(std::env::args().skip(1))
            .unwrap_or_else(|e| {
                eprintln!("{}: {e}\n{}", self.bin, self.usage());
                std::process::exit(2)
            })
    }
}

/// A committed baseline, holding every key the gate reads.
#[derive(Debug)]
pub struct Baseline {
    values: Vec<(&'static str, f64)>,
}

impl Baseline {
    /// Read `path` and pull out each of `keys`; a missing file or key is
    /// an error.
    pub fn from_file(path: &str, keys: &[&'static str]) -> Result<Baseline, String> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        Baseline::from_doc(path, &doc, keys)
    }

    fn from_doc(path: &str, doc: &str, keys: &[&'static str]) -> Result<Baseline, String> {
        let values = keys
            .iter()
            .map(|&key| {
                json_number(doc, key)
                    .map(|v| (key, v))
                    .ok_or_else(|| format!("baseline {path} has no number for {key:?}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Baseline { values })
    }

    /// The value of `key`, which must be one of the binary's declared
    /// baseline keys (all of them were checked when the file was read).
    pub fn number(&self, key: &str) -> f64 {
        self.values
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{key:?} is not a declared baseline key"))
    }
}

/// Pull the number after `"key":` out of a flat JSON document, such as
/// the baseline files the binaries write themselves.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let tail = doc.get(at..)?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail.get(..end)?.parse().ok()
}

/// Median wall time of `f` over `runs` runs (at least one).
pub fn median(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// The `p` quantile (0 ≤ p ≤ 1) of an ascending sample, nearest rank;
/// 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let ix = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[ix.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(cli: Cli, args: &[&str]) -> Result<Args, String> {
        cli.parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn reads_every_flag_a_binary_declares() {
        let a = args_of(
            E12_CHAOS,
            &["--quick", "--json", "out.json", "--seed", "42"],
        )
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.seed, Some(42));
        let a = args_of(E11_SUBSTRATE, &["--assert-no-alloc"]).unwrap();
        assert!(a.assert_no_alloc && !a.quick && a.baseline.is_none());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let e = args_of(E16_SHARD, &["--quick", "--basline", "x"]).unwrap_err();
        assert!(e.contains("--basline"), "{e}");
        // A flag another binary takes is unknown here.
        assert!(args_of(REPORT, &["--json", "x"]).is_err());
        assert!(args_of(E13_TRANSFER, &["stray"]).is_err());
    }

    #[test]
    fn flag_without_value_is_rejected() {
        let e = args_of(E14_CACHE, &["--quick", "--baseline"]).unwrap_err();
        assert!(e.contains("--baseline needs a value"), "{e}");
        // The next flag is not taken as the value.
        assert!(args_of(E14_CACHE, &["--baseline", "--quick"]).is_err());
        assert!(args_of(E12_CHAOS, &["--seed", "0xE12"]).is_err());
    }

    #[test]
    fn unreadable_baseline_is_an_error() {
        let e = args_of(E15_LOAD, &["--quick", "--baseline", "/nonexistent"]).unwrap_err();
        assert!(e.contains("cannot read baseline"), "{e}");
    }

    #[test]
    fn missing_baseline_key_is_an_error() {
        let doc = "{\n  \"min_scaling\": 1.8\n}\n";
        let e = Baseline::from_doc("b.json", doc, E16_SHARD.baseline_keys).unwrap_err();
        assert!(e.contains("max_balance"), "{e}");
        let b = Baseline::from_doc("b.json", doc, &["min_scaling"]).unwrap();
        assert_eq!(b.number("min_scaling"), 1.8);
    }

    #[test]
    fn committed_baselines_carry_every_gate_key() {
        for (cli, doc) in [
            (
                E11_SUBSTRATE,
                include_str!("../BENCH_substrate.baseline.json"),
            ),
            (E14_CACHE, include_str!("../BENCH_cache.baseline.json")),
            (E15_LOAD, include_str!("../BENCH_load.baseline.json")),
            (E16_SHARD, include_str!("../BENCH_shard.baseline.json")),
        ] {
            assert!(!cli.baseline_keys.is_empty(), "{}", cli.bin);
            for key in cli.baseline_keys {
                assert!(json_number(doc, key).is_some(), "{}: {key}", cli.bin);
            }
        }
    }

    #[test]
    fn json_number_reads_flat_values() {
        let doc = "{\"a\": 1.5, \"b\":-2e3, \"c\": \"x\"}";
        assert_eq!(json_number(doc, "a"), Some(1.5));
        assert_eq!(json_number(doc, "b"), Some(-2000.0));
        assert_eq!(json_number(doc, "c"), None);
        assert_eq!(json_number(doc, "d"), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 51.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn median_runs_at_least_once() {
        let mut calls = 0;
        median(0, || calls += 1);
        assert_eq!(calls, 1);
        median(5, || calls += 1);
        assert_eq!(calls, 6);
    }
}
