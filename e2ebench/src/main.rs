//! Command line of the benchmark. See `README.md`.

use std::process::ExitCode;

use nucanet_e2ebench::json::{self, Value};
use nucanet_e2ebench::run::{self, Knobs, SCHEMA};
use nucanet_e2ebench::workloads::{Size, Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage:
  e2ebench --workload <fig8-mesh|screen-sweep|halo-cmp> [--seed N] [--seconds S]
           [--trace 0|1]
      runs one workload; prints the record, then the result line
  e2ebench digests
      prints the default-seed digests of every workload
  e2ebench compare OLD NEW
      compares the last records of two files; refuses records whose knobs differ";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("digests") => digests(),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some(_) => parse_run(&args).and_then(|knobs| bench(&knobs)),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Result<Knobs, String> {
    let mut knobs = Knobs {
        workload: Workload::Fig8Mesh,
        size: Size::Paper,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => knobs.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                knobs.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                knobs.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    knobs.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(knobs)
}

fn bench(knobs: &Knobs) -> Result<ExitCode, String> {
    let report = run::run(knobs)?;
    for f in &report.failures {
        eprintln!("failed: {f}");
    }
    println!("{}", report.record.render());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn digests() -> Result<ExitCode, String> {
    for w in Workload::ALL {
        // Checked only traced against untraced, not against the
        // digests being replaced.
        let knobs = Knobs {
            workload: w,
            size: Size::Paper,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
        };
        let report = run::run_against(&knobs, &[])?;
        if !report.failures.is_empty() {
            return Err(format!("{}: {}", w.name(), report.failures.join("; ")));
        }
        for (i, s) in report.stats.iter().enumerate() {
            println!("{} {i} {:016x}", w.name(), s.digest());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The last benchmark record in the file at `path`.
fn last_record(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .rev()
        .filter_map(|l| json::parse(l).ok())
        .find(|v| v.get("schema") == Some(&Value::Str(SCHEMA.into())))
        .ok_or_else(|| format!("{path}: no {SCHEMA} record"))
}

fn compare(old: &str, new: &str) -> Result<ExitCode, String> {
    let (a, b) = (last_record(old)?, last_record(new)?);
    let rows = run::compare(&a, &b)?;
    if a.get("host") != b.get("host") {
        eprintln!("note: the records come from different hosts or builds");
    }
    println!(
        "{:<34} {:>14} {:>14} {:>8}",
        "metric", "old", "new", "new/old"
    );
    for (name, x, y) in rows {
        println!("{name:<34} {x:>14.4} {y:>14.4} {:>8.3}", y / x);
    }
    Ok(ExitCode::SUCCESS)
}
