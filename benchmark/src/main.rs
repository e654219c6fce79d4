//! The repo benchmark.  Three ways in:
//!
//! * `-- [--seed N] [--workload W]… [--out FILE]` runs every (or the named)
//!   workload, each in two processes of its own — a measured run and a
//!   traced run — checks every output and prints every metric with its unit;
//! * `-- --workload W --seed N --seconds S --trace 0|1` is one of those
//!   processes, and the form `BENCHMARK.json` hands to the driver: its last
//!   line of output is the one-line JSON result;
//! * `-- --compare BASE.json CHANGE.json` judges two result files.
//!
//! See `README.md` for the workloads, the metrics and how they interact.

mod compare;
mod json;
mod metrics;
mod probes;
mod rss;
mod run;
mod stats;
mod stub;
mod trace;
mod workloads;

use json::Json;
use run::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

/// Seconds a measured run measures for; `BENCHMARK.json` says the same.
pub const RUN_SECONDS: u64 = 20;

const DEFAULT_SEED: u64 = 42;

/// The line of a child's output that carries its values with their ranges.
const DETAIL_PREFIX: &str = "detail ";

const USAGE: &str = "usage:
  papaya-benchmark [--seed N] [--workload W]... [--out FILE]
  papaya-benchmark --workload W --seed N --seconds S --trace 0|1
  papaya-benchmark --compare BASE.json CHANGE.json";

struct Args {
    seed: u64,
    workloads: Vec<&'static Workload>,
    out: Option<PathBuf>,
    seconds: Option<u64>,
    trace: Option<bool>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        out: None,
        seconds: None,
        trace: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--workload" => {
                let name = value()?;
                let workload = workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                parsed.workloads.push(workload);
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--seconds" => {
                let seconds: u64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--compare" => {
                let base = PathBuf::from(value()?);
                parsed.compare = Some((base, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/`, wherever the checkout is: `cargo run` says where the
/// manifest is now, and the build remembers where it was.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn print_outcome(outcome: &Outcome) {
    println!(
        "{} (seed {}, {}): {} operations, {} failed, fingerprint {}",
        outcome.workload,
        outcome.seed,
        if outcome.traced {
            "traced run"
        } else {
            "measured run"
        },
        outcome.ops.attempted,
        outcome.ops.failed,
        outcome.fingerprint
    );
    for failure in &outcome.ops.failures {
        println!("  FAILED {failure}");
    }
    for metric in &outcome.metrics {
        let (name, unit, summary) = (metric.name, metric.unit, &metric.summary);
        // Direction, and for an end-to-end metric how far the driver lets it
        // worsen: a number is hard to read without either.
        let note = match metrics::END_TO_END.iter().find(|m| m.name == name) {
            Some(m) => format!(
                "  [{} is better, bound {:.0} %]",
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                m.bound * 100.0
            ),
            None if metric.higher_is_better => "  [higher is better]".to_string(),
            None => String::new(),
        };
        if summary.n > 1 {
            println!(
                "  {name:<40} {:>16.6} {unit:<10} better quartile of {}, median {:.6}, quartiles {:.6}..{:.6} ({:.1} %), range {:.6}..{:.6}{note}",
                metric.value(),
                summary.n,
                summary.median,
                summary.q1,
                summary.q3,
                summary.spread_share() * 100.0,
                summary.min,
                summary.max
            );
        } else {
            println!("  {name:<40} {:>16.6} {unit:<10}{note}", metric.value());
        }
    }
}

/// One workload in this process: the form the driver calls.
fn run_one(workload: &'static Workload, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let outcome = if traced {
        let path = benchmark_dir()
            .join("out")
            .join(format!("{}.trace.json", workload.name));
        run::trace(workload, seed, 1, Some(&path))
    } else {
        run::measure(workload, seed, seconds, 1)
    };
    match outcome {
        Ok(outcome) => {
            print_outcome(&outcome);
            println!("{DETAIL_PREFIX}{}", outcome.detail().render());
            println!("{}", outcome.result_line().render());
            if outcome.ops.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(reason) => {
            eprintln!("{}: no result: {reason}", workload.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs `workload` in a process of its own and returns its detail line.
fn run_child(workload: &Workload, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = Some(Json::parse(json)?),
            // The result line is for the driver; the rest is for the reader.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    detail.ok_or_else(|| {
        format!(
            "the {} run ({}) reported nothing",
            workload.name, output.status
        )
    })
}

/// Every selected workload, each in two processes of its own, so that
/// `VmHWM` is that workload's exact peak.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let selected: Vec<&Workload> = if args.workloads.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        args.workloads.clone()
    };
    let clock = Instant::now();
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut results = Vec::new();
    for workload in selected {
        let measured = run_child(workload, args.seed, false)?;
        let traced = run_child(workload, args.seed, true)?;
        let sum = |key: &str| -> f64 {
            [&measured, &traced]
                .iter()
                .filter_map(|d| d.get(key).and_then(Json::as_f64))
                .sum()
        };
        attempted += sum("ops_attempted");
        failed += sum("ops_failed");
        let failures: Vec<Json> = [&measured, &traced]
            .iter()
            .filter_map(|d| d.get("failures").and_then(Json::as_array))
            .flatten()
            .cloned()
            .collect();
        let field = |detail: &Json, key: &str| detail.get(key).cloned().unwrap_or(Json::Null);
        results.push(Json::obj([
            ("name", Json::str(workload.name)),
            ("why", Json::str(workload.why)),
            ("ops_attempted", Json::Num(sum("ops_attempted"))),
            ("ops_failed", Json::Num(sum("ops_failed"))),
            ("failures", Json::Arr(failures)),
            ("fingerprint", field(&measured, "fingerprint")),
            ("end_to_end", field(&measured, "metrics")),
            ("per_layer", field(&traced, "metrics")),
        ]));
    }
    let total_s = clock.elapsed().as_secs_f64();
    println!("ops_attempted {attempted}, ops_failed {failed}, {total_s:.1} s in all");
    if let Some(path) = &args.out {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let result = Json::obj([
            ("benchmark", Json::str("papaya-benchmark")),
            ("seed", Json::Num(args.seed as f64)),
            ("run_seconds", Json::Num(RUN_SECONDS as f64)),
            ("nproc", Json::Num(nproc as f64)),
            ("total_s", Json::Num(total_s)),
            ("ops_attempted", Json::Num(attempted)),
            ("ops_failed", Json::Num(failed)),
            ("workloads", Json::Arr(results)),
        ]);
        std::fs::write(path, result.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(base: &PathBuf, change: &PathBuf) -> Result<ExitCode, String> {
    let load = |path: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, regressed) = compare::compare(&load(base)?, &load(change)?)?;
    print!("{table}");
    if regressed {
        println!("REGRESSION: at least one row is worse than its bound allows");
        Ok(ExitCode::FAILURE)
    } else {
        println!("no regression");
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        if let Some((base, change)) = &args.compare {
            return run_compare(base, change);
        }
        match (args.trace, args.seconds) {
            (None, None) => run_all(&args),
            (trace, seconds) => match args.workloads.as_slice() {
                [workload] => Ok(run_one(
                    workload,
                    args.seed,
                    seconds.unwrap_or(RUN_SECONDS),
                    trace.unwrap_or(false),
                )),
                _ => Err(format!(
                    "--trace and --seconds run exactly one --workload\n{USAGE}"
                )),
            },
        }
    });
    outcome.unwrap_or_else(|reason| {
        eprintln!("{reason}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_three_forms() {
        let all = parse(&[]).unwrap();
        assert_eq!(all.seed, DEFAULT_SEED);
        assert!(all.workloads.is_empty() && all.trace.is_none() && all.seconds.is_none());

        let one = parse(&[
            "--workload",
            "lm-pool",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(one.workloads[0].name, "lm-pool");
        assert_eq!(
            (one.seed, one.seconds, one.trace),
            (7, Some(10), Some(true))
        );

        let two = parse(&[
            "--workload",
            "loop-bound",
            "--workload",
            "lm-pool",
            "--out",
            "x.json",
        ])
        .unwrap();
        assert_eq!(two.workloads.len(), 2);
        assert_eq!(two.out, Some(PathBuf::from("x.json")));

        let cmp = parse(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(
            cmp.compare,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--compare", "a.json"],
            &["--quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
