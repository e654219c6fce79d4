//! The `papaya-lint` command-line front end.
//!
//! ```text
//! papaya-lint [--root DIR] [--deny-all] [--json PATH]
//!             [--baseline PATH] [--write-baseline PATH] [--quiet]
//! papaya-lint --docs-links [--root DIR]
//! ```
//!
//! Exit codes: `0` clean (or advisory mode), `1` findings under
//! `--deny-all` (dead links always fail in `--docs-links` mode),
//! `2` usage or I/O error.

#![forbid(unsafe_code)]

use papaya_lint::docs_links::check_docs_links;
use papaya_lint::report::{parse_baseline, to_baseline, to_json, Finding};
use papaya_lint::rules::all_rules;
use papaya_lint::{analyze, Workspace};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    deny_all: bool,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    quiet: bool,
    docs_links: bool,
}

fn usage() -> String {
    let mut out = String::from(
        "papaya-lint: workspace invariant analyzer\n\n\
         USAGE: papaya-lint [--root DIR] [--deny-all] [--json PATH]\n\
         \x20                [--baseline PATH] [--write-baseline PATH] [--quiet]\n\
         \x20      papaya-lint --docs-links [--root DIR]\n\n\
         --root DIR            workspace root (default: current directory)\n\
         --deny-all            exit nonzero on any finding (the CI mode)\n\
         --json PATH           write the machine-readable JSON report\n\
         --baseline PATH       suppress findings listed in a baseline file\n\
         --write-baseline PATH write the current findings as a baseline\n\
         --quiet               print only the summary line\n\
         --docs-links          check README.md/docs/**.md for dead relative\n\
         \x20                      links instead of analyzing sources; any\n\
         \x20                      dead link fails the run\n\nRULES:\n",
    );
    for rule in all_rules() {
        out.push_str(&format!("  {:22} {}\n", rule.name(), rule.description()));
    }
    out
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        deny_all: false,
        json: None,
        baseline: None,
        write_baseline: None,
        quiet: false,
        docs_links: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path_arg = |name: &str| {
            args.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} requires a path argument"))
        };
        match arg.as_str() {
            "--root" => opts.root = path_arg("--root")?,
            "--deny-all" => opts.deny_all = true,
            "--json" => opts.json = Some(path_arg("--json")?),
            "--baseline" => opts.baseline = Some(path_arg("--baseline")?),
            "--write-baseline" => opts.write_baseline = Some(path_arg("--write-baseline")?),
            "--quiet" => opts.quiet = true,
            "--docs-links" => opts.docs_links = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n\n{}", usage())),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<Vec<Finding>, String> {
    let ws = Workspace::from_disk(&opts.root).map_err(|e| e.to_string())?;
    let mut findings = analyze(&ws);

    if let Some(path) = &opts.write_baseline {
        fs::write(path, to_baseline(&findings))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "papaya-lint: wrote baseline with {} finding(s) to {}",
            findings.len(),
            path.display()
        );
    }

    if let Some(path) = &opts.baseline {
        let content =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let keys = parse_baseline(&content);
        let before = findings.len();
        findings.retain(|f| !keys.contains(&f.baseline_key()));
        if !opts.quiet {
            eprintln!(
                "papaya-lint: baseline {} suppressed {} pre-existing finding(s)",
                path.display(),
                before - findings.len()
            );
        }
    }

    if let Some(path) = &opts.json {
        fs::write(path, to_json(&findings))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    if !opts.quiet {
        for f in &findings {
            println!("{f}");
        }
    }
    let n_files = ws.files.len();
    let n_rules = all_rules().len();
    if findings.is_empty() {
        eprintln!("papaya-lint: clean — {n_files} files, {n_rules} rules, 0 findings");
    } else {
        eprintln!(
            "papaya-lint: {} finding(s) across {n_files} files ({n_rules} rules)",
            findings.len()
        );
    }
    Ok(findings)
}

/// The `--docs-links` mode: dead relative links in the documentation set
/// are always hard failures — there is no advisory variant of a 404.
fn run_docs_links(opts: &Options) -> ExitCode {
    match check_docs_links(&opts.root) {
        Ok(findings) if findings.is_empty() => {
            eprintln!("papaya-lint: docs links clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("papaya-lint: {} dead doc link(s)", findings.len());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("papaya-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if opts.docs_links {
        return run_docs_links(&opts);
    }
    match run(&opts) {
        Ok(findings) => {
            if opts.deny_all && !findings.is_empty() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("papaya-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}
