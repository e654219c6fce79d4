//! papaya-lint: a workspace invariant analyzer for the PAPAYA reproduction.
//!
//! The repo's headline guarantee — a bit-identical `Report::fingerprint()`
//! at any thread count, under `dp(secure(strategy))` stacking and crash
//! injection — rests on structural conventions: no unordered-map iteration
//! in fingerprint-feeding paths, no host libm in the language model, every
//! config field acknowledged by a validator, every event variant
//! dispatched, every metrics field hashed or exempted, no stray panics in
//! library code.  This crate machine-checks those conventions with a
//! hand-rolled lexer and a token-stream scanner (no `syn`; the build box
//! has no registry access), so they survive growth instead of relying on
//! reviewer vigilance.
//!
//! Run it over the workspace:
//!
//! ```text
//! cargo run -p papaya-lint -- --deny-all
//! ```
//!
//! Suppress a finding only with an inline justification:
//!
//! ```text
//! // papaya-lint: allow(wall-clock) -- profiling-only; never fingerprinted
//! ```
//!
//! Unjustified, unknown, or unused allow directives are findings
//! themselves.  See `RULES.md` for the catalog.

#![forbid(unsafe_code)]

pub mod docs_links;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

use report::Finding;
use rules::{all_rules, known_rule_names};
use scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The analyzed source set.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// Parsed files, sorted by path for deterministic diagnostics.
    pub files: Vec<SourceFile>,
}

/// Directory names under `crates/` that are exempt from analysis: the
/// vendored stand-ins for external crates (`compat`).
const EXEMPT_CRATE_DIRS: &[&str] = &["compat"];

impl Workspace {
    /// Builds a workspace from in-memory sources (fixtures and tests).
    /// Paths should mimic real workspace-relative layout
    /// (`crates/<crate>/src/<file>.rs`) so rule scoping applies.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .into_iter()
            .map(|(path, src)| SourceFile::parse(path, &src))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Walks `<root>/crates/*/src/**/*.rs` (excluding the vendored `compat`
    /// stand-ins) and parses every library source file.  Integration tests,
    /// examples, and benches are out of scope by construction: only `src/`
    /// trees are analyzed.
    pub fn from_disk(root: &Path) -> io::Result<Workspace> {
        let crates_dir = root.join("crates");
        if !crates_dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "{} has no crates/ directory; pass the workspace root via --root",
                    root.display()
                ),
            ));
        }
        let mut sources = Vec::new();
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let name = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if EXEMPT_CRATE_DIRS.contains(&name.as_str()) {
                continue;
            }
            let src = crate_dir.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut sources)?;
            }
        }
        Ok(Workspace::from_sources(sources))
    }
}

/// Recursively collects `.rs` files under `dir` as `(relative path, text)`.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// A parsed `// papaya-lint: allow(<rule>) -- <justification>` directive.
#[derive(Clone, Debug)]
struct AllowDirective {
    rule: String,
    /// Line of the comment itself.
    line: u32,
    /// Line of code the directive covers: its own line for a trailing
    /// comment, the next code line for a standalone comment.
    covered_line: Option<u32>,
    justified: bool,
    used: bool,
}

const DIRECTIVE_PREFIX: &str = "papaya-lint:";

fn parse_directives(file: &SourceFile) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for comment in &file.comments {
        // Plain `//` comments only: a doc comment's text starts with `/` or
        // `!`, so directive examples inside docs never parse as directives.
        let text = comment.text.trim();
        let rest = match text.strip_prefix(DIRECTIVE_PREFIX) {
            Some(r) => r.trim_start(),
            None => continue,
        };
        let inner = rest.strip_prefix("allow(").and_then(|r| r.split_once(')'));
        let (rule, tail) = match inner {
            Some((rule, tail)) => (rule.trim().to_string(), tail.trim()),
            None => {
                // Malformed directive: surface it as unknown rather than
                // silently ignoring a typo like `papaya-lint: alow(...)`.
                out.push(AllowDirective {
                    rule: String::new(),
                    line: comment.line,
                    covered_line: covered_line(file, comment.line),
                    justified: false,
                    used: false,
                });
                continue;
            }
        };
        let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        out.push(AllowDirective {
            rule,
            line: comment.line,
            covered_line: covered_line(file, comment.line),
            justified: !justification.is_empty(),
            used: false,
        });
    }
    out
}

fn covered_line(file: &SourceFile, directive_line: u32) -> Option<u32> {
    if file.has_code_on(directive_line) {
        Some(directive_line)
    } else {
        file.next_code_line(directive_line + 1)
    }
}

/// Runs every rule over the workspace, applies allow directives, and
/// appends the meta findings (`unjustified-allow`, `unknown-rule`,
/// `unused-allow`).  The returned list is sorted by path, line, rule.
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    let mut raw = Vec::new();
    for rule in all_rules() {
        rule.check(ws, &mut raw);
    }
    let known = known_rule_names();

    // Per-file directive tables.
    let mut directives: Vec<(String, Vec<AllowDirective>)> = ws
        .files
        .iter()
        .map(|f| (f.path.clone(), parse_directives(f)))
        .collect();

    let mut findings = Vec::new();
    for finding in raw {
        let table = directives
            .iter_mut()
            .find(|(path, _)| *path == finding.path)
            .map(|(_, d)| d);
        let mut suppressed = false;
        if let Some(table) = table {
            for d in table.iter_mut() {
                if d.rule == finding.rule && d.covered_line == Some(finding.line) {
                    d.used = true;
                    // Only a *justified* allow suppresses; an unjustified
                    // one keeps the original finding and adds its own.
                    if d.justified {
                        suppressed = true;
                    }
                }
            }
        }
        if !suppressed {
            findings.push(finding);
        }
    }

    for (path, table) in &directives {
        for d in table {
            if d.rule.is_empty() {
                findings.push(Finding::new(
                    path,
                    d.line,
                    "unknown-rule",
                    "malformed papaya-lint directive; expected \
                     `papaya-lint: allow(<rule>) -- <justification>`",
                ));
                continue;
            }
            if !known.contains(&d.rule.as_str()) {
                findings.push(Finding::new(
                    path,
                    d.line,
                    "unknown-rule",
                    format!("allow names unknown rule `{}`", d.rule),
                ));
                continue;
            }
            if !d.justified {
                findings.push(Finding::new(
                    path,
                    d.line,
                    "unjustified-allow",
                    format!(
                        "allow({}) has no justification; append ` -- <why this is sound>` \
                         (the determinism rationale lives in docs/DETERMINISM.md)",
                        d.rule
                    ),
                ));
                continue;
            }
            if !d.used {
                findings.push(Finding::new(
                    path,
                    d.line,
                    "unused-allow",
                    format!(
                        "allow({}) suppresses nothing on line {:?}; remove it so stale \
                         exemptions cannot mask future findings",
                        d.rule, d.covered_line
                    ),
                ));
            }
        }
    }

    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn justified_allow_suppresses_and_is_used() {
        let w = ws(&[(
            "crates/papaya-core/src/x.rs",
            "use std::collections::HashMap; // papaya-lint: allow(unordered-collections) -- demo\n",
        )]);
        assert!(analyze(&w).is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let w = ws(&[(
            "crates/papaya-core/src/x.rs",
            "// papaya-lint: allow(unordered-collections) -- demo\n\nuse std::collections::HashMap;\n",
        )]);
        assert!(analyze(&w).is_empty());
    }

    #[test]
    fn unjustified_allow_keeps_finding_and_reports_itself() {
        let w = ws(&[(
            "crates/papaya-core/src/x.rs",
            "use std::collections::HashMap; // papaya-lint: allow(unordered-collections)\n",
        )]);
        let findings = analyze(&w);
        assert!(findings.iter().any(|f| f.rule == "unordered-collections"));
        // The meta finding points the author at the written-down rationale,
        // not just the syntax to silence it.
        let meta = findings
            .iter()
            .find(|f| f.rule == "unjustified-allow")
            .expect("unjustified-allow reported");
        assert!(
            meta.message.contains("docs/DETERMINISM.md"),
            "message should cite the determinism doc: {}",
            meta.message
        );
    }

    #[test]
    fn unknown_rule_and_unused_allow_are_findings() {
        let w = ws(&[(
            "crates/papaya-core/src/x.rs",
            "// papaya-lint: allow(no-such-rule) -- why\nfn f() {}\n\
             // papaya-lint: allow(wall-clock) -- nothing here\nfn g() {}\n",
        )]);
        let findings = analyze(&w);
        assert!(findings.iter().any(|f| f.rule == "unknown-rule"));
        assert!(findings.iter().any(|f| f.rule == "unused-allow"));
    }

    #[test]
    fn malformed_directive_is_reported() {
        let w = ws(&[(
            "crates/papaya-core/src/x.rs",
            "// papaya-lint: alow(wall-clock) -- typo\nfn f() {}\n",
        )]);
        let findings = analyze(&w);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unknown-rule");
    }
}
