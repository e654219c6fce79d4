//! Every relative markdown link in `README.md` and `docs/**.md` resolves to
//! a file in the checkout.
//!
//! A link is an inline `[text](target)` outside a fenced code block.
//! Absolute URLs (`http://`, `https://`, `mailto:`) and in-page `#anchors`
//! are skipped, and a `#anchor` suffix on a file target is stripped: the
//! file must exist, the anchor is not checked.  A target resolves against
//! the linking file's directory, as a reader clicking through a checkout
//! would resolve it.

use std::path::{Path, PathBuf};

/// `(line, target)` for every link in `markdown` whose file must exist.
fn relative_links(markdown: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (index, line) in markdown.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let after = &rest[open + 2..];
            let Some(close) = after.find(')') else { break };
            let target = after[..close].trim();
            rest = &after[close + 1..];
            let file = target.split('#').next().unwrap_or_default();
            let external = ["http://", "https://", "mailto:"]
                .iter()
                .any(|scheme| target.starts_with(scheme));
            if !file.is_empty() && !external {
                out.push((index + 1, file));
            }
        }
    }
    out
}

/// `README.md` and every `.md` file under `docs/`, sorted.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md")];
    let mut dirs = vec![root.join("docs")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read docs directory") {
            let path = entry.expect("read docs entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "md") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

#[test]
fn links_are_extracted_outside_fences_with_anchors_stripped() {
    let markdown = "See [arch](docs/ARCHITECTURE.md) and [det](docs/DETERMINISM.md#pins).\n\
                    External: [paper](https://example.com/x), [mail](mailto:a@b.c); \
                    in-page: [here](#section).\n\
                    ```\n[not a link](nope.md)\n```\n\
                    [up](../README.md)\n";
    assert_eq!(
        relative_links(markdown),
        vec![
            (1, "docs/ARCHITECTURE.md"),
            (1, "docs/DETERMINISM.md"),
            (6, "../README.md"),
        ]
    );
}

#[test]
fn every_relative_doc_link_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = doc_files(root);
    assert!(files.len() > 1, "no docs found under {}", root.display());
    let mut dead = Vec::new();
    for file in &files {
        let markdown = std::fs::read_to_string(file).expect("read markdown file");
        let dir = file.parent().expect("a file has a parent directory");
        for (line, target) in relative_links(&markdown) {
            if !dir.join(target).exists() {
                let shown = file.strip_prefix(root).unwrap_or(file);
                dead.push(format!("{}:{line}: {target}", shown.display()));
            }
        }
    }
    assert!(dead.is_empty(), "dead relative links:\n{}", dead.join("\n"));
}
