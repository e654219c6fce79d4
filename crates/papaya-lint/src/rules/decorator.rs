//! Decorator conformance: the aggregation stack composes as
//! `robust(dp(secure(strategy)))`, so any `Aggregator` impl that wraps
//! another must forward every hook the trait defaults — a decorator that
//! inherits a default instead silently answers for every layer beneath it
//! (no staleness bound, no deadline, no telemetry, no mask precompute).

use super::{find_file, Rule};
use crate::report::Finding;
use crate::scan::{find_seq, matching, trait_default_methods};
use crate::Workspace;

/// Where `trait Aggregator` is declared.  The hooks a decorator must
/// forward are read from it — every method with a default body — so a hook
/// added to the trait is checked from the commit that adds it.
const TRAIT_FILE: &str = "papaya-core/src/aggregator.rs";

/// Every `impl Aggregator for …` block defines all defaulted hooks or
/// carries an explicit opt-out allow.
pub struct DecoratorConformance;

impl Rule for DecoratorConformance {
    fn name(&self) -> &'static str {
        "decorator-conformance"
    }

    fn description(&self) -> &'static str {
        "every Aggregator impl defines every method `trait Aggregator` gives a default body, or opts out with a justified allow"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(hooks) =
            find_file(ws, TRAIT_FILE).and_then(|file| trait_default_methods(file, "Aggregator"))
        else {
            return; // trait not in this (fixture) workspace
        };
        for file in &ws.files {
            let toks = &file.tokens;
            let mut i = 0usize;
            while let Some(at) = find_seq(toks, i, &["impl"]) {
                i = at + 1;
                if file.is_test_line(toks[at].line) {
                    continue;
                }
                // Skip `impl<…>` generics, then require `Aggregator for`.
                let mut j = at + 1;
                if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
                    let mut depth = 0usize;
                    while let Some(t) = toks.get(j) {
                        match t.text.as_str() {
                            "<" => depth += 1,
                            ">" => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                if toks.get(j).map(|t| t.text.as_str()) != Some("Aggregator")
                    || toks.get(j + 1).map(|t| t.text.as_str()) != Some("for")
                {
                    continue;
                }
                // Find the impl body.
                let mut k = j + 2;
                while k < toks.len() && toks[k].text != "{" {
                    k += 1;
                }
                if k >= toks.len() {
                    continue;
                }
                let close = match matching(toks, k, "{", "}") {
                    Some(c) => c,
                    None => continue,
                };
                let body = &toks[k + 1..close];
                let missing: Vec<&str> = hooks
                    .iter()
                    .map(String::as_str)
                    .filter(|hook| find_seq(body, 0, &["fn", hook]).is_none())
                    .collect();
                if !missing.is_empty() {
                    out.push(Finding::new(
                        &file.path,
                        toks[at].line,
                        self.name(),
                        format!(
                            "`Aggregator` impl does not define {}; decorators must \
                             forward these hooks to their inner layer (base strategies \
                             opt out with a justified allow)",
                            missing
                                .iter()
                                .map(|m| format!("`{m}`"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    ));
                }
                i = close;
            }
        }
    }
}
