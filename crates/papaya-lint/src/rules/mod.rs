//! The invariant rules.  Each rule walks the [`Workspace`] token streams and
//! reports [`Finding`]s; suppression via allow directives happens in
//! [`crate::analyze`], not in the rules themselves.

use crate::report::Finding;
use crate::scan::SourceFile;
use crate::Workspace;

mod decorator;
mod determinism;
mod exhaustive;
mod panic_hygiene;

pub use decorator::DecoratorConformance;
pub use determinism::{Entropy, UnorderedCollections, WallClock};
pub use exhaustive::{ConfigValidate, EventDispatch, MetricsFingerprint};
pub use panic_hygiene::PanicHygiene;

/// One invariant rule.
pub trait Rule {
    /// Stable rule name, used in diagnostics and allow directives.
    fn name(&self) -> &'static str;
    /// One-line description for `--list`-style output and RULES.md parity.
    fn description(&self) -> &'static str;
    /// Appends findings for the whole workspace.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every shipped rule, in diagnostic order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(UnorderedCollections),
        Box::new(WallClock),
        Box::new(Entropy),
        Box::new(ConfigValidate),
        Box::new(EventDispatch),
        Box::new(MetricsFingerprint),
        Box::new(PanicHygiene),
        Box::new(DecoratorConformance),
    ]
}

/// Rule names a directive may reference (includes the meta rules so an
/// allow-of-an-allow is at least *recognized*, then reported as unusable).
pub fn known_rule_names() -> Vec<&'static str> {
    all_rules().iter().map(|r| r.name()).collect()
}

/// Whether `path` (workspace-relative, forward slashes) is library source of
/// the given crate — `crates/<krate>/src/…`.
pub(crate) fn in_crate_src(path: &str, krate: &str) -> bool {
    let needle = format!("crates/{krate}/src/");
    path.starts_with(&needle) || path.contains(&format!("/{needle}"))
}

/// Whether `path` ends with the given workspace-relative suffix (fixtures
/// mimic real paths, so rules locate files by suffix, not equality).
pub(crate) fn path_ends_with(path: &str, suffix: &str) -> bool {
    path == suffix || path.ends_with(&format!("/{suffix}"))
}

/// The workspace file whose path ends with `suffix`, if the (possibly
/// fixture) workspace has one.
pub(crate) fn find_file<'a>(ws: &'a Workspace, suffix: &str) -> Option<&'a SourceFile> {
    ws.files.iter().find(|f| path_ends_with(&f.path, suffix))
}
