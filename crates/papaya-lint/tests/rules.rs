//! Rule-level integration tests: one fires / does-not-fire fixture pair per
//! rule, plus seeded-violation tests that mutate the *real* workspace
//! sources (new config field, new event variant, new metrics counter) and
//! prove the lint catches the omission.

use papaya_lint::report::Finding;
use papaya_lint::{analyze, Workspace};
use std::fs;
use std::path::{Path, PathBuf};

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    )
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

fn fired(findings: &[Finding], rule: &str) -> bool {
    findings.iter().any(|f| f.rule == rule)
}

fn assert_clean(findings: &[Finding]) {
    assert!(
        findings.is_empty(),
        "expected no findings, got: {:?}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// unordered-collections
// ---------------------------------------------------------------------------

#[test]
fn unordered_collections_fires_in_fingerprint_crate() {
    let w = ws(&[(
        "crates/papaya-sim/src/x.rs",
        "use std::collections::HashMap;\npub struct S { m: HashMap<u32, u32> }\n",
    )]);
    let findings = analyze(&w);
    assert!(
        fired(&findings, "unordered-collections"),
        "{:?}",
        rules_of(&findings)
    );
    // One finding per token occurrence: the import and the field type.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "unordered-collections")
            .count(),
        2
    );
}

#[test]
fn unordered_collections_ignores_out_of_scope_crates_btrees_and_tests() {
    let w = ws(&[
        // papaya-data does not feed the fingerprint.
        (
            "crates/papaya-data/src/x.rs",
            "use std::collections::HashMap;\n",
        ),
        // BTreeMap is the sanctioned replacement.
        (
            "crates/papaya-sim/src/y.rs",
            "use std::collections::BTreeMap;\npub struct S { m: BTreeMap<u32, u32> }\n",
        ),
        // Test code may hash freely.
        (
            "crates/papaya-sim/src/z.rs",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n",
        ),
    ]);
    assert_clean(&analyze(&w));
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

#[test]
fn wall_clock_fires_on_instant_now_and_system_time() {
    let w = ws(&[(
        "crates/papaya-sim/src/x.rs",
        "use std::time::{Instant, SystemTime};\n\
         pub fn f() -> u64 { let _t = Instant::now(); 0 }\n\
         pub fn g() -> SystemTime { SystemTime::now() }\n",
    )]);
    let findings = analyze(&w);
    // `Instant::now()` in f, plus the `SystemTime` import/return/call tokens.
    assert!(fired(&findings, "wall-clock"), "{:?}", rules_of(&findings));
    assert!(findings.iter().any(|f| f.message.contains("Instant::now")));
}

#[test]
fn wall_clock_does_not_fire_on_virtual_time_or_tests() {
    let w = ws(&[(
        "crates/papaya-sim/src/x.rs",
        "pub fn f(now_s: f64) -> f64 { now_s + 1.0 }\n\
         #[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn t() { let _ = Instant::now(); }\n}\n",
    )]);
    assert_clean(&analyze(&w));
}

#[test]
fn wall_clock_is_suppressed_by_justified_allow() {
    let w = ws(&[(
        "crates/papaya-sim/src/x.rs",
        "// papaya-lint: allow(wall-clock) -- profiling only, never fingerprinted\n\
         pub fn f() { let _t = std::time::Instant::now(); }\n",
    )]);
    assert_clean(&analyze(&w));
}

// ---------------------------------------------------------------------------
// entropy
// ---------------------------------------------------------------------------

#[test]
fn entropy_fires_on_ambient_sources() {
    let w = ws(&[(
        "crates/papaya-core/src/x.rs",
        "pub fn f() { let mut r = thread_rng(); }\n\
         pub fn g() { let s = RandomState::new(); }\n",
    )]);
    let findings = analyze(&w);
    assert_eq!(
        findings.iter().filter(|f| f.rule == "entropy").count(),
        2,
        "{:?}",
        rules_of(&findings)
    );
}

#[test]
fn entropy_does_not_fire_on_seed_derived_streams() {
    let w = ws(&[(
        "crates/papaya-core/src/x.rs",
        "pub fn f(seed: u64) -> Rng { Rng::seed_from_u64(seed) }\n",
    )]);
    assert_clean(&analyze(&w));
}

// ---------------------------------------------------------------------------
// config-validate
// ---------------------------------------------------------------------------

const DP_FIXTURE_OK: &str = "pub struct DpConfig { pub clip: f64, pub noise: f64 }\n\
     impl DpConfig {\n\
         pub fn validate(&self) {\n\
             let DpConfig { clip, noise } = *self;\n\
             assert!(clip > 0.0, \"clip\");\n\
             assert!(noise >= 0.0, \"noise\");\n\
         }\n\
     }\n";

#[test]
fn config_validate_passes_on_exhaustive_destructure() {
    let w = ws(&[("crates/papaya-core/src/dp.rs", DP_FIXTURE_OK)]);
    assert_clean(&analyze(&w));
}

#[test]
fn config_validate_fires_on_missing_field() {
    let src = DP_FIXTURE_OK.replace("let DpConfig { clip, noise }", "let DpConfig { clip }");
    let w = ws(&[("crates/papaya-core/src/dp.rs", src.as_str())]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "config-validate" && f.message.contains("`noise`")),
        "{:?}",
        findings
    );
}

#[test]
fn config_validate_fires_on_rest_pattern() {
    let src = DP_FIXTURE_OK.replace("let DpConfig { clip, noise }", "let DpConfig { clip, .. }");
    let w = ws(&[("crates/papaya-core/src/dp.rs", src.as_str())]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "config-validate" && f.message.contains("rest")),
        "{:?}",
        findings
    );
}

#[test]
fn config_validate_fires_on_missing_destructure() {
    let src = "pub struct DpConfig { pub clip: f64 }\n\
         impl DpConfig {\n\
             pub fn validate(&self) {\n\
                 assert!(self.clip > 0.0, \"clip\");\n\
             }\n\
         }\n";
    let w = ws(&[("crates/papaya-core/src/dp.rs", src)]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "config-validate" && f.message.contains("destructure")),
        "{:?}",
        findings
    );
}

#[test]
fn config_validate_accepts_explicit_field_ignore() {
    let src = DP_FIXTURE_OK.replace(
        "let DpConfig { clip, noise }",
        "let DpConfig { clip, noise: _ }",
    );
    let src = src.replace("assert!(noise >= 0.0, \"noise\");\n", "");
    let w = ws(&[("crates/papaya-core/src/dp.rs", src.as_str())]);
    assert_clean(&analyze(&w));
}

// ---------------------------------------------------------------------------
// event-dispatch
// ---------------------------------------------------------------------------

const EVENTS_FIXTURE: &str = "pub enum EventKind { Alpha, Beta { id: u64 } }\n";

fn dispatch_fixture(arms: &str) -> String {
    // One run loop, as in the real scenario file.
    format!("pub fn run(event: Event) {{\n    match event.kind {{ {arms} }}\n}}\n")
}

#[test]
fn event_dispatch_passes_when_both_matches_name_every_variant() {
    // One dispatch site is required; a file with more has each checked.
    let arms = "EventKind::Alpha => {} EventKind::Beta { .. } => {}";
    for sites in [1, 2] {
        let w = ws(&[
            ("crates/papaya-sim/src/events.rs", EVENTS_FIXTURE),
            (
                "crates/papaya-sim/src/scenario.rs",
                &dispatch_fixture(arms).repeat(sites),
            ),
        ]);
        assert_clean(&analyze(&w));
    }
}

#[test]
fn event_dispatch_fires_on_unhandled_variant() {
    let arms = "EventKind::Alpha => {}";
    let w = ws(&[
        ("crates/papaya-sim/src/events.rs", EVENTS_FIXTURE),
        ("crates/papaya-sim/src/scenario.rs", &dispatch_fixture(arms)),
    ]);
    let findings = analyze(&w);
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "event-dispatch" && f.message.contains("EventKind::Beta"))
            .count(),
        1,
        "{:?}",
        findings
    );
}

#[test]
fn event_dispatch_fires_on_wildcard_arm() {
    let arms = "EventKind::Alpha => {} EventKind::Beta { .. } => {} _ => {}";
    let w = ws(&[
        ("crates/papaya-sim/src/events.rs", EVENTS_FIXTURE),
        ("crates/papaya-sim/src/scenario.rs", &dispatch_fixture(arms)),
    ]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "event-dispatch" && f.message.contains("wildcard")),
        "{:?}",
        findings
    );
}

#[test]
fn event_dispatch_fires_when_a_run_loop_is_missing() {
    let w = ws(&[
        ("crates/papaya-sim/src/events.rs", EVENTS_FIXTURE),
        (
            "crates/papaya-sim/src/scenario.rs",
            "pub fn run(event: Event) { let _ = event; }\n",
        ),
    ]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "event-dispatch" && f.message.contains("need at least 1")),
        "{:?}",
        findings
    );
}

// ---------------------------------------------------------------------------
// metrics-fingerprint
// ---------------------------------------------------------------------------

const METRICS_FIXTURE: &str =
    "pub struct MetricsCollector {\n    pub rounds: u64,\n    pub final_loss: f64,\n}\n";

fn fingerprint_fixture(body: &str) -> String {
    format!(
        "impl Report {{\n    pub fn fingerprint(&self) -> String {{\n        {body}\n    }}\n}}\n"
    )
}

#[test]
fn metrics_fingerprint_passes_when_all_fields_hashed() {
    let w = ws(&[
        ("crates/papaya-sim/src/metrics.rs", METRICS_FIXTURE),
        (
            "crates/papaya-sim/src/scenario.rs",
            &fingerprint_fixture("format!(\"{}/{}\", self.rounds, self.final_loss)"),
        ),
    ]);
    assert_clean(&analyze(&w));
}

#[test]
fn metrics_fingerprint_fires_on_unhashed_field() {
    let w = ws(&[
        ("crates/papaya-sim/src/metrics.rs", METRICS_FIXTURE),
        (
            "crates/papaya-sim/src/scenario.rs",
            &fingerprint_fixture("format!(\"{}\", self.rounds)"),
        ),
    ]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "metrics-fingerprint" && f.message.contains("`final_loss`")),
        "{:?}",
        findings
    );
}

#[test]
fn metrics_fingerprint_exemption_via_allow_on_declaration() {
    let metrics = "pub struct MetricsCollector {\n\
             pub rounds: u64,\n\
             // papaya-lint: allow(metrics-fingerprint) -- machine-dependent profiling, exempt by design\n\
             pub wall_ms: u64,\n\
         }\n";
    let w = ws(&[
        ("crates/papaya-sim/src/metrics.rs", metrics),
        (
            "crates/papaya-sim/src/scenario.rs",
            &fingerprint_fixture("format!(\"{}\", self.rounds)"),
        ),
    ]);
    assert_clean(&analyze(&w));
}

// ---------------------------------------------------------------------------
// panic-hygiene
// ---------------------------------------------------------------------------

#[test]
fn panic_hygiene_fires_on_unwrap_and_expect() {
    let w = ws(&[(
        "crates/papaya-core/src/x.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n\
         pub fn g(o: Option<u32>) -> u32 { o.expect(\"present\") }\n",
    )]);
    let findings = analyze(&w);
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "panic-hygiene")
            .count(),
        2,
        "{:?}",
        rules_of(&findings)
    );
}

#[test]
fn panic_hygiene_ignores_adapters_tests_and_justified_allows() {
    let w = ws(&[(
        "crates/papaya-core/src/x.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 0) }\n\
         pub fn g(o: Option<u32>) -> u32 {\n\
             // papaya-lint: allow(panic-hygiene) -- caller contract guarantees presence\n\
             o.expect(\"present by contract\")\n\
         }\n\
         #[cfg(test)]\nmod tests {\n    fn t(o: Option<u32>) -> u32 { o.unwrap() }\n}\n",
    )]);
    assert_clean(&analyze(&w));
}

// ---------------------------------------------------------------------------
// decorator-conformance
// ---------------------------------------------------------------------------

/// A cut-down `trait Aggregator`: two required methods and three hooks with
/// default bodies.  The rule reads the hook list from here, not from a
/// constant of its own.
const TRAIT_PATH: &str = "crates/papaya-core/src/aggregator.rs";
const TRAIT: &str = "pub trait Aggregator: Send {\n\
     fn ingest(&mut self);\n\
     fn update_weight(&self) -> f64;\n\
     fn next_deadline_s(&self) -> Option<f64> { None }\n\
     fn stack_telemetry(&self) -> StackTelemetry<'_> { StackTelemetry::default() }\n\
     fn closes_round_on_release(&self) -> bool { false }\n}\n";

const REQUIRED: &str = "fn ingest(&mut self) {}\n\
     fn update_weight(&self) -> f64 { self.inner.update_weight() }\n";
const HOOKS: &str = "fn next_deadline_s(&self) -> Option<f64> { self.inner.next_deadline_s() }\n\
     fn stack_telemetry(&self) -> StackTelemetry<'_> { self.inner.stack_telemetry() }\n\
     fn closes_round_on_release(&self) -> bool { self.inner.closes_round_on_release() }\n";

#[test]
fn decorator_conformance_passes_when_hooks_forwarded() {
    let src = format!("impl Aggregator for Wrapper {{\n{REQUIRED}{HOOKS}}}\n");
    let w = ws(&[
        (TRAIT_PATH, TRAIT),
        ("crates/papaya-core/src/x.rs", src.as_str()),
    ]);
    assert_clean(&analyze(&w));
}

#[test]
fn decorator_conformance_fires_on_missing_hook() {
    // Only the compiler-enforced methods are defined: every defaulted hook
    // is named, and no required method is.
    let src = format!("impl Aggregator for Wrapper {{\n{REQUIRED}}}\n");
    let w = ws(&[
        (TRAIT_PATH, TRAIT),
        ("crates/papaya-core/src/x.rs", src.as_str()),
    ]);
    let findings = analyze(&w);
    assert!(
        findings.iter().any(|f| f.rule == "decorator-conformance"
            && f.message.contains("`next_deadline_s`")
            && f.message.contains("`stack_telemetry`")
            && f.message.contains("`closes_round_on_release`")
            && !f.message.contains("`update_weight`")),
        "{:?}",
        findings
    );
}

#[test]
fn decorator_conformance_names_exactly_the_missing_hook() {
    // A decorator written before a hook existed forwards the older ones
    // but not the new one — the rule must name exactly the new hook, which
    // it can only know from the trait's source.
    let src = "impl Aggregator for Wrapper {\n    fn ingest(&mut self) {}\n\
         fn update_weight(&self) -> f64 { self.inner.update_weight() }\n\
         fn next_deadline_s(&self) -> Option<f64> { self.inner.next_deadline_s() }\n\
         fn stack_telemetry(&self) -> StackTelemetry<'_> { self.inner.stack_telemetry() }\n}\n";
    let w = ws(&[(TRAIT_PATH, TRAIT), ("crates/papaya-core/src/x.rs", src)]);
    let findings = analyze(&w);
    assert!(
        findings.iter().any(|f| f.rule == "decorator-conformance"
            && f.message.contains("`closes_round_on_release`")
            && !f.message.contains("`stack_telemetry`")),
        "{:?}",
        findings
    );
}

#[test]
fn decorator_conformance_base_strategy_opts_out_with_allow() {
    let w = ws(&[
        (TRAIT_PATH, TRAIT),
        (
            "crates/papaya-core/src/x.rs",
            "// papaya-lint: allow(decorator-conformance) -- base strategy, trait defaults are correct\n\
             impl Aggregator for Base {\n    fn ingest(&mut self) {}\n}\n",
        ),
    ]);
    assert_clean(&analyze(&w));
}

#[test]
fn decorator_conformance_handles_generic_impls() {
    let complete =
        format!("impl<A: Aggregator> Aggregator for Wrapper<A> {{\n{REQUIRED}{HOOKS}}}\n");
    let w = ws(&[
        (TRAIT_PATH, TRAIT),
        ("crates/papaya-core/src/x.rs", complete.as_str()),
    ]);
    assert_clean(&analyze(&w));
    let incomplete = format!("impl<A: Aggregator> Aggregator for Wrapper<A> {{\n{REQUIRED}}}\n");
    let w = ws(&[
        (TRAIT_PATH, TRAIT),
        ("crates/papaya-core/src/x.rs", incomplete.as_str()),
    ]);
    assert!(fired(&analyze(&w), "decorator-conformance"));
}

// ---------------------------------------------------------------------------
// Seeded violations against the real workspace sources
// ---------------------------------------------------------------------------

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn real(rel: &str) -> (String, String) {
    let text =
        fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
    (rel.to_string(), text)
}

/// The real workspace must lint clean: the CI gate runs `--deny-all`, and
/// this test keeps `cargo test` equivalent to it.
#[test]
fn real_workspace_is_clean() {
    let w = Workspace::from_disk(&repo_root()).expect("workspace root");
    assert!(
        w.files.len() > 30,
        "walk found only {} files",
        w.files.len()
    );
    assert_clean(&analyze(&w));
}

/// Adding a `TaskConfig` field without touching the validator must fail the
/// lint: the destructure in `validate_task_config` no longer covers it.
#[test]
fn seeded_task_config_field_fails_lint() {
    let (cpath, config) = real("crates/papaya-core/src/config.rs");
    let seeded = config.replace(
        "pub struct TaskConfig {",
        "pub struct TaskConfig {\n    pub seeded_new_knob: u64,",
    );
    assert_ne!(
        seeded, config,
        "TaskConfig declaration moved; update the test"
    );
    let scenario = real("crates/papaya-sim/src/scenario.rs");
    let w = Workspace::from_sources(vec![(cpath, seeded), scenario]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "config-validate" && f.message.contains("seeded_new_knob")),
        "lint did not catch the seeded TaskConfig field: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "config-validate")
            .collect::<Vec<_>>()
    );
}

/// Adding an `EventKind` variant the run loop does not name must fail the
/// lint, and so must hiding it behind a `_` arm.
#[test]
fn seeded_event_variant_fails_lint() {
    let (epath, events) = real("crates/papaya-sim/src/events.rs");
    let seeded = events.replace(
        "pub enum EventKind {",
        "pub enum EventKind {\n    SeededNewEvent,",
    );
    assert_ne!(
        seeded, events,
        "EventKind declaration moved; update the test"
    );
    let (spath, scenario) = real("crates/papaya-sim/src/scenario.rs");
    let w = Workspace::from_sources(vec![
        (epath.clone(), seeded.clone()),
        (spath.clone(), scenario.clone()),
    ]);
    let findings = analyze(&w);
    assert_eq!(
        findings
            .iter()
            .filter(
                |f| f.rule == "event-dispatch" && f.message.contains("EventKind::SeededNewEvent")
            )
            .count(),
        1,
        "the run loop must flag the seeded variant: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "event-dispatch")
            .collect::<Vec<_>>()
    );

    // Swallowing the new variant with a wildcard arm is caught too.
    let wildcarded = scenario.replace(
        "EventKind::ReconcileTick => self.reconcile_tick(),",
        "EventKind::ReconcileTick => self.reconcile_tick(),\n                _ => {}",
    );
    assert_ne!(
        wildcarded, scenario,
        "the run loop's dispatch moved; update the test"
    );
    let w = Workspace::from_sources(vec![(epath, seeded), (spath, wildcarded)]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "event-dispatch" && f.message.contains("wildcard")),
        "lint did not catch the wildcard arm: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "event-dispatch")
            .collect::<Vec<_>>()
    );
}

/// Adding a `MetricsCollector` field that `Report::fingerprint()` does not
/// hash must fail the lint.
#[test]
fn seeded_metrics_field_fails_lint() {
    let (mpath, metrics) = real("crates/papaya-sim/src/metrics.rs");
    let seeded = metrics.replace(
        "pub struct MetricsCollector {",
        "pub struct MetricsCollector {\n    pub seeded_counter: u64,",
    );
    assert_ne!(
        seeded, metrics,
        "MetricsCollector declaration moved; update the test"
    );
    let scenario = real("crates/papaya-sim/src/scenario.rs");
    let w = Workspace::from_sources(vec![(mpath, seeded), scenario]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "metrics-fingerprint" && f.message.contains("seeded_counter")),
        "lint did not catch the seeded metrics field: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "metrics-fingerprint")
            .collect::<Vec<_>>()
    );
}

/// Adding a `RobustConfig` knob without touching `RobustConfig::validate`
/// must fail the lint, exactly like the other config structs.
#[test]
fn seeded_robust_config_field_fails_lint() {
    let (rpath, robust) = real("crates/papaya-core/src/robust.rs");
    let seeded = robust.replace(
        "pub struct RobustConfig {",
        "pub struct RobustConfig {\n    pub seeded_new_knob: u64,",
    );
    assert_ne!(
        seeded, robust,
        "RobustConfig declaration moved; update the test"
    );
    let w = Workspace::from_sources(vec![(rpath, seeded)]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "config-validate" && f.message.contains("seeded_new_knob")),
        "lint did not catch the seeded RobustConfig field: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "config-validate")
            .collect::<Vec<_>>()
    );
}

/// Adding a `RobustTelemetry` field that `Report::fingerprint()` does not
/// hash must fail the lint — robustness counters are part of the
/// determinism pin like every other telemetry stream.
#[test]
fn seeded_robust_telemetry_field_fails_lint() {
    let (rpath, robust) = real("crates/papaya-core/src/robust.rs");
    let seeded = robust.replace(
        "pub struct RobustTelemetry {",
        "pub struct RobustTelemetry {\n    pub seeded_counter: u64,",
    );
    assert_ne!(
        seeded, robust,
        "RobustTelemetry declaration moved; update the test"
    );
    let scenario = real("crates/papaya-sim/src/scenario.rs");
    let w = Workspace::from_sources(vec![(rpath, seeded), scenario]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "metrics-fingerprint" && f.message.contains("seeded_counter")),
        "lint did not catch the seeded RobustTelemetry field: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "metrics-fingerprint")
            .collect::<Vec<_>>()
    );
}

/// A decorator that stops forwarding `next_deadline_s` silently turns
/// timed-hybrid deadline releases off beneath it.  No hand-kept list names
/// that hook: the rule must find it in the real trait's source.
#[test]
fn seeded_missing_next_deadline_forward_fails_lint() {
    let (dpath, dp) = real("crates/papaya-core/src/dp.rs");
    let forward = "    fn next_deadline_s(&self) -> Option<f64> {\n        \
                   self.inner.next_deadline_s()\n    }\n";
    let seeded = dp.replace(forward, "");
    assert_ne!(seeded, dp, "DpAggregator's forward moved; update the test");
    let w = Workspace::from_sources(vec![
        real("crates/papaya-core/src/aggregator.rs"),
        (dpath, seeded),
    ]);
    let findings = analyze(&w);
    assert!(
        findings.iter().any(|f| f.rule == "decorator-conformance"
            && f.path.ends_with("dp.rs")
            && f.message.contains("`next_deadline_s`")
            && !f.message.contains("`stack_telemetry`")),
        "lint did not catch the dropped forward: {:?}",
        findings
    );
}

/// Removing a justified allow must resurface the original finding —
/// exemptions cannot silently rot into unconditional suppressions.
#[test]
fn seeded_allow_removal_resurfaces_finding() {
    let (spath, secure) = real("crates/papaya-core/src/secure.rs");
    let marker = "// papaya-lint: allow(wall-clock)";
    let at = secure
        .find(marker)
        .expect("secure.rs has a wall-clock allow");
    let line_end = secure[at..]
        .find('\n')
        .map(|n| at + n + 1)
        .unwrap_or(secure.len());
    let seeded = format!("{}{}", &secure[..at], &secure[line_end..]);
    let w = Workspace::from_sources(vec![(spath, seeded)]);
    let findings = analyze(&w);
    assert!(
        fired(&findings, "wall-clock"),
        "removing the allow must resurface the wall-clock finding: {:?}",
        rules_of(&findings)
    );
}

/// Adding a `ControlEvent` variant without teaching the control-plane apply
/// dispatcher about it must fail the lint — the log-then-apply choke point
/// is only a replay guarantee while it stays exhaustive.
#[test]
fn seeded_control_event_variant_fails_lint() {
    let (epath, events) = real("crates/papaya-sim/src/control_plane/event_log.rs");
    let seeded = events.replace(
        "pub enum ControlEvent {",
        "pub enum ControlEvent {\n    SeededNewEvent,",
    );
    assert_ne!(
        seeded, events,
        "ControlEvent declaration moved; update the test"
    );
    let service = real("crates/papaya-sim/src/control_plane/service.rs");
    let w = Workspace::from_sources(vec![(epath, seeded), service]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "event-dispatch"
                && f.message.contains("ControlEvent::SeededNewEvent")),
        "the apply dispatcher must flag the seeded ControlEvent variant: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "event-dispatch")
            .collect::<Vec<_>>()
    );
}

/// Adding a `ControlPlaneStats` counter that `Report::fingerprint()` does
/// not hash (and that carries no justified exemption) must fail the lint —
/// control-plane counters are part of the determinism pin too.
#[test]
fn seeded_control_plane_stats_field_fails_lint() {
    let (mpath, metrics) = real("crates/papaya-sim/src/metrics.rs");
    let seeded = metrics.replace(
        "pub struct ControlPlaneStats {",
        "pub struct ControlPlaneStats {\n    pub seeded_cp_counter: u64,",
    );
    assert_ne!(
        seeded, metrics,
        "ControlPlaneStats declaration moved; update the test"
    );
    let scenario = real("crates/papaya-sim/src/scenario.rs");
    let w = Workspace::from_sources(vec![(mpath, seeded), scenario]);
    let findings = analyze(&w);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "metrics-fingerprint" && f.message.contains("seeded_cp_counter")),
        "lint did not catch the seeded ControlPlaneStats field: {:?}",
        findings
            .iter()
            .filter(|f| f.rule == "metrics-fingerprint")
            .collect::<Vec<_>>()
    );
}
