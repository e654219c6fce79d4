//! The `perf_suite` harness: canonical scenarios, wall-clock measurement,
//! `BENCH_*.json` serialization, and the CI regression gate.
//!
//! Seven canonical scenarios track the simulator's performance trajectory
//! (the MLSys systems-benchmarking practice of measuring the *system*, not
//! just the model):
//!
//! * `fedbuff-20k` — single-task FedBuff over a 20 000-device population,
//!   the paper's reference asynchronous workload;
//! * `fedbuff-20k-secagg` — the same workload through AsyncSecAgg, which
//!   tracks the secure pipeline's overhead (per-update key exchange and
//!   masking, per-buffer TSA key release);
//! * `fedbuff-20k-dp` — the same workload with user-level differential
//!   privacy (per-update L2 clipping, seeded Gaussian release noise, RDP
//!   accounting), which tracks the DP layer's overhead;
//! * `timed-hybrid` — the deadline-release strategy, which stresses the
//!   exact-deadline event path;
//! * `fleet-crash` — a 6-task multi-tenant fleet with an injected
//!   Aggregator crash, which stresses the control plane;
//! * `fedbuff-1m` — FedBuff over a **million-device** population (never
//!   shrunk by `--quick`), which gates the O(bytes)-per-idle-client memory
//!   path: sharded sampling pool, packed population, procedural trainer,
//!   bounded traces (`docs/SCALING.md`);
//! * `fleet-scale` — a 4-task fleet over 200 000 devices (50 000 quick),
//!   the control plane at fleet population scale, also trace-bounded.
//!
//! Each scenario runs twice — sequentially and on an N-thread training
//! pool — and the harness records wall-clock seconds, events/sec, peak
//! resident memory (see [`crate::rss`]), the speedup, and whether the two
//! reports were bit-identical (they must be; see [`papaya_sim::executor`]).
//! Results are written to `BENCH_<label>.json`; [`compare`] implements the
//! CI gate that fails when wall-clock, throughput, or peak RSS regresses
//! beyond a factor against a checked-in baseline.
//!
//! `--quick` shrinks every scenario for the CI smoke job; quick and full
//! results are never comparable, and [`compare`] refuses to try.

use crate::experiments::common::population;
use crate::rss::PeakRssSampler;
use papaya_core::config::SecAggMode;
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig, SurrogateObjective};
use papaya_core::{DpConfig, TaskConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, Report, RunLimits, Scenario};
use papaya_sim::Parallelism;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// A surrogate objective heavy enough that client training dominates the
/// event loop, as the real LSTM does in production.  (The figure-experiment
/// config is tuned for convergence dynamics instead and trains in ~1 µs,
/// which would benchmark the event queue rather than the training path.)
pub fn perf_surrogate_config() -> SurrogateConfig {
    SurrogateConfig {
        dim: 128,
        heterogeneity: 0.5,
        volume_bias: 2.0,
        local_learning_rate: 0.05,
        batch_size: 16,
        max_local_steps: 32,
        gradient_noise: 1.0,
        init_distance: 8.0,
    }
}

/// Builds one canonical scenario by name.
///
/// # Panics
///
/// Panics on an unknown scenario name; see [`SCENARIO_NAMES`].
pub fn build_scenario(name: &str, quick: bool, parallelism: Parallelism, seed: u64) -> Scenario {
    let scale = |full: usize, q: usize| if quick { q } else { full };
    match name {
        "fedbuff-20k" => {
            let pop = population(scale(20_000, 2_000), seed);
            let trainer = Arc::new(SurrogateObjective::new(&pop, perf_surrogate_config(), seed));
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-20k", scale(1024, 256), scale(128, 32)),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(40_000, 4_000) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fedbuff-20k-secagg" => {
            // The fedbuff-20k workload with AsyncSecAgg in the loop: every
            // accepted update runs the client protocol (session-cached key
            // exchange, ratcheted masking) and every release is one batched
            // TSA key release, so the gate tracks the secure pipeline's
            // overhead over time — both as absolute wall-clock and as the
            // [`ScenarioPerf::secagg_overhead_factor`] ratio against the
            // clear scenario, gated at [`MAX_SECAGG_OVERHEAD_FACTOR`].  The
            // update budget predates the session cache (when per-update DH
            // dominated the wall clock) and is kept for baseline continuity.
            let pop = population(scale(20_000, 2_000), seed);
            let trainer = Arc::new(SurrogateObjective::new(&pop, perf_surrogate_config(), seed));
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-20k-secagg", scale(1024, 256), scale(128, 32))
                        .with_secagg(SecAggMode::AsyncSecAgg),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(10_000, 1_200) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fedbuff-20k-dp" => {
            // The fedbuff-20k workload with the DP layer in the loop: every
            // accepted update is L2-clipped (a norm + scale over the model
            // dimension) and every release draws model-dimension Gaussian
            // noise and one accountant query, so the gate tracks the DP
            // pipeline's overhead over time.  Cheap enough per update that
            // the clear scenario's budget is kept.  (The concurrency-over-
            // population sampling rate models amplification for the typical
            // user; FedBuff selection is speed-biased, so it is not a
            // worst-case certificate — see papaya_core::dp.)
            let pop = population(scale(20_000, 2_000), seed);
            let trainer = Arc::new(SurrogateObjective::new(&pop, perf_surrogate_config(), seed));
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-20k-dp", scale(1024, 256), scale(128, 32))
                        .with_dp(DpConfig::new(2.0, 1.0).with_sampling_rate(
                            scale(1024, 256) as f64 / scale(20_000, 2_000) as f64,
                        )),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(40_000, 4_000) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "timed-hybrid" => {
            let pop = population(scale(6_000, 1_500), seed);
            let trainer = Arc::new(SurrogateObjective::new(&pop, perf_surrogate_config(), seed));
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::timed_hybrid_task(
                        "timed-hybrid",
                        scale(512, 128),
                        scale(128, 32),
                        if quick { 120.0 } else { 300.0 },
                    ),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(20_000, 2_500) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fleet-crash" => {
            let pop = population(scale(10_000, 2_500), seed);
            let trainer = Arc::new(SurrogateObjective::new(&pop, perf_surrogate_config(), seed));
            let unit = scale(4, 1);
            let tasks = vec![
                TaskConfig::async_task("keyboard-lm", 48 * unit, 12 * unit),
                TaskConfig::async_task("speech-kws", 24 * unit, 8 * unit)
                    .with_min_capability_tier(1),
                TaskConfig::sync_task("photo-ranker", 30 * unit, 0.3),
                TaskConfig::async_task("smart-reply", 16 * unit, 4 * unit)
                    .with_min_capability_tier(2),
                TaskConfig::timed_hybrid_task("health-study", 16 * unit, 32 * unit, 600.0),
                TaskConfig::sync_task("face-cluster", 24 * unit, 0.0),
            ];
            let mut builder = Scenario::builder()
                .population(pop)
                .fleet(FleetSpec::new(3, 4))
                .crash_at(if quick { 600.0 } else { 1800.0 }, 0)
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(if quick { 0.5 } else { 1.5 })
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(900.0)
                        .with_sample_size(100),
                )
                .seed(seed);
            for task in tasks {
                // Shares the trainer so tasks compete on timing, not setup cost.
                builder = builder.task_with_trainer(task, trainer.clone());
            }
            builder.build()
        }
        "fedbuff-1m" => {
            // A million devices even under --quick: this scenario exists to
            // gate the memory story, so the population never shrinks — only
            // the update budget and concurrency do.  The pieces that make a
            // million idle clients affordable are all on this path: the
            // packed population (12 B/device), the sharded sampling pool
            // (8 B/device), the procedural surrogate (4 B/device instead of
            // dim floats), and a bounded trace budget so metrics stay
            // O(budget) rather than O(events).
            let pop = population(1_000_000, seed);
            let trainer = Arc::new(ProceduralSurrogate::new(
                &pop,
                perf_surrogate_config(),
                seed,
            ));
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-1m", scale(4096, 1024), scale(256, 64)),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(40_000, 3_000) as u64)
                        .with_parallelism(parallelism)
                        .with_trace_budget(4096),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(3600.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fleet-scale" => {
            // The multi-tenant control plane at fleet population scale: four
            // tasks sharing 200k devices (50k quick) through three
            // aggregators and four selectors, no injected crash — this
            // measures steady-state routing/selection cost where fleet-crash
            // measures failover.  Trace-bounded like fedbuff-1m.
            let pop = population(scale(200_000, 50_000), seed);
            let trainer = Arc::new(ProceduralSurrogate::new(
                &pop,
                perf_surrogate_config(),
                seed,
            ));
            let unit = scale(4, 1);
            let tasks = vec![
                TaskConfig::async_task("assistant-lm", 256 * unit, 64 * unit),
                TaskConfig::async_task("photo-tagger", 128 * unit, 32 * unit)
                    .with_min_capability_tier(1),
                TaskConfig::timed_hybrid_task("telemetry", 64 * unit, 16 * unit, 600.0),
                TaskConfig::sync_task("ranker", 96 * unit, 0.2),
            ];
            let mut builder = Scenario::builder()
                .population(pop)
                .fleet(FleetSpec::new(3, 4))
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(if quick { 0.5 } else { 2.0 })
                        .with_parallelism(parallelism)
                        .with_trace_budget(4096),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(900.0)
                        .with_sample_size(100),
                )
                .seed(seed);
            for task in tasks {
                builder = builder.task_with_trainer(task, trainer.clone());
            }
            builder.build()
        }
        other => panic!("unknown perf scenario {other:?}; known: {SCENARIO_NAMES:?}"),
    }
}

/// The canonical scenario set, in run order.
pub const SCENARIO_NAMES: [&str; 7] = [
    "fedbuff-20k",
    "fedbuff-20k-secagg",
    "fedbuff-20k-dp",
    "timed-hybrid",
    "fleet-crash",
    "fedbuff-1m",
    "fleet-scale",
];

/// The `control_plane_soak` scenario: three tasks on a 2-Aggregator fleet
/// through a partial failure (t=1200 s), total loss (t=1800 s, orphaning
/// every task) and a recovery (t=2700 s) whose heartbeat triggers the
/// reconcile pass, with an optional control-plane checkpoint restore in
/// between.  Shared by the soak binary and the golden-fingerprint test.
pub fn soak_scenario(
    quick: bool,
    seed: u64,
    restore_at: Option<f64>,
    parallelism: Parallelism,
) -> Scenario {
    let (population_size, hours) = if quick { (1_500, 1.5) } else { (10_000, 4.0) };
    let mut builder = Scenario::builder()
        .population(population(population_size, seed))
        .task(TaskConfig::async_task("keyboard-lm", 48, 12))
        .task(TaskConfig::async_task("smart-reply", 24, 8))
        .task(TaskConfig::sync_task("photo-ranker", 30, 0.3))
        .fleet(FleetSpec::new(2, 3))
        .limits(RunLimits::default().with_max_virtual_time_hours(hours))
        .eval(EvalPolicy::default().with_interval_s(300.0))
        .parallelism(parallelism)
        .crash_at(1200.0, 0)
        .crash_at(1800.0, 1)
        .recover_at(2700.0, 0)
        .seed(seed);
    if let Some(time_s) = restore_at {
        builder = builder.restore_control_plane_at(time_s);
    }
    builder.build()
}

/// Measured performance of one scenario at one thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioPerf {
    /// Canonical scenario name.
    pub name: String,
    /// Wall-clock seconds of the sequential (inline-training) run.
    pub wall_s_sequential: f64,
    /// Wall-clock seconds of the run with the worker pool.
    pub wall_s_parallel: f64,
    /// Discrete events processed (identical in both runs).
    pub events: u64,
    /// Client updates received (identical in both runs).
    pub client_updates: u64,
    /// `events / wall_s_sequential`.
    pub events_per_sec_sequential: f64,
    /// `events / wall_s_parallel`.
    pub events_per_sec_parallel: f64,
    /// `wall_s_sequential / wall_s_parallel`.
    pub speedup: f64,
    /// Whether the two reports were bit-identical (must be true).
    pub identical: bool,
    /// The secure pipeline's overhead tax: the clear twin's sequential
    /// events/sec divided by this scenario's (per-event rates, so the two
    /// scenarios' different update budgets cancel out — this is the paper's
    /// "170x" axis).  Only set on `fedbuff-20k-secagg` (vs `fedbuff-20k`);
    /// gated at [`MAX_SECAGG_OVERHEAD_FACTOR`] by [`compare`].
    pub secagg_overhead_factor: Option<f64>,
    /// On-loop secure-pipeline time of the sequential run, summed across
    /// tasks: DH handshakes, mask expansion, fixed-point encode, and
    /// release unmasking.  All zero for clear scenarios; machine-dependent
    /// diagnostics only — never compared against a baseline.
    pub secure_handshake_s: f64,
    /// See [`ScenarioPerf::secure_handshake_s`].
    pub secure_mask_s: f64,
    /// See [`ScenarioPerf::secure_handshake_s`].
    pub secure_encode_s: f64,
    /// See [`ScenarioPerf::secure_handshake_s`].
    pub secure_unmask_s: f64,
    /// Peak resident set (bytes) observed across both runs of this
    /// scenario, via [`crate::rss::PeakRssSampler`].  `None` when the OS
    /// exposes no measurement (no `/proc`); the RSS gate in [`compare`]
    /// only fires when both suites carry one.
    pub peak_rss_bytes: Option<u64>,
}

/// One `BENCH_*.json` payload: a labelled suite run.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteResult {
    /// Label naming the file (`BENCH_<label>.json`).
    pub label: String,
    /// Worker threads of the parallel runs.
    pub threads: usize,
    /// Whether the reduced (CI smoke) scenario sizes were used.
    pub quick: bool,
    /// RNG seed of every scenario.
    pub seed: u64,
    /// Per-scenario measurements.
    pub scenarios: Vec<ScenarioPerf>,
}

fn timed_run(scenario: &Scenario) -> (f64, Report) {
    let start = Instant::now();
    let report = scenario.run();
    (start.elapsed().as_secs_f64(), report)
}

/// Runs one canonical scenario sequentially and at `threads` workers.
pub fn measure_scenario(name: &str, quick: bool, threads: usize, seed: u64) -> ScenarioPerf {
    // One RSS window spans both runs (build + run, sequential and
    // parallel): the scenario's memory gate covers its worst case.
    let rss = PeakRssSampler::start();
    let (wall_seq, report_seq) = timed_run(&build_scenario(
        name,
        quick,
        Parallelism::sequential(),
        seed,
    ));
    let (wall_par, report_par) =
        timed_run(&build_scenario(name, quick, Parallelism(threads), seed));
    let peak_rss_bytes = rss.stop();
    let events = report_seq.events_processed;
    let mut timings = papaya_core::secure::SecureTimings::default();
    for task in &report_seq.tasks {
        timings.merge(&task.metrics.secure_timings);
    }
    ScenarioPerf {
        name: name.to_string(),
        wall_s_sequential: wall_seq,
        wall_s_parallel: wall_par,
        events,
        client_updates: report_seq.fleet.total_comm_trips,
        events_per_sec_sequential: events as f64 / wall_seq.max(1e-9),
        events_per_sec_parallel: events as f64 / wall_par.max(1e-9),
        speedup: wall_seq / wall_par.max(1e-9),
        identical: report_seq.fingerprint() == report_par.fingerprint(),
        secagg_overhead_factor: None,
        secure_handshake_s: timings.handshake_s,
        secure_mask_s: timings.mask_s,
        secure_encode_s: timings.encode_s,
        secure_unmask_s: timings.unmask_s,
        peak_rss_bytes,
    }
}

/// The secure scenario and its clear twin for the overhead-factor ratio.
const SECAGG_OVERHEAD_PAIR: (&str, &str) = ("fedbuff-20k-secagg", "fedbuff-20k");

/// Runs the whole canonical suite and fills in the secagg overhead factor
/// (secure sequential wall over clear sequential wall).
pub fn run_suite(label: &str, quick: bool, threads: usize, seed: u64) -> SuiteResult {
    run_suite_scenarios(label, quick, threads, seed, &SCENARIO_NAMES)
}

/// [`run_suite`] restricted to a subset of [`SCENARIO_NAMES`] (the
/// `perf_suite --scenario` flag).  The secagg overhead factor is only
/// filled in when both halves of the pair ran.
pub fn run_suite_scenarios(
    label: &str,
    quick: bool,
    threads: usize,
    seed: u64,
    names: &[&str],
) -> SuiteResult {
    let mut scenarios: Vec<ScenarioPerf> = names
        .iter()
        .map(|name| measure_scenario(name, quick, threads, seed))
        .collect();
    let (secure_name, clear_name) = SECAGG_OVERHEAD_PAIR;
    // Per-event rates, so the two scenarios' different update budgets
    // cancel out: the factor is "how much slower is one secure event".
    let clear_rate = scenarios
        .iter()
        .find(|s| s.name == clear_name)
        .map(|s| s.events_per_sec_sequential);
    if let (Some(clear_rate), Some(secure)) = (
        clear_rate,
        scenarios.iter_mut().find(|s| s.name == secure_name),
    ) {
        secure.secagg_overhead_factor =
            Some(clear_rate / secure.events_per_sec_sequential.max(1e-9));
    }
    SuiteResult {
        label: label.to_string(),
        threads,
        quick,
        seed,
        scenarios,
    }
}

// ---------------------------------------------------------------------------
// JSON (hand-rolled: the build environment has no serde)
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl SuiteResult {
    /// Serializes the suite to the `BENCH_*.json` format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"label\": \"{}\",", json_escape(&self.label));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scenarios\": [");
        for (i, s) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 < self.scenarios.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&s.name));
            let _ = writeln!(
                out,
                "      \"wall_s_sequential\": {:.6},",
                s.wall_s_sequential
            );
            let _ = writeln!(out, "      \"wall_s_parallel\": {:.6},", s.wall_s_parallel);
            let _ = writeln!(out, "      \"events\": {},", s.events);
            let _ = writeln!(out, "      \"client_updates\": {},", s.client_updates);
            let _ = writeln!(
                out,
                "      \"events_per_sec_sequential\": {:.3},",
                s.events_per_sec_sequential
            );
            let _ = writeln!(
                out,
                "      \"events_per_sec_parallel\": {:.3},",
                s.events_per_sec_parallel
            );
            let _ = writeln!(out, "      \"speedup\": {:.4},", s.speedup);
            let _ = writeln!(out, "      \"identical\": {},", s.identical);
            match s.secagg_overhead_factor {
                Some(factor) => {
                    let _ = writeln!(out, "      \"secagg_overhead_factor\": {factor:.4},");
                }
                None => {
                    let _ = writeln!(out, "      \"secagg_overhead_factor\": null,");
                }
            }
            let _ = writeln!(
                out,
                "      \"secure_handshake_s\": {:.6},",
                s.secure_handshake_s
            );
            let _ = writeln!(out, "      \"secure_mask_s\": {:.6},", s.secure_mask_s);
            let _ = writeln!(out, "      \"secure_encode_s\": {:.6},", s.secure_encode_s);
            let _ = writeln!(out, "      \"secure_unmask_s\": {:.6},", s.secure_unmask_s);
            match s.peak_rss_bytes {
                Some(bytes) => {
                    let _ = writeln!(out, "      \"peak_rss_bytes\": {bytes}");
                }
                None => {
                    let _ = writeln!(out, "      \"peak_rss_bytes\": null");
                }
            }
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a suite from its `BENCH_*.json` form.
    pub fn from_json(text: &str) -> Result<SuiteResult, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object("top level")?;
        let scenarios = Json::get(obj, "scenarios")?
            .as_array("scenarios")?
            .iter()
            .map(|entry| {
                let s = entry.as_object("scenario entry")?;
                // Fields introduced after the first baseline format are
                // tolerant of being absent (or null, for the Option).
                let opt_f64 = |key: &str| -> Result<Option<f64>, String> {
                    match Json::get(s, key) {
                        Err(_) | Ok(Json::Null) => Ok(None),
                        Ok(v) => Ok(Some(v.as_f64(key)?)),
                    }
                };
                let f64_or_zero =
                    |key: &str| -> Result<f64, String> { Ok(opt_f64(key)?.unwrap_or(0.0)) };
                Ok(ScenarioPerf {
                    name: Json::get(s, "name")?.as_str("name")?.to_string(),
                    wall_s_sequential: Json::get(s, "wall_s_sequential")?
                        .as_f64("wall_s_sequential")?,
                    wall_s_parallel: Json::get(s, "wall_s_parallel")?.as_f64("wall_s_parallel")?,
                    events: Json::get(s, "events")?.as_f64("events")? as u64,
                    client_updates: Json::get(s, "client_updates")?.as_f64("client_updates")?
                        as u64,
                    events_per_sec_sequential: Json::get(s, "events_per_sec_sequential")?
                        .as_f64("events_per_sec_sequential")?,
                    events_per_sec_parallel: Json::get(s, "events_per_sec_parallel")?
                        .as_f64("events_per_sec_parallel")?,
                    speedup: Json::get(s, "speedup")?.as_f64("speedup")?,
                    identical: Json::get(s, "identical")?.as_bool("identical")?,
                    secagg_overhead_factor: opt_f64("secagg_overhead_factor")?,
                    secure_handshake_s: f64_or_zero("secure_handshake_s")?,
                    secure_mask_s: f64_or_zero("secure_mask_s")?,
                    secure_encode_s: f64_or_zero("secure_encode_s")?,
                    secure_unmask_s: f64_or_zero("secure_unmask_s")?,
                    peak_rss_bytes: opt_f64("peak_rss_bytes")?.map(|b| b as u64),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SuiteResult {
            label: Json::get(obj, "label")?.as_str("label")?.to_string(),
            threads: Json::get(obj, "threads")?.as_f64("threads")? as usize,
            quick: Json::get(obj, "quick")?.as_bool("quick")?,
            seed: Json::get(obj, "seed")?.as_f64("seed")? as u64,
            scenarios,
        })
    }
}

/// A regression is only flagged when the current wall-clock also exceeds
/// this absolute floor: sub-half-second measurements are dominated by
/// scheduler noise (cold caches, CPU steal on shared CI runners), and a
/// 2x ratio on a 50 ms run means nothing.  A real regression on the quick
/// scenarios blows past both the ratio and the floor.
pub const MIN_REGRESSION_WALL_S: f64 = 0.5;

/// The secure pipeline's overhead budget: `fedbuff-20k-secagg` may run at
/// most this many times slower per event than clear `fedbuff-20k`.  An
/// *absolute* gate (the ratio is measured within one suite run, so runner
/// speed cancels out), enforced by [`compare`] whenever the current suite
/// carries a [`ScenarioPerf::secagg_overhead_factor`].  The pre-session-
/// cache pipeline sat at ~170x; the session cache, speculative mask
/// precompute, and batched TSA releases must hold it under 5x.
pub const MAX_SECAGG_OVERHEAD_FACTOR: f64 = 5.0;

/// Peak-RSS regressions are only flagged when the current measurement also
/// exceeds this absolute floor: below it the reading is dominated by
/// allocator and runtime baseline noise, not scenario state.  A real
/// O(population) leak on `fedbuff-1m` (tens of MB per byte-per-device)
/// clears the floor immediately.
pub const MIN_RSS_GATE_BYTES: u64 = 64 << 20;

/// The CI gate: compares a current suite against a baseline.
///
/// Fails (with an explanation) when the suites are not comparable (different
/// scenario sizes), when any current scenario lost bit-identity, when a
/// baseline scenario is missing from the current run (a silently dropped
/// scenario must not pass the gate), when any current scenario's
/// [`secagg_overhead_factor`](ScenarioPerf::secagg_overhead_factor) exceeds
/// the absolute [`MAX_SECAGG_OVERHEAD_FACTOR`] budget, or when any scenario
/// present in both regressed by more than `factor` in wall-clock
/// (sequential or parallel, above [`MIN_REGRESSION_WALL_S`]), sequential
/// events/sec (same floor), or peak RSS (above [`MIN_RSS_GATE_BYTES`],
/// gated only when both suites carry a measurement).
/// Returns one human-readable line per compared scenario on success; when
/// the *baseline* records a parallel speedup below 1.0 anywhere, a single
/// note line flags it (informational — single-core runners make the
/// parallel wall-clock comparison noisy — never a failure).  When the
/// baseline never saw a parallel win at all (every speedup < 1.0, i.e. an
/// effectively single-core box), the parallel wall-clock gate is skipped
/// outright rather than treated as a regression signal.
pub fn compare(
    baseline: &SuiteResult,
    current: &SuiteResult,
    factor: f64,
) -> Result<Vec<String>, String> {
    if baseline.quick != current.quick {
        return Err(format!(
            "cannot compare: baseline quick={} vs current quick={} (scenario sizes differ)",
            baseline.quick, current.quick
        ));
    }
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    let sub_unity = baseline
        .scenarios
        .iter()
        .filter(|b| b.speedup < 1.0)
        .count();
    if sub_unity > 0 {
        lines.push(format!(
            "note: baseline parallel speedup < 1.0 on {sub_unity} scenario(s) \
             (recorded on a single-core or contended runner); parallel wall-clock \
             comparisons are noisy there"
        ));
    }
    // A baseline box that never saw a parallel win (every speedup < 1.0)
    // was effectively single-core; comparing a multi-core current run's
    // parallel wall-clock against it is pure noise, not a regression
    // signal, so the parallel gate is skipped entirely.
    let baseline_won_parallel = baseline.scenarios.iter().any(|b| b.speedup >= 1.0);
    for base in &baseline.scenarios {
        if !current.scenarios.iter().any(|c| c.name == base.name) {
            failures.push(format!(
                "{}: present in the baseline but missing from the current run",
                base.name
            ));
        }
    }
    for cur in &current.scenarios {
        if !cur.identical {
            failures.push(format!(
                "{}: parallel report was NOT bit-identical to the sequential report",
                cur.name
            ));
        }
        if let Some(factor) = cur.secagg_overhead_factor {
            if factor > MAX_SECAGG_OVERHEAD_FACTOR {
                failures.push(format!(
                    "{}: secagg overhead factor {factor:.2}x exceeds the {MAX_SECAGG_OVERHEAD_FACTOR:.1}x budget",
                    cur.name
                ));
            } else {
                lines.push(format!(
                    "{}: secagg overhead {factor:.2}x (budget {MAX_SECAGG_OVERHEAD_FACTOR:.1}x) ok",
                    cur.name
                ));
            }
        }
        let base = match baseline.scenarios.iter().find(|b| b.name == cur.name) {
            Some(base) => base,
            None => {
                lines.push(format!("{}: new scenario, no baseline", cur.name));
                continue;
            }
        };
        for (kind, b, c) in [
            ("sequential", base.wall_s_sequential, cur.wall_s_sequential),
            ("parallel", base.wall_s_parallel, cur.wall_s_parallel),
        ] {
            if kind == "parallel" && !baseline_won_parallel {
                lines.push(format!(
                    "{}: parallel wall-clock gate skipped (baseline never saw a parallel win)",
                    cur.name
                ));
                continue;
            }
            let ratio = c / b.max(1e-9);
            if ratio > factor && c > MIN_REGRESSION_WALL_S {
                failures.push(format!(
                    "{}: {kind} wall-clock regressed {ratio:.2}x ({b:.3}s -> {c:.3}s, limit {factor:.1}x)",
                    cur.name
                ));
            } else {
                lines.push(format!(
                    "{}: {kind} {c:.3}s vs baseline {b:.3}s ({ratio:.2}x, limit {factor:.1}x) ok",
                    cur.name
                ));
            }
        }
        // Throughput gate: sequential events/sec must not collapse by more
        // than the factor (same scheduler-noise floor as wall-clock; the
        // event counts may legitimately differ between suites, so this is
        // not redundant with the wall gate).
        let rate_ratio = base.events_per_sec_sequential / cur.events_per_sec_sequential.max(1e-9);
        if rate_ratio > factor && cur.wall_s_sequential > MIN_REGRESSION_WALL_S {
            failures.push(format!(
                "{}: sequential throughput regressed {rate_ratio:.2}x ({:.0} -> {:.0} events/s, limit {factor:.1}x)",
                cur.name, base.events_per_sec_sequential, cur.events_per_sec_sequential
            ));
        } else {
            lines.push(format!(
                "{}: throughput {:.0} events/s vs baseline {:.0} ({rate_ratio:.2}x, limit {factor:.1}x) ok",
                cur.name, cur.events_per_sec_sequential, base.events_per_sec_sequential
            ));
        }
        // Memory gate: peak RSS, only when both suites measured it.
        if let (Some(b), Some(c)) = (base.peak_rss_bytes, cur.peak_rss_bytes) {
            let rss_ratio = c as f64 / (b as f64).max(1.0);
            let (b_mib, c_mib) = (b as f64 / (1 << 20) as f64, c as f64 / (1 << 20) as f64);
            if rss_ratio > factor && c > MIN_RSS_GATE_BYTES {
                failures.push(format!(
                    "{}: peak RSS regressed {rss_ratio:.2}x ({b_mib:.0} MiB -> {c_mib:.0} MiB, limit {factor:.1}x)",
                    cur.name
                ));
            } else {
                lines.push(format!(
                    "{}: peak RSS {c_mib:.0} MiB vs baseline {b_mib:.0} MiB ({rss_ratio:.2}x, limit {factor:.1}x) ok",
                    cur.name
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("\n"))
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, booleans, null)
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(entries) => Ok(entries),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {pos}",
            c as char,
            pos = *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| {
                                format!("invalid \\u escape at byte {pos}", pos = *pos)
                            })?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 code point verbatim.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_suite() -> SuiteResult {
        SuiteResult {
            label: "test".to_string(),
            threads: 4,
            quick: true,
            seed: 42,
            scenarios: vec![ScenarioPerf {
                name: "fedbuff-20k".to_string(),
                wall_s_sequential: 1.5,
                wall_s_parallel: 0.5,
                events: 1000,
                client_updates: 400,
                events_per_sec_sequential: 666.667,
                events_per_sec_parallel: 2000.0,
                speedup: 3.0,
                identical: true,
                secagg_overhead_factor: None,
                secure_handshake_s: 0.0,
                secure_mask_s: 0.0,
                secure_encode_s: 0.0,
                secure_unmask_s: 0.0,
                peak_rss_bytes: None,
            }],
        }
    }

    #[test]
    fn suite_json_round_trips() {
        let suite = sample_suite();
        let parsed = SuiteResult::from_json(&suite.to_json()).expect("parse");
        assert_eq!(parsed.label, suite.label);
        assert_eq!(parsed.threads, suite.threads);
        assert_eq!(parsed.quick, suite.quick);
        assert_eq!(parsed.seed, suite.seed);
        assert_eq!(parsed.scenarios.len(), 1);
        let (a, b) = (&parsed.scenarios[0], &suite.scenarios[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.events, b.events);
        assert!((a.wall_s_sequential - b.wall_s_sequential).abs() < 1e-9);
        assert!((a.speedup - b.speedup).abs() < 1e-9);
        assert_eq!(a.identical, b.identical);
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let parsed = Json::parse(r#"{"a": [1, -2.5e1, "x\n\"y\""], "b": {"c": null, "d": false}}"#)
            .expect("parse");
        let obj = parsed.as_object("top").unwrap();
        let arr = Json::get(obj, "a").unwrap().as_array("a").unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[2], Json::Str("x\n\"y\"".to_string()));
        let b = Json::get(obj, "b").unwrap().as_object("b").unwrap();
        assert_eq!(*Json::get(b, "c").unwrap(), Json::Null);
        assert_eq!(*Json::get(b, "d").unwrap(), Json::Bool(false));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn compare_passes_within_factor_and_fails_beyond() {
        let baseline = sample_suite();
        let mut current = sample_suite();
        current.scenarios[0].wall_s_sequential = 2.9; // < 2x of 1.5
        let lines = compare(&baseline, &current, 2.0).expect("within factor");
        assert!(lines.iter().any(|l| l.contains("ok")));

        current.scenarios[0].wall_s_parallel = 1.1; // > 2x of 0.5, above the floor
        let err = compare(&baseline, &current, 2.0).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn compare_ignores_ratio_blowups_below_the_absolute_floor() {
        // 40ms -> 120ms is a 3x ratio but pure scheduler noise on a shared
        // runner; the gate must not flag it.
        let mut baseline = sample_suite();
        baseline.scenarios[0].wall_s_sequential = 0.04;
        baseline.scenarios[0].wall_s_parallel = 0.04;
        let mut current = sample_suite();
        current.scenarios[0].wall_s_sequential = 0.12;
        current.scenarios[0].wall_s_parallel = 0.12;
        assert!(compare(&baseline, &current, 2.0).is_ok());
        // But a regression past both the ratio and the floor still fails.
        current.scenarios[0].wall_s_sequential = MIN_REGRESSION_WALL_S + 0.1;
        assert!(compare(&baseline, &current, 2.0).is_err());
    }

    #[test]
    fn suite_json_round_trips_the_secagg_overhead_fields() {
        let mut suite = sample_suite();
        suite.scenarios[0].secagg_overhead_factor = Some(3.25);
        suite.scenarios[0].secure_handshake_s = 0.125;
        suite.scenarios[0].secure_mask_s = 0.5;
        suite.scenarios[0].secure_encode_s = 0.0625;
        suite.scenarios[0].secure_unmask_s = 0.25;
        let parsed = SuiteResult::from_json(&suite.to_json()).expect("parse");
        assert_eq!(parsed.scenarios[0], suite.scenarios[0]);
    }

    #[test]
    fn parser_tolerates_baselines_predating_the_overhead_fields() {
        // A pre-session-cache BENCH_*.json has none of the secure fields;
        // they default rather than fail the parse.
        let mut json = sample_suite().to_json();
        for key in [
            "secagg_overhead_factor",
            "secure_handshake_s",
            "secure_mask_s",
            "secure_encode_s",
            "secure_unmask_s",
            "peak_rss_bytes",
        ] {
            json = json
                .lines()
                .filter(|l| !l.contains(key))
                .collect::<Vec<_>>()
                .join("\n");
        }
        // Removing the tail fields leaves a trailing comma on "identical".
        json = json.replace("\"identical\": true,", "\"identical\": true");
        let parsed = SuiteResult::from_json(&json).expect("parse");
        assert_eq!(parsed.scenarios[0].secagg_overhead_factor, None);
        assert_eq!(parsed.scenarios[0].secure_mask_s, 0.0);
        assert_eq!(parsed.scenarios[0].peak_rss_bytes, None);
    }

    #[test]
    fn suite_json_round_trips_peak_rss() {
        let mut suite = sample_suite();
        suite.scenarios[0].peak_rss_bytes = Some(123_456_789);
        let parsed = SuiteResult::from_json(&suite.to_json()).expect("parse");
        assert_eq!(parsed.scenarios[0].peak_rss_bytes, Some(123_456_789));
    }

    #[test]
    fn compare_gates_peak_rss_above_the_floor() {
        let mut baseline = sample_suite();
        baseline.scenarios[0].peak_rss_bytes = Some(100 << 20);
        let mut current = sample_suite();
        // 150 MiB vs 100 MiB: 1.5x, within a 2x factor.
        current.scenarios[0].peak_rss_bytes = Some(150 << 20);
        let lines = compare(&baseline, &current, 2.0).expect("within factor");
        assert!(lines.iter().any(|l| l.contains("peak RSS")), "{lines:?}");

        current.scenarios[0].peak_rss_bytes = Some(250 << 20);
        let err = compare(&baseline, &current, 2.0).unwrap_err();
        assert!(err.contains("peak RSS regressed"), "{err}");
    }

    #[test]
    fn compare_ignores_rss_blowups_below_the_absolute_floor() {
        // 10 MiB -> 40 MiB is 4x but under the 64 MiB floor: allocator
        // baseline noise, not scenario state.
        let mut baseline = sample_suite();
        baseline.scenarios[0].peak_rss_bytes = Some(10 << 20);
        let mut current = sample_suite();
        current.scenarios[0].peak_rss_bytes = Some(40 << 20);
        assert!(compare(&baseline, &current, 2.0).is_ok());
    }

    #[test]
    fn compare_skips_the_rss_gate_without_measurements() {
        // An old baseline without RSS numbers must not fail the gate.
        let baseline = sample_suite();
        let mut current = sample_suite();
        current.scenarios[0].peak_rss_bytes = Some(4 << 30);
        let lines = compare(&baseline, &current, 2.0).expect("no baseline RSS, no gate");
        assert!(!lines.iter().any(|l| l.contains("peak RSS")));
    }

    #[test]
    fn compare_gates_sequential_throughput() {
        let baseline = sample_suite();
        let mut current = sample_suite();
        // Same wall-clock, but events/sec collapsed past the factor while
        // the run is above the noise floor.
        current.scenarios[0].events_per_sec_sequential = 100.0;
        let err = compare(&baseline, &current, 2.0).unwrap_err();
        assert!(err.contains("throughput regressed"), "{err}");
    }

    #[test]
    fn compare_notes_sub_unity_baseline_speedup_without_failing() {
        let mut baseline = sample_suite();
        baseline.scenarios[0].speedup = 0.8;
        let current = sample_suite();
        let lines = compare(&baseline, &current, 2.0).expect("a note, not a failure");
        assert!(
            lines.iter().any(|l| l.contains("speedup < 1.0")),
            "{lines:?}"
        );
        // And the note is absent when the baseline parallelized fine.
        let healthy = compare(&sample_suite(), &current, 2.0).expect("ok");
        assert!(!healthy.iter().any(|l| l.contains("speedup < 1.0")));
    }

    #[test]
    fn compare_skips_the_parallel_gate_when_baseline_never_won() {
        // A committed baseline from an effectively single-core box (every
        // speedup < 1.0) must not turn a multi-core run's parallel
        // wall-clock into a regression signal.
        let mut baseline = sample_suite();
        baseline.scenarios[0].speedup = 0.8;
        let mut current = sample_suite();
        current.scenarios[0].wall_s_parallel = 50.0; // way past any factor
        let lines = compare(&baseline, &current, 2.0).expect("gate skipped");
        assert!(
            lines
                .iter()
                .any(|l| l.contains("parallel wall-clock gate skipped")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("speedup < 1.0")),
            "{lines:?}"
        );
        // The sequential gate stays live on the same baseline.
        current.scenarios[0].wall_s_sequential = 50.0;
        let err = compare(&baseline, &current, 2.0).unwrap_err();
        assert!(err.contains("sequential wall-clock regressed"), "{err}");
        // A baseline with even one parallel win keeps the parallel gate.
        let winning = sample_suite(); // speedup 3.0
        let mut regressed = sample_suite();
        regressed.scenarios[0].wall_s_parallel = 50.0;
        let err = compare(&winning, &regressed, 2.0).unwrap_err();
        assert!(err.contains("parallel wall-clock regressed"), "{err}");
    }

    #[test]
    fn compare_gates_the_secagg_overhead_factor() {
        let baseline = sample_suite();
        let mut current = sample_suite();
        current.scenarios[0].secagg_overhead_factor = Some(MAX_SECAGG_OVERHEAD_FACTOR - 0.5);
        let lines = compare(&baseline, &current, 2.0).expect("within budget");
        assert!(lines.iter().any(|l| l.contains("secagg overhead")));

        current.scenarios[0].secagg_overhead_factor = Some(MAX_SECAGG_OVERHEAD_FACTOR + 0.1);
        let err = compare(&baseline, &current, 2.0).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn compare_fails_when_a_baseline_scenario_is_dropped() {
        let baseline = sample_suite();
        let mut current = sample_suite();
        current.scenarios[0].name = "renamed".to_string();
        let err = compare(&baseline, &current, 2.0).unwrap_err();
        assert!(err.contains("missing from the current run"), "{err}");
    }

    #[test]
    fn compare_rejects_mode_mismatch_and_identity_loss() {
        let baseline = sample_suite();
        let mut full = sample_suite();
        full.quick = false;
        assert!(compare(&baseline, &full, 2.0)
            .unwrap_err()
            .contains("cannot compare"));

        let mut broken = sample_suite();
        broken.scenarios[0].identical = false;
        assert!(compare(&baseline, &broken, 2.0)
            .unwrap_err()
            .contains("bit-identical"));
    }

    #[test]
    fn canonical_scenarios_build_quick() {
        for name in SCENARIO_NAMES {
            let scenario = build_scenario(name, true, Parallelism::sequential(), 1);
            assert!(!scenario.tasks().is_empty(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown perf scenario")]
    fn unknown_scenario_panics() {
        let _ = build_scenario("nope", true, Parallelism::sequential(), 1);
    }
}
