//! One workload in one process: the measured run (tracing off, end-to-end
//! metrics) and the traced run (spans, probes, per-layer metrics).

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::Summary;
use crate::stub::{check_report, hours_to_target, loss_ratio};
use crate::trace::{FoldedSpans, Tracer};
use crate::workloads::{setup, Setup, SetupTimes, Workload};
use papaya_core::secure::SecureTimings;
use papaya_data::population::Population;
use papaya_sim::scenario::Report;
use papaya_sim::Parallelism;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Measured iterations a run makes at least, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// Set-up samples a run collects at least (time permitting): where set-up
/// takes milliseconds, the samples the iterations give are topped up.
const MIN_SETUP_SAMPLES: usize = 15;
const EXTRA_SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Operations attempted and failed.  An operation is one scenario run or one
/// probe; a panic inside it is a failure, not a crash.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let reason = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(reason)) => reason,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("a panic without a message");
                format!("panicked: {message}")
            }
        };
        self.failed += 1;
        self.failures.push(format!("{what}: {reason}"));
        None
    }
}

/// What one process reports for one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub ops: Ops,
    pub fingerprint: String,
    /// In table order: every end-to-end metric, or every per-layer metric.
    pub metrics: Vec<Metric>,
}

/// One metric of one run: its samples' summary, and the number reported.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub summary: Summary,
}

impl Metric {
    /// What the result line carries; see [`Summary::reported`].
    pub fn value(&self) -> f64 {
        self.summary.reported(self.higher_is_better)
    }
}

impl Outcome {
    /// The one-line result the driver reads.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.ops.failed == 0)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value())), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Everything the full run keeps: the reported values with their medians,
    /// quartiles and ranges.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("ops_attempted", Json::Num(self.ops.attempted as f64)),
            ("ops_failed", Json::Num(self.ops.failed as f64)),
            (
                "failures",
                Json::Arr(self.ops.failures.iter().map(Json::str).collect()),
            ),
            ("fingerprint", Json::str(self.fingerprint.as_str())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let summary = &m.summary;
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value())),
                            ("unit", Json::str(m.unit)),
                            ("min", Json::Num(summary.min)),
                            ("q1", Json::Num(summary.q1)),
                            ("median", Json::Num(summary.median)),
                            ("q3", Json::Num(summary.q3)),
                            ("max", Json::Num(summary.max)),
                            ("n", Json::Num(summary.n as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// The numbers one checked run leaves behind once its report is dropped.
struct RunFacts {
    times: SetupTimes,
    wall_s: f64,
    fingerprint: String,
    updates: u64,
    sim_hours: f64,
    sim_hours_to_target: f64,
    sim_loss_ratio: f64,
}

/// Sets up, runs and checks `workload` once with tracing off.
fn untraced_iteration(
    workload: &Workload,
    seed: u64,
    scale: usize,
    parallelism: Parallelism,
    reference: Option<&str>,
) -> Result<RunFacts, String> {
    let setup = setup(workload, seed, scale, parallelism, None);
    let start = Instant::now();
    let report = setup.scenario.run();
    let wall_s = start.elapsed().as_secs_f64();
    let fingerprint = report.fingerprint();
    check_report(&report, &fingerprint, &workload.expectation(), reference)?;
    Ok(RunFacts {
        times: setup.times,
        wall_s,
        updates: report.fleet.total_comm_trips,
        sim_hours: report.virtual_hours,
        sim_hours_to_target: hours_to_target(&report, workload.target_ratio)
            .expect("check_report saw the target reached"),
        sim_loss_ratio: loss_ratio(&report),
        fingerprint,
    })
}

/// The measured run: one discarded warm-up, then set-up + run iterations with
/// tracing off until `seconds` have passed.  Every iteration trains on the
/// event-loop thread alone: two busy threads on two cores of a shared host
/// time the neighbours (sets of ten `lm-pool` runs on the pool spread 8–15 %
/// where sequential ones spread 4–6 %).  Every run must repeat the warm-up's
/// fingerprint; on `lm-pool` the warm-up is the run on the pool, so each
/// sequential run is checked against it.  Each timing is reported as the
/// better quartile of its samples ([`Summary::reported`]).
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    scale: usize,
) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let parallelism = Parallelism::sequential();
    let warm_up = ops
        .run(
            "warm-up run (on the pool where the workload has one)",
            || untraced_iteration(workload, seed, scale, workload.parallelism(), None),
        )
        .ok_or_else(|| ops.failures.join("\n"))?;

    let (mut setup_s, mut wall_s, mut updates_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let clock = Instant::now();
    let budget = Duration::from_secs(seconds);
    while wall_s.len() < MIN_ITERATIONS || clock.elapsed() < budget {
        let facts = ops.run("measured run", || {
            untraced_iteration(
                workload,
                seed,
                scale,
                parallelism,
                Some(&warm_up.fingerprint),
            )
        });
        if let Some(facts) = facts {
            setup_s.push(facts.times.total_s());
            wall_s.push(facts.wall_s);
            updates_per_s.push(facts.updates as f64 / facts.wall_s);
        } else if ops.failed as usize >= MIN_ITERATIONS {
            // A workload that fails every time would otherwise spin here.
            return Err(ops.failures.join("\n"));
        }
    }
    let peak_rss_mib = crate::rss::peak_bytes() / (1024.0 * 1024.0);

    let clock = Instant::now();
    while setup_s.len() < MIN_SETUP_SAMPLES && clock.elapsed() < EXTRA_SETUP_BUDGET {
        setup_s.push(
            setup(workload, seed, scale, parallelism, None)
                .times
                .total_s(),
        );
    }

    let value = |name: &str| match name {
        "setup_s" => Summary::of(&setup_s),
        "wall_s" => Summary::of(&wall_s),
        "updates_per_s" => Summary::of(&updates_per_s),
        "peak_rss_mib" => Summary::exact(peak_rss_mib),
        "sim_hours" => Summary::exact(warm_up.sim_hours),
        "sim_hours_to_target" => Summary::exact(warm_up.sim_hours_to_target),
        "sim_loss_ratio" => Summary::exact(warm_up.sim_loss_ratio),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    Ok(Outcome {
        workload: workload.name,
        seed,
        traced: false,
        metrics: END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                higher_is_better: m.higher_is_better,
                summary: value(m.name),
            })
            .collect(),
        fingerprint: warm_up.fingerprint,
        ops,
    })
}

/// One traced set-up + run: the report is kept for the probes.
struct TracedRun {
    setup: Setup,
    report: Report,
    run_s: f64,
    train: FoldedSpans,
    evaluate: FoldedSpans,
    fingerprint_s: f64,
    rss_after_run_bytes: f64,
}

/// Busy seconds of folded calls, net of the timer's own gap per call.
fn net_busy_s(calls: &FoldedSpans, timer_gap_ns: f64) -> f64 {
    (calls.busy_ns as f64 - calls.count as f64 * timer_gap_ns).max(0.0) * 1e-9
}

impl TracedRun {
    fn trainer_busy_s(&self, timer_gap_ns: f64) -> f64 {
        net_busy_s(&self.train, timer_gap_ns) + net_busy_s(&self.evaluate, timer_gap_ns)
    }
}

fn traced_iteration(
    tracer: &mut Tracer,
    span: &'static str,
    workload: &Workload,
    seed: u64,
    scale: usize,
    parallelism: Parallelism,
    reference: &str,
) -> Result<TracedRun, String> {
    let (run, _) = tracer.span(span, |tracer| {
        let setup = setup(workload, seed, scale, parallelism, Some(&mut *tracer));
        let timed = setup
            .timed
            .clone()
            .expect("a traced set-up times its trainer");
        let ((report, (train, evaluate)), run_s) = tracer.span("scenario.run", |tracer| {
            let report = setup.scenario.run();
            (report, timed.drain_into(tracer))
        });
        let rss_after_run_bytes = crate::rss::current_bytes();
        let (fingerprint, fingerprint_s) =
            tracer.span("report.fingerprint", |_| report.fingerprint());
        check_report(
            &report,
            &fingerprint,
            &workload.expectation(),
            Some(reference),
        )?;
        Ok(TracedRun {
            setup,
            report,
            run_s,
            train,
            evaluate,
            fingerprint_s,
            rss_after_run_bytes,
        })
    });
    run
}

/// Runs one probe as an operation of its own inside a span of its own; a
/// probe that fails reads as zero and counts as a failed operation.
fn probe<T: Default>(
    ops: &mut Ops,
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    ops.run(name, || Ok(tracer.span(name, |_| f()).0))
        .unwrap_or_default()
}

/// The traced run: an untraced reference run, one run with every phase in a
/// span and the trainer behind the timing decorator (on `lm-pool` a second
/// one, sequential), then the layer probes.  Writes the spans to `trace_path`.
pub fn trace(
    workload: &'static Workload,
    seed: u64,
    scale: usize,
    trace_path: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut tracer = Tracer::new();
    let parallelism = workload.parallelism();

    // Before anything else has touched the heap: what a population costs to
    // hold is the resident-set growth across generating one.
    let population_rss_bytes = probe(&mut ops, &mut tracer, "probe.population_rss", || {
        let config = workload.population_config(scale);
        let before = crate::rss::current_bytes();
        let population = Population::generate(&config, seed);
        let grown = crate::rss::current_bytes() - before;
        std::hint::black_box(&population);
        grown
    });

    // Two untraced runs: the first warms the process up (it reads 10 % slow
    // on `million-idle`), the second is what the traced run is held against.
    let warm_up = ops
        .run("warm-up run", || {
            untraced_iteration(workload, seed, scale, parallelism, None)
        })
        .ok_or_else(|| ops.failures.join("\n"))?;
    let untraced = ops
        .run("untraced run", || {
            untraced_iteration(
                workload,
                seed,
                scale,
                parallelism,
                Some(&warm_up.fingerprint),
            )
        })
        .ok_or_else(|| ops.failures.join("\n"))?;
    let traced = ops
        .run("traced run", || {
            traced_iteration(
                &mut tracer,
                "iteration",
                workload,
                seed,
                scale,
                parallelism,
                &untraced.fingerprint,
            )
        })
        .ok_or_else(|| ops.failures.join("\n"))?;
    // The pooled run must be bit-identical to a sequential one, and the
    // sequential one is where the trainer's share of a run can be read: on
    // the pool it overlaps the event loop.
    let sequential = if parallelism.is_sequential() {
        None
    } else {
        ops.run("traced sequential run", || {
            traced_iteration(
                &mut tracer,
                "iteration.sequential",
                workload,
                seed,
                scale,
                Parallelism::sequential(),
                &untraced.fingerprint,
            )
        })
    };

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let report = &traced.report;
    let setup = &traced.setup;
    let tasks = setup.scenario.tasks();
    let captured = setup.timed.as_ref().expect("traced").captured();
    let run_s = traced.run_s;
    let events = report.events_processed;
    let comm_trips = report.fleet.total_comm_trips;
    let check_ins = comm_trips + report.fleet.total_failed_participations;
    let releases = report.fleet.total_server_updates;

    // papaya-data and the trainer seam: spans and in-situ counts.
    values.insert("population.generate_s", setup.times.population_s);
    values.insert(
        "population.rss_bytes_per_device",
        population_rss_bytes / setup.population_len as f64,
    );
    values.insert("dataset.generate_s", setup.times.dataset_s);
    values.insert("trainer.build_s", setup.times.trainer_s);
    values.insert("trainer.train_calls", traced.train.count as f64);
    let timer_gap_ns = crate::trace::timer_gap_ns();
    let quantile = |q: f64| (traced.train.histogram.quantile_ns(q) - timer_gap_ns).max(0.0);
    values.insert(
        "trainer.train_busy_s",
        net_busy_s(&traced.train, timer_gap_ns),
    );
    values.insert("trainer.train_p50_ns", quantile(0.5));
    values.insert("trainer.train_p99_ns", quantile(0.99));
    values.insert("trainer.eval_calls", traced.evaluate.count as f64);
    values.insert(
        "trainer.eval_busy_s",
        net_busy_s(&traced.evaluate, timer_gap_ns),
    );
    values.insert(
        "trainer.unused_share",
        (1.0 - comm_trips as f64 / traced.train.count.max(1) as f64).max(0.0),
    );
    values.insert(
        "trainer.busy_share",
        traced.trainer_busy_s(timer_gap_ns) / run_s,
    );

    // Probes.  Each is an operation of its own and a span of its own.
    let concurrency: usize = tasks.iter().map(|t| t.concurrency).sum();
    let schedule_pop_ns = probe(&mut ops, &mut tracer, "probe.events", || {
        probes::event_queue(concurrency, seed)
    });
    values.insert("events.processed", events as f64);
    values.insert("events.schedule_pop_ns", schedule_pop_ns);
    values.insert("events.busy_s", schedule_pop_ns * events as f64 * 1e-9);

    let acquire_release_ns = probe(&mut ops, &mut tracer, "probe.sampling", || {
        probes::sampling_pool(setup.population_len, concurrency, seed)
    });
    values.insert("sampling.acquire_release_ns", acquire_release_ns);
    values.insert(
        "sampling.busy_s",
        acquire_release_ns * check_ins as f64 * 1e-9,
    );

    // One layered replay per task.  A layer's busy time is its cost per call
    // times the calls that task made in the traced run; its cost per call
    // over the whole workload is the call-weighted mean over tasks.
    // Layers in stack order: strategy, secure, dp, robust.
    let mut accumulates = 0u64;
    let mut busy_s = [0.0f64; 4];
    let mut accumulate_ns = [0.0f64; 4];
    let mut take_ns = [0.0f64; 4];
    for (config, task) in tasks.iter().zip(&report.tasks) {
        let calls = task.metrics.comm_trips - task.metrics.discarded_updates;
        let takes = task.metrics.server_updates;
        accumulates += calls;
        let secure = &task.metrics.secure;
        let session_hit_share = secure.session_cache_hits as f64
            / (secure.session_cache_hits + secure.session_cache_misses).max(1) as f64;
        let costs = probe(&mut ops, &mut tracer, "probe.aggregation", || {
            let uploads = probes::uploads(config, &captured, session_hit_share);
            probes::aggregation_layers(config, setup.dim, seed, &uploads)
        });
        let layers = [costs.strategy, costs.secure, costs.dp, costs.robust];
        for (i, cost) in layers.iter().enumerate() {
            busy_s[i] += cost.busy_s(calls, takes);
            accumulate_ns[i] += cost.accumulate_ns * calls as f64;
            take_ns[i] += cost.take_ns * takes as f64;
        }
    }
    let aggregated: u64 = report
        .tasks
        .iter()
        .map(|t| t.metrics.aggregated_updates)
        .sum();
    values.insert("aggregate.accumulates", accumulates as f64);
    values.insert("aggregate.releases", releases as f64);
    values.insert(
        "aggregate.applied_share",
        aggregated as f64 / comm_trips.max(1) as f64,
    );
    let layer_names = [
        [
            "aggregate.strategy_accumulate_ns",
            "aggregate.strategy_take_ns",
            "aggregate.busy_s",
        ],
        ["secure.accumulate_ns", "secure.take_ns", "secure.busy_s"],
        ["dp.accumulate_ns", "dp.take_ns", "dp.busy_s"],
        ["robust.accumulate_ns", "robust.take_ns", "robust.busy_s"],
    ];
    for (i, [accumulate, take, busy]) in layer_names.into_iter().enumerate() {
        values.insert(accumulate, accumulate_ns[i] / accumulates.max(1) as f64);
        values.insert(take, take_ns[i] / releases.max(1) as f64);
        values.insert(busy, busy_s[i]);
    }
    let mut timings = SecureTimings::default();
    for task in &report.tasks {
        timings.merge(&task.metrics.secure_timings);
    }
    values.insert("secure.handshake_s", timings.handshake_s);
    values.insert("secure.mask_s", timings.mask_s);
    values.insert("secure.encode_s", timings.encode_s);
    values.insert("secure.unmask_s", timings.unmask_s);
    values.insert(
        "robust.rejected_updates",
        report
            .tasks
            .iter()
            .map(|t| t.metrics.rejected_by_defense_updates)
            .sum::<u64>() as f64,
    );
    let decorators_busy_s = busy_s[1] + busy_s[2] + busy_s[3];
    values.insert("decorators.busy_share", decorators_busy_s / run_s);

    let apply_ns = probe(&mut ops, &mut tracer, "probe.server_opt", || {
        probes::server_optimizer(setup.server_optimizer, setup.dim)
    });
    values.insert("server_opt.applies", releases as f64);
    values.insert("server_opt.apply_ns", apply_ns);
    values.insert("server_opt.busy_s", apply_ns * releases as f64 * 1e-9);

    values.insert("report.fingerprint_s", traced.fingerprint_s);
    values.insert(
        "report.trace_samples",
        report
            .tasks
            .iter()
            .map(|t| {
                let m = &t.metrics;
                m.loss_curve.as_slice().len()
                    + m.utilization_trace.as_slice().len()
                    + m.participations.as_slice().len()
                    + m.attack_trace.as_slice().len()
            })
            .sum::<usize>() as f64,
    );
    values.insert(
        "report.rss_after_run_mib",
        traced.rss_after_run_bytes / (1024.0 * 1024.0),
    );

    let cp = &report.fleet.control_plane;
    let control_plane = match &setup.fleet {
        Some(fleet) => probe(&mut ops, &mut tracer, "probe.control_plane", || {
            probes::control_plane(fleet, tasks, cp.heartbeats, check_ins, seed)
        }),
        None => probes::ControlPlaneCost::default(),
    };
    let control_plane_busy_s = (control_plane.heartbeat_ns * cp.heartbeats as f64
        + control_plane.assign_client_ns * check_ins as f64)
        * 1e-9;
    values.insert("control_plane.log_events", cp.control_log_events as f64);
    values.insert("control_plane.checkpoints", cp.checkpoints_taken as f64);
    values.insert(
        "control_plane.task_reassignments",
        cp.task_reassignments as f64,
    );
    values.insert(
        "control_plane.stale_route_refusals",
        cp.stale_route_refusals as f64,
    );
    values.insert(
        "control_plane.lost_in_transit_updates",
        cp.lost_in_transit_updates as f64,
    );
    values.insert("control_plane.heartbeats", cp.heartbeats as f64);
    values.insert("control_plane.heartbeat_ns", control_plane.heartbeat_ns);
    values.insert(
        "control_plane.assign_client_ns",
        control_plane.assign_client_ns,
    );
    values.insert("control_plane.busy_s", control_plane_busy_s);
    values.insert(
        "control_plane.checkpoint_restore_s",
        control_plane.checkpoint_restore_s,
    );
    values.insert("control_plane.replay_s", control_plane.replay_s);

    let handoff_ns = if parallelism.is_sequential() {
        0.0
    } else {
        probe(&mut ops, &mut tracer, "probe.executor", || {
            probes::executor_handoff(parallelism.workers(), concurrency)
        })
    };
    values.insert("executor.workers", parallelism.workers() as f64);
    values.insert("executor.handoff_ns", handoff_ns);
    values.insert(
        "executor.speedup",
        sequential.as_ref().map_or(0.0, |s| s.run_s / run_s),
    );
    values.insert(
        "executor.sequential_run_s",
        sequential.as_ref().map_or(0.0, |s| s.run_s),
    );
    values.insert(
        "executor.sequential_trainer_share",
        sequential
            .as_ref()
            .map_or(0.0, |s| s.trainer_busy_s(timer_gap_ns) / s.run_s),
    );

    // The residual is taken on the event-loop thread's own time line: the
    // sequential run where the measured one trains on the pool.
    let on_loop = sequential.as_ref().unwrap_or(&traced);
    let self_s = on_loop.run_s
        - on_loop.trainer_busy_s(timer_gap_ns)
        - values["events.busy_s"]
        - values["sampling.busy_s"]
        - values["aggregate.busy_s"]
        - decorators_busy_s
        - values["server_opt.busy_s"]
        - control_plane_busy_s;
    values.insert("scenario.build_s", setup.times.build_s);
    values.insert("scenario.run_s", run_s);
    values.insert("scenario.untraced_run_s", untraced.wall_s);
    values.insert("scenario.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    values.insert("scenario.self_s", self_s);
    values.insert("scenario.self_share", self_s / on_loop.run_s);
    values.insert("trace.overhead_share", run_s / untraced.wall_s - 1.0);
    values.insert("trace.timer_gap_ns", timer_gap_ns);
    values.insert("trace.spans", tracer.spans().len() as f64);

    if let Some(path) = trace_path {
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, tracer.to_json(workload.name, seed).render_pretty())
        };
        write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    Ok(Outcome {
        workload: workload.name,
        seed,
        traced: true,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = *values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
                Metric {
                    name: m.name,
                    unit: m.unit,
                    higher_is_better: m.higher_is_better,
                    summary: Summary::exact(value),
                }
            })
            .collect(),
        fingerprint: untraced.fingerprint,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn an_operation_that_panics_or_errs_is_counted_not_propagated() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("fine", || Ok(3)), Some(3));
        assert_eq!(
            ops.run::<u8>("errs", || Err("wrong stop".to_string())),
            None
        );
        assert_eq!(ops.run::<u8>("panics", || panic!("boom {}", 1)), None);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(
            ops.failures,
            ["errs: wrong stop", "panics: panicked: boom 1"]
        );
    }

    /// Every workload at 1/50 scale: the warm-up and three measured runs pass
    /// their checks (stop reason, loss target, failover evidence) and repeat
    /// one fingerprint, and every end-to-end metric comes out positive.
    #[test]
    fn every_workload_passes_its_checks_at_a_fiftieth_of_the_scale() {
        for workload in &WORKLOADS {
            let outcome = measure(workload, 7, 0, 50).expect(workload.name);
            assert_eq!(
                outcome.ops.failures,
                Vec::<String>::new(),
                "{}",
                workload.name
            );
            assert_eq!(outcome.ops.attempted, 1 + MIN_ITERATIONS as u64);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, table);
            for metric in &outcome.metrics {
                assert!(
                    metric.value().is_finite() && metric.value() > 0.0,
                    "{} {} = {}",
                    workload.name,
                    metric.name,
                    metric.value()
                );
            }
            let line = outcome.result_line();
            assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                Json::parse(&outcome.detail().render()).unwrap(),
                outcome.detail()
            );
        }
    }

    /// The traced run at 1/50 scale: every probe runs, every per-layer metric
    /// is measured, and the spans land in a file that parses back.
    #[test]
    fn the_traced_run_measures_every_layer_at_a_fiftieth_of_the_scale() {
        let dir = std::env::temp_dir().join(format!("papaya-benchmark-{}", std::process::id()));
        for workload in &WORKLOADS {
            let path = dir.join(format!("{}.trace.json", workload.name));
            let outcome = trace(workload, 7, 50, Some(&path)).expect(workload.name);
            assert_eq!(
                outcome.ops.failures,
                Vec::<String>::new(),
                "{}",
                workload.name
            );
            assert_eq!(outcome.metrics.len(), PER_LAYER.len());
            let value = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(Metric::value)
                    .unwrap()
            };
            assert!(outcome.metrics.iter().all(|m| m.value().is_finite()));
            assert!(value("trainer.train_calls") > 0.0);
            assert!(value("events.processed") > 0.0);
            assert!(value("scenario.run_s") > 0.0);
            let fleet = workload.name == "fleet-failover";
            assert_eq!(value("control_plane.heartbeats") > 0.0, fleet);
            assert_eq!(
                value("secure.accumulate_ns") > 0.0,
                workload.name == "secure-stack"
            );
            assert_eq!(value("executor.speedup") > 0.0, workload.name == "lm-pool");

            let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let spans = trace.get("spans").unwrap().as_array().unwrap();
            assert_eq!(spans.len() as f64, value("trace.spans"));
            let names: Vec<&str> = spans
                .iter()
                .map(|s| s.get("name").unwrap().as_str().unwrap())
                .collect();
            for expected in [
                "iteration",
                "population.generate",
                "scenario.run",
                "probe.events",
            ] {
                assert!(
                    names.contains(&expected),
                    "{}: no {expected} span",
                    workload.name
                );
            }
            let folded = trace.get("folded").unwrap().as_array().unwrap();
            assert!(
                !folded.is_empty(),
                "{}: no folded trainer calls",
                workload.name
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
