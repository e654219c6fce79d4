//! The metric tables.  `BENCHMARK.json` at the repo root lists the same names,
//! units, directions and bounds, and a test holds the two equal.

/// How `--compare` judges a metric between two result files of one seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Judge {
    /// A host timing or size: a regression once the reported value worsens by
    /// more than `share × base + slack`.
    Measured { share: f64, slack: f64 },
    /// A simulated statistic, deterministic for a seed: any difference in the
    /// bits is a change to the modelled algorithm.
    Exact,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// What `BENCHMARK.json` carries: the share of the parent's median by
    /// which the driver lets the metric worsen.  The driver changes the seed
    /// from run to run, so this is sized to the metric's spread *across
    /// seeds* on the workload where that is widest (see README, "Measured
    /// noise"); for one seed `judge` is tighter.
    pub bound: f64,
    pub judge: Judge,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        judge: Judge::Measured {
            share: 0.25,
            slack: 0.02,
        },
    },
    // The host has phases, minutes long, in which every run reads 5–25 %
    // slow whatever statistic a run reports: ten runs made across one
    // usually spread 1–12 % (once 29 %), and two sets of ten made a quarter
    // of an hour apart differ by up to 9 % in their medians (once 28 %).  A
    // bound the box can resolve is three times that, which is more than the
    // driver allows; this is the most it allows.  Two result files made back to
    // back (`--compare`) are held to 10 %.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        judge: Judge::Measured {
            share: 0.10,
            slack: 0.0,
        },
    },
    EndToEnd {
        name: "updates_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        judge: Judge::Measured {
            share: 0.10,
            slack: 0.0,
        },
    },
    // Across seeds `lm-pool`'s dataset, and so its peak, moves 2–5 %.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
        judge: Judge::Measured {
            share: 0.05,
            slack: 1.0,
        },
    },
    // `lm-pool` collects 1 440 updates: their mean duration is a sample.
    EndToEnd {
        name: "sim_hours",
        unit: "virtual_h",
        higher_is_better: false,
        bound: 0.25,
        judge: Judge::Exact,
    },
    // Set by the slowest of six tasks on `fleet-failover`, and a server step
    // (~4 virtual s of ~17) at a time on `million-idle`.
    EndToEnd {
        name: "sim_hours_to_target",
        unit: "virtual_h",
        higher_is_better: false,
        bound: 0.25,
        judge: Judge::Exact,
    },
    EndToEnd {
        name: "sim_loss_ratio",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.15,
        judge: Judge::Exact,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Suffixes: `_s` seconds, `_ns` nanoseconds per operation, `_share` a ratio,
/// `_mib` MiB; anything else is a count.  A layer a workload does not use
/// reads 0.
pub const PER_LAYER: [PerLayer; 69] = [
    // papaya-data
    lower("population.generate_s", "s"),
    lower("population.rss_bytes_per_device", "B"),
    lower("dataset.generate_s", "s"),
    // the trainer seam: papaya-core::surrogate, papaya-lm, papaya-nn
    lower("trainer.build_s", "s"),
    lower("trainer.train_calls", "count"),
    lower("trainer.train_busy_s", "s"),
    lower("trainer.train_p50_ns", "ns"),
    lower("trainer.train_p99_ns", "ns"),
    lower("trainer.eval_calls", "count"),
    lower("trainer.eval_busy_s", "s"),
    lower("trainer.unused_share", "ratio"),
    lower("trainer.busy_share", "ratio"),
    // papaya-sim::events
    lower("events.processed", "count"),
    lower("events.schedule_pop_ns", "ns"),
    lower("events.busy_s", "s"),
    // papaya-sim::sampling
    lower("sampling.acquire_release_ns", "ns"),
    lower("sampling.busy_s", "s"),
    // papaya-core strategies: fedbuff, sync_agg, timed_hybrid
    lower("aggregate.accumulates", "count"),
    lower("aggregate.releases", "count"),
    higher("aggregate.applied_share", "ratio"),
    lower("aggregate.strategy_accumulate_ns", "ns"),
    lower("aggregate.strategy_take_ns", "ns"),
    lower("aggregate.busy_s", "s"),
    // papaya-core::secure + papaya-secagg + papaya-crypto
    lower("secure.accumulate_ns", "ns"),
    lower("secure.take_ns", "ns"),
    lower("secure.busy_s", "s"),
    lower("secure.handshake_s", "s"),
    lower("secure.mask_s", "s"),
    lower("secure.encode_s", "s"),
    lower("secure.unmask_s", "s"),
    // papaya-core::dp, ::robust
    lower("dp.accumulate_ns", "ns"),
    lower("dp.take_ns", "ns"),
    lower("dp.busy_s", "s"),
    lower("robust.accumulate_ns", "ns"),
    lower("robust.take_ns", "ns"),
    lower("robust.busy_s", "s"),
    lower("robust.rejected_updates", "count"),
    higher("decorators.busy_share", "ratio"),
    // papaya-core::server_opt
    lower("server_opt.applies", "count"),
    lower("server_opt.apply_ns", "ns"),
    lower("server_opt.busy_s", "s"),
    // papaya-sim::metrics + Report
    lower("report.fingerprint_s", "s"),
    lower("report.trace_samples", "count"),
    lower("report.rss_after_run_mib", "MiB"),
    // papaya-sim::cluster + control_plane
    lower("control_plane.log_events", "count"),
    lower("control_plane.checkpoints", "count"),
    lower("control_plane.task_reassignments", "count"),
    lower("control_plane.stale_route_refusals", "count"),
    lower("control_plane.lost_in_transit_updates", "count"),
    lower("control_plane.heartbeats", "count"),
    lower("control_plane.heartbeat_ns", "ns"),
    lower("control_plane.assign_client_ns", "ns"),
    lower("control_plane.busy_s", "s"),
    lower("control_plane.checkpoint_restore_s", "s"),
    lower("control_plane.replay_s", "s"),
    // papaya-sim::executor
    lower("executor.workers", "count"),
    lower("executor.handoff_ns", "ns"),
    higher("executor.speedup", "ratio"),
    lower("executor.sequential_run_s", "s"),
    lower("executor.sequential_trainer_share", "ratio"),
    // papaya-sim::scenario + task_runtime
    lower("scenario.build_s", "s"),
    lower("scenario.run_s", "s"),
    lower("scenario.untraced_run_s", "s"),
    lower("scenario.ns_per_event", "ns"),
    lower("scenario.self_s", "s"),
    lower("scenario.self_share", "ratio"),
    // the benchmark itself
    lower("trace.overhead_share", "ratio"),
    lower("trace.timer_gap_ns", "ns"),
    lower("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are what
    /// the program prints: they must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            spec.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let paths = spec.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths, [Json::str("benchmark")]);
        let seconds = spec.get("run_seconds").unwrap().as_f64().unwrap();
        assert_eq!(seconds, crate::RUN_SECONDS as f64);

        let listed = spec.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, workload) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(entry.keys(), ["name", "why"]);
            assert_eq!(field(entry, "name"), workload.name);
            assert_eq!(field(entry, "why"), workload.why);
            assert!(valid_name(workload.name), "{}", workload.name);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }

        let better = |higher: bool| if higher { "higher" } else { "lower" };
        let listed = spec.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(&END_TO_END) {
            assert_eq!(entry.keys(), ["name", "unit", "better", "bound"]);
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), better(metric.higher_is_better));
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(metric.bound));
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
            assert!(valid_name(metric.name) && valid_unit(metric.unit));
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.higher_is_better),
            ("setup_s", "s", false)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let listed = spec.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (entry, metric) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(entry.keys(), ["name", "unit", "better"]);
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), better(metric.higher_is_better));
            assert!(
                valid_name(metric.name) && valid_unit(metric.unit),
                "{}",
                metric.name
            );
        }

        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
