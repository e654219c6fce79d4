//! Multi-tenant fleet driver: N concurrent tasks on M Aggregators over one
//! shared population, with injectable Aggregator failures.
//!
//! ```bash
//! cargo run -p bench --release --bin multi_task -- --quick
//! cargo run -p bench --release --bin multi_task -- --full --seed 3
//! ```
//!
//! Composed through the unified [`Scenario`] API: the fleet mixes all three
//! aggregation strategies (FedBuff, synchronous rounds, and the timed
//! hybrid) behind the same control plane.  Prints a per-task table
//! (placement moves, convergence, communication, staleness) and the
//! fleet/control-plane roll-up — the multi-tenant behavior of Sections 4
//! and 6.2–6.3 that no single-task figure exercises.

use bench::parse_args;
use bench::Scale;
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, RunLimits, Scenario};

fn fleet_tasks(scale: Scale) -> Vec<TaskConfig> {
    let unit = match scale {
        Scale::Quick => 1,
        Scale::Full => 4,
    };
    vec![
        TaskConfig::async_task("keyboard-lm", 64 * unit, 16 * unit),
        TaskConfig::async_task("speech-kws", 32 * unit, 8 * unit).with_min_capability_tier(1),
        TaskConfig::sync_task("photo-ranker", 40 * unit, 0.3),
        TaskConfig::async_task("smart-reply", 24 * unit, 8 * unit).with_min_capability_tier(2),
        TaskConfig::async_task("translation", 48 * unit, 12 * unit).with_min_capability_tier(1),
        TaskConfig::sync_task("face-cluster", 30 * unit, 0.0),
        // The third aggregation strategy: a FedBuff buffer whose round
        // deadline bounds the straggler tail.
        TaskConfig::timed_hybrid_task("health-study", 20 * unit, 40 * unit, 600.0),
    ]
}

fn main() {
    let args = parse_args();
    let population_size = match args.scale {
        Scale::Quick => 3_000,
        Scale::Full => 20_000,
    };
    let hours = match args.scale {
        Scale::Quick => 2.0,
        Scale::Full => 6.0,
    };
    let tasks = fleet_tasks(args.scale);
    let num_tasks = tasks.len();
    let crash_time = hours * 3600.0 * 0.25;

    let population = Population::generate(
        &PopulationConfig::default().with_size(population_size),
        args.seed,
    );

    let mut builder = Scenario::builder()
        .population(population)
        .fleet(FleetSpec::new(3, 4))
        .limits(RunLimits::default().with_max_virtual_time_hours(hours))
        .eval(EvalPolicy::default().with_interval_s(300.0))
        .crash_at(crash_time, 0)
        .seed(args.seed);
    for task in tasks {
        builder = builder.task(task);
    }
    let scenario = builder.build();

    println!(
        "# Multi-tenant fleet: {num_tasks} tasks, {population_size} shared devices, \
         3 aggregators, aggregator 0 crashes at t={:.0}s",
        crash_time
    );
    let report = scenario.run();

    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>9} {:>9} {:>10} {:>9}",
        "task", "moved", "init loss", "final", "trips", "upd/h", "staleness", "lost buf"
    );
    for task in &report.tasks {
        println!(
            "{:<14} {:>6} {:>10.4} {:>10.4} {:>9} {:>9.1} {:>10.2} {:>9}",
            task.name,
            task.reassignments,
            task.initial_loss,
            task.final_loss,
            task.comm_trips(),
            task.summary.server_updates_per_hour,
            task.summary.mean_staleness,
            task.metrics.lost_buffered_updates,
        );
    }

    let cp = &report.fleet.control_plane;
    println!(
        "\n# Fleet roll-up over {:.1} virtual hours (stopped: {})",
        report.virtual_hours, report.stop_reason
    );
    println!(
        "total comm trips:        {:>9}",
        report.fleet.total_comm_trips
    );
    println!(
        "total server updates:    {:>9}",
        report.fleet.total_server_updates
    );
    println!(
        "failed participations:   {:>9}",
        report.fleet.total_failed_participations
    );
    println!(
        "mean active clients:     {:>9.1}",
        report.fleet.mean_active_clients
    );
    println!("aggregator failures:     {:>9}", cp.aggregator_failures);
    println!("task reassignments:      {:>9}", cp.task_reassignments);
    println!("stale-route refusals:    {:>9}", cp.stale_route_refusals);
    println!("updates lost in transit: {:>9}", cp.lost_in_transit_updates);
    println!(
        "buffered updates lost:   {:>9}",
        report.fleet.total_lost_buffered_updates
    );
    println!("final map sequence:      {:>9}", cp.final_map_sequence);
    println!("control log events:      {:>9}", cp.control_log_events);
    println!("checkpoints taken:       {:>9}", cp.checkpoints_taken);

    // The same counters in Prometheus text exposition format, so a scrape
    // wrapper (or a human with grep) can consume the run like a service.
    println!("\n# Control-plane metrics (Prometheus text format)");
    print!("{}", cp.prometheus_text());
}
