//! Multi-tenant training with an Aggregator failure mid-run.
//!
//! ```bash
//! cargo run --release --example multi_task
//! ```
//!
//! Four federated tasks share one population of 2 000 devices.  The
//! Coordinator places the tasks on two persistent Aggregators by estimated
//! workload, Selectors route eligible devices (by capability tier) to tasks
//! with positive demand, and 30 virtual minutes in, Aggregator 0 crashes:
//! its buffered updates are lost, uploads addressed to it die in transit,
//! and once its heartbeats go silent long enough the Coordinator reassigns
//! the orphaned tasks to the survivor.  Training resumes and every task
//! still converges — the fault-tolerance story of Sections 6.2–6.3 and
//! Appendix E.4.

use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, RunLimits, Scenario};

fn main() {
    let population = Population::generate(&PopulationConfig::default().with_size(2000), 7);
    let scenario = Scenario::builder()
        .population(population)
        // All three aggregation strategies behind the same control plane.
        .task(TaskConfig::async_task("keyboard-lm", 64, 16))
        .task(TaskConfig::async_task("speech-kws", 32, 8).with_min_capability_tier(1))
        .task(TaskConfig::sync_task("photo-ranker", 40, 0.3))
        .task(TaskConfig::async_task("smart-reply", 24, 8).with_min_capability_tier(2))
        .task(TaskConfig::timed_hybrid_task("health-study", 16, 32, 600.0))
        .fleet(FleetSpec::new(2, 3))
        .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
        .eval(EvalPolicy::default().with_interval_s(300.0))
        .crash_at(1800.0, 0)
        .seed(7)
        .build();

    println!("5 tasks, 2000 shared devices, 2 aggregators; aggregator 0 crashes at t=30min\n");
    let result = scenario.run();

    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>8} {:>8} {:>10} {:>8}",
        "task", "moved", "init loss", "final", "trips", "updates", "staleness", "lost buf"
    );
    for task in &result.tasks {
        println!(
            "{:<14} {:>6} {:>10.4} {:>10.4} {:>8} {:>8} {:>10.2} {:>8}",
            task.name,
            task.reassignments,
            task.initial_loss,
            task.final_loss,
            task.comm_trips(),
            task.server_updates(),
            task.summary.mean_staleness,
            task.metrics.lost_buffered_updates,
        );
    }

    let cp = &result.fleet.control_plane;
    println!(
        "\nfleet over {:.1} virtual hours (stopped: {}):",
        result.virtual_hours, result.stop_reason
    );
    println!(
        "  comm trips:            {:>8}",
        result.fleet.total_comm_trips
    );
    println!(
        "  server updates:        {:>8}",
        result.fleet.total_server_updates
    );
    println!(
        "  mean active clients:   {:>8.1}",
        result.fleet.mean_active_clients
    );
    println!("  aggregator failures:   {:>8}", cp.aggregator_failures);
    println!("  task reassignments:    {:>8}", cp.task_reassignments);
    println!("  stale-route refusals:  {:>8}", cp.stale_route_refusals);
    println!(
        "  updates lost in transit:{:>7}",
        cp.lost_in_transit_updates
    );
    println!(
        "  buffered updates lost: {:>8}",
        result.fleet.total_lost_buffered_updates
    );
    println!("  final map sequence:    {:>8}", cp.final_map_sequence);
}
